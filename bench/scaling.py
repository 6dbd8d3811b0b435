"""One-off scaling series: per-operation medians at 10^3, 10^4 and 10^5 principals.

Not a gated workload.  Run from the repository root:

    python3 bench/scaling.py --seed 1

For each size it builds the standard make-up (see gen.standard_graph), then on
three seeded target edges times grant, each scheme and undo from the same
pre-state, plus twenty rights queries, and prints one Markdown table row of
medians per size.
"""

from __future__ import annotations

import argparse
import gc
import random
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from authgraph import (  # noqa: E402
    PositiveKind,
    RevocationRequest,
    Scheme,
    apply_scheme,
    grant,
    has_access_right,
    is_independent,
    undo_negative,
)

import gen  # noqa: E402

SIZES = (1_000, 10_000, 100_000)
TARGETS = 3


def timed(fn, *args):
    gc.disable()
    try:
        t0 = time.perf_counter()
        out = fn(*args)
        return out, time.perf_counter() - t0
    finally:
        gc.enable()


def series(n: int, seed: int) -> dict[str, float]:
    rng = random.Random(f"scaling:{n}:{seed}")
    graph = gen.standard_graph(rng, n)
    t0 = time.perf_counter()
    base = gen.to_state(graph)
    samples: dict[str, list[float]] = {"construct": [time.perf_counter() - t0]}
    active = sorted(graph.active() & set(graph.core))
    principals = sorted(graph.principals)
    for i, j in rng.sample(gen.local_negative_targets(graph), TARGETS):
        _, dt = timed(grant, base, rng.choice(active), rng.choice(graph.spare), PositiveKind.TT)
        samples.setdefault("grant", []).append(dt)
        for scheme in Scheme:
            (post, _), dt = timed(apply_scheme, base, RevocationRequest(scheme, i, j))
            samples.setdefault(scheme.name, []).append(dt)
            if not scheme.is_delete:
                _, dt = timed(undo_negative, post, i, j)
                samples.setdefault("undo", []).append(dt)
        for _ in range(10):
            _, dt = timed(has_access_right, base, rng.choice(principals))
            samples.setdefault("query", []).append(dt)
            _, dt = timed(is_independent, base, rng.choice(principals), i)
            samples.setdefault("query", []).append(dt)
    return {k: statistics.median(v) * 1e3 for k, v in samples.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    columns = ["construct", "grant", *(s.name for s in Scheme), "undo", "query"]
    print("| principals | " + " | ".join(columns) + " |")
    print("|" + "---|" * (len(columns) + 1))
    for n in SIZES:
        row = series(n, args.seed)
        print(f"| {n} | " + " | ".join(f"{row[c]:.3g}" for c in columns) + " |", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
