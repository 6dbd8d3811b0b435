"""Seeded benchmark for authgraph: operation latency, rights queries, CLI replay.

Run from the repository root:

    python3 bench/run.py --workload admin-2k --seed 1 --seconds 55 --trace 0

Each workload is a closed loop with one caller that repeats whole rounds of
the same operations until `--seconds` have passed, checks every output against
computations made apart from the engine (see `checks.py`), and prints a table
of its metrics followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, timed with tracing off;
with `--trace 1` they are the per-layer ones, from a run whose every other
round records spans around the benchmark's calls into the program and adds
trace-only calls (layer probes); the spans are written to
`.bench_out/spans-<workload>-<seed>.json` when the run ends.  The program is
imported from `src/` next to this directory and never from an installed copy.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Metric names and units are defined once, in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class MissingSamples(Exception):
    """A metric got no sample, because every call it times failed."""


class Tracer:
    """Spans (name, start, end, parent) kept in memory until the run ends."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[tuple[str, float, float, int]] = []
        self._open: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def write(self, path: Path) -> None:
        """One row [name index, start, end, parent row or -1] per span."""
        names: dict[str, int] = {}
        rows = [[names.setdefault(n, len(names)), s, e, p] for n, s, e, p in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            json.dump({"names": list(names), "columns": ["name", "start", "end", "parent"], "spans": rows}, out)
            out.write("\n")


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        parent = t._open[-1] if t._open else -1
        self.index = len(t.spans)
        t.spans.append((self.name, time.perf_counter(), 0.0, parent))
        t._open.append(self.index)
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        t = self.tracer
        t._open.pop()
        name, start, _, parent = t.spans[self.index]
        t.spans[self.index] = (name, start, end, parent)
        return False


_NULL = nullcontext()


# Timings are reported as this nearest-rank percentile of their samples, not
# the median: on a shared machine most calls are slowed by other load, by a
# share that drifts over minutes, while the fastest few stay close to the
# call's own cost (see README.md, "Timings").
LOW_PERCENTILE = 5


def _percentile(values, p: int) -> float:
    """Nearest-rank p-th percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-p * len(ordered) // 100) - 1)]


def _samples(bench, name: str):
    values = bench.samples[name]
    if not values:
        raise MissingSamples(f"no samples for {name}")
    return values


def end_to_end_metrics(bench) -> dict[str, tuple[float, int]]:
    out = {}
    for name in END_TO_END:
        if name == "peak_rss_mb":
            out[name] = (bench.peak_rss_mb, 1)
        elif name == "setup_s":
            values = _samples(bench, name)
            out[name] = (statistics.median(values), len(values))
        elif name == "query_us_p99":
            values = _samples(bench, "query_us")
            out[name] = (_percentile(values, 99), len(values))
        else:
            values = _samples(bench, name)
            out[name] = (_percentile(values, LOW_PERCENTILE), len(values))
    return out


def per_layer_metrics(bench) -> dict[str, tuple[float, int]]:
    out = {}
    for name in PER_LAYER:
        if name == "tracing_overhead_s":
            traced, untraced = bench.round_s[True], bench.round_s[False]
            out[name] = (statistics.median(traced) - statistics.median(untraced), len(traced))
        elif name.startswith(("revocation.delta_entries.", "model.positive", "model.negative")):
            values = bench.samples[name]
            out[name] = (statistics.fmean(values), len(values))
        else:
            values = _samples(bench, name)
            out[name] = (_percentile(values, LOW_PERCENTILE), len(values))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import authgraph
    except ImportError as exc:
        print(f"error: cannot import authgraph from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(authgraph.__file__).resolve().parent.parent != SRC:
        print(f"error: authgraph was imported from {authgraph.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    tracer = Tracer(bool(args.trace))
    workdir = OUT / f"work-{args.workload}-{args.seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        bench = workloads.Bench(tracer, workdir, SRC)
        workloads.WORKLOADS[args.workload](bench, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        gc.unfreeze()

    try:
        if args.trace:
            metrics = per_layer_metrics(bench)
            units = PER_LAYER
            tracer.write(OUT / f"spans-{args.workload}-{args.seed}.json")
        else:
            metrics = end_to_end_metrics(bench)
            units = END_TO_END
    except MissingSamples as exc:
        print(f"error: {exc}; {bench.failed} calls failed, first: {bench.failures[:3]}", file=sys.stderr)
        return 1
    print(f"workload {args.workload} seed {args.seed}: {bench.rounds} rounds, "
          f"{bench.attempted} operations attempted, {bench.failed} failed, "
          f"{len(bench.problems)} mismatches")
    for problem in bench.problems[:20]:
        print(f"  mismatch: {problem}")
    for failure in bench.failures[:20]:
        print(f"  failed: {failure}")
    print(f"{'metric':34} {'value':>14} {'unit':6} {'samples':>8}")
    for name, (value, count) in metrics.items():
        print(f"{name:34} {value:14.6g} {units[name]:6} {count:8d}")
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
