"""The workloads and the calls into the program they time.

Every workload repeats whole rounds of the same operations until its time is
up.  Besides its library operations, each round contains a CLI pass:
`authgraph trace` on a start document and a trace, then `authgraph export` on
the result, both started as a user starts them, followed by an in-process
library replay of the same trace that the CLI result must equal.

Timings are taken around single public calls only; checks, input choice and
span bookkeeping stay outside the timed region.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import random
import resource
import subprocess
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import authgraph
from authgraph import (
    AuthGraphError,
    AuthorizationState,
    GrantOp,
    NegativeAuth,
    PositiveAuth,
    PositiveKind,
    RevocationRequest,
    RevokeOp,
    Scheme,
    Timeline,
    UndoOp,
    apply_operation,
    apply_scheme,
    export_dot,
    fixpoint_apply_delete,
    grant,
    parse_state,
    parse_trace,
    serialize_state,
    undo_negative,
)
from authgraph.semantics import reachable_active, reachable_plain

import checks
import gen
from checks import Ref

QUERIES = {
    "has_access_right": authgraph.has_access_right,
    "has_delegation_right": authgraph.has_delegation_right,
    "is_independent": authgraph.is_independent,
    "is_auth_active": authgraph.is_auth_active,
}
QUERY_KINDS = tuple(QUERIES)


class Bench:
    """Samples, counters and the timed call sites shared by all workloads."""

    def __init__(self, tracer, workdir: Path, src: Path) -> None:
        self.tracer = tracer
        self.trace = tracer.enabled  # whether the round under way is traced
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.samples: dict[str, array] = defaultdict(lambda: array("d"))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # wrong output from calls that succeeded
        self.failures: list[str] = []  # calls that raised or exited non-zero
        self.rounds = 0
        self.round_s: dict[bool, list[float]] = {True: [], False: []}  # by traced
        self.peak_rss_mb = 0.0

    # bookkeeping

    def check(self, problems: list[str], where: str = "") -> None:
        self.problems.extend(f"{where}: {p}" if where else p for p in problems)

    def call(self, span: str, fn, *args, metric: str | tuple[str, ...] = (), scale: float = 1e3):
        """Time one public call; a raised AuthGraphError counts as a failed operation."""
        self.attempted += 1
        with self.tracer.span(span):
            gc.disable()
            t0 = time.perf_counter()
            try:
                out = fn(*args)
            except AuthGraphError as exc:
                self.failed += 1
                self.failures.append(f"{span}{args[1:]!r}: {exc}")
                return None
            finally:
                dt = time.perf_counter() - t0
                gc.enable()
        for name in (metric,) if isinstance(metric, str) else metric:
            self.samples[name].append(dt * scale)
        return out

    def probe(self, state: AuthorizationState) -> None:
        """Traced runs only: time the layers every operation pays for inside."""
        if not self.trace:
            return
        fields = (state.soa, state.principals, state.positive, state.negative, state.time)
        fresh = self.call("model.AuthorizationState", AuthorizationState, *fields, metric="model.construct_ms")
        self.call("semantics.reachable_active", reachable_active, fresh, metric="semantics.reachable_active_ms")
        self.call("semantics.reachable_plain", reachable_plain, fresh, metric="semantics.reachable_plain_ms")

    def base_counts(self, state: AuthorizationState) -> None:
        self.samples["model.positive_edges"].append(len(state.positive))
        self.samples["model.negative_edges"].append(len(state.negative))

    # timed operations, each checked

    def query(self, state, ref: Ref, kind: str, args: tuple[str, ...]) -> None:
        got = self.call(f"semantics.{kind}", QUERIES[kind], state, *args,
                        metric=("query_us", f"semantics.{kind}_us"), scale=1e6)
        if got is not None:
            self.check(checks.check_query(ref, kind, args, got))

    def queries(self, rng: random.Random, state, ref: Ref, count: int, principals, edges, avoid) -> None:
        """`count` queries cycling through the four kinds, arguments drawn by `rng`.

        An edge for `is_auth_active` drawn from `edges` but gone from `state`
        is redrawn from the state's own edges; a state left without edges gets
        an access query instead, so every round makes the same number of calls.
        """
        for n in range(count):
            kind = QUERY_KINDS[n % 4]
            if kind == "is_auth_active":
                args = rng.choice(edges)
                if args not in ref.pos:
                    present = sorted(ref.pos)
                    if not present:
                        kind, args = "has_access_right", (args[1],)
                    else:
                        args = rng.choice(present)
            elif kind == "is_independent":
                args = (rng.choice(principals), rng.choice(avoid))
            else:
                args = (rng.choice(principals),)
            self.query(state, ref, kind, args)

    def grant(self, pre, g: str, e: str, kind: str):
        out = self.call("revocation.grant", grant, pre, g, e, PositiveKind[kind], metric="grant_ms")
        if out is None:
            return pre
        post, delta = out
        self.check(checks.check_delta(pre, post, delta))
        self.check(checks.check_grant(pre, post, g, e, kind))
        self.probe(post)
        return post

    def scheme(self, pre, pre_ref: Ref, scheme: str, i: str, j: str, oracle: bool):
        request = RevocationRequest(Scheme[scheme], i, j)
        out = self.call(
            f"revocation.apply_scheme.{scheme}", apply_scheme, pre, request,
            metric=f"revoke_{scheme.lower()}_ms",
        )
        if out is None:
            return pre, pre_ref
        post, delta = out
        post_ref = self.scheme_checks(pre, pre_ref, post, delta, scheme, i, j, oracle)
        self.probe(post)
        return post, post_ref

    def scheme_checks(self, pre, pre_ref, post, delta, scheme, i, j, oracle) -> Ref:
        self.samples[f"revocation.delta_entries.{scheme}"].append(
            len(delta.deleted_positive) + len(delta.deleted_negative)
            + len(delta.issued_positive) + len(delta.issued_negative)
        )
        post_ref = Ref(post)
        where = f"{scheme}({i},{j}) at {len(pre_ref.principals)} principals"
        self.check(checks.check_delta(pre, post, delta), where)
        self.check(checks.check_scheme(scheme, pre_ref, post_ref, delta, i, j), where)
        self.check(checks.check_connectivity(post_ref), where)
        if scheme[1] == "L":
            self.check(checks.check_locality(pre_ref, post_ref, j), where)
        if oracle and scheme[2] == "D":
            reference = fixpoint_apply_delete(pre, RevocationRequest(Scheme[scheme], i, j))
            self.check(checks.check_oracle(post, reference), where)
        return post_ref

    def undo(self, negated, i: str, j: str, pre):
        out = self.call("revocation.undo_negative", undo_negative, negated, i, j, metric="undo_ms")
        if out is None:
            return negated
        post, delta = out
        self.check(checks.check_delta(negated, post, delta))
        self.check(checks.check_undo(pre, post))
        self.probe(post)
        return post

    def known_fault(self) -> None:
        """WLN and SLN on a fixed state where the program breaks connectivity.

        (p0, p2) is a blocked TT and p1 grants p2 a TF; revoking (p0, p1)
        reissues that TF over the TT slot, p2 loses its only plain rooted
        chain and keeps its grant to p1.  The input does not depend on the
        seed, so each round counts exactly two failed operations until the
        program is fixed.
        """
        state = AuthorizationState(
            soa="p0",
            principals=frozenset({"p0", "p1", "p2"}),
            positive=(
                PositiveAuth("p0", "p1", PositiveKind.TT),
                PositiveAuth("p0", "p2", PositiveKind.TT),
                PositiveAuth("p1", "p2", PositiveKind.TF),
                PositiveAuth("p2", "p1", PositiveKind.TF),
            ),
            negative=(NegativeAuth("p0", "p2"),),
        )
        for scheme in (Scheme.WLN, Scheme.SLN):
            out = self.call(f"revocation.apply_scheme.{scheme.name}", apply_scheme, state,
                            RevocationRequest(scheme, "p0", "p1"))
            if out is not None and checks.check_connectivity(Ref(out[0])):
                self.failed += 1

    # the CLI pass

    def cli(self, args: list[str]) -> float | None:
        self.attempted += 1
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "authgraph.cli", *args],
            cwd=self.workdir, env=self.env, capture_output=True, text=True, timeout=150,
        )
        elapsed = time.perf_counter() - t0
        if done.returncode != 0:
            self.failed += 1
            self.failures.append(f"authgraph {args[0]} exited {done.returncode}: {done.stderr[-300:]}")
            return None
        return elapsed

    def cli_pass(self, doc: str, trace_text: str) -> None:
        """CLI trace and export, then a checked library replay of the same trace."""
        w = self.workdir
        (w / "start.json").write_text(doc, encoding="utf-8")
        (w / "ops.trace.json").write_text(trace_text, encoding="utf-8")
        for name in ("final.json", "graph.dot"):
            (w / name).unlink(missing_ok=True)
        replay = self.cli(["trace", "start.json", "ops.trace.json", "-o", "final.json"])
        if replay is not None:
            self.samples["trace_replay_s"].append(replay)
        exported = self.cli(["export", "final.json", "-o", "graph.dot"])
        if exported is not None:
            self.samples["export_s"].append(exported)

        start = self.call("io.parse_state", parse_state, doc, metric="io.parse_state_ms")
        ops = self.call("io.parse_trace", parse_trace, trace_text, metric="io.parse_trace_ms")
        if start is None or ops is None:
            return
        timeline = Timeline(initial=start)
        state, ref = start, Ref(start)
        before_negative = {}
        for op in ops:
            timeline = self.call("revocation.apply_operation", apply_operation, timeline, op,
                                 metric="revocation.apply_operation_ms")
            if timeline is None:
                return
            step = timeline.steps[-1]
            post = step.state
            match op:
                case GrantOp():
                    self.check(checks.check_delta(state, post, step.delta))
                    self.check(checks.check_grant(state, post, op.grantor, op.grantee, op.kind.name))
                    post_ref = Ref(post)
                case RevokeOp():
                    if not op.scheme.is_delete:
                        before_negative[(op.revoker, op.target)] = state
                    post_ref = self.scheme_checks(state, ref, post, step.delta, op.scheme.name,
                                                  op.revoker, op.target, oracle=True)
                case UndoOp():
                    self.check(checks.check_delta(state, post, step.delta))
                    self.check(checks.check_undo(before_negative.pop((op.grantor, op.grantee)), post))
                    post_ref = Ref(post)
            state, ref = post, post_ref

        text = self.call("io.serialize_state", serialize_state, state, metric="io.serialize_state_ms")
        if self.trace:
            self.call("io.export_dot", export_dot, state, metric="io.export_dot_ms")
        if replay is None or exported is None:
            return
        cli_text = (w / "final.json").read_text(encoding="utf-8")
        self.check(checks.check_replay(cli_text, text))
        self.check(checks.check_document(cli_text, parse_state, serialize_state))
        self.check(checks.check_connectivity(ref))
        self.check(checks.check_dot(ref, (w / "graph.dot").read_text(encoding="utf-8")))


def _build(bench: Bench, build):
    """Time one build of the run's inputs as a setup_s sample."""
    gc.collect()
    t0 = time.perf_counter()
    inputs = build()
    bench.samples["setup_s"].append(time.perf_counter() - t0)
    return inputs


def _cli_inputs(rng: random.Random, graph: gen.Graph) -> tuple[str, str]:
    """The graph as a state document and a one-round mixed trace on it."""
    doc = gen.to_document(graph)
    return doc, _trace_text(gen.make_trace(rng, graph, rounds=1))


def _trace_text(ops: list[dict]) -> str:
    return json.dumps({"version": 1, "operations": ops})


def _pick_targets(rng: random.Random, targets) -> dict[str, tuple[str, str]]:
    """One seeded target edge for every scheme but WLN and SLN, and one for those two.

    `targets` is (gen.targets, gen.local_negative_targets) of the pre-state.
    """
    shared, local = rng.choice(targets[0]), rng.choice(targets[1])
    return {s: local if s in gen.LOCAL_NEGATIVE_SCHEMES else shared
            for s in gen.DELETE_SCHEMES + gen.NEGATIVE_SCHEMES}


def _run(bench: Bench, seconds: float, build, one_round) -> None:
    """Repeat whole rounds until `seconds` have passed.

    Each round first rebuilds the inputs and discards them, so setup_s is a
    median over samples spread across the run like every other metric.
    peak_rss_mb is read after the first round: later rounds repeat the same
    work and would only add the growth of the sample arrays, which is larger
    the faster the program runs.  A traced run repeats pairs of rounds, one
    traced and one not, and the difference of their wall times is the
    tracing overhead.
    """
    modes = (True, False) if bench.trace else (False,)
    gc.collect()
    gc.freeze()
    started = time.perf_counter()
    while bench.rounds == 0 or time.perf_counter() - started < seconds:
        for traced in modes:
            bench.trace = bench.tracer.enabled = traced
            t0 = time.perf_counter()
            _build(bench, build)
            one_round()
            bench.round_s[traced].append(time.perf_counter() - t0)
            bench.rounds += 1
            if bench.rounds == 1:
                bench.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# Workloads.


def admin_2k(bench: Bench, seed: int, seconds: float) -> None:
    """Grant, the eight schemes, undo and queries on one 2*10^3 pre-state; CLI on 500."""
    def build():
        rng = random.Random(f"admin-2k:{seed}")
        graph = gen.standard_graph(rng, 2_000)
        state = gen.to_state(graph)
        return rng, graph, state, _cli_inputs(rng, gen.standard_graph(rng, 500))

    rng, graph, base, (doc, trace_text) = _build(bench, build)
    bench.base_counts(base)
    base_ref = Ref(base)
    principals, edges = sorted(base.principals), sorted(base_ref.pos)
    targets = gen.targets(graph), gen.local_negative_targets(graph)
    active = sorted(base_ref.active & set(graph.core))
    spare = itertools.cycle(graph.spare)

    def one_round() -> None:
        pick = _pick_targets(rng, targets)
        avoid = [pick["WLD"][0], rng.choice(principals)]
        for _ in range(3):
            post = bench.grant(base, rng.choice(active), next(spare), rng.choice(("TT", "TF")))
        bench.queries(rng, post, Ref(post), 8, principals, edges, avoid)
        for scheme in gen.DELETE_SCHEMES + gen.NEGATIVE_SCHEMES:
            i, j = pick[scheme]
            post, post_ref = bench.scheme(base, base_ref, scheme, i, j, oracle=True)
            bench.queries(rng, post, post_ref, 8, principals, edges, avoid)
            if scheme[2] == "N":
                bench.undo(post, i, j, base)
        bench.cli_pass(doc, trace_text)

    _run(bench, seconds, build, one_round)


def small_sweep(bench: Bench, seed: int, seconds: float) -> None:
    """Every scheme, a grant, undo and queries on many states of at most six principals."""
    per_round = 200

    def build():
        rng = random.Random(f"small-sweep:{seed}")
        pool = []
        while len(pool) < 1000:
            graph = gen.small_graph(rng)
            if gen.local_negative_targets(graph):
                pool.append((graph, gen.to_state(graph)))
        return rng, pool, _cli_inputs(rng, gen.make_graph(rng, 14, 8, 9, blocked=1))

    rng, pool, (doc, trace_text) = _build(bench, build)
    prepared = []
    for graph, state in pool:
        bench.base_counts(state)
        ref = Ref(state)
        prepared.append((graph, state, ref, sorted(state.principals), sorted(ref.pos),
                         sorted(ref.active & set(graph.core)),
                         (gen.targets(graph), gen.local_negative_targets(graph))))
    cursor = itertools.cycle(prepared)

    def one_round() -> None:
        for _ in range(per_round):
            graph, base, base_ref, principals, edges, active, targets = next(cursor)
            pick = _pick_targets(rng, targets)
            avoid = [pick["WLD"][0]]
            post = bench.grant(base, rng.choice(active), graph.spare[0], rng.choice(("TT", "TF")))
            bench.queries(rng, post, Ref(post), 4, principals, edges, avoid)
            for scheme in gen.DELETE_SCHEMES + gen.NEGATIVE_SCHEMES:
                i, j = pick[scheme]
                post, post_ref = bench.scheme(base, base_ref, scheme, i, j, oracle=True)
                bench.queries(rng, post, post_ref, 4, principals, edges, avoid)
                if scheme[2] == "N":
                    bench.undo(post, i, j, base)
        bench.cli_pass(doc, trace_text)
        bench.known_fault()

    _run(bench, seconds, build, one_round)


WORKLOADS = {
    "admin-2k": admin_2k,
    "small-sweep": small_sweep,
}
