"""Each benchmark check passes on the program's output and flags a corrupted one.

Run from the repository root:

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import pytest  # noqa: E402

from authgraph import (  # noqa: E402
    AuthorizationState,
    NegativeAuth,
    PositiveAuth,
    PositiveKind,
    RevocationDelta,
    RevocationRequest,
    Scheme,
    Timeline,
    apply_operation,
    apply_scheme,
    export_dot,
    fixpoint_apply_delete,
    grant,
    has_access_right,
    has_delegation_right,
    is_auth_active,
    is_independent,
    parse_state,
    parse_trace,
    serialize_state,
    undo_negative,
)

import checks  # noqa: E402
import gen  # noqa: E402
from checks import Ref  # noqa: E402

TT, TF = PositiveKind.TT, PositiveKind.TF


def state_of(pos, neg=(), soa="a", principals="abcde"):
    return AuthorizationState(
        soa=soa,
        principals=frozenset(principals),
        positive=tuple(PositiveAuth(g, e, k) for g, e, k in pos),
        negative=tuple(NegativeAuth(g, e) for g, e in neg),
    )


# a -> b -> c TT, a -> d TT blocked, d -> e TF, b -> e TF
BASE = state_of(
    [("a", "b", TT), ("b", "c", TT), ("a", "d", TT), ("d", "e", TF), ("b", "e", TF)],
    neg=[("a", "d")],
)


def with_positive(state, entries):
    return dataclasses.replace(state, positive=tuple(entries))


@pytest.fixture(scope="module")
def medium():
    graph = gen.standard_graph(random.Random("checks"), 200)
    return graph, gen.to_state(graph)


def test_queries_match_and_flipped_answers_are_flagged(medium):
    graph, state = medium
    ref = Ref(state)
    rng = random.Random(1)
    principals = sorted(state.principals)
    for _ in range(50):
        p, i = rng.choice(principals), rng.choice(principals)
        g, e = rng.choice(sorted(ref.pos))
        cases = [
            ("has_access_right", (p,), has_access_right(state, p)),
            ("has_delegation_right", (p,), has_delegation_right(state, p)),
            ("is_independent", (p, i), is_independent(state, p, i)),
            ("is_auth_active", (g, e), is_auth_active(state, g, e)),
        ]
        for kind, args, got in cases:
            assert checks.check_query(ref, kind, args, got) == []
            assert checks.check_query(ref, kind, args, not got)


def test_delta_identity_flags_missing_and_invented_entries():
    post, delta = apply_scheme(BASE, RevocationRequest(Scheme.WGD, "a", "b"))
    assert checks.check_delta(BASE, post, delta) == []
    assert delta.deleted_positive
    dropped = dataclasses.replace(delta, deleted_positive=frozenset(list(delta.deleted_positive)[1:]))
    assert checks.check_delta(BASE, post, dropped)
    invented = dataclasses.replace(
        delta, issued_negative=delta.issued_negative | {NegativeAuth("c", "e")}
    )
    assert checks.check_delta(BASE, post, invented)
    missing_from_post = with_positive(post, post.positive[1:])
    assert checks.check_delta(BASE, missing_from_post, delta)


def test_grant_check_flags_wrong_kind_and_side_effects():
    post, _ = grant(BASE, "b", "d", TF)
    assert checks.check_grant(BASE, post, "b", "d", "TF") == []
    assert checks.check_grant(BASE, post, "b", "d", "TT")
    side_effect = with_positive(post, [a for a in post.positive if a.pair != ("b", "c")])
    assert checks.check_grant(BASE, side_effect, "b", "d", "TF")


def test_connectivity_flags_an_orphan_grantor():
    assert checks.check_connectivity(Ref(BASE)) == []
    orphan = with_positive(BASE, [a for a in BASE.positive if a.pair != ("a", "b")])
    assert checks.check_connectivity(Ref(orphan))


def test_undo_must_restore_the_exact_pre_state():
    negated, _ = apply_scheme(BASE, RevocationRequest(Scheme.SGN, "a", "b"))
    restored, _ = undo_negative(negated, "a", "b")
    assert checks.check_undo(BASE, restored) == []
    assert checks.check_undo(BASE, negated)
    relabelled = with_positive(
        restored,
        [dataclasses.replace(a, kind=TF) if a.pair == ("b", "c") else a for a in restored.positive],
    )
    assert checks.check_undo(BASE, relabelled)


def test_locality_flags_moved_rights_of_others():
    post, _ = apply_scheme(BASE, RevocationRequest(Scheme.WLN, "a", "b"))
    assert checks.check_locality(Ref(BASE), Ref(post), "b") == []
    global_post, _ = apply_scheme(BASE, RevocationRequest(Scheme.WGN, "a", "b"))
    assert checks.check_locality(Ref(BASE), Ref(global_post), "b")


def test_scheme_invariants_pass_on_engine_output(medium):
    graph, state = medium
    rng = random.Random(2)
    pre = Ref(state)
    for i, j in rng.sample(gen.local_negative_targets(graph), 10):
        for scheme in Scheme:
            post, delta = apply_scheme(state, RevocationRequest(scheme, i, j))
            assert checks.check_scheme(scheme.name, pre, Ref(post), delta, i, j) == []


def test_scheme_invariants_flag_corrupted_results():
    # besides b, c (reached from a directly) grants e
    state = state_of(
        [("a", "b", TT), ("b", "c", TT), ("a", "c", TT), ("c", "e", TT), ("b", "e", TF)],
    )
    pre = Ref(state)
    empty = RevocationDelta()

    post, delta = apply_scheme(state, RevocationRequest(Scheme.WLD, "b", "e"))
    assert checks.check_scheme("WLD", pre, Ref(post), delta, "b", "e") == []
    # revoked edge kept
    assert checks.check_scheme("WLD", pre, Ref(state), empty, "b", "e")
    # weak delete dropped another grantor's edge though the grantor kept a chain
    dropped = with_positive(post, [a for a in post.positive if a.pair != ("c", "e")])
    assert checks.check_scheme("WLD", pre, Ref(dropped), delta, "b", "e")

    post, delta = apply_scheme(state, RevocationRequest(Scheme.WLN, "b", "e"))
    assert checks.check_scheme("WLN", pre, Ref(post), delta, "b", "e") == []
    # negative scheme that did not block the revoked edge
    assert checks.check_scheme("WLN", pre, Ref(state), empty, "b", "e")
    # weak negative that blocked another grantor
    extra = NegativeAuth("c", "e", next(iter(delta.issued_negative)).label)
    blocked = dataclasses.replace(post, negative=post.negative + (extra,))
    bigger = dataclasses.replace(delta, issued_negative=delta.issued_negative | {extra})
    assert checks.check_scheme("WLN", pre, Ref(blocked), bigger, "b", "e")

    # strong local schemes must not leave a grant from a dependent of i into j
    dependent = state_of([("a", "b", TT), ("b", "c", TT), ("c", "d", TT), ("b", "d", TT)])
    dep_pre = Ref(dependent)
    post, delta = apply_scheme(dependent, RevocationRequest(Scheme.SLD, "b", "d"))
    assert checks.check_scheme("SLD", dep_pre, Ref(post), delta, "b", "d") == []
    kept = with_positive(post, post.positive + (PositiveAuth("c", "d", TT),))
    assert checks.check_scheme("SLD", dep_pre, Ref(kept), delta, "b", "d")
    post, delta = apply_scheme(dependent, RevocationRequest(Scheme.SLN, "b", "d"))
    assert checks.check_scheme("SLN", dep_pre, Ref(post), delta, "b", "d") == []
    unblocked = dataclasses.replace(post, negative=tuple(n for n in post.negative if n.pair != ("c", "d")))
    thinner = dataclasses.replace(
        delta, issued_negative=frozenset(n for n in delta.issued_negative if n.pair != ("c", "d"))
    )
    assert checks.check_scheme("SLN", dep_pre, Ref(unblocked), thinner, "b", "d")

    # global schemes issue no positives, global delete schemes nothing at all
    post, delta = apply_scheme(state, RevocationRequest(Scheme.WGD, "a", "b"))
    assert checks.check_scheme("WGD", pre, Ref(post), delta, "a", "b") == []
    issued = RevocationDelta(issued_negative=frozenset({NegativeAuth("a", "e")}))
    assert checks.check_scheme("WGD", pre, Ref(post), issued, "a", "b")
    post, delta = apply_scheme(state, RevocationRequest(Scheme.WGN, "a", "b"))
    reissue = dataclasses.replace(delta, issued_positive=frozenset({PositiveAuth("a", "e", TF)}))
    assert checks.check_scheme("WGN", pre, Ref(post), reissue, "a", "b")


def test_dot_check_flags_missing_edges_and_wrong_dashes(medium):
    _, state = medium
    ref = Ref(state)
    text = export_dot(state)
    assert checks.check_dot(ref, text) == []
    lines = text.splitlines()
    solid = next(n for n, line in enumerate(lines) if "TT" in line and "dashed" not in line)
    dashed = next(n for n, line in enumerate(lines) if "dashed" in line)
    negative = next(n for n, line in enumerate(lines) if '"FF"' in line)
    corruptions = [
        lines[:solid] + lines[solid + 1 :],
        lines[:solid] + [lines[solid].replace('"];', '", style=dashed];')] + lines[solid + 1 :],
        lines[:dashed] + [lines[dashed].replace(", style=dashed", "")] + lines[dashed + 1 :],
        lines[:negative] + lines[negative + 1 :],
        lines + [lines[solid]],
    ]
    for corrupt in corruptions:
        assert checks.check_dot(ref, "\n".join(corrupt) + "\n")


def test_oracle_check_flags_a_wrong_delete_result(medium):
    graph, state = medium
    i, j = gen.targets(graph)[0]
    request = RevocationRequest(Scheme.SGD, i, j)
    post, _ = apply_scheme(state, request)
    reference = fixpoint_apply_delete(state, request)
    assert checks.check_oracle(post, reference) == []
    assert checks.check_oracle(with_positive(post, post.positive[1:]), reference)


def test_replay_check_flags_a_differing_cli_result():
    text = serialize_state(BASE)
    assert checks.check_replay(text, text) == []
    assert checks.check_replay(text.replace('"TF"', '"TT"', 1), text)


def test_document_check_flags_non_canonical_text():
    text = serialize_state(BASE)
    assert checks.check_document(text, parse_state, serialize_state) == []
    assert checks.check_document(text.replace("  ", "   "), parse_state, serialize_state)
    unsorted = json.loads(text)
    unsorted["positive"].reverse()
    assert checks.check_document(json.dumps(unsorted, indent=2) + "\n", parse_state, serialize_state)
    # a serializer that drifts from the published layout, consistent with itself
    assert checks.check_document(json.dumps(json.loads(text), indent=1) + "\n", parse_state,
                                 lambda state: json.dumps(json.loads(text), indent=1) + "\n")
    assert checks.check_document(gen.to_document(gen.small_graph(random.Random(3))), parse_state, serialize_state)


def test_generated_trace_replays_and_is_seeded():
    def make(seed):
        rng = random.Random(seed)
        graph = gen.standard_graph(rng, 400)
        doc = gen.to_document(graph)
        return doc, gen.make_trace(rng, graph, rounds=2)

    doc, trace = make(7)
    assert (doc, trace) == make(7)
    assert (doc, trace) != make(8)
    ops = {(op["op"], op.get("scheme")) for op in trace}
    assert {s for _, s in ops if s} == set(gen.DELETE_SCHEMES + gen.NEGATIVE_SCHEMES)
    timeline = Timeline(initial=parse_state(doc))
    for op in parse_trace(json.dumps(trace)):
        timeline = apply_operation(timeline, op)
    assert checks.check_connectivity(Ref(timeline.current)) == []


def test_short_run_reports_every_metric():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "small-sweep",
         "--seed", "1", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
