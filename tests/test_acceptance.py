"""Acceptance gate: ten criteria, one verdict line each.

Each test prints "[criterion NN] <name>: PASS|FAIL" on the live terminal
(bypassing capture) and then asserts.  Criteria 6 and 7 share one randomized
sweep, built once per module.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time

import pytest

from authgraph import (
    AuthGraphError,
    AuthorizationState,
    DuplicateNegativeError,
    EngineConfig,
    GrantOp,
    ModelError,
    NegativeOp,
    PositiveKind,
    RevocationRequest,
    RevokeOp,
    Scheme,
    UndoOp,
    active_chain_exists,
    apply_scheme,
    check_equivalence,
    enumerate_chains,
    export_dot,
    grant,
    has_access_right,
    has_delegation_right,
    is_auth_active,
    is_independent,
    issue_negative,
    new_state,
    parse_state,
    rooted_chain_exists,
    serialize_state,
    states_equal,
    undo_negative,
    validate_connectivity,
)
from authgraph.semantics import reachable_plain

import generators

NEGATIVE_SCHEMES = (Scheme.WLN, Scheme.WGN, Scheme.SLN, Scheme.SGN)
DELETE_SCHEMES = (Scheme.WLD, Scheme.WGD, Scheme.SLD, Scheme.SGD)

SWEEP_STATES = 100_000
UNDO_ROUNDS_PER_SCHEME = 1_000
SEQUENCE_RUNS = 1_000
EQUIVALENCE_STATES = 10_000
CHAIN_STATES = 10_000


def _verdict(capsys, num, name, ok, detail=""):
    with capsys.disabled():
        print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, detail or name


def _sketch(state):
    pos = ",".join(f"{a.grantor}{a.grantee}:{a.kind.name}" for a in state.positive)
    neg = ",".join(f"{n.grantor}{n.grantee}" for n in state.negative)
    return f"pos[{pos}] neg[{neg}]"


def test_criterion_01_golden_scheme_results(fixtures_dir, capsys):
    base_text = (fixtures_dir / "revocation_base.json").read_text(encoding="utf-8")
    expectations = [
        (Scheme.WLD, True, "after_wld.json"),
        (Scheme.WGD, True, "after_wgd.json"),
        (Scheme.SLD, True, "after_sld.json"),
        (Scheme.SGD, True, "after_sgd.json"),
        (Scheme.WLN, True, "after_wln.json"),
        (Scheme.SGD, False, "after_sgd_variant.json"),
    ]
    problems = []
    started = time.monotonic()
    base = parse_state(base_text)
    for scheme, flag, golden in expectations:
        post, _ = apply_scheme(
            base,
            RevocationRequest(scheme, "A", "B"),
            EngineConfig(sgd_descendant_dominance=flag),
        )
        produced = serialize_state(post)
        stored = (fixtures_dir / golden).read_text(encoding="utf-8")
        if produced != stored:
            problems.append(f"{scheme.name} flag={flag} does not match {golden}")
        if scheme is Scheme.WLN:
            for pair in [("A", "B"), ("B", "C"), ("B", "E")]:
                if is_auth_active(post, *pair):
                    problems.append(f"WLN left {pair} active")
            labelled = {a.pair for a in post.positive if a.label is not None}
            if labelled != {("A", "C"), ("A", "E")}:
                problems.append(f"WLN labelled reissues were {sorted(labelled)}")
    elapsed = time.monotonic() - started
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, budget 1s")
    _verdict(capsys, 1, "golden scheme results byte-equal", not problems, "; ".join(problems))


def test_criterion_02_activation_and_dashing(blocked_chain, capsys):
    problems = []
    for pair, want in [
        (("A", "B"), False),
        (("B", "C"), False),
        (("A", "C"), True),
        (("C", "D"), True),
    ]:
        if is_auth_active(blocked_chain, *pair) is not want:
            problems.append(f"{pair} activation != {want}")
    dashed = {
        line.split(" [")[0].strip()
        for line in export_dot(blocked_chain).splitlines()
        if "style=dashed" in line
    }
    if dashed != {'"A" -> "B"', '"B" -> "C"'}:
        problems.append(f"dashed set was {sorted(dashed)}")
    _verdict(capsys, 2, "activation semantics and dashed export", not problems, "; ".join(problems))


def test_criterion_03_rights_classification(rights_basic, capsys):
    expected = {
        "A": (True, True),
        "B": (True, True),
        "D": (True, True),
        "C": (True, False),
        "E": (False, False),
    }
    got = {
        p: (has_access_right(rights_basic, p), has_delegation_right(rights_basic, p))
        for p in expected
    }
    _verdict(
        capsys,
        3,
        "rights split access versus delegation",
        got == expected,
        f"expected {expected}, got {got}",
    )


def test_criterion_04_undo_round_trip(capsys):
    rng = random.Random(0x04D0)
    failures = []
    started = time.monotonic()
    for scheme in NEGATIVE_SCHEMES:
        done = 0
        while done < UNDO_ROUNDS_PER_SCHEME:
            state = generators.random_label_free_state(rng, max_principals=8)
            candidates = [
                a for a in state.positive if a.pair not in state.negative_by_pair
            ]
            if not candidates:
                continue
            edge = rng.choice(candidates)
            negated, _ = apply_scheme(
                state, RevocationRequest(scheme, edge.grantor, edge.grantee)
            )
            restored, _ = undo_negative(negated, edge.grantor, edge.grantee)
            if not states_equal(restored, state):
                failures.append(
                    f"{scheme.name}({edge.grantor},{edge.grantee}) on {_sketch(state)}"
                )
                if len(failures) >= 5:
                    break
            done += 1
    elapsed = time.monotonic() - started
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s, budget 30s")
    _verdict(
        capsys,
        4,
        f"undo round-trip on {UNDO_ROUNDS_PER_SCHEME} states per negative scheme",
        not failures,
        "; ".join(failures[:5]),
    )


def test_criterion_05_connectivity_preservation(capsys):
    rng = random.Random(0x05C5)
    failures = []
    names = list("ABCDEF")
    for _ in range(SEQUENCE_RUNS):
        state = new_state(names[0], names)
        for _ in range(rng.randint(1, 20)):
            op = generators.random_operation(rng, state)
            try:
                match op:
                    case GrantOp():
                        state, _ = grant(state, op.grantor, op.grantee, op.kind)
                    case NegativeOp():
                        state, _ = issue_negative(state, op.grantor, op.grantee)
                    case RevokeOp():
                        state, _ = apply_scheme(
                            state, RevocationRequest(op.scheme, op.revoker, op.target)
                        )
                    case UndoOp():
                        state, _ = undo_negative(state, op.grantor, op.grantee)
            except AuthGraphError:
                continue
            violations = validate_connectivity(state)
            if violations:
                failures.append(f"{op} left {violations[0]} in {_sketch(state)}")
                break
        if len(failures) >= 5:
            break
    _verdict(
        capsys,
        5,
        f"connectivity holds across {SEQUENCE_RUNS} operation sequences",
        not failures,
        "; ".join(failures[:5]),
    )


@pytest.fixture(scope="module")
def scheme_sweep():
    """Apply every scheme to a random edge of many random states once.

    Returns per-criterion failure samples plus counters; criteria 6 and 7
    both read from this single pass, and so does the check that every
    engine-built state passes the public constructor unchanged and comes with
    a delta equal to the set difference of pre- and post-state.
    """
    rng = random.Random(0x6007)
    locality, invariants, rebuilds = [], [], []
    exercised = applications = 0
    while exercised < SWEEP_STATES:
        state = generators.random_state(rng, max_principals=6, max_ops=12)
        edge = generators.random_edge(rng, state)
        if edge is None:
            continue
        exercised += 1
        i, j = edge.grantor, edge.grantee
        blocked = (i, j) in state.negative_by_pair
        pre_profile = generators.rights_profile(state)
        pre_into_j = [a.grantor for a in state.positive if a.grantee == j]
        for scheme in Scheme:
            if blocked and not scheme.is_delete:
                continue
            post, delta = apply_scheme(state, RevocationRequest(scheme, i, j))
            applications += 1
            where = f"{scheme.name}({i},{j}) on {_sketch(state)}"

            if len(rebuilds) < 5:
                try:
                    rebuilt = AuthorizationState(
                        post.soa, post.principals, post.positive, post.negative, post.time
                    )
                    if not states_equal(rebuilt, post):
                        rebuilds.append(f"{where}: public rebuild differs from the engine's state")
                except ModelError as exc:
                    rebuilds.append(f"{where}: public constructor refused the engine's state: {exc}")
                pre_pos, post_pos = set(state.positive), set(post.positive)
                pre_neg, post_neg = set(state.negative), set(post.negative)
                if (
                    delta.deleted_positive != pre_pos - post_pos
                    or delta.issued_positive != post_pos - pre_pos
                    or delta.deleted_negative != pre_neg - post_neg
                    or delta.issued_negative != post_neg - pre_neg
                ):
                    rebuilds.append(f"{where}: delta is not the set difference")

            if scheme.is_local and len(locality) < 5:
                post_profile = generators.rights_profile(post)
                for p, before in pre_profile.items():
                    if p != j and post_profile[p] != before:
                        locality.append(f"{where}: rights of {p} moved {before} -> {post_profile[p]}")
                # pair-level corollary: removals touch j, additions come from
                # i; slots merged on (i, k) and purged entries of disconnected
                # grantors are the sanctioned exceptions
                plain_post = reachable_plain(post)
                post_pos, post_neg = post.positive_by_pair, post.negative_by_pair
                pre_pos, pre_neg = state.positive_by_pair, state.negative_by_pair
                for pair in pre_pos:
                    if pair not in post_pos and j not in pair and pair[0] in plain_post:
                        locality.append(f"{where}: removed positive {pair} away from target")
                for pair in pre_neg:
                    if (
                        pair not in post_neg
                        and j not in pair
                        and pair[0] != i
                        and pair[0] in plain_post
                    ):
                        locality.append(f"{where}: removed negative {pair} away from target")
                for pair in post_pos:
                    if pair not in pre_pos and pair[0] != i:
                        locality.append(f"{where}: added positive {pair} not from revoker")
                for pair in post_neg:
                    if pair not in pre_neg and pair[0] != i and pair[1] != j:
                        locality.append(f"{where}: added negative {pair} off target")

            if len(invariants) >= 5:
                continue
            if not scheme.is_strong:
                # weakness: other grantors of j keep their entries
                if scheme.is_delete:
                    plain_post = None
                    for k in pre_into_j:
                        if k != i and (k, j) not in post.positive_by_pair:
                            if plain_post is None:
                                plain_post = reachable_plain(post)
                            if k in plain_post:
                                invariants.append(f"{where}: dropped ({k},{j}) though {k} kept a chain")
                else:
                    for auth in delta.issued_negative:
                        if auth.grantee == j and auth.grantor != i:
                            invariants.append(f"{where}: weak scheme blocked ({auth.grantor},{j})")
            if scheme is Scheme.SLD:
                for auth in post.positive:
                    if auth.grantee == j and not is_independent(state, auth.grantor, i):
                        invariants.append(f"{where}: dependent survivor ({auth.grantor},{j})")
            elif scheme is Scheme.SLN:
                added = {n.pair for n in delta.issued_negative}
                for auth in post.positive:
                    if (
                        auth.grantee == j
                        and auth.pair not in added
                        and auth.pair not in state.negative_by_pair
                        and not is_independent(state, auth.grantor, i)
                    ):
                        invariants.append(f"{where}: dependent uncovered survivor ({auth.grantor},{j})")
            if not scheme.is_local:
                if scheme.is_delete and (delta.issued_positive or delta.issued_negative):
                    invariants.append(f"{where}: global delete issued something")
                if not scheme.is_delete and delta.issued_positive:
                    invariants.append(f"{where}: global negative issued a positive")

        if exercised % 997 == 0:
            profile = generators.rights_profile(state)
            for p in state.principals:
                assert profile[p] == (
                    has_access_right(state, p),
                    has_delegation_right(state, p),
                )
    return {
        "locality": locality,
        "invariants": invariants,
        "rebuilds": rebuilds,
        "exercised": exercised,
        "applications": applications,
    }


def test_criterion_06_locality(scheme_sweep, capsys):
    ok = not scheme_sweep["locality"] and scheme_sweep["exercised"] >= SWEEP_STATES
    _verdict(
        capsys,
        6,
        f"locality across {scheme_sweep['exercised']} swept states",
        ok,
        "; ".join(scheme_sweep["locality"][:5]),
    )


def test_criterion_07_weak_strong_global_invariants(scheme_sweep, capsys):
    ok = not scheme_sweep["invariants"] and scheme_sweep["applications"] >= SWEEP_STATES
    _verdict(
        capsys,
        7,
        f"weakness, strength and globality across {scheme_sweep['applications']} applications",
        ok,
        "; ".join(scheme_sweep["invariants"][:5]),
    )


def test_engine_states_survive_the_public_constructor(scheme_sweep):
    assert scheme_sweep["applications"] >= SWEEP_STATES
    assert not scheme_sweep["rebuilds"], "; ".join(scheme_sweep["rebuilds"])


def test_criterion_08_dual_engine_equivalence(capsys):
    rng = random.Random(0x08DE)
    failures = []
    exercised = 0
    while exercised < EQUIVALENCE_STATES:
        state = generators.random_state(rng, max_principals=6, max_ops=12)
        if rng.random() < 0.3:
            edge = generators.random_edge(rng, state)
            if edge is not None:
                try:
                    state, _ = apply_scheme(
                        state,
                        RevocationRequest(
                            rng.choice(NEGATIVE_SCHEMES), edge.grantor, edge.grantee
                        ),
                    )
                except AuthGraphError:
                    pass
        edge = generators.random_edge(rng, state)
        if edge is None:
            continue
        exercised += 1
        for flag in (True, False):
            config = EngineConfig(sgd_descendant_dominance=flag)
            for scheme in DELETE_SCHEMES:
                request = RevocationRequest(scheme, edge.grantor, edge.grantee)
                if not check_equivalence(state, request, config):
                    failures.append(f"{scheme.name} flag={flag} on {_sketch(state)}")
                    if len(failures) >= 3:
                        break
        if len(failures) >= 3:
            break
    _verdict(
        capsys,
        8,
        f"engine matches reference on {exercised} states, both flags",
        not failures and exercised >= EQUIVALENCE_STATES,
        "; ".join(failures[:3]),
    )


def test_criterion_09_chain_oracle_equivalence(capsys):
    rng = random.Random(0x09CE)
    failures = []
    for _ in range(CHAIN_STATES):
        state = generators.random_state(rng, max_principals=7, max_ops=12)
        principals = sorted(state.principals)
        for p in principals:
            if rooted_chain_exists(state, p) is not bool(enumerate_chains(state, p, "plain")):
                failures.append(f"plain chains to {p} on {_sketch(state)}")
            if active_chain_exists(state, p) is not bool(enumerate_chains(state, p, "active")):
                failures.append(f"active chains to {p} on {_sketch(state)}")
            for avoided in (rng.choice(principals), state.soa, p):
                expected = bool(enumerate_chains(state, p, "active", avoid=avoided))
                if p == state.soa:
                    expected = True
                if is_independent(state, p, avoided) is not expected:
                    failures.append(f"independence of {p} from {avoided} on {_sketch(state)}")
        if len(failures) >= 5:
            break
    _verdict(
        capsys,
        9,
        f"chain and independence queries match enumeration on {CHAIN_STATES} states",
        not failures,
        "; ".join(failures[:5]),
    )


def test_criterion_10_cli_end_to_end(fixtures_dir, tmp_path, capsys):
    problems = []
    replay = subprocess.run(
        [
            sys.executable,
            "-m",
            "authgraph.cli",
            "trace",
            str(fixtures_dir / "empty_six.json"),
            str(fixtures_dir / "build_and_wld.trace.json"),
        ],
        capture_output=True,
        text=True,
        check=False,
    )
    golden = (fixtures_dir / "after_wld.json").read_text(encoding="utf-8")
    if replay.returncode != 0:
        problems.append(f"replay exited {replay.returncode}: {replay.stderr.strip()}")
    elif replay.stdout != golden:
        problems.append("replay output is not byte-equal to the stored result")

    bad = tmp_path / "bad.trace.json"
    bad.write_text('[{"op": "revoke", "from": "A", "to": "B", "scheme": "ZZZ"}]', encoding="utf-8")
    malformed = subprocess.run(
        [
            sys.executable,
            "-m",
            "authgraph.cli",
            "trace",
            str(fixtures_dir / "empty_six.json"),
            str(bad),
        ],
        capture_output=True,
        text=True,
        check=False,
    )
    if malformed.returncode != 2:
        problems.append(f"malformed trace exited {malformed.returncode}, wanted 2")

    missing = subprocess.run(
        [
            sys.executable,
            "-m",
            "authgraph.cli",
            "apply",
            str(fixtures_dir / "empty_six.json"),
            "--scheme",
            "WLD",
            "--from",
            "A",
            "--to",
            "B",
        ],
        capture_output=True,
        text=True,
        check=False,
    )
    if missing.returncode != 3:
        problems.append(f"revoking a missing authorization exited {missing.returncode}, wanted 3")
    _verdict(capsys, 10, "command-line trace replay and error codes", not problems, "; ".join(problems))
