"""Reference evaluator: chain enumeration and the declarative delete rules."""

from __future__ import annotations

import ast
import importlib
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from authgraph import (
    AuthorizationState,
    EngineConfig,
    EnumerationLimitError,
    InactiveGrantorError,
    MissingAuthorizationError,
    ModelError,
    PositiveAuth,
    PositiveKind,
    RevocationRequest,
    Scheme,
    UnknownPrincipalError,
    apply_scheme,
    check_equivalence,
    compare_engines,
    enumerate_chains,
    fixpoint_apply_delete,
    new_state,
    states_equal,
)
from authgraph import oracle
from authgraph.oracle import ENUMERATION_LIMIT

import generators
import sample_states

DELETES = [Scheme.WLD, Scheme.WGD, Scheme.SLD, Scheme.SGD]


class TestEnumerateChains:
    def test_all_plain_chains_to_a_grantee(self, revocation_base):
        assert enumerate_chains(revocation_base, "E") == {
            ("A", "B", "E"),
            ("A", "D", "E"),
        }

    def test_avoid_prunes_whole_chains(self, revocation_base):
        assert enumerate_chains(revocation_base, "E", avoid="B") == {("A", "D", "E")}

    def test_soa_chain_is_unconditional(self, revocation_base):
        assert enumerate_chains(revocation_base, "A") == {("A",)}
        assert enumerate_chains(revocation_base, "A", avoid="A") == {("A",)}

    def test_avoiding_the_soa_kills_everything_else(self, revocation_base):
        assert enumerate_chains(revocation_base, "E", avoid="A") == frozenset()

    def test_access_only_edges_never_chain(self, revocation_base):
        # C and F are only reachable through TF edges or not at all
        assert enumerate_chains(revocation_base, "C") == frozenset()
        assert enumerate_chains(revocation_base, "F") == frozenset()

    def test_active_mode_drops_blocked_edges(self, blocked_chain):
        assert enumerate_chains(blocked_chain, "D", "plain") == {
            ("A", "C", "D"),
            ("A", "B", "C", "D"),
        }
        assert enumerate_chains(blocked_chain, "D", "active") == {("A", "C", "D")}

    def test_unknown_mode(self, blocked_chain):
        with pytest.raises(ModelError):
            enumerate_chains(blocked_chain, "D", "fast")

    def test_unknown_principal(self, revocation_base):
        with pytest.raises(UnknownPrincipalError):
            enumerate_chains(revocation_base, "Z")

    def test_size_guard_boundary(self):
        names = [f"P{n:02d}" for n in range(1, ENUMERATION_LIMIT + 2)]
        big = new_state(names[0], names[:-1])
        assert enumerate_chains(big, names[-2]) == frozenset()
        too_big = new_state(names[0], names)
        with pytest.raises(EnumerationLimitError):
            enumerate_chains(too_big, names[-1])


class TestFixpointDelete:
    @pytest.mark.parametrize(
        "scheme,flag,key",
        [
            (Scheme.WLD, True, "after_wld"),
            (Scheme.WGD, True, "after_wgd"),
            (Scheme.SLD, True, "after_sld"),
            (Scheme.SGD, True, "after_sgd"),
            (Scheme.SGD, False, "after_sgd_variant"),
        ],
    )
    def test_matches_frozen_results(self, revocation_base, scheme_snapshots, scheme, flag, key):
        got = fixpoint_apply_delete(
            revocation_base,
            RevocationRequest(scheme, "A", "B"),
            EngineConfig(sgd_descendant_dominance=flag),
        )
        assert states_equal(got, scheme_snapshots[key])
        assert got.time == revocation_base.time + 1

    def test_rejects_negative_schemes(self, revocation_base):
        with pytest.raises(ModelError):
            fixpoint_apply_delete(revocation_base, RevocationRequest(Scheme.WLN, "A", "B"))

    def test_precondition_parity(self, empty_six, revocation_base):
        with pytest.raises(MissingAuthorizationError):
            fixpoint_apply_delete(empty_six, RevocationRequest(Scheme.WLD, "A", "B"))
        with pytest.raises(UnknownPrincipalError):
            fixpoint_apply_delete(revocation_base, RevocationRequest(Scheme.WLD, "A", "Z"))


class TestCompareEngines:
    def test_agreement_on_snapshots(self, revocation_base):
        for flag in (True, False):
            for scheme in DELETES:
                report = compare_engines(
                    revocation_base,
                    RevocationRequest(scheme, "A", "B"),
                    EngineConfig(sgd_descendant_dominance=flag),
                )
                assert report is None

    def test_agreement_on_randomized_states(self):
        rng = random.Random(0xFEED)
        for index in range(150):
            state = generators.random_state(rng)
            edge = generators.random_edge(rng, state)
            if edge is None:
                continue
            request = RevocationRequest(DELETES[index % 4], edge.grantor, edge.grantee)
            config = EngineConfig(sgd_descendant_dominance=bool(index % 2))
            assert check_equivalence(state, request, config)

    @pytest.mark.parametrize("flag", [True, False])
    def test_negative_schemes_give_their_delete_counterparts_rights(self, flag):
        """Each negative scheme on the engine leaves every principal the
        access and delegation rights the reference gives after its delete
        counterpart (WLN-WLD, WGN-WGD, SLN-SLD, SGN-SGD).

        This is an observation about the engine, not a rule from the paper:
        Hagström et al., "Revocations -- A Classification" (CSFW 2001), treat
        resilience as an axis of its own, and nothing there says that
        blocking a grant and deleting it must leave the same rights.  It
        checks the rights of the negative schemes against the only
        reference there is, until they have one of their own.
        """
        config = EngineConfig(sgd_descendant_dominance=flag)
        applied = 0
        for seed in range(300):
            rng = random.Random(seed)
            state = generators.random_state(rng)
            edge = generators.random_edge(rng, state)
            if edge is None or edge.pair in state.negative_by_pair:
                continue
            for negative, delete in zip((Scheme.WLN, Scheme.WGN, Scheme.SLN, Scheme.SGN), DELETES):
                blocked, _ = apply_scheme(state, RevocationRequest(negative, *edge.pair), config)
                deleted = fixpoint_apply_delete(state, RevocationRequest(delete, *edge.pair), config)
                assert generators.rights_profile(blocked) == generators.rights_profile(deleted), (
                    seed,
                    negative,
                )
                applied += 1
        assert applied > 600

    def test_shared_rejection_counts_as_agreement(self, empty_six):
        assert compare_engines(empty_six, RevocationRequest(Scheme.SLD, "A", "B")) is None

    def test_agreement_on_a_3000_link_chain(self):
        # deep enough that a recursive walk would exceed the interpreter's
        # recursion limit
        names = [f"p{k:04d}" for k in range(3001)]
        state = AuthorizationState(
            soa=names[0],
            principals=frozenset(names),
            positive=tuple(PositiveAuth(a, b, PositiveKind.TT) for a, b in zip(names, names[1:])),
            negative=(),
        )
        expected_edges = {Scheme.WGD: 1, Scheme.SLD: 2999}
        for scheme, edges in expected_edges.items():
            request = RevocationRequest(scheme, names[1], names[2])
            reference = fixpoint_apply_delete(state, request)
            assert states_equal(reference, apply_scheme(state, request)[0])
            assert len(reference.positive) == edges

    def test_agreement_at_a_thousand_principals(self):
        # The benchmark's large make-up, built as `bench/gen.py` builds it:
        # at 10^3 principals both maps are shared, as in the scaling series.
        # Two unblocked edges at random, and two that are their target's
        # only live TT grant, so that j loses its chain and the local
        # schemes re-root.
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
        try:
            gen = importlib.import_module("gen")
        finally:
            del sys.path[0]
        rng = random.Random(18)
        graph = gen.standard_graph(rng, 1000)
        state = gen.to_state(graph)
        targets = gen.targets(graph)
        tt_in = Counter(e for (g, e), kind in graph.pos.items() if kind == "TT" and (g, e) not in graph.neg)
        sole = [pair for pair in targets if graph.pos[pair] == "TT" and tt_in[pair[1]] == 1]
        changed = []
        for pair in rng.sample(targets, 2) + rng.sample(sole, 2):
            for flag in (True, False):
                config = EngineConfig(sgd_descendant_dominance=flag)
                for scheme in DELETES:
                    request = RevocationRequest(scheme, *pair)
                    assert compare_engines(state, request, config) is None, (pair, scheme, flag)
                    post = fixpoint_apply_delete(state, request, config)
                    changed.append(len(set(state.positive) ^ set(post.positive)))
        assert max(changed) > 1  # more than the revoked grant

    def test_agreement_when_a_reissue_downgrades_a_chain_slot(self):
        # the overwritten TT must stop counting toward reachability in the
        # reference's purge, exactly as it does in the engine's
        state = sample_states.downgrade_merge_corner()
        for scheme in (Scheme.WLD, Scheme.SLD):
            assert check_equivalence(state, RevocationRequest(scheme, "A", "B"))

    def test_state_mismatch_is_reported(self, revocation_base, monkeypatch):
        def tampered(state, request, config=None):
            keep = [a for a in state.positive if a.pair != (request.revoker, request.target)]
            return (
                state.replace_authorizations(
                    positive=keep, negative=state.negative, time=state.time + 1
                ),
                None,
            )

        monkeypatch.setattr("authgraph.oracle.apply_scheme", tampered)
        report = compare_engines(revocation_base, RevocationRequest(Scheme.WLD, "A", "B"))
        assert report is not None and "state mismatch" in report
        assert "WLD" in report and "engine:" in report and "reference:" in report
        assert not check_equivalence(revocation_base, RevocationRequest(Scheme.WLD, "A", "B"))

    def test_error_category_mismatch_is_reported(self, revocation_base, monkeypatch):
        def refuses(state, request, config=None):
            raise InactiveGrantorError("engine said no")

        monkeypatch.setattr("authgraph.oracle.apply_scheme", refuses)
        report = compare_engines(revocation_base, RevocationRequest(Scheme.WGD, "A", "B"))
        assert report is not None and "error category mismatch" in report


# What the reference must not read: the engine's own traversal and
# transition code, and the indexes a state derives.
DERIVED_INDEXES = frozenset(
    {"plain_reach", "active_reach", "chain_children", "incoming", "outgoing", "orphans"}
)


def engine_reads(source: str) -> list[str]:
    """What `source` imports from `semantics`, imports by an underscore name
    from `model` or `revocation`, or reads of a state's derived indexes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""
            names = [alias.name for alias in node.names]
            for name in [module, *names]:
                if "semantics" in name.split("."):
                    found.append(f"imports {name}")
            if module.split(".")[-1] in ("model", "revocation"):
                found.extend(f"imports {module}.{n}" for n in names if n.startswith("_"))
        elif isinstance(node, ast.Attribute) and node.attr in DERIVED_INDEXES:
            found.append(f"reads .{node.attr}")
        elif isinstance(node, ast.Constant) and node.value in DERIVED_INDEXES:
            found.append(f"names {node.value!r}")
    return found


def test_the_reference_reads_no_engine_internals():
    assert engine_reads(Path(oracle.__file__).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source",
    [
        "from .semantics import has_access_right",
        "from . import semantics",
        "import authgraph.semantics",
        "from .model import AuthorizationState, _bfs",
        "from authgraph.revocation import _repair",
        "def f(state):\n    return state.plain_reach",
        "def f(state):\n    return getattr(state, 'incoming')",
    ],
)
def test_the_independence_check_sees_an_engine_read(source):
    assert engine_reads(source)
