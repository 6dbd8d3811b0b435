"""Chains, rights, activation and the connectivity check."""

from __future__ import annotations

import pytest

from authgraph import (
    AuthorizationState,
    MissingAuthorizationError,
    NegativeAuth,
    PositiveAuth,
    PositiveKind,
    UnknownPrincipalError,
    has_access_right,
    has_delegation_right,
    is_auth_active,
    is_independent,
    rooted_chain_exists,
    active_chain_exists,
    validate_connectivity,
)
from authgraph import model, semantics
from authgraph.semantics import reachable_active, reachable_plain


class TestRights:
    @pytest.mark.parametrize(
        "principal, access, delegation",
        [
            ("A", True, True),
            ("B", True, True),
            ("C", True, False),
            ("D", True, True),
            ("E", False, False),
        ],
    )
    def test_rights_fork(self, rights_basic, principal, access, delegation):
        assert has_access_right(rights_basic, principal) is access
        assert has_delegation_right(rights_basic, principal) is delegation

    def test_soa_always_has_both(self, empty_six):
        assert has_access_right(empty_six, "A")
        assert has_delegation_right(empty_six, "A")

    def test_unknown_principal(self, rights_basic):
        with pytest.raises(UnknownPrincipalError):
            has_access_right(rights_basic, "Z")
        with pytest.raises(UnknownPrincipalError):
            is_independent(rights_basic, "Z", "A")

    def test_access_via_blocked_grantor_denied(self, blocked_chain):
        # B's own access is gone and so is anything B alone would convey
        assert not has_access_right(blocked_chain, "B")
        assert has_access_right(blocked_chain, "C")  # A grants C directly
        assert has_access_right(blocked_chain, "D")


class TestActivation:
    def test_blocked_and_suspended_edges(self, blocked_chain):
        assert is_auth_active(blocked_chain, "A", "B") is False  # blocked by FF
        assert is_auth_active(blocked_chain, "B", "C") is False  # grantor inactive
        assert is_auth_active(blocked_chain, "A", "C") is True
        assert is_auth_active(blocked_chain, "C", "D") is True

    def test_missing_pair_raises(self, blocked_chain):
        with pytest.raises(MissingAuthorizationError):
            is_auth_active(blocked_chain, "D", "A")

    def test_unknown_principal_raises(self, blocked_chain):
        # as every other query does, not as a missing authorization
        with pytest.raises(UnknownPrincipalError):
            is_auth_active(blocked_chain, "Z", "A")
        with pytest.raises(UnknownPrincipalError):
            is_auth_active(blocked_chain, "A", "Z")


class TestChains:
    def test_plain_ignores_negatives(self, blocked_chain):
        assert reachable_plain(blocked_chain) == frozenset({"A", "B", "C", "D"})
        assert reachable_active(blocked_chain) == frozenset({"A", "C", "D"})
        assert rooted_chain_exists(blocked_chain, "B")
        assert not active_chain_exists(blocked_chain, "B")

    def test_tf_edges_do_not_extend_chains(self, rights_basic):
        # C holds access through a TF edge only
        assert not rooted_chain_exists(rights_basic, "C")

    def test_soa_chain_unconditional(self, empty_six):
        assert rooted_chain_exists(empty_six, "A")
        assert active_chain_exists(empty_six, "A")


class TestIndependence:
    def test_soa_independent_of_everyone(self, revocation_base):
        assert is_independent(revocation_base, "A", "B")
        assert is_independent(revocation_base, "A", "A")

    def test_detour_counts(self, revocation_base):
        # E is reachable both through B and through D
        assert is_independent(revocation_base, "E", "B")
        assert is_independent(revocation_base, "E", "D")

    def test_sole_path_dependency(self, rights_basic):
        assert not is_independent(rights_basic, "D", "B")

    def test_non_soa_principal_depends_on_itself(self, revocation_base):
        assert not is_independent(revocation_base, "B", "B")

    @staticmethod
    def _tt_state(*pairs):
        return AuthorizationState(
            soa="A",
            principals=frozenset("ABCD"),
            positive=tuple(PositiveAuth(g, k, PositiveKind.TT) for g, k in pairs),
            negative=(),
        )

    @staticmethod
    def _count_excisions(monkeypatch, state):
        """The principals `_dependents` excises from here on; the state's
        active reach is built first, and any later BFS fails the test."""
        state.active_reach
        excised = []
        real = semantics._dependents
        monkeypatch.setattr(
            semantics, "_dependents", lambda s, i: excised.append(i) or real(s, i)
        )

        def no_bfs(*args):
            raise AssertionError("independence ran a BFS")

        monkeypatch.setattr(model, "_bfs", no_bfs)
        monkeypatch.setattr(semantics, "_bfs", no_bfs, raising=False)
        return excised

    def test_fallback_finds_a_second_chain(self, monkeypatch):
        # D hangs below B or C in the BFS tree, and either parent can be avoided
        state = self._tt_state(("A", "B"), ("A", "C"), ("B", "D"), ("C", "D"))
        tree_parent = state.active_reach["D"]
        excised = self._count_excisions(monkeypatch, state)
        assert is_independent(state, "D", "B") and is_independent(state, "D", "C")
        assert excised == [tree_parent]  # only the tree parent needs an excision

    def test_fallback_sees_a_sole_chain(self, monkeypatch):
        # every chain to D runs through B, and so does D's tree path
        state = self._tt_state(("A", "B"), ("B", "C"), ("B", "D"), ("C", "D"))
        excised = self._count_excisions(monkeypatch, state)
        assert not is_independent(state, "D", "B")
        assert is_independent(state, "D", "C")
        assert excised == ["B"]

    def test_outside_the_active_reach_is_dependent(self, blocked_chain, monkeypatch):
        excised = self._count_excisions(monkeypatch, blocked_chain)
        assert not is_independent(blocked_chain, "B", "C")
        assert excised == []


class TestConnectivity:
    def test_valid_states_clean(self, revocation_base, blocked_chain, rights_basic):
        for state in (revocation_base, blocked_chain, rights_basic):
            assert validate_connectivity(state) == []

    def test_orphan_grantor_reported(self):
        state = AuthorizationState(
            soa="A",
            principals=frozenset({"A", "B", "C"}),
            positive=(PositiveAuth("B", "C", PositiveKind.TT),),
            negative=(),
        )
        violations = validate_connectivity(state)
        assert len(violations) == 1
        v = violations[0]
        assert (v.grantor, v.grantee, v.form) == ("B", "C", "TT")
        assert "B -> C" in str(v)

    def test_blocked_grantor_is_not_a_violation(self, blocked_chain):
        # negatives suspend rights; connectivity is about plain chains
        assert validate_connectivity(blocked_chain) == []

    def test_violations_in_both_maps_sorted_by_pair(self):
        # Listed positive first, then negative, each sorted by pair; the
        # sorted entry tuples are not built to find them.
        TT, TF = PositiveKind.TT, PositiveKind.TF
        state = AuthorizationState(
            soa="A",
            principals=frozenset("ABCDEF"),
            positive=(
                PositiveAuth("E", "B", TF),
                PositiveAuth("A", "B", TT),
                PositiveAuth("D", "C", TT),
                PositiveAuth("C", "F", TF),
                PositiveAuth("C", "D", TT),
            ),
            negative=(NegativeAuth("E", "A"), NegativeAuth("B", "C"), NegativeAuth("C", "A"), NegativeAuth("D", "F")),
        )
        got = [(v.grantor, v.grantee, v.form) for v in validate_connectivity(state)]
        assert got == [
            ("C", "D", "TT"),
            ("C", "F", "TF"),
            ("D", "C", "TT"),
            ("E", "B", "TF"),
            ("C", "A", "FF"),
            ("D", "F", "FF"),
            ("E", "A", "FF"),
        ]
        assert "positive" not in state.__dict__ and "negative" not in state.__dict__
