"""Unit tests for the core data model."""

from __future__ import annotations

import pytest

from authgraph import (
    AuthorizationState,
    EngineConfig,
    ModelError,
    NegativeAuth,
    PositiveAuth,
    PositiveKind,
    RevocationDelta,
    RevocationLabel,
    RevocationRequest,
    Scheme,
    Timeline,
    TimelineStep,
    GrantOp,
    new_state,
    states_equal,
)


class TestSchemeAxes:
    @pytest.mark.parametrize(
        "scheme, local, strong, delete",
        [
            (Scheme.WLD, True, False, True),
            (Scheme.WGD, False, False, True),
            (Scheme.SLD, True, True, True),
            (Scheme.SGD, False, True, True),
            (Scheme.WLN, True, False, False),
            (Scheme.WGN, False, False, False),
            (Scheme.SLN, True, True, False),
            (Scheme.SGN, False, True, False),
        ],
    )
    def test_axis_flags(self, scheme, local, strong, delete):
        assert scheme.is_local is local
        assert scheme.is_strong is strong
        assert scheme.is_delete is delete

    def test_all_eight_present(self):
        assert len(Scheme) == 8


def test_kind_strength_ordering():
    assert PositiveKind.TT.strength > PositiveKind.TF.strength
    assert PositiveKind.TT.covers(PositiveKind.TF)
    assert PositiveKind.TT.covers(PositiveKind.TT)
    assert not PositiveKind.TF.covers(PositiveKind.TT)


class TestStateValidation:
    def test_soa_must_be_principal(self):
        with pytest.raises(ModelError, match="SOA 'Z' missing from principals"):
            AuthorizationState(soa="Z", principals=frozenset({"A"}), positive=(), negative=())

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ModelError, match=r"^positive\[0\]: unknown principal 'Z'$"):
            AuthorizationState(
                soa="A",
                principals=frozenset({"A", "B"}),
                positive=(PositiveAuth("A", "Z", PositiveKind.TT),),
                negative=(),
            )

    def test_self_loop_rejected(self):
        with pytest.raises(ModelError):
            PositiveAuth("A", "A", PositiveKind.TT)
        with pytest.raises(ModelError):
            NegativeAuth("B", "B")

    def test_duplicate_pair_rejected(self):
        dup = (
            PositiveAuth("A", "B", PositiveKind.TT),
            PositiveAuth("A", "B", PositiveKind.TF),
        )
        with pytest.raises(ModelError, match=r"^positive\[1\]: duplicate"):
            AuthorizationState(
                soa="A", principals=frozenset({"A", "B"}), positive=dup, negative=()
            )

    def test_authorizations_stored_sorted(self):
        state = AuthorizationState(
            soa="A",
            principals=frozenset({"A", "B", "C"}),
            positive=(
                PositiveAuth("B", "C", PositiveKind.TT),
                PositiveAuth("A", "B", PositiveKind.TT),
            ),
            negative=(NegativeAuth("B", "A"), NegativeAuth("A", "C")),
        )
        assert [a.pair for a in state.positive] == [("A", "B"), ("B", "C")]
        assert [n.pair for n in state.negative] == [("A", "C"), ("B", "A")]

    def test_negative_time_rejected(self):
        with pytest.raises(ModelError):
            AuthorizationState(
                soa="A", principals=frozenset({"A"}), positive=(), negative=(), time=-1
            )

    def test_empty_soa_rejected(self):
        with pytest.raises(ModelError, match="^state: SOA id must be non-empty$"):
            AuthorizationState(soa="", principals=frozenset({"A"}), positive=(), negative=())

    def test_empty_principal_rejected(self):
        with pytest.raises(ModelError, match="^state: principal ids must be non-empty strings$"):
            AuthorizationState(soa="A", principals=frozenset({"A", ""}), positive=(), negative=())

    def test_empty_endpoint_rejected(self):
        with pytest.raises(ModelError, match="^principal ids must be non-empty$"):
            PositiveAuth("", "B", PositiveKind.TT)
        with pytest.raises(ModelError, match="^principal ids must be non-empty$"):
            NegativeAuth("A", "")


def test_pair_indexes():
    state = AuthorizationState(
        soa="A",
        principals=frozenset({"A", "B", "C"}),
        positive=(
            PositiveAuth("A", "B", PositiveKind.TT),
            PositiveAuth("B", "C", PositiveKind.TF),
        ),
        negative=(NegativeAuth("A", "B"),),
    )
    assert state.positive_by_pair[("A", "B")].kind is PositiveKind.TT
    assert set(state.negative_by_pair) == {("A", "B")}
    # TF edges never appear in chain adjacency; a blocked TT edge stays in it
    # but extends no active chain
    assert state.chain_children.get("A") == ("B",)
    assert "B" not in state.chain_children
    assert "B" in state.plain_reach and "B" not in state.active_reach


def test_states_equal_ignores_time_only():
    a = new_state("A", ["A", "B"])
    b = AuthorizationState(
        soa="A", principals=frozenset({"A", "B"}), positive=(), negative=(), time=17
    )
    assert states_equal(a, b)
    c = AuthorizationState(
        soa="A",
        principals=frozenset({"A", "B"}),
        positive=(PositiveAuth("A", "B", PositiveKind.TT),),
        negative=(),
    )
    assert not states_equal(a, c)


def test_states_equal_sees_labels():
    label = RevocationLabel("A", "B", 3)
    lhs = AuthorizationState(
        soa="A",
        principals=frozenset({"A", "B"}),
        positive=(PositiveAuth("A", "B", PositiveKind.TT, label),),
        negative=(),
    )
    rhs = AuthorizationState(
        soa="A",
        principals=frozenset({"A", "B"}),
        positive=(PositiveAuth("A", "B", PositiveKind.TT),),
        negative=(),
    )
    assert not states_equal(lhs, rhs)


def test_replace_authorizations_keeps_identity_fields():
    base = new_state("A", ["A", "B"])
    out = base.replace_authorizations(
        positive=[PositiveAuth("A", "B", PositiveKind.TT)], negative=[], time=5
    )
    assert out.soa == "A"
    assert out.principals == base.principals
    assert out.time == 5


def test_request_rejects_self_revocation():
    with pytest.raises(ModelError):
        RevocationRequest(Scheme.WLD, "A", "A")


def test_delta_rejects_overlap():
    auth = PositiveAuth("A", "B", PositiveKind.TT)
    with pytest.raises(ModelError):
        RevocationDelta(
            deleted_positive=frozenset({auth}), issued_positive=frozenset({auth})
        )
    block = NegativeAuth("A", "B")
    with pytest.raises(ModelError, match="same negative value"):
        RevocationDelta(deleted_negative=frozenset({block}), issued_negative=frozenset({block}))


def test_label_root_property():
    label = RevocationLabel("A", "B", 9)
    assert label.root == ("A", "B")


def test_label_sequence_must_be_natural():
    with pytest.raises(ModelError, match="^label sequence must be a natural number$"):
        RevocationLabel("A", "B", -1)


def test_label_candidates_are_not_part_of_its_value():
    # The pairs an operation touched ride on its label for undo only.
    bare = RevocationLabel("A", "B", 9, PositiveKind.TF)
    carried = RevocationLabel("A", "B", 9, PositiveKind.TF, candidates=({("A", "B"): None}, {}))
    assert carried == bare and hash(carried) == hash(bare) and repr(carried) == repr(bare)
    assert NegativeAuth("A", "B", carried) == NegativeAuth("A", "B", bare)


def test_timeline_extension():
    base = new_state("A", ["A", "B"])
    timeline = Timeline(initial=base)
    assert timeline.current is base
    nxt = base.replace_authorizations(
        positive=[PositiveAuth("A", "B", PositiveKind.TT)], negative=[], time=1
    )
    step = TimelineStep(
        GrantOp("A", "B", PositiveKind.TT),
        RevocationDelta(issued_positive=frozenset(nxt.positive)),
        nxt,
    )
    extended = timeline.extended(step)
    assert extended.current is nxt
    assert timeline.steps == ()  # original untouched
    assert EngineConfig().sgd_descendant_dominance is True
