"""Unit tests for the core data model."""

from __future__ import annotations

import copy
import pickle
from dataclasses import replace

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
        # sorted on first read, as on the engine's path
        assert "positive" not in state.__dict__ and "negative" not in state.__dict__
        assert [a.pair for a in state.positive] == [("A", "B"), ("B", "C")]
        assert [n.pair for n in state.negative] == [("A", "C"), ("B", "A")]

    def test_negative_time_rejected(self):
        with pytest.raises(ModelError):
            AuthorizationState(
                soa="A", principals=frozenset({"A"}), positive=(), negative=(), time=-1
            )

    @pytest.mark.parametrize("time", [1.5, True, "3"])
    def test_time_must_be_an_int(self, time):
        # a float fails only when written, and True is written as 1
        with pytest.raises(ModelError, match="^state time must be a natural number$"):
            AuthorizationState(soa="A", principals=frozenset({"A"}), positive=(), negative=(), time=time)

    def test_kind_must_be_a_positive_kind(self):
        # a kind name would pass every check and grant no right
        with pytest.raises(ModelError, match="^authorization kind must be a PositiveKind, not 'TT'$"):
            PositiveAuth("A", "B", "TT")

    @pytest.mark.parametrize(
        "entry",
        [
            lambda label: PositiveAuth("A", "B", PositiveKind.TT, label),
            lambda label: NegativeAuth("A", "B", label),
        ],
    )
    def test_label_must_be_a_revocation_label(self, entry):
        # a document's label object, not parsed, would fail only when written or undone
        with pytest.raises(ModelError, match="^label must be a RevocationLabel or None, not dict$"):
            entry({"from": "A", "to": "B", "seq": 0})

    def test_empty_soa_rejected(self):
        with pytest.raises(ModelError, match="^state: SOA id must be non-empty$"):
            AuthorizationState(soa="", principals=frozenset({"A"}), positive=(), negative=())

    def test_empty_principal_rejected(self):
        with pytest.raises(ModelError, match="^state: principal ids must be non-empty strings$"):
            AuthorizationState(soa="A", principals=frozenset({"A", ""}), positive=(), negative=())

    @pytest.mark.parametrize("principals", ["ABC", ["A", "B", "C", "C"], {"A", "B", "C"}], ids=["str", "list", "set"])
    def test_principals_must_be_a_frozenset(self, principals):
        # in a str, "BC" would be a principal by substring, and no writer knows it
        with pytest.raises(ModelError, match="^state: principals must be a frozenset, not "):
            AuthorizationState("A", principals, (PositiveAuth("A", "B", PositiveKind.TT),), ())

    def test_each_entry_must_have_its_maps_type(self):
        tt = PositiveAuth("A", "B", PositiveKind.TT)
        with pytest.raises(ModelError, match=r"^positive\[1\]: expected a PositiveAuth, not NegativeAuth$"):
            AuthorizationState("A", frozenset("ABC"), (tt, NegativeAuth("A", "C")), ())
        with pytest.raises(ModelError, match=r"^negative\[0\]: expected a NegativeAuth, not PositiveAuth$"):
            AuthorizationState("A", frozenset("ABC"), (tt,), (PositiveAuth("A", "C", PositiveKind.TF),))

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


def test_request_scheme_must_be_a_scheme():
    with pytest.raises(ModelError, match="^revocation scheme must be a Scheme, not 'WLD'$"):
        RevocationRequest("WLD", "A", "B")


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
    assert label.root == ("A", "B") and label.key == ("A", "B", 9)
    # the key is set once per label, and again for each copy
    assert replace(label, sequence=4).key == ("A", "B", 4)
    assert replace(label, root_grantee="C").key == ("A", "C", 9)
    for back in (pickle.loads(pickle.dumps(label)), copy.deepcopy(label)):
        assert back == label and back.key == label.key and back.__getstate__() == label.__getstate__()
    assert "key" not in label.__getstate__()  # a pickle holds the fields only


def test_label_sequence_must_be_natural():
    with pytest.raises(ModelError, match="^label sequence must be a natural number$"):
        RevocationLabel("A", "B", -1)


@pytest.mark.parametrize("root", [("A", 3), (3, "B"), (b"A", "B"), ("A", None)])
def test_label_roots_must_be_strings(root):
    with pytest.raises(ModelError, match="^label root principals must be strings$"):
        RevocationLabel(*root, 1)


@pytest.mark.parametrize("sequence", [1.5, True, "1", None])
def test_label_sequence_must_be_an_int(sequence):
    with pytest.raises(ModelError, match="^label sequence must be a natural number$"):
        RevocationLabel("A", "B", sequence)


@pytest.mark.parametrize("kind", ["TT", "TF", 1])
def test_label_restores_kind_must_be_a_kind(kind):
    with pytest.raises(ModelError, match="^label restores_kind must be a PositiveKind or None"):
        RevocationLabel("A", "B", 1, restores_kind=kind)
    assert RevocationLabel("A", "B", 1, restores_kind=PositiveKind.TT).restores_kind is PositiveKind.TT


@pytest.mark.parametrize("blocked", ["yes", 1, 0, None])
def test_label_restores_blocked_must_be_a_bool(blocked):
    with pytest.raises(ModelError, match="^label restores_blocked must be a bool"):
        RevocationLabel("A", "B", 1, restores_blocked=blocked)
    with pytest.raises(ModelError, match="^label restores_blocked must be a bool"):
        replace(RevocationLabel("A", "B", 1), restores_blocked=blocked)


def test_label_candidates_are_not_part_of_its_value():
    # The pairs an operation touched ride on its label for undo only.
    bare = RevocationLabel("A", "B", 9, PositiveKind.TF)
    carried = RevocationLabel("A", "B", 9, PositiveKind.TF, candidates={("A", "B"), ("A", "C")})
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
