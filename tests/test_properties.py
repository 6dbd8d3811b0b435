"""Randomized invariants over whole operation programs."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from authgraph import (
    AuthGraphError,
    AuthorizationState,
    EngineConfig,
    GrantOp,
    NegativeOp,
    PositiveKind,
    RevocationRequest,
    RevokeOp,
    Scheme,
    UndoOp,
    check_equivalence,
    has_access_right,
    has_delegation_right,
    new_state,
    parse_state,
    serialize_state,
    states_equal,
    undo_negative,
    validate_connectivity,
)
from authgraph import revocation
from authgraph.revocation import apply_scheme, grant, issue_negative

import generators

NAMES = "ABCDEF"
SCHEMES = list(Scheme)
DELETES = [Scheme.WLD, Scheme.WGD, Scheme.SLD, Scheme.SGD]

seed_ops = st.tuples(
    st.integers(0, 99), st.integers(0, 5), st.integers(0, 5), st.integers(0, 7)
)


@st.composite
def programs(draw, max_len=24, include_undo=True, include_negatives=True):
    n = draw(st.integers(min_value=2, max_value=6))
    seeds = draw(st.lists(seed_ops, max_size=max_len))
    return n, seeds, include_undo, include_negatives


def interpret(program, step_callback=None):
    """Deterministically replay a seed program, skipping refused operations."""
    n, seeds, include_undo, include_negatives = program
    state = new_state(NAMES[0], list(NAMES[:n]))
    for action, a, b, c in seeds:
        grantor, grantee = NAMES[a % n], NAMES[b % n]
        if action < 45:
            op = GrantOp(grantor, grantee, PositiveKind.TT if c % 2 else PositiveKind.TF)
        elif action < 60 and include_negatives:
            op = NegativeOp(grantor, grantee)
        elif action < 90:
            scheme = SCHEMES[c] if include_negatives else DELETES[c % 4]
            op = RevokeOp(scheme, grantor, grantee)
        elif include_undo:
            op = UndoOp(grantor, grantee)
        else:
            continue
        pre = state
        try:
            match op:
                case GrantOp():
                    state, delta = grant(state, op.grantor, op.grantee, op.kind)
                case NegativeOp():
                    state, delta = issue_negative(state, op.grantor, op.grantee)
                case RevokeOp():
                    state, delta = apply_scheme(
                        state, RevocationRequest(op.scheme, op.revoker, op.target)
                    )
                case UndoOp():
                    state, delta = undo_negative(state, op.grantor, op.grantee)
        except AuthGraphError:
            continue
        if step_callback is not None:
            step_callback(pre, op, delta, state)
    return state


@given(programs())
def test_connectivity_holds_after_every_operation(program):
    def check(pre, op, delta, post):
        assert validate_connectivity(post) == [], f"{op} broke connectivity"

    interpret(program, check)


@given(programs())
def test_replay_is_deterministic(program):
    first = interpret(program)
    second = interpret(program)
    assert states_equal(first, second)
    assert first.time == second.time


@given(programs())
def test_delta_is_an_exact_edge_accounting(program):
    def check(pre, op, delta, post):
        rebuilt_pos = (set(pre.positive) - set(delta.deleted_positive)) | set(
            delta.issued_positive
        )
        rebuilt_neg = (set(pre.negative) - set(delta.deleted_negative)) | set(
            delta.issued_negative
        )
        assert rebuilt_pos == set(post.positive)
        assert rebuilt_neg == set(post.negative)
        assert not set(delta.deleted_positive) & set(delta.issued_positive)

    interpret(program, check)


@given(programs())
def test_engine_states_pass_the_public_constructor(program):
    def check(pre, op, delta, post):
        rebuilt = AuthorizationState(
            post.soa, post.principals, post.positive, post.negative, post.time
        )
        assert states_equal(rebuilt, post), f"{op} built a state its public rebuild changes"
        assert dict(post.positive_by_pair) == rebuilt.positive_by_pair
        assert dict(post.negative_by_pair) == rebuilt.negative_by_pair

    interpret(program, check)


@given(programs())
def test_time_advances_once_per_applied_operation(program):
    counted = []
    interpret(program, lambda pre, op, delta, post: counted.append(post.time - pre.time))
    assert all(step == 1 for step in counted)


@given(programs())
def test_serialization_round_trip(program):
    state = interpret(program)
    back = parse_state(serialize_state(state))
    assert states_equal(back, state)
    assert back.positive == state.positive and back.negative == state.negative
    assert back.time == state.time


@given(programs())
def test_repair_is_idempotent_on_engine_output(program):
    state = interpret(program)
    pos = dict(state.positive_by_pair)
    neg = dict(state.negative_by_pair)
    revocation._repair(state.soa, pos, neg)
    assert pos == dict(state.positive_by_pair)
    assert neg == dict(state.negative_by_pair)


@given(programs(), st.integers(0, 3), st.booleans(), st.integers(0, 10_000))
@settings(max_examples=60)
def test_engine_matches_reference_on_delete_schemes(program, scheme_index, flag, pick):
    state = interpret(program)
    if not state.positive:
        return
    edge = state.positive[pick % len(state.positive)]
    request = RevocationRequest(DELETES[scheme_index], edge.grantor, edge.grantee)
    assert check_equivalence(state, request, EngineConfig(sgd_descendant_dominance=flag))


@given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.integers(0, 10_000))
@settings(max_examples=100)
def test_negative_schemes_undo_cleanly_on_label_free_states(seed, scheme_index, pick):
    import random as random_module

    state = generators.random_label_free_state(random_module.Random(seed))
    for auth in state.negative:
        assert auth.label is None
    if not state.positive:
        return
    edge = state.positive[pick % len(state.positive)]
    scheme = [Scheme.WLN, Scheme.WGN, Scheme.SLN, Scheme.SGN][scheme_index]
    try:
        negated, _ = apply_scheme(state, RevocationRequest(scheme, edge.grantor, edge.grantee))
    except AuthGraphError:
        return
    restored, _ = undo_negative(negated, edge.grantor, edge.grantee)
    assert states_equal(restored, state)


@given(programs())
@settings(max_examples=60)
def test_rights_profile_matches_pointwise_queries(program):
    state = interpret(program)
    profile = generators.rights_profile(state)
    for principal in state.principals:
        assert profile[principal] == (
            has_access_right(state, principal),
            has_delegation_right(state, principal),
        )
