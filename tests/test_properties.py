"""Randomized invariants over whole operation programs."""

from __future__ import annotations

import copy
import pickle
from collections import Counter
from contextlib import contextmanager
from unittest import mock

from hypothesis import given, settings, strategies as st

from authgraph import (
    AuthGraphError,
    AuthorizationState,
    EngineConfig,
    GrantOp,
    NegativeAuth,
    NegativeOp,
    PositiveAuth,
    PositiveKind,
    RevocationLabel,
    RevocationRequest,
    RevokeOp,
    Scheme,
    UndoOp,
    check_equivalence,
    has_access_right,
    has_delegation_right,
    is_independent,
    new_state,
    parse_state,
    serialize_state,
    states_equal,
    undo_negative,
    validate_connectivity,
)
from authgraph import model, revocation, semantics
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


def interpret(program, step_callback=None, start=None):
    """Deterministically replay a seed program, skipping refused operations,
    from `start` (whose principals must be the program's) or a fresh state."""
    n, seeds, include_undo, include_negatives = program
    state = new_state(NAMES[0], list(NAMES[:n])) if start is None else start
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
    revocation._repair(state, pos, neg, ())
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


# Mark-and-recheck reachability against a from-scratch pass.

TT, TF = PositiveKind.TT, PositiveKind.TF
EDIT_KINDS = ("delete", "block", "unblock", "rewrite", "reissue")


def reference_reach(pos, blocked, soa, avoid=None):
    """Rooted reachability computed from nothing: the TT adjacency of `pos`
    less the `blocked` pairs, then a BFS from `soa` with `avoid` excised."""
    adjacency = {}
    for (grantor, grantee), auth in pos.items():
        if auth.kind is TT and (grantor, grantee) not in blocked:
            adjacency.setdefault(grantor, []).append(grantee)
    if soa == avoid:
        return set()
    seen, queue = {soa}, [soa]
    for p in queue:
        for q in adjacency.get(p, ()):
            if q != avoid and q not in seen:
                seen.add(q)
                queue.append(q)
    return seen


def constructed_states(draw, names):
    """A public-constructor state over `names` rooted at A, with cycles,
    orphans and blocks all allowed."""
    pairs = [(a, b) for a in names for b in names if a != b]
    kinds = draw(st.dictionaries(st.sampled_from(pairs), st.sampled_from([TT, TF])))
    blocked = draw(st.sets(st.sampled_from(pairs)))
    return AuthorizationState(
        soa="A",
        principals=frozenset(names),
        positive=tuple(PositiveAuth(g, k, kind) for (g, k), kind in kinds.items()),
        negative=tuple(NegativeAuth(g, k) for g, k in blocked),
    )


def rooted_states(draw, names):
    """A public-constructor state over `names` rooted at A in which every
    principal has a TT chain: a spanning tree, extra TT and TF edges that
    give chains detours, and blocks."""
    pairs = [(a, b) for a in names for b in names if a != b]
    kinds = {(draw(st.sampled_from(names[:k])), names[k]): TT for k in range(1, len(names))}
    kinds.update(draw(st.dictionaries(st.sampled_from(pairs), st.sampled_from([TT, TF]))))
    blocked = draw(st.sets(st.sampled_from(pairs), max_size=2))
    return AuthorizationState(
        soa="A",
        principals=frozenset(names),
        positive=tuple(PositiveAuth(g, k, kind) for (g, k), kind in kinds.items()),
        negative=tuple(NegativeAuth(g, k) for g, k in blocked),
    )


@st.composite
def edited_states(draw):
    """A public-constructor state, working copies of its pair maps after
    random edits, and an excised principal or None.  Half the states have a
    chain to every principal: few of the others root anything."""
    names = "ABCDEFG"[: draw(st.integers(2, 7))]
    pairs = [(a, b) for a in names for b in names if a != b]
    state = (rooted_states if draw(st.booleans()) else constructed_states)(draw, names)
    # entries of the state and of the edits carry labels under a few keys,
    # so a positive and a negative entry on one pair may carry different ones
    labels = st.sampled_from([None] + [RevocationLabel("A", "B", t) for t in range(3)])
    if draw(st.booleans()):
        state = state.replace_authorizations(
            [PositiveAuth(a.grantor, a.grantee, a.kind, draw(labels)) for a in state.positive_by_pair.values()],
            [NegativeAuth(n.grantor, n.grantee, draw(labels)) for n in state.negative_by_pair.values()],
        )
    if draw(st.booleans()):  # indexes built before or only during the recheck
        for name in ("plain_reach", "active_reach", "incoming", "outgoing", "orphans"):
            getattr(state, name)
    pos = model._Working(state.positive_by_pair)
    neg = model._Working(state.negative_by_pair)
    edits = st.tuples(st.sampled_from(EDIT_KINDS), st.sampled_from(pairs), st.sampled_from([TT, TF]), labels)
    for edit, pair, kind, label in draw(st.lists(edits, max_size=8)):
        if edit == "delete" and pair in pos:
            del pos[pair]
        elif edit == "block" and pair not in neg:
            neg[pair] = NegativeAuth(*pair, label)
        elif edit == "unblock" and pair in neg:
            del neg[pair]
        elif edit == "rewrite" and pair in pos:
            pos[pair] = PositiveAuth(*pair, TF if pos.get(pair).kind is TT else TT)
        elif edit == "reissue":
            pos[pair] = PositiveAuth(*pair, kind, label)
    avoid = draw(st.none() | st.sampled_from(names))
    return state, pos, neg, avoid


def merged(work):
    """The entries of the overlay `work`: its base's, with its edits."""
    out = dict(work.before)
    for pair, entry in work.touched.items():
        if entry is None:
            out.pop(pair, None)
        else:
            out[pair] = entry
    return out


@given(edited_states(), st.booleans())
@settings(max_examples=400)
def test_recheck_matches_a_full_pass(case, active):
    state, pos, neg, avoid = case
    blocked_before = state.negative_by_pair if active else ()
    before = reference_reach(state.positive_by_pair, blocked_before, state.soa)
    after = reference_reach(merged(pos), neg if active else (), state.soa, avoid)
    lost, gained, _ = model._recheck(state, pos, neg, pos.touched | neg.touched, active, avoid)
    assert lost == before - after
    assert gained == after - before


@given(edited_states())
@settings(max_examples=200)
def test_repair_matches_a_full_pass(case):
    state, pos, neg, _ = case
    edited_pos, edited_neg = merged(pos), merged(neg)
    reach = reference_reach(edited_pos, (), state.soa)
    expected_pos = {pair: auth for pair, auth in edited_pos.items() if pair[0] in reach}
    expected_neg = {pair: auth for pair, auth in edited_neg.items() if pair[0] in reach}
    grantees = {grantee for grantor, grantee in edited_pos if grantor not in reach}
    assert revocation._repair(state, pos, neg, pos.touched | neg.touched) == grantees
    assert merged(pos) == expected_pos and merged(neg) == expected_neg


# Orphan sets handed from each state to the next.


def check_handed_orphans(pre, op, delta, post):
    assert "orphans" in post.__dict__, f"{op} handed on no orphan set"
    fresh = post.replace_authorizations().orphans
    assert post.__dict__["orphans"] == fresh, op


@given(programs())
def test_every_engine_state_carries_its_orphans(program):
    interpret(program, check_handed_orphans)


@given(programs(), st.data())
@settings(max_examples=200)
def test_orphans_handed_on_from_a_constructed_state(program, data):
    start = constructed_states(data.draw, NAMES[: program[0]])
    interpret(program, check_handed_orphans, start)


# Indexes a post-state derives from its origin's, against a rebuild.

DERIVED = ("chain_children", "plain_reach", "active_reach", "incoming", "outgoing")


def check_derived_indexes(state, orphans=True, names=DERIVED):
    """Each of the indexes `names` of `state` holds what a rebuild of it
    holds; a reach map may pick other parents, but each is a live TT edge on
    a chain to the SOA.  The orphans, if checked, equal a rebuild's."""
    rebuilt = state.replace_authorizations()
    if orphans:
        assert state.orphans == rebuilt.orphans
    for name in names:
        got, want = getattr(state, name), getattr(rebuilt, name)
        assert got.keys() == want.keys(), name
        if name.endswith("_reach"):
            blocked = state.negative_by_pair if name == "active_reach" else ()
            for p in got:
                chain = [p]
                while got[chain[-1]] is not None:
                    grantor, grantee = got[chain[-1]], chain[-1]
                    auth = state.positive_by_pair.get((grantor, grantee))
                    assert auth is not None and auth.kind is TT, (name, grantor, grantee)
                    assert (grantor, grantee) not in blocked, (name, grantor, grantee)
                    assert grantor not in chain, (name, chain)
                    chain.append(grantor)
                assert chain[-1] == state.soa, (name, chain)
        else:
            assert {p: Counter(items) for p, items in got.items()} == {
                p: Counter(items) for p, items in want.items()
            }, name


@given(edited_states(), st.sets(st.sampled_from(DERIVED + ("orphans",))))
@settings(max_examples=400)
def test_derivation_matches_a_rebuild(case, built):
    state, pos, neg, _ = case
    with mock.patch.object(model, "_DERIVE_MIN_ENTRIES", 0), mock.patch.object(model, "_SHARE_MIN_ENTRIES", 0):
        # the same state and edits over shared versions, so that the commit
        # leaves the origin a diff to be read through
        state = state.replace_authorizations()
        pos, neg = _rebase(pos, state.positive_by_pair), _rebase(neg, state.negative_by_pair)
        for name in built:  # the origin may have built any of its indexes, or none
            getattr(state, name)
        # The orphans are derived on the premise of every engine operation
        # that repairs nothing: each grantor it makes or unmakes has a chain.
        grantors = {g for g, _ in [*state.positive_by_pair, *state.negative_by_pair]}
        edited_pos = merged(pos)
        premise = grantors ^ {g for g, _ in [*edited_pos, *merged(neg)]} <= reference_reach(edited_pos, (), state.soa)
        kept = DERIVED + ("orphans", "labelled")
        before = {name: copy.deepcopy(index) for name, index in state.__dict__.items() if name in kept}
        derived, _ = state._after(pos, neg)
    assert derived.__dict__["_origin"][0] is state
    assert derived.labelled is state.labelled  # handed as it is
    check_derived_indexes(derived, orphans=premise)
    for name, index in before.items():  # the origin's indexes are never changed
        assert state.__dict__[name] == index, name


def _rebase(work, base):
    """An overlay over `base` with the edits of the overlay `work`."""
    out = model._Working(base)
    out.touched.update(work.touched)
    return out


@given(programs(), st.booleans(), st.data())
@settings(max_examples=200)
def test_lineage_indexes_match_a_rebuild(program, shared, data):
    # Each index is read at randomly chosen steps only, so a post-state
    # derives it from the last earlier state that read it, over maps that
    # each operation copies or over shared versions.
    def check(pre, op, delta, post):
        check_derived_indexes(post, names=data.draw(st.sets(st.sampled_from(DERIVED))))

    with _cuts(shared):
        interpret(program, check)


@contextmanager
def _cuts(shared: bool):
    """Every state derives its indexes; with `shared`, every map is shared."""
    share = 0 if shared else model._SHARE_MIN_ENTRIES
    with mock.patch.object(model, "_DERIVE_MIN_ENTRIES", 0), mock.patch.object(model, "_SHARE_MIN_ENTRIES", share):
        yield


def check_independence_against_a_rebuild(pre, op, delta, post):
    """Every (j, i) independence answer on `post` equals a rebuilt state's
    and a from-scratch pass with i excised; so do the dependents of each i.

    Asked first on `post`, whose parent maps are derived from its pre-state's
    and so need not be BFS trees: the excision recheck runs on them."""
    assert "_origin" in post.__dict__, op
    rebuilt = post.replace_authorizations()
    pos, neg, soa = post.positive_by_pair, post.negative_by_pair, post.soa
    names = sorted(post.principals)
    active = reference_reach(pos, neg, soa)
    for i in names:
        kept = reference_reach(pos, neg, soa, i)
        want = {j: j == soa or j in kept for j in names}
        assert {j: is_independent(post, j, i) for j in names} == want, (op, i)
        assert {j: is_independent(rebuilt, j, i) for j in names} == want, (op, i)
        assert semantics._dependents(post, i) == active - kept - {soa}, (op, i)


@given(programs(), st.data())
@settings(max_examples=200)
def test_independence_on_derived_post_states_matches_a_rebuild(program, data):
    # from a fresh state, or from a rooted one whose detours give the
    # excision something to re-admit
    start = None
    if data.draw(st.booleans()):
        start = rooted_states(data.draw, NAMES[: program[0]])
    with _cuts(data.draw(st.booleans())):
        interpret(program, check_independence_against_a_rebuild, start)


def test_independence_on_a_derived_tree_that_is_no_bfs_tree():
    # Blocking A -> B re-admits D below C; lifting the block gives B back but
    # leaves D there, where a BFS would hang it below B.
    state = AuthorizationState(
        soa="A",
        principals=frozenset("ABCD"),
        positive=tuple(PositiveAuth(g, k, TT) for g, k in ("AB", "AC", "BD", "CD")),
        negative=(),
    )
    with mock.patch.object(model, "_DERIVE_MIN_ENTRIES", 0):
        negated, _ = apply_scheme(state, RevocationRequest(Scheme.WGN, "A", "B"))
        assert is_independent(negated, "D", "C") is False
        back, _ = undo_negative(negated, "A", "B")
    assert back.active_reach["D"] == "C" != back.replace_authorizations().active_reach["D"]
    check_independence_against_a_rebuild(negated, UndoOp("A", "B"), None, back)
    assert is_independent(back, "D", "C") and is_independent(back, "D", "B")


# Label indexes handed from each state to the next, on lineages that apply
# most of their operations.


def lineage_start(draw):
    """A fresh state, or a rooted one whose blocks may carry document labels,
    some of them of a sequence the state has not reached."""
    names = NAMES[: draw(st.integers(2, 6))]
    if draw(st.booleans()):
        return new_state("A", names)
    state = rooted_states(draw, names)
    labels = st.none() | st.builds(
        RevocationLabel, st.sampled_from(names), st.sampled_from(names), st.integers(0, 3)
    )
    return state.replace_authorizations(
        negative=[NegativeAuth(n.grantor, n.grantee, draw(labels)) for n in state.negative]
    )


def labelled_roots(state):
    return sorted(
        pair for pair, n in state.negative_by_pair.items() if n.label is not None and n.label.root == pair
    )


def draw_operation(draw, state):
    """An operation likely to apply to `state`: grantors from its active
    reach, revocation targets from its positive pairs, undo roots from its
    labelled roots."""
    kind = draw(st.sampled_from(("revoke", "grant", "undo", "negative")))
    if kind == "revoke" and state.positive_by_pair:
        i, j = draw(st.sampled_from(sorted(state.positive_by_pair)))
        return RevokeOp(draw(st.sampled_from(SCHEMES)), i, j)
    roots = labelled_roots(state)
    if kind == "undo" and roots:
        return UndoOp(*draw(st.sampled_from(roots)))
    grantor = draw(st.sampled_from(sorted(state.active_reach)))
    grantee = draw(st.sampled_from(sorted(state.principals - {grantor})))
    if kind == "negative":
        return NegativeOp(grantor, grantee)
    return GrantOp(grantor, grantee, draw(st.sampled_from([TT, TF])))


def reference_undo(state, root):
    """The pair maps after undoing the label on `root`, from a scan of both
    maps for the entries carrying its key and a repair from a full pass."""
    key = state.negative_by_pair[root].label.key
    pos, neg = dict(state.positive_by_pair), dict(state.negative_by_pair)
    restored = []
    for pair, auth in state.positive_by_pair.items():
        if auth.label is not None and auth.label.key == key:
            if auth.label.restores_kind is None:
                del pos[pair]
            else:
                pos[pair] = PositiveAuth(*pair, auth.label.restores_kind)
            if auth.label.restores_blocked:
                restored.append(pair)
    for pair, n in state.negative_by_pair.items():
        if n.label is not None and n.label.key == key:
            del neg[pair]
    for pair in restored:
        neg.setdefault(pair, NegativeAuth(*pair))
    reach = reference_reach(pos, (), state.soa)
    return (
        {pair: auth for pair, auth in pos.items() if pair[0] in reach},
        {pair: n for pair, n in neg.items() if pair[0] in reach},
    )


def check_handed_labels(pre, op, post):
    """`post` was handed its pre-state's label index as it is, whatever the
    operation; every pair that carries a label is a candidate of the label
    or named under its key by the index; and every labelled root of `post`,
    of its pickled copy and of the state its document parses to undoes as
    the scan-based reference does."""
    assert post.labelled is pre.labelled, op
    for by_pair in (post.positive_by_pair, post.negative_by_pair):
        for pair, entry in by_pair.items():
            if entry.label is not None:
                named = post.labelled.get(entry.label.key, ())
                assert pair in entry.label.candidates or pair in named, (op, pair)
    back = pickle.loads(pickle.dumps(post))
    parsed = parse_state(serialize_state(post))
    for root in labelled_roots(post):
        want = reference_undo(post, root)
        for state in (post, back, parsed):
            undone, _ = undo_negative(state, *root)
            assert (dict(undone.positive_by_pair), dict(undone.negative_by_pair)) == want, (op, root)


@given(st.data())
@settings(max_examples=200)
def test_handed_label_index_on_lineages(data):
    state = lineage_start(data.draw)
    for _ in range(data.draw(st.integers(1, 12))):
        op = draw_operation(data.draw, state)
        try:
            post, _ = revocation.apply_step(state, op)
        except AuthGraphError:
            continue
        check_handed_labels(state, op, post)
        state = post
