"""Shallow-bound pair maps: every version of a lineage keeps its own entries.

The versions of one lineage share one dict per map; the newest owns it and
every older one holds a diff.  These tests read versions in every order and
check that each one still holds what it held when it was made, that a failing
operation writes nothing, and that a pickle or a copy stands alone.
"""

from __future__ import annotations

import copy
import pickle
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from authgraph import (
    AuthGraphError,
    DowngradeError,
    DuplicateNegativeError,
    MissingAuthorizationError,
    NothingToUndoError,
    PositiveKind,
    RevocationRequest,
    Scheme,
    apply_scheme,
    grant,
    has_access_right,
    is_independent,
    issue_negative,
    new_state,
    states_equal,
    undo_negative,
)
from authgraph import model, revocation

from test_properties import draw_operation, lineage_start
from test_revocation import large_state

TT, TF = PositiveKind.TT, PositiveKind.TF


@pytest.fixture(params=["cut", "shared", "all-shared"])
def sharing(request, monkeypatch):
    """At the share cut as it is, the maps of `large_state` are dicts of
    their own, which each operation copies.  With the share cut at the
    derivation cut, its positive map is shared and its few blocks are
    copied, as on the large benchmark states.  With both cuts at one entry,
    every non-empty map is shared and every state derives its indexes."""
    if request.param == "shared":
        monkeypatch.setattr(model, "_SHARE_MIN_ENTRIES", model._DERIVE_MIN_ENTRIES)
    elif request.param == "all-shared":
        monkeypatch.setattr(model, "_SHARE_MIN_ENTRIES", 1)
        monkeypatch.setattr(model, "_DERIVE_MIN_ENTRIES", 1)
    return request.param


def snapshot(state):
    """Everything a state holds, read afresh from its pair maps: the maps,
    their sorted entries, the orphans and the label index (as sets)."""
    pos, neg = dict(state.positive_by_pair), dict(state.negative_by_pair)
    return (
        pos,
        neg,
        model._sorted_entries(pos),
        model._sorted_entries(neg),
        state.orphans,
        {key: set(pairs) for key, pairs in state.labelled.items()},
    )


def rebuilt_indexes(state):
    """The state's reach maps and grantee index, as a rebuild gives them."""
    fresh = state.replace_authorizations()
    return {
        "plain": set(state.plain_reach) == set(fresh.plain_reach),
        "active": set(state.active_reach) == set(fresh.active_reach),
        "incoming": {p: set(a) for p, a in state.incoming.items()}
        == {p: set(a) for p, a in fresh.incoming.items()},
    }


def check_all(versions):
    """Read every version forward, then backward, against its snapshot."""
    for state, want in versions + versions[::-1]:
        assert snapshot(state) == want, state.time


def open_edge(state):
    """An unblocked tree edge below the SOA's own children, with a subtree."""
    reach = state.active_reach
    return next(
        (reach[k], k)
        for k in sorted(reach)
        if reach[k] not in (None, state.soa)
        and (reach[k], k) not in state.negative_by_pair
        and any(reach.get(c) == k for c in state.chain_children.get(k, ()))
    )


def failing_calls(state):
    """(name, call) for one failing call of every operation kind on `state`:
    each fails a precondition after its working maps exist."""
    tt = next(pair for pair, auth in sorted(state.positive_by_pair.items()) if auth.kind is TT)
    blocked = next(iter(sorted(state.negative_by_pair)))
    missing = next(
        (g, k)
        for g in sorted(state.active_reach)
        for k in sorted(state.principals)
        if g != k and (g, k) not in state.positive_by_pair and (g, k) not in state.negative_by_pair
    )
    yield "grant", DowngradeError, lambda: grant(state, *tt, TF)
    yield "negative", DuplicateNegativeError, lambda: issue_negative(state, *blocked)
    for scheme in Scheme:
        request = RevocationRequest(scheme, *missing)
        yield scheme.name, MissingAuthorizationError, lambda request=request: apply_scheme(state, request)
        if not scheme.is_delete and blocked in state.positive_by_pair:
            request = RevocationRequest(scheme, *blocked)
            yield f"{scheme.name} blocked", DuplicateNegativeError, lambda request=request: apply_scheme(
                state, request
            )
    yield "undo", NothingToUndoError, lambda: undo_negative(state, *missing)


def test_a_failing_operation_leaves_every_version_as_it_was(sharing):
    # On the newest version of a branched lineage and on an older one that
    # holds a diff, every operation kind that fails leaves the contents of
    # its input, and of every other version, as they were.
    pre = large_state(seed=5)
    assert len(pre.positive_by_pair) >= 32
    assert (type(pre.positive_by_pair) is model.PairMap) == (sharing != "cut")
    i, j = open_edge(pre)
    spare = next(p for p in sorted(pre.principals) if (i, p) not in pre.positive_by_pair and p != i)
    versions = [(pre, snapshot(pre))]
    branch, _ = apply_scheme(pre, RevocationRequest(Scheme.WGN, i, j))
    versions.append((branch, snapshot(branch)))
    newest, _ = grant(pre, i, spare, TT)
    versions.append((newest, snapshot(newest)))
    assert branch.labelled is newest.labelled is pre.labelled
    if sharing != "cut":
        assert pre.positive_by_pair._data is None  # `newest` owns the dict
    for state in (newest, pre):  # the newest, then an older version
        for name, error, call in failing_calls(state):
            before = snapshot(state)
            with pytest.raises(error):
                call()
            assert snapshot(state) == before, name
            check_all(versions)
    assert sum(1 for _ in failing_calls(pre)) >= 11


def test_versions_of_one_pre_state_keep_their_entries(sharing):
    # Grants, all eight schemes and the undos, branched from one pre-state
    # as the benchmark branches them, with every version read in between.
    pre = large_state(seed=6, n=120)
    held_pos, held_neg = pre.positive_by_pair, pre.negative_by_pair
    want_pos, want_neg = dict(held_pos), dict(held_neg)
    i, j = open_edge(pre)
    spares = [p for p in sorted(pre.principals) if p != i and (i, p) not in pre.positive_by_pair]
    versions = [(pre, snapshot(pre))]
    for spare, kind in zip(spares, (TT, TF, TT)):
        post, _ = grant(pre, i, spare, kind)
        versions.append((post, snapshot(post)))
        check_all(versions)
    for scheme in Scheme:
        post, _ = apply_scheme(pre, RevocationRequest(scheme, i, j))
        assert all(rebuilt_indexes(post).values()), scheme
        versions.append((post, snapshot(post)))
        check_all(versions)
        if not scheme.is_delete:
            back, _ = undo_negative(post, i, j)
            versions.append((back, snapshot(back)))
            assert states_equal(back, pre)
            check_all(versions)
    assert len(versions) == 16
    assert dict(held_pos) == want_pos and dict(held_neg) == want_neg
    for state, _ in versions:
        assert all(rebuilt_indexes(state).values()), state.time
        assert has_access_right(state, j) == has_access_right(state.replace_authorizations(), j)
        assert is_independent(state, j, i) == is_independent(state.replace_authorizations(), j, i)


def test_an_operation_above_the_cut_copies_no_map(monkeypatch):
    # The post-state takes over the pre-state's dict and the pre-state keeps
    # a diff of the touched pairs; below the cut a state keeps a dict of its own.
    monkeypatch.setattr(model, "_SHARE_MIN_ENTRIES", model._DERIVE_MIN_ENTRIES)
    pre = large_state(seed=7)
    data = pre.positive_by_pair.current()
    work = pre.positive_by_pair.edit()
    assert type(work) is model._Working and work.before is data
    i, j = open_edge(pre)
    post, delta = apply_scheme(pre, RevocationRequest(Scheme.WLD, i, j))
    assert post.positive_by_pair.current() is data
    diff = pre.positive_by_pair._diff
    assert set(diff) == {(a.grantor, a.grantee) for a in delta.deleted_positive | delta.issued_positive}
    small = new_state("A", "ABC")
    after, _ = grant(small, "A", "B", TT)
    assert type(after.positive_by_pair) is model._Flat and dict(small.positive_by_pair) == {}


def test_a_map_the_edits_left_as_it_was_is_the_pre_states_own():
    # WGD here writes no negative.  Whichever working map the pre-state's
    # negative map hands out, a copy of a dict of its own (`_Flat`), a copy
    # of a shared version's dict below the cut, or an overlay over a copy
    # of a `_Flat` grown to the cut, the post-state's negative map is the
    # pre-state's object; the positive map the edits changed is a new one.
    entries = [model.PositiveAuth(*pair, kind) for *pair, kind in (("A", "B", TT), ("B", "C", TT), ("C", "D", TF))]
    cut = model._SHARE_MIN_ENTRIES
    for built_at, edited_at, kind in ((cut, cut, model._Flat), (0, cut, model.PairMap), (cut, 0, model._Flat)):
        with mock.patch.object(model, "_SHARE_MIN_ENTRIES", built_at):
            pre = model.AuthorizationState("A", frozenset("ABCD"), tuple(entries), ())
        with mock.patch.object(model, "_SHARE_MIN_ENTRIES", edited_at):
            post, delta = apply_scheme(pre, RevocationRequest(Scheme.WGD, "A", "B"))
        assert type(pre.negative_by_pair) is kind and not delta.issued_negative
        assert post.negative_by_pair is pre.negative_by_pair, kind
        assert post.positive_by_pair is not pre.positive_by_pair and delta.deleted_positive


def test_reading_the_start_of_a_long_lineage(sharing):
    # Rerooting walks the diffs iteratively: 5 000 operations deep, the
    # initial state still reads back as it was, and so does the newest.
    state = large_state(seed=8)
    i, j = open_edge(state)
    spare = next(p for p in sorted(state.principals) if p != i and (i, p) not in state.positive_by_pair)
    lineage = [state]
    for step in range(2_500):
        if step % 2:
            state, _ = grant(state, i, spare, TF)
            state, _ = apply_scheme(state, RevocationRequest(Scheme.WLD, i, spare))
        else:
            state, _ = apply_scheme(state, RevocationRequest(Scheme.WGN, i, j))
            state, _ = undo_negative(state, i, j)
        lineage.append(state)
    want_first, want_last = snapshot(lineage[0]), snapshot(lineage[-1])
    assert lineage[-1].time == lineage[0].time + 5_000
    if sharing != "cut":
        assert lineage[0].positive_by_pair._data is None
    assert snapshot(lineage[0]) == want_first
    assert snapshot(lineage[-1]) == want_last
    assert snapshot(lineage[1_250]) == snapshot(lineage[1_250].replace_authorizations())


def test_an_older_version_pickles_flat(sharing):
    pre = large_state(seed=9)
    i, j = open_edge(pre)
    post, _ = apply_scheme(pre, RevocationRequest(Scheme.WLD, i, j))
    if sharing != "cut":
        assert pre.positive_by_pair._data is None  # `post` owns the dict
    want = snapshot(pre)
    for back in (pickle.loads(pickle.dumps(pre)), copy.copy(pre), copy.deepcopy(pre)):
        for by_pair in (back.positive_by_pair, back.negative_by_pair):
            assert type(by_pair) is model._Flat or (
                type(by_pair._data) is dict and by_pair._base is None and by_pair._diff is None
            )
        assert back.positive_by_pair.current() is not post.positive_by_pair.current()
        assert snapshot(back) == want
        again, _ = apply_scheme(back, RevocationRequest(Scheme.WLD, i, j))
        assert states_equal(again, post)
    assert snapshot(pre) == want


def test_an_older_pair_map_pickles_standalone(sharing):
    # A map pickled by itself, not through its state, holds the entries of
    # its version and unpickles as a map of the same kind that shares
    # nothing with the lineage; it compares equal to any mapping of them.
    pre = large_state(seed=9)
    want = pre.positive_by_pair.copy()
    i, j = open_edge(pre)
    post, _ = apply_scheme(pre, RevocationRequest(Scheme.WLD, i, j))
    older = pre.positive_by_pair
    if sharing != "cut":
        assert older._data is None  # `post` owns the dict
    back = pickle.loads(pickle.dumps(older))
    assert type(back) is type(older)
    if sharing != "cut":
        assert type(back._data) is dict and back._base is None and back._diff is None
    assert back == want and back == model.PairMap(dict(want)) and back != sorted(want)
    assert older == want and post.positive_by_pair != want
    assert back.current() is not post.positive_by_pair.current()
    assert back == want  # rerooting the lineage changed nothing in it
    assert repr(model.PairMap({("A", "B"): 1})) == "PairMap({('A', 'B'): 1})"


def test_a_label_key_goes_with_its_last_carrier():
    # WGN (B, C) blocks B -> C under its label; WLD (A, B) then re-roots
    # B's grants at A and drops the labelled block, the key's only carrier.
    state = new_state("A", "ABCD")
    for grantor, grantee in (("A", "B"), ("B", "C"), ("C", "D")):
        state, _ = grant(state, grantor, grantee, TT)
    state, _ = apply_scheme(state, RevocationRequest(Scheme.WGN, "B", "C"))
    state, _ = apply_scheme(state, RevocationRequest(Scheme.WLD, "A", "B"))
    assert all(n.label is None for n in state.negative)


def test_a_label_key_stays_while_a_candidate_carries_it():
    # A delete scheme that removes one labelled reissue of WLN keeps the key
    # while the labelled block still carries it; undo then lifts every entry
    # that carries it.
    state = large_state(seed=10)
    for i, j in sorted(state.positive_by_pair):
        if (i, j) in state.negative_by_pair:
            continue
        negated, _ = apply_scheme(state, RevocationRequest(Scheme.WLN, i, j))
        key = (i, j, state.time)
        reissued = [a.pair for a in negated.positive if a.label is not None and a.label.key == key]
        if reissued:
            break
    later, _ = apply_scheme(negated, RevocationRequest(Scheme.WLD, *reissued[0]))
    assert negated.negative_by_pair[(i, j)].label.key == key
    assert later.negative_by_pair[(i, j)].label.key == key
    back, _ = undo_negative(later, i, j)
    assert all(e.label is None or e.label.key != key for e in (*back.positive, *back.negative))


@given(st.data())
@settings(max_examples=150)
def test_random_branching_lineages_keep_every_version(data):
    # Operations applied to versions drawn at random from everything built so
    # far, every map shared: after each one, every version reads as it was.
    with mock.patch.object(model, "_DERIVE_MIN_ENTRIES", 1), mock.patch.object(model, "_SHARE_MIN_ENTRIES", 1):
        versions = [lineage_start(data.draw)]
        versions = [(versions[0], snapshot(versions[0]))]
        for _ in range(data.draw(st.integers(1, 10))):
            pre, _ = versions[data.draw(st.integers(0, len(versions) - 1))]
            op = draw_operation(data.draw, pre)
            try:
                post, _ = revocation.apply_step(pre, op)
            except AuthGraphError:
                continue
            versions.append((post, snapshot(post)))
            order = data.draw(st.permutations(range(len(versions))))
            for k in order:
                state, want = versions[k]
                assert snapshot(state) == want, (k, op)
