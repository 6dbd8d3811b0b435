"""Engine behaviour: grants, negatives, the eight schemes, undo, timelines."""

from __future__ import annotations

import gc
import hashlib
import pickle
import random
import weakref
from contextlib import contextmanager

import pytest

from authgraph import (
    AuthGraphError,
    AuthorizationState,
    DowngradeError,
    DuplicateNegativeError,
    EngineConfig,
    GrantOp,
    InactiveGrantorError,
    MissingAuthorizationError,
    NegativeAuth,
    NegativeOp,
    NothingToUndoError,
    PositiveAuth,
    PositiveKind,
    RevocationLabel,
    RevocationRequest,
    RevokeOp,
    Scheme,
    SelfOperationError,
    Timeline,
    UndoOp,
    UnknownPrincipalError,
    apply_operation,
    apply_scheme,
    grant,
    has_access_right,
    has_delegation_right,
    is_auth_active,
    is_independent,
    issue_negative,
    new_state,
    states_equal,
    undo_negative,
    validate_connectivity,
)
from authgraph import model, revocation, semantics
from authgraph.io import serialize_state
from authgraph.semantics import reachable_active

import generators
import sample_states

TT, TF = PositiveKind.TT, PositiveKind.TF


def edges(state):
    return {(a.grantor, a.grantee, a.kind.name) for a in state.positive}


def blocks(state):
    return {(n.grantor, n.grantee) for n in state.negative}


class TestGrant:
    def test_soa_may_always_grant(self):
        state = new_state("A", ["A", "B"])
        state, delta = grant(state, "A", "B", TT)
        assert edges(state) == {("A", "B", "TT")}
        assert len(delta.issued_positive) == 1
        assert state.time == 1

    def test_upgrade_in_place(self):
        state = new_state("A", ["A", "B"])
        state, _ = grant(state, "A", "B", TF)
        state, delta = grant(state, "A", "B", TT)
        assert edges(state) == {("A", "B", "TT")}
        assert len(delta.deleted_positive) == 1 and len(delta.issued_positive) == 1

    def test_downgrade_refused(self):
        state = new_state("A", ["A", "B"])
        state, _ = grant(state, "A", "B", TT)
        with pytest.raises(DowngradeError):
            grant(state, "A", "B", TF)

    def test_inactive_grantor_refused(self, blocked_chain):
        with pytest.raises(InactiveGrantorError):
            grant(blocked_chain, "B", "D", TF)

    def test_self_and_unknown(self, empty_six):
        with pytest.raises(SelfOperationError):
            grant(empty_six, "A", "A", TT)
        with pytest.raises(UnknownPrincipalError):
            grant(empty_six, "A", "Z", TT)

    def test_regrant_clears_label(self, revocation_base):
        after, _ = apply_scheme(revocation_base, RevocationRequest(Scheme.WLN, "A", "B"))
        assert after.positive_by_pair[("A", "C")].label is not None
        after, _ = grant(after, "A", "C", TF)
        assert after.positive_by_pair[("A", "C")].label is None


class TestIssueNegative:
    def test_duplicate_refused(self, blocked_chain):
        with pytest.raises(DuplicateNegativeError):
            issue_negative(blocked_chain, "A", "B")

    def test_inactive_grantor_refused(self, blocked_chain):
        with pytest.raises(InactiveGrantorError):
            issue_negative(blocked_chain, "B", "D")

    def test_plain_negative_carries_no_label(self, empty_six):
        state, _ = grant(empty_six, "A", "B", TT)
        state, _ = issue_negative(state, "A", "B")
        assert state.negative[0].label is None


def _each_operation(base):
    """(name, post-state) for one operation of every kind on `base`."""
    yield "grant", grant(base, "A", "C", TT)[0]
    yield "negative", issue_negative(base, "A", "D")[0]
    for scheme in Scheme:
        post = apply_scheme(base, RevocationRequest(scheme, "A", "B"))[0]
        yield scheme.name, post
        if not scheme.is_delete:
            yield f"undo after {scheme.name}", undo_negative(post, "A", "B")[0]


def test_engine_states_sort_entries_on_first_read(revocation_base):
    # Operations and queries read only the pair maps; the sorted tuples are
    # built when something asks for them, and then match the constructor's.
    for name, post in _each_operation(revocation_base):
        assert "positive" not in post.__dict__ and "negative" not in post.__dict__, name
        has_access_right(post, "E")
        has_delegation_right(post, "E")
        is_independent(post, "E", "B")
        is_auth_active(post, "A", "D")
        assert "positive" not in post.__dict__ and "negative" not in post.__dict__, name
        rebuilt = AuthorizationState(
            post.soa,
            post.principals,
            tuple(post.positive_by_pair.values()),
            tuple(post.negative_by_pair.values()),
            post.time,
        )
        assert post.positive == rebuilt.positive, name
        assert post.negative == rebuilt.negative, name


def standalone(state):
    """Both pair maps of `state` are its own: a dict below the size cut, or
    a version that holds a plain dict and no diff."""
    return all(
        type(by_pair) is model._Flat
        or (type(by_pair._data) is dict and by_pair._base is None and by_pair._diff is None)
        for by_pair in (state.positive_by_pair, state.negative_by_pair)
    )


def test_engine_post_states_round_trip_through_pickle(revocation_base):
    # A post-state's maps are versions of its lineage's; a pickle holds them
    # as plain dicts, and unpickles them as versions of their own.
    negative_schemes = {s.name for s in Scheme if not s.is_delete}
    for name, post in _each_operation(revocation_base):
        fields = post.__getstate__()
        assert type(fields["positive_by_pair"]) is dict and type(fields["negative_by_pair"]) is dict
        back = pickle.loads(pickle.dumps(post))
        assert states_equal(back, post) and back.time == post.time, name
        assert standalone(back), name
        if name in negative_schemes:
            undone, _ = undo_negative(back, "A", "B")
            assert states_equal(undone, undo_negative(post, "A", "B")[0]), name


_INDEXES = (
    "chain_children",
    "plain_reach",
    "active_reach",
    "incoming",
    "outgoing",
    "orphans",
)


def _indexed(state):
    for name in _INDEXES:
        getattr(state, name)
    return state


def test_operations_on_an_indexed_state_build_no_adjacency(revocation_base, monkeypatch):
    # Every scheme and undo rechecks reachability from the pre-state's own
    # indexes: no TT adjacency rebuilt from a working map, no fresh BFS.
    base = _indexed(revocation_base)
    cases = []
    for edge in base.positive:
        i, j = edge.grantor, edge.grantee
        for scheme in Scheme:
            for flag in (True, False):
                config = EngineConfig(sgd_descendant_dominance=flag)
                cases.append((scheme, i, j, config))
    negated = [
        (_indexed(apply_scheme(base, RevocationRequest(scheme, i, j), config)[0]), i, j)
        for scheme, i, j, config in cases
        if not scheme.is_delete and (i, j) not in base.negative_by_pair
    ]
    calls = []
    for module in (model, semantics, revocation):
        for name in ("_bfs", "_tt_adjacency"):
            real = getattr(model, name)
            counted = lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args)
            monkeypatch.setattr(module, name, counted, raising=False)
    for scheme, i, j, config in cases:
        try:
            apply_scheme(base, RevocationRequest(scheme, i, j), config)
        except AuthGraphError:
            pass
    for post, i, j in negated:
        undo_negative(post, i, j)
    assert len(negated) > 0 and calls == []


@pytest.mark.parametrize("size", [4, 40])
def test_undo_on_a_fresh_lineage_state_builds_no_index(size, monkeypatch):
    # A lineage hands every state its orphans and its label index, so
    # neither WGN nor an undo whose edits cut and restore no TT edge builds
    # an index: no reach or adjacency pass and no label scan, below the
    # derivation cut and above it, where each post-state keeps its origin.
    names = [f"p{k:02d}" for k in range(size)]
    state = new_state(names[0], names)
    for grantor, grantee in zip(names, names[1:]):
        state, _ = grant(state, grantor, grantee, TT)
    assert (len(state.positive_by_pair) >= model._DERIVE_MIN_ENTRIES) == (size > 4)
    calls = []
    for name in ("_bfs", "_tt_adjacency"):
        real = getattr(model, name)
        counted = lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args)
        monkeypatch.setattr(model, name, counted)
    scan = AuthorizationState.labelled
    monkeypatch.setattr(scan, "func", lambda state, _real=scan.func: calls.append("labelled") or _real(state))
    i, j = names[1], names[2]
    negated, _ = apply_scheme(state, RevocationRequest(Scheme.WGN, i, j))
    back, _ = undo_negative(negated, i, j)
    assert calls == []
    assert ("_origin" in back.__dict__) == (size > 4)
    assert states_equal(back, state)


def _walk(method):
    def walk(self, *args):
        assert self.paused, "walked a whole pair map"
        return method(self, *args)

    return walk


class _RecordingMap(dict):
    """A pair map that records each key read from it and fails any walk
    (`iter`, `copy`, `items`, `keys`, `values`) unless paused; paused, it
    records nothing and walks as a dict."""

    def __init__(self, source):
        super().__init__(source)
        self.read = set()
        self.paused = False

    def get(self, key, default=None):
        self.paused or self.read.add(key)
        return dict.get(self, key, default)

    def __getitem__(self, key):
        self.paused or self.read.add(key)
        return dict.__getitem__(self, key)

    def __contains__(self, key):
        self.paused or self.read.add(key)
        return dict.__contains__(self, key)

    __iter__ = _walk(dict.__iter__)
    copy = _walk(dict.copy)
    items = _walk(dict.items)
    keys = _walk(dict.keys)
    values = _walk(dict.values)


@contextmanager
def _paused(maps):
    for recording in maps:
        recording.paused = True
    try:
        yield
    finally:
        for recording in maps:
            recording.paused = False


class _Unrecorded:
    """A working map whose reads, and what they fall back on in the state's
    dicts, the recording `maps` do not count; it offers no walk."""

    def __init__(self, working, maps):
        self.working, self.maps = working, maps

    def get(self, pair, default=None):
        with _paused(self.maps):
            return self.working.get(pair, default)

    def __contains__(self, pair):
        with _paused(self.maps):
            return pair in self.working


def test_undo_reads_only_its_label_candidates(monkeypatch):
    # An undo on a large lineage state reads one by one its label's
    # candidates, and the pairs its repair drops; it walks no pair map but
    # to copy one below the share cut, as designed.  The
    # repair's reachability recheck reads the edges of the region it
    # rechecks through the working maps, which fall back on the state's
    # dicts: those reads are not counted here (the recheck's own tests bound
    # its region), and the recheck may not walk a working map either.
    state = _indexed(large_state(seed=4))
    for scheme in (Scheme.WLN, Scheme.WGN, Scheme.SLN, Scheme.SGN):
        i, j = next(
            pair
            for pair in sorted(state.positive_by_pair)
            if pair not in state.negative_by_pair
            and state.active_reach.get(pair[0]) not in (None, state.soa)
        )
        state, _ = apply_scheme(state, RevocationRequest(scheme, i, j))
        soa = state.soa
        spare = next(p for p in sorted(state.principals - {soa}) if (soa, p) not in state.positive_by_pair)
        state, _ = grant(state, soa, spare, TF)
    roots = sorted(
        pair for pair, n in state.negative_by_pair.items() if n.label is not None and n.label.root == pair
    )
    assert len(roots) == 4 and "labelled" in _indexed(state).__dict__
    expected = {root: undo_negative(state.replace_authorizations(), *root)[0] for root in roots}
    contents = state.positive_by_pair.copy(), state.negative_by_pair.copy()
    maps = ()

    def working(base, _real=revocation._working):
        if len(base) >= model._SHARE_MIN_ENTRIES:
            return _real(base)
        with _paused(maps):
            return _real(base)

    def recheck(state, pos, neg, *args, _real=revocation._recheck):
        return _real(state, _Unrecorded(pos, maps), _Unrecorded(neg, maps), *args)

    monkeypatch.setattr(revocation, "_working", working)
    monkeypatch.setattr(revocation, "_recheck", recheck)
    # At the share cut as it is, an undo copies both maps.  With the cut at
    # the derivation cut, it shares the positive map and copies the negative
    # one, as on the large benchmark states.
    assert len(contents[1]) < model._DERIVE_MIN_ENTRIES <= len(contents[0]) < model._SHARE_MIN_ENTRIES
    for cut in (model._SHARE_MIN_ENTRIES, model._DERIVE_MIN_ENTRIES):
        monkeypatch.setattr(model, "_SHARE_MIN_ENTRIES", cut)
        for root in roots:
            label = state.negative_by_pair[root].label
            candidates = set().union(*label.candidates, *state.labelled.get(label.key, ()))
            # each undo starts from a fresh version over recording dicts, so
            # the reads that reroot away the previous undo's edits are not
            # counted
            maps = _RecordingMap(contents[0]), _RecordingMap(contents[1])
            state.__dict__.update(
                positive_by_pair=model.PairMap(maps[0]), negative_by_pair=model.PairMap(maps[1])
            )
            back, delta = undo_negative(state, *root)
            changed = {(entry.grantor, entry.grantee) for part in vars(delta).values() for entry in part}
            assert maps[0].read | maps[1].read <= candidates | changed, (cut, root)
            assert len(candidates) < len(maps[0]) // 4, (cut, root)
            with _paused(maps):
                assert states_equal(back, expected[root]), (cut, root)


def large_state(seed=1, n=60):
    """A seeded state above the derivation cut: a random TT spanning tree
    over n principals, as many extra edges (some TF), and four blocks."""
    rng = random.Random(seed)
    names = [f"p{k:02d}" for k in range(n)]
    kinds = {(names[rng.randrange(k)], names[k]): TT for k in range(1, n)}
    while len(kinds) < 2 * (n - 1):
        kinds.setdefault(tuple(rng.sample(names, 2)), TF if rng.random() < 0.3 else TT)
    blocked = rng.sample(sorted(kinds), 4)
    state = AuthorizationState(
        soa=names[0],
        principals=frozenset(names),
        positive=tuple(PositiveAuth(g, k, kind) for (g, k), kind in kinds.items()),
        negative=tuple(NegativeAuth(g, k) for g, k in blocked),
    )
    assert len(state.positive_by_pair) >= model._DERIVE_MIN_ENTRIES
    return state


def _large_operations(base):
    """(name, post-state) for a grant, a plain negative, the eight schemes and
    their undos on `base`, each cutting one active tree edge above a subtree."""
    reach = base.active_reach
    i, j = next(
        (reach[k], k)
        for k in sorted(reach)
        if reach[k] not in (None, base.soa) and _active_children(base, k)
    )
    spare = next(p for p in sorted(base.principals) if (i, p) not in base.positive_by_pair)
    yield "grant", grant(base, i, spare, TT)[0]
    yield "negative", issue_negative(base, i, j)[0]
    for scheme in Scheme:
        request = RevocationRequest(scheme, i, j)
        yield scheme.name, apply_scheme(base, request)[0]
        if not scheme.is_delete:  # from a state of its own, which the undo makes an origin
            negated = _indexed(apply_scheme(base, request)[0])
            yield f"undo after {scheme.name}", undo_negative(negated, i, j)[0]


def _active_children(state, p):
    """p's TT successors over pairs no FF blocks."""
    blocked = state.negative_by_pair
    return [k for k in state.chain_children.get(p, ()) if (p, k) not in blocked]


def _tree_path(reach, p):
    path = []
    while p is not None:
        path.append(p)
        p = reach[p]
    return path


def test_first_queries_on_a_large_post_state_build_no_index(monkeypatch):
    # A post-state derives its indexes from its pre-state's: the first rights
    # queries on it run no pass over the whole graph.
    cases = []
    for name, post in _large_operations(_indexed(large_state())):
        fresh = post.replace_authorizations()
        active = fresh.active_reach
        leaf = next(p for p in sorted(active) if not _active_children(fresh, p))  # no chain passes it
        deep = max(sorted(active.keys() - {leaf}), key=lambda p: len(_tree_path(active, p)))
        edge = next(iter(sorted(post.positive_by_pair)))
        cases.append((name, post, fresh, leaf, deep, edge))
    calls = []
    for module in (model, semantics):
        for name in ("_bfs", "_tt_adjacency"):
            real = getattr(model, name)
            counted = lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args)
            monkeypatch.setattr(module, name, counted, raising=False)
    for name, post, fresh, leaf, deep, edge in cases:
        assert "_origin" in post.__dict__, name
        for p in sorted(post.principals)[::7]:
            assert has_access_right(post, p) == has_access_right(fresh, p), name
            assert has_delegation_right(post, p) == has_delegation_right(fresh, p), name
        assert is_auth_active(post, *edge) == is_auth_active(fresh, *edge), name
        assert is_independent(post, deep, leaf), name
        assert calls == [], name


def test_a_lineage_holds_only_one_predecessor():
    first = _indexed(large_state(seed=2))
    i, j = next(pair for pair in sorted(first.positive_by_pair) if pair not in first.negative_by_pair)
    second, _ = apply_scheme(first, RevocationRequest(Scheme.WGN, i, j))
    held = weakref.ref(first)
    del first
    gc.collect()
    assert held() is not None  # `second` derives its indexes from it
    has_access_right(second, j)
    third, _ = undo_negative(second, i, j)
    gc.collect()
    assert held() is None
    assert "_origin" not in second.__dict__ and third.__dict__["_origin"][0] is second


def test_operations_leave_no_cyclic_garbage():
    # Reference counting alone frees what an operation makes: garbage only
    # the cyclic collector finds piles up between its passes and makes the
    # cost of the calls around them uneven.
    gc.collect()
    gc.disable()
    try:
        for state in (sample_states.revocation_base(), _indexed(large_state(seed=5))):
            i, j = next(pair for pair in sorted(state.positive_by_pair) if pair not in state.negative_by_pair)
            for scheme in Scheme:
                post, _ = apply_scheme(state, RevocationRequest(scheme, i, j))
                if not scheme.is_delete:
                    post, _ = undo_negative(post, i, j)
                post, _ = grant(post, post.soa, j, TT)
                has_access_right(post, j)
            del post
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_large_post_states_pickle_without_their_origin():
    for name, post in _large_operations(_indexed(large_state(seed=3))):
        has_access_right(post, post.soa)
        back = pickle.loads(pickle.dumps(post))
        assert "_origin" in post.__dict__ and "_origin" not in back.__dict__, name
        assert states_equal(back, post) and back.active_reach == post.active_reach, name


def orphaned_document_state():
    return AuthorizationState(
        soa="A",
        principals=frozenset("ABCD"),
        positive=(
            PositiveAuth("A", "B", TT),
            PositiveAuth("A", "C", TF),
            PositiveAuth("C", "D", TT),
        ),
        negative=(),
    )


class TestDisconnectedPreState:
    """A document may carry an orphan: C holds only a TF, yet grants D a TT.

    Repair drops it wherever an operation repairs, exactly as a full
    reachability pass over the post-state would.
    """

    @pytest.fixture
    def orphaned(self):
        return orphaned_document_state()

    def test_delete_scheme_drops_the_orphan(self, orphaned):
        post, delta = apply_scheme(orphaned, RevocationRequest(Scheme.WLD, "A", "C"))
        assert edges(post) == {("A", "B", "TT")}
        assert {(a.grantor, a.grantee) for a in delta.deleted_positive} == {
            ("A", "C"),
            ("C", "D"),
        }
        assert validate_connectivity(post) == []

    def test_negative_scheme_keeps_the_orphan(self, orphaned):
        post, _ = apply_scheme(orphaned, RevocationRequest(Scheme.WGN, "A", "B"))
        assert ("C", "D") in post.positive_by_pair

    @pytest.mark.parametrize("scheme", [Scheme.WLN, Scheme.WGN, Scheme.SLN, Scheme.SGN])
    def test_undo_drops_the_orphan(self, orphaned, scheme):
        post, _ = apply_scheme(orphaned, RevocationRequest(scheme, "A", "B"))
        back, delta = undo_negative(post, "A", "B")
        assert edges(back) == {("A", "B", "TT"), ("A", "C", "TF")}
        assert blocks(back) == set()
        assert {(a.grantor, a.grantee) for a in delta.deleted_positive} == {("C", "D")}


class TestOrphanHandOff:
    """Each operation hands its post-state the orphans a fresh state would
    compute, also when the pre-state has some."""

    @pytest.fixture
    def orphaned(self):
        return orphaned_document_state()

    @pytest.mark.parametrize("scheme", [Scheme.WLN, Scheme.WGN, Scheme.SLN, Scheme.SGN])
    def test_negative_scheme_hands_on_the_orphans(self, orphaned, scheme):
        assert orphaned.orphans == {"C"}  # computed before the operation
        post, _ = apply_scheme(orphaned, RevocationRequest(scheme, "A", "B"))
        assert post.__dict__["orphans"] == {"C"} == post.replace_authorizations().orphans

    @pytest.mark.parametrize("scheme", [Scheme.WLN, Scheme.SLN])
    def test_weakening_reissue_orphans_its_grantee(self, scheme):
        # the TF reissue overwrites the blocked TT (A, C), so C, which grants
        # (C, A), loses its plain chain; undo restores the TT and roots C again
        state = sample_states.downgrade_merge_corner()
        assert state.orphans == set()
        post, _ = apply_scheme(state, RevocationRequest(scheme, "A", "B"))
        assert post.positive_by_pair[("A", "C")].kind is TF
        assert post.__dict__["orphans"] == {"C"} == post.replace_authorizations().orphans
        back, _ = undo_negative(post, "A", "B")
        assert states_equal(back, state) and back.__dict__["orphans"] == set()
        regranted, _ = grant(post, "A", "C", TT)
        assert regranted.__dict__["orphans"] == set()


class TestSchemeSnapshots:
    """Edge-set results of revoking (A, B) on the six-principal base state."""

    def test_wld(self, revocation_base):
        post, delta = apply_scheme(revocation_base, RevocationRequest(Scheme.WLD, "A", "B"))
        assert edges(post) == {
            ("A", "C", "TF"),
            ("A", "D", "TT"),
            ("A", "E", "TT"),
            ("D", "B", "TF"),
            ("D", "E", "TT"),
        }
        assert blocks(post) == {("E", "F")}
        assert {(a.grantor, a.grantee) for a in delta.deleted_positive} == {
            ("A", "B"),
            ("B", "C"),
            ("B", "E"),
        }
        assert {(a.grantor, a.grantee) for a in delta.issued_positive} == {
            ("A", "C"),
            ("A", "E"),
        }
        assert not delta.deleted_negative and not delta.issued_negative

    def test_wgd(self, revocation_base):
        post, delta = apply_scheme(revocation_base, RevocationRequest(Scheme.WGD, "A", "B"))
        assert edges(post) == {("A", "D", "TT"), ("D", "B", "TF"), ("D", "E", "TT")}
        assert blocks(post) == {("E", "F")}
        assert not delta.issued_positive and not delta.issued_negative

    def test_sld(self, revocation_base):
        post, _ = apply_scheme(revocation_base, RevocationRequest(Scheme.SLD, "A", "B"))
        assert edges(post) == {
            ("A", "C", "TF"),
            ("A", "D", "TT"),
            ("A", "E", "TT"),
            ("D", "E", "TT"),
        }
        assert blocks(post) == {("E", "F")}

    def test_sgd_descendant_dominance(self, revocation_base):
        post, _ = apply_scheme(revocation_base, RevocationRequest(Scheme.SGD, "A", "B"))
        assert edges(post) == {("A", "D", "TT")}
        assert blocks(post) == set()

    def test_sgd_variant_stops_at_target(self, revocation_base):
        post, _ = apply_scheme(
            revocation_base,
            RevocationRequest(Scheme.SGD, "A", "B"),
            EngineConfig(sgd_descendant_dominance=False),
        )
        # D -> B still falls (an edge into the target) but D -> E survives
        assert edges(post) == {("A", "D", "TT"), ("D", "E", "TT")}
        assert blocks(post) == {("E", "F")}

    def test_wln(self, revocation_base):
        post, _ = apply_scheme(revocation_base, RevocationRequest(Scheme.WLN, "A", "B"))
        assert edges(post) == edges(revocation_base) | {("A", "C", "TF"), ("A", "E", "TT")}
        assert blocks(post) == {("A", "B"), ("E", "F")}
        labelled = {a.pair for a in post.positive if a.label is not None}
        assert labelled == {("A", "C"), ("A", "E")}
        label = post.negative_by_pair[("A", "B")].label
        assert label is not None and label.root == ("A", "B")
        assert label.sequence == revocation_base.time

    def test_wgn_adds_only_the_root_negative(self, revocation_base):
        post, delta = apply_scheme(revocation_base, RevocationRequest(Scheme.WGN, "A", "B"))
        assert edges(post) == edges(revocation_base)
        assert blocks(post) == {("A", "B"), ("E", "F")}
        assert not delta.issued_positive

    def test_sln(self, revocation_base):
        post, _ = apply_scheme(revocation_base, RevocationRequest(Scheme.SLN, "A", "B"))
        assert blocks(post) == {("A", "B"), ("D", "B"), ("E", "F")}
        assert post.negative_by_pair[("D", "B")].label is not None
        assert post.negative_by_pair[("E", "F")].label is None
        labelled = {a.pair for a in post.positive if a.label is not None}
        assert labelled == {("A", "C"), ("A", "E")}

    def test_sgn(self, revocation_base):
        post, delta = apply_scheme(revocation_base, RevocationRequest(Scheme.SGN, "A", "B"))
        assert edges(post) == edges(revocation_base)
        assert blocks(post) == {
            ("A", "B"),
            ("B", "C"),
            ("B", "E"),
            ("D", "B"),
            ("D", "E"),
            ("E", "F"),
        }
        assert all(
            n.label is not None for n in post.negative if n.pair != ("E", "F")
        )
        assert not delta.issued_positive

    def test_sgn_variant_stops_at_target(self, revocation_base):
        post, _ = apply_scheme(
            revocation_base,
            RevocationRequest(Scheme.SGN, "A", "B"),
            EngineConfig(sgd_descendant_dominance=False),
        )
        assert blocks(post) == {("A", "B"), ("D", "B"), ("E", "F")}

    def test_time_advances_once_per_operation(self, revocation_base):
        for scheme in Scheme:
            post, _ = apply_scheme(revocation_base, RevocationRequest(scheme, "A", "B"))
            assert post.time == revocation_base.time + 1


class TestSchemePreconditions:
    def test_missing_authorization(self, empty_six):
        for scheme in Scheme:
            with pytest.raises(MissingAuthorizationError):
                apply_scheme(empty_six, RevocationRequest(scheme, "A", "B"))

    def test_unknown_principal(self, revocation_base):
        with pytest.raises(UnknownPrincipalError):
            apply_scheme(revocation_base, RevocationRequest(Scheme.WLD, "A", "Z"))

    def test_negative_schemes_refuse_existing_block(self, blocked_chain):
        for scheme in (Scheme.WLN, Scheme.WGN, Scheme.SLN, Scheme.SGN):
            with pytest.raises(DuplicateNegativeError):
                apply_scheme(blocked_chain, RevocationRequest(scheme, "A", "B"))

    def test_delete_schemes_allow_existing_block(self, blocked_chain):
        post, _ = apply_scheme(blocked_chain, RevocationRequest(Scheme.WLD, "A", "B"))
        assert ("A", "B") not in post.positive_by_pair


class TestSingleEdgeRevocations:
    def test_access_only_target_triggers_no_cascade(self):
        state = new_state("A", ["A", "B"])
        state, _ = grant(state, "A", "B", TF)
        post, _ = apply_scheme(state, RevocationRequest(Scheme.WLD, "A", "B"))
        assert edges(post) == set()
        assert blocks(post) == set()

    def test_fresh_delegation_chain_collapses(self):
        state = new_state("A", ["A", "B", "C"])
        state, _ = grant(state, "A", "B", TT)
        state, _ = grant(state, "B", "C", TT)
        post, _ = apply_scheme(state, RevocationRequest(Scheme.WGD, "A", "B"))
        assert edges(post) == set()


class TestLocalReissueCorners:
    def test_dead_grant_reissued_with_pairing_block(self):
        # B's grant of C was already suspended; re-rooting keeps it suspended
        state = new_state("A", ["A", "B", "C"])
        state, _ = grant(state, "A", "B", TT)
        state, _ = grant(state, "B", "C", TT)
        state, _ = issue_negative(state, "B", "C")
        post, _ = apply_scheme(state, RevocationRequest(Scheme.WLD, "A", "B"))
        assert edges(post) == {("A", "C", "TT")}
        assert blocks(post) == {("A", "C")}
        assert validate_connectivity(post) == []

    def test_lifting_a_block_never_leaks_a_stronger_kind(self):
        # slot (A, C) holds a blocked TT; the re-rooted right was only TF
        state = new_state("A", ["A", "B", "C"])
        state, _ = grant(state, "A", "C", TT)
        state, _ = grant(state, "A", "B", TT)
        state, _ = grant(state, "B", "C", TF)
        state, _ = issue_negative(state, "A", "C")
        pre_deleg_c = "C" in reachable_active(state)
        assert pre_deleg_c is False
        post, _ = apply_scheme(state, RevocationRequest(Scheme.WLD, "A", "B"))
        assert post.positive_by_pair[("A", "C")].kind is TF
        assert ("A", "C") not in post.negative_by_pair
        assert "C" not in reachable_active(post)  # no delegation gained

    def test_downgrading_merge_severs_dependent_chains(self):
        # the TF reissue overwrites a blocked TT slot; C chained through that
        # TT, so C's own grant must fall with it
        state = sample_states.downgrade_merge_corner()
        for scheme in (Scheme.WLD, Scheme.SLD):
            post, _ = apply_scheme(state, RevocationRequest(scheme, "A", "B"))
            assert edges(post) == {("A", "C", "TF")}
            assert blocks(post) == set()
            assert validate_connectivity(post) == []

    def test_weakness_yields_inside_detached_cycles(self):
        # X sat behind B both ways; once B falls, X cannot keep granting
        state = new_state("A", ["A", "B", "X"])
        state, _ = grant(state, "A", "B", TT)
        state, _ = grant(state, "B", "X", TT)
        state, _ = grant(state, "X", "B", TT)
        state, _ = grant(state, "A", "X", TF)
        state, _ = issue_negative(state, "B", "X")
        post, _ = apply_scheme(state, RevocationRequest(Scheme.WLD, "A", "B"))
        assert edges(post) == {("A", "X", "TF")}
        assert blocks(post) == set()
        assert validate_connectivity(post) == []


class TestUndo:
    @pytest.mark.parametrize("scheme", [Scheme.WLN, Scheme.WGN, Scheme.SLN, Scheme.SGN])
    def test_immediate_round_trip_on_base(self, revocation_base, scheme):
        post, _ = apply_scheme(revocation_base, RevocationRequest(scheme, "A", "B"))
        back, _ = undo_negative(post, "A", "B")
        assert states_equal(back, revocation_base)
        assert back.time == post.time + 1

    def test_nothing_to_undo(self, revocation_base):
        with pytest.raises(NothingToUndoError):
            undo_negative(revocation_base, "A", "B")

    def test_plain_negative_not_undoable(self, revocation_base):
        # FF(E, F) came from issue_negative and carries no label
        with pytest.raises(NothingToUndoError):
            undo_negative(revocation_base, "E", "F")

    def test_undo_restores_displaced_kind_and_block(self):
        # reissue lands on a blocked TT slot; undo puts both back
        state = new_state("A", ["A", "B", "C"])
        state, _ = grant(state, "A", "C", TT)
        state, _ = grant(state, "A", "B", TT)
        state, _ = grant(state, "B", "C", TF)
        state, _ = issue_negative(state, "A", "C")
        post, _ = apply_scheme(state, RevocationRequest(Scheme.WLN, "A", "B"))
        slot = post.positive_by_pair[("A", "C")]
        assert slot.kind is TF and slot.label is not None
        assert slot.label.restores_kind is TT and slot.label.restores_blocked
        assert ("A", "C") not in post.negative_by_pair
        back, _ = undo_negative(post, "A", "B")
        assert states_equal(back, state)

    def test_undo_after_interleaved_grant_keeps_it(self, revocation_base):
        post, _ = apply_scheme(revocation_base, RevocationRequest(Scheme.WGN, "A", "B"))
        post, _ = grant(post, "D", "F", TF)
        back, _ = undo_negative(post, "A", "B")
        assert ("D", "F") in back.positive_by_pair
        assert states_equal(
            back.replace_authorizations(
                positive=[a for a in back.positive if a.pair != ("D", "F")],
                negative=back.negative,
                time=back.time,
            ),
            revocation_base,
        )

    def test_undo_stays_consistent_after_interleaving(self, revocation_base):
        # later grants and deletes may invalidate parts of the labelled set;
        # undo must still produce a connected state
        post, _ = apply_scheme(revocation_base, RevocationRequest(Scheme.WLN, "A", "B"))
        post, _ = grant(post, "E", "C", TF)
        post, _ = apply_scheme(post, RevocationRequest(Scheme.WLD, "A", "E"))
        back, _ = undo_negative(post, "A", "B")
        assert validate_connectivity(back) == []
        assert ("A", "B") not in back.negative_by_pair

    @pytest.mark.parametrize("handed", [False, True])
    def test_undo_lifts_a_document_label_of_the_same_key(self, handed):
        # A document label may name a sequence the state has not reached yet.
        # The scheme that runs at that time issues the same label, and its
        # undo lifts everything carrying it, whether the pre-state scans its
        # labels or is handed them by the grant before.
        state = AuthorizationState(
            soa="A",
            principals=frozenset("ABCD"),
            positive=tuple(PositiveAuth(g, k, TT) for g, k in ("AB", "AC", "CD")),
            negative=(NegativeAuth("C", "D", RevocationLabel("A", "B", 1)),),
            time=0 if handed else 1,
        )
        if handed:  # a grant hands on the index its pre-state has built
            state.labelled
            state, _ = grant(state, "A", "D", TF)
            assert "labelled" in state.__dict__
        negated, _ = apply_scheme(state, RevocationRequest(Scheme.WGN, "A", "B"))
        assert negated.negative_by_pair[("A", "B")].label == RevocationLabel("A", "B", 1)
        back, _ = undo_negative(negated, "A", "B")
        assert ("C", "D") not in back.negative_by_pair
        assert back.negative_by_pair == {} and edges(back) == edges(state)


class TestCorrespondence:
    """Delete and negative flavours agree on label-free acyclic states.

    Comparison: active positive edges after the negative scheme versus all
    positive edges after the delete scheme, as (grantor, grantee, kind)
    triples.  Cyclic states genuinely diverge (see the regression below), so
    the property is scoped to acyclic inputs.
    """

    PAIRS = [
        (Scheme.WLD, Scheme.WLN),
        (Scheme.WGD, Scheme.WGN),
        (Scheme.SLD, Scheme.SLN),
        (Scheme.SGD, Scheme.SGN),
    ]

    @staticmethod
    def active_edges(state):
        act = reachable_active(state)
        return {
            (a.grantor, a.grantee, a.kind.name)
            for a in state.positive
            if a.grantor in act and a.pair not in state.negative_by_pair
        }

    def test_on_randomized_acyclic_states(self):
        rng = random.Random(0xC0FFEE)
        checked = 0
        for _ in range(400):
            state = generators.random_acyclic_negative_free(rng)
            edge = generators.random_edge(rng, state)
            if edge is None:
                continue
            request_pair = (edge.grantor, edge.grantee)
            for flag in (True, False):
                config = EngineConfig(sgd_descendant_dominance=flag)
                for delete_scheme, negative_scheme in self.PAIRS:
                    deleted, _ = apply_scheme(
                        state, RevocationRequest(delete_scheme, *request_pair), config
                    )
                    negated, _ = apply_scheme(
                        state, RevocationRequest(negative_scheme, *request_pair), config
                    )
                    assert self.active_edges(negated) == edges(deleted), (
                        f"{delete_scheme.name}/{negative_scheme.name} diverged on "
                        f"{edges(state)} revoking {request_pair}"
                    )
                    checked += 1
        assert checked >= 800

    def test_cycle_divergence_is_real(self):
        # through a cycle the negative flavour can re-activate the target's
        # still-present grants; the delete flavour removed them for good
        state = new_state("A", ["A", "B", "C"])
        for grantor, grantee in [("A", "B"), ("B", "C"), ("C", "B")]:
            state, _ = grant(state, grantor, grantee, TT)
        deleted, _ = apply_scheme(state, RevocationRequest(Scheme.WLD, "A", "B"))
        negated, _ = apply_scheme(state, RevocationRequest(Scheme.WLN, "A", "B"))
        assert edges(deleted) == {("A", "C", "TT"), ("C", "B", "TT")}
        assert self.active_edges(negated) == edges(deleted) | {("B", "C", "TT")}


class TestTimeline:
    def test_dispatch_all_operation_kinds(self, empty_six):
        timeline = Timeline(initial=empty_six)
        for op in (
            GrantOp("A", "B", TT),
            GrantOp("B", "C", TT),
            NegativeOp("B", "C"),
            RevokeOp(Scheme.WGN, "A", "B"),
            UndoOp("A", "B"),
        ):
            timeline = apply_operation(timeline, op)
        assert len(timeline.steps) == 5
        assert timeline.current.time == 5
        assert blocks(timeline.current) == {("B", "C")}

    def test_failing_operation_leaves_timeline_alone(self, empty_six):
        timeline = Timeline(initial=empty_six)
        with pytest.raises(AuthGraphError):
            apply_operation(timeline, RevokeOp(Scheme.WLD, "A", "B"))
        assert timeline.steps == ()
        assert timeline.current is empty_six

    def test_unknown_operation_type(self, empty_six):
        with pytest.raises(TypeError):
            apply_operation(Timeline(initial=empty_six), object())

    def test_delta_reconstructs_post_state(self, revocation_base):
        for scheme in Scheme:
            post, delta = apply_scheme(revocation_base, RevocationRequest(scheme, "A", "B"))
            rebuilt_pos = (set(revocation_base.positive) - set(delta.deleted_positive)) | set(
                delta.issued_positive
            )
            rebuilt_neg = (set(revocation_base.negative) - set(delta.deleted_negative)) | set(
                delta.issued_negative
            )
            assert rebuilt_pos == set(post.positive)
            assert rebuilt_neg == set(post.negative)


def _canonical(entry):
    label = entry.label
    if label is not None:
        kind = None if label.restores_kind is None else label.restores_kind.name
        label = (label.root_grantor, label.root_grantee, label.sequence, kind, label.restores_blocked)
    kind = getattr(entry, "kind", None)
    return repr((entry.grantor, entry.grantee, None if kind is None else kind.name, label))


def _outcome(step):
    """Text for one operation's result: the post-state and its delta, or the error's class."""
    try:
        post, delta = step()
    except AuthGraphError as exc:
        return type(exc).__name__, None
    parts = [serialize_state(post)]
    for entries in (
        delta.deleted_positive,
        delta.deleted_negative,
        delta.issued_positive,
        delta.issued_negative,
    ):
        parts.append("\n".join(sorted(map(_canonical, entries))))
    return "\f".join(parts), post


# One SHA-256 per (scheme, sgd_descendant_dominance) over every edge of 1 000
# seeded states: the post-state, the delta and, for the negative schemes, the
# undo of the revocation.  The states are grown with `grant` and
# `issue_negative`, so a change to those or to the generator moves every digest.
SCHEME_DIGESTS = {
    (Scheme.WLD, True): "6acb16c4edadad12219b2261a21fe676b6e9862d0d11ba495e96bb6a6d8c5f39",
    (Scheme.WLD, False): "6acb16c4edadad12219b2261a21fe676b6e9862d0d11ba495e96bb6a6d8c5f39",
    (Scheme.WGD, True): "bbff37b9da2e83859b88210a37cbb255a570cfa6a50f071297ec689cfde7b640",
    (Scheme.WGD, False): "bbff37b9da2e83859b88210a37cbb255a570cfa6a50f071297ec689cfde7b640",
    (Scheme.SLD, True): "4925a4820fb3a9f23db886570d613c0a842f09cf205a3ae59c3fec5e35de939d",
    (Scheme.SLD, False): "4925a4820fb3a9f23db886570d613c0a842f09cf205a3ae59c3fec5e35de939d",
    (Scheme.SGD, True): "9607880a2726b7beff4682fa85ed5076e80f64339eea2fc7c9652d49d6f7e97b",
    (Scheme.SGD, False): "2ebff55ada0cfc2ac5dc27090fbcab6e3203d727a20bee7525026581649011af",
    (Scheme.WLN, True): "c961ea67d5b660162a37cff01d524b3ec39535980dbf156bb9595aabe863b73d",
    (Scheme.WLN, False): "c961ea67d5b660162a37cff01d524b3ec39535980dbf156bb9595aabe863b73d",
    (Scheme.WGN, True): "85140393a3578d6c6c0404a35c20ff811c74c5fc78bd5c998d185a38585826f2",
    (Scheme.WGN, False): "85140393a3578d6c6c0404a35c20ff811c74c5fc78bd5c998d185a38585826f2",
    (Scheme.SLN, True): "24fefe49ffa902803601d184b8400d044eae10ef181737b322c3f2e29242849f",
    (Scheme.SLN, False): "24fefe49ffa902803601d184b8400d044eae10ef181737b322c3f2e29242849f",
    (Scheme.SGN, True): "b802445ed0947a19b33d526bc007e85d7e87a975471b6105eab614e39310b1d2",
    (Scheme.SGN, False): "f08b35dc7f43be69733fea315b6a1b4316813387b0ee49b5b375c83d0f2ebf95",
}


@pytest.fixture(scope="module")
def digest_states():
    return [generators.random_state(random.Random(seed)) for seed in range(1000)]


class TestSchemeDigests:
    @pytest.mark.parametrize(
        "scheme, flag",
        list(SCHEME_DIGESTS),
        ids=[f"{s.name}-{'descendant' if f else 'target'}" for s, f in SCHEME_DIGESTS],
    )
    def test_exact_outputs_are_pinned(self, digest_states, scheme, flag):
        config = EngineConfig(sgd_descendant_dominance=flag)
        digest = hashlib.sha256()
        for state in digest_states:
            for edge in state.positive:
                i, j = edge.pair
                request = RevocationRequest(scheme, i, j)
                text, post = _outcome(lambda: apply_scheme(state, request, config))
                digest.update(text.encode())
                if post is not None and not scheme.is_delete:
                    undone, _ = _outcome(lambda: undo_negative(post, i, j))
                    digest.update(undone.encode())
        assert digest.hexdigest() == SCHEME_DIGESTS[scheme, flag], (
            f"{scheme.name} with sgd_descendant_dominance={flag} changed its output"
        )
