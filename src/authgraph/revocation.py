"""State-transition engine: grants, negatives, the eight revocation schemes, undo.

Scheme names combine three axes.  Propagation: local schemes touch only
authorizations incident to the target j (re-rooting j's grants at the revoker
i), global schemes cascade to everything that depended on the revoked edge.
Dominance: strong schemes also override grants to j issued by principals whose
every active chain runs through the revoker; weak schemes leave other
grantors' edges alone.  Resilience: delete schemes erase edges permanently,
negative schemes add blocking FF marks that a later undo can lift.

Design notes that the code below relies on:

* "Loses her delegation right" for delete cascades is judged on plain rooted
  chains.  Deletion is structural and permanent, so only structural
  disconnection propagates it; principals that are merely blocked by negatives
  keep their (inactive) grants.  On negative-free states this coincides with
  the active-chain reading.
* Local delete schemes mirror every pre-state-active outgoing grant of j that
  the operation killed (deleted or inactivated) as a grant from i, so the
  rights of j's grantees survive.  A deleted grant of j that was already
  inactive is re-rooted together with a pairing FF so it stays dead.
* Every operation that removes edges finishes with a connectivity repair pass
  dropping authorizations whose grantor lost all plain rooted chains; the
  resulting state never carries structurally orphaned authorizations.
* Every operation works on copies of the pre-state's pair maps that record
  each key written or deleted.  The delta and the post-state are built from
  those keys alone: the post-state takes the working maps as its indexes and
  its sorted tuples are the pre-state's with the changed pairs spliced in.
* Negative-scheme additions carry a label identifying the operation.  A
  reissue that has to displace existing unlabelled content on its pair (a kind
  upgrade, or clearing a standing FF so the conveyed right stays live) records
  the displaced facts inside the label; undo restores them instead of simply
  deleting the slot.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, MutableMapping

from .errors import (
    DowngradeError,
    DuplicateNegativeError,
    InactiveGrantorError,
    MissingAuthorizationError,
    NothingToUndoError,
    SelfOperationError,
)
from .model import (
    AuthorizationState,
    EngineConfig,
    GrantOp,
    NegativeAuth,
    NegativeOp,
    Operation,
    PositiveAuth,
    PositiveKind,
    Principal,
    RevocationDelta,
    RevocationLabel,
    RevocationRequest,
    RevokeOp,
    Scheme,
    Timeline,
    TimelineStep,
    UndoOp,
    _bfs,
    _splice,
    _tt_adjacency,
)
from .semantics import _require_principals, reachable_active_avoiding

Pair = tuple[Principal, Principal]
PosMap = MutableMapping[Pair, PositiveAuth]
NegMap = MutableMapping[Pair, NegativeAuth]


class _Working(dict):
    """Working copy of one of a state's pair maps; remembers every key it wrote or deleted.

    The engine mutates these only through item assignment, `del` and `pop`.
    """

    __slots__ = ("touched",)

    def __init__(self, source: Mapping) -> None:
        dict.__init__(self, source)
        self.touched: set[Pair] = set()

    def __setitem__(self, key: Pair, value) -> None:
        self.touched.add(key)
        dict.__setitem__(self, key, value)

    def __delitem__(self, key: Pair) -> None:
        self.touched.add(key)
        dict.__delitem__(self, key)

    def pop(self, key: Pair, *default):
        self.touched.add(key)
        return dict.pop(self, key, *default)


def _reach(
    soa: Principal, pos: Mapping[Pair, PositiveAuth], blocked: Mapping | tuple = ()
) -> frozenset[Principal]:
    """Rooted reachability over a working map's TT edges, skipping `blocked` pairs."""
    return _bfs(_tt_adjacency(pos.values(), blocked), soa)


def _independents(state: AuthorizationState, i: Principal) -> frozenset[Principal]:
    """Principals independent of i: the SOA plus active reach with i excised."""
    return reachable_active_avoiding(state, i) | {state.soa}


def _repair(soa: Principal, pos: PosMap, neg: NegMap) -> set[Principal]:
    """Drop authorizations whose grantor has no plain rooted chain left, and
    return the grantees of the positive ones dropped.

    One pass suffices: edges out of unreachable principals contribute nothing
    to reachability from the SOA, so removing them disconnects nobody else.
    """
    reach = _reach(soa, pos)
    dropped = [p for p in pos if p[0] not in reach]
    for pair in dropped:
        del pos[pair]
    for pair in [p for p in neg if p[0] not in reach]:
        del neg[pair]
    return {grantee for _, grantee in dropped}


def _changes(before: Mapping, after: _Working) -> tuple[dict, frozenset, frozenset]:
    """Each touched pair whose value differs from `before`, mapped to its new
    value or None; plus the values removed and the values added."""
    changes, removed, added = {}, [], []
    for pair in after.touched:
        old, new = before.get(pair), after.get(pair)
        if old is new or (old is not None and new is not None and old == new):
            continue
        changes[pair] = new
        if old is not None:
            removed.append(old)
        if new is not None:
            added.append(new)
    return changes, frozenset(removed), frozenset(added)


def _finish(
    pre: AuthorizationState, pos: _Working, neg: _Working
) -> tuple[AuthorizationState, RevocationDelta]:
    """The post-state and the delta, both from the keys the operation touched."""
    pos_changes, deleted_pos, issued_pos = _changes(pre.positive_by_pair, pos)
    neg_changes, deleted_neg, issued_neg = _changes(pre.negative_by_pair, neg)
    post = AuthorizationState._trusted(
        soa=pre.soa,
        principals=pre.principals,
        positive=_splice(pre.positive, pos_changes, pos),
        negative=_splice(pre.negative, neg_changes, neg),
        time=pre.time + 1,
        positive_by_pair=pos,
        negative_by_pair=neg,
    )
    return post, RevocationDelta(deleted_pos, deleted_neg, issued_pos, issued_neg)


# Elementary operations.


def grant(
    state: AuthorizationState,
    grantor: Principal,
    grantee: Principal,
    kind: PositiveKind,
) -> tuple[AuthorizationState, RevocationDelta]:
    """Issue or upgrade a positive authorization.

    The grantor needs an active rooted chain.  Re-granting an existing pair
    rewrites it in place (clearing any label); downgrading TT to TF is
    rejected, revocation is the only way to lose delegation.
    """
    _require_principals(state, grantor, grantee)
    if grantor == grantee:
        raise SelfOperationError(f"{grantor!r} cannot grant to itself")
    if grantor not in state.active_reach:
        raise InactiveGrantorError(f"{grantor!r} has no active rooted delegation chain")
    existing = state.positive_by_pair.get((grantor, grantee))
    if existing is not None and existing.kind is PositiveKind.TT and kind is PositiveKind.TF:
        raise DowngradeError(
            f"{grantor!r} -> {grantee!r} already delegates; downgrade to access-only refused"
        )
    pos = _Working(state.positive_by_pair)
    pos[(grantor, grantee)] = PositiveAuth(grantor, grantee, kind)
    return _finish(state, pos, _Working(state.negative_by_pair))


def issue_negative(
    state: AuthorizationState, grantor: Principal, grantee: Principal
) -> tuple[AuthorizationState, RevocationDelta]:
    """Issue a plain (unlabelled, hence not undoable) negative authorization."""
    _require_principals(state, grantor, grantee)
    if grantor == grantee:
        raise SelfOperationError(f"{grantor!r} cannot issue a negative against itself")
    if grantor not in state.active_reach:
        raise InactiveGrantorError(f"{grantor!r} has no active rooted delegation chain")
    if (grantor, grantee) in state.negative_by_pair:
        raise DuplicateNegativeError(
            f"negative authorization {grantor!r} -> {grantee!r} already present"
        )
    neg = _Working(state.negative_by_pair)
    neg[(grantor, grantee)] = NegativeAuth(grantor, grantee)
    return _finish(state, _Working(state.positive_by_pair), neg)


# Revocation schemes.


def apply_scheme(
    state: AuthorizationState,
    request: RevocationRequest,
    config: EngineConfig | None = None,
) -> tuple[AuthorizationState, RevocationDelta]:
    """Apply one revocation scheme; the pre-state is returned untouched on error."""
    config = config or EngineConfig()
    i, j = request.revoker, request.target
    _require_principals(state, i, j)
    if (i, j) not in state.positive_by_pair:
        raise MissingAuthorizationError(
            f"no positive authorization from {i!r} to {j!r} to revoke"
        )
    if request.scheme.is_delete:
        return _apply_delete(state, request.scheme, i, j, config)
    if (i, j) in state.negative_by_pair:
        raise DuplicateNegativeError(
            f"negative authorization {i!r} -> {j!r} already present"
        )
    return _apply_negative(state, request.scheme, i, j, config)


def _apply_delete(
    state: AuthorizationState,
    scheme: Scheme,
    i: Principal,
    j: Principal,
    config: EngineConfig,
) -> tuple[AuthorizationState, RevocationDelta]:
    pos = _Working(state.positive_by_pair)
    neg = _Working(state.negative_by_pair)

    del pos[(i, j)]
    if scheme is Scheme.SLD:
        ind = _independents(state, i)
        for pair in [p for p in pos if p[1] == j and p[0] not in ind]:
            del pos[pair]

    if scheme.is_local:
        _local_delete_tail(state, pos, neg, i, j)
    if scheme is Scheme.SGD:
        _strong_global_delete(state, pos, neg, i, j, config)
    else:
        _repair(state.soa, pos, neg)
    return _finish(state, pos, neg)


def _local_delete_tail(
    state: AuthorizationState, pos: PosMap, neg: NegMap, i: Principal, j: Principal
) -> None:
    soa = state.soa
    active_pre = state.active_reach
    blocked_pre = state.negative_by_pair

    # Structural loss of j decides whether its own grants disappear with it.
    j_lost_plain = j in state.plain_reach and j not in _reach(soa, pos)
    deleted_out_neg: list[NegativeAuth] = []
    if j_lost_plain:
        for pair in [p for p in pos if p[0] == j]:
            del pos[pair]
        for pair in [p for p in neg if p[0] == j]:
            deleted_out_neg.append(neg.pop(pair))

    # Re-root j's pre-state grants at i.  Activity is judged after all
    # deletions and before any reissue.
    post_active = _reach(soa, pos, neg)
    for auth in state.positive:
        if auth.grantor != j or auth.grantee == i:
            continue
        k = auth.grantee
        was_active = j in active_pre and auth.pair not in blocked_pre
        deleted = auth.pair not in pos
        if was_active and (deleted or j not in post_active):
            _merge_live_reissue(pos, neg, i, k, auth.kind)
        elif deleted and not was_active and (i, k) not in pos:
            # keep the dead grant in existence, and keep it dead
            pos[(i, k)] = PositiveAuth(i, k, auth.kind)
            if (i, k) not in neg:
                neg[(i, k)] = NegativeAuth(i, k)
    for old in deleted_out_neg:
        k = old.grantee
        if k != i and (i, k) not in pos and (i, k) not in neg:
            neg[(i, k)] = NegativeAuth(i, k)


def _merge_live_reissue(
    pos: PosMap, neg: NegMap, i: Principal, k: Principal, kind: PositiveKind
) -> None:
    """Merge a live reissue into (i, k); delete-scheme reissues are unlabelled.

    Unblocked slot: strongest kind wins (an upgrade drops any label the slot
    carried).  Blocked slot: the FF is cleared so the re-rooted right is
    conveyed, and the slot takes exactly the reissued kind; keeping a stronger
    stored kind would unblock a right k never held through j.
    """
    if (i, k) in neg:
        del neg[(i, k)]
        pos[(i, k)] = PositiveAuth(i, k, kind)
        return
    existing = pos.get((i, k))
    if existing is None or kind.strength > existing.kind.strength:
        pos[(i, k)] = PositiveAuth(i, k, kind)


def _strong_global_delete(
    state: AuthorizationState,
    pos: PosMap,
    neg: NegMap,
    i: Principal,
    j: Principal,
    config: EngineConfig,
) -> None:
    """SGD's cascade: repair, then delete the grants into every principal the
    cascade deleted into from grantors not independent of i, until that
    dominance rule deletes nothing."""
    ind = _independents(state, i)
    deleted_into: set[Principal] = {j}
    while True:
        deleted_into |= _repair(state.soa, pos, neg)
        targets = deleted_into if config.sgd_descendant_dominance else {j}
        dominated = [p for p in pos if p[1] in targets and p[0] not in ind]
        if not dominated:
            return
        for pair in dominated:
            del pos[pair]
            deleted_into.add(pair[1])


def _apply_negative(
    state: AuthorizationState,
    scheme: Scheme,
    i: Principal,
    j: Principal,
    config: EngineConfig,
) -> tuple[AuthorizationState, RevocationDelta]:
    soa = state.soa
    pos = _Working(state.positive_by_pair)
    neg = _Working(state.negative_by_pair)
    active_pre = state.active_reach
    blocked_pre = state.negative_by_pair
    label = RevocationLabel(i, j, sequence=state.time)
    neg[(i, j)] = NegativeAuth(i, j, label)

    if scheme is Scheme.SLN:
        ind = _independents(state, i)
        for pair in [p for p in pos if p[1] == j and p[0] not in ind and p not in neg]:
            neg[pair] = NegativeAuth(pair[0], pair[1], label)
    elif scheme is Scheme.SGN:
        _strong_global_negative(state, pos, neg, i, config, label, active_pre, j)

    if scheme.is_local:
        # Reissues are judged against the state with exactly this operation's
        # negatives added, before any reissue lands.
        act = _reach(soa, pos, neg)
        if j in active_pre and j not in act:
            for auth in state.positive:
                if (
                    auth.grantor == j
                    and auth.grantee != i
                    and auth.pair not in blocked_pre
                ):
                    _merge_labelled_reissue(pos, neg, i, auth.grantee, auth.kind, label)
    return _finish(state, pos, neg)


def _merge_labelled_reissue(
    pos: PosMap,
    neg: NegMap,
    i: Principal,
    k: Principal,
    kind: PositiveKind,
    label: RevocationLabel,
) -> None:
    """Merge an undoable reissue into (i, k), recording displaced content.

    A fresh slot takes the label as-is.  A blocked slot is unblocked and takes
    exactly the reissued kind (a stronger stored kind was conveying nothing
    and must not leak through); an unblocked weaker slot is upgraded.  Either
    way the label remembers what was displaced so undo can put it back.  An
    unblocked slot already covering the reissued kind stays untouched.
    """
    pair = (i, k)
    existing = pos.get(pair)
    if pair in neg:
        del neg[pair]
        pos[pair] = PositiveAuth(
            i,
            k,
            kind,
            replace(
                label,
                restores_kind=None if existing is None else existing.kind,
                restores_blocked=True,
            ),
        )
        return
    if existing is None:
        pos[pair] = PositiveAuth(i, k, kind, label)
    elif kind.strength > existing.kind.strength:
        pos[pair] = PositiveAuth(i, k, kind, replace(label, restores_kind=existing.kind))


def _strong_global_negative(
    state: AuthorizationState,
    pos: PosMap,
    neg: NegMap,
    i: Principal,
    config: EngineConfig,
    label: RevocationLabel,
    active_pre: frozenset[Principal],
    j: Principal,
) -> None:
    soa = state.soa
    ind = _independents(state, i)
    blocked_pre = state.negative_by_pair
    while True:
        changed = False
        act = _reach(soa, pos, neg)
        targets: set[Principal] = set()
        for auth in state.positive:
            was_active = auth.pair not in blocked_pre and auth.grantor in active_pre
            now_dead = auth.pair in neg or auth.grantor not in act
            if was_active and now_dead:
                targets.add(auth.grantee)
        if not config.sgd_descendant_dominance:
            targets &= {j}
        for auth in state.positive:
            if auth.grantee in targets and auth.grantor not in ind and auth.pair not in neg:
                neg[auth.pair] = NegativeAuth(auth.grantor, auth.grantee, label)
                changed = True
        if not changed:
            return


# Undo.


def undo_negative(
    state: AuthorizationState, grantor: Principal, grantee: Principal
) -> tuple[AuthorizationState, RevocationDelta]:
    """Lift a labelled negative revocation rooted at (grantor, grantee).

    Everything still carrying the operation's label is removed; reissues that
    displaced existing content restore it instead of vacating the slot.  Plain
    negatives and labels rooted elsewhere are not undoable through this pair.
    """
    _require_principals(state, grantor, grantee)
    root = state.negative_by_pair.get((grantor, grantee))
    if root is None or root.label is None or root.label.root != (grantor, grantee):
        raise NothingToUndoError(
            f"no labelled negative revocation rooted at {grantor!r} -> {grantee!r}"
        )
    key = (root.label.root_grantor, root.label.root_grantee, root.label.sequence)

    def is_ours(lab: RevocationLabel | None) -> bool:
        return lab is not None and (lab.root_grantor, lab.root_grantee, lab.sequence) == key

    pos = _Working(state.positive_by_pair)
    neg = _Working(state.negative_by_pair)
    restored: list[NegativeAuth] = []
    for auth in state.positive:
        if auth.label is None or not is_ours(auth.label):
            continue
        if auth.label.restores_kind is not None:
            pos[auth.pair] = PositiveAuth(auth.grantor, auth.grantee, auth.label.restores_kind)
        else:
            del pos[auth.pair]
        if auth.label.restores_blocked:
            restored.append(NegativeAuth(auth.grantor, auth.grantee))
    for n in state.negative:
        if is_ours(n.label):
            del neg[n.pair]
    for n in restored:
        if n.pair not in neg:
            neg[n.pair] = n
    _repair(state.soa, pos, neg)
    return _finish(state, pos, neg)


# Timelines.


def apply_operation(
    timeline: Timeline, operation: Operation, config: EngineConfig | None = None
) -> Timeline:
    """Append one operation to a timeline; on error the timeline is unchanged."""
    state = timeline.current
    match operation:
        case GrantOp(grantor=g, grantee=e, kind=k):
            post, delta = grant(state, g, e, k)
        case NegativeOp(grantor=g, grantee=e):
            post, delta = issue_negative(state, g, e)
        case RevokeOp(scheme=s, revoker=r, target=t):
            post, delta = apply_scheme(state, RevocationRequest(s, r, t), config)
        case UndoOp(grantor=g, grantee=e):
            post, delta = undo_negative(state, g, e)
        case _:
            raise TypeError(f"unknown operation {operation!r}")
    return timeline.extended(TimelineStep(operation, delta, post))


__all__ = [
    "apply_operation",
    "apply_scheme",
    "grant",
    "issue_negative",
    "undo_negative",
]
