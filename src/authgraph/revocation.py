"""State-transition engine: grants, negatives, the eight revocation schemes, undo.

Scheme names combine three independent axes.  Each axis is one function
below, and `apply_scheme` composes them into all eight schemes:

* Resilience, `_kill`: delete schemes erase a grant permanently; negative
  schemes block it with an FF carrying the operation's label, which a later
  undo can lift.  The label (None for a delete scheme) is the only thing that
  selects this axis.
* Dominance, `_dominate`: strong schemes also kill the grants into a target
  issued by principals whose every active chain runs through the revoker i
  (`model._dependents`: the active reach lost when i is excised, which
  also decides `is_independent` when i lies on j's tree path); weak schemes
  leave other grantors' edges alone.  The grantors of a target come from the
  pre-state's `incoming`, which holds principals, not entries.
* Propagation: local schemes (`_reroot`) touch only authorizations incident
  to the target j, re-rooting j's grants at i.  Global schemes cascade to
  everything that depended on the revoked edge: a blocked edge inactivates
  its dependants by itself, a deleted one through the repair pass below, and
  `_strong_global` repeats dominance at each principal the cascade killed a
  grant into.

Design notes that the code below relies on:

* "Loses her delegation right" for delete cascades is judged on plain rooted
  chains.  Deletion is structural and permanent, so only structural
  disconnection propagates it; principals that are merely blocked by negatives
  keep their (inactive) grants.  On negative-free states this coincides with
  the active-chain reading.
* Local schemes mirror every pre-state-active outgoing grant of j as a grant
  from i once j has no active chain left, so the rights of j's grantees
  survive.  A deleted grant of j that was already inactive is re-rooted
  together with a pairing FF so it stays dead.
* Every operation that deletes edges finishes with a connectivity repair pass
  dropping authorizations whose grantor lost all plain rooted chains; the
  resulting state never carries structurally orphaned authorizations.  Only
  three kinds of grantor can be unrooted: one the operation cut off, one of a
  pair new to the state, and one of the pre-state's own orphans (a document
  may carry them, and so may the post-state of a negative scheme that
  weakened a TT edge; a repair leaves none).
* Every operation edits its pre-state's pair maps through working maps
  (`edit`) and ends with the pre-state's `_after`, which commits them and
  makes the post-state and the delta; both are `model`'s (see there).  The
  operation hands on the one fact only it knows: that a repair ran, which
  leaves no orphans.
* "Who keeps a chain?" is answered by one primitive, `model._recheck`, from
  the pre-state's parent map and the pairs the working maps touched: only
  the tree subtrees under cut edges are rechecked, so no adjacency is
  rebuilt from a working map and the cost follows the region an operation
  affects.
* Negative-scheme additions carry a label identifying the operation.  A
  reissue that has to displace existing unlabelled content on its pair (a kind
  upgrade, or clearing a standing FF so the conveyed right stays live) records
  the displaced facts inside the label; undo restores them instead of simply
  deleting the slot.
* Undo reads only the pairs its label may be on, the union of two
  collections: the label's candidates, the pairs its operation touched
  (`RevocationLabel.candidates`), and the pairs the state's label index
  (`labelled`) names under its key, where the labels of the entries the
  lineage was built with are found.  The public constructor records that
  index, and every operation hands it on as it is, so what undo reads does
  not depend on any earlier read.  A pair a later operation relabels or
  deletes stays a candidate, which undo skips.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from .errors import (
    DowngradeError,
    DuplicateNegativeError,
    InactiveGrantorError,
    MissingAuthorizationError,
    ModelError,
    NothingToUndoError,
    SelfOperationError,
)
from .model import (
    AuthorizationState,
    GrantOp,
    NegativeAuth,
    NegativeOp,
    Operation,
    PositiveAuth,
    PositiveKind,
    Principal,
    RevocationDelta,
    RevocationLabel,
    RevokeOp,
    Scheme,
    UndoOp,
    _check_pair,
    _dependents,
    _recheck,
    _require_principals,
    _Working,
)

Pair = tuple[Principal, Principal]
# An operation's working map: an overlay, or a copy that offers the same (see `model`).
PosMap = NegMap = _Working


@dataclass(frozen=True)
class RevocationRequest:
    """A revocation of scheme `scheme` by `revoker` against `target`."""

    scheme: Scheme
    revoker: Principal
    target: Principal

    def __post_init__(self) -> None:
        _check_pair(self.revoker, self.target)
        if type(self.scheme) is not Scheme:
            raise ModelError(f"revocation scheme must be a Scheme, not {self.scheme!r}")


@dataclass(frozen=True)
class EngineConfig:
    """Behaviour switches shared by the engine and the oracle.

    sgd_descendant_dominance selects how the strong global schemes treat
    dominated edges: True applies the dominance rule at every principal the
    cascade reaches (the full descendant rule), False restricts it to the
    revocation target, turning SGD into WGD-plus-SLD's-target-rule.  It
    must be a bool: both read it by truth value, so the string "false"
    would select the full rule.
    """

    sgd_descendant_dominance: bool = True

    def __post_init__(self) -> None:
        if type(self.sgd_descendant_dominance) is not bool:
            raise ModelError(
                f"sgd_descendant_dominance must be a bool, not {self.sgd_descendant_dominance!r}"
            )


_DEFAULT_CONFIG = EngineConfig()


def _repair(
    state: AuthorizationState, pos: PosMap, neg: NegMap, touched: Iterable[Pair]
) -> set[Principal]:
    """Drop authorizations whose grantor has no plain rooted chain left after
    the edits on the `touched` pairs, and return the grantees of the positive
    ones dropped.

    Such a grantor lost its chain in the edits, or never had one: one of the
    state's own orphans, or a grantor of a pair new to both maps.  One pass
    suffices: edges out of unreachable principals contribute nothing to
    reachability from the SOA, so removing them disconnects nobody else.
    """
    unrooted, gained, _ = _recheck(state, pos, neg, touched, False)
    if state.orphans:
        unrooted |= state.orphans - gained
    before_pos, before_neg = state.positive_by_pair.current(), state.negative_by_pair.current()
    added = []
    for pair in touched:
        if (pair in pos or pair in neg) and pair not in before_pos and pair not in before_neg:
            added.append(pair)
            if pair[0] not in gained and pair[0] not in state.plain_reach:
                unrooted.add(pair[0])
    dropped: set[Principal] = set()
    if not unrooted:
        return dropped
    doomed = [pair for pair in added if pair[0] in unrooted]
    for g in unrooted:
        for k in state.outgoing.get(g, ()):
            doomed.append((g, k))
    for pair in doomed:
        if pair in pos:
            del pos[pair]
            dropped.add(pair[1])
        if pair in neg:
            del neg[pair]
    return dropped


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
    pos = state.positive_by_pair.edit()
    existing = pos.get((grantor, grantee))
    if existing is not None and existing.kind is PositiveKind.TT and kind is PositiveKind.TF:
        raise DowngradeError(
            f"{grantor!r} -> {grantee!r} already delegates; downgrade to access-only refused"
        )
    pos[(grantor, grantee)] = PositiveAuth(grantor, grantee, kind)
    return state._after(pos, None)


def issue_negative(
    state: AuthorizationState, grantor: Principal, grantee: Principal
) -> tuple[AuthorizationState, RevocationDelta]:
    """Issue a plain (unlabelled, hence not undoable) negative authorization."""
    _require_principals(state, grantor, grantee)
    if grantor == grantee:
        raise SelfOperationError(f"{grantor!r} cannot issue a negative against itself")
    if grantor not in state.active_reach:
        raise InactiveGrantorError(f"{grantor!r} has no active rooted delegation chain")
    neg = state.negative_by_pair.edit()
    if (grantor, grantee) in neg:
        raise DuplicateNegativeError(
            f"negative authorization {grantor!r} -> {grantee!r} already present"
        )
    neg[(grantor, grantee)] = NegativeAuth(grantor, grantee)
    return state._after(None, neg)


# Revocation schemes.


def apply_scheme(
    state: AuthorizationState,
    request: RevocationRequest,
    config: EngineConfig | None = None,
) -> tuple[AuthorizationState, RevocationDelta]:
    """Apply one revocation scheme; the pre-state is returned untouched on error."""
    config = config or _DEFAULT_CONFIG
    scheme, i, j = request.scheme, request.revoker, request.target
    _require_principals(state, i, j)
    pos = state.positive_by_pair.edit()
    neg = state.negative_by_pair.edit()
    if (i, j) not in pos:
        raise MissingAuthorizationError(
            f"no positive authorization from {i!r} to {j!r} to revoke"
        )
    label = None
    if not scheme.is_delete:
        if (i, j) in neg:
            raise DuplicateNegativeError(
                f"negative authorization {i!r} -> {j!r} already present"
            )
        touched: set[Pair] = set()  # filled below, when the edits are done
        label = RevocationLabel(i, j, state.time, candidates=touched)

    _kill(pos, neg, (i, j), label)
    if scheme.is_local:
        if scheme.is_strong:
            _dominate(state, pos, neg, _dependents(state, i), (j,), label)
        _reroot(state, pos, neg, i, j, label)
    if scheme.is_strong and not scheme.is_local:
        _strong_global(state, pos, neg, _dependents(state, i), j, label, config)
    elif label is None:  # SGD repairs in every round of its cascade
        _repair(state, pos, neg, pos.touched | neg.touched)
    if label is None:
        return state._after(pos, neg, repaired=True)
    # Pairs only: a label that held the working maps' entries, which carry
    # it, would make a reference cycle that only the garbage collector frees.
    touched.update(pos.touched, neg.touched)
    return state._after(pos, neg)


def _kill(pos: PosMap, neg: NegMap, pair: Pair, label: RevocationLabel | None) -> bool:
    """Resilience: delete the grant on `pair` (no label), or block it with the
    label unless it is already blocked.  True if the grant was killed."""
    if label is None:
        del pos[pair]
    elif pair in neg:
        return False
    else:
        neg[pair] = NegativeAuth(pair[0], pair[1], label)
    return True


def _dominate(
    state: AuthorizationState,
    pos: PosMap,
    neg: NegMap,
    dependents: set[Principal],
    targets: Iterable[Principal],
    label: RevocationLabel | None,
) -> bool:
    """Strong dominance: kill every grant into a target still standing whose
    grantor is not independent of the revoker: inactive, or among its
    `dependents`.  True if anything was killed."""
    active = state.active_reach
    killed = False
    for k in targets:
        for g in state.incoming.get(k, ()):
            if (g in dependents or g not in active) and (g, k) in pos:
                killed |= _kill(pos, neg, (g, k), label)
    return killed


def _reroot(
    state: AuthorizationState,
    pos: PosMap,
    neg: NegMap,
    i: Principal,
    j: Principal,
    label: RevocationLabel | None,
) -> None:
    """Local propagation: once j has no active chain left, re-root j's
    pre-state grants at i.

    Activity is judged after all kills and before any reissue.
    """
    # Only kills have happened so far, so reach can only have shrunk.
    grantees = state.outgoing.get(j, ())
    dropped_neg: list[NegativeAuth] = []
    if (
        (i, j) not in pos
        and j in state.plain_reach
        and j in _recheck(state, pos, neg, pos.touched, False)[0]
    ):
        # Structural loss of j: its own grants disappear with it.
        for k in grantees:
            if (j, k) in pos:
                del pos[(j, k)]
            if (j, k) in neg:
                dropped_neg.append(neg.pop((j, k)))
    elif (
        j in state.active_reach
        and j not in _recheck(state, pos, neg, pos.touched | neg.touched, True)[0]
    ):
        return

    j_was_active = j in state.active_reach
    before, blocked_pre = pos.before, neg.before
    for k in grantees:
        pair = (j, k)
        auth = before.get(pair)
        if auth is None or k == i:
            continue
        if j_was_active and pair not in blocked_pre:
            _merge_reissue(pos, neg, i, k, auth.kind, label)
        elif pair not in pos and (i, k) not in pos:
            # keep the dead grant in existence, and keep it dead
            pos[(i, k)] = PositiveAuth(i, k, auth.kind)
            if (i, k) not in neg:
                neg[(i, k)] = NegativeAuth(i, k)
    for old in dropped_neg:
        k = old.grantee
        if k != i and (i, k) not in pos and (i, k) not in neg:
            neg[(i, k)] = NegativeAuth(i, k)


def _merge_reissue(
    pos: PosMap,
    neg: NegMap,
    i: Principal,
    k: Principal,
    kind: PositiveKind,
    label: RevocationLabel | None,
) -> None:
    """Merge a live reissue of `kind` into (i, k).

    A blocked slot is unblocked and takes exactly the reissued kind: a
    stronger stored kind was conveying nothing and must not leak through.  An
    unblocked slot is upgraded if weaker (dropping any label it carried) and
    left alone if it already covers the kind.  A labelled reissue remembers
    the content it displaced, so undo can put it back instead of vacating the
    slot.
    """
    pair = (i, k)
    existing = pos.get(pair)
    if pair in neg:
        del neg[pair]
        if label is not None:
            label = replace(
                label,
                restores_kind=None if existing is None else existing.kind,
                restores_blocked=True,
            )
    elif existing is not None:
        if existing.kind.covers(kind):
            return
        if label is not None:
            label = replace(label, restores_kind=existing.kind)
    pos[pair] = PositiveAuth(i, k, kind, label)


def _strong_global(
    state: AuthorizationState,
    pos: PosMap,
    neg: NegMap,
    dependents: set[Principal],
    j: Principal,
    label: RevocationLabel | None,
    config: EngineConfig,
) -> None:
    """Strong global propagation: find the principals the operation has killed
    a grant into, dominate those not dominated yet, and repeat until dominance
    kills nothing.

    A delete cascade finds them as j plus the grantees `_repair` dropped; a
    negative one as the grantees of pre-state-active grants now blocked or
    out of a grantor that lost its active chain.  Each principal is dominated
    once: `dependents` is fixed and a cascade only ever deletes or only ever
    blocks, so a second pass over the same grantee would kill nothing.
    """
    active_pre = state.active_reach
    before, blocked_pre = pos.before, neg.before
    killed_into = {j}
    dominated: set[Principal] = set()
    while True:
        if label is None:
            killed_into |= _repair(state, pos, neg, pos.touched | neg.touched)
        else:
            lost = _recheck(state, pos, neg, neg.touched, True)[0]
            killed_into = set()
            for pair in neg.touched:
                if pair in neg and pair[0] in active_pre:
                    if pair in before and pair not in blocked_pre:
                        killed_into.add(pair[1])
            for g in lost:
                for k in state.outgoing.get(g, ()):
                    if (g, k) in before and (g, k) not in blocked_pre:
                        killed_into.add(k)
        if not config.sgd_descendant_dominance:
            killed_into &= {j}
        targets = killed_into - dominated
        dominated |= targets
        if not _dominate(state, pos, neg, dependents, targets, label):
            return


# Undo.


def undo_negative(
    state: AuthorizationState, grantor: Principal, grantee: Principal
) -> tuple[AuthorizationState, RevocationDelta]:
    """Lift a labelled negative revocation rooted at (grantor, grantee).

    Everything still carrying the operation's label is removed; reissues that
    displaced existing content restore it instead of vacating the slot.  Only
    the label's candidates and the pairs the label index names under its key
    are read.  Plain negatives and labels rooted elsewhere are not undoable
    through this pair.
    """
    _require_principals(state, grantor, grantee)
    root = state.negative_by_pair.get((grantor, grantee))
    if root is None or root.label is None or root.label.root != (grantor, grantee):
        raise NothingToUndoError(
            f"no labelled negative revocation rooted at {grantor!r} -> {grantee!r}"
        )
    key = root.label.key
    candidates = set(root.label.candidates).union(state.labelled.get(key, ()))
    pos = state.positive_by_pair.edit()
    neg = state.negative_by_pair.edit()
    before_pos, before_neg = pos.before, neg.before
    restored: list[Pair] = []
    for pair in candidates:
        auth = before_pos.get(pair)
        label = None if auth is None else auth.label
        if label is not None and label.key == key:
            if label.restores_kind is not None:
                pos[pair] = PositiveAuth(auth.grantor, auth.grantee, label.restores_kind)
            else:
                del pos[pair]
            if label.restores_blocked:
                restored.append(pair)
        n = before_neg.get(pair)
        if n is not None and n.label is not None and n.label.key == key:
            del neg[pair]
    for pair in restored:
        if pair not in neg:
            neg[pair] = NegativeAuth(*pair)
    if pos.touched or state.orphans:  # lifting blocks alone cuts no chain
        _repair(state, pos, neg, pos.touched | neg.touched)
    return state._after(pos, neg, repaired=True)


# Timelines.


@dataclass(frozen=True)
class TimelineStep:
    operation: Operation
    delta: RevocationDelta
    state: AuthorizationState


@dataclass(frozen=True)
class Timeline:
    """An initial state plus the ordered operations applied to it."""

    initial: AuthorizationState
    steps: tuple[TimelineStep, ...] = ()

    @property
    def current(self) -> AuthorizationState:
        return self.steps[-1].state if self.steps else self.initial

    def extended(self, step: TimelineStep) -> "Timeline":
        return replace(self, steps=self.steps + (step,))


def apply_step(
    state: AuthorizationState, operation: Operation, config: EngineConfig | None = None
) -> tuple[AuthorizationState, RevocationDelta]:
    """Apply one operation record to a state; the state is unchanged on error."""
    match operation:
        case GrantOp(grantor=g, grantee=e, kind=k):
            return grant(state, g, e, k)
        case NegativeOp(grantor=g, grantee=e):
            return issue_negative(state, g, e)
        case RevokeOp(scheme=s, revoker=r, target=t):
            return apply_scheme(state, RevocationRequest(s, r, t), config)
        case UndoOp(grantor=g, grantee=e):
            return undo_negative(state, g, e)
    raise TypeError(f"unknown operation {operation!r}")


def apply_operation(
    timeline: Timeline, operation: Operation, config: EngineConfig | None = None
) -> Timeline:
    """Append one operation to a timeline; on error the timeline is unchanged."""
    post, delta = apply_step(timeline.current, operation, config)
    return timeline.extended(TimelineStep(operation, delta, post))


__all__ = [
    "EngineConfig",
    "RevocationRequest",
    "Timeline",
    "TimelineStep",
    "apply_operation",
    "apply_scheme",
    "apply_step",
    "grant",
    "issue_negative",
    "undo_negative",
]
