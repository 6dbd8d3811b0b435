"""Immutable value types for ownership-rooted authorization graphs.

A state is a set of principals with one distinguished source of authority
(SOA), a partial map of positive authorizations over ordered principal pairs,
and a set of negative authorizations over ordered pairs.  A positive
authorization is either TT (access plus the right to delegate further) or TF
(access only); a negative authorization FF blocks the positive authorization
on the same pair without deleting it.  All types here are plain immutable
values: operations build new states rather than mutating old ones, which keeps
timelines, undo, and the engine/oracle comparison trivially safe.

Positive and negative authorizations are stored as tuples sorted by
(grantor, grantee), so value equality of two states is equality of their
canonical forms.  The state time is a step counter; it is carried through
serialization but deliberately ignored by `states_equal`.

What a well-formed state is gets decided in one place, the public
constructor: it checks everything it is given, names the offending entry by
its position (`positive[3]: unknown principal 'Z'`), and sorts through the
pair maps it keeps as indexes.  `parse_state` checks only the document's
shape and defers to it.  The engine, which derives each state from a valid
one, uses the private trusted path instead and splices the pairs an operation
changed into the parent state's sorted tuples.  Adjacency, rooted
reachability and the grantee index are built lazily, once per state.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Mapping

from .errors import ModelError


class cached_property:
    """`functools.cached_property` without the lock it takes on every miss
    before Python 3.12.

    States are immutable, so two threads racing on a miss compute equal
    values; the lock only cost every first use of a per-state index.
    """

    def __init__(self, func) -> None:
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


# Principals are bare non-empty strings; a dedicated wrapper type would buy
# nothing over validating at the state boundary.
Principal = str


class PositiveKind(Enum):
    """Kind of a positive authorization: TT delegates, TF grants access only."""

    TT = "TT"
    TF = "TF"

    @property
    def strength(self) -> int:
        return 2 if self is PositiveKind.TT else 1

    def covers(self, other: "PositiveKind") -> bool:
        """True if an edge of this kind conveys at least what `other` does."""
        return self.strength >= other.strength


class Scheme(Enum):
    """The eight revocation schemes: propagation x dominance x resilience."""

    WLD = "WLD"
    WGD = "WGD"
    SLD = "SLD"
    SGD = "SGD"
    WLN = "WLN"
    WGN = "WGN"
    SLN = "SLN"
    SGN = "SGN"

    def __init__(self, letters: str) -> None:
        # One flag per letter, read once: the engine asks on every application.
        self.is_strong = letters[0] == "S"
        self.is_local = letters[1] == "L"
        self.is_delete = letters[2] == "D"


@dataclass(frozen=True)
class RevocationLabel:
    """Identity of the negative-revocation operation that issued an item.

    The root pair plus the sequence number (the state time at which the
    operation ran) identify the operation; undo removes everything still
    carrying its label.  When a reissue displaced existing unlabelled content
    on its pair (upgraded a TF edge, or cleared a standing FF), the displaced
    facts ride along so undo can restore them instead of deleting the slot.
    """

    root_grantor: Principal
    root_grantee: Principal
    sequence: int
    restores_kind: PositiveKind | None = None
    restores_blocked: bool = False

    def __post_init__(self) -> None:
        if not self.root_grantor or not self.root_grantee:
            raise ModelError("label root principals must be non-empty")
        if self.sequence < 0:
            raise ModelError("label sequence must be a natural number")

    @property
    def root(self) -> tuple[Principal, Principal]:
        return (self.root_grantor, self.root_grantee)


@dataclass(frozen=True)
class PositiveAuth:
    """A positive authorization from grantor to grantee."""

    grantor: Principal
    grantee: Principal
    kind: PositiveKind
    label: RevocationLabel | None = None

    def __post_init__(self) -> None:
        _check_pair(self.grantor, self.grantee)

    @property
    def pair(self) -> tuple[Principal, Principal]:
        return (self.grantor, self.grantee)


@dataclass(frozen=True)
class NegativeAuth:
    """A negative authorization (FF) from grantor to grantee."""

    grantor: Principal
    grantee: Principal
    label: RevocationLabel | None = None

    def __post_init__(self) -> None:
        _check_pair(self.grantor, self.grantee)

    @property
    def pair(self) -> tuple[Principal, Principal]:
        return (self.grantor, self.grantee)


def _check_pair(grantor: Principal, grantee: Principal) -> None:
    if not grantor or not grantee:
        raise ModelError("principal ids must be non-empty")
    if grantor == grantee:
        raise ModelError(f"self-authorization {grantor!r} -> {grantee!r} is not allowed")


@dataclass(frozen=True)
class AuthorizationState:
    """One authorization graph for a fixed (access type, object) pair."""

    soa: Principal
    principals: frozenset[Principal]
    positive: tuple[PositiveAuth, ...]
    negative: tuple[NegativeAuth, ...]
    time: int = 0

    def __post_init__(self) -> None:
        if not self.soa:
            raise ModelError("state: SOA id must be non-empty")
        for p in self.principals:
            if not isinstance(p, str) or not p:
                raise ModelError("state: principal ids must be non-empty strings")
        if self.soa not in self.principals:
            raise ModelError(f"state: SOA {self.soa!r} missing from principals")
        if self.time < 0:
            raise ModelError("state time must be a natural number")
        positive = _pair_map("positive", "authorization", self.positive, self.principals)
        negative = _pair_map("negative", "negative authorization", self.negative, self.principals)
        self.__dict__.update(
            positive=tuple(map(positive.__getitem__, sorted(positive))),
            negative=tuple(map(negative.__getitem__, sorted(negative))),
            positive_by_pair=positive,
            negative_by_pair=negative,
        )

    @classmethod
    def _trusted(cls, **fields: object) -> "AuthorizationState":
        """Private trusted path for the engine: a state from parts that are
        already valid.

        `fields` are the five dataclass fields plus the `positive_by_pair` and
        `negative_by_pair` indexes.  Nothing is checked or sorted: the caller
        guarantees everything `__post_init__` checks, that both tuples are
        sorted by pair, and that the maps index exactly those tuples and are
        never mutated again.
        """
        state = object.__new__(cls)
        state.__dict__.update(fields)
        return state

    # Derived indexes.  States are immutable, so caching per instance is safe;
    # nothing is ever reused across distinct states.

    @cached_property
    def positive_by_pair(self) -> Mapping[tuple[Principal, Principal], PositiveAuth]:
        return {auth.pair: auth for auth in self.positive}

    @cached_property
    def negative_by_pair(self) -> Mapping[tuple[Principal, Principal], NegativeAuth]:
        return {neg.pair: neg for neg in self.negative}

    @cached_property
    def negative_pairs(self) -> frozenset[tuple[Principal, Principal]]:
        return frozenset(self.negative_by_pair)

    @cached_property
    def chain_children(self) -> Mapping[Principal, tuple[Principal, ...]]:
        """TT successors per principal, negatives ignored (plain chain edges)."""
        return {p: tuple(cs) for p, cs in _tt_adjacency(self.positive, ()).items()}

    @cached_property
    def active_children(self) -> Mapping[Principal, tuple[Principal, ...]]:
        """TT successors per principal with FF-blocked pairs removed."""
        blocked = self.negative_by_pair
        return {p: tuple(cs) for p, cs in _tt_adjacency(self.positive, blocked).items()}

    @cached_property
    def plain_reach(self) -> frozenset[Principal]:
        """Principals with a rooted delegation chain, negatives ignored."""
        return _bfs(self.chain_children, self.soa)

    @cached_property
    def active_reach(self) -> frozenset[Principal]:
        """Principals with an active rooted delegation chain."""
        return _bfs(self.active_children, self.soa)

    @cached_property
    def incoming(self) -> Mapping[Principal, tuple[PositiveAuth, ...]]:
        """Positive authorizations per grantee, in pair order."""
        out: dict[Principal, list[PositiveAuth]] = {}
        for auth in self.positive:
            out.setdefault(auth.grantee, []).append(auth)
        return {p: tuple(auths) for p, auths in out.items()}

    def replace_authorizations(
        self,
        positive: Iterable[PositiveAuth] | None = None,
        negative: Iterable[NegativeAuth] | None = None,
        time: int | None = None,
    ) -> "AuthorizationState":
        """Build a new state with the given edge sets through the public,
        validating constructor (the engine derives its states without it)."""
        return AuthorizationState(
            soa=self.soa,
            principals=self.principals,
            positive=tuple(positive) if positive is not None else self.positive,
            negative=tuple(negative) if negative is not None else self.negative,
            time=self.time if time is None else time,
        )


def _tt_adjacency(
    positive: Iterable[PositiveAuth], blocked: Mapping | tuple
) -> dict[Principal, list[Principal]]:
    """TT successors per grantor, skipping pairs in `blocked`."""
    tt = PositiveKind.TT  # a local: enum member lookup is slow in a loop this hot
    out: dict[Principal, list[Principal]] = {}
    for auth in positive:
        if auth.kind is tt and (auth.grantor, auth.grantee) not in blocked:
            out.setdefault(auth.grantor, []).append(auth.grantee)
    return out


def _pair_map(
    field: str, noun: str, entries: Iterable[PositiveAuth | NegativeAuth], principals: frozenset
) -> dict[tuple[Principal, Principal], PositiveAuth | NegativeAuth]:
    """`entries` by pair; each endpoint must be a principal and each pair unique.

    A fault names the entry by its position in `entries`.
    """
    by_pair: dict = {}
    for index, entry in enumerate(entries):
        pair = grantor, grantee = entry.grantor, entry.grantee
        if grantor not in principals or grantee not in principals:
            unknown = grantor if grantor not in principals else grantee
            raise ModelError(f"{field}[{index}]: unknown principal {unknown!r}")
        if pair in by_pair:
            raise ModelError(f"{field}[{index}]: duplicate {noun} {grantor!r} -> {grantee!r}")
        by_pair[pair] = entry
    return by_pair


def _pair_key(auth: PositiveAuth | NegativeAuth) -> tuple[Principal, Principal]:
    return (auth.grantor, auth.grantee)


# A change set at least this share of the entries is sorted afresh, which
# then costs less than a binary search per changed pair.
_RESORT_SHARE = 8


def _splice(
    entries: tuple, changes: Mapping[tuple[Principal, Principal], object], current: Mapping
) -> tuple:
    """The sorted tuple of `current`, the pair map that `entries` became.

    `changes` maps each pair whose value changed to its new value, or None
    when it was removed.  Few changes are spliced into `entries`: one binary
    search per changed pair, resuming where the last one ended, and slice
    copies of the unchanged runs in between.
    """
    if not changes:
        return entries
    if len(changes) * _RESORT_SHARE >= len(entries):
        return tuple(map(current.__getitem__, sorted(current)))
    out: list = []
    start = 0
    for pair in sorted(changes):
        at = bisect_left(entries, pair, start, key=_pair_key)
        out.extend(entries[start:at])
        start = at
        if at < len(entries) and _pair_key(entries[at]) == pair:
            start += 1  # the pair's old entry is replaced or dropped
        if changes[pair] is not None:
            out.append(changes[pair])
    out.extend(entries[start:])
    return tuple(out)


def _bfs(
    adjacency: Mapping[Principal, Iterable[Principal]],
    start: Principal,
    avoid: Principal | None = None,
) -> frozenset[Principal]:
    """Worklist reachability from `start`, with `avoid` excised from the graph."""
    if start == avoid:
        return frozenset()
    seen = {start}
    queue = deque((start,))
    while queue:
        p = queue.popleft()
        for q in adjacency.get(p, ()):
            if q != avoid and q not in seen:
                seen.add(q)
                queue.append(q)
    return frozenset(seen)


def new_state(soa: Principal, principals: Iterable[Principal]) -> AuthorizationState:
    """Fresh state at time 0 with no authorizations."""
    return AuthorizationState(soa=soa, principals=frozenset(principals), positive=(), negative=())


def states_equal(a: AuthorizationState, b: AuthorizationState) -> bool:
    """Value equality on SOA, principals, and both edge sets; time is ignored."""
    return (
        a.soa == b.soa
        and a.principals == b.principals
        and a.positive == b.positive
        and a.negative == b.negative
    )


@dataclass(frozen=True)
class RevocationRequest:
    """A revocation of scheme `scheme` by `revoker` against `target`."""

    scheme: Scheme
    revoker: Principal
    target: Principal

    def __post_init__(self) -> None:
        _check_pair(self.revoker, self.target)


@dataclass(frozen=True)
class EngineConfig:
    """Behaviour switches shared by the engine and the oracle.

    sgd_descendant_dominance selects how the strong global schemes treat
    dominated edges: True applies the dominance rule at every principal the
    cascade reaches (the full descendant rule), False restricts it to the
    revocation target, turning SGD into WGD-plus-SLD's-target-rule.
    """

    sgd_descendant_dominance: bool = True


@dataclass(frozen=True)
class RevocationDelta:
    """Exact difference an operation made, as removed and added authorizations.

    An in-place change (kind upgrade, relabel) appears as a delete of the old
    value plus an issue of the new one.  Deleted items are always present in
    the pre-state; issued items are always present in the post-state.
    """

    deleted_positive: frozenset[PositiveAuth] = frozenset()
    deleted_negative: frozenset[NegativeAuth] = frozenset()
    issued_positive: frozenset[PositiveAuth] = frozenset()
    issued_negative: frozenset[NegativeAuth] = frozenset()

    def __post_init__(self) -> None:
        if self.deleted_positive & self.issued_positive:
            raise ModelError("delta issues and deletes the same positive value")
        if self.deleted_negative & self.issued_negative:
            raise ModelError("delta issues and deletes the same negative value")


# Operation records, used by timelines and trace files.


@dataclass(frozen=True)
class GrantOp:
    grantor: Principal
    grantee: Principal
    kind: PositiveKind


@dataclass(frozen=True)
class NegativeOp:
    grantor: Principal
    grantee: Principal


@dataclass(frozen=True)
class RevokeOp:
    scheme: Scheme
    revoker: Principal
    target: Principal


@dataclass(frozen=True)
class UndoOp:
    grantor: Principal
    grantee: Principal


Operation = GrantOp | NegativeOp | RevokeOp | UndoOp


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


__all__ = [
    "AuthorizationState",
    "EngineConfig",
    "GrantOp",
    "NegativeAuth",
    "NegativeOp",
    "Operation",
    "PositiveAuth",
    "PositiveKind",
    "Principal",
    "RevocationDelta",
    "RevocationLabel",
    "RevocationRequest",
    "RevokeOp",
    "Scheme",
    "Timeline",
    "TimelineStep",
    "UndoOp",
    "new_state",
    "states_equal",
]
