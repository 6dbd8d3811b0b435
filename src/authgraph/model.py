"""Immutable value types for ownership-rooted authorization graphs.

A state is a set of principals with one distinguished source of authority
(SOA), a partial map of positive authorizations over ordered principal pairs,
and a set of negative authorizations over ordered pairs.  A positive
authorization is either TT (access plus the right to delegate further) or TF
(access only); a negative authorization FF blocks the positive authorization
on the same pair without deleting it.  All types here are plain immutable
values: operations build new states rather than mutating old ones, which keeps
timelines, undo, and the engine/oracle comparison trivially safe.

A state stores its authorizations as two pair maps, `positive_by_pair` and
`negative_by_pair`, in no particular order.  `positive` and `negative` are
the same entries as tuples sorted by (grantor, grantee), built the first time
something reads them: canonical documents, DOT output and value equality need
that order, so equality of two states is equality of their canonical forms.
The state time is a step counter; it is carried through serialization but
deliberately ignored by `states_equal`.

What a well-formed state is gets decided in one place, the public
constructor: it checks everything it is given, names the offending entry by
its position (`positive[3]: unknown principal 'Z'`), and keeps the pair maps
it checks duplicates with.  `parse_state` checks only the document's shape
and defers to it.  The engine, which derives each state from a valid one,
uses the private trusted path instead and hands it only the pair maps and
its origin (below), from which the state derives every index it inherits.

The pair maps of a lineage are shallow-bound (Baker, "Shallow binding makes
functional arrays fast", 1991; the rerooting of Conchon and Filliâtre's
persistent union-find): each map is a `PairMap`, one version of a dict that
all versions of the lineage share.  The newest version owns the dict; every
older one holds the reverse diff of the pairs it differs on from the next
newer one.  An operation writes only the pairs it touches: it edits an
overlay while its pre-state stays current, and its commit writes the
overlay into the dict and leaves the pre-state the old entries.  Reading an
older version reroots the dict to it, one diff at a time and without
recursion, so every version keeps its own entries, and reads on the current
version stay plain dict lookups.  Indexes are built from a version without
rerooting, and derived through the origin's diff.  Versions that share a
dict must not be read from two threads at once.  Below `_SHARE_MIN_ENTRIES`
entries a map is a dict of its state's own (`_Flat`), which an operation
copies: there a copy costs less than the bookkeeping.  A pickled
state holds plain dicts and unpickles standalone.

Every other index is built lazily from the maps, once per state: the TT
successors by grantor, negatives ignored (`chain_children`), the grantees
by grantor over both maps (`outgoing`), the positive authorizations by
grantee (`incoming`), rooted reachability, plain and active, both searched
over `chain_children` (the active search skips blocked pairs), the grantors
without a plain rooted chain (`orphans`; a repair leaves none), and by label
key (root grantor, root grantee, sequence) the pairs found carrying that
label (`labelled`).  A label the engine issues names its own pairs, those
its operation touched (`RevocationLabel.candidates`), so the label index
only has to name the labels a state was built with, such as a document's.
Reachability is kept as a parent map (`{p: the principal whose TT edge
reaches p in a tree of rooted chains}`, the SOA mapped to None), so the
engine can tell which principals hang below a given tree edge.

An engine state's origin is its pre-state, the pairs the operation touched
and its delta.  Every index it inherits is derived in one place
(`AuthorizationState._derive`) from the origin's, if the origin has built
it: derivation reaches one step back.  A grouped index regroups only the
endpoints of the touched pairs; a reach map is patched by `_recheck`, the
one incremental reachability primitive, which reads the origin's entries
through its diff (`PairMap.peek`) and names the new parent of each
principal it re-admits.  A state of `_DERIVE_MIN_ENTRIES` positive entries
or more keeps its origin and derives on first read; a smaller one rebuilds,
as a full pass costs less there.  The orphans, which every repair reads,
are derived at hand-off at every size, since no later state could reach
back for them; the label index, if the pre-state has built it, is handed on
as it is, since no operation adds a label it would have to name.  A state
drops its origin when an operation takes it as pre-state, so no state holds
more than one predecessor, and a pickled state carries none.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import chain
from typing import Collection, Iterable, Iterator, Mapping

from .errors import ModelError


class cached_property:
    """`functools.cached_property` without the lock it takes on every miss
    before Python 3.12.

    The lock only cost every first use of a per-state index, and it made
    nothing safe: versions of one lineage share their pair maps' dict, so
    states are not read from two threads at once (see the module docstring).
    """

    def __init__(self, func, name: str | None = None) -> None:
        self.func = func
        self.name = name or func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


class _index(cached_property):
    """A per-state index: derived from the state's origin when that has
    built what it takes (`AuthorizationState._derive`), else built by the
    decorated function, as it always is below `_DERIVE_MIN_ENTRIES`."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = None if instance._origin is None else instance._derive(self.name, instance._origin)
        if value is None:
            value = self.func(instance)
        instance.__dict__[self.name] = value
        return value


# Principals are bare non-empty strings; a dedicated wrapper type would buy
# nothing over validating at the state boundary.
Principal = str
# A label's (root grantor, root grantee, sequence): the operation it names.
LabelKey = tuple[Principal, Principal, int]

# Engine states with fewer positive entries than this rebuild their indexes
# instead of deriving them from their pre-state's (see the module docstring).
# On seeded graphs, the first access and independence queries on a fresh
# post-state cost the same both ways between 10 and 16 entries; at 32 they
# took 16 us derived against 25 rebuilt, at 256 17 against 135.
_DERIVE_MIN_ENTRIES = 32

# Maps with fewer entries than this are each a dict of their state's own
# (`_Flat`), which an operation copies; from this size on, the versions of a
# lineage share one dict (`PairMap`).  A shared map's reads are Python calls
# where a copy's are dict lookups, so sharing pays only once the copy costs
# more than the reads.  On seeded graphs (a round of 3 grants, the eight
# schemes and their undos on one pre-state, with a query on each post-state,
# the two ways interleaved in one process on a 2-vCPU VM), sharing made a
# round 12% slower at 32 entries, 10% at 100 and 7% at 300 and 500, and 4%
# faster at 700, 7% at 1 000 and 24% at 2 000.
_SHARE_MIN_ENTRIES = 600


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


_TT = PositiveKind.TT  # a global: enum member lookup is slow in the hot loops below

# For `AuthorizationState._derive`: the indexes negatives do not change.
_PLAIN = frozenset({"chain_children", "plain_reach", "incoming"})


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

    A label the engine issues also carries `candidates`, the pairs its
    operation touched in either map: every pair an entry carrying the label
    can sit on, kept exactly as long as one does.  They are pairs, not
    entries, so a label and the entries carrying it make no reference cycle.
    Equality, hashing and documents ignore them; a label from a document has
    none, and its state's label index names its pairs instead.
    """

    root_grantor: Principal
    root_grantee: Principal
    sequence: int
    restores_kind: PositiveKind | None = None
    restores_blocked: bool = False
    candidates: tuple[Collection, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.root_grantor or not self.root_grantee:
            raise ModelError("label root principals must be non-empty")
        if self.sequence < 0:
            raise ModelError("label sequence must be a natural number")

    @property
    def root(self) -> tuple[Principal, Principal]:
        return (self.root_grantor, self.root_grantee)

    @property
    def key(self) -> LabelKey:
        """The operation this label names; the restored facts aside."""
        return (self.root_grantor, self.root_grantee, self.sequence)


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


class PairMap(Mapping):
    """One version of a pair map: a read-only mapping whose versions share
    one dict (see the module docstring).

    The current version holds the dict (`_data`).  Any other version holds
    the next version toward the current one (`_base`) and its own entries at
    the pairs where the two differ (`_diff`, None where it has no entry);
    pair maps never store None.  Reads reroot the dict to the version read.
    Walks (`iter`, `keys`, `items`, `values`, `copy`) run over a copy, so
    reading another version in the middle of one changes nothing it sees.

    Only `current` reroots, and every read but `peek` and `_flat` goes
    through it.  Index work on a state reroots at most to that state: a
    build reads its version through `_flat`, a derivation its origin's
    through `peek`.  So an operation or a query can hold the dicts of the
    state it works on while it works.
    """

    __slots__ = ("_data", "_base", "_diff")

    def __init__(self, data: dict) -> None:
        self._data: dict | None = data
        self._base: PairMap | None = None
        self._diff: dict | None = None

    def current(self) -> dict:
        """The shared dict, rerooted to this version: valid until another
        version of the lineage is read."""
        data = self._data
        return self._reroot() if data is None else data

    def _reroot(self) -> dict:
        path = []
        node = self
        while node._data is None:
            path.append(node)
            node = node._base
        data = node._data
        for older in reversed(path):
            # Swap the diff's entries with the dict's: the same dict object
            # becomes the newer version's diff.
            diff = older._diff
            for pair, entry in diff.items():
                diff[pair] = data.get(pair)
                if entry is None:
                    del data[pair]
                else:
                    data[pair] = entry
            node._data, node._base, node._diff = None, older, diff
            older._data, older._base, older._diff = data, None, None
            node = older
        return data

    def peek(self, pair: tuple[Principal, Principal]):
        """This version's entry at `pair`, or None, read along the diffs
        without rerooting: one step from an engine state's origin."""
        node = self
        while node._data is None:
            entry = node._diff.get(pair, node)
            if entry is not node:
                return entry
            node = node._base
        return node._data.get(pair)

    def _flat(self) -> dict:
        """This version's entries without rerooting: the dict itself while
        this version is current, else a copy with the diffs applied."""
        path = []
        node = self
        while node._data is None:
            path.append(node)
            node = node._base
        if not path:
            return node._data
        out = node._data.copy()
        for older in reversed(path):
            for pair, entry in older._diff.items():
                if entry is None:
                    del out[pair]
                else:
                    out[pair] = entry
        return out

    def _commit(self, touched: Mapping[tuple[Principal, Principal], object]) -> tuple:
        """The version after the edits `touched` (pair -> new entry, None to
        delete), with the entries they removed and added.

        The edits go into the shared dict, and this version keeps the old
        entries as its diff.  With nothing changed, the version after is
        this one.
        """
        if not touched:
            return self, _NOTHING, _NOTHING
        data = self.current()
        diff, removed, added = _delta(touched, data)
        if not diff:
            return self, _NOTHING, _NOTHING
        for pair in diff:
            new = touched[pair]
            if new is None:
                del data[pair]
            else:
                data[pair] = new
        version = PairMap(data)
        self._data, self._base, self._diff = None, version, diff
        return version, removed, added

    # The reads the engine makes one pair at a time, with `current` inlined.

    def __getitem__(self, pair):
        data = self._data
        return (self._reroot() if data is None else data)[pair]

    def get(self, pair, default=None):
        data = self._data
        return (self._reroot() if data is None else data).get(pair, default)

    def __contains__(self, pair) -> bool:
        data = self._data
        return pair in (self._reroot() if data is None else data)

    def __len__(self) -> int:
        return len(self.current())

    def copy(self) -> dict:
        """This version's entries as a plain dict of their own."""
        return self.current().copy()

    def __iter__(self) -> Iterator:
        return iter(self.copy())

    def keys(self):
        return self.copy().keys()

    def items(self):
        return self.copy().items()

    def values(self):
        return self.copy().values()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        other = other if type(other) is dict else dict(other.items())
        return self.current() == other

    def __repr__(self) -> str:
        return f"PairMap({self.current()!r})"

    def __reduce__(self):
        return PairMap, (self.copy(),)


class _Flat(dict):
    """A pair map below the share cut: a dict of its own, never shared, which
    reads at dict speed and offers what the package reads a `PairMap`
    through.

    An operation edits a copy (`revocation._working`), with `before` the
    dict copied: while the operation runs, the copy records each pair
    written in `touched` as `_Working` does, and `commit` takes the delta;
    the post-state keeps the copy, which nothing writes again.
    """

    __slots__ = ("before", "touched")

    def __setitem__(self, pair, entry) -> None:
        self.touched[pair] = entry
        dict.__setitem__(self, pair, entry)

    def __delitem__(self, pair) -> None:
        dict.__delitem__(self, pair)
        self.touched[pair] = None

    def pop(self, pair, *default):
        if pair in self:
            self.touched[pair] = None
        return dict.pop(self, pair, *default)

    def commit(self) -> tuple:
        """This map as the post-state's, with the entries the edits removed
        and added."""
        before, self.before = self.before, None
        if not self.touched:
            return self, _NOTHING, _NOTHING
        _, removed, added = _delta(self.touched, before)
        return self, removed, added

    def current(self) -> dict:
        return self

    _flat = current
    peek = dict.get

    def __reduce__(self):
        # Not through `__setitem__`, which only a working copy may call.
        return _Flat, (dict(self),)


def _own_map(data: dict) -> PairMap | _Flat:
    """A state's own map of `data`: shared versions from the share cut on."""
    return PairMap(data) if len(data) >= _SHARE_MIN_ENTRIES else _Flat(data)


_NOTHING: frozenset = frozenset()


def _delta(touched: Mapping, before: Mapping) -> tuple[dict, frozenset, frozenset]:
    """The pairs of `touched` (pair -> new entry, None to delete) whose entry
    differs in `before`, each mapped to its entry there (None for none), and
    the entries the edits remove and add: what a commit writes and reports."""
    diff: dict = {}
    removed, added = [], []
    for pair, new in touched.items():
        old = before.get(pair)
        if old is new or (old is not None and new is not None and old == new):
            continue
        diff[pair] = old
        if old is not None:
            removed.append(old)
        if new is not None:
            added.append(new)
    return diff, frozenset(removed), frozenset(added)


_NO_ENTRY = {}.get  # a lookup that finds nothing


@dataclass(frozen=True)
class AuthorizationState:
    """One authorization graph for a fixed (access type, object) pair."""

    soa: Principal
    principals: frozenset[Principal]
    positive: tuple[PositiveAuth, ...]
    negative: tuple[NegativeAuth, ...]
    time: int = 0
    # The ground truth; `positive` and `negative` are sorted from these.
    positive_by_pair: PairMap | _Flat = field(init=False, repr=False, compare=False)
    negative_by_pair: PairMap | _Flat = field(init=False, repr=False, compare=False)

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
            positive=_sorted_entries(positive),
            negative=_sorted_entries(negative),
            positive_by_pair=_own_map(positive),
            negative_by_pair=_own_map(negative),
        )

    @classmethod
    def _trusted(
        cls,
        soa: Principal,
        principals: frozenset[Principal],
        time: int,
        positive_by_pair: PairMap | _Flat,
        negative_by_pair: PairMap | _Flat,
        origin: "tuple[AuthorizationState, Collection, Collection, RevocationDelta] | None" = None,
        repaired: bool = False,
    ) -> "AuthorizationState":
        """Private trusted path for the engine: a state from parts that are
        already valid.

        Nothing is checked or sorted: the caller guarantees everything
        `__post_init__` checks, and that the maps are versions no other
        state edits.
        `positive` and `negative` are sorted from the maps on first read
        (see below the class).  `origin` is the pre-state, the pairs
        touched in its positive and in its negative map, the only pairs on
        which these maps differ from its own, and the `RevocationDelta` of
        the operation.  The pre-state drops its own origin.  The orphans,
        known to be none if `repaired`, are derived here, and the label
        index, if the pre-state has built one, is handed on by reference:
        the labels the operation issues name their own pairs; a state of
        `_DERIVE_MIN_ENTRIES` or more keeps the origin for the others.  An
        operation that repaired nothing must make or unmake no grantor
        without a plain rooted chain, as none of the engine's does: grants
        and plain negatives cut nothing, and a scheme's new pairs start at
        the revoker, a grantor already.
        """
        state = object.__new__(cls)
        state.__dict__.update(
            soa=soa,
            principals=principals,
            time=time,
            positive_by_pair=positive_by_pair,
            negative_by_pair=negative_by_pair,
        )
        if origin is not None:
            built = origin[0].__dict__
            built.pop("_origin", None)
            state.__dict__["orphans"] = _NOTHING if repaired else state._derive("orphans", origin)
            if "labelled" in built:
                state.__dict__["labelled"] = built["labelled"]
            if len(positive_by_pair) >= _DERIVE_MIN_ENTRIES:
                state.__dict__["_origin"] = origin
        return state

    # (pre-state, touched positive pairs, touched negative pairs, delta), kept
    # by a state of `_DERIVE_MIN_ENTRIES` or more until it becomes an origin.
    _origin = None

    def __getstate__(self) -> dict:
        # The origin only saves index work; a pickled state stands alone,
        # with plain dicts for maps.
        fields = dict(self.__dict__)
        fields.pop("_origin", None)
        fields["positive_by_pair"] = self.positive_by_pair.copy()
        fields["negative_by_pair"] = self.negative_by_pair.copy()
        return fields

    def __setstate__(self, fields: dict) -> None:
        fields["positive_by_pair"] = _own_map(fields["positive_by_pair"])
        fields["negative_by_pair"] = _own_map(fields["negative_by_pair"])
        self.__dict__.update(fields)

    # Derived indexes.  States are immutable, so caching per instance is safe.
    # A derived index may share objects with its origin's, so no index is
    # ever mutated.

    @_index
    def chain_children(self) -> Mapping[Principal, tuple[Principal, ...]]:
        """TT successors per principal, negatives ignored (plain chain edges)."""
        return {p: tuple(cs) for p, cs in _tt_adjacency(self.positive_by_pair._flat()).items()}

    @_index
    def plain_reach(self) -> Mapping[Principal, Principal | None]:
        """Principals with a rooted delegation chain, negatives ignored, each
        mapped to its parent in a tree of such chains."""
        return _bfs(self.chain_children, self.soa, ())

    @_index
    def active_reach(self) -> Mapping[Principal, Principal | None]:
        """Principals with an active rooted delegation chain, each mapped to
        its parent in a tree of such chains."""
        return _bfs(self.chain_children, self.soa, self.negative_by_pair._flat())

    @_index
    def incoming(self) -> Mapping[Principal, tuple[PositiveAuth, ...]]:
        """Positive authorizations per grantee, in no particular order."""
        out: dict[Principal, list[PositiveAuth]] = {}
        for auth in self.positive_by_pair._flat().values():
            out.setdefault(auth.grantee, []).append(auth)
        return {p: tuple(auths) for p, auths in out.items()}

    @_index
    def outgoing(self) -> Mapping[Principal, tuple[Principal, ...]]:
        """Grantees per grantor over both pair maps, each pair once."""
        out: dict[Principal, list[Principal]] = {}
        positive, negative = self.positive_by_pair._flat(), self.negative_by_pair._flat()
        for grantor, grantee in chain(
            positive, (pair for pair in negative if pair not in positive)
        ):
            out.setdefault(grantor, []).append(grantee)
        return {p: tuple(grantees) for p, grantees in out.items()}

    def _derive(self, name: str, origin: tuple):
        """The index `name` derived from the `origin`'s, or None if the
        origin has not built what that takes; the orphans always derive.

        A grouped index is the origin's with the endpoints of the touched
        pairs regrouped; a reach map is the origin's less the principals
        `_recheck` finds lost, with the parents it names for those it
        re-admits, and needs the origin's `chain_children` too.  Plain
        indexes look at touched positive pairs only.
        """
        origin, pos_touched, neg_touched, delta = origin
        built = origin.__dict__
        if name == "orphans":
            # Only TT entries change the orphans when the operation repaired
            # nothing (see `_trusted`): a removed or weakened one may cut a
            # chain, a new one may root an orphan.  Only then are the chains
            # rechecked.
            orphans, cut, positive = origin.orphans, False, self.positive_by_pair
            for auth in delta.deleted_positive:
                if auth.kind is _TT:
                    now = positive.get((auth.grantor, auth.grantee))
                    cut |= now is None or now.kind is not _TT
            if not cut and not (orphans and any(auth.kind is _TT for auth in delta.issued_positive)):
                return orphans
            lost, gained, _ = _recheck(origin, positive, (), pos_touched, False)
            grantors = origin.outgoing
            return frozenset(orphans - gained | {p for p in lost if p in grantors})
        if name not in built:
            return None
        # Nothing below reroots (see `PairMap`): these stay this state's.
        positive, negative = self.positive_by_pair.current(), self.negative_by_pair.current()
        plain = name in _PLAIN
        touched = pos_touched if plain else chain(pos_touched, neg_touched)
        if name.endswith("_reach"):
            if "chain_children" not in built:
                return None
            lost, _, parents = _recheck(origin, positive, negative, touched, not plain)
            reach = built[name]
            if not lost and not parents:
                return reach
            reach = dict(reach)
            for p in lost:
                del reach[p]
            reach.update(parents)
            return reach
        if name == "incoming":
            return _regroup(built[name], touched, 1, positive.get)
        if name == "outgoing":

            def current(pair):
                return pair[1] if pair in positive or pair in negative else None

        else:  # chain_children

            def current(pair):
                auth = positive.get(pair)
                return pair[1] if auth is not None and auth.kind is _TT else None

        return _regroup(built[name], touched, 0, current)

    @_index
    def orphans(self) -> frozenset[Principal]:
        """Grantors of some authorization that have no plain rooted chain."""
        reach = self.plain_reach
        return frozenset(p for p in self.outgoing if p not in reach)

    @cached_property
    def labelled(self) -> Mapping[LabelKey, tuple[Collection, ...]]:
        """By label key, the pairs of this state's maps found carrying a
        label under it, as a tuple of pair collections, from one scan.  A
        post-state is handed its pre-state's index as it is, so along a
        lineage the index names the labels of the state that built it, a
        document's, and may name pairs that carry them no more; the labels
        the engine issues name their own (`RevocationLabel.candidates`)."""
        out: dict[LabelKey, list[tuple[Principal, Principal]]] = {}
        for by_pair in (self.positive_by_pair, self.negative_by_pair):
            for pair, entry in by_pair._flat().items():
                if entry.label is not None:
                    out.setdefault(entry.label.key, []).append(pair)
        return {key: (pairs,) for key, pairs in out.items()}

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
            positive=tuple(self.positive_by_pair.values() if positive is None else positive),
            negative=tuple(self.negative_by_pair.values() if negative is None else negative),
            time=self.time if time is None else time,
        )


# A `_trusted` state's `positive` and `negative`: its pair maps, sorted on first
# read and kept.  Set once the decorator has run, which would otherwise take
# them for field defaults.  Not a `__getattr__` fallback: CPython does not
# specialize attribute reads on a class that has one, which slowed every query.
AuthorizationState.positive = cached_property(
    lambda state: _sorted_entries(state.positive_by_pair._flat()), "positive"
)
AuthorizationState.negative = cached_property(
    lambda state: _sorted_entries(state.negative_by_pair._flat()), "negative"
)


def _tt_adjacency(
    by_pair: Mapping[tuple[Principal, Principal], PositiveAuth],
) -> dict[Principal, list[Principal]]:
    """TT successors per grantor in a positive pair map."""
    tt = PositiveKind.TT  # a local: enum member lookup is slow in a loop this hot
    out: dict[Principal, list[Principal]] = {}
    for pair, auth in by_pair.items():
        if auth.kind is tt:
            out.setdefault(pair[0], []).append(pair[1])
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


def _sorted_entries(by_pair: dict[tuple[Principal, Principal], object]) -> tuple:
    """The entries of a pair map as a tuple sorted by pair."""
    return tuple(map(by_pair.__getitem__, sorted(by_pair)))


def _bfs(
    adjacency: Mapping[Principal, Iterable[Principal]],
    start: Principal,
    blocked: Mapping | tuple,
) -> dict[Principal, Principal | None]:
    """Breadth-first reachability from `start` over the edges of `adjacency`
    whose pairs are not in `blocked`, as a parent map: each principal reached
    maps to the one it was first reached from, `start` to None."""
    parent: dict[Principal, Principal | None] = {start: None}
    queue = [start]
    for p in queue:  # the list grows while it is walked: a FIFO without pops
        for q in adjacency.get(p, ()):
            if q not in parent and (p, q) not in blocked:
                parent[q] = p
                queue.append(q)
    return parent


def _recheck(
    state: AuthorizationState,
    pos: Mapping[tuple[Principal, Principal], PositiveAuth],
    neg: Mapping[tuple[Principal, Principal], NegativeAuth],
    touched: Iterable[tuple[Principal, Principal]],
    active: bool,
    avoid: Principal | None = None,
) -> tuple[set[Principal], set[Principal], dict[Principal, Principal]]:
    """Rooted reachability in the maps `pos` and `neg`, which differ from
    the state's only on the `touched` pairs, with `avoid` excised from the
    graph: the principals lost and gained against the state's own plain or
    active reach, and the new parent of each principal it re-admits or gains.

    Mark and recheck: a principal can lose its chain only if it hangs below a
    cut edge of the state's tree of chains (or below `avoid`).  Those subtrees are
    marked; a marked principal is re-admitted by a live TT edge from one that
    kept its chain, and everything a re-admitted principal or a newly live
    edge reaches is rechecked forward.  Both modes walk `chain_children`: a
    tree edge is live in the state, and the forward walk checks each edge's
    liveness in the new maps.  The cost follows the marked region,
    and edits that change no edge's liveness read no index at all.  The
    state's parent map less the lost principals, updated with the returned
    parents, is again a parent map: every parent edge live, every chain of
    parents ending at the SOA.
    """
    # The state's own entries are read only at the touched pairs, through
    # its diffs: it need not be the current version of its maps.
    before, get = state.positive_by_pair.peek, pos.get
    if active:
        blocked_before, blocked = state.negative_by_pair.peek, neg
    else:
        blocked_before, blocked = _NO_ENTRY, ()
    cuts, added = [], {}
    for pair in touched:
        old, new = before(pair), get(pair)
        was = old is not None and old.kind is _TT and blocked_before(pair) is None
        if new is not None and new.kind is _TT and pair not in blocked:
            if not was:
                added.setdefault(pair[0], []).append(pair[1])
        elif was:
            cuts.append(pair)
    if not cuts and not added and avoid is None:
        return set(), set(), {}

    reach = state.active_reach if active else state.plain_reach
    children, parent = state.chain_children, reach.get
    marked = set()
    for g, k in cuts:
        if parent(k) == g:
            marked.add(k)
    if avoid in reach:
        marked.add(avoid)
    if not marked and not added:
        return marked, set(), {}
    stack = list(marked)
    for x in stack:  # grows while walked
        for c in children.get(x, ()):
            if parent(c) == x and c not in marked:
                marked.add(c)
                stack.append(c)

    # Re-admit: a marked principal with a live edge from one that kept its
    # chain, or any principal a newly live edge from such a one reaches.
    regained: dict[Principal, Principal] = {}  # principal -> its new parent
    if marked:
        incoming = state.incoming
        for k in marked:
            if k == avoid:
                continue
            for auth in incoming.get(k, ()):
                g = auth.grantor
                if g in reach and g not in marked:
                    now = get((g, k))
                    if now is not None and now.kind is _TT and (g, k) not in blocked:
                        regained[k] = g
                        break
    for g, grantees in added.items():
        if g in reach and g not in marked:
            for k in grantees:
                if k != avoid and (k not in reach or k in marked):
                    regained[k] = g
    if not regained:
        return marked, set(), regained
    walk = list(regained)
    for x in walk:  # grows while walked
        successors = children.get(x, ())
        if x in added:
            successors = chain(successors, added[x])
        for y in successors:
            if y in regained or y == avoid or (y in reach and y not in marked):
                continue
            now = get((x, y))
            if now is not None and now.kind is _TT and (x, y) not in blocked:
                regained[y] = x
                walk.append(y)
    marked.difference_update(regained)
    gained = {p for p in regained if p not in reach} if added else set()
    return marked, gained, regained


def _regroup(
    index: Mapping[Principal, tuple],
    touched: Iterable[tuple[Principal, Principal]],
    side: int,
    current,
) -> dict[Principal, tuple]:
    """A copy of `index`, a tuple of items per principal, with the items of
    the `touched` pairs replaced by `current(pair)`, or dropped where that is
    None.  Items are filed under a pair's grantor (`side` 0; the item is the
    grantee) or its grantee (`side` 1; the item is a `PositiveAuth`).  Only
    the principals of touched pairs are regrouped."""
    changed: dict[Principal, set[Principal]] = {}
    for pair in touched:
        changed.setdefault(pair[side], set()).add(pair[1 - side])
    out = dict(index)
    for p, others in changed.items():
        if side:
            items = [auth for auth in out.get(p, ()) if auth.grantor not in others]
            fresh = [current((other, p)) for other in others]
        else:
            items = [k for k in out.get(p, ()) if k not in others]
            fresh = [current((p, other)) for other in others]
        items.extend(item for item in fresh if item is not None)
        if items:
            out[p] = tuple(items)
        else:
            out.pop(p, None)
    return out


def new_state(soa: Principal, principals: Iterable[Principal]) -> AuthorizationState:
    """Fresh state at time 0 with no authorizations, hence no orphans and no
    labels: the engine hands every state it derives both indexes, so a
    lineage that starts here never scans for them."""
    state = AuthorizationState(soa=soa, principals=frozenset(principals), positive=(), negative=())
    state.__dict__.update(orphans=frozenset(), labelled={})
    return state


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
