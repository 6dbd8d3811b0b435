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
constructor: it checks everything it is given, names the offending entry or
principal by its position (`positive[3]: unknown principal 'Z'`), and keeps
the pair maps it checks duplicates with.  Every state it accepts writes a
document that parses back to it.  Entries and labels are plain records
that check nothing themselves, and `parse_state` checks only the
document's shape and defers to the constructor.  The engine, which derives each state from a
valid one, makes its states through `AuthorizationState._after` instead
(below), which checks nothing.

The pair maps of a lineage are shallow-bound (Baker, "Shallow binding makes
functional arrays fast", 1991; the rerooting of Conchon and Filliâtre's
persistent union-find): each map is a `PairMap`, one version of a dict that
all versions of the lineage share.  The newest version owns the dict; every
older one holds the reverse diff of the pairs it differs on from the next
newer one.  Reading an older version reroots the dict to it, one diff at a
time and without recursion, so every version keeps its own entries, and
reads on the current version stay plain dict lookups.  Indexes are built
from a version without rerooting, and derived through the diffs since their
source.  Versions that share a dict must not be read from two threads at
once.  Below `_SHARE_MIN_ENTRIES` entries a map is a dict of its state's own
(`_Flat`): there a copy costs less than the bookkeeping.  A pickled state
holds plain dicts and unpickles standalone.

An operation's edits have one owner here, from its first write to its
post-state.  It edits each pair map through the working map that map's
`edit` returns: an overlay (`_Working`) over a shared version, or below the
share cut a copy.  Either records each pair written or deleted.  The
pre-state stays current and unchanged until the commit, so a failing
operation has written nothing, and every pre-state read and every pre-state
index first built mid-operation sees the pre-state.  The pre-state's
`_after` then commits each working map: an overlay's edits go into the
shared dict, and the pre-state keeps the old entries as its diff.  The same
loop yields the delta, and `_after` hands the post-state what it inherits.
Above the cut nothing is copied, and nothing is sorted: the engine reads
states only through their pair maps and indexes, never through the sorted
`positive`/`negative` tuples.

Every other fact a state holds has one producer and one hand-off rule:

* `positive`, `negative`: sorted from the maps on first read, on both paths.
* `labelled`, by label key the pairs of the entries carrying that label:
  recorded by the public constructor as it builds its maps, and handed on
  as it is to every post-state by `_after`.  A label the engine issues
  names its own pairs (`RevocationLabel.candidates`).
* `orphans`, the grantors without a plain rooted chain: found on first read
  (a state without grantors has none, found without a reach search); handed
  to every post-state by `_after`, derived from the pre-state's, or none
  after a repair.
* `chain_children`, the TT successors by grantor, negatives ignored;
  `outgoing`, the grantees by grantor over both maps; `incoming`, the
  grantors by grantee over the positive map; `plain_reach` and
  `active_reach`, rooted reachability over `chain_children` (the active
  search skips blocked pairs): built on first read, or derived from a
  source (below).  Every index holds principals, never entries.  The five
  stay apart: folding `chain_children` into `outgoing` made the first WLD
  on the 10^5-principal `bench/gen.py` graph take 885-951 ms against
  657-816, and `check` 55% longer (2-vCPU VM, Python 3.11).

Reachability is kept as a parent map (`{p: the principal whose TT edge
reaches p in a tree of rooted chains}`, the SOA mapped to None), so the
engine can tell which principals hang below a given tree edge.

An engine state's origin is its pre-state, the pairs the operation touched
and its delta.  Every index of the last bullet is derived in one place
(`AuthorizationState._derive`) from a source: the last state of the lineage
that built the index, with the pairs touched since, kept as the tuple of
each operation's touched collections.  A post-state's source for an index
is its pre-state if that has built the index, else the pre-state's own
source with the operation's pairs added (`_sources`), which costs no index
work; a post-state finds its sources on its first index read, or when an
operation takes it as pre-state.  So derivation reaches back along the
lineage, and an index a few steps skip is still derived, not rebuilt.  A
grouped index regroups only the endpoints of the touched pairs; a reach map
is patched by `_recheck`, the one incremental reachability primitive, which
reads the source's entries through the diffs (`PairMap.peek`) and names
the new parent of each principal it re-admits; its source must have built
`chain_children` too.  A state of `_DERIVE_MIN_ENTRIES` positive entries or
more keeps its sources and derives on first read; a smaller one rebuilds,
as a full pass costs less there.  A source goes once the pairs touched
since it, in either map, are as many as the positive entries: from there on
a rebuild costs no more.  A state drops its sources when an operation
takes it as pre-state, so a source lives until a later state has built its
index and the state after that has found its sources, or until the cut
drops it; a pickled state carries none.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Collection, Iterable, Iterator, Mapping

from .errors import ModelError, UnknownPrincipalError


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
    """A per-state index: derived from its source, an earlier state of the
    lineage (`_sources`, `AuthorizationState._derive`), else built by the
    decorated function, as it always is below `_DERIVE_MIN_ENTRIES`."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        origin = instance._origin
        if type(origin) is tuple:
            origin = instance.__dict__["_origin"] = _sources(*origin)
        source = None if origin is None else origin.get(self.name)
        value = self.func(instance) if source is None else instance._derive(self.name, source)
        instance.__dict__[self.name] = value
        return value


# Principals are bare non-empty strings; a dedicated wrapper type would buy
# nothing over validating at the state boundary.
Principal = str
# A label's (root grantor, root grantee, sequence): the operation it names.
LabelKey = tuple[Principal, Principal, int]

# Engine states with fewer positive entries than this rebuild their indexes
# instead of deriving them from an earlier state's (see the module docstring).
# On seeded graphs, the first access and independence queries on a fresh
# post-state cost the same both ways between 10 and 16 entries; at 32 they
# took 16 us derived against 25 rebuilt, at 256 17 against 135.  With it at
# 0, so that every state derives, `bench/run.py`'s `small-sweep` read
# `query_us_p99` 73% higher and its operations 3-6% higher (4 alternating
# 20-s pairs, seeds 1701-1704, 2-vCPU VM, Python 3.11).
_DERIVE_MIN_ENTRIES = 32

# Maps with fewer entries than this are each a dict of their state's own
# (`_Flat`), which an operation copies; from this size on, the versions of a
# lineage share one dict (`PairMap`).  A shared map's reads are Python calls
# where a copy's are dict lookups, so sharing pays only once the copy costs
# more than the reads.  On seeded graphs (a round of 3 grants, the eight
# schemes and their undos on one pre-state, with a query on each post-state,
# the two ways interleaved in one process on a 2-vCPU VM), sharing made a
# round 12% slower at 32 entries, 10% at 100 and 7% at 300 and 500, and 4%
# faster at 700, 7% at 1 000 and 24% at 2 000.  With it at 0, so that every
# map is shared, `bench/run.py`'s `small-sweep` read its operations 26-47%
# higher and `query_us` 20% higher (4 alternating 20-s pairs, seeds
# 1701-1704, 2-vCPU VM, Python 3.11).
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

    A label checks none of its fields: a state's constructor does, for each
    label its entries carry (`_label_fault`).

    * `key`, the operation a label names (root grantor, root grantee,
      sequence), is set by `__post_init__`, also on unpickling; a pickle
      holds the fields only.
    * `candidates`, of a label the engine issues, is the set of pairs its
      operation touched in either map, filled by `apply_scheme`; every entry
      carrying the label sits on one of them.  Pairs, not entries, so a
      label and its entries make no reference cycle.  Equality, hashing,
      `repr` and documents ignore them; a label from a document has none,
      and the state built with it names its pairs (`labelled`).
    """

    root_grantor: Principal
    root_grantee: Principal
    sequence: int
    restores_kind: PositiveKind | None = None
    restores_blocked: bool = False
    candidates: Collection[tuple[Principal, Principal]] = field(default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
        self.__dict__["key"] = (self.root_grantor, self.root_grantee, self.sequence)

    def __getstate__(self) -> dict:
        return {name: value for name, value in self.__dict__.items() if name != "key"}

    def __setstate__(self, fields: dict) -> None:
        self.__dict__.update(fields)
        self.__post_init__()

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

    @property
    def pair(self) -> tuple[Principal, Principal]:
        return (self.grantor, self.grantee)


@dataclass(frozen=True)
class NegativeAuth:
    """A negative authorization (FF) from grantor to grantee."""

    grantor: Principal
    grantee: Principal
    label: RevocationLabel | None = None

    @property
    def pair(self) -> tuple[Principal, Principal]:
        return (self.grantor, self.grantee)


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
    build reads its version through `_flat`, a derivation its source's
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
        without rerooting: from an index's source, some steps back."""
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

    def edit(self) -> "_Working | _Flat":
        """An operation's working map over this version: an overlay, or
        below the share cut a copy (`_Flat.edit`)."""
        data = self.current()
        return _Working(self) if len(data) >= _SHARE_MIN_ENTRIES else _Flat.edit(data)

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

    An operation edits a copy (`edit`), with `before` the dict copied:
    while the operation runs, the copy records each pair written in
    `touched` as `_Working` does, and `commit` takes the delta; the
    post-state keeps the copy, which nothing writes again, unless the edits
    changed nothing (`_committed`).
    """

    __slots__ = ("before", "touched")

    def edit(self) -> "_Flat | _Working":
        """An operation's working map over this map, or over a `PairMap`'s
        dict below the share cut: a copy, or for a map that has grown to
        the cut an overlay over a copy, shared from then on."""
        if len(self) >= _SHARE_MIN_ENTRIES:
            return _Working(PairMap(self.copy()))
        copy = _Flat(self)
        copy.before, copy.touched = self, {}
        return copy

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
        _, removed, added = _delta(self.touched, before)
        return self, removed, added

    def current(self) -> dict:
        return self

    _flat = current
    peek = dict.get

    def __reduce__(self):
        # Not through `__setitem__`, which only a working copy may call.
        return _Flat, (dict(self),)


class _Working:
    """An operation's edits to a version (`PairMap.edit`), over that
    version, which stays as it is until `commit`.

    `touched` maps every pair written or deleted to its new entry, None
    for a deletion.  Reads look there first, then in `before`, the
    version's dict, which nothing reroots before the commit.
    """

    __slots__ = ("base", "before", "touched")

    def __init__(self, base: PairMap) -> None:
        self.base = base
        self.before = base.current()
        self.touched: dict[tuple[Principal, Principal], object] = {}

    def get(self, pair, default=None):
        entry = self.touched.get(pair, self)
        if entry is self:
            return self.before.get(pair, default)
        return default if entry is None else entry

    def __contains__(self, pair) -> bool:
        entry = self.touched.get(pair, self)
        return pair in self.before if entry is self else entry is not None

    def __setitem__(self, pair, entry) -> None:
        self.touched[pair] = entry

    def pop(self, pair):
        entry = self.get(pair)
        if entry is None:
            raise KeyError(pair)
        self.touched[pair] = None
        return entry

    __delitem__ = pop

    def commit(self) -> tuple:
        """The version after the edits, with the entries they removed and
        added.

        The edits go into the shared dict, and the version edited keeps the
        old entries as its diff.  With nothing changed nothing is written,
        and the version after is the one edited.
        """
        base, touched = self.base, self.touched
        data = base.current()
        diff, removed, added = _delta(touched, data)
        if not diff:
            return base, _NOTHING, _NOTHING
        for pair in diff:
            new = touched[pair]
            if new is None:
                del data[pair]
            else:
                data[pair] = new
        version = PairMap(data)
        base._data, base._base, base._diff = None, version, diff
        return version, removed, added


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
    # By label key, the pairs of the entries given to the public constructor that carry it.
    labelled: Mapping[LabelKey, Collection] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.soa:
            raise ModelError("state: SOA id must be non-empty")
        if type(self.principals) is not frozenset:  # a str would test membership by substring
            raise ModelError(f"state: principals must be a frozenset, not {type(self.principals).__name__}")
        for p in self.principals:
            if not isinstance(p, str) or not p:
                raise ModelError("state: principal ids must be non-empty strings")
        if not _is_utf8("".join(self.principals)):  # one test for all; on failure, find the name
            index = next(i for i, p in enumerate(sorted(self.principals)) if not _is_utf8(p))
            raise ModelError(f"principals[{index}]: name is not UTF-8 text")
        if self.soa not in self.principals:
            raise ModelError(f"state: SOA {self.soa!r} missing from principals")
        if type(self.time) is not int or self.time < 0:
            raise ModelError("state: member 'time' must be a non-negative integer")
        if not _fits_text(self.time):
            raise ModelError(f"state: member 'time' has more than {sys.get_int_max_str_digits()} digits")
        labelled: dict[LabelKey, set] = {}
        positive = _pair_map(self, "positive", PositiveAuth, labelled)
        negative = _pair_map(self, "negative", NegativeAuth, labelled)
        fields = self.__dict__
        del fields["positive"], fields["negative"]  # sorted from the maps on first read (below the class)
        fields.update(positive_by_pair=_own_map(positive), negative_by_pair=_own_map(negative), labelled=labelled)

    def _after(self, pos, neg, repaired: bool = False) -> "tuple[AuthorizationState, RevocationDelta]":
        """The state after an operation on this one, and its delta: the one
        way the engine makes a state.

        `pos` and `neg` are the operation's working maps over this state's
        pair maps (`edit`), or None for a map it writes nothing of.  Each is
        committed, which yields the entries deleted and issued; a map whose
        edits removed and added nothing is shared with the post-state
        (`_committed`).  Nothing is checked or sorted: the engine derives
        each state from a valid one, and the committed maps are versions no
        other state edits.  What the post-state inherits is
        handed on here, one rule per fact:

        * `soa` and `principals`: this state's; its time is one step on.
        * `labelled`: this state's, by reference, for every operation; the
          labels an operation issues name their own pairs.
        * `orphans`: none if `repaired`, else derived from this state's
          (`_orphans_after`).  An operation that repaired nothing must make
          or unmake no grantor without a plain rooted chain, as none of the
          engine's does: grants and plain negatives cut nothing, and a
          scheme's new pairs start at the revoker, a grantor already.
        * every other index: at `_DERIVE_MIN_ENTRIES` or more, what it takes
          to find a source for it (`_sources`), which the post-state does
          on the first read of one; this state drops its own.
        """
        positive, deleted_pos, issued_pos, pos_touched = _committed(self.positive_by_pair, pos)
        negative, deleted_neg, issued_neg, neg_touched = _committed(self.negative_by_pair, neg)
        delta = RevocationDelta(deleted_pos, deleted_neg, issued_pos, issued_neg)
        post = object.__new__(type(self))
        post.__dict__.update(
            soa=self.soa,
            principals=self.principals,
            time=self.time + 1,
            positive_by_pair=positive,
            negative_by_pair=negative,
            labelled=self.labelled,
            # Before this state drops its sources: this may read its indexes.
            orphans=_NOTHING if repaired else _orphans_after(self, positive, pos_touched, delta),
        )
        handed = self.__dict__.pop("_origin", None)
        entries = len(positive)
        if entries >= _DERIVE_MIN_ENTRIES:
            if type(handed) is tuple:  # never read: resolved now, so that no chain of states forms
                handed = _sources(*handed)
            post.__dict__["_origin"] = (self, handed, pos_touched, neg_touched, entries)
        return post, delta

    # Kept by a state of `_DERIVE_MIN_ENTRIES` or more until it becomes a
    # pre-state: the arguments of `_sources` for it, and from the first read
    # of an index on, their result, by index name the source it derives from.
    # Resolved lazily: resolving it in every `_after` made `admin-2k`'s
    # operations 5-18% slower (`undo_ms` +18%, `grant_ms` +10%; 4 alternating
    # 20-s pairs, seeds 1701-1704, 2-vCPU VM, Python 3.11).
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
    # A derived index may share objects with its source's, so no index is
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
    def incoming(self) -> Mapping[Principal, tuple[Principal, ...]]:
        """Grantors per grantee over the positive map, in no particular order."""
        out: dict[Principal, list[Principal]] = {}
        for grantor, grantee in self.positive_by_pair._flat():
            out.setdefault(grantee, []).append(grantor)
        return {p: tuple(grantors) for p, grantors in out.items()}

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

    def _derive(self, name: str, source: tuple):
        """The index `name` derived from its `source` (see `_sources`): an
        earlier state of the lineage that has built it, and the pairs
        touched since in either map, as a tuple of collections for each.

        A grouped index is the source's with the endpoints of the touched
        pairs regrouped; a reach map is the source's less the principals
        `_recheck` finds lost, with the parents it names for those it
        re-admits.  Plain indexes look at touched positive pairs only.  A
        pair touched twice, or touched and restored, costs a second look
        and changes nothing.
        """
        origin, pos_touched, neg_touched, _ = source
        built = origin.__dict__
        # Nothing below reroots (see `PairMap`): these stay this state's.
        positive, negative = self.positive_by_pair.current(), self.negative_by_pair.current()
        plain = name in _PLAIN
        touched = chain.from_iterable(pos_touched if plain else pos_touched + neg_touched)
        if name.endswith("_reach"):
            lost, _, parents = _recheck(origin, positive, negative, touched, not plain)
            reach = built[name]
            if not lost and not parents:
                return reach
            reach = dict(reach)
            for p in lost:
                del reach[p]
            reach.update(parents)
            return reach
        if name == "chain_children":

            def present(pair):
                auth = positive.get(pair)
                return auth is not None and auth.kind is _TT

        elif name == "outgoing":

            def present(pair):
                return pair in positive or pair in negative

        else:  # incoming
            present = positive.__contains__
        return _regroup(built[name], touched, name == "incoming", present)

    @cached_property
    def orphans(self) -> frozenset[Principal]:
        """Grantors of some authorization that have no plain rooted chain;
        an engine state is handed them (`_orphans_after`).  A state without
        grantors, a fresh one, has none, found without a reach search."""
        grantors = self.outgoing
        reach = self.plain_reach if grantors else ()
        return frozenset(p for p in grantors if p not in reach)

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


# A state's `positive` and `negative`, on either path: its pair maps, sorted
# on first read and kept.  Set once the decorator has run, which would
# otherwise take them for field defaults.  Not a `__getattr__` fallback:
# CPython does not specialize attribute reads on a class that has one, which
# slowed every query.
AuthorizationState.positive = cached_property(
    lambda state: _sorted_entries(state.positive_by_pair._flat()), "positive"
)
AuthorizationState.negative = cached_property(
    lambda state: _sorted_entries(state.negative_by_pair._flat()), "negative"
)


def _committed(own: PairMap | _Flat, work: "_Working | _Flat | None") -> tuple:
    """A pre-state's map `own` after its working map `work` (None for none)
    is committed, the entries removed and added, and the pairs touched.
    Where nothing was removed or added it is `own` itself, the same object
    whether `work` is an overlay or a copy; one that touched nothing is not
    committed."""
    if work is None or not work.touched:
        return own, _NOTHING, _NOTHING, {}
    version, removed, added = work.commit()
    return (version if removed or added else own), removed, added, work.touched


def _orphans_after(
    pre: AuthorizationState,
    positive: PairMap | _Flat,
    pos_touched: Collection[tuple[Principal, Principal]],
    delta: RevocationDelta,
) -> frozenset[Principal]:
    """The orphans after an operation on `pre` that repaired nothing (see
    `AuthorizationState._after`), which leaves the map `positive`.

    Only TT entries change them then: a removed or weakened one may cut a
    chain, a new one may root an orphan.  Only then are the chains
    rechecked.
    """
    orphans, cut = pre.orphans, False
    for auth in delta.deleted_positive:
        if auth.kind is _TT:
            now = positive.get((auth.grantor, auth.grantee))
            cut |= now is None or now.kind is not _TT
    if not cut and not (orphans and any(auth.kind is _TT for auth in delta.issued_positive)):
        return orphans
    lost, gained, _ = _recheck(pre, positive, (), pos_touched, False)
    grantors = pre.outgoing
    return frozenset(orphans - gained | {p for p in lost if p in grantors})


# The indexes a state derives from a source (`_sources`).
_LINEAGE = ("chain_children", "plain_reach", "active_reach", "incoming", "outgoing")


def _sources(
    pre: AuthorizationState,
    handed: dict | None,
    pos_touched: Collection[tuple[Principal, Principal]],
    neg_touched: Collection[tuple[Principal, Principal]],
    entries: int,
) -> dict[str, tuple]:
    """By index name, where the post-state of an operation on `pre`, with
    `entries` positive entries, derives it from: (source state, the positive
    pairs touched since, the negative pairs touched since, their count),
    each touched part a tuple of the operations' collections.

    The source is `pre` if it has built the index, else the source `pre`
    was `handed` for it, the operation's pairs added: derivation reaches
    back along the lineage to the last state that built the index, and no
    index work is done here.  A reach map's source must have built
    `chain_children` too, which `_recheck` walks.  A source goes once the
    pairs touched since it are as many as the entries: from there on a
    rebuild costs no more than a derivation, and the versions a source
    holds between it and the newest state stay as few.
    """
    step = len(pos_touched) + len(neg_touched)
    pos_new = (pos_touched,) if pos_touched else ()
    neg_new = (neg_touched,) if neg_touched else ()
    own = (pre, pos_new, neg_new, step) if step < entries else None
    built = pre.__dict__
    walks = "chain_children" in built
    out = {}
    for name in _LINEAGE:
        if name in built and (walks or not name.endswith("_reach")):
            source = own
        elif handed and name in handed:
            origin, pos, neg, count = handed[name]
            count += step
            source = (origin, pos + pos_new, neg + neg_new, count) if count < entries else None
        else:
            continue
        if source:
            out[name] = source
    return out


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
    state: AuthorizationState, field: str, kind: type, labelled: dict
) -> dict[tuple[Principal, Principal], PositiveAuth | NegativeAuth]:
    """The entries of `state`'s `field` by pair, the one place that decides
    every entry rule; each labelled entry's pair is added to `labelled`
    under its label's key.

    Each entry must be a `kind` with non-empty endpoints, no self-pair, a
    `PositiveKind` if it is positive, principals for endpoints, a pair of
    its own, and no label or a well-formed one (`_label_fault`).  The first
    rule an entry breaks, in that order, is named with the entry's position
    in `field`.
    """
    principals, time = state.principals, state.time
    by_pair: dict = {}
    positive = kind is PositiveAuth
    noun = "authorization" if positive else "negative authorization"
    for index, entry in enumerate(getattr(state, field)):
        if type(entry) is not kind:
            raise ModelError(f"{field}[{index}]: expected a {kind.__name__}, not {type(entry).__name__}")
        pair = grantor, grantee = entry.grantor, entry.grantee
        label = entry.label
        if not grantor or not grantee:  # before membership, which they fail too
            fault = "principal ids must be non-empty"
        elif grantor == grantee:
            fault = f"self-authorization {grantor!r} -> {grantee!r} is not allowed"
        elif positive and type(entry.kind) is not PositiveKind:
            fault = f"authorization kind must be a PositiveKind, not {entry.kind!r}"
        elif grantor not in principals or grantee not in principals:
            fault = f"unknown principal {grantor if grantor not in principals else grantee!r}"
        elif pair in by_pair:
            fault = f"duplicate {noun} {grantor!r} -> {grantee!r}"
        else:
            fault = None if label is None else _label_fault(label, principals, time)
        if fault is not None:
            raise ModelError(f"{field}[{index}]: {fault}")
        by_pair[pair] = entry
        if label is not None:
            labelled.setdefault(label.key, set()).add(pair)
    return by_pair


def _label_fault(label: object, principals: frozenset, time: int) -> str | None:
    """The first rule an entry's `label` breaks, or None: a `RevocationLabel`
    with text roots, both non-empty and principals, a natural sequence, a
    `PositiveKind` or None to restore and a bool `restores_blocked`; last,
    a sequence below the state's `time`, as every label the engine issues
    has.  A later operation issues labels of its own time, so one the state
    has not reached could share their key and be lifted by their undo.  The
    time fits the digit limit, so a sequence below it does too."""
    if not isinstance(label, RevocationLabel):
        return f"label must be a RevocationLabel or None, not {type(label).__name__}"
    if type(label.root_grantor) is not str or type(label.root_grantee) is not str:
        return "label root principals must be strings"
    if not label.root_grantor or not label.root_grantee:
        return "label root principals must be non-empty"
    if type(label.sequence) is not int or label.sequence < 0:
        return "label member 'seq' must be a non-negative integer"
    if label.restores_kind is not None and type(label.restores_kind) is not PositiveKind:
        return f"label restores_kind must be a PositiveKind or None, not {label.restores_kind!r}"
    if type(label.restores_blocked) is not bool:
        return "label member 'was_blocked' must be a boolean"
    for root in label.root:
        if root not in principals:
            return f"label root {root!r} is not a principal"
    if label.sequence >= time:
        return "label member 'seq' must be below the state's time"
    return None


def _is_utf8(text: str) -> bool:
    """False for text UTF-8 cannot encode: a lone surrogate from a `\\ud800` escape."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _fits_text(n: int) -> bool:
    """Whether the natural number `n` converts to text under the
    interpreter's digit limit (`sys.get_int_max_str_digits()`, 0 for none),
    as `serialize_state` converts it and `json.loads` reads it back.  A
    number of fewer than 3 bits per allowed digit is within the limit, as
    2**3 < 10, so only a huge one is compared with the power of ten."""
    limit = sys.get_int_max_str_digits()
    return not limit or n.bit_length() < 3 * limit or n < 10**limit


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


def _require_principals(state: AuthorizationState, *principals: Principal) -> None:
    for p in principals:
        if p not in state.principals:
            raise UnknownPrincipalError(f"{p!r} is not a principal of this state")


def _dependents(state: AuthorizationState, i: Principal) -> set[Principal]:
    """Active principals other than the SOA whose every active chain runs
    through i, i included: what `_recheck` finds lost with i excised."""
    if i == state.soa:
        # Needed, not a shortcut: the recheck below would excise the SOA and
        # count it among the lost, and strong dominance would kill its grants.
        return state.active_reach.keys() - {i}
    positive, negative = state.positive_by_pair.current(), state.negative_by_pair.current()
    return _recheck(state, positive, negative, (), True, i)[0]


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
            for g in incoming.get(k, ()):
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
    index: Mapping[Principal, tuple[Principal, ...]],
    touched: Iterable[tuple[Principal, Principal]],
    side: int,
    present,
) -> dict[Principal, tuple[Principal, ...]]:
    """A copy of `index`, a tuple of principals per principal, with each
    `touched` pair filed again where `present(pair)` holds and dropped
    elsewhere.  A pair is filed under its grantor (`side` 0) or its grantee
    (`side` 1), as the principal at its other end.  Only the principals of
    touched pairs are regrouped."""
    changed: dict[Principal, dict[Principal, tuple[Principal, Principal]]] = {}
    for pair in touched:
        changed.setdefault(pair[side], {})[pair[1 - side]] = pair
    out = dict(index)
    for p, pairs in changed.items():
        items = [other for other in out.get(p, ()) if other not in pairs]
        items.extend(other for other, pair in pairs.items() if present(pair))
        if items:
            out[p] = tuple(items)
        else:
            out.pop(p, None)
    return out


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


# Operation records, as trace files name them.


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


__all__ = [
    "AuthorizationState",
    "GrantOp",
    "NegativeAuth",
    "NegativeOp",
    "Operation",
    "PositiveAuth",
    "PositiveKind",
    "Principal",
    "RevocationDelta",
    "RevocationLabel",
    "RevokeOp",
    "Scheme",
    "UndoOp",
    "new_state",
    "states_equal",
]
