"""Every scheme on every connected state over three principals, and every
query on every state.

Jackson's small-scope hypothesis (*Software Abstractions*, 2006): check
everything up to a small bound rather than samples.  The states are those
over {a, b, c} with SOA a; each of the six ordered pairs holds no positive,
a TF or a TT, each with or without an FF.  The schemes run on the connected
ones, whose every grantor has a plain rooted chain: the delete schemes
against the reference under both `sgd_descendant_dominance` values, and
every refused request must leave its pre-state as it was.  Swapping b and c
maps such a state to another one and every result to the swapped result, so
one state of each swapped pair is checked.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from authgraph import (
    AuthorizationState,
    DuplicateNegativeError,
    EngineConfig,
    NegativeAuth,
    PositiveAuth,
    PositiveKind,
    RevocationRequest,
    Scheme,
    apply_scheme,
    compare_engines,
    enumerate_chains,
    fixpoint_apply_delete,
    has_access_right,
    has_delegation_right,
    is_auth_active,
    is_independent,
    states_equal,
    undo_negative,
    validate_connectivity,
)

from authgraph.model import PairMap

from test_properties import _cuts

PAIRS = (("a", "b"), ("a", "c"), ("b", "a"), ("b", "c"), ("c", "a"), ("c", "b"))
# What a pair holds: its positive kind or None, and whether it is blocked.
SLOTS = tuple(product((None, PositiveKind.TF, PositiveKind.TT), (False, True)))
# For each pair, the index of the pair it becomes when b and c swap.
SWAPPED = tuple(PAIRS.index(tuple({"b": "c", "c": "b"}.get(p, p) for p in pair)) for pair in PAIRS)
# `validate_connectivity` fails after these on 420 states each (see
# ROADMAP.md, the open connectivity fault): a labelled reissue can leave a
# grantor whose only chain ran through the TT entry it weakened.
CONNECTIVITY_OPEN = (Scheme.WLN, Scheme.SLN)


def build(spec: tuple[int, ...]) -> AuthorizationState:
    """The state whose pair `PAIRS[n]` holds `SLOTS[spec[n]]`."""
    held = [(pair, *SLOTS[slot]) for pair, slot in zip(PAIRS, spec)]
    return AuthorizationState(
        "a",
        frozenset("abc"),
        tuple(PositiveAuth(*pair, kind) for pair, kind, _ in held if kind is not None),
        tuple(NegativeAuth(*pair) for pair, _, blocked in held if blocked),
    )


def representatives() -> Iterator[tuple[tuple[int, ...], int]]:
    """One spec of each swapped pair, and the number of states it stands
    for: 1 if the swap leaves it as it is, else 2."""
    for spec in product(range(len(SLOTS)), repeat=len(PAIRS)):
        swapped = tuple(spec[n] for n in SWAPPED)
        if spec <= swapped:
            yield spec, 1 if spec == swapped else 2


def connected() -> list[tuple[tuple[int, ...], AuthorizationState, int]]:
    """One spec of each swapped pair of connected states, its state, and
    the number of states it stands for."""
    out = []
    for spec, weight in representatives():
        state = build(spec)
        if not validate_connectivity(state):
            out.append((spec, state, weight))
    return out


def run(state: AuthorizationState, spec: tuple[int, ...]) -> list:
    """Every scheme on every positive pair of `state`, the state `spec`
    builds, in one order: the request, and the post-state, delta and, after a
    negative scheme, the state its undo gives.  Where the engine refused, the
    request and whether the pre-state's maps are still those `build(spec)`
    gives: a refused operation changes nothing."""
    pristine = build(spec)
    out = []
    for pair, scheme in product(sorted(state.positive_by_pair), Scheme):
        request = RevocationRequest(scheme, *pair)
        try:
            post, delta = apply_scheme(state, request)
        except DuplicateNegativeError:
            out.append((request, same_maps(state, pristine)))
            continue
        back = None if scheme.is_delete else undo_negative(post, *pair)[0]
        out.append((request, (post, delta, back)))
    return out


def same_maps(a: AuthorizationState, b: AuthorizationState) -> bool:
    """`states_equal` for two states of one SOA and principal set, without
    sorting either."""
    return (
        a.positive_by_pair.current() == b.positive_by_pair.current()
        and a.negative_by_pair.current() == b.negative_by_pair.current()
    )


def test_every_scheme_on_every_3_principal_state_connectivity_except_wln_sln():
    states = connected()
    assert sum(weight for _, _, weight in states) == 12_496  # every connected state
    differences, applications, refusals = [], 0, 0
    for spec, state, weight in states:
        copied = run(state, spec)
        with _cuts(shared=True):  # the same runs over shared maps
            start = build(spec)
            assert type(start.positive_by_pair) is PairMap
            shared = run(start, spec)
        assert [request for request, _ in shared] == [request for request, _ in copied]
        for (request, result), (_, other) in zip(copied, shared):
            where = (spec, request.scheme.name, request.revoker, request.target)
            if type(result) is bool:  # refused
                refusals += weight
                if request.scheme.is_delete or (request.revoker, request.target) not in state.negative_by_pair:
                    differences.append((where, "refused"))
                if not result:
                    differences.append((where, "a refusal changed the pre-state"))
                if type(other) is not bool:
                    differences.append((where, "shared maps did not refuse"))
                elif not other:
                    differences.append((where, "a refusal changed the shared pre-state"))
                continue
            applications += weight
            post, delta, back = result
            if request.scheme.is_delete and not states_equal(post, fixpoint_apply_delete(state, request)):
                differences.append((where, "differs from fixpoint_apply_delete"))
            if back is not None and not states_equal(back, state):
                differences.append((where, "undo does not give the pre-state"))
            if request.scheme not in CONNECTIVITY_OPEN and validate_connectivity(post):
                differences.append((where, "connectivity"))
            if type(other) is bool or not same_maps(other[0], post) or other[1] != delta:
                differences.append((where, "shared maps differ"))
            elif back is not None and not same_maps(other[2], back):
                differences.append((where, "undo over shared maps differs"))
    assert not differences, (len(differences), differences[:10])
    assert (applications, refusals) == (338_016, 112_672), (applications, refusals)


def test_sgd_variant_on_every_connected_3_principal_state_matches_the_reference():
    # Under `sgd_descendant_dominance=False`, SGD dominates at j alone.
    config = EngineConfig(sgd_descendant_dominance=False)
    differences, applications = [], 0
    for spec, state, weight in connected():
        for pair in sorted(state.positive_by_pair):
            applications += weight
            report = compare_engines(state, RevocationRequest(Scheme.SGD, *pair), config)
            if report is not None:
                differences.append((spec, report))
    assert not differences, (len(differences), differences[:10])
    assert applications == 56_336


def test_queries_on_every_3_principal_state_match_its_chains():
    # Every state, connected or not, against the README's definitions, read
    # off the spec and the chains `enumerate_chains` lists: p delegates iff
    # an active chain reaches it; p has access iff it delegates or holds an
    # unblocked positive from a grantor that delegates; an entry is active
    # iff it is unblocked and its grantor delegates; j is independent of i
    # iff an active chain reaches j without visiting i.  No per-state index
    # holds anything but principals.
    names = ("a", "b", "c")
    states, differences = 0, []
    for spec, weight in representatives():
        states += weight
        state = build(spec)
        held = {pair: SLOTS[slot] for pair, slot in zip(PAIRS, spec)}
        granted = [pair for pair, (kind, _) in held.items() if kind is not None]
        delegates = {p: bool(enumerate_chains(state, p, "active")) for p in names}
        want, got = {}, {}
        for g, k in granted:
            want[g, k] = delegates[g] and not held[g, k][1]
            got[g, k] = is_auth_active(state, g, k)
        for p in names:
            access = any(want[pair] for pair in granted if pair[1] == p)
            want[p] = (delegates[p], delegates[p] or access)
            got[p] = (has_delegation_right(state, p), has_access_right(state, p))
            for i in names:
                want[p, i, "independent"] = bool(enumerate_chains(state, p, "active", avoid=i))
                got[p, i, "independent"] = is_independent(state, p, i)
        if got != want:
            differences.append((spec, {key for key in want if got[key] != want[key]}))
        for name in ("chain_children", "outgoing", "incoming"):
            for p, items in getattr(state, name).items():
                if not all(type(x) is str and x in state.principals and x != p for x in items):
                    differences.append((spec, name, p, items))
    assert states == len(SLOTS) ** len(PAIRS) == 46_656
    assert not differences, (len(differences), differences[:10])
