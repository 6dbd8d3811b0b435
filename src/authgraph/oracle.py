"""Cross-checking reference implementations for chains and delete schemes.

Everything here recomputes results from first principles: chain and
independence queries by explicit enumeration of simple delegation paths, and
the four delete schemes by a declarative rule loop that alternates growth of
the deletion set with recomputation of rooted chains until nothing changes.
The only vocabulary shared with the engine is the data model; none of the
engine's traversal or transition code is reused.  `check_equivalence` is the
single place where both implementations are invoked side by side.
"""

from __future__ import annotations

from typing import Iterable

from .errors import (
    AuthGraphError,
    EnumerationLimitError,
    MissingAuthorizationError,
    ModelError,
    UnknownPrincipalError,
)
from .model import (
    AuthorizationState,
    EngineConfig,
    NegativeAuth,
    PositiveAuth,
    PositiveKind,
    Principal,
    RevocationRequest,
    Scheme,
    states_equal,
)
from .revocation import apply_scheme

Pair = tuple[Principal, Principal]

# Simple-path enumeration is factorial in the worst case; refuse beyond this.
ENUMERATION_LIMIT = 12


def _successors(tt_pairs: Iterable[Pair]) -> dict[Principal, tuple[Principal, ...]]:
    out: dict[Principal, list[Principal]] = {}
    for grantor, grantee in tt_pairs:
        out.setdefault(grantor, []).append(grantee)
    return {p: tuple(sorted(es)) for p, es in out.items()}


def _mode_pairs(state: AuthorizationState, mode: str) -> frozenset[Pair]:
    if mode not in ("plain", "active"):
        raise ModelError(f"unknown chain mode {mode!r}; expected 'plain' or 'active'")
    blocked: frozenset[Pair] = frozenset()
    if mode == "active":
        blocked = frozenset((n.grantor, n.grantee) for n in state.negative)
    return frozenset(
        (a.grantor, a.grantee)
        for a in state.positive
        if a.kind is PositiveKind.TT and (a.grantor, a.grantee) not in blocked
    )


def enumerate_chains(
    state: AuthorizationState,
    principal: Principal,
    mode: str = "plain",
    avoid: Principal | None = None,
) -> frozenset[tuple[Principal, ...]]:
    """All simple delegation chains from the source of authority to `principal`.

    A chain is a repetition-free sequence of principals starting at the SOA
    whose consecutive pairs carry TT edges; in "active" mode, edges blocked by
    a negative authorization are excluded.  Chains visiting `avoid` are
    dropped.  The SOA's own one-element chain is unconditional, independent of
    edges and of `avoid`.
    """
    if len(state.principals) > ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"state has {len(state.principals)} principals; "
            f"enumeration is limited to {ENUMERATION_LIMIT}"
        )
    if principal not in state.principals:
        raise UnknownPrincipalError(f"{principal!r} is not a principal of this state")
    soa = state.soa
    if principal == soa:
        return frozenset({(soa,)})
    if avoid == soa:
        return frozenset()
    succ = _successors(_mode_pairs(state, mode))
    found: set[tuple[Principal, ...]] = set()

    def walk(path: tuple[Principal, ...], seen: frozenset[Principal]) -> None:
        for nxt in succ.get(path[-1], ()):
            if nxt == avoid or nxt in seen:
                continue
            if nxt == principal:
                found.add(path + (nxt,))
            else:
                walk(path + (nxt,), seen | {nxt})

    walk((soa,), frozenset({soa}))
    return frozenset(found)


def _reachable(
    tt_pairs: frozenset[Pair], start: Principal, banned: frozenset[Principal] = frozenset()
) -> frozenset[Principal]:
    """Principals with some rooted path over the given edges, skipping `banned`."""
    if start in banned:
        return frozenset()
    succ = _successors(tt_pairs)
    seen = {start}
    stack = [start]
    while stack:
        for q in succ.get(stack.pop(), ()):
            if q not in seen and q not in banned:
                seen.add(q)
                stack.append(q)
    return frozenset(seen)


def fixpoint_apply_delete(
    state: AuthorizationState,
    request: RevocationRequest,
    config: EngineConfig | None = None,
) -> AuthorizationState:
    """Recompute a delete-scheme revocation by declarative rule alternation.

    Instead of the engine's imperative per-scheme procedure, this evaluator
    keeps a growing set of doomed authorizations and a set of replacement
    issues, firing rules (a principal without a rooted chain loses her
    outgoing authorizations; strong dominance dooms dependent grants into
    affected grantees; local schemes re-root the target's grants at the
    revoker) and re-deriving chains between rounds until a fixpoint is
    reached.  The deletion set grows monotonically, so termination is bounded
    by the authorization count.
    """
    config = config or EngineConfig()
    scheme, i, j = request.scheme, request.revoker, request.target
    if not scheme.is_delete:
        raise ModelError(f"{scheme.name} is not a delete scheme")
    for p in (i, j):
        if p not in state.principals:
            raise UnknownPrincipalError(f"{p!r} is not a principal of this state")
    soa = state.soa
    pos0 = {a.pair: a for a in state.positive}
    neg0 = {n.pair: n for n in state.negative}
    if (i, j) not in pos0:
        raise MissingAuthorizationError(
            f"no positive authorization from {i!r} to {j!r} to revoke"
        )

    tt0 = frozenset(p for p, a in pos0.items() if a.kind is PositiveKind.TT)
    blocked0 = frozenset(neg0)
    active0 = _reachable(tt0 - blocked0, soa)
    # independence is judged on the pre-state throughout
    ind_reach = _reachable(tt0 - blocked0, soa, banned=frozenset({i}))

    def dependent(z: Principal) -> bool:
        return z != soa and z not in ind_reach

    dead_pos: set[Pair] = {(i, j)}
    dead_neg: set[Pair] = set()
    new_pos: dict[Pair, PositiveAuth] = {}
    new_neg: dict[Pair, NegativeAuth] = {}

    if scheme is Scheme.SLD:
        dead_pos |= {p for p in pos0 if p[1] == j and dependent(p[0])}

    if scheme.is_local:
        _rules_local(
            state, i, j, pos0, neg0, tt0, blocked0, active0, dead_pos, dead_neg, new_pos, new_neg
        )
    else:
        _rules_global(
            scheme, config, soa, j, pos0, neg0, tt0, dependent, dead_pos, dead_neg
        )

    # connectivity repair, iterated until nothing more falls out
    while True:
        # replacement issues override the stored slot, so a pre-TT pair only
        # counts while no reissue has overwritten it
        live_tt = frozenset(
            p for p in tt0 if p not in dead_pos and p not in new_pos
        ) | frozenset(p for p, a in new_pos.items() if a.kind is PositiveKind.TT)
        keep = _reachable(live_tt, soa)
        doom_old = [p for p in pos0 if p not in dead_pos and p[0] not in keep]
        doom_new = [p for p in new_pos if p[0] not in keep]
        doom_neg = [p for p in neg0 if p not in dead_neg and p[0] not in keep]
        doom_new_neg = [p for p in new_neg if p[0] not in keep]
        if not (doom_old or doom_new or doom_neg or doom_new_neg):
            break
        dead_pos.update(doom_old)
        dead_neg.update(doom_neg)
        for p in doom_new:
            del new_pos[p]
        for p in doom_new_neg:
            del new_neg[p]

    positive = [a for p, a in pos0.items() if p not in dead_pos and p not in new_pos]
    positive.extend(new_pos.values())
    negative = [n for p, n in neg0.items() if p not in dead_neg]
    negative.extend(new_neg.values())
    return state.replace_authorizations(
        positive=positive, negative=negative, time=state.time + 1
    )


def _rules_local(
    state: AuthorizationState,
    i: Principal,
    j: Principal,
    pos0: dict[Pair, PositiveAuth],
    neg0: dict[Pair, NegativeAuth],
    tt0: frozenset[Pair],
    blocked0: frozenset[Pair],
    active0: frozenset[Principal],
    dead_pos: set[Pair],
    dead_neg: set[Pair],
    new_pos: dict[Pair, PositiveAuth],
    new_neg: dict[Pair, NegativeAuth],
) -> None:
    soa = state.soa
    tt_now = frozenset(p for p in tt0 if p not in dead_pos)
    lost = j in _reachable(tt0, soa) and j not in _reachable(tt_now, soa)
    removed_ff_out: list[Pair] = []
    if lost:
        dead_pos.update(p for p in pos0 if p[0] == j)
        removed_ff_out = sorted(p for p in neg0 if p[0] == j)
        dead_neg.update(removed_ff_out)

    tt_now = frozenset(p for p in tt0 if p not in dead_pos)
    active_now = _reachable(tt_now - (blocked0 - dead_neg), soa)

    def occupied(slot: Pair) -> PositiveAuth | None:
        if slot in new_pos:
            return new_pos[slot]
        current = pos0.get(slot)
        return None if current is None or slot in dead_pos else current

    for pair in sorted(pos0):
        grantor, k = pair
        if grantor != j or k == i:
            continue
        auth = pos0[pair]
        live_before = j in active0 and pair not in blocked0
        gone = pair in dead_pos
        slot = (i, k)
        if live_before and (gone or j not in active_now):
            if slot in blocked0 and slot not in dead_neg:
                # lifting the block replaces the slot content outright
                dead_neg.add(slot)
                new_pos[slot] = PositiveAuth(i, k, auth.kind)
            else:
                held = occupied(slot)
                if held is None or auth.kind.strength > held.kind.strength:
                    new_pos[slot] = PositiveAuth(i, k, auth.kind)
        elif gone and not live_before and occupied(slot) is None:
            new_pos[slot] = PositiveAuth(i, k, auth.kind)
            if slot not in blocked0 or slot in dead_neg:
                new_neg[slot] = NegativeAuth(i, k)

    for pair in removed_ff_out:
        slot = (i, pair[1])
        if pair[1] == i or occupied(slot) is not None:
            continue
        if (slot in blocked0 and slot not in dead_neg) or slot in new_neg:
            continue
        new_neg[slot] = NegativeAuth(*slot)


def _rules_global(
    scheme: Scheme,
    config: EngineConfig,
    soa: Principal,
    j: Principal,
    pos0: dict[Pair, PositiveAuth],
    neg0: dict[Pair, NegativeAuth],
    tt0: frozenset[Pair],
    dependent,
    dead_pos: set[Pair],
    dead_neg: set[Pair],
) -> None:
    hit_grantees: set[Principal] = {j}
    while True:
        grew = False
        keep = _reachable(frozenset(p for p in tt0 if p not in dead_pos), soa)
        fall_pos = {p for p in pos0 if p not in dead_pos and p[0] not in keep}
        fall_neg = {p for p in neg0 if p not in dead_neg and p[0] not in keep}
        if fall_pos or fall_neg:
            grew = True
            dead_pos |= fall_pos
            dead_neg |= fall_neg
            hit_grantees |= {p[1] for p in fall_pos}
        if scheme is Scheme.SGD:
            targets = hit_grantees if config.sgd_descendant_dominance else {j}
            dominated = {
                p for p in pos0 if p not in dead_pos and p[1] in targets and dependent(p[0])
            }
            if dominated:
                grew = True
                dead_pos |= dominated
                hit_grantees |= {p[1] for p in dominated}
        if not grew:
            return


def compare_engines(
    state: AuthorizationState,
    request: RevocationRequest,
    config: EngineConfig | None = None,
) -> str | None:
    """Run engine and reference on the same input; describe any disagreement.

    Returns None on agreement.  If both implementations reject the input with
    the same error category that counts as agreement too.
    """
    engine_state: AuthorizationState | None = None
    oracle_state: AuthorizationState | None = None
    engine_err: AuthGraphError | None = None
    oracle_err: AuthGraphError | None = None
    try:
        engine_state = apply_scheme(state, request, config)[0]
    except AuthGraphError as exc:
        engine_err = exc
    try:
        oracle_state = fixpoint_apply_delete(state, request, config)
    except AuthGraphError as exc:
        oracle_err = exc
    if engine_err is not None or oracle_err is not None:
        if type(engine_err) is type(oracle_err):
            return None
        return (
            f"error category mismatch for {request.scheme.name}"
            f"({request.revoker},{request.target}): "
            f"engine={engine_err!r} reference={oracle_err!r}"
        )
    assert engine_state is not None and oracle_state is not None
    if states_equal(engine_state, oracle_state):
        return None
    return (
        f"state mismatch for {request.scheme.name}"
        f"({request.revoker},{request.target}):\n"
        f"  engine:    {_render(engine_state)}\n"
        f"  reference: {_render(oracle_state)}"
    )


def check_equivalence(
    state: AuthorizationState,
    request: RevocationRequest,
    config: EngineConfig | None = None,
) -> bool:
    """True iff engine and reference agree on this delete-scheme input."""
    return compare_engines(state, request, config) is None


def _render(state: AuthorizationState) -> str:
    pos = [
        f"{a.grantor}->{a.grantee}:{a.kind.name}{'*' if a.label else ''}"
        for a in state.positive
    ]
    neg = [f"{n.grantor}-x->{n.grantee}{'*' if n.label else ''}" for n in state.negative]
    return "pos[" + " ".join(pos) + "] neg[" + " ".join(neg) + "]"


__all__ = [
    "ENUMERATION_LIMIT",
    "check_equivalence",
    "compare_engines",
    "enumerate_chains",
    "fixpoint_apply_delete",
]
