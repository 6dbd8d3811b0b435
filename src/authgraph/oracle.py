"""Cross-checking reference implementations for chains and delete schemes.

Everything here recomputes results from first principles: chain and
independence queries by explicit enumeration of simple delegation paths, and
the four delete schemes by rules evaluated to a fixpoint on a copy of the
pre-state's entries.  The rules fire in this order: the revoked grant goes,
and under strong dominance every grant into the target whose grantor is not
independent of the revoker (the seed); local schemes re-root the target's
grants at the revoker, once; then one loop repeats the repair (a grantor
with no plain rooted chain loses its entries, old and reissued) and, under
SGD, dominance at every grantee a deletion reached, until nothing changes.

The only vocabulary shared with the engine is the data model's value types
and errors, and the request and configuration records both take (defined in
`revocation`); none of the engine's indexes, traversal or transition code is
read (`tests/test_oracle.py` checks that).  `check_equivalence` is the
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
    NegativeAuth,
    PositiveAuth,
    PositiveKind,
    Principal,
    Scheme,
    states_equal,
)
from .revocation import EngineConfig, RevocationRequest, apply_scheme

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
    tt_pairs: Iterable[Pair], start: Principal, banned: frozenset[Principal] = frozenset()
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
    """Recompute a delete-scheme revocation as one least fixpoint of rules.

    The rules work on copies of the pre-state's entries, in this order:

    1. Seed: the revoked grant (i, j) goes, and under SLD and SGD so does
       every grant into j whose grantor is not independent of i (dominance).
    2. Re-root, local schemes only, once: if j had an active chain and has
       none left, each live grant (j, k) is reissued as (i, k), lifting a
       block on (i, k) or upgrading a weaker kind there.  If j lost every
       plain chain, j's grants and negatives go; where (i, k) is empty, a
       grant (j, k) that conveyed nothing is kept as an (i, k) blocked by an
       FF, and an FF (j, k) becomes an FF (i, k).
    3. Until nothing changes: a grantor with no plain rooted chain loses its
       entries, old and reissued alike (repair); under SGD, dominance repeats
       at every grantee a deletion reached (at j alone, which the seed did,
       under `sgd_descendant_dominance=False`).

    Independence is judged on the pre-state throughout.  Each rule of the
    loop deletes more, never less, as deletions accumulate, so the loop
    reaches the least fixpoint whatever order it fires them in, and ends
    within one round per authorization.
    """
    config = config or EngineConfig()
    scheme, i, j = request.scheme, request.revoker, request.target
    if not scheme.is_delete:
        raise ModelError(f"{scheme.name} is not a delete scheme")
    for p in (i, j):
        if p not in state.principals:
            raise UnknownPrincipalError(f"{p!r} is not a principal of this state")
    soa = state.soa
    pos = {a.pair: a for a in state.positive}
    neg = {n.pair: n for n in state.negative}
    if (i, j) not in pos:
        raise MissingAuthorizationError(
            f"no positive authorization from {i!r} to {j!r} to revoke"
        )
    tt = PositiveKind.TT  # a local: enum member lookup is slow in the loops below

    def rooted(blocked=(), banned: frozenset[Principal] = frozenset()) -> frozenset[Principal]:
        """Who has a chain from the SOA over the TT entries of `pos` not in `blocked`."""
        return _reachable(
            (p for p, a in pos.items() if a.kind is tt and p not in blocked), soa, banned
        )

    active0, independent = rooted(neg), rooted(neg, frozenset({i}))
    plain0 = rooted() if scheme.is_local else frozenset()

    def dependent(z: Principal) -> bool:
        return z != soa and z not in independent

    # 1. Seed.
    del pos[(i, j)]
    if scheme.is_strong:
        for g in [g for g, k in pos if k == j and dependent(g)]:
            del pos[(g, j)]

    # 2. Re-root.
    if scheme.is_local:
        lost = j in plain0 and j not in rooted()
        off = j in active0 and j not in rooted(neg)
        grants = [a for p, a in pos.items() if p[0] == j]
        blocks = [p for p in neg if p[0] == j]
        for a in grants:
            k = a.grantee
            if k == i:
                continue
            slot, held = (i, k), pos.get((i, k))
            if off and a.pair not in neg:
                if slot in neg:
                    del neg[slot]
                elif held is not None and held.kind.covers(a.kind):
                    continue
                pos[slot] = PositiveAuth(i, k, a.kind)
            elif lost and held is None:
                pos[slot] = PositiveAuth(i, k, a.kind)
                neg.setdefault(slot, NegativeAuth(i, k))
        if lost:
            for _, k in blocks:
                if k != i and (i, k) not in pos and (i, k) not in neg:
                    neg[(i, k)] = NegativeAuth(i, k)
            for a in grants:
                del pos[a.pair]
            for p in blocks:
                del neg[p]

    # 3. Repair, and SGD's dominance at every grantee a deletion reached.
    cascade = scheme is Scheme.SGD and config.sgd_descendant_dominance
    hit = {j}
    while True:
        keep = rooted()
        doomed = [
            p for p in pos
            if p[0] not in keep or (cascade and p[1] in hit and dependent(p[0]))
        ]
        unrooted = [p for p in neg if p[0] not in keep]
        if not doomed and not unrooted:
            break
        for p in doomed:
            del pos[p]
            hit.add(p[1])
        for p in unrooted:
            del neg[p]
    return state.replace_authorizations(
        positive=pos.values(), negative=neg.values(), time=state.time + 1
    )


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
