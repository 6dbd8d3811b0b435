"""Randomized state and operation generators for property sweeps.

States are grown through real engine operations, never assembled by hand, so
every generated state is reachable and connectivity-valid by construction and
carries no labels (grants and plain negatives only).
"""

from __future__ import annotations

import random
import string

from authgraph import (
    AuthGraphError,
    AuthorizationState,
    GrantOp,
    NegativeOp,
    Operation,
    PositiveAuth,
    PositiveKind,
    RevocationRequest,
    RevokeOp,
    Scheme,
    UndoOp,
    apply_scheme,
    grant,
    issue_negative,
    new_state,
)
from authgraph.semantics import reachable_active

NAMES = tuple(string.ascii_uppercase)
DELETE_SCHEMES = (Scheme.WLD, Scheme.WGD, Scheme.SLD, Scheme.SGD)


def random_state(
    rng: random.Random,
    max_principals: int = 8,
    max_ops: int = 16,
    negative_share: float = 0.25,
) -> AuthorizationState:
    n = rng.randint(2, max_principals)
    principals = NAMES[:n]
    state = new_state(principals[0], principals)
    for _ in range(rng.randint(1, max_ops)):
        grantor, grantee = rng.choice(principals), rng.choice(principals)
        if grantor == grantee:
            continue
        try:
            if rng.random() < negative_share:
                state, _ = issue_negative(state, grantor, grantee)
            else:
                kind = PositiveKind.TT if rng.random() < 0.65 else PositiveKind.TF
                state, _ = grant(state, grantor, grantee, kind)
        except AuthGraphError:
            continue
    return state


def random_label_free_state(
    rng: random.Random, max_principals: int = 8, max_ops: int = 18
) -> AuthorizationState:
    """Grants, plain negatives and delete revocations; labels never appear."""
    n = rng.randint(2, max_principals)
    principals = NAMES[:n]
    state = new_state(principals[0], principals)
    for _ in range(rng.randint(1, max_ops)):
        grantor, grantee = rng.choice(principals), rng.choice(principals)
        roll = rng.random()
        try:
            if roll < 0.55:
                kind = PositiveKind.TT if rng.random() < 0.65 else PositiveKind.TF
                state, _ = grant(state, grantor, grantee, kind)
            elif roll < 0.75:
                state, _ = issue_negative(state, grantor, grantee)
            else:
                edge = random_edge(rng, state)
                if edge is not None and rng.random() < 0.8:
                    grantor, grantee = edge.grantor, edge.grantee
                request = RevocationRequest(rng.choice(DELETE_SCHEMES), grantor, grantee)
                state, _ = apply_scheme(state, request)
        except AuthGraphError:
            continue
    return state


def random_acyclic_negative_free(
    rng: random.Random, max_principals: int = 7, max_ops: int = 14
) -> AuthorizationState:
    """Grants only, edges respecting a random topological order (no cycles)."""
    n = rng.randint(2, max_principals)
    order = list(NAMES[:n])
    state = new_state(order[0], order)
    for _ in range(rng.randint(1, max_ops)):
        lo, hi = sorted(rng.sample(range(n), 2))
        kind = PositiveKind.TT if rng.random() < 0.7 else PositiveKind.TF
        try:
            state, _ = grant(state, order[lo], order[hi], kind)
        except AuthGraphError:
            continue
    return state


def random_edge(rng: random.Random, state: AuthorizationState) -> PositiveAuth | None:
    return rng.choice(state.positive) if state.positive else None


def random_operation(rng: random.Random, state: AuthorizationState) -> Operation:
    principals = sorted(state.principals)
    grantor, grantee = rng.choice(principals), rng.choice(principals)
    roll = rng.random()
    if roll < 0.45:
        kind = PositiveKind.TT if rng.random() < 0.65 else PositiveKind.TF
        return GrantOp(grantor, grantee, kind)
    if roll < 0.60:
        return NegativeOp(grantor, grantee)
    if roll < 0.90:
        edge = random_edge(rng, state)
        if edge is not None and rng.random() < 0.8:
            grantor, grantee = edge.grantor, edge.grantee
        return RevokeOp(rng.choice(list(Scheme)), grantor, grantee)
    negatives = [n for n in state.negative if n.label is not None]
    if negatives and rng.random() < 0.8:
        pick = rng.choice(negatives)
        return UndoOp(pick.grantor, pick.grantee)
    return UndoOp(grantor, grantee)


def rights_profile(state: AuthorizationState) -> dict[str, tuple[bool, bool]]:
    """(access, delegation) per principal, from one reachability pass.

    Must stay pointwise equal to has_access_right/has_delegation_right; the
    sweeps assert that on a subsample.
    """
    active = reachable_active(state)
    access = set(active)
    for auth in state.positive:
        if auth.grantor in active and auth.pair not in state.negative_by_pair:
            access.add(auth.grantee)
    return {p: (p in access, p in active) for p in state.principals}
