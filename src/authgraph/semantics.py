"""Rights and chain semantics over authorization states.

A rooted delegation chain is a path of TT edges starting at the SOA; the plain
form ignores negatives, the active form additionally drops every TT edge whose
pair carries an FF.  A positive authorization is active when its own pair is
not blocked and its grantor holds an active chain.  Access follows either from
an active chain or from an unblocked TF edge out of a principal with one.

Rooted reachability, plain and active, is kept with each state (states are
immutable) as a parent map, a tree of rooted chains built at most once per
state: by a breadth-first pass over its TT-successor index, or patched from
its pre-state's map by rechecking only the tree subtrees the operation cut.
Access then needs only the grantee's incoming edges, and edge activity a
dict lookup.  Independence walks j's parent chain: a chain that avoids i
answers it at once.  When i lies on that chain, `_dependents` decides, the
same excision the strong schemes use: `model._recheck` with i excised marks
i's subtree and re-admits what a live edge from outside it still reaches,
so the cost follows i's subtree, not the graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MissingAuthorizationError, UnknownPrincipalError
from .model import AuthorizationState, PositiveKind, Principal, _recheck


def reachable_plain(state: AuthorizationState) -> frozenset[Principal]:
    """Principals with a rooted delegation chain, negatives ignored."""
    return frozenset(state.plain_reach)


def reachable_active(state: AuthorizationState) -> frozenset[Principal]:
    """Principals with an active rooted delegation chain."""
    return frozenset(state.active_reach)


def _require_principals(state: AuthorizationState, *principals: Principal) -> None:
    for p in principals:
        if p not in state.principals:
            raise UnknownPrincipalError(f"{p!r} is not a principal of this state")


def rooted_chain_exists(state: AuthorizationState, p: Principal) -> bool:
    """True if a plain rooted delegation chain reaches p."""
    _require_principals(state, p)
    return p in state.plain_reach


def active_chain_exists(state: AuthorizationState, p: Principal) -> bool:
    """True if an active rooted delegation chain reaches p."""
    _require_principals(state, p)
    return p in state.active_reach


def has_delegation_right(state: AuthorizationState, p: Principal) -> bool:
    """Delegation right is exactly an active rooted delegation chain."""
    return active_chain_exists(state, p)


def has_access_right(state: AuthorizationState, p: Principal) -> bool:
    """Active chain, or an unblocked TF edge from a principal with one."""
    _require_principals(state, p)
    active = state.active_reach
    if p in active:
        return True
    blocked = state.negative_by_pair
    return any(
        auth.kind is PositiveKind.TF
        and auth.grantor in active
        and (auth.grantor, p) not in blocked
        for auth in state.incoming.get(p, ())
    )


def is_independent(state: AuthorizationState, j: Principal, i: Principal) -> bool:
    """True if j holds an active rooted chain that avoids i entirely.

    The SOA is independent of every principal, itself included; any other
    principal is trivially dependent on itself (no chain ending at j can
    avoid j).
    """
    _require_principals(state, j, i)
    if j == state.soa:
        return True
    reach = state.active_reach
    if j not in reach:
        return False
    p = j
    while p is not None:  # j's tree path is an active chain: done unless i is on it
        if p == i:
            return j not in _dependents(state, i)
        p = reach[p]
    return True


def _dependents(state: AuthorizationState, i: Principal) -> set[Principal]:
    """Active principals other than the SOA whose every active chain runs
    through i, i included."""
    if i == state.soa:
        # Needed, not a shortcut: the recheck below would excise the SOA and
        # count it among the lost, and strong dominance would kill its grants.
        return state.active_reach.keys() - {i}
    positive, negative = state.positive_by_pair.current(), state.negative_by_pair.current()
    return _recheck(state, positive, negative, (), True, i)[0]


def is_auth_active(
    state: AuthorizationState, grantor: Principal, grantee: Principal
) -> bool:
    """Activity of the positive authorization on (grantor, grantee)."""
    if (grantor, grantee) not in state.positive_by_pair:
        _require_principals(state, grantor, grantee)
        raise MissingAuthorizationError(
            f"no positive authorization from {grantor!r} to {grantee!r}"
        )
    return (grantor, grantee) not in state.negative_by_pair and grantor in state.active_reach


@dataclass(frozen=True)
class ConnectivityViolation:
    """An authorization whose grantor has no plain rooted delegation chain."""

    grantor: Principal
    grantee: Principal
    form: str  # "TT", "TF", or "FF"

    def __str__(self) -> str:
        return (
            f"{self.form} authorization {self.grantor} -> {self.grantee}: "
            f"grantor has no rooted delegation chain"
        )


def validate_connectivity(state: AuthorizationState) -> list[ConnectivityViolation]:
    """Every authorization's grantor must hold a plain rooted chain.

    Checked over plain chains deliberately: negatives suspend rights but do
    not excuse a structurally disconnected grantor.
    """
    reach = state.plain_reach
    positive, negative = state.positive_by_pair.current(), state.negative_by_pair.current()
    # Walk the maps and sort only the violations, almost always none.
    violations = []
    for by_pair in (positive, negative):
        unrooted = {grantor for grantor, _ in by_pair}.difference(reach)
        if unrooted:
            violations.extend(
                ConnectivityViolation(g, k, "FF" if by_pair is negative else positive[g, k].kind.value)
                for g, k in sorted(pair for pair in by_pair if pair[0] in unrooted)
            )
    return violations


__all__ = [
    "ConnectivityViolation",
    "active_chain_exists",
    "has_access_right",
    "has_delegation_right",
    "is_auth_active",
    "is_independent",
    "reachable_active",
    "reachable_plain",
    "rooted_chain_exists",
    "validate_connectivity",
]
