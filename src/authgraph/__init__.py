"""Delegation and revocation over ownership-rooted authorization graphs.

A single source of authority (SOA) owns a resource and hands out positive
authorizations that convey access, optionally with the right to delegate
further.  Negative authorizations block individual grants without deleting
them.  Eight revocation schemes cover every combination of local/global
propagation, weak/strong dominance and delete/negative resilience; negative
revocations are labelled and can be undone.
"""

from .errors import (
    AuthGraphError,
    DowngradeError,
    DuplicateNegativeError,
    EnumerationLimitError,
    InactiveGrantorError,
    MissingAuthorizationError,
    ModelError,
    NothingToUndoError,
    ParseError,
    PreconditionError,
    SelfOperationError,
    UnknownPrincipalError,
)
from .io import export_dot, parse_state, parse_trace, serialize_state
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
    new_state,
    states_equal,
)
from .revocation import (
    apply_operation,
    apply_scheme,
    apply_step,
    grant,
    issue_negative,
    undo_negative,
)
from .semantics import (
    ConnectivityViolation,
    active_chain_exists,
    has_access_right,
    has_delegation_right,
    is_auth_active,
    is_independent,
    rooted_chain_exists,
    validate_connectivity,
)

__version__ = "0.1.0"

# The reference evaluator, which no command uses, is imported on first use.
_ORACLE = frozenset({"check_equivalence", "compare_engines", "enumerate_chains", "fixpoint_apply_delete"})


def __getattr__(name: str):
    if name not in _ORACLE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle

    value = globals()[name] = getattr(oracle, name)
    return value


__all__ = [
    "AuthGraphError",
    "AuthorizationState",
    "ConnectivityViolation",
    "DowngradeError",
    "DuplicateNegativeError",
    "EngineConfig",
    "EnumerationLimitError",
    "GrantOp",
    "InactiveGrantorError",
    "MissingAuthorizationError",
    "ModelError",
    "NegativeAuth",
    "NegativeOp",
    "NothingToUndoError",
    "Operation",
    "ParseError",
    "PositiveAuth",
    "PositiveKind",
    "PreconditionError",
    "Principal",
    "RevocationDelta",
    "RevocationLabel",
    "RevocationRequest",
    "RevokeOp",
    "Scheme",
    "SelfOperationError",
    "Timeline",
    "TimelineStep",
    "UndoOp",
    "UnknownPrincipalError",
    "active_chain_exists",
    "apply_operation",
    "apply_scheme",
    "apply_step",
    "check_equivalence",
    "compare_engines",
    "enumerate_chains",
    "export_dot",
    "fixpoint_apply_delete",
    "grant",
    "has_access_right",
    "has_delegation_right",
    "is_auth_active",
    "is_independent",
    "issue_negative",
    "new_state",
    "parse_state",
    "parse_trace",
    "rooted_chain_exists",
    "serialize_state",
    "states_equal",
    "undo_negative",
    "validate_connectivity",
]
