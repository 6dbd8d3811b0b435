"""Delegation and revocation over ownership-rooted authorization graphs.

A single source of authority (SOA) owns a resource and hands out positive
authorizations that convey access, optionally with the right to delegate
further.  Negative authorizations block individual grants without deleting
them.  Eight revocation schemes cover every combination of local/global
propagation, weak/strong dominance and delete/negative resilience; negative
revocations are labelled and can be undone.

Every public name below is resolved on first use, by importing the module
that defines it: `import authgraph` loads no submodule, and a command loads
only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# By module, the public names it defines.
_EXPORTS = {
    "errors": (
        "AuthGraphError",
        "DowngradeError",
        "DuplicateNegativeError",
        "EnumerationLimitError",
        "InactiveGrantorError",
        "MissingAuthorizationError",
        "ModelError",
        "NothingToUndoError",
        "ParseError",
        "PreconditionError",
        "SelfOperationError",
        "UnknownPrincipalError",
    ),
    "io": ("export_dot", "parse_state", "parse_trace", "serialize_state"),
    "model": (
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
    ),
    "revocation": (
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
    ),
    "semantics": (
        "ConnectivityViolation",
        "active_chain_exists",
        "has_access_right",
        "has_delegation_right",
        "is_auth_active",
        "is_independent",
        "rooted_chain_exists",
        "validate_connectivity",
    ),
    "oracle": ("check_equivalence", "compare_engines", "enumerate_chains", "fixpoint_apply_delete"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _MODULE_OF.keys())
