"""Error types shared across the package.

Every operation failure is a distinct exception class so callers (and the CLI
exit-code mapping) can tell precondition failures apart from malformed input
without parsing messages.
"""

from __future__ import annotations


class AuthGraphError(Exception):
    """Base class for all errors raised by this package."""


class ModelError(AuthGraphError):
    """A value violates a structural invariant of the model types."""


class UnknownPrincipalError(AuthGraphError):
    """An operation names a principal that is not part of the state."""


class PreconditionError(AuthGraphError):
    """Base class for operation precondition failures; state is unchanged."""


class SelfOperationError(PreconditionError):
    """Grantor and grantee are the same principal."""


class InactiveGrantorError(PreconditionError):
    """The grantor has no active rooted delegation chain."""


class DowngradeError(PreconditionError):
    """A grant tried to replace full delegation with access only."""


class DuplicateNegativeError(PreconditionError):
    """A negative authorization for the pair already exists."""


class MissingAuthorizationError(PreconditionError):
    """The positive authorization required by the operation is absent."""


class NothingToUndoError(PreconditionError):
    """No labelled negative revocation rooted at the pair exists."""


class ParseError(AuthGraphError):
    """A state or trace document is malformed; message carries a location."""


class EnumerationLimitError(AuthGraphError):
    """A chain-enumeration oracle was asked about a state above its size guard."""
