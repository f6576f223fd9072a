"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes by one table, cli._EXIT_CODES: parse
failures exit 2, resource-cap refusals exit 4, and domain errors, as any
other error of this package, exit 3.
"""


class CsmodError(Exception):
    """Base class for all errors raised by this package."""


class ParseInputError(CsmodError):
    """Malformed textual input (ring element, quaternion, matrix, config)."""


class DomainError(CsmodError):
    """Input outside the mathematical domain of an operation."""


class ResourceCapError(CsmodError):
    """Request exceeds a configured enumeration bound."""
