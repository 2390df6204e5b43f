"""Exception taxonomy shared by all modules.

The CLI maps these onto process exit codes: ParseError and CapacityError
-> 2, ValidationError (including ParameterError) and DomainError -> 3,
IntegrityError -> 4.  Datum ingestion turns a base-group closure that
outgrows the covering group (ClosureCapError) into a ValidationError.
RegimeError is not fatal; pipelines downgrade to ledger-only output.
"""


class MonodromyError(Exception):
    """Base class for all package errors."""


class DomainError(MonodromyError, ValueError):
    """An operation was called with arguments outside its domain."""


class CapacityError(MonodromyError):
    """A configured size bound (cyclotomic order, group cap) was exceeded."""


class ClosureCapError(CapacityError):
    """A group closure found more elements than its cap allows."""


class ParseError(MonodromyError):
    """Input file or spec string could not be parsed."""


class ValidationError(MonodromyError):
    """A datum failed one of its declared invariants."""


class ParameterError(ValidationError):
    """User-supplied parameters are inconsistent with the datum."""


class IntegrityError(MonodromyError):
    """An identity that should hold for every valid datum failed.

    Signals an internally inconsistent datum (or a bug); carries a witness.
    """


class RegimeError(MonodromyError):
    """The requested construction is outside the supported regimes."""
