"""Exception types shared across the package."""

from __future__ import annotations


class CascadekitError(Exception):
    """Base class for all package errors."""


class DomainError(CascadekitError, ValueError):
    """An argument lies outside the domain an operation is defined on."""


class PreconditionError(CascadekitError, ValueError):
    """A stated precondition of an operation does not hold for the input."""


class CapacityError(CascadekitError, RuntimeError):
    """The finite truncation is exhausted; not a counterexample, just too small."""


class CertificateError(CascadekitError, RuntimeError):
    """A certified structural property failed; carries a concrete witness."""


class ParseError(CascadekitError, ValueError):
    """A text input could not be parsed; message names the offending line."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class _Value:
    """Base of the value types: a malformed field raises :class:`DomainError`.

    A ``TypeError``, ``ValueError`` or ``AttributeError`` from a subclass's own ``__post_init__``
    becomes ``DomainError("malformed <Type>: ...")``; a :class:`CascadekitError` passes unchanged.
    """

    def __init_subclass__(cls):
        check = cls.__dict__.get("__post_init__")

        def __post_init__(self):
            try:
                check(self)
            except CascadekitError:  # first: DomainError is a ValueError too
                raise
            except (TypeError, ValueError, AttributeError) as exc:
                raise cls._malformed(exc) from exc

        if check is not None:
            cls.__post_init__ = __post_init__

    @classmethod
    def _malformed(cls, exc: Exception) -> DomainError:
        return DomainError(f"malformed {cls.__name__}: {exc}")
