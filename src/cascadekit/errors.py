"""Exception types shared across the package."""

from __future__ import annotations

from collections.abc import Mapping, Set
from dataclasses import fields


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
    A value pickles and copies as the call that builds it, so a loaded value is checked again
    and no derived field is ever written.
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

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)

    @staticmethod
    def _ordered(items, sorted_here: bool = False) -> tuple:
        """``items`` as a tuple; a mapping, or a set unless the caller sorts it, is malformed."""
        if isinstance(items, Mapping) or not sorted_here and isinstance(items, Set):
            raise TypeError(f"an ordered field takes no {type(items).__name__}")
        return tuple(items)
