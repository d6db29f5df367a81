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
    and no derived field is ever written.  Every collection field, and each collection part of
    one, is stored as a tuple or a frozenset.
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

    @classmethod
    def _checked(cls, **fields):
        """A value of fields that already pass every check and are stored canonically.

        The one way round the checks, and only for values the library derives from checked
        ones, at the sites ``tests/test_cascade.py`` pins; input from outside goes through the
        constructor, which checks it all.  The keyword dict becomes the value's ``__dict__``.
        """
        value = object.__new__(cls)
        object.__setattr__(value, "__dict__", fields)
        return value

    # The one storage rule: a constructor first replaces each collection field, and each
    # collection part of one, by a helper's result, then checks and canonicalises what it stored.
    # The built-in sequences and sets skip the slower ABC test: none is a mapping or read once.

    @staticmethod
    def _ordered(items) -> tuple:
        """``items`` as a tuple in the order given; a mapping or a set has none, so is malformed."""
        if type(items) not in (tuple, list) and isinstance(items, (Mapping, Set)):
            raise TypeError(f"an ordered field takes no {type(items).__name__}")
        return tuple(items)

    @staticmethod
    def _unordered(items):
        """Any other iterable, for the caller to sort or freeze; a mapping is malformed.

        A built-in tuple, list, set or frozenset is returned as it is; any other iterable is
        read once, into a tuple.
        """
        if type(items) in (tuple, list, set, frozenset):
            return items
        if isinstance(items, Mapping):
            raise TypeError(f"a collection field takes no {type(items).__name__}")
        return tuple(items)
