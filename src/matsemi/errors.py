"""Exception types and the global size-cap policy.

All errors raised by this package derive from :class:`MatsemiError` so
callers can distinguish library failures from genuine bugs.  The size cap
bounds how many elements a constructed ring may have; it defaults to 10**6
and can be overridden per call or through the ``MATSEMI_SIZE_CAP``
environment variable, read by :func:`decimal_int` as the CLI's integer
flags are.
"""

from __future__ import annotations

import os

DEFAULT_SIZE_CAP = 10**6

_ENV_VAR = "MATSEMI_SIZE_CAP"


class MatsemiError(Exception):
    """Base class for all errors raised by this package."""


class RingSpecError(MatsemiError):
    """A ring spec string could not be parsed."""


class MapFormatError(MatsemiError):
    """A serialized map is malformed or inconsistent with its rings."""


class SizeCapExceeded(MatsemiError):
    """A construction or scan would exceed the configured size cap."""


class MissingInvolution(MatsemiError):
    """The operation needs a star involution the ring does not carry."""


class MissingImaginaryUnit(MatsemiError):
    """The operation needs an imaginary unit the ring does not carry."""


class NotAMatrixRing(MatsemiError):
    """The operation needs a ring constructed as a 2x2 matrix ring."""


class NotAUnit(MatsemiError):
    """The supplied element has no two-sided multiplicative inverse."""


class PreconditionFailed(MatsemiError):
    """A gated operation was called on a map that fails its gate checks."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class SizeMismatch(MatsemiError):
    """Two rings that must have equal size do not."""


# Error messages quote outside input up to this many characters.
_QUOTE_CAP = 80


def _quoted(value) -> str:
    """``repr(value)`` for an error message, cut to :data:`_QUOTE_CAP`
    characters with the cut marked by ``...``, so the message stays short
    however long the input it quotes."""
    text = repr(value)
    return text if len(text) <= _QUOTE_CAP else text[:_QUOTE_CAP - 3] + "..."


def decimal_int(text: str) -> int:
    """``text`` as an integer: an optional leading ``-``, then ASCII digits
    only.  The underscores, spaces, ``+`` signs and non-ASCII digits that
    ``int`` accepts raise ValueError."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {_quoted(text)}")
    return int(text)


def effective_size_cap(explicit: int | None = None) -> int:
    """Resolve the size cap: explicit argument, else env var, else default."""
    if explicit is not None:
        if explicit < 1:
            raise ValueError("size cap must be positive")
        return explicit
    env = os.environ.get(_ENV_VAR)
    if env:
        try:
            cap = decimal_int(env)
        except ValueError as exc:
            raise ValueError(
                f"{_ENV_VAR} must be an integer, got {_quoted(env)}") from exc
        if cap < 1:
            raise ValueError(f"{_ENV_VAR} must be positive")
        return cap
    return DEFAULT_SIZE_CAP
