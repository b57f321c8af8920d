"""Exception hierarchy shared across the package.

Everything raised deliberately by this package derives from MetasumError, so
callers (in particular the CLI) can distinguish domain failures from bugs.
"""

from __future__ import annotations


class MetasumError(Exception):
    """Base class for all errors raised by metasum."""


class ConstraintViolation(MetasumError, ValueError):
    """Parameter tuple fails a presentation constraint.

    The message names the congruence that failed, e.g. ``8 does not divide
    2*(3-1)``.
    """


class CapExceeded(MetasumError):
    """An element enumeration would exceed the configured cap."""


class OverflowDetected(MetasumError):
    """An integer-matrix reduction produced an entry beyond the allowed magnitude."""


class NotAPower(MetasumError, ValueError):
    """Discrete logarithm target is not a power of the base element."""


class CosetLimitExceeded(MetasumError):
    """Coset enumeration hit the table limit before closing."""


class SearchFailed(MetasumError):
    """No candidate survived an exhaustive structure search.

    The searches in question (Hall decompositions, Sylow factorizations) are
    guaranteed to succeed for valid inputs, so this error signals a bug rather
    than a property of the input.
    """


class ConditionFails(MetasumError, ValueError):
    """A construction was requested for parameters outside its hypothesis."""


class InternalCheckError(MetasumError):
    """A theory-backed runtime assertion failed; indicates an implementation bug."""
