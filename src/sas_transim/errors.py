"""Exception types shared across the package, and the count check that
raises one."""

import numbers


class ValidationError(ValueError):
    """Bad input: malformed case data, out-of-range parameters, misuse of an API."""


class CaseParseError(ValidationError):
    """A case document violates the schema; the message names field and location."""


class NumericalError(RuntimeError):
    """A computation failed numerically (divergence, singular system, no root)."""


class DivergenceError(NumericalError):
    """The state or a series coefficient left the finite range.

    ``t`` is the simulation time (or window-local time) at which the failure
    was detected, ``machine`` the index of the offending machine when known.
    """

    def __init__(self, message, t=None, machine=None):
        super().__init__(message)
        self.t = t
        self.machine = machine


def check_count(value, name: str, least: int) -> None:
    """Refuse a count ``name`` that is not an integer of at least ``least``.

    Floats are refused even when integral: a count sizes arrays and loops,
    so 2.5 or nan must not be rounded or compared into some other meaning.
    """
    # an exact int first: derive_window checks the count on every call
    if not (type(value) is int
            or isinstance(value, numbers.Integral) and not isinstance(value, bool)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValidationError(f"{name} must be at least {least}, got {value}")
