"""Exception types and the argument and cap checks shared across the package."""

from __future__ import annotations


class CapExceededError(RuntimeError):
    """A computation would exceed its configured resource cap.

    ``required`` and ``limit`` describe the failed budget check; ``level``
    names the first infeasible bracketing level where that applies, and
    ``partial`` may carry results completed before the cap was hit.
    """

    def __init__(self, message, *, required=None, limit=None, level=None, partial=None):
        super().__init__(message)
        self.required = required
        self.limit = limit
        self.level = level
        self.partial = partial


class ParseError(ValueError):
    """Malformed textual input (bracketing, tuple, or partition block)."""


class SchemaError(ValueError):
    """A structured document does not match the expected schema."""


class UnsupportedOperationError(RuntimeError):
    """The requested operation is not available for this object."""


def check_int(value, name: str, minimum: int, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` unless ``value`` is an ``int`` (not a ``bool``) of at least ``minimum``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")


def require_cap(required: int, cap: int | None, default: int, what: str,
                level: int | None = None) -> None:
    """Raise :class:`CapExceededError` when ``required`` exceeds ``cap``.

    ``cap`` of ``None`` means ``default``; any other cap must be a
    nonnegative ``int`` and is checked before it is compared.  ``what``
    states the need, e.g. ``"level 3 holds 5 bracketings"``.
    """
    if cap is None:
        cap = default
    check_int(cap, "cap", 0)
    if required > cap:
        raise CapExceededError(f"{what}, more than the cap of {cap}",
                               required=required, limit=cap, level=level)
