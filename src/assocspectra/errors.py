"""Exception types and the argument and cap checks shared across the package."""

from __future__ import annotations

__all__ = ["CapExceededError", "ParseError", "SchemaError", "UnsupportedOperationError"]


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


def check_nonnegative(value: int, name: str) -> None:
    """Raise ``ValueError`` when ``value`` is negative."""
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")


_SHOWN_BITS = 10_000  # str() refuses ints past the interpreter's digit limit (4300 by default)


def _show(x: int) -> str:
    return str(x) if x.bit_length() < _SHOWN_BITS else f"at least 2**{x.bit_length() - 1}"


def require_cap(required: int, cap: int | None, default: int, what: str,
                level: int | None = None) -> int:
    """Raise :class:`CapExceededError` when ``required`` exceeds ``cap``; else return ``required``.

    ``cap`` of ``None`` means ``default``; any other cap must be a
    nonnegative ``int`` and is checked before it is compared.  ``what``
    states the need with ``{}`` for its size, e.g.
    ``"level 3 holds {} bracketings"``.
    """
    if cap is None:
        cap = default
    check_int(cap, "cap", 0)
    if required > cap:
        raise CapExceededError(f"{what.format(_show(required))}, more than the cap of {_show(cap)}",
                               required=required, limit=cap, level=level)
    return required


def require_level_cap(n: int, count, cap: int | None, default: int, what: str,
                      level: int | None = None) -> int:
    """:func:`require_cap` for ``count()``, a need over occurrence number ``n >= 0``; returns it.

    Every level size, tuple family ``M(n, k, p)`` and level cell count is at
    least ``2**(n-1)`` for ``n >= 1``.  When that bound alone exceeds the cap
    and is too large to print (``n > 10000``), the need is refused before
    ``count()`` runs, and the error holds ``required=None``.
    """
    check_nonnegative(n, "occurrence number")
    if cap is None:
        cap = default
    check_int(cap, "cap", 0)
    if n > _SHOWN_BITS and n - 1 > cap.bit_length():
        raise CapExceededError(f"{what.format(f'at least 2**{n - 1}')}, more than the cap of "
                               f"{_show(cap)}", limit=cap, level=level)
    return require_cap(count(), cap, default, what, level)
