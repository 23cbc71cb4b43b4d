"""Attribute domains and value coercion for the relational layer.

The engine supports a deliberately small set of domains — enough to model
the paper's schemas and the synthetic workloads:

``str``
    arbitrary short strings (names, identifiers);
``text``
    long strings that participate in word-level keyword matching;
``int`` / ``float``
    numbers;
``bool``
    booleans.

Values are coerced on insert so that values given as strings (a mutation
file, say) behave identically to programmatically constructed ones.  ``None`` is always
accepted and denotes SQL ``NULL``.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import TypeCoercionError

__all__ = ["SUPPORTED_TYPES", "coerce_value", "is_text_type"]

_TRUE_TOKENS = frozenset(("true", "t", "yes", "y", "1"))
_FALSE_TOKENS = frozenset(("false", "f", "no", "n", "0"))


def _coerce_bool(value: object) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)) and value in (0, 1):
        return bool(value)
    if isinstance(value, str):
        token = value.strip().lower()
        if token in _TRUE_TOKENS:
            return True
        if token in _FALSE_TOKENS:
            return False
    raise TypeCoercionError("cannot coerce to bool", value=value)


def _coerce_int(value: object) -> int:
    if isinstance(value, bool):
        raise TypeCoercionError("bool is not an int", value=value)
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            return int(value.strip())
        except ValueError:
            pass
    raise TypeCoercionError("cannot coerce to int", value=value)


def _coerce_float(value: object) -> float:
    if isinstance(value, bool):
        raise TypeCoercionError("bool is not a float", value=value)
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value.strip())
        except ValueError:
            pass
    raise TypeCoercionError("cannot coerce to float", value=value)


def _coerce_str(value: object) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float, bool)):
        return str(value)
    raise TypeCoercionError("cannot coerce to str", value=value)


_COERCERS: dict[str, Callable[[object], object]] = {
    "str": _coerce_str,
    "text": _coerce_str,
    "int": _coerce_int,
    "float": _coerce_float,
    "bool": _coerce_bool,
}

SUPPORTED_TYPES = frozenset(_COERCERS)


def coerce_value(value: object, data_type: str) -> Optional[object]:
    """Coerce ``value`` to ``data_type``; ``None`` passes through as NULL.

    Raises :class:`~repro.errors.TypeCoercionError` for unsupported types or
    unconvertible values.
    """
    if value is None:
        return None
    try:
        coercer = _COERCERS[data_type]
    except KeyError:
        raise TypeCoercionError("unsupported data type", data_type=data_type) from None
    return coercer(value)


def is_text_type(data_type: str) -> bool:
    """True for domains whose values join word-level keyword matching."""
    return data_type == "text"
