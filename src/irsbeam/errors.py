"""Exception types shared across the package, and the config field check
that raises them."""

import numbers
from dataclasses import fields


class InvalidDimensionError(ValueError):
    """An array/vector size is inconsistent or non-positive."""


class InvalidParameterError(ValueError):
    """A parameter violates a divisibility or range requirement."""


# field annotation (a string: annotations are postponed) -> value test
_FIELD_TESTS = {
    "int": lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
}


def check_field_types(obj, error: type[ValueError]) -> None:
    """Raise `error` unless every field of the dataclass `obj` holds a
    value of its annotation: an int or numpy integer for "int", a real
    number for "float", a str for "str", none of them a bool, and a bool
    for "bool". "X | None" also takes None, "tuple[X, ...]" is a tuple or
    list of X, and other annotations are not checked."""
    for f in fields(obj):
        kind, value = f.type.removesuffix(" | None"), getattr(obj, f.name)
        if value is None and kind != f.type:
            continue
        if kind.startswith("tuple["):
            test = _FIELD_TESTS[kind[len("tuple["):-len(", ...]")]]
            ok = isinstance(value, (tuple, list)) and all(map(test, value))
        elif kind in _FIELD_TESTS:
            ok = _FIELD_TESTS[kind](value)
        else:
            continue
        if not ok:
            raise error(f"{f.name} must be of type {f.type}, got {value!r}")
