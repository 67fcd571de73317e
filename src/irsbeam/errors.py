"""Exception types shared across the package, and the one field grammar:
each scalar annotation's value test (check_field_types) and config-file
cast (config), and how "X | None" and "tuple[X, ...]" wrap a scalar."""

import numbers
from dataclasses import fields


class InvalidDimensionError(ValueError):
    """An array/vector size is inconsistent or non-positive."""


class InvalidParameterError(ValueError):
    """A parameter violates a divisibility or range requirement."""


# scalar annotation -> (value test, config-file cast); no config key is a bool
FIELD_SCALARS = {
    "int": (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool), int),
    "float": (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool), float),
    "str": (lambda v: isinstance(v, str), str),
    "bool": (lambda v: isinstance(v, bool), None),
}


def split_annotation(annotation: str) -> tuple[str, bool, bool]:
    """(scalar, tuple?, nullable?) of a field annotation, a string since
    annotations are postponed: ("int", True, True) for "tuple[int, ...] | None"."""
    scalar = annotation.removesuffix(" | None")
    inner = scalar.removeprefix("tuple[").removesuffix(", ...]")
    return inner, inner != scalar, scalar != annotation


def check_field_types(obj, error: type[ValueError]) -> None:
    """Raise `error` unless every field of the dataclass `obj` holds a
    value of its annotation: an int or numpy integer for "int", a real
    number for "float", a str for "str", none of them a bool, and a bool
    for "bool". "X | None" also takes None, "tuple[X, ...]" is a tuple or
    list of X, and other annotations are not checked."""
    for f in fields(obj):
        scalar, is_tuple, nullable = split_annotation(f.type)
        value = getattr(obj, f.name)
        if scalar not in FIELD_SCALARS or (value is None and nullable):
            continue
        test = FIELD_SCALARS[scalar][0]
        if is_tuple:
            ok = isinstance(value, (tuple, list)) and all(map(test, value))
        else:
            ok = test(value)
        if not ok:
            raise error(f"{f.name} must be of type {f.type}, got {value!r}")
