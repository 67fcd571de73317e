"""Flat key-value experiment config files.

Format: one `key = value` per line, `#` comments, blank lines ignored.
The keys are the ArrayConfig and ExperimentConfig fields but `array`
and `compute_bgr`, typed and defaulted by them; `none` is accepted where
the type allows None. Unknown keys are an error so typos fail fast.
Sweep lists are comma-separated.
"""

from __future__ import annotations

from dataclasses import fields

from .arrays import ArrayConfig
from .errors import InvalidParameterError
from .harness import ExperimentConfig

# field annotation (a string: annotations are postponed) -> value cast
_CASTS = {
    "int": int,
    "float": float,
    "str": str,
    "tuple[int, ...]": lambda text: tuple(int(v) for v in text.split(",")),
    "tuple[float, ...]": lambda text: tuple(float(v) for v in text.split(",")),
}
_NULLABLE = " | None"

# File defaults for the fields the dataclasses leave required.
_DEFAULTS = {"n_t": 128, "m_y": 16, "m_z": 16, "r": 4, "q": 32, "l": 4}

# key -> (cast, accepts none); a field type with no cast fails at import
_KEYS = {
    f.name: (_CASTS[f.type.removesuffix(_NULLABLE)], f.type.endswith(_NULLABLE))
    for f in (*fields(ArrayConfig), *fields(ExperimentConfig))
    if f.name not in ("array", "compute_bgr")
}
_ARRAY_KEYS = [f.name for f in fields(ArrayConfig)]


def _cast(key: str, lineno: int, value: str):
    cast, nullable = _KEYS[key]
    if value.lower() in ("none", ""):
        if not nullable:
            raise InvalidParameterError(f"line {lineno}: {key} needs a value")
        return None
    try:
        return cast(value)
    except ValueError:
        raise InvalidParameterError(
            f"line {lineno}: invalid value {value!r} for {key}"
        ) from None


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse config text; a malformed line or value raises
    InvalidParameterError naming its line, and a value ExperimentConfig
    or ArrayConfig rejects raises their error."""
    given = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidParameterError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise InvalidParameterError(f"line {lineno}: unknown key {key!r}")
        if key in given:
            raise InvalidParameterError(f"line {lineno}: duplicate key {key!r}")
        given[key] = _cast(key, lineno, value)
    values = {**_DEFAULTS, **given}
    array = ArrayConfig(**{k: values.pop(k) for k in _ARRAY_KEYS if k in values})
    return ExperimentConfig(array=array, **values)


def parse_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read())
