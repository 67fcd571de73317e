"""Flat key-value experiment config files.

Format: one `key = value` per line, blank lines ignored. A comment runs
from a `#` at the start of a line or after whitespace to the line's end,
so `output = a#b.csv` keeps its `#`. The keys are the ArrayConfig and
ExperimentConfig fields but `array`, typed and defaulted by them; `none`
is accepted where the type allows None. Unknown keys are an error so
typos fail fast. Sweep lists are comma-separated. How an annotation reads and how each
scalar is cast come from the field grammar in `errors`. Files are UTF-8;
a leading byte order mark is skipped.
"""

from __future__ import annotations

import re
from dataclasses import fields

from .arrays import ArrayConfig
from .errors import FIELD_SCALARS, InvalidParameterError, split_annotation
from .harness import ExperimentConfig

# File defaults for the fields the dataclasses leave required.
_DEFAULTS = {"n_t": 128, "m_y": 16, "m_z": 16, "r": 4, "q": 32, "l": 4}

# key -> (cast, tuple?, accepts none); a scalar outside FIELD_SCALARS fails at import
_KEYS = {
    f.name: (FIELD_SCALARS[scalar][1], is_tuple, nullable)
    for f in (*fields(ArrayConfig), *fields(ExperimentConfig))
    if f.name != "array"
    for scalar, is_tuple, nullable in [split_annotation(f.type)]
}
_ARRAY_KEYS = [f.name for f in fields(ArrayConfig)]


def _cast(key: str, lineno: int, value: str):
    cast, is_tuple, nullable = _KEYS[key]
    if value.lower() in ("none", ""):
        if not nullable:
            raise InvalidParameterError(f"line {lineno}: {key} needs a value")
        return None
    try:
        return tuple(map(cast, value.split(","))) if is_tuple else cast(value)
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
        line = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
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
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return parse_config_text(fh.read())
        except UnicodeDecodeError as err:
            raise InvalidParameterError(f"{path}: not UTF-8 ({err.reason})") from None
