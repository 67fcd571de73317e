"""Flat key-value experiment config files.

Format: one `key = value` per line, `#` comments, blank lines ignored.
Unknown keys are an error so typos fail fast. Sweep lists are
comma-separated.
"""

from __future__ import annotations

from .arrays import ArrayConfig
from .errors import InvalidParameterError
from .harness import ExperimentConfig

_ARRAY_KEYS = {"n_t", "m_y", "m_z", "r", "spacing_ratio"}
_INT_KEYS = {"n_t", "m_y", "m_z", "r", "q", "l", "trials", "seed",
             "paths_bs_irs", "paths_irs_user"}
_FLOAT_KEYS = {"spacing_ratio", "snr_db", "p_fa",
               "rician_bs_irs_db", "rician_irs_user_db"}
_LIST_KEYS = {"snr_sweep", "t_sweep", "m_sweep"}
_STR_KEYS = {"mode", "scenario", "output"}
_ALL_KEYS = _ARRAY_KEYS | _INT_KEYS | _FLOAT_KEYS | _LIST_KEYS | _STR_KEYS
# Keys whose value may be `none` (or empty): no noise, the scenario's
# default Rician factor, standard output.
_NULLABLE_KEYS = {"snr_db", "rician_irs_user_db", "output"}


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse config text; a malformed line or value raises
    InvalidParameterError naming its line."""
    raw: dict[str, tuple[int, str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidParameterError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _ALL_KEYS:
            raise InvalidParameterError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise InvalidParameterError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = (lineno, value)

    def pop(key, cast, default=None):
        if key not in raw:
            return default
        lineno, value = raw.pop(key)
        if value.lower() in ("none", ""):
            if key not in _NULLABLE_KEYS:
                raise InvalidParameterError(f"line {lineno}: {key} needs a value")
            return None
        try:
            return cast(value)
        except ValueError:
            raise InvalidParameterError(
                f"line {lineno}: invalid value {value!r} for {key}"
            ) from None

    def int_list(value: str) -> tuple[int, ...]:
        return tuple(int(v) for v in value.split(","))

    def float_list(value: str) -> tuple[float, ...]:
        return tuple(float(v) for v in value.split(","))

    array = ArrayConfig(
        n_t=pop("n_t", int, 128),
        m_y=pop("m_y", int, 16),
        m_z=pop("m_z", int, 16),
        r=pop("r", int, 4),
        spacing_ratio=pop("spacing_ratio", float, 0.5),
    )
    kwargs = dict(
        array=array,
        q=pop("q", int, 32),
        l=pop("l", int, 4),
        mode=pop("mode", str, "ideal-sparse"),
        scenario=pop("scenario", str, "los"),
        snr_db=pop("snr_db", float, -20.0),
        snr_sweep=pop("snr_sweep", float_list, ()),
        t_sweep=pop("t_sweep", int_list, ()),
        m_sweep=pop("m_sweep", int_list, ()),
        trials=pop("trials", int, 500),
        seed=pop("seed", int, 0),
        p_fa=pop("p_fa", float, 0.1),
        paths_bs_irs=pop("paths_bs_irs", int, 2),
        paths_irs_user=pop("paths_irs_user", int, 2),
        rician_bs_irs_db=pop("rician_bs_irs_db", float, 13.2),
        rician_irs_user_db=pop("rician_irs_user_db", float, None),
        output=pop("output", str, None),
    )
    return ExperimentConfig(**kwargs)


def parse_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read())
