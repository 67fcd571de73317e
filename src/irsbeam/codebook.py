"""Sparse multi-directional scanning plans and constant-modulus beams."""

from __future__ import annotations

import base64
import json
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property

import numpy as np

from .arrays import ArrayConfig, cascade_dictionary, dft_dictionary
from .errors import InvalidParameterError

IDEAL_SPARSE = "ideal-sparse"
CONSTANT_MODULUS = "constant-modulus"

# Constant-modulus solver: iteration cap, relative objective gain below
# which it stops, and first step length per IRS element.
CM_MAX_ITERS = 200
CM_TOL = 1e-6
CM_STEP0 = 1.0


@dataclass(frozen=True)
class CMResult:
    """Outcome of the unit-modulus beam optimization."""

    v: np.ndarray
    objectives: np.ndarray
    converged: bool


@dataclass(frozen=True)
class RoundEncoding:
    """One full-coverage round: two index partitions and what they imply.

    c_design (U x q) splits {0..M-1} into the IRS beams' design sets,
    a_supports (V x R) splits {0..N_t-1} into the precoders' supports.
    c_supports (U x q) are the rows each IRS beam senses: its design set,
    or for a constant-modulus beam its effective support; those may
    overlap or leave rows out, so they need not partition. row_bin/col_bin
    are the inverse maps used by the decoder (row i is sensed by IRS bin
    row_bin[i], column j by precoder col_bin[j]). A round measures
    |c_mat^H Lambda a_mat + N|. The physical beams v_beams/f_beams are
    built on first read, except a constant-modulus round's solved cm_beams
    (M x U). cm_converged (U,) says which of the solves that built this
    round converged before CM_MAX_ITERS steps; it is None in an
    ideal-sparse round and in a round decoded from stored beams.
    """

    cfg: ArrayConfig
    c_design: np.ndarray
    a_supports: np.ndarray
    c_supports: np.ndarray
    row_bin: np.ndarray
    col_bin: np.ndarray
    c_mat: np.ndarray = field(repr=False)
    a_mat: np.ndarray = field(repr=False)
    cm_beams: np.ndarray | None = field(default=None, repr=False)
    cm_converged: np.ndarray | None = field(default=None, repr=False)

    @property
    def u(self) -> int:
        return self.c_design.shape[0]

    @property
    def v(self) -> int:
        return self.a_supports.shape[0]

    @cached_property
    def v_beams(self) -> np.ndarray:
        """IRS reflect beams, M x U."""
        if self.cm_beams is not None:
            return self.cm_beams
        return cascade_dictionary(self.cfg) @ self.c_mat

    @cached_property
    def f_beams(self) -> np.ndarray:
        """BS precoders, N_t x V."""
        return dft_dictionary(self.cfg.n_t) @ self.a_mat


@dataclass(frozen=True)
class ScanPlan:
    """L independently randomized rounds of full-coverage scanning."""

    cfg: ArrayConfig
    q: int
    mode: str
    seed: int | None
    rounds: tuple[RoundEncoding, ...]

    @property
    def l(self) -> int:
        return len(self.rounds)


def _random_partition(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """A uniformly random split of {0..n-1} into n/size sorted rows."""
    return np.sort(rng.permutation(n).reshape(-1, size), axis=1)


def _project_unit(v: np.ndarray) -> np.ndarray:
    # repeated renormalization drives every |v_i| to exactly 1.0 in floats
    for _ in range(4):
        a = np.abs(v)
        if np.all(a == 1.0):
            break
        v = v / a
    return v


def optimize_constant_modulus(selected: np.ndarray) -> CMResult:
    """Maximize sum_q log2(1 + |v^H p_q|^2) over unit-modulus v.

    `selected` is the M x Q matrix of target dictionary columns. Projected
    gradient ascent on the per-entry unit circle with backtracking: compute
    the Euclidean gradient, remove its radial component, step, renormalize
    every entry to unit modulus. The accepted objective sequence is
    non-decreasing; init is the phase of the summed columns. It stops
    after CM_MAX_ITERS steps or once a step gains less than CM_TOL
    relative.
    """
    p = np.asarray(selected)
    # the conj().T layout picks BLAS's gemv kernel; a contiguous copy
    # would change the beams in their low bits
    ph = p.conj().T
    m = p.shape[0]
    s = p.sum(axis=1)
    v = np.where(np.abs(s) > 0, np.exp(1j * np.angle(s)), 1.0 + 0j)

    # inner = ph @ v and den = 1 + |inner|^2, kept in step with v
    inner = ph @ v
    den = 1.0 + np.abs(inner) ** 2
    objs = [float(np.sum(np.log2(den)))]
    converged = False
    step = CM_STEP0 * m
    for _ in range(CM_MAX_ITERS):
        # Wirtinger gradient of the objective w.r.t. conj(v).
        egrad = p @ (inner / den)
        rgrad = egrad - np.real(egrad * np.conj(v)) * v
        gnorm = np.linalg.norm(rgrad)
        if gnorm == 0:
            converged = True
            break
        accepted = False
        trial_step = step
        for _ in range(30):
            cand = v + trial_step * rgrad
            cand = cand / np.abs(cand)  # |cand_i| >= 1: rgrad_i is tangent to v_i
            cand_inner = ph @ cand
            cand_den = 1.0 + np.abs(cand_inner) ** 2
            obj = float(np.sum(np.log2(cand_den)))
            if obj > objs[-1]:
                accepted = True
                break
            trial_step *= 0.5
        if not accepted:
            converged = True
            break
        v, inner, den = cand, cand_inner, cand_den
        step = trial_step * 2.0
        objs.append(obj)
        if obj - objs[-2] < CM_TOL * max(1.0, abs(objs[-2])):
            converged = True
            break
    return CMResult(v=_project_unit(v), objectives=np.array(objs), converged=converged)


def effective_support(v: np.ndarray, q: int, bar_d: np.ndarray) -> np.ndarray:
    """Indices of the q largest |barD_R^H v| entries, lowest index on ties."""
    c = np.abs(bar_d.conj().T @ v)
    # stable sort on (-magnitude, index) gives lowest-index tie-breaks
    order = np.argsort(-c, kind="stable")
    return np.sort(order[:q])


def _assign_bins(c_mat: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """Map each row index to the bin (row of `supports`) that claims it.

    Effective supports of optimized beams need not partition the grid;
    contested or orphaned indices go to the bin sensing them most strongly.
    """
    owner = np.full(c_mat.shape[0], -1, dtype=int)
    owner[supports] = np.arange(len(supports))[:, None]
    contested = np.bincount(supports.ravel(), minlength=len(owner)) != 1
    if np.any(contested):
        owner[contested] = np.argmax(np.abs(c_mat[contested]), axis=1)
    return owner


def encode_round(
    cfg: ArrayConfig,
    c_design: np.ndarray,
    a_supports: np.ndarray,
    mode: str,
    cm_beams: np.ndarray | None = None,
) -> RoundEncoding:
    """Coefficients and bin maps of one round given its partitions.

    c_design (U x q) splits {0..M-1}, a_supports (V x R) splits
    {0..N_t-1}. Ideal-sparse beams put amplitude sqrt(M/q) exactly on
    their design set, precoders 1/sqrt(R) on their support;
    constant-modulus beams sense their effective supports. They are
    solved per design set unless cm_beams (M x U) from an earlier solve
    are given.
    """
    (u, q), v = c_design.shape, len(a_supports)
    a_mat = np.zeros((cfg.n_t, v), dtype=complex)
    a_mat[a_supports, np.arange(v)[:, None]] = float(1.0 / np.sqrt(cfg.r))
    cm_converged = None
    if mode == IDEAL_SPARSE:
        c_supports, cm_beams = c_design, None
        c_mat = np.zeros((cfg.m, u), dtype=complex)
        c_mat[c_design, np.arange(u)[:, None]] = float(np.sqrt(cfg.m / q))
    else:
        bar_d = cascade_dictionary(cfg)
        if cm_beams is None:
            solved = [optimize_constant_modulus(bar_d[:, sup]) for sup in c_design]
            cm_beams = np.stack([res.v for res in solved], axis=1)
            cm_converged = np.array([res.converged for res in solved])
        c_mat = bar_d.conj().T @ cm_beams
        c_supports = np.array([effective_support(b, q, bar_d) for b in cm_beams.T])
    return RoundEncoding(
        cfg=cfg,
        c_design=c_design,
        a_supports=a_supports,
        c_supports=c_supports,
        row_bin=_assign_bins(c_mat, c_supports),
        col_bin=_assign_bins(a_mat, a_supports),
        c_mat=c_mat,
        a_mat=a_mat,
        cm_beams=cm_beams,
        cm_converged=cm_converged,
    )


def check_round_shape(cfg: ArrayConfig, q: int, mode: str) -> None:
    """Raise InvalidParameterError unless rounds of bin size q in this
    mode can be built on the array: q must divide M, R must divide N_t."""
    if q < 1 or cfg.m % q != 0:
        raise InvalidParameterError(f"bin size q={q} must divide M={cfg.m}")
    if cfg.n_t % cfg.r != 0:
        raise InvalidParameterError(f"RF chains r={cfg.r} must divide N_t={cfg.n_t}")
    if mode not in (IDEAL_SPARSE, CONSTANT_MODULUS):
        raise InvalidParameterError(f"unknown plan mode {mode!r}")


def build_scan_plan(
    cfg: ArrayConfig,
    q: int,
    l: int,
    mode: str = IDEAL_SPARSE,
    rng: np.random.Generator | int | np.integer | None = None,
) -> ScanPlan:
    """L independently randomized rounds; total budget T = U*V*L. Each
    round splits {0..M-1} into q-sets, then {0..N_t-1} into R-sets."""
    if l < 1:
        raise InvalidParameterError("at least one round is required")
    check_round_shape(cfg, q, mode)
    seed = int(rng) if isinstance(rng, (int, np.integer)) else None
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    rounds = tuple(
        encode_round(cfg, _random_partition(cfg.m, q, rng),
                     _random_partition(cfg.n_t, cfg.r, rng), mode)
        for _ in range(l)
    )
    return ScanPlan(cfg=cfg, q=q, mode=mode, seed=seed, rounds=rounds)


def _round_doc(rnd: RoundEncoding) -> dict:
    doc = {"c_design": rnd.c_design.tolist(), "a_supports": rnd.a_supports.tolist()}
    if rnd.cm_beams is not None:
        doc["cm_beams"] = base64.b64encode(rnd.cm_beams.astype("<c16").tobytes()).decode()
    return doc


def plan_to_json(plan: ScanPlan) -> str:
    """Serialize the plan: the array, q, mode and each round's design
    partitions. The ideal-sparse amplitudes follow from M, q and R. A
    constant-modulus round also stores its solved beams exactly, as
    base64 of little-endian complex128 ("<c16") bytes of the M x U array
    in row-major order, so a reload runs no solver."""
    doc = {
        **asdict(plan.cfg),
        "q": plan.q,
        "mode": plan.mode,
        "seed": plan.seed,
        "rounds": [_round_doc(rnd) for rnd in plan.rounds],
    }
    return json.dumps(doc, indent=2)


def _parse_partition(name: str, sets, n: int, size: int) -> np.ndarray:
    """A list of integer index lists that must split {0..n-1} into sets
    of `size` each, as an (n/size) x size array."""
    try:
        parts = np.array(sets if isinstance(sets, list) else None)
    except ValueError:  # ragged lists
        parts = np.empty(0)
    if parts.dtype.kind not in "iu" or parts.ndim != 2 or parts.shape[1] != size or not (
        np.array_equal(np.sort(parts, axis=None), np.arange(n))
    ):
        raise InvalidParameterError(
            f"{name} must partition range({n}) into sets of {size} integers"
        )
    return parts


def _parse_cm_beams(name: str, rnd: dict, m: int, u: int) -> np.ndarray:
    """A constant-modulus round's stored beams (M x U, unit modulus)."""
    if "cm_beams" not in rnd:
        raise InvalidParameterError(
            f"{name} stores no cm_beams (written by an older version); "
            "rebuild the plan with `irsbeam plan`"
        )
    try:
        raw = base64.b64decode(rnd["cm_beams"], validate=True)
    except (TypeError, ValueError):  # binascii.Error is a ValueError
        raise InvalidParameterError(f"{name} cm_beams is not base64") from None
    if len(raw) != m * u * 16:
        raise InvalidParameterError(
            f"{name} cm_beams holds {len(raw)} bytes, not {m}x{u} complex128"
        )
    beams = np.frombuffer(raw, dtype="<c16").reshape(m, u).astype(complex)
    if not np.all(np.isfinite(beams)) or np.abs(np.abs(beams) - 1.0).max() > 1e-12:
        raise InvalidParameterError(f"{name} cm_beams must be finite and unit-modulus")
    return beams


def plan_from_json(text: str) -> ScanPlan:
    """Rebuild a plan from its serialized form; this is a pure decode.

    Keys written by older versions (beta, gamma, c_supports) are ignored.
    Text that is not a JSON object, rounds that are not a list of objects,
    a seed that is not null or a non-negative integer, a missing key, a
    non-integer size, a shape check_round_shape rejects, round sets that
    do not partition the index ranges, a constant-modulus round without
    valid stored beams, or stored beams in an ideal-sparse round raise
    InvalidParameterError.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(f"plan is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidParameterError("plan must be a JSON object")
    try:
        array = {f.name: doc[f.name] for f in fields(ArrayConfig)}
        q, mode, seed, docs = doc["q"], doc["mode"], doc["seed"], doc["rounds"]
        if not isinstance(docs, list) or not all(isinstance(d, dict) for d in docs):
            raise InvalidParameterError("plan rounds must be a list of objects")
        raw = [(rnd, rnd["c_design"], rnd["a_supports"]) for rnd in docs]
    except KeyError as exc:
        raise InvalidParameterError(f"plan is missing key {exc}") from None
    if seed is not None and (type(seed) is not int or seed < 0):
        raise InvalidParameterError("plan seed must be null or a non-negative integer")
    if type(q) is not int or any(
        type(array[f.name]) not in ((int, float) if f.type == "float" else (int,))
        for f in fields(ArrayConfig)
    ):
        raise InvalidParameterError("plan sizes must be integers, spacing_ratio a number")
    cfg = ArrayConfig(**array)
    check_round_shape(cfg, q, mode)
    if not raw:
        raise InvalidParameterError("at least one round is required")
    rounds = []
    for l, (rnd, c_design, a_supports) in enumerate(raw):
        cm_beams = None
        if mode == CONSTANT_MODULUS:
            cm_beams = _parse_cm_beams(f"round {l}", rnd, cfg.m, cfg.m // q)
        elif "cm_beams" in rnd:
            raise InvalidParameterError(f"round {l} of an ideal-sparse plan stores cm_beams")
        rounds.append(encode_round(
            cfg,
            _parse_partition(f"round {l} c_design", c_design, cfg.m, q),
            _parse_partition(f"round {l} a_supports", a_supports, cfg.n_t, cfg.r),
            mode,
            cm_beams=cm_beams,
        ))
    return ScanPlan(cfg=cfg, q=q, mode=mode, seed=seed, rounds=tuple(rounds))
