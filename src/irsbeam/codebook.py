"""Sparse multi-directional scanning plans, constant-modulus beams, and
the noiseless bin readings a plan takes of a channel (ScanPlan.readings)."""

from __future__ import annotations

import base64
import json
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property

import numpy as np

from .arrays import ArrayConfig, cascade_dictionary, dft_dictionary
from .errors import InvalidDimensionError, InvalidParameterError

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
    """Round l of a ScanPlan: views of the plan's stacks at index l.

    c_design (U x q) splits {0..M-1} into the IRS beams' design sets,
    a_supports (V x R) splits {0..N_t-1} into the precoders' supports.
    c_supports (U x q) are the rows each IRS beam senses: its design set,
    or for a constant-modulus beam its effective support, the q rows of
    |barD^H v| with the largest entries; those may overlap or leave rows
    out, so they need not partition. row_bin/col_bin are the inverse maps
    used by the decoder (row i is sensed by IRS bin row_bin[i], column j
    by precoder col_bin[j]). A round's readings are formed by its plan
    (ScanPlan.readings). Only a constant-modulus round's
    solved cm_beams (M x U) are stored; the physical beams v_beams and
    f_beams are sums of dictionary columns, built on first read.
    """

    cfg: ArrayConfig
    c_design: np.ndarray
    a_supports: np.ndarray
    c_supports: np.ndarray
    row_bin: np.ndarray
    col_bin: np.ndarray
    cm_beams: np.ndarray | None = field(default=None, repr=False)

    @cached_property
    def v_beams(self) -> np.ndarray:
        """IRS reflect beams, M x U: sqrt(M/q) times the sum of the
        cascade dictionary's columns on each design set, or cm_beams."""
        if self.cm_beams is not None:
            return self.cm_beams
        q = self.c_design.shape[1]
        return np.sqrt(self.cfg.m / q) * cascade_dictionary(self.cfg)[:, self.c_design].sum(axis=2)

    @cached_property
    def f_beams(self) -> np.ndarray:
        """BS precoders, N_t x V: the DFT columns of each support over sqrt(R)."""
        return dft_dictionary(self.cfg.n_t)[:, self.a_supports].sum(axis=2) / np.sqrt(self.cfg.r)


@dataclass(frozen=True, eq=False)
class ScanPlan:
    """L independently randomized rounds of full-coverage scanning, built
    by encode_rounds: each RoundEncoding field but cfg, stacked read-only
    over a leading round axis (c_design L x U x q, row_bin L x M, ...).
    `rounds` are the RoundEncoding views of each round, made on first read.
    A constant-modulus plan keeps its beams' image barD^H v (cm_image,
    L x M x U), which its readings read. One solved here also says which
    solves converged before CM_MAX_ITERS steps (cm_converged, L x U) and
    how many steps each took (cm_iters); they are None in any other plan.
    """

    cfg: ArrayConfig
    mode: str
    seed: int | None
    c_design: np.ndarray
    a_supports: np.ndarray
    c_supports: np.ndarray
    row_bin: np.ndarray
    col_bin: np.ndarray
    cm_beams: np.ndarray | None = field(default=None, repr=False)
    cm_image: np.ndarray | None = field(default=None, repr=False)
    cm_converged: np.ndarray | None = field(default=None, repr=False)
    cm_iters: np.ndarray | None = field(default=None, repr=False)

    @property
    def l(self) -> int:
        return len(self.c_design)

    @property
    def q(self) -> int:
        return self.c_design.shape[2]

    @cached_property
    def rounds(self) -> tuple[RoundEncoding, ...]:
        stacks = [getattr(self, f.name) for f in fields(RoundEncoding)[1:]]
        return tuple(RoundEncoding(self.cfg, *(s if s is None else s[l] for s in stacks))
                     for l in range(self.l))

    def readings(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The noiseless readings of every round, L x U x V, of
        Lambda = X Y with X M x P and Y P x N_t.

        Each round's rows C^H X: an ideal-sparse row bin sums the rows of X
        in its design set, scaled by sqrt(M/q); a constant-modulus beam v
        reads (barD^H v)^H X from cm_image. Each precoder sums the columns
        of Y in its support, scaled by 1/sqrt(R). Both bin sums gather all
        L rounds with the bin's members on a leading axis, so every bin is
        summed in member order, whatever P. The rows times the column sums
        is a sum of P outer products; nothing of size M x N_t is made.
        """
        l, u, q = self.c_design.shape
        v, r = self.a_supports.shape[1:]
        if not l:
            raise InvalidDimensionError("a plan with at least one round required")

        def bin_sums(a: np.ndarray, members: np.ndarray) -> np.ndarray:
            # rows of `a` by bin member, summed over that leading axis as real
            # and imaginary parts: numpy sums a lone complex bin pairwise
            parts = np.asarray(a, dtype=complex).take(members.transpose(2, 0, 1).ravel(), axis=0)
            return parts.view(float).reshape(members.shape[2], -1).sum(axis=0).view(complex)

        scale = 1.0 / np.sqrt(r)
        if self.cm_image is None:
            rows = bin_sums(x, self.c_design).reshape(l, u, -1)
            scale *= np.sqrt(self.cfg.m / q)
        else:
            rows = np.stack([image.conj().T @ x for image in self.cm_image])
        y_bins = bin_sums(y.T, self.a_supports).reshape(l, 1, v, -1)
        z = rows[..., :1] * y_bins[..., 0]
        for p in range(1, y_bins.shape[-1]):
            z += rows[..., p:p + 1] * y_bins[..., p]
        z *= scale
        return z


def _project_unit(v: np.ndarray) -> np.ndarray:
    # repeated renormalization drives every |v_i| to exactly 1.0 in floats
    for _ in range(4):
        a = np.abs(v)
        if np.all(a == 1.0):
            break
        v = v / a
    return v


def _ascend(pt: np.ndarray) -> list[CMResult]:
    """optimize_constant_modulus on B design sets in lockstep.

    `pt` (B x q x M) stacks each set's p^T (p is M x q), and is
    overwritten as the batch shrinks. Each beam keeps its own step
    length, backtracking, objective history and stop flag, and leaves
    the batch once it stops, so it takes exactly the steps it would take
    alone. For that every product is one gemv per slice on p or p^H in
    the caller's layout (slice.T and slice.conj()): a contiguous copy
    would change the kernel and the low bits, and conjugating a product
    in place of its matrix flips the signs of zeros.
    """
    b, _, m = pt.shape
    ph = pt.conj()
    results: list[CMResult] = [None] * b
    slot = np.arange(b)  # the beam each row of the active batch holds
    objs = np.zeros((b, CM_MAX_ITERS + 1))
    s = pt.sum(axis=1)
    v = np.where(np.abs(s) > 0, np.exp(1j * np.angle(s)), 1.0 + 0j)

    # inner = p^H v and den = 1 + |inner|^2, kept in step with v
    inner = (ph @ v[..., None])[..., 0]
    den = 1.0 + np.abs(inner) ** 2
    objs[:, 0] = last = np.log2(den).sum(axis=1)
    step = np.full(b, CM_STEP0 * m)
    for it in range(1, CM_MAX_ITERS + 1):
        k = len(slot)
        # Wirtinger gradient of the objective w.r.t. conj(v)
        egrad = (pt[:k].transpose(0, 2, 1) @ (inner / den)[..., None])[..., 0]
        rgrad = egrad - np.real(egrad * np.conj(v)) * v
        # a beam whose gradient has zero squared norm takes no step
        searching = (rgrad.view(float) ** 2).sum(axis=1) != 0
        new = last.copy()
        trial = step  # halved in place while a beam searches
        for _ in range(30):
            cand = v + trial[:, None] * rgrad
            cand = cand / np.abs(cand)  # |cand_i| >= 1: rgrad_i is tangent to v_i
            cand_inner = (ph[:k] @ cand[..., None])[..., 0]
            cand_den = 1.0 + np.abs(cand_inner) ** 2
            obj = np.log2(cand_den).sum(axis=1)
            hit = searching & (obj > last)
            if hit.all():  # every beam accepts this trial, none an earlier one
                v, inner, den, new = cand, cand_inner, cand_den, obj
                break
            if hit.any():
                for x, y in ((v, cand), (inner, cand_inner), (den, cand_den)):
                    np.copyto(x, y, where=hit[:, None])
                np.copyto(new, obj, where=hit)
                searching ^= hit
                if not searching.any():
                    break
            np.multiply(trial, 0.5, out=trial, where=searching)
        objs[slot, it] = new
        # a beam that took no step kept new == last and has converged
        accepted = new > last
        converged = ~accepted | (new - last < CM_TOL * np.maximum(1.0, np.abs(last)))
        stop = converged | (it == CM_MAX_ITERS)
        for i in np.flatnonzero(stop):
            results[slot[i]] = CMResult(
                v=_project_unit(v[i]),
                objectives=objs[slot[i], : it + accepted[i]].copy(),
                converged=bool(converged[i]),
            )
        step, last = trial * 2.0, new
        if stop.any():
            keep = np.flatnonzero(~stop)
            # move the running sets forward in place: copying the
            # compacted stacks would hold both copies at once
            for dst, src in enumerate(keep):
                pt[dst], ph[dst] = pt[src], ph[src]
            slot, v, inner, den, step, last = (
                x[keep] for x in (slot, v, inner, den, step, last)
            )
            if not len(slot):
                break
    return results


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
    # a batch of one never shrinks, so `selected` is left as it is
    return _ascend(np.asarray(selected).T[None])[0]


def _assign_bins(n: int, supports: np.ndarray, image: np.ndarray | None = None) -> np.ndarray:
    """Map each index in {0..n-1} to the bin (row of `supports`) that
    claims it, round by round: supports is L x bins x size, the map L x n.

    Supports that partition the range are inverted with one scatter.
    Effective supports of optimized beams (given with their beamspace
    images barD^H v, L x n x U) need not partition the grid; contested or
    orphaned indices go to the bin sensing them most strongly.
    """
    l, bins = supports.shape[:2]
    owner = np.empty((l, n), dtype=int)
    owner[np.arange(l)[:, None, None], supports] = np.arange(bins)[:, None]
    if image is not None:
        claims = supports + n * np.arange(l)[:, None, None]
        contested = np.bincount(claims.ravel(), minlength=l * n).reshape(l, n) != 1
        if np.any(contested):
            owner[contested] = np.argmax(np.abs(image[contested]), axis=1)
    return owner


def encode_rounds(
    cfg: ArrayConfig,
    c_design: np.ndarray,
    a_supports: np.ndarray,
    mode: str,
    cm_beams: np.ndarray | None = None,
    seed: int | None = None,
) -> ScanPlan:
    """The plan of L rounds given their partitions, with their bin maps.

    c_design (L x U x q) splits {0..M-1} in every round, a_supports
    (L x V x R) splits {0..N_t-1}; the plan keeps both, read-only.
    Ideal-sparse beams put amplitude sqrt(M/q) exactly on their design
    set, precoders 1/sqrt(R) on their support; constant-modulus beams
    sense their effective supports. Unless cm_beams (L x M x U) from an
    earlier solve are given, each round's U design sets are solved
    together, each beam exactly as optimize_constant_modulus solves it
    alone. Their image barD^H cm_beams bins the rows and is kept as cm_image.
    """
    cm_image = cm_converged = cm_iters = None
    if mode == IDEAL_SPARSE:
        c_supports, cm_beams = c_design, None
        row_bin = _assign_bins(cfg.m, c_design)
    else:
        bar_d = cascade_dictionary(cfg)
        if cm_beams is None:
            # one batch per round; slice u of barD^T[c_design[l]] is
            # barD[:, c_design[l, u]].T in that matrix's layout
            solved = [_ascend(bar_d.T[c]) for c in c_design]
            cm_beams = np.array([np.stack([res.v for res in s], axis=1) for s in solved])
            cm_converged = np.array([[res.converged for res in s] for s in solved])
            cm_iters = np.array([[len(res.objectives) - 1 for res in s] for s in solved])
        bar_h = bar_d.conj().T
        # Each beam senses the q rows it reaches most strongly, lowest
        # index first on ties. Ranked by one gemv per beam, not by the
        # gemm barD^H cm_beams: their low bits differ and flip exact ties.
        gains = np.abs(bar_h @ cm_beams.transpose(0, 2, 1)[..., None])[..., 0]
        order = np.argsort(-gains, axis=2, kind="stable")
        c_supports = np.sort(order[..., : c_design.shape[2]], axis=2)
        cm_image = bar_h @ cm_beams
        row_bin = _assign_bins(cfg.m, c_supports, cm_image)
    stacks = (c_design, a_supports, c_supports, row_bin, _assign_bins(cfg.n_t, a_supports),
              cm_beams, cm_image, cm_converged, cm_iters)  # ScanPlan's fields after seed
    for stack in stacks:
        if stack is not None:
            stack.flags.writeable = False
    return ScanPlan(cfg, mode, seed, *stacks)


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
    # per round the rows' permutation, then the columns', as rng.permutation draws them
    c_design, a_supports = (np.arange(n)[None].repeat(l, axis=0) for n in (cfg.m, cfg.n_t))
    for rows, cols in zip(c_design, a_supports):
        rng.shuffle(rows)
        rng.shuffle(cols)
    c_design, a_supports = c_design.reshape(l, -1, q), a_supports.reshape(l, -1, cfg.r)
    c_design.sort(axis=2)
    a_supports.sort(axis=2)
    return encode_rounds(cfg, c_design, a_supports, mode, seed=seed)


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
    q that is not an integer, array fields ArrayConfig rejects, a shape
    check_round_shape rejects, round sets that do not partition the index
    ranges, a constant-modulus round without valid stored beams, or stored
    beams in an ideal-sparse round raise InvalidParameterError.
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
    if type(q) is not int:
        raise InvalidParameterError("plan q must be an integer")
    try:
        cfg = ArrayConfig(**array)
    except InvalidDimensionError as exc:
        raise InvalidParameterError(f"plan array: {exc}") from None
    check_round_shape(cfg, q, mode)
    if not raw:
        raise InvalidParameterError("at least one round is required")
    c_design, a_supports, cm_beams = [], [], []
    for l, (rnd, c_sets, a_sets) in enumerate(raw):
        if mode == CONSTANT_MODULUS:
            cm_beams.append(_parse_cm_beams(f"round {l}", rnd, cfg.m, cfg.m // q))
        elif "cm_beams" in rnd:
            raise InvalidParameterError(f"round {l} of an ideal-sparse plan stores cm_beams")
        c_design.append(_parse_partition(f"round {l} c_design", c_sets, cfg.m, q))
        a_supports.append(_parse_partition(f"round {l} a_supports", a_sets, cfg.n_t, cfg.r))
    return encode_rounds(cfg, np.array(c_design), np.array(a_supports), mode,
                         np.array(cm_beams) if cm_beams else None, seed)
