"""Monte Carlo experiment runner: metrics, SNR calibration, sweeps."""

from __future__ import annotations

import csv
import ctypes
import glob
import io
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .arrays import ArrayConfig
from .channel import (
    AlignmentEstimate,
    CascadeChannel,
    assemble_channels,
    db_to_power,
    sample_paths,
)
from .codebook import IDEAL_SPARSE, build_scan_plan, check_round_shape
from .decoder import (
    decode_los,
    decode_nlos,
    rayleigh_threshold,
    synthesize_measurements,
)
from .errors import InvalidParameterError, check_field_types

WORKERS_ENV = "IRSBEAM_WORKERS"

# Thread-count setters of the OpenBLAS that numpy wheels bundle: the
# scipy-openblas build of numpy 2, then the build of numpy 1.x.
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_")

# Full-CSI reference beams: alternating-step cap and relative objective
# gain below which the alternation stops.
BGR_MAX_ITERS = 100
BGR_TOL = 1e-8

@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one sweep needs; immutable and picklable."""

    array: ArrayConfig
    q: int
    l: int
    mode: str = IDEAL_SPARSE
    scenario: str = "los"
    snr_db: float | None = -20.0
    snr_sweep: tuple[float, ...] = ()
    t_sweep: tuple[int, ...] = ()
    m_sweep: tuple[int, ...] = ()
    trials: int = 500
    seed: int = 0
    p_fa: float = 0.1
    paths_bs_irs: int = 2
    paths_irs_user: int = 2
    rician_bs_irs_db: float = 13.2
    rician_irs_user_db: float | None = None
    compute_bgr: bool = True
    output: str | None = None

    def __post_init__(self):
        # reject every value a trial would, before any worker starts
        check_field_types(self, InvalidParameterError)
        check_round_shape(self.array, self.q, self.mode)
        if self.l < 1 or any(l < 1 for l in self.t_sweep):
            raise InvalidParameterError("l and every t_sweep entry must be >= 1")
        if self.trials < 1:
            raise InvalidParameterError("trials must be >= 1")
        if self.seed < 0:
            raise InvalidParameterError("seed must be >= 0")
        if self.scenario not in ("los", "nlos"):
            raise InvalidParameterError("scenario must be 'los' or 'nlos'")
        if not 0 < self.p_fa < 1:
            raise InvalidParameterError("p_fa must lie in (0, 1)")
        if self.paths_bs_irs < 1 or self.paths_irs_user < 1:
            raise InvalidParameterError("path counts must be >= 1")
        for db in (self.rician_bs_irs_db, self.irs_user_rician_db):
            db_to_power(db, "Rician factor")
        _check_snrs(self, self.array.m)
        for m in self.m_sweep:
            _m_point(self, m)

    @property
    def irs_user_rician_db(self) -> float:
        if self.rician_irs_user_db is not None:
            return self.rician_irs_user_db
        return 13.2 if self.scenario == "los" else 0.0

    @property
    def budget(self) -> int:
        """Measurements per trial: T = U*V*L."""
        return (self.array.m // self.q) * (self.array.n_t // self.array.r) * self.l


@dataclass(frozen=True)
class TrialRecord:
    success: bool
    bgr: float
    estimate: AlignmentEstimate = field(repr=False)


def _noise_scale(m: int, n_t: int, snr_db: float) -> float:
    """sqrt(N_t * M * 10^(snr_db/10)), by which ||H||_F is divided to give
    sigma; InvalidParameterError where it overflows, which would make
    sigma 0, a noiseless scan at a finite SNR."""
    den = math.sqrt(n_t * m * db_to_power(snr_db, "snr_db"))
    if den == math.inf:
        raise InvalidParameterError(
            f"snr_db = {snr_db} is too high for N_t*M = {n_t * m}: the noise std rounds to 0"
        )
    return den


def _check_snrs(cfg: ExperimentConfig, m: int) -> None:
    """InvalidParameterError unless every SNR of cfg gives a positive
    noise std on M = m IRS elements."""
    for db in cfg.snr_sweep if cfg.snr_db is None else (cfg.snr_db, *cfg.snr_sweep):
        _noise_scale(m, cfg.array.n_t, db)


def snr_to_sigma(h: np.ndarray, snr_db: float) -> float:
    """Noise std for SNR = ||H||_F^2 / (N_t * M * sigma^2) in dB.

    The sum of squares runs over the real and imaginary parts in one
    unthreaded einsum, so sigma does not depend on the BLAS thread count.
    Where it may under- or overflow it is taken of h scaled by an exact
    power of two, so sigma scales with h over the float range.
    InvalidParameterError unless sigma is positive and finite.
    """
    m, n_t = h.shape
    den = _noise_scale(m, n_t, snr_db)
    x = np.ascontiguousarray(h, dtype=complex).reshape(-1).view(float)
    with np.errstate(over="ignore"):
        fro = math.sqrt(np.einsum("i,i", x, x))
    if 2.0**-400 <= fro <= 2.0**400:
        sigma = fro / den
    else:
        peak = np.abs(x).max()
        if not 0 < peak < np.inf:
            raise InvalidParameterError("channel must be finite and nonzero to set an SNR")
        e = int(np.frexp(peak)[1])
        x = np.ldexp(x, -e)
        sigma = float(np.ldexp(math.sqrt(np.einsum("i,i", x, x)) / den, e))
    if not 0 < sigma < math.inf:
        raise InvalidParameterError(f"snr_db = {snr_db} gives noise std {sigma} for this channel")
    return sigma


def optimal_beams(u: np.ndarray, b: np.ndarray):
    """Full-CSI reference beams for h = u b^H: constant-modulus v (M),
    unit-norm f (N_t).

    Alternating maximization of |v^H h f| on the rank-P factors (u is
    M x P, b is N_t x P), with f = b x kept in the span of b: v
    phase-aligns h f = u (b^H b) x, then f is matched to v^H h, so
    x = w / ||b w|| with w = u^H v and the objective is ||b w||. The
    start is the dominant right singular direction of h, b x with x the
    top eigenvector of the P x P matrix (u^H u)(b^H b). The objective is
    non-decreasing. u and b are first scaled to unit peak by exact powers
    of two and the stopping rule is relative, so the beams ignore scale.
    """
    u, b = (a * np.ldexp(1.0, -np.frexp(np.abs(a).max())[1]) for a in (u, b))
    gram = b.conj().T @ b
    vals, vecs = np.linalg.eig((u.conj().T @ u) @ gram)
    x = vecs[:, np.argmax(vals.real)]
    obj = 0.0
    for _ in range(BGR_MAX_ITERS):
        v = np.exp(1j * np.angle(u @ (gram @ x)))
        w = u.conj().T @ v
        nrm = np.linalg.norm(b @ w)
        if nrm == 0:
            break
        x = w / nrm
        if nrm - obj <= BGR_TOL * obj:
            break
        obj = nrm
    return v, b @ x


def bgr(ch: CascadeChannel, estimate: AlignmentEstimate) -> float:
    """Beamforming gain ratio of the grid-aligned estimate vs full CSI.

    Grid pair (i, j), v = sqrt(M) barD_R[:, i] and f = D[:, j], has gain
    |v^H H f|^2 = M |lam[i, j]|^2. The reference is the larger of the
    alternating maximizer's gain, computed from the channel's rank-P
    factors `u` and `b`, and the best grid pair's, so it dominates every
    grid pair even when the ascent stops at a local maximum. The ratio is
    taken of amplitudes and then squared, so no gain under- or overflows.
    """
    v_opt, f_opt = optimal_beams(ch.u, ch.b)
    opt_amp = abs(np.vdot(ch.u.conj().T @ v_opt, ch.b.conj().T @ f_opt))
    root_m, lam = math.sqrt(ch.cfg.m), ch.lam
    opt_amp = max(opt_amp, root_m * abs(lam[ch.strongest]))
    return (root_m * abs(lam[estimate.i_star, estimate.j_star]) / opt_amp) ** 2


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Counter-derived stream: trials are order-independent."""
    return np.random.default_rng(np.random.SeedSequence((seed, trial_index)))


def run_trial(cfg: ExperimentConfig, trial_index: int) -> TrialRecord:
    """Sample a channel, scan it, decode, score success and BGR.

    With q = 1, R = 1 and L = 1 every grid pair is measured once with its
    own grid beams, v = sqrt(M) barD[:, i] and f = D[:, j]: that config
    is the exhaustive grid scan, T = M * N_t.
    """
    rng = trial_rng(cfg.seed, trial_index)
    bs_irs = sample_paths(cfg.paths_bs_irs, cfg.rician_bs_irs_db, rng, with_bs_aod=True)
    irs_user = sample_paths(cfg.paths_irs_user, cfg.irs_user_rician_db, rng)
    ch = assemble_channels(bs_irs, irs_user, cfg.array)
    sigma = 0.0 if cfg.snr_db is None else snr_to_sigma(ch.h, cfg.snr_db)
    plan = build_scan_plan(cfg.array, cfg.q, cfg.l, cfg.mode, rng)
    measurements = synthesize_measurements((ch.x, ch.y), plan, sigma, rng)
    if sigma > 0:
        epsilon = rayleigh_threshold(sigma, cfg.p_fa)
    else:
        epsilon = 1e-9 * float(measurements.y.max())

    decode = decode_los if cfg.scenario == "los" else decode_nlos
    estimate = decode(measurements, plan, epsilon)
    success = (estimate.i_star, estimate.j_star) == ch.strongest
    ratio = bgr(ch, estimate) if cfg.compute_bgr else float("nan")
    return TrialRecord(success=success, bgr=ratio, estimate=estimate)


def _worker_count() -> int:
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            raise InvalidParameterError(
                f"{WORKERS_ENV} must be an integer >= 1, got {env!r}"
            )
        return workers
    if hasattr(os, "sched_getaffinity"):
        # os.cpu_count() also counts CPUs outside the process's affinity mask
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _one_blas_thread() -> None:
    """Pool initializer: one BLAS thread per worker, so a pool of one
    worker per core does not oversubscribe the cores. Changes nothing when
    numpy's bundled OpenBLAS is not found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in _BLAS_SETTERS:
            if hasattr(lib, name):
                setter = getattr(lib, name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                return


def _run_configs(cfgs, runner, workers: int | None) -> list[list[TrialRecord]]:
    """Records of trials 0..cfg.trials-1 of each config in turn: serially
    for one worker, else in one pool of `workers` processes."""
    workers = _worker_count() if workers is None else workers
    # a pool forks all its workers at once, so it opens no more than trials
    workers = min(workers, max(cfg.trials for cfg in cfgs))
    if workers <= 1:
        return [[runner(cfg, t) for t in range(cfg.trials)] for cfg in cfgs]
    with ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread) as pool:
        return [list(pool.map(runner, [cfg] * cfg.trials, range(cfg.trials),
                              chunksize=max(1, cfg.trials // (8 * workers)))) for cfg in cfgs]


def run_trials(cfg: ExperimentConfig, runner=run_trial,
               workers: int | None = None) -> list[TrialRecord]:
    """Records of trials 0..cfg.trials-1: serially for one worker, else in
    a pool of `workers` processes opened for this call."""
    return _run_configs([cfg], runner, workers)[0]


@dataclass(frozen=True)
class SweepRow:
    sweep_var: str
    value: float
    trials: int
    success_rate: float
    stderr: float
    mean_bgr: float
    bgr_stderr: float
    seed: int

    def as_list(self) -> list:
        return [
            self.sweep_var, self.value, self.trials,
            f"{self.success_rate:.6f}", f"{self.stderr:.6f}",
            f"{self.mean_bgr:.6f}", f"{self.bgr_stderr:.6f}", self.seed,
        ]


CSV_HEADER = [f.name for f in fields(SweepRow)]


def aggregate(records: list[TrialRecord], sweep_var: str, value, seed: int) -> SweepRow:
    n = len(records)
    p_hat = sum(r.success for r in records) / n
    bgrs = np.array([r.bgr for r in records], dtype=float)
    have_bgr = np.isfinite(bgrs)
    mean_bgr = float(bgrs[have_bgr].mean()) if have_bgr.any() else float("nan")
    bgr_se = (
        float(bgrs[have_bgr].std(ddof=1) / math.sqrt(have_bgr.sum()))
        if have_bgr.sum() > 1
        else float("nan")
    )
    return SweepRow(
        sweep_var=sweep_var, value=value, trials=n, success_rate=p_hat,
        stderr=math.sqrt(p_hat * (1 - p_hat) / n), mean_bgr=mean_bgr,
        bgr_stderr=bgr_se, seed=seed,
    )


def _split_upa(m: int) -> tuple[int, int]:
    """Factor an element count into a near-square (m_y, m_z) pair."""
    m_z = 1
    while (m_z * 2) ** 2 <= m:
        m_z *= 2
    if m % m_z != 0:
        raise InvalidParameterError(f"cannot factor M={m} into a UPA grid")
    return m // m_z, m_z


def _m_point(cfg: ExperimentConfig, m: int) -> tuple[ArrayConfig, int]:
    """The array and bin size of the M-sweep point M = m: q scales with M
    so that U = M/q stays fixed. InvalidParameterError unless m is a
    positive multiple of U that factors into a UPA grid and every SNR of
    cfg is valid at that size. Builds no ExperimentConfig, so the config
    can check its own m_sweep with it."""
    u = cfg.array.m // cfg.q
    if m < 1 or m % u != 0:
        raise InvalidParameterError(f"m_sweep entry M={m} is not a positive multiple of U={u}")
    m_y, m_z = _split_upa(m)
    _check_snrs(cfg, m)
    return replace(cfg.array, m_y=m_y, m_z=m_z), m // u


def sweep_points(cfg: ExperimentConfig, axis: str) -> list[tuple[str, float, ExperimentConfig]]:
    """Expand (sweep_var, value, point-config) tuples along one axis."""
    if axis == "T":
        if not cfg.t_sweep:
            raise InvalidParameterError("t_sweep is empty")
        points = [replace(cfg, l=l) for l in cfg.t_sweep]
        return [("T", p.budget, p) for p in points]
    if axis == "snr":
        if not cfg.snr_sweep:
            raise InvalidParameterError("snr_sweep is empty")
        return [("snr", s, replace(cfg, snr_db=s)) for s in cfg.snr_sweep]
    if axis == "M":
        if not cfg.m_sweep:
            raise InvalidParameterError("m_sweep is empty")
        points = []
        for m in cfg.m_sweep:
            arr, q = _m_point(cfg, m)
            points.append(("M", m, replace(cfg, array=arr, q=q)))
        return points
    raise InvalidParameterError(f"unknown sweep axis {axis!r}")


def sweep(cfg: ExperimentConfig, axis: str, workers: int | None = None) -> list[SweepRow]:
    """Aggregate success rate and BGR along one sweep axis, every point
    run in one process pool."""
    points = sweep_points(cfg, axis)
    records = _run_configs([point_cfg for _, _, point_cfg in points], run_trial, workers)
    return [aggregate(recs, var, value, cfg.seed)
            for (var, value, _), recs in zip(points, records)]


def rows_to_csv(rows: list[SweepRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(row.as_list())
    return buf.getvalue()
