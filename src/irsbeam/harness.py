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
    _assemble,
    _noised_magnitude,
    _unit_peak,
    db_to_power,
    draw_normals,
    sample_paths,
)
from .codebook import IDEAL_SPARSE, _shuffled_plan, check_round_shape
from .decoder import _decode_scans, rayleigh_threshold
from .errors import FIELD_SCALARS, InvalidParameterError, check_field_types

WORKERS_ENV = "IRSBEAM_WORKERS"

# Thread-count setter of the scipy-openblas build that numpy 2 wheels bundle.
_BLAS_SETTER = "scipy_openblas_set_num_threads64_"

# Full-CSI reference beams: alternating-step cap and relative objective
# gain below which the alternation stops.
BGR_MAX_ITERS = 100
BGR_TOL = 1e-8
_ZERO_CHANNEL = "channel must be finite and nonzero to score BGR"

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
    output: str | None = None
    compute_bgr = True  # no field, as every trial scores BGR; perfbench/replay.py reads it

    def __post_init__(self):
        # reject every value a trial would, before any worker starts
        check_field_types(self)
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
        for db in self.snr_sweep if self.snr_db is None else (self.snr_db, *self.snr_sweep):
            _noise_scale(self.array.m, self.array.n_t, db)
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


def snr_to_sigma(h: np.ndarray, snr_db: float) -> float:
    """Noise std for SNR = ||H||_F^2 / (N_t * M * sigma^2) in dB.

    The sum of squares runs over the real and imaginary parts in one
    unthreaded einsum, so sigma does not depend on the BLAS thread count.
    Where it may under- or overflow it is taken of h scaled by an exact
    power of two, so sigma scales with h over the float range.
    InvalidParameterError unless sigma is positive and finite.
    """
    return float(_sigma([_frobenius(h)], *h.shape, snr_db)[0])


def _frobenius(h: np.ndarray) -> tuple[float, int]:
    """||h||_F as (f, e), ||h||_F = f * 2**e, with e = 0 unless the sum of
    squares may under- or overflow; then f is taken of h / 2**e."""
    x = np.ascontiguousarray(h, dtype=complex).reshape(-1).view(float)
    with np.errstate(over="ignore"):
        fro = math.sqrt(np.einsum("i,i", x, x))
    if 2.0**-400 <= fro <= 2.0**400:
        return fro, 0
    peak = np.abs(x).max()
    if not 0 < peak < np.inf:
        raise InvalidParameterError("channel must be finite and nonzero to set an SNR")
    e = int(np.frexp(peak)[1])
    x = np.ldexp(x, -e)
    return math.sqrt(np.einsum("i,i", x, x)), e


def _sigma(fro: list[tuple[float, int]], m: int, n_t: int, snr_db: float) -> np.ndarray:
    """||h||_F / _noise_scale at snr_db of each channel, from _frobenius's
    (f, e). InvalidParameterError unless each is positive and finite."""
    den = _noise_scale(m, n_t, snr_db)
    sigma = [f / den if e == 0 else float(np.ldexp(f / den, e)) for f, e in fro]
    for value in sigma:
        if not 0 < value < math.inf:
            raise InvalidParameterError(f"snr_db = {snr_db} gives noise std {value} for this channel")
    return np.array(sigma)


def _lockstep_beams(u: np.ndarray, b: np.ndarray):
    """Full-CSI reference beams for h = u b^H of each pair of the stacks
    u (B x M x P) and b (B x N_t x P): constant-modulus v (B x M) and
    unit-norm f (B x N_t).

    Alternating maximization of |v^H h f| on the rank-P factors, with
    f = b x kept in the span of b: v phase-aligns h f = u (b^H b) x, then
    f is matched to v^H h, so x = w / ||b w|| with w = u^H v and the
    objective is ||b w||. The start is the dominant right singular
    direction of h, b x with x the top eigenvector of the P x P matrix
    (u^H u)(b^H b). The objective is non-decreasing. u and b are first
    scaled to unit peak by exact powers of two (channel._unit_peak) and
    the stopping rule is relative, so the beams ignore scale.
    InvalidParameterError unless u and b are finite (_unit_peak) and
    every h is nonzero (the objective of step 0).

    The pairs step in lockstep, each frozen once it stops, so each takes
    the steps it takes alone and its every product is the one it takes
    alone, with one call per step for the whole stack."""
    u, b = _unit_peak(u), _unit_peak(b)
    u_h = u.conj().transpose(0, 2, 1)
    gram = b.conj().transpose(0, 2, 1) @ b
    vals, vecs = np.linalg.eig((u_h @ u) @ gram)
    x = vecs[np.arange(len(u)), :, vals.real.argmax(axis=1), None]
    objs, going = [0.0] * len(u), range(len(u))  # going: the pairs still stepping
    for step in range(BGR_MAX_ITERS):
        hf = u @ (gram @ x)
        v_step = np.exp(1j * np.arctan2(hf.imag, hf.real))  # np.angle, with no wrapper
        w = u_h @ v_step
        bw = (b @ w)[..., 0]
        # ||b w|| as np.linalg.norm takes it: two dot products, real and imaginary
        nrms = [math.sqrt(re.dot(re) + im.dot(im)) for re, im in zip(bw.real, bw.imag)]
        nrm = np.array(nrms)
        # the objective never falls, and starts above 0 unless h = 0
        if step == 0 and 0.0 in nrms:
            raise InvalidParameterError(_ZERO_CHANNEL)
        if len(going) == len(u):
            v, x = v_step, w / nrm[:, None, None]
        else:  # a stopped pair keeps the beams of its last step
            v[going], x[going] = v_step[going], w[going] / nrm[going, None, None]
        going = [k for k in going if not nrms[k] - objs[k] <= BGR_TOL * objs[k]]
        if not going:
            break
        objs = nrms
    return v[..., 0], (b @ x)[..., 0]


def _reference_amplitudes(channels: list[CascadeChannel], u: np.ndarray,
                          b: np.ndarray) -> list[tuple[float, float]]:
    """Per channel of the block whose stacked factors are u and b, the
    full-CSI amplitude bgr divides by, and the best grid pair's (the
    strongest entry's) amplitude. The first is the larger of the
    alternating maximizer's, from the rank-P factors, and the second.
    InvalidParameterError for a zero or non-finite channel
    (_lockstep_beams) and where the maximizer's under- or overflows."""
    amps = []
    for ch, v_opt, f_opt in zip(channels, *_lockstep_beams(u, b)):
        opt_amp = abs(np.vdot(ch.u.conj().T @ v_opt, ch.b.conj().T @ f_opt))
        if not 0 < opt_amp < math.inf:
            raise InvalidParameterError(f"{_ZERO_CHANNEL}: its reference amplitude is {opt_amp}")
        grid = math.sqrt(ch.cfg.m) * abs(ch.entry(*ch.strongest))
        amps.append((max(opt_amp, grid), grid))
    return amps


def bgr(ch: CascadeChannel, estimate: AlignmentEstimate, opt_amp: float | None = None) -> float:
    """Beamforming gain ratio of the grid-aligned estimate vs full CSI.

    Grid pair (i, j), v = sqrt(M) barD_R[:, i] and f = D[:, j], has gain
    |v^H H f|^2 = M |lam[i, j]|^2. The reference (_reference_amplitudes,
    computed here unless given as `opt_amp`) dominates every grid pair
    even when the ascent stops at a local maximum. The ratio is taken of
    amplitudes and then squared, so no gain under- or overflows.
    InvalidParameterError for a channel that is zero or not finite.
    """
    if opt_amp is None:
        ((opt_amp, _),) = _reference_amplitudes([ch], ch.u[None], ch.b[None])
    return (math.sqrt(ch.cfg.m) * abs(ch.entry(estimate.i_star, estimate.j_star)) / opt_amp) ** 2


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Counter-derived stream: trials are order-independent.
    InvalidParameterError unless seed and trial_index are integers >= 0
    (a numpy integer counts, a bool does not)."""
    for name, value in (("seed", seed), ("trial_index", trial_index)):
        if not (FIELD_SCALARS["int"][0](value) and value >= 0):
            raise InvalidParameterError(f"{name} must be an integer >= 0, got {value!r}")
    return np.random.default_rng(np.random.SeedSequence((seed, trial_index)))


def _block_size(cfgs: tuple[ExperimentConfig, ...]) -> int:
    """The most trials of a group that one block runs: B with
    B * L * U * V <= M * N_t, L the group's largest l, or 1. A block's
    noiseless readings, and each of its noise draws, then hold no more
    numbers than one M x N_t matrix."""
    cfg = cfgs[0]
    a = cfg.array
    readings = max(c.l for c in cfgs) * (a.m // cfg.q) * (a.n_t // a.r)
    return max(1, a.m * a.n_t // readings)


# a product beyond the float range becomes inf or NaN, which a later check refuses
@np.errstate(over="ignore", invalid="ignore")
def _run_block(cfgs: tuple[ExperimentConfig, ...], trials) -> list[list[TrialRecord]]:
    """Trials `trials` at each config of a group: per trial, its records
    in the configs' order. Each samples a channel, scans it, decodes,
    scores success and BGR.

    The configs differ at most in snr_db and l (run_trials checks this),
    so per trial they share its channel, its plan (built to the largest
    l), the plan's noiseless readings, ||H||_F (taken only when some
    config has an SNR) and the BGR reference. A trial keeps its own
    generator and draw order: paths, plan, then noise. A config of l
    rounds reads the plan's first l rounds. A noiseless config reads their
    magnitudes; the noisy configs of l rounds share one noise draw
    (draw_normals), taken after round l of the plan. The plan saves the
    generator states after each round only when a noisy config has fewer
    rounds than the plan; such a config's draw restores the state saved
    after its round l, and any other draw follows the plan. Each config
    scales the draw by its own sigma into a new array and takes its own
    threshold and decode, and BGR is scored once per distinct estimate.

    The array stages run once over the block: the responses and factors
    (_assemble), the plans' sort and bin maps (_shuffled_plan), the
    readings, per config the noise and the whole decode (_decode_scans),
    and the BGR reference (_reference_amplitudes), which, like the
    strongest entry, reads its factors at unit peak (channel._unit_peak).
    ||H||_F, the strongest entry's rows and BGR are each trial's own. No
    array holds a trial axis and an M x N_t one, but for the decode's
    sub-grid bits under exact ties (at most trials x M x N_t bools). Every
    stacked product is, slice by slice, the one a trial alone takes, so
    each record is the one its config's run_trial gives, whatever the
    block. A product that leaves the float range becomes inf or NaN
    without a warning: the factors' unit-peak rescale, ||H||_F, the
    decode's readings check or the BGR reference then refuses the channel
    (InvalidParameterError).
    """
    cfg = cfgs[0]
    a = cfg.array
    l_max = max(c.l for c in cfgs)
    rngs = [trial_rng(cfg.seed, t) for t in trials]
    n_trials = len(rngs)
    channels, (x, y, u, b) = _assemble(
        [(sample_paths(cfg.paths_bs_irs, cfg.rician_bs_irs_db, rng, with_bs_aod=True),
          sample_paths(cfg.paths_irs_user, cfg.irs_user_rician_db, rng)) for rng in rngs], a)
    if any(c.snr_db is not None for c in cfgs):
        fro = [_frobenius(ch.h) for ch in channels]
    states = [[] for _ in rngs] if any(c.snr_db is not None and c.l < l_max for c in cfgs) else None
    plan = _shuffled_plan(a, cfg.q, l_max, cfg.mode, rngs, states)
    clean = plan.readings(x, y).reshape(n_trials, l_max, plan.c_design.shape[1], -1)
    row_bin = plan.row_bin.reshape(n_trials, l_max, -1)
    col_bin = plan.col_bin.reshape(n_trials, l_max, -1)

    # found: each config's estimates; normals: l -> the draws
    found, normals = [], {}
    for c in cfgs:
        z = clean[:, :c.l]
        if c.snr_db is None:
            ys = np.abs(z)
            eps = 1e-9 * ys.max(axis=(1, 2, 3))
        else:
            if c.l not in normals:
                if states is not None:
                    for rng, saved in zip(rngs, states):
                        rng.bit_generator.state = saved[c.l - 1]
                normals[c.l] = np.empty((n_trials, c.l, 2, *z.shape[2:]))
                for rng, out in zip(rngs, normals[c.l]):
                    draw_normals(z.shape[1:], rng, out)
            sigma = _sigma(fro, a.m, a.n_t, c.snr_db)
            ys = _noised_magnitude(z, normals[c.l], sigma[:, None, None, None, None])
            # the threshold scales with sigma exactly
            eps = sigma * rayleigh_threshold(1.0, c.p_fa)
        found.append(_decode_scans(ys, row_bin[:, :c.l], col_bin[:, :c.l], eps, c.scenario == "nlos"))

    records = []
    for ch, (opt_amp, grid), estimates in zip(channels, _reference_amplitudes(channels, u, b),
                                              zip(*found)):
        scores = {ch.strongest: (grid / opt_amp) ** 2}  # (i*, j*) -> its BGR, as bgr scores it
        for est in estimates:
            key = (est.i_star, est.j_star)
            if key not in scores:
                scores[key] = bgr(ch, est, opt_amp)
        records.append([TrialRecord(success=(est.i_star, est.j_star) == ch.strongest,
                                    bgr=scores[est.i_star, est.j_star], estimate=est)
                        for est in estimates])
    return records


def run_trial(cfg: ExperimentConfig, trial_index: int) -> TrialRecord:
    """Sample a channel, scan it, decode, score success and BGR: the
    block of one trial at one config, so one draw of noise follows the
    plan, and the record a run_trials group of (cfg,) gives for
    trial_index.

    With q = 1, R = 1 and L = 1 every grid pair is measured once with its
    own grid beams, v = sqrt(M) barD[:, i] and f = D[:, j]: that config
    is the exhaustive grid scan, T = M * N_t.
    """
    return _run_block((cfg,), [trial_index])[0][0]


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
        if hasattr(lib, _BLAS_SETTER):
            setter = getattr(lib, _BLAS_SETTER)
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)
            return


def _check_group(group: tuple[ExperimentConfig, ...]) -> None:
    """InvalidParameterError unless the group holds configs that differ at
    most in snr_db and l: its trials share one channel and plan."""
    shared = [[getattr(c, f.name) for f in fields(c) if f.name not in ("snr_db", "l")]
              for c in group]
    if not shared or any(other != shared[0] for other in shared[1:]):
        raise InvalidParameterError("a group needs configs that differ at most in snr_db and l")


def _blocks(group: tuple[ExperimentConfig, ...], workers: int) -> list[range]:
    """The group's trials t < trials cut into consecutive blocks of at
    most _block_size; with several workers, of at most a quarter of each
    worker's share, so the pool has tasks to balance."""
    n = group[0].trials
    size = _block_size(group)
    if workers > 1:
        size = min(size, -(-n // (4 * workers)))
    return [range(t, min(n, t + size)) for t in range(0, n, size)]


def run_trials(groups: list[tuple[ExperimentConfig, ...]]) -> list[list[TrialRecord]]:
    """One record list per config of the groups, in order: each group is
    a tuple of configs, differing at most in snr_db and l, that
    _run_block runs together for trials t < the group's `trials`, block
    by block (_blocks). Serially for one worker, else in one pool of
    IRSBEAM_WORKERS processes opened for this call, one block per task.
    InvalidParameterError for any other group, before any trial."""
    for group in groups:
        _check_group(group)
    # a pool forks all its workers at once, so it opens no more than trials
    workers = min(_worker_count(), max(group[0].trials for group in groups))
    tasks = [(k, group, block) for k, group in enumerate(groups) for block in _blocks(group, workers)]
    if workers <= 1:
        done = [_run_block(group, block) for _, group, block in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread) as pool:
            done = list(pool.map(_run_block, *zip(*[task[1:] for task in tasks])))
    by_group = [[] for _ in groups]
    for (k, _, _), records in zip(tasks, done):
        by_group[k] += records
    return [list(recs) for trials in by_group for recs in zip(*trials)]


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
    # one record has no spread: NaN, not numpy's degrees-of-freedom warning
    bgr_se = float(bgrs.std(ddof=1) / math.sqrt(n)) if n > 1 else float("nan")
    return SweepRow(
        sweep_var=sweep_var, value=value, trials=n, success_rate=p_hat,
        stderr=math.sqrt(p_hat * (1 - p_hat) / n), mean_bgr=float(bgrs.mean()),
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


def _m_point(cfg: ExperimentConfig, m: int) -> ExperimentConfig:
    """cfg at the M-sweep point M = m, with no m_sweep: q scales with M, so
    U = M/q stays fixed. InvalidParameterError unless m is a positive
    multiple of U that factors into a UPA grid and cfg is valid at M = m."""
    u = cfg.array.m // cfg.q
    if m < 1 or m % u != 0:
        raise InvalidParameterError(f"m_sweep entry M={m} is not a positive multiple of U={u}")
    m_y, m_z = _split_upa(m)
    return replace(cfg, array=replace(cfg.array, m_y=m_y, m_z=m_z), q=m // u, m_sweep=())


def sweep_points(cfg: ExperimentConfig,
                 axis: str | None) -> list[tuple[str, float, ExperimentConfig]]:
    """Expand (sweep_var, value, point-config) tuples along one axis; axis
    None is the one point cfg, on the T axis when noiseless, else on snr."""
    if axis is None:
        return [("T", cfg.budget, cfg) if cfg.snr_db is None else ("snr", cfg.snr_db, cfg)]
    key = {"T": "t_sweep", "snr": "snr_sweep", "M": "m_sweep"}.get(axis)
    if key is None:
        raise InvalidParameterError(f"unknown sweep axis {axis!r}")
    if not getattr(cfg, key):
        raise InvalidParameterError(f"{key} is empty")
    if axis == "T":
        points = [replace(cfg, l=l) for l in cfg.t_sweep]
        return [("T", p.budget, p) for p in points]
    if axis == "snr":
        return [("snr", s, replace(cfg, snr_db=s)) for s in cfg.snr_sweep]
    return [("M", m, _m_point(cfg, m)) for m in cfg.m_sweep]


def sweep(cfg: ExperimentConfig, axis: str | None) -> list[SweepRow]:
    """Aggregate success rate and BGR along one sweep axis, or at the one
    point cfg for axis None, in one run_trials call.

    The SNR or T points form one group, whose trials run in blocks
    (_run_block) at every point: each trial's channel and plan are drawn
    once, not once per point, and its noise once per distinct L, and a
    block's array stages run once for all its trials. Each M point is a
    group of its own. Every record is run_trial's.
    """
    points = sweep_points(cfg, axis)
    cfgs = tuple(point_cfg for _, _, point_cfg in points)
    groups = [cfgs] if axis in ("snr", "T") else [(c,) for c in cfgs]
    return [aggregate(recs, var, value, cfg.seed)
            for (var, value, _), recs in zip(points, run_trials(groups))]


def rows_to_csv(rows: list[SweepRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(row.as_list())
    return buf.getvalue()
