"""Workload inputs, output checks and the untraced measurement loops.

Every workload uses N_t=128, M=16x16, R=8, Q=16 and L=7. Inputs are
derived from the workload seed only; the program sees configs, seeds and a
generated config file, never anything that names the benchmark.
"""

from __future__ import annotations

import csv
import io
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

import blas
from irsbeam import cli
from irsbeam.arrays import ArrayConfig, cascade_dictionary, dft_dictionary
from irsbeam.channel import assemble_channels, sample_paths
from irsbeam.codebook import (
    CONSTANT_MODULUS,
    build_scan_plan,
    optimize_constant_modulus,
    plan_from_json,
    plan_to_json,
)
from irsbeam.harness import CSV_HEADER, WORKERS_ENV, ExperimentConfig, run_trial, trial_rng

ARRAY = ArrayConfig(n_t=128, m_y=16, m_z=16, r=8)
Q, L = 16, 7
SNR_POINTS = (-30.0, -20.0, -10.0, 0.0)

# los-serial: success/BGR are taken over the first LOS_MIN_OPS trials so
# they are fixed for a seed. The tail is p95 (50+ trials beyond it), not
# p99: over ten seeds on a shared 2-core machine p99 spread 12-17%.
LOS_MIN_OPS = 1000
LOS_TAIL_PCT = 95
# nlos sweeps: trials per SNR point. Sweeps are short so a run holds enough
# of them for p80 with 10 beyond; the first SWEEP_MIN_OPS give success/BGR.
SWEEP_TRIALS = 10
SWEEP_MIN_OPS = 50
SWEEP_TAIL_PCT = 80
# cm-plan: one op is ~2 s, so a run holds about 20 and no percentile has 10
# ops beyond it. The tail is p75: the maximum spread 17% of the median over
# five seeds.
CM_MIN_OPS = 3
CM_TAIL_PCT = 75
# Hard stop for a measuring loop, so a run ends well inside 180 s even when
# the program is many times slower than today.
LOOP_LIMIT_S = 100.0
WARMUP_TRIALS = 3
# Warm-up ops use their own seed so no measured input is seen twice.
WARMUP_SEED_OFFSET = 1_000_003


# Machine speed. The host's speed for this process changes by up to 1.7x
# for seconds at a time (contention for the core, not descheduling: CPU
# time rose with wall time), so raw op times split into a fast and a slow
# mode and the middle half of a set of runs spread up to 35% of the median
# on los-serial. Each op is bracketed by runs of a fixed kernel that does
# not touch the package (a complex matrix product, elementwise numpy work,
# a Python loop), and the end-to-end times are scaled to a machine on which
# that kernel takes REF_NOMINAL_S. Raw wall times are printed beside them.
REF_NOMINAL_S = 1e-3
REF_REPEATS = 3
_REF_RNG = np.random.default_rng(0)
_REF_A = _REF_RNG.standard_normal((128, 128)) + 1j * _REF_RNG.standard_normal((128, 128))
_REF_B = _REF_RNG.standard_normal(16384)


def _reference_kernel() -> None:
    np.abs(_REF_A @ _REF_A.T).max()
    x = np.abs(_REF_A) ** 2
    np.argsort(_REF_B)
    (x > 0.5).nonzero()
    d: dict[int, int] = {}
    for i in range(750):
        d[i % 97] = d.get(i % 97, 0) + i


def reference_s() -> float:
    """Median seconds of REF_REPEATS runs of the reference kernel."""
    times = []
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        _reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class CheckFailed(Exception):
    """An output of the program is wrong."""


# Errors that count as a failed op: the package's own errors derive from
# ValueError/RuntimeError, and CheckFailed marks a wrong output.
OP_ERRORS = (CheckFailed, ValueError, RuntimeError)


def derived_seed(seed: int, k: int) -> int:
    """Seed for the k-th op of a run, reproducible from the workload seed."""
    return int(np.random.SeedSequence((seed, k)).generate_state(1)[0])


def los_config(seed: int) -> ExperimentConfig:
    """Criterion-8b config: -20 dB, ideal-sparse, LOS, BGR on."""
    return ExperimentConfig(array=ARRAY, q=Q, l=L, snr_db=-20.0, trials=1, seed=seed)


def nlos_config(seed: int, trials: int) -> ExperimentConfig:
    return ExperimentConfig(
        array=ARRAY, q=Q, l=L, scenario="nlos", snr_sweep=SNR_POINTS,
        trials=trials, seed=seed,
    )


def sweep_config_text(cfg: ExperimentConfig) -> str:
    """The config file `irsbeam sweep` reads for an NLOS SNR sweep."""
    a = cfg.array
    lines = [
        f"n_t = {a.n_t}", f"m_y = {a.m_y}", f"m_z = {a.m_z}", f"r = {a.r}",
        f"q = {cfg.q}", f"l = {cfg.l}", f"mode = {cfg.mode}",
        f"scenario = {cfg.scenario}",
        "snr_sweep = " + ", ".join(f"{s:g}" for s in cfg.snr_sweep),
        f"trials = {cfg.trials}", f"seed = {cfg.seed}",
    ]
    return "\n".join(lines) + "\n"


def sample_channel(cfg: ExperimentConfig, t: int):
    """The channel `run_trial(cfg, t)` draws, from the same trial stream."""
    rng = trial_rng(cfg.seed, t)
    bs_irs = sample_paths(cfg.paths_bs_irs, cfg.rician_bs_irs_db, rng, with_bs_aod=True)
    irs_user = sample_paths(cfg.paths_irs_user, cfg.irs_user_rician_db, rng)
    return assemble_channels(bs_irs, irs_user, cfg.array)


# ---------------------------------------------------------------- checks


def check_trial(cfg: ExperimentConfig, record, strongest: tuple[int, int]) -> None:
    est = record.estimate
    if not (0 <= est.i_star < cfg.array.m and 0 <= est.j_star < cfg.array.n_t):
        raise CheckFailed(f"estimate ({est.i_star}, {est.j_star}) out of range")
    if not 0.0 < record.bgr <= 1.0:
        raise CheckFailed(f"bgr {record.bgr!r} outside (0, 1]")
    if record.success != ((est.i_star, est.j_star) == strongest):
        raise CheckFailed(
            f"success={record.success} but estimate ({est.i_star}, {est.j_star})"
            f" vs strongest {strongest}"
        )


def check_sweep_csv(text: str, cfg: ExperimentConfig) -> list[list[str]]:
    """Exactly CSV_HEADER, then one row per SNR point with cfg.trials trials."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CSV_HEADER:
        raise CheckFailed(f"CSV header {rows[:1]!r} != {CSV_HEADER!r}")
    body = rows[1:]
    if len(body) != len(cfg.snr_sweep):
        raise CheckFailed(f"{len(body)} CSV rows for {len(cfg.snr_sweep)} SNR points")
    for row, snr in zip(body, cfg.snr_sweep):
        if len(row) != len(CSV_HEADER):
            raise CheckFailed(f"CSV row {row!r} has {len(row)} fields")
        if row[0] != "snr" or float(row[1]) != snr:
            raise CheckFailed(f"CSV row {row!r} is not the point snr={snr}")
        if int(row[2]) != cfg.trials or int(row[7]) != cfg.seed:
            raise CheckFailed(f"CSV row {row!r}: want trials={cfg.trials}, seed={cfg.seed}")
        if not 0.0 <= float(row[3]) <= 1.0:
            raise CheckFailed(f"CSV row {row!r}: success rate outside [0, 1]")
    return body


def check_plan_roundtrip(built, reloaded) -> None:
    """The reloaded plan equals the built one, beam for beam."""
    if (reloaded.cfg, reloaded.q, reloaded.mode, reloaded.seed, reloaded.l) != (
        built.cfg, built.q, built.mode, built.seed, built.l
    ):
        raise CheckFailed("reloaded plan header differs")
    for l, (a, b) in enumerate(zip(built.rounds, reloaded.rounds)):
        for name in ("c_design", "c_supports", "a_supports"):
            sa, sb = getattr(a, name), getattr(b, name)
            if len(sa) != len(sb) or not all(map(np.array_equal, sa, sb)):
                raise CheckFailed(f"round {l}: {name} differ after reload")
        for name in ("row_bin", "col_bin", "v_beams", "f_beams"):
            if not np.array_equal(getattr(a, name), getattr(b, name)):
                raise CheckFailed(f"round {l}: {name} differ after reload")
        if not np.allclose(np.abs(b.v_beams), 1.0, rtol=0.0, atol=1e-12):
            raise CheckFailed(f"round {l}: reloaded beam not unit-modulus")


# ---------------------------------------------------------------- ops


def cm_build(seed: int):
    """Build a constant-modulus plan the way `irsbeam plan` does."""
    rng = np.random.default_rng(seed)
    return replace(build_scan_plan(ARRAY, Q, L, CONSTANT_MODULUS, rng), seed=seed)


def cm_plan_op(seed: int):
    """Build a constant-modulus plan, then serialize and reload it.
    Returns (built, json text, reloaded)."""
    plan = cm_build(seed)
    text = plan_to_json(plan)
    return plan, text, plan_from_json(text)


def cli_sweep(config_path: str, out_path: str, seed: int, workers: int) -> str:
    """`irsbeam sweep --axis snr` in-process with IRSBEAM_WORKERS=workers.

    A pooled sweep runs under the library's default BLAS thread count,
    which its forked workers inherit, as `irsbeam sweep` users get it."""
    saved = os.environ.get(WORKERS_ENV)
    os.environ[WORKERS_ENV] = str(workers)
    try:
        with blas.threads(blas.DEFAULT if workers > 1 else None):
            cli.main([
                "sweep", "--config", config_path, "--axis", "snr",
                "--out", out_path, "--seed", str(seed),
            ])
    finally:
        if saved is None:
            del os.environ[WORKERS_ENV]
        else:
            os.environ[WORKERS_ENV] = saved
    with open(out_path, encoding="utf-8") as fh:
        return fh.read()


def pool_workers() -> int:
    return len(os.sched_getaffinity(0))


def sweep_workers(workload: str) -> int:
    return pool_workers() if workload == "nlos-sweep-pooled" else 1


def warm_up(workload: str, seed: int) -> None:
    """Warm-up ops of a workload: fill lazy caches before timing."""
    cascade_dictionary(ARRAY)
    dft_dictionary(ARRAY.n_t)
    if workload == "cm-plan":
        rng = np.random.default_rng(seed + WARMUP_SEED_OFFSET)
        optimize_constant_modulus(cascade_dictionary(ARRAY)[:, rng.permutation(ARRAY.m)[:Q]])
        return
    cfg = los_config(seed) if workload == "los-serial" else nlos_config(seed, 1)
    cfg = replace(cfg, seed=seed + WARMUP_SEED_OFFSET)
    for t in range(WARMUP_TRIALS):
        run_trial(cfg, t)


# ---------------------------------------------------------------- results


@dataclass
class RunResult:
    """What one run measured: op times, counts and printed-only figures."""

    op_s: list[float] = field(default_factory=list)
    # op seconds at the nominal machine speed, and every reference time
    scaled_s: list[float] = field(default_factory=list)
    ref_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    trials_per_op_sample: int = 1
    tail_pct: int = 100
    # printed-only figures: name -> (value, unit, note)
    info: dict[str, tuple[float, str, str]] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def fail(self, exc: BaseException, ops: int = 1) -> None:
        self.failed += ops
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")


def mean_or_nan(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else math.nan


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; pct=100 is the maximum."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def timing_metrics(op_s: list[float], res: RunResult) -> dict[str, tuple[float, str]]:
    """Per-trial times: a sample covers trials_per_op_sample ops."""
    per_op_ms = [1e3 * s / res.trials_per_op_sample for s in op_s]
    return {
        "ops_per_s": (len(op_s) * res.trials_per_op_sample / sum(op_s), "1/s"),
        "op_ms_p50": (statistics.median(per_op_ms), "ms"),
        "op_ms_tail": (percentile(per_op_ms, res.tail_pct), "ms"),
    }


def end_to_end_metrics(res: RunResult, setup_s: float) -> dict[str, tuple[float, str]]:
    """Times scaled to the nominal machine speed; raw wall times go to info."""
    for name, (value, unit) in timing_metrics(res.op_s, res).items():
        res.info[f"wall.{name}"] = (value, unit, "unscaled wall time")
    res.info["machine_speed"] = (
        REF_NOMINAL_S / statistics.median(res.ref_s), "ratio",
        f"nominal over median reference time, {len(res.ref_s)} reference runs",
    )
    return {
        **timing_metrics(res.scaled_s, res),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def _loop(seconds: float, min_ops: int):
    """Yield op indices until `seconds` have passed and `min_ops` ran."""
    start = time.perf_counter()
    k = 0
    while k < min_ops or time.perf_counter() - start < seconds:
        if time.perf_counter() - start > LOOP_LIMIT_S:
            return
        yield k
        k += 1


def _timed(res: RunResult, ops: int, *stages):
    """One timed op made of stages, each called with the previous stage's
    result. Each stage is bracketed by reference runs and scaled by their
    mean, so the stages of a long op each get the machine speed around them.
    Returns the stage results, or None when a package error fails the op's
    `ops` ops."""
    if not res.ref_s:
        res.ref_s.append(reference_s())
    outs, raw, scaled = [], 0.0, 0.0
    try:
        for stage in stages:
            t0 = time.perf_counter()
            try:
                outs.append(stage(*outs[-1:]))
            finally:
                dt = time.perf_counter() - t0
                res.ref_s.append(reference_s())
                raw += dt
                scaled += dt * REF_NOMINAL_S / ((res.ref_s[-2] + res.ref_s[-1]) / 2)
    except OP_ERRORS as exc:
        res.fail(exc, ops)
        return None
    finally:
        res.op_s.append(raw)
        res.scaled_s.append(scaled)
    return outs


def _passes(res: RunResult, ops: int, check, *args) -> bool:
    """Run an output check outside the timed region; a failure fails `ops` ops."""
    try:
        check(*args)
    except OP_ERRORS as exc:
        res.fail(exc, ops)
        return False
    return True


def run_los_serial(seed: int, seconds: float) -> RunResult:
    """run_trial over consecutive trial indices in this process."""
    cfg = los_config(seed)
    res = RunResult(tail_pct=LOS_TAIL_PCT)
    wins, bgrs = [], []
    for t in _loop(seconds, LOS_MIN_OPS):
        res.attempted += 1
        out = _timed(res, 1, partial(run_trial, cfg, t))
        if out is None:
            continue
        record = out[0]
        strongest = sample_channel(cfg, t).strongest
        if _passes(res, 1, check_trial, cfg, record, strongest) and t < LOS_MIN_OPS:
            wins.append(record.success)
            bgrs.append(float(record.bgr))
    note = f"over the first {len(wins)} trials"
    res.info["success_rate"] = (mean_or_nan(wins), "ratio", note)
    res.info["mean_bgr"] = (mean_or_nan(bgrs), "ratio", note)
    return res


def run_nlos_sweep(seed: int, seconds: float, workers: int, outdir: str) -> RunResult:
    """Repeated `irsbeam sweep --axis snr` over a generated NLOS config;
    sweep k runs with seed derived_seed(seed, k)."""
    trials = SWEEP_TRIALS
    base = nlos_config(seed, trials)
    config_path = os.path.join(outdir, f"sweep-seed{seed}.cfg")
    csv_path = os.path.join(outdir, f"sweep-seed{seed}.csv")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(sweep_config_text(base))
    per_sweep = trials * len(SNR_POINTS)
    res = RunResult(trials_per_op_sample=per_sweep, tail_pct=SWEEP_TAIL_PCT)
    wins = bgr_sum = counted = 0.0
    for k in _loop(seconds, SWEEP_MIN_OPS):
        cfg = replace(base, seed=derived_seed(seed, k))
        res.attempted += per_sweep
        out = _timed(res, per_sweep, partial(cli_sweep, config_path, csv_path, cfg.seed, workers))
        if out is None:
            continue
        try:
            rows = check_sweep_csv(out[0], cfg)
        except OP_ERRORS as exc:
            res.fail(exc, per_sweep)
            continue
        if k < SWEEP_MIN_OPS:
            for row in rows:
                wins += float(row[3]) * trials
                bgr_sum += float(row[5]) * trials
                counted += trials
    note = f"over the first {int(counted)} trials"
    res.info["success_rate"] = (wins / counted if counted else math.nan, "ratio", note)
    res.info["mean_bgr"] = (bgr_sum / counted if counted else math.nan, "ratio", note)
    res.info["workers"] = (workers, "count", "IRSBEAM_WORKERS of the sweep")
    return res


def run_cm_plan(seed: int, seconds: float) -> RunResult:
    """Constant-modulus plan build plus JSON round trip, one op per seed.
    The build and the reload take about a second each and are scaled apart."""
    res = RunResult(tail_pct=CM_TAIL_PCT)
    for k in _loop(seconds, CM_MIN_OPS):
        res.attempted += 1
        out = _timed(res, 1, partial(cm_build, derived_seed(seed, k)), plan_to_json, plan_from_json)
        if out is not None:
            built, _, reloaded = out
            _passes(res, 1, check_plan_roundtrip, built, reloaded)
    return res
