"""Traced run: per-layer numbers from a stage-by-stage replay.

`replay_trial` repeats `harness.run_trial` through the package's public
functions, timing each call from outside, and its record must equal
`run_trial`'s for the same (seed, t). Spans stay in memory and are written
when the run ends. Every traced run measures every layer: the workload's
own ops get the larger share, and small probes cover the layers it does
not call (a pooled CLI sweep, one constant-modulus plan round trip).
"""

from __future__ import annotations

import json
import math
import os
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from irsbeam.arrays import cascade_dictionary
from irsbeam.channel import assemble_channels, sample_paths
from irsbeam.codebook import (
    CONSTANT_MODULUS,
    build_scan_plan,
    optimize_constant_modulus,
    plan_from_json,
    plan_to_json,
)
from irsbeam.config import parse_config
from irsbeam.decoder import decode_los, decode_nlos, rayleigh_threshold, synthesize_measurements
from irsbeam.harness import TrialRecord, aggregate, bgr, run_trial, snr_to_sigma, trial_rng

import workloads as wl
from workloads import OP_ERRORS, CheckFailed, RunResult

# Which end-to-end metric, on which workload, each layer metric should move.
MOVES = {
    "arrays.dictionary_build_ms": "setup_s on every workload",
    "channel.sample_paths_ms": "ops_per_s, op_ms_p50 on los-serial; ops_per_s on nlos-sweep-*",
    "channel.assemble_channels_ms": "ops_per_s, op_ms_p50 on los-serial; ops_per_s on nlos-sweep-*",
    "codebook.build_scan_plan_ms": "ops_per_s on los-serial",
    "codebook.cm_build_ms": "op_ms_p50 on cm-plan",
    "codebook.plan_to_json_ms": "op_ms_p50 on cm-plan",
    "codebook.plan_from_json_ms": "op_ms_p50 on cm-plan",
    "codebook.cm_solves": "op_ms_p50 on cm-plan",
    "codebook.cm_iters_mean": "op_ms_p50 on cm-plan",
    "codebook.cm_unconverged_ratio": "op_ms_p50 on cm-plan",
    "decoder.synthesize_ms": "ops_per_s on los-serial",
    "decoder.decode_ms": "ops_per_s on los-serial",
    "decoder.candidates_mean": "ops_per_s on los-serial",
    "decoder.nm_rounds_mean": "success_rate on nlos-sweep-*",
    "harness.bgr_ms": "ops_per_s on los-serial",
    "harness.worker_cpu_per_trial_ms": "ops_per_s on nlos-sweep-pooled",
    "harness.pool_efficiency": "ops_per_s on nlos-sweep-pooled",
    "trace.ops_per_s_ratio": "none: traced over untraced ops/s, the tracing overhead",
}


@dataclass(frozen=True)
class TraceSizes:
    """How much of each part a traced run replays."""

    own: str  # whose ops give the overhead ratio: "los", "nlos" or "cm"
    los_trials: int
    sweep_trials: int  # per SNR point of the workload's own traced sweep; 0: none
    cm_ops: int


# Trials per SNR point of the pooled probe sweep every traced run makes.
POOL_PROBE_TRIALS = 4

TRACE_SIZES = {
    "los-serial": TraceSizes("los", 300, 0, 1),
    "nlos-sweep-serial": TraceSizes("nlos", 20, 50, 1),
    "nlos-sweep-pooled": TraceSizes("nlos", 20, wl.SWEEP_TRIALS, 1),
    "cm-plan": TraceSizes("cm", 20, 0, 2),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    trial: str

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """In-memory spans; a span's parent is the span open when it began."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, trial: str):
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, trial))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx].end = time.perf_counter()

    def call(self, name: str, trial: str, fn, *args, **kwargs):
        with self.span(name, trial):
            return fn(*args, **kwargs)

    def total_ms(self, name: str, trial_prefix: str = "") -> float:
        return 1e3 * sum(
            s.end - s.start for s in self.spans
            if s.name == name and s.trial.startswith(trial_prefix)
        )

    def self_ms_by_layer(self) -> dict[str, float]:
        """Span time minus the part its child spans cover, summed per layer."""
        child_s = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_s[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for s, kids in zip(self.spans, child_s):
            out[s.layer] = out.get(s.layer, 0.0) + 1e3 * (s.end - s.start - kids)
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "layer": s.layer, "start": s.start,
                    "end": s.end, "parent": s.parent, "trial": s.trial,
                }) + "\n")


def replay_trial(cfg, t: int, tr: Tracer, trial: str):
    """`run_trial(cfg, t)` stage by stage; returns (record, channel)."""
    rng = trial_rng(cfg.seed, t)
    bs_irs = tr.call(
        "channel.sample_paths", trial, sample_paths,
        cfg.paths_bs_irs, cfg.rician_bs_irs_db, rng, with_bs_aod=True,
    )
    irs_user = tr.call(
        "channel.sample_paths", trial, sample_paths,
        cfg.paths_irs_user, cfg.irs_user_rician_db, rng,
    )
    ch = tr.call("channel.assemble_channels", trial, assemble_channels, bs_irs, irs_user, cfg.array)
    plan = tr.call("codebook.build_scan_plan", trial, build_scan_plan, cfg.array, cfg.q, cfg.l, cfg.mode, rng)
    sigma = 0.0 if cfg.snr_db is None else tr.call("harness.snr_to_sigma", trial, snr_to_sigma, ch.h, cfg.snr_db)
    ms = tr.call("decoder.synthesize_measurements", trial, synthesize_measurements, ch.lam, plan, sigma, rng)
    if sigma > 0:
        epsilon = tr.call("decoder.rayleigh_threshold", trial, rayleigh_threshold, sigma, cfg.p_fa)
    else:
        epsilon = 1e-9 * max(float(y.max()) for y in ms.y)
    if cfg.scenario == "los":
        est = tr.call("decoder.decode_los", trial, decode_los, ms, plan, epsilon)
    else:
        est = tr.call("decoder.decode_nlos", trial, decode_nlos, ms, plan, epsilon)
    success = (est.i_star, est.j_star) == ch.strongest
    ratio = tr.call("harness.bgr", trial, bgr, ch, est) if cfg.compute_bgr else float("nan")
    return TrialRecord(success=success, bgr=ratio, estimate=est), ch


@dataclass
class Replayed:
    """Replayed trials of one kind, with untraced and traced op times."""

    records: list[TrialRecord]
    untraced_s: float = 0.0
    traced_s: float = 0.0


def replay_and_compare(tr: Tracer, res: RunResult, cfg, trials, label: str) -> Replayed:
    """Replay each trial traced, run it untraced, and require equal records."""
    out = Replayed(records=[])
    for t in trials:
        trial = f"{label}:{t}"
        res.attempted += 1
        try:
            t0 = time.perf_counter()
            expected = run_trial(cfg, t)
            t1 = time.perf_counter()
            with tr.span("bench.op", trial):
                got, ch = replay_trial(cfg, t, tr, trial)
            t2 = time.perf_counter()
            if got != expected:
                raise CheckFailed(f"replay of {trial} differs from run_trial: {got} != {expected}")
            wl.check_trial(cfg, got, ch.strongest)
        except OP_ERRORS as exc:
            res.fail(exc)
            continue
        out.untraced_s += t1 - t0
        out.traced_s += t2 - t1
        out.records.append(got)
    return out


def traced_sweep(tr, res, base_cfg, workers: int, outdir: str, label: str, replayed: dict):
    """One traced `irsbeam sweep`; its rows must equal the aggregated replay.

    Returns (wall seconds, child CPU seconds)."""
    config_path = os.path.join(outdir, f"traced-{label}.cfg")
    csv_path = os.path.join(outdir, f"traced-{label}.csv")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(wl.sweep_config_text(base_cfg))
    trials = base_cfg.trials * len(base_cfg.snr_sweep)
    res.attempted += trials
    try:
        with tr.span("bench.probe", label):
            parsed = tr.call("config.parse_config", label, parse_config, config_path)
        if replace(parsed, output=None) != base_cfg:
            raise CheckFailed(f"generated config parses to {parsed}")
        c0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        with tr.span("bench.op", label):
            text = tr.call("cli.main", label, wl.cli_sweep, config_path, csv_path, base_cfg.seed, workers)
        wall = time.perf_counter() - t0
        c1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        rows = wl.check_sweep_csv(text, base_cfg)
        for row, snr in zip(rows, base_cfg.snr_sweep):
            want = aggregate(replayed[snr][: base_cfg.trials], "snr", snr, base_cfg.seed)
            if row != [str(x) for x in want.as_list()]:
                raise CheckFailed(f"sweep row {row} != replayed {want.as_list()}")
    except OP_ERRORS as exc:
        res.fail(exc, trials)
        return math.nan, math.nan
    cpu = (c1.ru_utime - c0.ru_utime) + (c1.ru_stime - c0.ru_stime)
    return wall, cpu


def cm_round_trip(tr: Tracer, res: RunResult, seed: int, trial: str):
    """One traced cm-plan op, then a re-solve of every beam for counts.

    Returns (op seconds, [(iterations, converged)] per beam)."""
    res.attempted += 1
    try:
        t0 = time.perf_counter()
        with tr.span("bench.op", trial):
            rng = np.random.default_rng(seed)
            built = replace(
                tr.call("codebook.cm_build", trial, build_scan_plan, wl.ARRAY, wl.Q, wl.L, CONSTANT_MODULUS, rng),
                seed=seed,
            )
            text = tr.call("codebook.plan_to_json", trial, plan_to_json, built)
            reloaded = tr.call("codebook.plan_from_json", trial, plan_from_json, text)
        op_s = time.perf_counter() - t0
        wl.check_plan_roundtrip(built, reloaded)
        bar_d = cascade_dictionary(wl.ARRAY)
        solves = []
        with tr.span("bench.probe", trial):
            for rnd in built.rounds:
                for ui, sup in enumerate(rnd.c_design):
                    cm = tr.call("codebook.optimize_constant_modulus", trial, optimize_constant_modulus, bar_d[:, sup])
                    if not np.array_equal(cm.v, rnd.v_beams[:, ui]):
                        raise CheckFailed(f"{trial}: re-solved beam {ui} differs from the plan's")
                    solves.append((len(cm.objectives) - 1, cm.converged))
    except OP_ERRORS as exc:
        res.fail(exc)
        return math.nan, []
    return op_s, solves


def traced_run(workload: str, seed: int, outdir: str, dictionary_build_ms: float):
    """Run every traced part for `workload`.

    Returns (RunResult, per-layer metrics, self ms by layer, Tracer)."""
    sizes = TRACE_SIZES[workload]
    tr = Tracer()
    res = RunResult()

    los_cfg = wl.los_config(seed)
    los = replay_and_compare(tr, res, los_cfg, range(sizes.los_trials), "los")

    # NLOS trials of every SNR point, enough for the pooled probe sweep and
    # for the workload's own sweep when it has one.
    per_point = max(POOL_PROBE_TRIALS, sizes.sweep_trials)
    nlos_cfg = wl.nlos_config(seed, per_point)
    nlos = Replayed(records=[])
    by_snr = {}
    for snr in nlos_cfg.snr_sweep:
        part = replay_and_compare(tr, res, replace(nlos_cfg, snr_db=snr), range(per_point), f"nlos{snr:g}")
        by_snr[snr] = part.records
        nlos.records += part.records
        nlos.untraced_s += part.untraced_s
        nlos.traced_s += part.traced_s

    if sizes.sweep_trials:
        traced_sweep(tr, res, replace(nlos_cfg, trials=sizes.sweep_trials),
                     wl.sweep_workers(workload), outdir, f"sweep-seed{seed}", by_snr)
    workers = wl.pool_workers()
    probe_cfg = replace(nlos_cfg, trials=POOL_PROBE_TRIALS)
    pool_wall, pool_cpu = traced_sweep(tr, res, probe_cfg, workers, outdir, f"pool-seed{seed}", by_snr)
    probe_trials = POOL_PROBE_TRIALS * len(probe_cfg.snr_sweep)
    serial_per_trial = nlos.untraced_s / len(nlos.records) if nlos.records else math.nan

    cm_traced_s, solves = 0.0, []
    for k in range(sizes.cm_ops):
        op_s, beams = cm_round_trip(tr, res, wl.derived_seed(seed, k), f"cm:{k}")
        cm_traced_s += op_s
        solves += beams
    # On cm-plan the untraced ops repeat the traced ops' seeds, so both time
    # the same work.
    cm_untraced_s = 0.0
    for k in range(sizes.cm_ops if sizes.own == "cm" else 0):
        res.attempted += 1
        try:
            t0 = time.perf_counter()
            built, _, reloaded = wl.cm_plan_op(wl.derived_seed(seed, k))
            cm_untraced_s += time.perf_counter() - t0
            wl.check_plan_roundtrip(built, reloaded)
        except OP_ERRORS as exc:
            res.fail(exc)

    if sizes.own == "cm":
        overhead = cm_untraced_s / cm_traced_s
    else:
        own = los if sizes.own == "los" else nlos
        overhead = own.untraced_s / own.traced_s
    own_prefix, own_records = ("nlos", nlos.records) if sizes.own == "nlos" else ("los", los.records)
    n_own = max(len(own_records), 1)
    n_cm = max(sizes.cm_ops, 1)

    metrics = {
        "arrays.dictionary_build_ms": (dictionary_build_ms, "ms"),
        "channel.sample_paths_ms": (tr.total_ms("channel.sample_paths", own_prefix) / n_own, "ms"),
        "channel.assemble_channels_ms": (tr.total_ms("channel.assemble_channels", own_prefix) / n_own, "ms"),
        "codebook.build_scan_plan_ms": (tr.total_ms("codebook.build_scan_plan", own_prefix) / n_own, "ms"),
        "codebook.cm_build_ms": (tr.total_ms("codebook.cm_build") / n_cm, "ms"),
        "codebook.plan_to_json_ms": (tr.total_ms("codebook.plan_to_json") / n_cm, "ms"),
        "codebook.plan_from_json_ms": (tr.total_ms("codebook.plan_from_json") / n_cm, "ms"),
        "codebook.cm_solves": (len(solves) / n_cm, "count"),
        "codebook.cm_iters_mean": (wl.mean_or_nan(i for i, _ in solves), "count"),
        "codebook.cm_unconverged_ratio": (wl.mean_or_nan(0.0 if c else 1.0 for _, c in solves), "ratio"),
        "decoder.synthesize_ms": (tr.total_ms("decoder.synthesize_measurements", own_prefix) / n_own, "ms"),
        "decoder.decode_ms": (
            (tr.total_ms("decoder.decode_los", own_prefix) + tr.total_ms("decoder.decode_nlos", own_prefix)) / n_own,
            "ms",
        ),
        "decoder.candidates_mean": (wl.mean_or_nan(r.estimate.candidate_count for r in own_records), "count"),
        "decoder.nm_rounds_mean": (wl.mean_or_nan(len(r.estimate.nm_rounds) for r in nlos.records), "count"),
        "harness.bgr_ms": (tr.total_ms("harness.bgr", own_prefix) / n_own, "ms"),
        "harness.worker_cpu_per_trial_ms": (1e3 * pool_cpu / probe_trials, "ms"),
        "harness.pool_efficiency": (serial_per_trial * probe_trials / (workers * pool_wall), "ratio"),
        "trace.ops_per_s_ratio": (overhead, "ratio"),
    }
    res.info["pool_probe_workers"] = (workers, "count", "IRSBEAM_WORKERS of the pooled probe sweep")
    return res, metrics, tr.self_ms_by_layer(), tr
