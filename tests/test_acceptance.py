"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line (run with -s to see them even on success).
"""

import itertools
import math

import numpy as np
import pytest

from irsbeam.arrays import ArrayConfig, cascade_dictionary, dft_dictionary
from irsbeam.codebook import build_scan_plan, optimize_constant_modulus
from irsbeam.decoder import decode_los, decode_nlos, synthesize_measurements
from irsbeam.harness import (
    ExperimentConfig,
    aggregate,
    run_trial,
    run_trials,
    sweep,
)
from irsbeam.theory import PlanProbe, g_exact, p_lower_los, p_lower_nlos, p_nm_round

from helpers import channel_from_lambda, exhaustive, exhaustive_scan

PAPER = ArrayConfig(n_t=128, m_y=16, m_z=16, r=4)
WIDE = ArrayConfig(n_t=128, m_y=16, m_z=16, r=8)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"{status} criterion {number:2d}: {name}{suffix}")
    assert ok, f"criterion {number} failed: {name}{suffix}"


def planted(m, n_t, k, rng, magnitudes=None):
    """Beamspace matrix with k nonzero entries at random positions/phases."""
    lam = np.zeros((m, n_t), complex)
    pos = rng.choice(m * n_t, size=k, replace=False)
    mags = np.ones(k) if magnitudes is None else magnitudes
    lam.flat[pos] = mags * np.exp(1j * rng.uniform(0, 2 * np.pi, k))
    return lam


def test_criterion_1_single_path_bound_values():
    got = [
        p_lower_los(PlanProbe(m=256, n_t=128, q=32, r=4, l=4)),
        p_lower_los(PlanProbe(m=256, n_t=128, q=16, r=4, l=3)),
        p_lower_los(PlanProbe(m=256, n_t=128, q=16, r=4, l=4)),
    ]
    want = [0.9443, 0.9465, 0.9969]
    err = max(abs(g - w) for g, w in zip(got, want))
    report(1, "single-path success bound reference values", err < 5e-5,
           f"max abs err {err:.2e}")


def test_criterion_2_nm_round_probability_values():
    got = [
        p_nm_round(PlanProbe(m=256, n_t=128, q=64, r=4, l=1, k=4)),
        p_nm_round(PlanProbe(m=256, n_t=128, q=32, r=4, l=1, k=4)),
        p_nm_round(PlanProbe(m=256, n_t=128, q=32, r=4, l=1, k=2)),
    ]
    want = [0.9540, 0.9769, 0.9961]
    err = max(abs(g - w) for g, w in zip(got, want))
    report(2, "no-multiton round probability reference values", err < 5e-5,
           f"max abs err {err:.2e}")


def test_criterion_3_multipath_bound_values():
    got = [
        p_lower_nlos(PlanProbe(m=256, n_t=128, q=32, r=4, l=4, k=4)),
        p_lower_nlos(PlanProbe(m=256, n_t=128, q=32, r=4, l=5, k=4)),
        p_lower_nlos(PlanProbe(m=256, n_t=128, q=16, r=4, l=4, k=2)),
    ]
    want = [0.9152, 0.9863, 0.9965]
    err = max(abs(g - w) for g, w in zip(got, want))
    report(3, "multipath success bound reference values", err < 5e-4,
           f"max abs err {err:.2e}")


def test_criterion_4_cover_probability_enumeration():
    def brute(x, y, z):
        if y == 0:
            return 1.0 if z == 1 else 0.0
        pool = [frozenset(c) for c in itertools.combinations(range(1, z), x - 1)]
        hits = sum(
            not frozenset.intersection(*combo)
            for combo in itertools.product(pool, repeat=y)
        )
        return hits / len(pool) ** y

    worst = 0.0
    for z in range(2, 9):
        for x in range(1, z + 1):
            for y in range(0, 4):
                worst = max(worst, abs(g_exact(x, y, z) - brute(x, y, z)))
    report(4, "exact disambiguation probability vs enumeration", worst < 1e-12,
           f"max abs err {worst:.2e}")


def test_criterion_5_noiseless_single_path_monte_carlo():
    trials = 2000
    bound = p_lower_los(PlanProbe(m=256, n_t=128, q=32, r=4, l=4))
    floor = bound - 3 * math.sqrt(bound * (1 - bound) / trials)
    hits = 0
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((1005, t)))
        lam = planted(256, 128, 1, rng)
        truth = np.unravel_index(np.argmax(np.abs(lam)), lam.shape)
        plan = build_scan_plan(PAPER, 32, 4, rng=rng)
        ms = synthesize_measurements(lam, plan, 0.0)
        eps = 1e-9 * max(float(y.max()) for y in ms.y)
        est = decode_los(ms, plan, eps)
        hits += (est.i_star, est.j_star) == truth
    rate = hits / trials
    report(5, "noiseless single-path Monte Carlo beats bound", rate >= floor,
           f"rate {rate:.4f} vs floor {floor:.4f}")


def test_criterion_6_noiseless_multipath_monte_carlo():
    trials = 2000
    bound = p_lower_nlos(PlanProbe(m=256, n_t=128, q=32, r=4, l=5, k=4))
    floor = bound - 3 * math.sqrt(bound * (1 - bound) / trials)
    hits = 0
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((1006, t)))
        lam = planted(256, 128, 4, rng, magnitudes=rng.uniform(0.4, 1.0, 4))
        truth = np.unravel_index(np.argmax(np.abs(lam)), lam.shape)
        plan = build_scan_plan(PAPER, 32, 5, rng=rng)
        ms = synthesize_measurements(lam, plan, 0.0)
        eps = 1e-6 * max(float(y.max()) for y in ms.y)
        est = decode_nlos(ms, plan, eps)
        hits += (est.i_star, est.j_star) == truth
    rate = hits / trials
    report(6, "noiseless multipath Monte Carlo beats bound", rate >= floor,
           f"rate {rate:.4f} vs floor {floor:.4f}")


def test_criterion_7_nm_round_frequency():
    cfg = ArrayConfig(n_t=8, m_y=4, m_z=4, r=2)
    probe = PlanProbe(m=16, n_t=8, q=4, r=2, l=1, k=2)
    p = p_nm_round(probe)
    n = 100_000
    rng = np.random.default_rng(1007)
    hits = 0
    for _ in range(n):
        plan = build_scan_plan(cfg, 4, 1, rng=rng)
        rnd = plan.rounds[0]
        pos = rng.choice(16 * 8, size=2, replace=False)
        ii, jj = np.unravel_index(pos, (16, 8))
        bins = set(zip(rnd.row_bin[ii], rnd.col_bin[jj]))
        hits += len(bins) == 2
    freq = hits / n
    margin = 3 * math.sqrt(p * (1 - p) / n)
    report(7, "no-multiton round frequency matches closed form",
           abs(freq - p) <= margin,
           f"freq {freq:.4f} vs p {p:.4f} +- {margin:.4f}")


def test_criterion_8a_success_non_decreasing_in_rounds():
    rates, errs = [], []
    for l in range(2, 9):
        cfg = ExperimentConfig(
            array=WIDE, q=16, l=l, snr_db=-20.0, trials=500, seed=81,
            compute_bgr=False,
        )
        records = run_trials(cfg)
        row = aggregate(records, "T", l, cfg.seed)
        rates.append(row.success_rate)
        errs.append(row.stderr)
    inversions = [
        i for i in range(1, len(rates)) if rates[i] < rates[i - 1]
    ]
    # sampling noise: allow one inversion, and only within two stderr
    ok = len(inversions) <= 1 and all(
        rates[i - 1] - rates[i] <= 2 * (errs[i] + errs[i - 1]) for i in inversions
    )
    report(81, "noisy success rate non-decreasing in round count", ok,
           "rates " + " ".join(f"{r:.3f}" for r in rates))


def test_criterion_8b_low_budget_beats_ninety_percent():
    # 7 rounds of 16x16 bins = 1792 measurements vs 32768 exhaustive (5.5%)
    trials = 500
    cfg = ExperimentConfig(
        array=WIDE, q=16, l=7, snr_db=-20.0, trials=trials, seed=82,
        compute_bgr=True,
    )
    records = run_trials(cfg)
    rate = sum(r.success for r in records) / trials
    mean_bgr = float(np.mean([r.bgr for r in records]))
    base = run_trials(exhaustive(cfg))
    base_bgr = float(np.mean([r.bgr for r in base]))
    ok = rate >= 0.9 and abs(mean_bgr - base_bgr) <= 0.05
    report(82, "5.5% training budget: success >= 0.9, gain matches exhaustive",
           ok, f"rate {rate:.3f}, bgr {mean_bgr:.3f} vs baseline {base_bgr:.3f}")


def test_criterion_8c_success_flat_in_surface_size():
    rates = []
    for m, (m_y, m_z) in [(64, (8, 8)), (128, (16, 8)), (256, (16, 16))]:
        arr = ArrayConfig(n_t=128, m_y=m_y, m_z=m_z, r=8)
        cfg = ExperimentConfig(
            array=arr, q=m // 16, l=4, snr_db=-20.0, trials=500,
            seed=83, compute_bgr=False,
        )
        records = run_trials(cfg)
        rates.append(sum(r.success for r in records) / cfg.trials)
    spread = max(rates) - min(rates)
    report(83, "success varies < 5 points across surface sizes at fixed bins",
           spread < 0.05, "rates " + " ".join(f"{r:.3f}" for r in rates))


def test_criterion_9_exhaustive_baseline_noiseless():
    cfg = ArrayConfig(n_t=32, m_y=8, m_z=8, r=4)
    rng = np.random.default_rng(1009)
    hits = 0
    for _ in range(100):
        lam = rng.standard_normal((64, 32)) + 1j * rng.standard_normal((64, 32))
        ch = channel_from_lambda(lam, cfg)
        est, _ = exhaustive_scan(ch, 0.0, rng)
        hits += (est.i_star, est.j_star) == ch.strongest
    report(9, "noiseless exhaustive baseline is exact", hits == 100,
           f"{hits}/100")


def test_criterion_10_constant_modulus_codebook():
    cfg = ArrayConfig(n_t=128, m_y=16, m_z=16, r=4)
    bar_d = cascade_dictionary(cfg)
    rng = np.random.default_rng(1010)
    q = 16
    concentrated = 0
    unit_ok = True
    monotone_ok = True
    for _ in range(100):
        support = np.sort(rng.choice(256, size=q, replace=False))
        res = optimize_constant_modulus(bar_d[:, support])
        # 2 ulp is the fixpoint of z / |z| in binary floats
        unit_ok &= bool(np.abs(np.abs(res.v) - 1).max() <= 2 * np.finfo(float).eps)
        diffs = np.diff(res.objectives)
        monotone_ok &= bool((diffs > 0).all())
        c = np.abs(bar_d.conj().T @ res.v) ** 2
        concentrated += c[support].sum() / c.sum() >= 0.5
    ok = unit_ok and monotone_ok and concentrated >= 90
    report(10, "phase-only codebook: unit modulus, monotone solver, focused",
           ok, f"concentrated {concentrated}/100")


def test_criterion_11_decoder_micro_oracles():
    cfg = ArrayConfig(n_t=16, m_y=4, m_z=4, r=4)
    rng = np.random.default_rng(1011)
    exact = True
    for _ in range(5):
        plan = build_scan_plan(cfg, 4, 2, rng=rng)
        for rnd in plan.rounds:
            n_u, n_v = rnd.c_design.shape[0], rnd.a_supports.shape[0]
            y = rng.uniform(0, 2, size=(n_u, n_v))
            p = (y * y)[np.ix_(rnd.row_bin, rnd.col_bin)]
            y_sq = (y * y).ravel()
            for i in range(16):
                for j in range(16):
                    ind = np.zeros((n_u, n_v))
                    u_true = v_true = None
                    for u in range(n_u):
                        if i in rnd.c_supports[u]:
                            u_true = u
                    for v in range(n_v):
                        if j in rnd.a_supports[v]:
                            v_true = v
                    ind[u_true, v_true] = 1.0
                    exact &= p[i, j] == ind.ravel() @ y_sq
                    exact &= (rnd.row_bin[i], rnd.col_bin[j]) == (u_true, v_true)
    report(11, "bin lookup and score matrix match exhaustive scan", exact)
