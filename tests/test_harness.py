import ctypes
import glob
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import irsbeam
from irsbeam import harness
from irsbeam.arrays import (
    ArrayConfig,
    _cascade_dictionary_cached,
    cascade_dictionary,
    dft_dictionary,
)
from irsbeam.channel import CascadeChannel, assemble_channels, sample_paths
from irsbeam.codebook import CONSTANT_MODULUS, IDEAL_SPARSE, ScanPlan, build_scan_plan
from irsbeam.config import parse_config, parse_config_text
from irsbeam.decoder import AlignmentEstimate, decode_los, synthesize_measurements
from irsbeam.errors import InvalidParameterError
from irsbeam.harness import (
    BGR_MAX_ITERS,
    BGR_TOL,
    CSV_HEADER,
    ExperimentConfig,
    TrialRecord,
    _worker_count,
    aggregate,
    bgr,
    rows_to_csv,
    run_trial,
    run_trials,
    snr_to_sigma,
    sweep,
    sweep_points,
    trial_rng,
)

from helpers import channel_from_lambda, exhaustive, grid_decode, optimal_beams

SMALL = ArrayConfig(n_t=16, m_y=4, m_z=4, r=4)
SMALL_CFG = ExperimentConfig(array=SMALL, q=4, l=3, trials=4, seed=7)
# the acceptance-size point: N_t=128, M=16x16, Q=16, R=8, L=7
ACCEPTANCE_CFG = ExperimentConfig(
    array=ArrayConfig(n_t=128, m_y=16, m_z=16, r=8), q=16, l=7, seed=77
)



def _openblas_threads():
    """(getter, setter) of numpy's bundled OpenBLAS thread count, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            get, put = f"{prefix}_get_num_threads64_", f"{prefix}_set_num_threads64_"
            if hasattr(lib, get) and hasattr(lib, put):
                get, put = getattr(lib, get), getattr(lib, put)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def _blas_threads_runner(cfgs, trials):
    """A stand-in for _run_block that reports its worker's BLAS thread
    count as each config's record."""
    return [[_openblas_threads()[0]()] * len(cfgs) for _ in trials]


# Prints every field of seeded LOS and NLOS records at -30 dB, exactly.
RECORDS_SCRIPT = """
from dataclasses import replace
from irsbeam.arrays import ArrayConfig
from irsbeam.harness import ExperimentConfig, run_trial
base = ExperimentConfig(array=ArrayConfig(n_t=128, m_y=16, m_z=16, r=8),
                        q=16, l=7, snr_db=-30.0, seed=77)
for scenario in ("los", "nlos"):
    cfg = replace(base, scenario=scenario)
    for t in range(40):
        rec = run_trial(cfg, t)
        print(repr(rec), repr(rec.estimate))
"""

# ru_minflt of 200 acceptance-size trials at -20 dB in a fresh process,
# after three warm-up trials, and whether the cascade dictionary was built
FAULTS_SCRIPT = """
import resource
from irsbeam.arrays import ArrayConfig, _cascade_dictionary_cached
from irsbeam.harness import ExperimentConfig, run_trial
cfg = ExperimentConfig(array=ArrayConfig(n_t=128, m_y=16, m_z=16, r=8),
                       q=16, l=7, snr_db=-20.0, seed=77)
for t in range(3):
    run_trial(cfg, t)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for t in range(3, 203):
    run_trial(cfg, t)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(faults, _cascade_dictionary_cached.cache_info().currsize)
"""


def _trial_measurements(cfg, t):
    """The measurements and plan of run_trial(cfg, t), drawn stage by
    stage through the public functions, as the trial draws them."""
    rng = trial_rng(cfg.seed, t)
    ch = assemble_channels(
        sample_paths(cfg.paths_bs_irs, cfg.rician_bs_irs_db, rng, with_bs_aod=True),
        sample_paths(cfg.paths_irs_user, cfg.irs_user_rician_db, rng), cfg.array)
    plan = build_scan_plan(cfg.array, cfg.q, cfg.l, cfg.mode, rng)
    sigma = 0.0 if cfg.snr_db is None else snr_to_sigma(ch.h, cfg.snr_db)
    return synthesize_measurements((ch.x, ch.y), plan, sigma, rng), plan


def _fresh_python(script: str, threads: str) -> str:
    """The stdout of `script` in a fresh interpreter that imports this
    package, with `threads` BLAS threads."""
    src = str(Path(irsbeam.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run(
        [sys.executable, "-c", script], env=env, check=True, capture_output=True, text=True,
    ).stdout


# a value of the wrong type for each field kind
WRONG_FIELD_TYPES = [
    (SMALL_CFG, "seed", 1.5),
    (SMALL_CFG, "seed", True),
    (SMALL_CFG, "q", 2.0),
    (SMALL_CFG, "l", 2.0),
    (SMALL_CFG, "paths_bs_irs", 2.0),
    (SMALL_CFG, "paths_irs_user", np.float64(2.0)),
    (SMALL_CFG, "trials", 2.5),
    (SMALL_CFG, "t_sweep", (2, 2.0)),
    (SMALL_CFG, "t_sweep", (True,)),
    (SMALL_CFG, "m_sweep", (16.0,)),
    (SMALL_CFG, "m_sweep", 16),
    (SMALL_CFG, "snr_db", "x"),
    (SMALL_CFG, "snr_sweep", (0.0, "5")),
    (SMALL_CFG, "p_fa", "0.1"),
    (SMALL_CFG, "rician_bs_irs_db", None),
    (SMALL_CFG, "rician_irs_user_db", "3"),
    (SMALL_CFG, "mode", 1),
    (SMALL_CFG, "scenario", None),
    (SMALL_CFG, "output", 3),
    (SMALL, "n_t", 8.0),
    (SMALL, "r", True),
    (SMALL, "m_y", "4"),
    (SMALL, "m_z", None),
    (SMALL, "spacing_ratio", "0.5"),
]


class TestSnrCalibration:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal((16, 8)) + 1j * rng.standard_normal((16, 8))
        for snr in (-30.0, -10.0, 0.0, 15.0):
            sigma = snr_to_sigma(h, snr)
            back = 10 * math.log10(
                np.linalg.norm(h) ** 2 / (8 * 16 * sigma**2)
            )
            assert back == pytest.approx(snr, abs=1e-12)

    @pytest.mark.parametrize("snr", [4000.0, -4000.0, np.nan])
    def test_snr_without_finite_power_rejected(self, snr):
        # 10^(x/10) overflows above ~3082.5 dB and is 0 below ~-3240 dB
        with pytest.raises(InvalidParameterError, match="snr_db"):
            snr_to_sigma(np.ones((4, 4)), snr)

    @pytest.mark.parametrize("snr", [3060.0, 3080.0, 3082.5])
    def test_snr_whose_noise_std_rounds_to_zero_rejected(self, snr):
        # N_t*M*10^(snr/10) overflows at N_t=128, 16x16, so sigma came
        # back 0.0 and the trial ran noiseless
        with pytest.raises(InvalidParameterError, match="snr_db"):
            snr_to_sigma(np.ones((256, 128)), snr)

    def test_sigma_that_underflows_rejected(self):
        # sigma of about 1e-450 rounds to 0 through the rescaled branch
        with pytest.raises(InvalidParameterError, match="snr_db"):
            snr_to_sigma(np.full((4, 4), 1e-300), 3000.0)

    def test_high_snr_below_the_bound_kept(self):
        assert snr_to_sigma(np.ones((256, 128)), 3000.0) == 1e-150

    def test_zero_channel_rejected(self):
        with pytest.raises(InvalidParameterError):
            snr_to_sigma(np.zeros((4, 4)), 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_channel_rejected(self, bad):
        with pytest.raises(InvalidParameterError):
            snr_to_sigma(np.full((4, 4), bad), 0.0)

    @settings(deadline=None, max_examples=100)
    @given(st.integers(-300, 300), st.floats(-40.0, 40.0))
    def test_sigma_scales_with_channel(self, k, snr):
        # no under- or overflow anywhere in the float range
        rng = np.random.default_rng(3)
        h = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        expected = 10.0**k * snr_to_sigma(h, snr)
        assert snr_to_sigma(10.0**k * h, snr) == pytest.approx(expected, rel=1e-12)


def _reference_beams(u, b):
    """The BGR reference beams of one pair, as the pipeline takes them: a
    stack of one through harness._lockstep_beams."""
    v, f = harness._lockstep_beams(u[None], b[None])
    return v[0], f[0]


class TestOptimalBeams:
    def test_rank_one_reaches_full_gain(self):
        # h = v0 f0^H with constant-modulus v0: the optimum is exactly M * N_t
        rng = np.random.default_rng(1)
        m, n_t = 16, 8
        v0 = np.exp(1j * rng.uniform(0, 2 * np.pi, m))
        f0 = rng.standard_normal(n_t) + 1j * rng.standard_normal(n_t)
        f0 /= np.linalg.norm(f0)
        v, f = _reference_beams(v0[:, None], f0[:, None])
        gain = abs(np.vdot(v, np.outer(v0, f0.conj()) @ f)) ** 2
        assert gain == pytest.approx(m**2, rel=1e-9)

    def test_constraints_hold(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
        b = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        v, f = _reference_beams(u, b)
        assert v.shape == (16,) and f.shape == (8,)
        assert np.abs(np.abs(v) - 1).max() < 1e-12
        assert np.linalg.norm(f) == pytest.approx(1.0, abs=1e-12)


class TestBgr:
    @pytest.mark.parametrize("fill", [0.0, np.nan, np.inf])
    def test_zero_or_non_finite_channel_rejected(self, fill):
        # an all-zero channel scored nan with a RuntimeWarning, and a
        # non-finite one raised numpy's LinAlgError from eig
        zero = channel_from_lambda(np.zeros((SMALL.m, SMALL.n_t), complex), SMALL)
        ch = replace(zero, u=np.full_like(zero.u, fill), x=np.full_like(zero.x, fill))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="finite and nonzero"):
                bgr(ch, AlignmentEstimate(0, 0, 1, (), 0.0))
            with pytest.raises(InvalidParameterError, match="finite and nonzero"):
                _reference_beams(ch.u, ch.b)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_channel_beyond_the_float_range_rejected(self, scale):
        # finite, nonzero factors whose h = u b^H over- or underflows: the
        # score was nan (inf / inf, or 0 / 0 with a RuntimeWarning)
        rng = np.random.default_rng(5)
        ch = channel_from_lambda(rng.standard_normal((SMALL.m, SMALL.n_t)) + 0j, SMALL)
        ch = replace(ch, u=scale * ch.u, b=scale * ch.b, x=scale * ch.x, y=scale * ch.y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="finite and nonzero"):
                bgr(ch, AlignmentEstimate(*ch.strongest, 1, (), 0.0))

    @pytest.mark.parametrize("scale", [2.0**-1030, 2.0**-1074])
    def test_factor_below_the_scale_range_rejected(self, scale):
        # a nonzero factor whose peak lies below 2^-1024 was scaled by an
        # infinite power of two, and eig raised numpy's LinAlgError
        rng = np.random.default_rng(6)
        u = rng.standard_normal((SMALL.m, 2)) + 1j * rng.standard_normal((SMALL.m, 2))
        b = rng.standard_normal((SMALL.n_t, 2)) + 0j
        u /= np.abs(u).max()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for pair in ((u * scale, b), (u, b * scale)):
                with pytest.raises(InvalidParameterError, match="finite and nonzero"):
                    harness._lockstep_beams(pair[0][None], pair[1][None])

    @pytest.mark.parametrize("i,j", [(-1, 0), (SMALL.m, 0), (0, SMALL.n_t), (0, -1)])
    def test_estimate_outside_the_grid_rejected(self, i, j):
        # (-1, 0) scored entry (M - 1, 0), and (M, 0) raised a bare IndexError
        lam = np.zeros((SMALL.m, SMALL.n_t), complex)
        lam[SMALL.m - 1, 0] = 1.0
        ch = channel_from_lambda(lam, SMALL)
        with pytest.raises(InvalidParameterError, match="outside the 16 x 16 grid"):
            bgr(ch, AlignmentEstimate(i, j, 1, None, 0.0))

    def test_channel_whose_factors_cancel_rejected(self):
        # two paths with the same IRS factor and opposite BS factors, all
        # ones, so every product is exact and h = u b^H is exactly 0
        u = np.ones((SMALL.m, 2), complex)
        b = np.ones((SMALL.n_t, 2), complex) * [1, -1]
        ch = CascadeChannel(strongest=(0, 0), x=cascade_dictionary(SMALL).conj().T @ u,
                            y=b.conj().T @ dft_dictionary(SMALL.n_t), u=u, b=b, cfg=SMALL)
        assert not (u @ b.conj().T).any()
        with pytest.raises(InvalidParameterError, match="finite and nonzero"):
            _reference_beams(ch.u, ch.b)
        with pytest.raises(InvalidParameterError, match="finite and nonzero"):
            bgr(ch, AlignmentEstimate(0, 0, 1, (), 0.0))

    def test_correct_grid_estimate_on_grid_channel(self):
        # single beamspace entry: estimate == strongest gives the best grid
        # pair, which the full-CSI reference can only match or beat
        lam = np.zeros((SMALL.m, SMALL.n_t), complex)
        lam[5, 3] = 1.0
        ch = channel_from_lambda(lam, SMALL)
        est = AlignmentEstimate(i_star=5, j_star=3, candidate_count=1,
                                nm_rounds=(), detector_threshold=0.0)
        ratio = bgr(ch, est)
        assert 0.0 < ratio <= 1.0 + 1e-9
        assert ratio == pytest.approx(1.0, abs=1e-6)

    def test_wrong_estimate_scores_lower(self):
        lam = np.zeros((SMALL.m, SMALL.n_t), complex)
        lam[5, 3] = 1.0
        ch = channel_from_lambda(lam, SMALL)
        right = AlignmentEstimate(5, 3, 1, (), 0.0)
        wrong = AlignmentEstimate(0, 0, 1, (), 0.0)
        assert bgr(ch, wrong) < bgr(ch, right)

    def test_never_exceeds_one(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            lam = rng.standard_normal((SMALL.m, SMALL.n_t)) + 1j * rng.standard_normal(
                (SMALL.m, SMALL.n_t)
            )
            ch = channel_from_lambda(lam, SMALL)
            i, j = ch.strongest
            assert bgr(ch, AlignmentEstimate(i, j, 1, (), 0.0)) <= 1.0 + 1e-9


def dense_optimal_gain(h):
    """Oracle for the full-CSI reference gain |v^H h f|^2, computed on the
    dense M x N_t channel: alternating maximization of |v^H h f| from the
    dominant right singular vector of a full SVD.

    An unconverged start would be no oracle: 50 power iterations on
    h^H h leave it off the dominant direction when sigma_2 / sigma_1 is
    near 1, and the ascent can then stop at another local maximum.
    """
    f = np.linalg.svd(h)[2][0].conj()
    obj = 0.0
    for _ in range(BGR_MAX_ITERS):
        hf = h @ f
        v = np.exp(1j * np.angle(hf))
        vh = h.conj().T @ v
        nrm = np.linalg.norm(vh)
        if nrm == 0:
            break
        f = vh / nrm
        new_obj = abs(np.vdot(v, h @ f))
        if new_obj - obj <= BGR_TOL * obj:
            break
        obj = new_obj
    return abs(np.vdot(v, h @ f)) ** 2


@st.composite
def small_channels(draw):
    """A sampled cascade channel on an array of up to 4 x 4 IRS elements
    and 8 BS antennas, with 1-4 paths per link, and a grid estimate."""
    cfg = ArrayConfig(n_t=draw(st.integers(1, 8)), m_y=draw(st.integers(1, 4)),
                      m_z=draw(st.integers(1, 4)), r=1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rician_db = draw(st.sampled_from([0.0, 13.2]))
    bs_irs = sample_paths(draw(st.integers(1, 4)), rician_db, rng, with_bs_aod=True)
    irs_user = sample_paths(draw(st.integers(1, 4)), rician_db, rng)
    est = AlignmentEstimate(draw(st.integers(0, cfg.m - 1)),
                            draw(st.integers(0, cfg.n_t - 1)), 1, (), 0.0)
    return bs_irs, irs_user, cfg, est


@settings(max_examples=300, deadline=None)
@given(small_channels())
def test_bgr_matches_dense_oracle(drawn):
    bs_irs, irs_user, cfg, est = drawn
    ch = assemble_channels(bs_irs, irs_user, cfg)
    ratio = bgr(ch, est)
    grid_gain = cfg.m * abs(ch.lam[est.i_star, est.j_star]) ** 2
    best_grid = cfg.m * abs(ch.lam[ch.strongest]) ** 2
    assert ratio == pytest.approx(
        grid_gain / max(dense_optimal_gain(ch.h), best_grid), rel=1e-9)
    assert 0.0 < ratio <= 1.0


@settings(max_examples=300, deadline=None)
@given(small_channels(), st.integers(-300, 300))
def test_bgr_ignores_channel_scale(drawn, k):
    # every path gain times 10**(k/2) scales the channel by 10**k; the
    # strongest entry is scored, whose magnitude carries no cancellation
    bs_irs, irs_user, cfg, _ = drawn
    ch = assemble_channels(bs_irs, irs_user, cfg)
    scale = 10.0 ** (k / 2)
    scaled = assemble_channels(replace(bs_irs, gains=scale * bs_irs.gains),
                               replace(irs_user, gains=scale * irs_user.gains), cfg)
    top = AlignmentEstimate(*ch.strongest, 1, (), 0.0)
    assert bgr(scaled, top) == pytest.approx(bgr(ch, top), rel=1e-12)


class TestTrials:
    def test_trial_rng_order_independent(self):
        a = trial_rng(3, 17).random(4)
        b = trial_rng(3, 17).random(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, trial_rng(3, 18).random(4))

    @pytest.mark.parametrize("t", [-1, 1.5, True, np.float64(2.0), "1"])
    def test_run_trial_rejects_an_index_that_is_no_integer_at_least_0(self, t):
        # SeedSequence refuses -1 and 1.5 with numpy's own errors and
        # reads True as trial 1
        with pytest.raises(InvalidParameterError, match="trial_index"):
            run_trial(SMALL_CFG, t)

    @pytest.mark.parametrize("seed", [-1, 2.0, False])
    def test_trial_rng_rejects_a_seed_that_is_no_integer_at_least_0(self, seed):
        with pytest.raises(InvalidParameterError, match="seed"):
            trial_rng(seed, 0)

    def test_numpy_integers_are_trial_indices(self):
        np.testing.assert_array_equal(trial_rng(np.uint8(3), np.int64(17)).random(4),
                                      trial_rng(3, 17).random(4))
        assert run_trial(SMALL_CFG, np.int32(1)) == run_trial(SMALL_CFG, 1)

    def test_run_trial_deterministic(self):
        a = run_trial(SMALL_CFG, 0)
        b = run_trial(SMALL_CFG, 0)
        assert a == b

    def test_detector_gate_decides_a_low_snr_trial(self):
        # at p_fa = 1e-3 and -50 dB the gate moves decisions: this trial
        # decodes the best candidate of the full score grid, which is not
        # the ungated argmax (the decode at epsilon 0)
        cfg = replace(ACCEPTANCE_CFG, seed=3, snr_db=-50.0, p_fa=1e-3)
        est = run_trial(cfg, 0).estimate
        measurements, plan = _trial_measurements(cfg, 0)
        assert est == grid_decode(measurements, plan, est.detector_threshold)
        assert est.candidate_count < cfg.array.m * cfg.array.n_t
        ungated = decode_los(measurements, plan, 0.0)
        assert (ungated.i_star, ungated.j_star) != (est.i_star, est.j_star)

    def test_noiseless_trial_mostly_succeeds(self, monkeypatch):
        monkeypatch.setenv("IRSBEAM_WORKERS", "1")
        cfg = ExperimentConfig(array=SMALL, q=4, l=4, snr_db=None, trials=40, seed=11)
        (records,) = run_trials([(cfg,)])
        # the 4x4 aperture has strong off-grid leakage, so near-ties between
        # beamspace entries cap the exact-index rate well below 1
        assert sum(r.success for r in records) / len(records) >= 0.75

    def test_baseline_noiseless_always_succeeds(self, monkeypatch):
        monkeypatch.setenv("IRSBEAM_WORKERS", "1")
        cfg = ExperimentConfig(array=SMALL, q=4, l=1, snr_db=None, trials=20, seed=12)
        (records,) = run_trials([(exhaustive(cfg),)])
        assert all(r.success for r in records)

    def test_parallel_matches_serial(self, monkeypatch):
        cfg = ExperimentConfig(array=SMALL, q=4, l=2, trials=6, seed=13)
        monkeypatch.setenv("IRSBEAM_WORKERS", "1")
        (serial,) = run_trials([(cfg,)])
        assert all(0.0 < r.bgr <= 1.0 for r in serial)
        monkeypatch.setenv("IRSBEAM_WORKERS", "2")
        assert run_trials([(cfg,)]) == [serial]

    def test_pool_workers_run_one_blas_thread(self, monkeypatch):
        blas = _openblas_threads()
        if blas is None:
            pytest.skip("numpy's bundled OpenBLAS not found")
        get, put = blas
        before = get()
        monkeypatch.setenv("IRSBEAM_WORKERS", "2")
        monkeypatch.setattr(harness, "_run_block", _blas_threads_runner)
        put(2)  # forked workers inherit two threads; the initializer sets one
        try:
            counts = run_trials([(replace(SMALL_CFG, trials=4),)])
            assert get() == 2  # the caller's count is left as it was
        finally:
            put(before)
        assert counts == [[1] * 4]

    def test_sweep_runs_every_point_in_one_pool(self, monkeypatch):
        opened = []

        class CountingPool(harness.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                opened.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
        cfg = ExperimentConfig(array=SMALL, q=4, l=2, snr_sweep=(-10.0, 0.0, 10.0),
                               trials=3, seed=22)
        monkeypatch.setenv("IRSBEAM_WORKERS", "2")
        pooled = sweep(cfg, "snr")
        assert len(opened) == 1
        monkeypatch.setenv("IRSBEAM_WORKERS", "1")
        assert rows_to_csv(sweep(cfg, "snr")) == rows_to_csv(pooled)
        assert len(opened) == 1  # one worker runs without a pool

    def test_pool_opens_no_more_workers_than_trials(self, monkeypatch):
        # a fork pool starts every worker at once; this one records its
        # size and runs the trials in the calling process
        opened = []

        class InlinePool:
            def __init__(self, max_workers, initializer):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
        cfg = replace(SMALL_CFG, trials=3)
        # an SNR group, a T group with a repeated L, and one-config groups
        # with their own trial counts: one record list per config, each
        # its run_trial records
        groups = [
            tuple(replace(cfg, snr_db=s) for s in (-10.0, 0.0, 10.0)),
            tuple(replace(cfg, l=l) for l in (3, 1, 3)),
            (replace(cfg, trials=2),),
            (replace(cfg, trials=4, scenario="nlos"),),
        ]
        want = [[run_trial(c, t) for t in range(c.trials)] for group in groups for c in group]
        monkeypatch.setenv("IRSBEAM_WORKERS", "1")
        assert run_trials(groups) == want
        monkeypatch.setenv("IRSBEAM_WORKERS", "512")
        assert run_trials(groups) == want
        # one pool for all groups, as large as the largest trial count
        assert opened == [4]
        assert run_trials([(replace(cfg, trials=1),)]) == [want[-2][:1]]  # one trial: no pool
        assert opened == [4]

    def test_non_integer_worker_count_rejected(self, monkeypatch):
        monkeypatch.setenv("IRSBEAM_WORKERS", "two")
        with pytest.raises(InvalidParameterError, match="IRSBEAM_WORKERS"):
            run_trials([(SMALL_CFG,)])

    @pytest.mark.parametrize("env", ["0", "-3"])
    def test_worker_count_below_one_rejected(self, monkeypatch, env):
        monkeypatch.setenv("IRSBEAM_WORKERS", env)
        with pytest.raises(InvalidParameterError, match="IRSBEAM_WORKERS"):
            run_trials([(SMALL_CFG,)])

    def test_default_workers_follow_cpu_affinity(self, monkeypatch):
        monkeypatch.delenv("IRSBEAM_WORKERS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert _worker_count() == 3
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert _worker_count() == 64

    @pytest.mark.parametrize("scenario", ["los", "nlos"])
    def test_trial_with_nothing_above_threshold_decodes_ungated(self, scenario):
        # at -20 dB with one round on this grid some trials leave every
        # measurement below the detector threshold
        cfg = ExperimentConfig(array=SMALL, q=4, l=1, scenario=scenario, seed=1)
        records = [run_trial(cfg, t) for t in range(40)]
        ungated = [r for r in records if r.estimate.detector_threshold == 0.0]
        assert ungated
        assert all(r.estimate.candidate_count == SMALL.m * SMALL.n_t for r in ungated)

    @pytest.mark.parametrize("axis,changes,draws", [
        ("snr", {"snr_sweep": (-10.0, 0.0, 10.0)}, 1),
        ("T", {"t_sweep": (1, 3, 3, 2)}, 3),  # once per distinct L
        (None, {}, 1),
        (None, {"snr_db": None}, 0),
        ("T", {"snr_db": None, "t_sweep": (1, 3, 2)}, 0),
    ])
    def test_noise_draws_per_trial_index(self, monkeypatch, axis, changes, draws):
        # each trial's generator counts its (L, 2, U, V) noise draws; a
        # path set draws its gains as a 2-axis array
        sizes = {}
        real = harness.trial_rng

        class CountingGenerator(np.random.Generator):
            def standard_normal(self, size=None, *args, **kwargs):
                self.sizes.append(size)
                return super().standard_normal(size, *args, **kwargs)

        def counting_rng(seed, t):
            rng = CountingGenerator(real(seed, t).bit_generator)
            rng.sizes = sizes.setdefault(t, [])
            return rng

        monkeypatch.setenv("IRSBEAM_WORKERS", "1")
        monkeypatch.setattr(harness, "trial_rng", counting_rng)
        sweep(replace(SMALL_CFG, trials=3, **changes), axis)
        assert {t: sum(s is not None and len(s) == 4 for s in drawn)
                for t, drawn in sizes.items()} == {t: draws for t in range(3)}

    def test_records_do_not_depend_on_blas_thread_count(self):
        one = _fresh_python(RECORDS_SCRIPT, "1")
        assert one.count("TrialRecord") == 80
        assert _fresh_python(RECORDS_SCRIPT, "2") == one

    @staticmethod
    def _warm_trial_peak(snr_db) -> int:
        """The largest tracemalloc peak of five warm acceptance-size trials."""
        cfg = replace(ACCEPTANCE_CFG, snr_db=snr_db)
        for t in range(3):  # build the dictionaries outside the traced trials
            run_trial(cfg, t)
        peaks = []
        for t in range(3, 8):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                run_trial(cfg, t)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
        return max(peaks)

    def test_warm_trial_peak_allocation_is_bounded(self):
        # a trial that allocates less than this reuses the heap pages the
        # previous trial freed instead of faulting in fresh ones. One
        # M x N_t complex array is 512 KB: a noisy trial forms only h,
        # for ||H||_F
        assert self._warm_trial_peak(-20.0) <= 0.8e6

    def test_noiseless_trial_forms_no_dense_matrix(self):
        assert self._warm_trial_peak(None) <= 0.3e6

    def test_fresh_process_reuses_its_heap_pages(self):
        # a process that never builds the cascade dictionary keeps glibc's
        # heap-trim threshold low, so a trial that frees a dense matrix
        # hands its pages back and faults them in again on the next trial
        pytest.importorskip("resource")
        faults, dictionaries = map(int, _fresh_python(FAULTS_SCRIPT, "1").split())
        assert dictionaries == 0
        assert faults < 20 * 200

    def test_records_equal_a_run_that_reads_the_dense_lam(self, monkeypatch):
        # run_trial reads its rounds from lam's factors; the same trials
        # read from the dense lam give the same records
        cfgs = [replace(ACCEPTANCE_CFG, scenario=s, snr_db=-20.0) for s in ("los", "nlos")]
        want = [run_trial(cfg, t) for cfg in cfgs for t in range(50)]
        blocks, factors = [], []
        real_assemble, real_readings = harness._assemble, ScanPlan.readings

        def assemble(*args):
            blocks.append(real_assemble(*args))
            return blocks[-1]

        def readings(plan, x, y):
            # the block's own factor stacks, read as the stack of its
            # channels' dense lam and I
            channels, (xs, ys, _, _) = blocks[-1]
            factors.append(x is xs and y is ys and len(channels) == 1
                           and x[0].tobytes() == channels[0].x.tobytes()
                           and y[0].tobytes() == channels[0].y.tobytes())
            lam = np.stack([ch.lam for ch in channels])
            n_t = lam.shape[-1]
            return real_readings(plan, lam, np.broadcast_to(np.eye(n_t), (len(lam), n_t, n_t)))

        monkeypatch.setattr(harness, "_assemble", assemble)
        monkeypatch.setattr(ScanPlan, "readings", readings)
        got = [run_trial(cfg, t) for cfg in cfgs for t in range(50)]
        assert factors == [True] * 100
        assert got == want

    @pytest.mark.parametrize("scenario", ["los", "nlos"])
    def test_ideal_sparse_trial_builds_no_cascade_dictionary(self, scenario):
        _cascade_dictionary_cached.cache_clear()
        run_trial(replace(ACCEPTANCE_CFG, scenario=scenario, snr_db=-20.0), 0)
        assert _cascade_dictionary_cached.cache_info().currsize == 0

    def test_nlos_scenario_runs(self, monkeypatch):
        monkeypatch.setenv("IRSBEAM_WORKERS", "1")
        cfg = ExperimentConfig(
            array=SMALL, q=4, l=4, scenario="nlos", snr_db=-5.0, trials=3, seed=14,
        )
        for rec in run_trials([(cfg,)])[0]:
            assert isinstance(rec.success, bool)
            assert rec.estimate.nm_rounds is not None


@st.composite
def block_partitions(draw):
    """A small group, LOS or NLOS, ideal-sparse or constant-modulus, P = 1
    or 2: one config, an SNR group (a noiseless point among them), a T
    group with a repeated L, or a group that mixes L and SNR; and a
    partition of its trials into blocks."""
    cfg = ExperimentConfig(
        array=SMALL, q=draw(st.sampled_from([2, 4, 8])), l=draw(st.integers(1, 3)),
        mode=draw(st.sampled_from([IDEAL_SPARSE, IDEAL_SPARSE, CONSTANT_MODULUS])),
        scenario=draw(st.sampled_from(["los", "nlos"])),
        snr_db=draw(st.none() | st.sampled_from([-30.0, 0.0])),
        paths_bs_irs=draw(st.integers(1, 2)), trials=draw(st.integers(1, 7)),
        seed=draw(st.integers(0, 2**32)),
    )
    kind = draw(st.sampled_from(["one", "snr", "T", "mixed"]))
    if kind == "snr":
        snrs = draw(st.lists(st.none() | st.sampled_from([-30.0, -10.0, 10.0]), min_size=2, max_size=4))
        group = tuple(replace(cfg, snr_db=s) for s in snrs)
    elif kind == "T":
        group = tuple(replace(cfg, l=l) for l in draw(st.lists(st.integers(1, 4), min_size=2, max_size=4)))
    elif kind == "mixed":
        points = st.tuples(st.integers(1, 4), st.none() | st.sampled_from([-30.0, -10.0, 0.0]))
        group = tuple(replace(cfg, l=l, snr_db=s) for l, s in draw(st.lists(points, min_size=2, max_size=4)))
    else:
        group = (cfg,)
    sizes, left = [], cfg.trials
    while left:
        sizes.append(draw(st.integers(1, left)))
        left -= sizes[-1]
    return group, sizes


def _mixed_group(*points):
    """An NLOS group of 7 trials on the small array, one config per (l, snr_db)."""
    cfg = replace(SMALL_CFG, scenario="nlos", trials=7)
    return tuple(replace(cfg, l=l, snr_db=s) for l, s in points)


class TestBlocks:
    """A group's trials run in blocks: a block's records are its trials'
    run_trial records, whatever the block, its size or the partition."""

    @settings(deadline=None, max_examples=60)
    @given(block_partitions())
    # groups that mix L and SNR: a noisy point of fewer rounds than the
    # plan draws its noise after its own rounds, not after the plan's,
    # also where every noisy point of the group has the same L
    @example((_mixed_group((2, -10.0), (3, None)), [2, 5]))
    @example((_mixed_group((3, None), (1, 0.0), (1, -10.0)), [7]))
    @example((_mixed_group((3, None), (1, 0.0), (1, -10.0)), [1, 3, 3]))
    def test_any_partition_gives_run_trials_records(self, drawn):
        group, sizes = drawn
        got, start = [], 0
        for size in sizes:
            got += harness._run_block(group, range(start, start + size))
            start += size
        assert got == [[run_trial(c, t) for c in group] for t in range(start)]

    @pytest.mark.parametrize("scenario", ["los", "nlos"])
    def test_acceptance_size_blocks_of_one_seven_and_the_bound(self, scenario):
        cfg = replace(ACCEPTANCE_CFG, scenario=scenario, seed=29, trials=20)
        groups = [
            tuple(replace(cfg, snr_db=s) for s in (-30.0, -20.0, -10.0, 0.0)),
            tuple(replace(cfg, snr_db=-20.0, l=l) for l in (2, 7, 7, 4)),
            (replace(cfg, snr_db=None, paths_bs_irs=1),),
        ]
        for group in groups:
            want = [[run_trial(c, t) for c in group] for t in range(cfg.trials)]
            bound = harness._block_size(group)
            assert bound == 18
            for size in (1, 7, bound):
                got = [recs for start in range(0, cfg.trials, size)
                       for recs in harness._run_block(group, range(start, min(cfg.trials, start + size)))]
                assert got == want, size

    def test_block_size_is_derived_from_the_group(self):
        # B * L * U * V <= M * N_t with L the group's largest l; a singleton
        # (exhaustive) config reads M * N_t numbers per trial, so runs alone
        cfg = ACCEPTANCE_CFG
        assert harness._block_size((cfg,)) == 18  # 7 * 16 * 16 = 1792 of 32768
        assert harness._block_size((replace(cfg, l=2), replace(cfg, l=8))) == 16
        assert harness._block_size((exhaustive(cfg),)) == 1
        assert harness._block_size((replace(cfg, l=100),)) == 1

    @pytest.mark.parametrize("workers,sizes", [("1", [5, 5, 5, 5, 3]), ("2", [3] * 7 + [2])])
    def test_trials_run_in_consecutive_blocks(self, monkeypatch, workers, sizes):
        # serially in blocks of the bound (5 here: 3 * 4 * 4 of 256); in a
        # pool, one block per task, of at most a quarter of each worker's share
        blocks = []
        real = harness._run_block

        def spy(group, trials):
            blocks.append(trials)
            return real(group, trials)

        class InlinePool:
            def __init__(self, max_workers, initializer):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setenv("IRSBEAM_WORKERS", workers)
        monkeypatch.setattr(harness, "_run_block", spy)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
        cfg = replace(SMALL_CFG, trials=23)
        (records,) = run_trials([(cfg,)])
        assert [len(b) for b in blocks] == sizes
        assert [t for b in blocks for t in b] == list(range(23))
        assert records == [run_trial(cfg, t) for t in range(23)]

    @pytest.mark.parametrize("scenario", ["los", "nlos"])
    def test_group_of_configs_that_differ_in_more_than_snr_and_l_rejected(self, monkeypatch,
                                                                         scenario):
        # the configs of a group share one channel and plan per trial, so a
        # group that differs in its seed or scenario fails before any trial
        def fail(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setenv("IRSBEAM_WORKERS", "1")
        monkeypatch.setattr(harness, "_run_block", fail)
        cfg = replace(SMALL_CFG, scenario=scenario)
        for other in (replace(cfg, seed=9, scenario="nlos"), replace(cfg, trials=5),
                      replace(cfg, p_fa=0.2), replace(cfg, q=8)):
            with pytest.raises(InvalidParameterError, match="differ at most in snr_db and l"):
                run_trials([(cfg,), (cfg, other)])
        with pytest.raises(InvalidParameterError, match="differ at most in snr_db and l"):
            run_trials([()])

    def test_block_forms_no_array_of_every_trial_and_entry(self):
        # a block of the bound (18 trials at the acceptance size) at four
        # SNR points allocates less than one B x M x N_t complex array
        cfg = replace(ACCEPTANCE_CFG, scenario="nlos")
        group = tuple(replace(cfg, snr_db=s) for s in (-30.0, -20.0, -10.0, 0.0))
        block = range(harness._block_size(group))
        harness._run_block(group, block)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            harness._run_block(group, block)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < len(block) * cfg.array.m * cfg.array.n_t * 16

    @pytest.mark.parametrize("stack", [1, 12])
    @pytest.mark.parametrize("p", [1, 2])
    def test_stacked_reference_beams_are_each_pairs_own(self, monkeypatch, p, stack):
        # pairs that stop at different steps, in stacks of one (as a block
        # of one takes them) or all twelve: each keeps the beams of its own
        # last step, bit for bit as optimal_beams computes them for the
        # pair alone
        rng = np.random.default_rng(31)
        channels = [assemble_channels(sample_paths(p, 13.2, rng, with_bs_aod=True),
                                      sample_paths(2, 0.0, rng), ACCEPTANCE_CFG.array)
                    for _ in range(12)]
        alone = [optimal_beams(ch.u, ch.b) for ch in channels]
        for start in range(0, len(channels), stack):
            part = channels[start:start + stack]
            v, f = harness._lockstep_beams(np.array([ch.u for ch in part]),
                                           np.array([ch.b for ch in part]))
            for k, (v1, f1) in enumerate(alone[start:start + stack]):
                assert v[k].tobytes() == v1.tobytes() and f[k].tobytes() == f1.tobytes()
        steps = []  # the fewest steps that give each pair its beams
        for ch, (v1, _) in zip(channels, alone):
            k = 1
            monkeypatch.setattr(harness, "BGR_MAX_ITERS", k)
            while harness._lockstep_beams(ch.u[None], ch.b[None])[0].tobytes() != v1.tobytes():
                k += 1
                monkeypatch.setattr(harness, "BGR_MAX_ITERS", k)
            steps.append(k)
        assert len(set(steps)) > 1


@st.composite
def small_trial_configs(draw):
    """Small configs across a trial's branches: LOS or NLOS, noisy or
    noiseless, ideal-sparse or singleton (exhaustive) bins, P = 1 or 2."""
    cfg = ExperimentConfig(
        array=SMALL, q=draw(st.sampled_from([2, 4, 8])), l=draw(st.integers(1, 3)),
        scenario=draw(st.sampled_from(["los", "nlos"])),
        snr_db=draw(st.none() | st.sampled_from([-30.0, -10.0, 10.0])),
        paths_bs_irs=draw(st.integers(1, 2)), paths_irs_user=draw(st.integers(1, 2)),
        seed=draw(st.integers(0, 2**32)),
    )
    return exhaustive(cfg) if draw(st.booleans()) else cfg


@settings(deadline=None)
@given(small_trial_configs(), st.integers(0, 10**6))
def test_every_trial_scores_a_bgr_in_unit_interval(cfg, t):
    # so aggregate averages every record's BGR, with no NaN to skip
    ratio = run_trial(cfg, t).bgr
    assert math.isfinite(ratio) and 0.0 <= ratio <= 1.0


@settings(deadline=None)
@given(small_trial_configs(), st.integers(0, 10**6),
       st.integers(-500, 500).map(lambda k: 2.0**k) | st.integers(-150, 150).map(lambda k: 10.0**k))
def test_trial_decisions_ignore_channel_scale(cfg, t, c):
    # both links' path gains times c scale the channel by c**2, its
    # readings, sigma and threshold with it; a decision must not move.
    # Past about c = 2**-510 or 2**510 (10**-153 or 10**153) a factor of
    # the channel under- or overflows
    def scaled_paths(*args, **kwargs):
        paths = sample_paths(*args, **kwargs)
        return replace(paths, gains=c * paths.gains)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "sample_paths", scaled_paths)
        scaled = run_trial(cfg, t)
    rec = run_trial(cfg, t)
    # the estimate, its candidate count and NM rounds, all but the threshold
    decision = [(replace(r.estimate, detector_threshold=0.0), r.success) for r in (scaled, rec)]
    assert decision[0] == decision[1]


@settings(deadline=None)
@given(small_trial_configs(), st.integers(0, 10**6),
       st.integers(-1074, 1023).map(lambda k: 2.0**k) | st.integers(-323, 308).map(lambda k: 10.0**k))
@example(replace(SMALL_CFG, snr_db=None), 0, 2.0**-1074)
@example(replace(SMALL_CFG, scenario="nlos"), 0, 2.0**1023)
@example(SMALL_CFG, 1, 2.0**-530)
@example(SMALL_CFG, 1, 2.0**515)
def test_trial_at_any_float_scale_decides_as_at_scale_one_or_is_refused(cfg, t, c):
    # both links' path gains times any power of two or ten a float holds:
    # the trial decides as at scale 1, or its channel, readings or
    # reference are refused with the package's error, never numpy's
    def scaled_paths(*args, **kwargs):
        paths = sample_paths(*args, **kwargs)
        return replace(paths, gains=c * paths.gains)

    rec = run_trial(cfg, t)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "sample_paths", scaled_paths)
        try:
            scaled = run_trial(cfg, t)
        except InvalidParameterError:
            return
    decision = [(replace(r.estimate, detector_threshold=0.0), r.success) for r in (scaled, rec)]
    assert decision[0] == decision[1]


@st.composite
def small_sweeps(draw):
    """A small config and an axis to sweep: SNR, T (noisy or noiseless) or
    M; ideal-sparse or constant-modulus, LOS or NLOS, P = 1 or 2."""
    cfg = ExperimentConfig(
        array=SMALL, q=draw(st.sampled_from([4, 8])), l=draw(st.integers(1, 3)),
        mode=draw(st.sampled_from([IDEAL_SPARSE, CONSTANT_MODULUS])),
        scenario=draw(st.sampled_from(["los", "nlos"])),
        snr_db=draw(st.none() | st.sampled_from([-20.0, 0.0])),
        snr_sweep=tuple(draw(st.lists(st.sampled_from([-30.0, -10.0, 0.0, 10.0]),
                                      min_size=1, max_size=3))),
        t_sweep=tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))),
        m_sweep=(16, 32), paths_bs_irs=draw(st.integers(1, 2)),
        trials=draw(st.integers(1, 2)), seed=draw(st.integers(0, 2**32)),
    )
    return cfg, draw(st.sampled_from(["snr", "T", "M"]))


@settings(deadline=None, max_examples=40)
@given(small_sweeps())
def test_sweep_records_equal_per_point_trials(drawn):
    # a sweep draws each trial's channel and plan once for all SNR or T
    # points; every record it aggregates is still the point's own run_trial
    cfg, axis = drawn
    got = []

    def keep(records, *args):
        got.append(records)
        return aggregate(records, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("IRSBEAM_WORKERS", "1")
        mp.setattr(harness, "aggregate", keep)
        sweep(cfg, axis)
    want = [[run_trial(point, t) for t in range(cfg.trials)]
            for _, _, point in sweep_points(cfg, axis)]
    assert got == want


class TestSweeps:
    @pytest.mark.parametrize("axis,key,values", [
        ("snr", "snr_sweep", (-10.0, 0.0, 10.0)), ("T", "t_sweep", (1, 3, 2)),
        ("M", "m_sweep", (16, 32, 64)),
    ])
    def test_snr_and_t_sweeps_draw_each_channel_once(self, monkeypatch, axis, key, values):
        calls = []
        real = harness._assemble

        def assemble(pairs, array):
            calls.extend([array] * len(pairs))
            return real(pairs, array)

        monkeypatch.setenv("IRSBEAM_WORKERS", "1")
        monkeypatch.setattr(harness, "_assemble", assemble)
        cfg = replace(SMALL_CFG, trials=5, **{key: values})
        sweep(cfg, axis)
        # the M axis changes the array, so each of its points draws its own
        assert len(calls) == 5 * (3 if axis == "M" else 1)

    @pytest.mark.parametrize("axis", ["snr", "T"])
    def test_pooled_sweep_csv_equals_serial(self, monkeypatch, axis):
        cfg = ExperimentConfig(array=SMALL, q=4, l=2, snr_sweep=(-10.0, 0.0, 10.0),
                               t_sweep=(3, 1, 2), scenario="nlos", trials=5, seed=23)
        monkeypatch.setenv("IRSBEAM_WORKERS", "2")
        pooled = rows_to_csv(sweep(cfg, axis))
        monkeypatch.setenv("IRSBEAM_WORKERS", "1")
        assert rows_to_csv(sweep(cfg, axis)) == pooled

    def test_t_axis_values_and_points(self):
        cfg = ExperimentConfig(array=SMALL, q=4, l=2, t_sweep=(1, 2, 4), trials=2)
        pts = sweep_points(cfg, "T")
        u, v = SMALL.m // 4, SMALL.n_t // SMALL.r
        assert [(var, val) for var, val, _ in pts] == [
            ("T", u * v), ("T", 2 * u * v), ("T", 4 * u * v)
        ]
        assert [p.l for _, _, p in pts] == [1, 2, 4]
        assert [val for _, val, p in pts] == [p.budget for _, _, p in pts]

    def test_snr_axis(self):
        cfg = ExperimentConfig(array=SMALL, q=4, l=2, snr_sweep=(-10.0, 0.0), trials=2)
        pts = sweep_points(cfg, "snr")
        assert [p.snr_db for _, _, p in pts] == [-10.0, 0.0]

    def test_m_axis_keeps_bin_count(self):
        cfg = ExperimentConfig(array=SMALL, q=4, l=2, m_sweep=(16, 64), trials=2)
        pts = sweep_points(cfg, "M")
        u = SMALL.m // 4
        for _, m, p in pts:
            assert p.array.m == m
            assert p.array.m // p.q == u

    def test_config_accepts_only_m_points_a_sweep_builds(self):
        accepted = 0
        for m in range(-8, 600):
            try:
                cfg = replace(SMALL_CFG, m_sweep=(m,))
            except InvalidParameterError:
                continue
            ((_, value, point),) = sweep_points(cfg, "M")
            assert point.array.m == value == m
            assert point.array.m // point.q == SMALL.m // SMALL_CFG.q
            # the point is cfg at M = m, a config that checked itself
            array = replace(SMALL, m_y=point.array.m_y, m_z=point.array.m_z)
            assert point == replace(cfg, array=array, q=point.q, m_sweep=())
            accepted += 1
        assert accepted > 50

    def test_no_axis_is_the_one_point_cfg(self):
        # on the snr axis, or at T = U*V*L when the run is noiseless
        assert sweep_points(SMALL_CFG, None) == [("snr", -20.0, SMALL_CFG)]
        noiseless = replace(SMALL_CFG, snr_db=None)
        assert sweep_points(noiseless, None) == [("T", noiseless.budget, noiseless)]

    def test_unknown_axis_rejected(self):
        with pytest.raises(InvalidParameterError):
            sweep_points(SMALL_CFG, "bogus")

    def test_empty_axis_rejected(self):
        with pytest.raises(InvalidParameterError):
            sweep_points(SMALL_CFG, "T")

    def test_sweep_csv_shape_and_determinism(self, monkeypatch):
        monkeypatch.setenv("IRSBEAM_WORKERS", "1")
        cfg = ExperimentConfig(array=SMALL, q=4, l=2, snr_sweep=(0.0, 10.0), trials=3, seed=21)
        rows1 = sweep(cfg, "snr")
        rows2 = sweep(cfg, "snr")
        assert rows_to_csv(rows1) == rows_to_csv(rows2)
        text = rows_to_csv(rows1)
        lines = text.strip().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "snr"
        assert float(first[1]) == 0.0
        assert int(first[2]) == 3
        assert int(first[7]) == 21


    def test_csv_header_is_the_documented_one(self):
        # the sweep CSV header the README documents
        assert rows_to_csv([]).splitlines() == [
            "sweep_var,value,trials,success_rate,stderr,mean_bgr,bgr_stderr,seed"
        ]


class TestAggregate:
    def test_stderr_formula(self):
        recs = 3 * [TrialRecord(True, 0.5, None)] + [TrialRecord(False, 0.7, None)]
        row = aggregate(recs, "T", 10, 1)
        assert row.success_rate == 0.75
        assert row.stderr == pytest.approx(math.sqrt(0.75 * 0.25 / 4))
        assert row.mean_bgr == pytest.approx(0.55)

    def test_one_record_has_no_bgr_spread(self):
        # NaN, and no degrees-of-freedom warning from numpy
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row = aggregate([TrialRecord(True, 0.5, None)], "snr", -20.0, 1)
        assert (row.mean_bgr, row.stderr) == (0.5, 0.0)
        assert math.isnan(row.bgr_stderr)


class TestConfigParsing:
    def test_defaults(self):
        cfg = parse_config_text("")
        assert cfg.array.m == 256
        assert cfg.array.n_t == 128
        assert cfg.q == 32 and cfg.l == 4 and cfg.trials == 500

    def test_round_trip_of_keys(self):
        text = """
        # geometry
        n_t = 16
        m_y = 4
        m_z = 4
        r = 4
        q = 4
        l = 3
        scenario = nlos
        snr_db = -5.5
        snr_sweep = -10, 0, 10
        trials = 7
        seed = 99
        """
        cfg = parse_config_text(text)
        assert cfg.array == SMALL
        assert cfg.scenario == "nlos"
        assert cfg.snr_db == -5.5
        assert cfg.snr_sweep == (-10.0, 0.0, 10.0)
        assert cfg.trials == 7 and cfg.seed == 99

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown key"):
            parse_config_text("qq = 3")

    def test_duplicate_key_rejected(self):
        with pytest.raises(InvalidParameterError, match="duplicate"):
            parse_config_text("q = 3\nq = 4")

    def test_malformed_line_rejected(self):
        with pytest.raises(InvalidParameterError):
            parse_config_text("just some words")

    @pytest.mark.parametrize("text,output", [
        ("output = a#b.csv", "a#b.csv"),
        ("output = a#b.csv  # where the rows go", "a#b.csv"),
        ("output = out.csv\t# tab before the comment", "out.csv"),
        ("# output = x.csv\n  # indented comment\noutput = #x.csv", None),
    ])
    def test_comment_starts_at_line_start_or_after_whitespace(self, text, output):
        assert parse_config_text(text).output == output

    def test_value_then_comment_parses(self):
        cfg = parse_config_text("l = 5 # rounds\nsnr_sweep = -10, 0   # dB\n#q = 3")
        assert (cfg.l, cfg.snr_sweep, cfg.q) == (5, (-10.0, 0.0), 32)

    def test_none_value(self):
        cfg = parse_config_text("snr_db = none")
        assert cfg.snr_db is None

    @pytest.mark.parametrize("key", ["trials", "q", "seed", "n_t", "mode", "snr_sweep"])
    def test_required_key_cannot_be_none(self, key):
        with pytest.raises(InvalidParameterError, match=f"line 2: {key}"):
            parse_config_text(f"l = 3\n{key} = none")

    @pytest.mark.parametrize("line", ["trials = many", "p_fa = low", "t_sweep = 1, x"])
    def test_non_numeric_value_names_line(self, line):
        with pytest.raises(InvalidParameterError, match="line 3"):
            parse_config_text(f"l = 3\n# comment\n{line}")

    @pytest.mark.parametrize("snr", ["-10", "none"])
    @pytest.mark.parametrize("p_fa", ["1.5", "0", "1", "-0.2", "nan"])
    def test_p_fa_outside_unit_interval_rejected(self, p_fa, snr):
        with pytest.raises(InvalidParameterError, match="p_fa"):
            parse_config_text(f"snr_db = {snr}\np_fa = {p_fa}")

    @pytest.mark.parametrize("line", [
        "q = 3", "r = 3", "mode = cm", "l = 0", "t_sweep = 2, 0",
        "paths_bs_irs = 0", "paths_irs_user = 0", "rician_bs_irs_db = inf",
        "rician_irs_user_db = nan", "seed = -1", "rician_bs_irs_db = 4000",
        "rician_irs_user_db = 4000", "rician_irs_user_db = -4000",
        # U = 256/32 = 8: 0, -16 and 17 are no positive multiple of 8, and
        # 264 = 8 x 33 factors into no near-square UPA grid
        "m_sweep = 0", "m_sweep = -16", "m_sweep = 64, 17", "m_sweep = 264",
    ])
    def test_value_every_trial_would_reject_fails_at_parse(self, line):
        with pytest.raises(InvalidParameterError):
            parse_config_text(line)

    @pytest.mark.parametrize("line", [
        "snr_db = nan", "snr_db = inf", "snr_db = -inf",
        "snr_sweep = -10, nan", "snr_sweep = inf", "snr_db = none\nsnr_sweep = 0, -inf",
        "snr_db = 4000", "snr_db = -4000", "snr_sweep = -10, 4000",
    ])
    def test_non_finite_snr_fails_at_parse(self, line):
        with pytest.raises(InvalidParameterError, match="snr"):
            parse_config_text(line)

    @pytest.mark.parametrize("snr_db,snr_sweep", [
        (math.nan, ()), (math.inf, ()), (None, (0.0, math.nan)), (-20.0, (-math.inf,)),
        (4000.0, ()), (-4000.0, ()), (None, (0.0, 4000.0)),
    ])
    def test_non_finite_snr_rejected_by_config(self, snr_db, snr_sweep):
        with pytest.raises(InvalidParameterError, match="snr"):
            ExperimentConfig(array=SMALL, q=4, l=2, snr_db=snr_db, snr_sweep=snr_sweep)

    @pytest.mark.parametrize("snr_db,snr_sweep", [
        (3080.0, ()), (None, (0.0, 3080.0)), (-20.0, (3060.0,)),
    ])
    def test_snr_whose_noise_std_rounds_to_zero_rejected_by_config(self, snr_db, snr_sweep):
        # accepted on a 4x4 array with N_t=16, where N_t*M is 128 times smaller
        small = ExperimentConfig(array=SMALL, q=4, l=2, snr_db=3050.0)
        with pytest.raises(InvalidParameterError, match="snr_db"):
            replace(ACCEPTANCE_CFG, snr_db=snr_db, snr_sweep=snr_sweep)
        with pytest.raises(InvalidParameterError, match="snr_db"):
            replace(small, m_sweep=(16, 4096))  # the M = 4096 point
        assert replace(ACCEPTANCE_CFG, snr_db=3000.0).snr_db == 3000.0

    def test_snr_whose_noise_std_rounds_to_zero_fails_at_parse(self):
        with pytest.raises(InvalidParameterError, match="snr_db"):
            parse_config_text("n_t = 128\nm_y = 16\nm_z = 16\nr = 8\nq = 16\nsnr_db = 3080")

    def test_every_input_error_is_the_one_package_type(self, tmp_path):
        # a count, a size and a divisibility rule, in code and in a file
        with pytest.raises(InvalidParameterError, match="path_count"):
            sample_paths(0, 0.0, np.random.default_rng(0))
        with pytest.raises(InvalidParameterError, match="path counts"):
            replace(SMALL_CFG, paths_bs_irs=0)
        for line, error in [("r = 17", "RF chain count"), ("q = 3", "q=3 must divide")]:
            path = tmp_path / "bad.cfg"
            path.write_text(f"n_t = 16\nm_y = 4\nm_z = 4\n{line}\n")
            with pytest.raises(InvalidParameterError, match=error):
                parse_config(str(path))

    @pytest.mark.parametrize("base,key,value", WRONG_FIELD_TYPES, ids=[
        f"{type(base).__name__}.{key}={value!r}" for base, key, value in WRONG_FIELD_TYPES
    ])
    def test_wrong_field_type_rejected_at_construction(self, base, key, value):
        with pytest.raises(InvalidParameterError, match=key):
            replace(base, **{key: value})

    def test_numpy_scalars_accepted(self):
        array = ArrayConfig(n_t=np.int64(16), m_y=np.int32(4), m_z=4, r=np.uint8(4),
                            spacing_ratio=np.float32(0.5))
        cfg = replace(SMALL_CFG, array=array, q=np.int64(4), l=np.int16(3),
                      seed=np.uint32(7), snr_db=np.float32(-10.0), p_fa=np.float64(0.2),
                      snr_sweep=(np.float64(0.0), 5), t_sweep=(np.int64(2),))
        assert run_trial(cfg, 0) == run_trial(replace(
            SMALL_CFG, q=4, l=3, seed=7, snr_db=float(np.float32(-10.0)), p_fa=0.2), 0)

    def test_nlos_default_rician(self):
        los = parse_config_text("scenario = los")
        nlos = parse_config_text("scenario = nlos")
        assert los.irs_user_rician_db == 13.2
        assert nlos.irs_user_rician_db == 0.0
        override = parse_config_text("scenario = nlos\nrician_irs_user_db = 3.0")
        assert override.irs_user_rician_db == 3.0


def _finite(**kw):
    return st.floats(allow_nan=False, allow_infinity=False, **kw)


def _db():
    """dB values a config accepts: 10^(x/10) must be positive and finite."""
    return _finite(min_value=-3000.0, max_value=3000.0)


def _upa_factorable(m):
    try:
        harness._split_upa(m)
    except InvalidParameterError:
        return False
    return True


@st.composite
def config_fields(draw):
    """Valid field values for a config file, each key written or left to
    its default."""
    n_t = draw(st.sampled_from([4, 8, 12, 16]))
    m_y, m_z = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    m = m_y * m_z
    q = draw(st.sampled_from([q for q in range(1, m + 1) if m % q == 0]))
    # an M-sweep point keeps U = M/q: a multiple of the drawn U and of the
    # default 256/32 that factors into a UPA grid
    step = math.lcm(m // q, 8)
    m_points = [k * step for k in range(1, 65) if _upa_factorable(k * step)]
    values = {
        "n_t": n_t, "m_y": m_y, "m_z": m_z,
        "r": draw(st.sampled_from([r for r in range(1, n_t + 1) if n_t % r == 0])),
        "spacing_ratio": draw(_finite(min_value=1e-3, max_value=4.0)),
        "q": q,
        "l": draw(st.integers(1, 9)),
        "mode": draw(st.sampled_from(["ideal-sparse", "constant-modulus"])),
        "scenario": draw(st.sampled_from(["los", "nlos"])),
        "snr_db": draw(st.none() | _db()),
        "snr_sweep": draw(st.lists(_db(), min_size=1, max_size=4).map(tuple)),
        "t_sweep": draw(st.lists(st.integers(1, 50), min_size=1, max_size=4).map(tuple)),
        "m_sweep": draw(st.lists(st.sampled_from(m_points), min_size=1, max_size=4).map(tuple)),
        "trials": draw(st.integers(1, 10**6)),
        "seed": draw(st.integers(0, 2**63)),
        "p_fa": draw(_finite(min_value=1e-9, max_value=1 - 1e-9)),
        "paths_bs_irs": draw(st.integers(1, 8)),
        "paths_irs_user": draw(st.integers(1, 8)),
        "rician_bs_irs_db": draw(_db()),
        "rician_irs_user_db": draw(st.none() | _db()),
        # a `#` inside a value is no comment; one at its start is
        "output": draw(st.none() | st.from_regex(r"[A-Za-z0-9_./#-]{1,20}", fullmatch=True)
                       .filter(lambda s: s.lower() != "none" and not s.startswith("#"))),
    }
    keep = set(draw(st.lists(st.sampled_from(sorted(values)), unique=True)))
    # r and q are drawn to divide the drawn sizes, not the default ones
    geometry = {"n_t", "m_y", "m_z", "r", "q"}
    if keep & geometry:
        keep |= geometry
    return {k: v for k, v in values.items() if k in keep}


def _config_line(key, value):
    if value is None:
        return f"{key} = none"
    if isinstance(value, tuple):
        return f"{key} = " + ", ".join(repr(v) for v in value)
    return f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}"


@settings(max_examples=200, deadline=None)
@given(config_fields())
def test_written_config_parses_back_to_equal_config(values):
    text = "\n".join(_config_line(k, v) for k, v in values.items())
    array_keys = ("n_t", "m_y", "m_z", "r", "spacing_ratio")
    array = {"n_t": 128, "m_y": 16, "m_z": 16, "r": 4}
    array.update((k, v) for k, v in values.items() if k in array_keys)
    expected = ExperimentConfig(
        array=ArrayConfig(**array),
        **{"q": 32, "l": 4, **{k: v for k, v in values.items() if k not in array_keys}},
    )
    assert parse_config_text(text) == expected
