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
from hypothesis import given, settings
from hypothesis import strategies as st

import irsbeam
from irsbeam import harness
from irsbeam.arrays import (
    ArrayConfig,
    _cascade_dictionary_cached,
    cascade_dictionary,
    dft_dictionary,
)
from irsbeam.channel import assemble_channels, sample_paths
from irsbeam.config import parse_config_text
from irsbeam.decoder import AlignmentEstimate
from irsbeam.errors import InvalidDimensionError, InvalidParameterError
from irsbeam.harness import (
    BGR_MAX_ITERS,
    BGR_TOL,
    CSV_HEADER,
    ExperimentConfig,
    TrialRecord,
    _worker_count,
    aggregate,
    bgr,
    optimal_beams,
    rows_to_csv,
    run_trial,
    run_trials,
    snr_to_sigma,
    sweep,
    sweep_points,
    trial_rng,
)

from helpers import channel_from_lambda, exhaustive

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


def _blas_threads_runner(cfg, t):
    """A trial runner that reports its worker's BLAS thread count."""
    return _openblas_threads()[0]()


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


# a value of the wrong type for each field kind, with the error its
# dataclass raises
WRONG_FIELD_TYPES = [
    (SMALL_CFG, "seed", 1.5, InvalidParameterError),
    (SMALL_CFG, "seed", True, InvalidParameterError),
    (SMALL_CFG, "q", 2.0, InvalidParameterError),
    (SMALL_CFG, "l", 2.0, InvalidParameterError),
    (SMALL_CFG, "paths_bs_irs", 2.0, InvalidParameterError),
    (SMALL_CFG, "paths_irs_user", np.float64(2.0), InvalidParameterError),
    (SMALL_CFG, "trials", 2.5, InvalidParameterError),
    (SMALL_CFG, "t_sweep", (2, 2.0), InvalidParameterError),
    (SMALL_CFG, "t_sweep", (True,), InvalidParameterError),
    (SMALL_CFG, "m_sweep", (16.0,), InvalidParameterError),
    (SMALL_CFG, "m_sweep", 16, InvalidParameterError),
    (SMALL_CFG, "snr_db", "x", InvalidParameterError),
    (SMALL_CFG, "snr_sweep", (0.0, "5"), InvalidParameterError),
    (SMALL_CFG, "p_fa", "0.1", InvalidParameterError),
    (SMALL_CFG, "rician_bs_irs_db", None, InvalidParameterError),
    (SMALL_CFG, "rician_irs_user_db", "3", InvalidParameterError),
    (SMALL_CFG, "mode", 1, InvalidParameterError),
    (SMALL_CFG, "scenario", None, InvalidParameterError),
    (SMALL_CFG, "output", 3, InvalidParameterError),
    (SMALL, "n_t", 8.0, InvalidDimensionError),
    (SMALL, "r", True, InvalidDimensionError),
    (SMALL, "m_y", "4", InvalidDimensionError),
    (SMALL, "m_z", None, InvalidDimensionError),
    (SMALL, "spacing_ratio", "0.5", InvalidDimensionError),
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


class TestOptimalBeams:
    def test_rank_one_reaches_full_gain(self):
        # h = v0 f0^H with constant-modulus v0: the optimum is exactly M * N_t
        rng = np.random.default_rng(1)
        m, n_t = 16, 8
        v0 = np.exp(1j * rng.uniform(0, 2 * np.pi, m))
        f0 = rng.standard_normal(n_t) + 1j * rng.standard_normal(n_t)
        f0 /= np.linalg.norm(f0)
        v, f = optimal_beams(v0[:, None], f0[:, None])
        gain = abs(np.vdot(v, np.outer(v0, f0.conj()) @ f)) ** 2
        assert gain == pytest.approx(m**2, rel=1e-9)

    def test_constraints_hold(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
        b = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        v, f = optimal_beams(u, b)
        assert v.shape == (16,) and f.shape == (8,)
        assert np.abs(np.abs(v) - 1).max() < 1e-12
        assert np.linalg.norm(f) == pytest.approx(1.0, abs=1e-12)


class TestBgr:
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

    def test_run_trial_deterministic(self):
        a = run_trial(SMALL_CFG, 0)
        b = run_trial(SMALL_CFG, 0)
        assert a == b

    def test_noiseless_trial_mostly_succeeds(self, monkeypatch):
        monkeypatch.setenv("IRSBEAM_WORKERS", "1")
        cfg = ExperimentConfig(array=SMALL, q=4, l=4, snr_db=None, trials=40, seed=11)
        (records,) = run_trials([cfg])
        # the 4x4 aperture has strong off-grid leakage, so near-ties between
        # beamspace entries cap the exact-index rate well below 1
        assert sum(r.success for r in records) / len(records) >= 0.75

    def test_baseline_noiseless_always_succeeds(self, monkeypatch):
        monkeypatch.setenv("IRSBEAM_WORKERS", "1")
        cfg = ExperimentConfig(array=SMALL, q=4, l=1, snr_db=None, trials=20, seed=12)
        (records,) = run_trials([exhaustive(cfg)])
        assert all(r.success for r in records)

    def test_parallel_matches_serial(self, monkeypatch):
        cfg = ExperimentConfig(array=SMALL, q=4, l=2, trials=6, seed=13)
        monkeypatch.setenv("IRSBEAM_WORKERS", "1")
        (serial,) = run_trials([cfg])
        assert all(0.0 < r.bgr <= 1.0 for r in serial)
        monkeypatch.setenv("IRSBEAM_WORKERS", "2")
        assert run_trials([cfg]) == [serial]

    def test_pool_workers_run_one_blas_thread(self, monkeypatch):
        blas = _openblas_threads()
        if blas is None:
            pytest.skip("numpy's bundled OpenBLAS not found")
        get, put = blas
        before = get()
        monkeypatch.setenv("IRSBEAM_WORKERS", "2")
        put(2)  # forked workers inherit two threads; the initializer sets one
        try:
            counts = run_trials([replace(SMALL_CFG, trials=4)], _blas_threads_runner)
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
        monkeypatch.setenv("IRSBEAM_WORKERS", "1")
        (serial,) = run_trials([cfg])
        monkeypatch.setenv("IRSBEAM_WORKERS", "512")
        assert run_trials([cfg]) == [serial]
        # one pool for all configs, as large as the largest trial count
        assert run_trials([replace(cfg, trials=2), cfg]) == [serial[:2], serial]
        assert run_trials([replace(cfg, trials=1)]) == [serial[:1]]  # one trial: no pool
        assert opened == [3, 3]

    def test_non_integer_worker_count_rejected(self, monkeypatch):
        monkeypatch.setenv("IRSBEAM_WORKERS", "two")
        with pytest.raises(InvalidParameterError, match="IRSBEAM_WORKERS"):
            run_trials([SMALL_CFG])

    @pytest.mark.parametrize("env", ["0", "-3"])
    def test_worker_count_below_one_rejected(self, monkeypatch, env):
        monkeypatch.setenv("IRSBEAM_WORKERS", env)
        with pytest.raises(InvalidParameterError, match="IRSBEAM_WORKERS"):
            run_trials([SMALL_CFG])

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

    def test_records_do_not_depend_on_blas_thread_count(self):
        def records(threads: str) -> str:
            src = str(Path(irsbeam.__file__).resolve().parents[1])
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
            return subprocess.run(
                [sys.executable, "-c", RECORDS_SCRIPT], env=env, check=True,
                capture_output=True, text=True,
            ).stdout

        one = records("1")
        assert one.count("TrialRecord") == 80
        assert records("2") == one

    def test_warm_trial_peak_allocation_is_bounded(self):
        # a trial that allocates less than this reuses the heap pages the
        # previous trial freed instead of faulting in fresh ones
        cfg = replace(ACCEPTANCE_CFG, snr_db=-20.0)
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
        assert max(peaks) <= 1.8e6

    def test_records_equal_a_run_that_reads_the_dense_lam(self, monkeypatch):
        # run_trial reads its rounds from lam's factors; the same trials
        # read from the dense lam give the same records
        cfgs = [replace(ACCEPTANCE_CFG, scenario=s, snr_db=-20.0) for s in ("los", "nlos")]
        want = [run_trial(cfg, t) for cfg in cfgs for t in range(50)]
        channels, forms = [], []
        real_assemble, real_synthesize = harness.assemble_channels, harness.synthesize_measurements

        def assemble(*args):
            channels.append(real_assemble(*args))
            return channels[-1]

        def synthesize(lam, *args):
            forms.append(type(lam))
            return real_synthesize(channels[-1].lam, *args)

        monkeypatch.setattr(harness, "assemble_channels", assemble)
        monkeypatch.setattr(harness, "synthesize_measurements", synthesize)
        got = [run_trial(cfg, t) for cfg in cfgs for t in range(50)]
        assert forms == [tuple] * 100
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
        for rec in run_trials([cfg])[0]:
            assert isinstance(rec.success, bool)
            assert rec.estimate.nm_rounds is not None


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


class TestSweeps:
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

    @pytest.mark.parametrize("base,key,value,error", WRONG_FIELD_TYPES, ids=[
        f"{type(base).__name__}.{key}={value!r}" for base, key, value, _ in WRONG_FIELD_TYPES
    ])
    def test_wrong_field_type_rejected_at_construction(self, base, key, value, error):
        with pytest.raises(error, match=key):
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
