import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsbeam.arrays import ArrayConfig
from irsbeam.channel import assemble_channels, sample_paths
from irsbeam.codebook import (
    CONSTANT_MODULUS,
    IDEAL_SPARSE,
    build_scan_plan,
    encode_rounds,
)
from irsbeam.decoder import (
    MeasurementSet,
    _decode,
    decode_los,
    decode_nlos,
    rayleigh_threshold,
    synthesize_measurements,
)
from irsbeam.errors import InvalidDimensionError, InvalidParameterError
from irsbeam.harness import snr_to_sigma

from helpers import (
    exhaustive_scan,
    grid_decode,
    grid_nm_rounds,
    readings_per_round,
    sequential_readings,
)

SMALL = ArrayConfig(n_t=16, m_y=4, m_z=4, r=4)


def score_matrix(y_l, rnd):
    """M x N_t oracle: entry (i, j) is the squared measurement of its bin."""
    return (np.abs(y_l) ** 2)[np.ix_(rnd.row_bin, rnd.col_bin)]


def handmade_plan(cfg, rounds_spec):
    """Ideal-sparse plan from explicit index partitions, one pair per round."""
    c_design, a_supports = (np.array(parts) for parts in zip(*rounds_spec))
    return encode_rounds(cfg, c_design, a_supports, IDEAL_SPARSE)


class TestBinOf:
    def test_small_example(self):
        cfg = ArrayConfig(n_t=4, m_y=2, m_z=2, r=2)
        plan = handmade_plan(
            cfg, [(([0, 1], [2, 3]), ([0, 1], [2, 3]))]
        )
        rnd = plan.rounds[0]
        assert (rnd.row_bin[2], rnd.col_bin[0]) == (1, 0)
        assert (rnd.row_bin[0], rnd.col_bin[3]) == (0, 1)

    def test_indicator_has_single_nonzero(self):
        plan = build_scan_plan(SMALL, 4, 2, rng=0)
        for l in range(plan.l):
            rnd = plan.rounds[l]
            n_u, n_v = rnd.c_design.shape[0], rnd.a_supports.shape[0]
            for i in range(SMALL.m):
                for j in range(SMALL.n_t):
                    u, v = rnd.row_bin[i], rnd.col_bin[j]
                    hits = [
                        (uu, vv)
                        for uu in range(n_u)
                        for vv in range(n_v)
                        if i in rnd.c_supports[uu] and j in rnd.a_supports[vv]
                    ]
                    assert hits == [(u, v)]


class TestProbabilityMatrix:
    def test_zero_measurements(self):
        plan = build_scan_plan(SMALL, 4, 1, rng=1)
        rnd = plan.rounds[0]
        p = score_matrix(np.zeros((rnd.c_design.shape[0], rnd.a_supports.shape[0])), rnd)
        assert np.all(p == 0)

    def test_matches_indicator_inner_product(self):
        plan = build_scan_plan(SMALL, 4, 1, rng=2)
        rnd = plan.rounds[0]
        n_u, n_v = rnd.c_design.shape[0], rnd.a_supports.shape[0]
        rng = np.random.default_rng(3)
        y = rng.uniform(0, 2, size=(n_u, n_v))
        p = score_matrix(y, rnd)
        y_sq_vec = (y * y).ravel()
        for i in range(SMALL.m):
            for j in range(SMALL.n_t):
                ind = np.zeros((n_u, n_v))
                for u in range(n_u):
                    for v in range(n_v):
                        if i in rnd.c_supports[u] and j in rnd.a_supports[v]:
                            ind[u, v] = 1
                assert p[i, j] == pytest.approx(ind.ravel() @ y_sq_vec)

    def test_same_bin_shares_value(self):
        plan = build_scan_plan(SMALL, 4, 1, rng=4)
        rnd = plan.rounds[0]
        shape = rnd.c_design.shape[0], rnd.a_supports.shape[0]
        y = np.random.default_rng(5).uniform(0, 1, size=shape)
        p = score_matrix(y, rnd)
        i0, i1 = rnd.c_supports[0][:2]
        j0, j1 = rnd.a_supports[0][:2]
        assert p[i0, j0] == p[i1, j1] == y[0, 0] ** 2


def planted_lam(m, n_t, entries):
    lam = np.zeros((m, n_t), complex)
    for (i, j), val in entries.items():
        lam[i, j] = val
    return lam


class TestDecodeLos:
    def test_noiseless_single_entry(self):
        rng = np.random.default_rng(8)
        hits = 0
        for t in range(200):
            lam = planted_lam(
                SMALL.m, SMALL.n_t,
                {(rng.integers(SMALL.m), rng.integers(SMALL.n_t)):
                 np.exp(1j * rng.uniform(0, 2 * np.pi))},
            )
            truth = np.unravel_index(np.argmax(np.abs(lam)), lam.shape)
            plan = build_scan_plan(SMALL, 4, 4, rng=rng)
            ms = synthesize_measurements(lam, plan, 0.0)
            est = decode_los(ms, plan, 1e-9 * max(y.max() for y in ms.y))
            hits += (est.i_star, est.j_star) == truth
        assert hits / 200 >= 0.95

    def test_noise_only_returns_valid_index(self):
        plan = build_scan_plan(SMALL, 4, 3, rng=9)
        lam = np.zeros((SMALL.m, SMALL.n_t), complex)
        ms = synthesize_measurements(lam, plan, 1.0, np.random.default_rng(10))
        est = decode_los(ms, plan, 0.0)
        assert 0 <= est.i_star < SMALL.m and 0 <= est.j_star < SMALL.n_t

    def test_epsilon_zero_uses_full_grid(self):
        plan = build_scan_plan(SMALL, 4, 2, rng=11)
        lam = planted_lam(SMALL.m, SMALL.n_t, {(3, 5): 1.0})
        ms = synthesize_measurements(lam, plan, 0.05, np.random.default_rng(12))
        est = decode_los(ms, plan, 0.0)
        assert est.candidate_count == SMALL.m * SMALL.n_t
        # global product argmax
        prod = np.ones((SMALL.m, SMALL.n_t))
        for rnd, y in zip(plan.rounds, ms.y):
            prod *= score_matrix(y, rnd)
        truth = np.unravel_index(np.argmax(prod), prod.shape)
        assert (est.i_star, est.j_star) == truth

    @settings(deadline=None, max_examples=60)
    @given(st.integers(-300, 300), st.sampled_from([decode_los, decode_nlos]))
    def test_scaling_invariance(self, k, decode):
        # scaling lam and sigma together scales every measurement and the
        # threshold by the same factor, which must not move the decision
        plan = build_scan_plan(SMALL, 4, 3, rng=13)
        lam = planted_lam(SMALL.m, SMALL.n_t, {(7, 2): 0.9, (1, 14): 0.3})
        ms = synthesize_measurements(lam, plan, 0.1, np.random.default_rng(14))
        eps = 0.05
        est1 = decode(ms, plan, eps)
        c = 10.0**k
        scaled = MeasurementSet(y=tuple(c * y for y in ms.y), plan=plan)
        est2 = decode(scaled, plan, c * eps)
        assert (est1.i_star, est1.j_star) == (est2.i_star, est2.j_star)
        assert est1.candidate_count == est2.candidate_count
        assert est1.nm_rounds == est2.nm_rounds

    def test_threshold_too_high(self):
        # nothing clears the gate: the result is the decode at epsilon 0
        plan = build_scan_plan(SMALL, 4, 2, rng=15)
        lam = planted_lam(SMALL.m, SMALL.n_t, {(0, 0): 1.0})
        ms = synthesize_measurements(lam, plan, 0.0)
        est = decode_los(ms, plan, 1e9)
        assert est == decode_los(ms, plan, 0.0)
        assert est.candidate_count == SMALL.m * SMALL.n_t
        assert est.detector_threshold == 0.0

    def test_determinism(self):
        plan = build_scan_plan(SMALL, 4, 3, rng=16)
        lam = planted_lam(SMALL.m, SMALL.n_t, {(5, 9): 1.0})
        ms = synthesize_measurements(lam, plan, 0.2, np.random.default_rng(17))
        a = decode_los(ms, plan, 0.1)
        b = decode_los(ms, plan, 0.1)
        assert a == b


class TestNulltons:
    def test_noiseless_counts(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            k = 3
            pos = rng.choice(SMALL.m * SMALL.n_t, size=k, replace=False)
            lam = np.zeros((SMALL.m, SMALL.n_t), complex)
            lam.flat[pos] = 1.0
            plan = build_scan_plan(SMALL, 4, 1, rng=rng)
            rnd = plan.rounds[0]
            ms = synthesize_measurements(lam, plan, 0.0)
            # ground truth: is this an NM round?
            bins = {
                (rnd.row_bin[i], rnd.col_bin[j])
                for i, j in zip(*np.unravel_index(pos, lam.shape))
            }
            smallest_singleton = min(
                ms.y[0][u, v] for u, v in bins
            )
            eps = 0.5 * smallest_singleton
            if len(bins) == k and smallest_singleton > 0:
                # a reference round with exactly U*V - k nulltons ties with
                # round 0, so both are NM, only if round 0 counts as many
                ref = np.zeros((rnd.c_design.shape[0], rnd.a_supports.shape[0]))
                ref.flat[:k] = smallest_singleton
                twice = encode_rounds(SMALL, plan.c_design[[0, 0]],
                                      plan.a_supports[[0, 0]], IDEAL_SPARSE)
                pair = MeasurementSet(y=(ms.y[0], ref), plan=twice)
                assert decode_nlos(pair, twice, eps).nm_rounds == (0, 1)

    def test_epsilon_zero_counts_nothing(self):
        # at epsilon 0 no reading is a nullton, so every round is NM
        plan = build_scan_plan(SMALL, 4, 3, rng=0)
        rnd = plan.rounds[0]
        shape = rnd.c_design.shape[0], rnd.a_supports.shape[0]
        zeros = MeasurementSet(y=(np.zeros(shape),) * 3, plan=plan)
        assert decode_nlos(zeros, plan, 0.0).nm_rounds == (0, 1, 2)

    def test_false_alarm_calibration(self):
        rng = np.random.default_rng(19)
        sigma = 0.7
        eps = rayleigh_threshold(sigma, p_fa=0.01)
        n = 200_000
        noise = np.abs(
            (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            * sigma / np.sqrt(2)
        )
        frac = np.count_nonzero(noise < eps) / n
        assert abs(frac - 0.99) < 3 * np.sqrt(0.99 * 0.01 / n)

    @pytest.mark.parametrize("p_fa", [0.0, 1.0, 1.5, -0.1, float("nan")])
    def test_threshold_rejects_p_fa_outside_unit_interval(self, p_fa):
        with pytest.raises(InvalidParameterError, match="p_fa"):
            rayleigh_threshold(0.5, p_fa)


def nm_rounds_for_counts(counts):
    """decode_nlos's NM rounds when round l has counts[l] nulltons."""
    cfg = ArrayConfig(n_t=16, m_y=4, m_z=4, r=2)  # 8 x 8 readings per round
    plan = build_scan_plan(cfg, 2, len(counts), rng=0)
    ys = []
    for c in counts:
        y = np.ones((8, 8))
        y.flat[:c] = 0.0
        ys.append(y)
    return decode_nlos(MeasurementSet(y=tuple(ys), plan=plan), plan, 0.5).nm_rounds


class TestNmSelection:
    def test_example_counts(self):
        assert nm_rounds_for_counts([60, 60, 61, 63]) == (0, 1)

    def test_all_equal(self):
        assert nm_rounds_for_counts([5, 5, 5]) == (0, 1, 2)

    def test_no_counts_rejected(self):
        # a plan without rounds yields no counts: its measurement set is
        # rejected before any decode
        empty = encode_rounds(SMALL, np.empty((0, 4, 4), int), np.empty((0, 4, 4), int),
                              IDEAL_SPARSE)
        with pytest.raises(InvalidDimensionError):
            MeasurementSet(y=(), plan=empty)

    def test_selected_rounds_match_ground_truth(self):
        arr = ArrayConfig(n_t=128, m_y=16, m_z=16, r=4)
        rng = np.random.default_rng(20)
        agree = 0
        n = 60
        for _ in range(n):
            pos = rng.choice(arr.m * arr.n_t, size=4, replace=False)
            lam = np.zeros((arr.m, arr.n_t), complex)
            lam.flat[pos] = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
            plan = build_scan_plan(arr, 32, 5, rng=rng)
            ms = synthesize_measurements(lam, plan, 0.0)
            eps = 1e-6 * max(y.max() for y in ms.y)
            got = set(decode_nlos(ms, plan, eps).nm_rounds)
            truth = set()
            for l, rnd in enumerate(plan.rounds):
                bins = {
                    (rnd.row_bin[i], rnd.col_bin[j])
                    for i, j in zip(*np.unravel_index(pos, lam.shape))
                }
                if len(bins) == 4:
                    truth.add(l)
            if truth and got == truth:
                agree += 1
            elif not truth:
                agree += 1  # degenerate draw: no true NM round to match
        assert agree / n >= 0.9


class TestDecodeNlos:
    def test_k1_matches_los_when_all_rounds_nm(self):
        lam = planted_lam(SMALL.m, SMALL.n_t, {(9, 4): 1.0})
        plan = build_scan_plan(SMALL, 4, 3, rng=21)
        ms = synthesize_measurements(lam, plan, 0.0)
        eps = 1e-9
        a = decode_los(ms, plan, eps)
        b = decode_nlos(ms, plan, eps)
        assert (a.i_star, a.j_star) == (b.i_star, b.j_star) == (9, 4)
        assert b.nm_rounds == (0, 1, 2)

    def test_destructive_multiton_round_is_excluded(self):
        cfg = ArrayConfig(n_t=4, m_y=4, m_z=2, r=2)
        # entries at (0,0) and (1,1) nearly cancel when hashed together
        lam = planted_lam(cfg.m, cfg.n_t, {(0, 0): 1.0, (1, 1): -0.99})
        merge = (([0, 1, 2, 3], [4, 5, 6, 7]), ([0, 1], [2, 3]))
        split1 = (([0, 2, 4, 6], [1, 3, 5, 7]), ([0, 2], [1, 3]))
        split2 = (([0, 3, 4, 5], [1, 2, 6, 7]), ([0, 3], [1, 2]))
        plan = handmade_plan(cfg, [merge, split1, split2])
        ms = synthesize_measurements(lam, plan, 0.0)
        est = decode_nlos(ms, plan, 1e-3)
        assert est.nm_rounds == (1, 2)
        assert (est.i_star, est.j_star) == (0, 0)

    def test_determinism(self):
        lam = planted_lam(SMALL.m, SMALL.n_t, {(2, 2): 1.0, (6, 10): 0.8})
        plan = build_scan_plan(SMALL, 4, 4, rng=22)
        ms = synthesize_measurements(lam, plan, 0.3, np.random.default_rng(23))
        eps = rayleigh_threshold(0.3, p_fa=0.1)
        assert decode_nlos(ms, plan, eps) == decode_nlos(ms, plan, eps)


class TestPlanMismatch:
    @pytest.mark.parametrize("decode", [decode_los, decode_nlos])
    @pytest.mark.parametrize("q, l", [(8, 2), (4, 3)], ids=["other-q", "more-rounds"])
    def test_other_plan_rejected(self, decode, q, l):
        # readings decode only with the plan they were taken with, not with
        # one of other bins (wrong index) or of more rounds (IndexError)
        plan = build_scan_plan(SMALL, 4, 2, rng=30)
        lam = planted_lam(SMALL.m, SMALL.n_t, {(3, 5): 1.0})
        ms = synthesize_measurements(lam, plan, 0.0)
        with pytest.raises(InvalidParameterError, match="plan"):
            decode(ms, build_scan_plan(SMALL, q, l, rng=31), 1e-9)


class TestMeasurementSet:
    def test_rejects_wrong_round_count(self):
        plan = build_scan_plan(SMALL, 4, 2, rng=24)
        u, v = plan.c_design.shape[1], plan.a_supports.shape[1]
        with pytest.raises(InvalidDimensionError):
            MeasurementSet(y=(np.zeros((u, v)),), plan=plan)

    def test_rejects_wrong_matrix_shape(self):
        plan = build_scan_plan(SMALL, 4, 1, rng=24)
        u, v = plan.c_design.shape[1], plan.a_supports.shape[1]
        with pytest.raises(InvalidDimensionError, match=f"{u} x {v}"):
            MeasurementSet(y=(np.zeros((v, u + 1)),), plan=plan)

    def test_rejects_negative(self):
        plan = build_scan_plan(SMALL, 4, 1, rng=25)
        u, v = plan.c_design.shape[1], plan.a_supports.shape[1]
        with pytest.raises(InvalidParameterError):
            MeasurementSet(y=(-np.ones((u, v)),), plan=plan)

    def test_rejects_ragged_rounds(self):
        plan = build_scan_plan(SMALL, 4, 2, rng=24)
        u, v = plan.c_design.shape[1], plan.a_supports.shape[1]
        ys = (np.zeros((u, v)), np.zeros((u, v + 1)))
        with pytest.raises(InvalidDimensionError, match=f"{u} x {v}"):
            MeasurementSet(y=ys, plan=plan)

    @pytest.mark.parametrize("extra", [(0, 0, 1), (0, 1, 0), (1, 0, 0)])
    def test_rejects_wrong_stack_shape(self, extra):
        plan = build_scan_plan(SMALL, 4, 2, rng=24)
        u, v = plan.c_design.shape[1], plan.a_supports.shape[1]
        shape = np.add((plan.l, u, v), extra)
        with pytest.raises(InvalidDimensionError):
            MeasurementSet(y=np.zeros(shape), plan=plan)

    def test_rejects_one_matrix_for_every_round(self):
        plan = build_scan_plan(SMALL, 4, 4, rng=24)
        u, v = plan.c_design.shape[1], plan.a_supports.shape[1]
        assert u == plan.l
        with pytest.raises(InvalidDimensionError):
            MeasurementSet(y=np.zeros((u, v)), plan=plan)

    def test_sequence_becomes_stack(self):
        plan = build_scan_plan(SMALL, 4, 2, rng=24)
        u, v = plan.c_design.shape[1], plan.a_supports.shape[1]
        ys = [np.full((u, v), float(l)) for l in range(plan.l)]
        ms = MeasurementSet(y=ys, plan=plan)
        assert ms.y.shape == (plan.l, u, v)
        assert all(np.array_equal(a, b) for a, b in zip(ms.y, ys))

    def test_rejects_complex(self):
        # readings are magnitudes; a complex one used to keep its real part
        plan = build_scan_plan(SMALL, 4, 2, rng=25)
        with pytest.raises(InvalidParameterError, match="real"):
            MeasurementSet(y=np.full((2, 4, 4), 2.0 - 1j), plan=plan)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        plan = build_scan_plan(SMALL, 4, 2, rng=25)
        u, v = plan.c_design.shape[1], plan.a_supports.shape[1]
        ys = [np.ones((u, v)) for _ in range(plan.l)]
        ys[1][0, 0] = bad
        with pytest.raises(InvalidParameterError, match="finite"):
            MeasurementSet(y=tuple(ys), plan=plan)


# the constant-modulus plan pinned in test_golden.py
GOLDEN_CM_PLAN = build_scan_plan(
    ArrayConfig(n_t=8, m_y=4, m_z=4, r=2), 8, 2, CONSTANT_MODULUS, rng=6
)


class TestStackedSynthesis:
    """All rounds noised in one draw read and draw exactly what the rounds
    did one by one, each drawing its own real, then imaginary parts."""

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([None, -30.0, -10.0, 0.0, 20.0]),
        st.booleans(),
    )
    def test_matches_per_round_oracle(self, seed, snr_db, cm):
        plan = GOLDEN_CM_PLAN if cm else build_scan_plan(SMALL, 4, 3, rng=seed)
        rng = np.random.default_rng(seed)
        shape = (plan.cfg.m, plan.cfg.n_t)
        lam = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        sigma = 0.0 if snr_db is None else 10.0 ** (-snr_db / 20.0)
        rng_stack, rng_rounds = (np.random.default_rng(seed + 1) for _ in range(2))
        got = synthesize_measurements(lam, plan, sigma, rng_stack)
        want = readings_per_round(lam, plan, sigma, rng_rounds)
        assert got.y.shape == (plan.l, *want[0].shape)
        assert all(np.array_equal(a, b) for a, b in zip(got.y, want))
        # the stream goes on from the same state
        assert rng_stack.bit_generator.state == rng_rounds.bit_generator.state

    @pytest.mark.parametrize("snr_db", [None, -20.0])
    def test_matches_per_round_oracle_at_acceptance_size(self, snr_db):
        cfg = ArrayConfig(n_t=128, m_y=16, m_z=16, r=8)
        rng = np.random.default_rng(5)
        plan = build_scan_plan(cfg, 16, 7, rng=rng)
        lam = rng.standard_normal((cfg.m, cfg.n_t)) + 1j * rng.standard_normal((cfg.m, cfg.n_t))
        sigma = 0.0 if snr_db is None else 10.0 ** (-snr_db / 20.0)
        got = synthesize_measurements(lam, plan, sigma, np.random.default_rng(6))
        want = readings_per_round(lam, plan, sigma, np.random.default_rng(6))
        assert all(np.array_equal(a, b) for a, b in zip(got.y, want))


class TestReadingsAreBeamMeasurements:
    """A round's noiseless readings are what its physical beams measure of
    the channel, |v_beams^H h f_beams|, though they are taken as bin sums
    of lam or of its factors x and y."""

    @pytest.mark.parametrize("mode", [IDEAL_SPARSE, CONSTANT_MODULUS])
    @pytest.mark.parametrize("cfg,q,l", [
        (ArrayConfig(n_t=8, m_y=4, m_z=4, r=2), 8, 3),
        (ArrayConfig(n_t=128, m_y=16, m_z=16, r=8), 16, 2),
    ], ids=["4x4", "acceptance"])
    def test_noiseless_readings_equal_beam_products(self, mode, cfg, q, l):
        rng = np.random.default_rng(21)
        ch = assemble_channels(
            sample_paths(3, 5.0, rng, with_bs_aod=True), sample_paths(2, 0.0, rng), cfg
        )
        plan = build_scan_plan(cfg, q, l, mode, rng)
        for lam in (ch.lam, (ch.x, ch.y)):
            for y_l, rnd in zip(synthesize_measurements(lam, plan, 0.0).y, plan.rounds):
                want = np.abs(rnd.v_beams.conj().T @ ch.h @ rnd.f_beams)
                assert np.abs(y_l - want).max() <= 1e-12 * want.max()


@st.composite
def factor_pairs(draw):
    """A small array, a bin size, a plan mode and seed, and lam's factors
    x (M x P) and y (P x N_t) for P in 1..4."""
    m_y, m_z = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n_t = draw(st.sampled_from([1, 2, 4, 6, 8]))
    m = m_y * m_z
    cfg = ArrayConfig(
        n_t=n_t, m_y=m_y, m_z=m_z,
        r=draw(st.sampled_from([r for r in range(1, n_t + 1) if n_t % r == 0])),
    )
    q = draw(st.sampled_from([q for q in range(1, m + 1) if m % q == 0]))
    mode = draw(st.sampled_from([IDEAL_SPARSE, CONSTANT_MODULUS]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.integers(1, 4))
    x = rng.standard_normal((m, p)) + 1j * rng.standard_normal((m, p))
    y = rng.standard_normal((p, n_t)) + 1j * rng.standard_normal((p, n_t))
    plan = build_scan_plan(cfg, q, draw(st.integers(1, 3)), mode, rng)
    return plan, x, y


class TestFactorPairReadings:
    """Reading a round from lam's factors (x, y) equals reading it from the
    dense lam = x @ y, to rounding; the pair makes no M x N_t array."""

    @settings(deadline=None, max_examples=80)
    @given(factor_pairs())
    def test_pair_equals_dense_product(self, drawn):
        plan, x, y = drawn
        got = synthesize_measurements((x, y), plan, 0.0).y
        want = synthesize_measurements(x @ y, plan, 0.0).y
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * want.max()

    @staticmethod
    def _synthesis_peak(mode):
        """An acceptance-size channel and the tracemalloc peak of one warm
        synthesis of its factor pair on a plan in `mode`."""
        cfg = ArrayConfig(n_t=128, m_y=16, m_z=16, r=8)
        rng = np.random.default_rng(8)
        ch = assemble_channels(
            sample_paths(2, 13.2, rng, with_bs_aod=True), sample_paths(2, 13.2, rng), cfg
        )
        plan = build_scan_plan(cfg, 16, 7, mode, rng=rng)
        sigma = 0.1 * np.abs(ch.lam).max()
        synthesize_measurements((ch.x, ch.y), plan, sigma, rng)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            synthesize_measurements((ch.x, ch.y), plan, sigma, rng)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        return ch, peak

    def test_pair_allocates_less_than_one_dense_matrix(self):
        # one M x N_t complex array at the acceptance size is 512 KB
        ch, peak = self._synthesis_peak(IDEAL_SPARSE)
        assert ch.lam.nbytes == 512 * 1024
        assert peak < 256 * 1024

    def test_constant_modulus_reads_the_stored_image(self):
        # the plan's cm_image is read as it is; the 1 MB cascade
        # dictionary is neither conjugated nor multiplied per synthesis
        assert self._synthesis_peak(CONSTANT_MODULUS)[1] < 256 * 1024


@st.composite
def bin_sum_cases(draw):
    """A plan of up to 12 rounds, in either mode, whose row and column bins
    hold up to 12 members each, and a factor pair (x, y) with P in 1..5
    or the dense pair (lam, I). Entries span many binades, so the order a
    bin is summed in shows in the low bits."""
    q, r = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    u, v = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cfg = ArrayConfig(n_t=r * v, m_y=q, m_z=u, r=r)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    plan = build_scan_plan(cfg, q, draw(st.integers(1, 12)), rng=rng)
    if draw(st.booleans()):
        beams = np.exp(2j * np.pi * rng.random((plan.l, cfg.m, u)))
        plan = encode_rounds(cfg, plan.c_design, plan.a_supports, CONSTANT_MODULUS, beams)

    def draw_matrix(rows, cols):
        spread = 2.0 ** rng.integers(-20, 21, size=(rows, cols))
        return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) * spread

    if draw(st.booleans()):
        return plan, draw_matrix(cfg.m, cfg.n_t), np.eye(cfg.n_t)
    p = draw(st.integers(1, 5))
    return plan, draw_matrix(cfg.m, p), draw_matrix(p, cfg.n_t)


class TestReadingsSumBinsInOrder:
    """Every bin is summed member by member from its first, whatever the
    path count: numpy sums a reduced axis of 8 or more contiguous entries
    pairwise, so one path must not be summed as a contiguous axis."""

    @settings(deadline=None, max_examples=200)
    @given(bin_sum_cases())
    def test_equals_sequential_oracle(self, case):
        plan, x, y = case
        np.testing.assert_array_equal(plan.readings(x, y), sequential_readings(x, y, plan))

    def test_one_path_reads_like_two_with_a_zero_gain_path(self):
        cfg = ArrayConfig(n_t=128, m_y=16, m_z=16, r=8)
        rng = np.random.default_rng(14)
        one, other = (
            assemble_channels(sample_paths(1, 13.2, rng, with_bs_aod=True),
                              sample_paths(2, 13.2, rng), cfg)
            for _ in range(2)
        )
        plan = build_scan_plan(cfg, 16, 7, rng=rng)
        # the second path's gain is 0, so its column of x is 0
        x2 = np.hstack([one.x, np.zeros_like(one.x)])
        y2 = np.vstack([one.y, other.y])
        np.testing.assert_array_equal(plan.readings(one.x, one.y), plan.readings(x2, y2))


class TestSingletonPlanIsExhaustiveSearch:
    """A plan of one round of singleton bins (q = 1, R = 1) reads every
    grid pair once with its own grid beams, sqrt(M) |lam[i, j]| when
    noiseless, and both decoders pick the largest reading: it is the
    exhaustive grid scan."""

    @settings(deadline=None, max_examples=80)
    @given(
        st.integers(1, 4), st.integers(1, 4), st.sampled_from([1, 2, 4, 8]),
        st.integers(1, 3), st.integers(0, 2**32 - 1),
        st.none() | st.sampled_from([-40.0, -20.0, 0.0, 20.0]),
        st.sampled_from([decode_los, decode_nlos]),
    )
    def test_pick_is_the_largest_reading(self, m_y, m_z, n_t, paths, seed, snr, decode):
        cfg = ArrayConfig(n_t=n_t, m_y=m_y, m_z=m_z, r=1)
        rng = np.random.default_rng(seed)
        ch = assemble_channels(
            sample_paths(paths, 13.2, rng, with_bs_aod=True), sample_paths(paths, 0.0, rng), cfg
        )
        sigma = 0.0 if snr is None else snr_to_sigma(ch.h, snr)
        est, measurements = exhaustive_scan(ch, sigma, rng, decode)
        rnd = measurements.plan.rounds[0]
        y = measurements.y[0][np.ix_(rnd.row_bin, rnd.col_bin)]  # in grid order
        assert y[est.i_star, est.j_star] == y.max()
        if sigma == 0:
            want = np.sqrt(cfg.m) * np.abs(ch.lam)
            np.testing.assert_allclose(y, want, rtol=1e-12, atol=1e-12 * want.max())
            assert (est.i_star, est.j_star) == ch.strongest


class TestDenseReadsAsPair:
    """A dense lam is read as the pair (lam, I). Its readings equal the
    per-round bin sums of lam bit for bit wherever a round has V >= 2
    precoders. With one precoder (R = N_t) numpy sums a length-1 trailing
    axis in another order, so the low bits may move, within 1e-12 of the
    largest reading."""

    # factor_pairs draws R = N_t, so V = 1, in about half its geometries
    @settings(deadline=None, max_examples=120)
    @given(factor_pairs(), st.sampled_from([0.0, 0.3]))
    def test_matches_per_round_oracle_at_any_v(self, drawn, sigma):
        plan, x, y = drawn
        lam = x @ y
        rng_stack, rng_rounds = (np.random.default_rng(plan.l) for _ in range(2))
        got = synthesize_measurements(lam, plan, sigma, rng_stack).y
        want = np.stack(readings_per_round(lam, plan, sigma, rng_rounds))
        assert rng_stack.bit_generator.state == rng_rounds.bit_generator.state
        if plan.cfg.n_t // plan.cfg.r >= 2:
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 1e-12 * want.max()


def _assert_ungated_is_epsilon_zero(plan, seed):
    rng = np.random.default_rng(seed)
    shape = (plan.cfg.m, plan.cfg.n_t)
    lam = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ms = synthesize_measurements(lam, plan, 0.5, rng)
    above_all = 2.0 * max(float(y.max()) for y in ms.y) + 1.0
    for decode in (decode_los, decode_nlos):
        est = decode(ms, plan, above_all)
        assert est == decode(ms, plan, 0.0)
        assert est.detector_threshold == 0.0
        assert est.candidate_count == plan.cfg.m * plan.cfg.n_t
        assert est.nm_rounds in (None, tuple(range(plan.l)))


class TestUngatedFallback:
    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(1, 4), st.integers(1, 4), st.integers(1, 8),
        st.data(), st.integers(1, 4), st.integers(0, 2**32 - 1),
    )
    def test_ideal_sparse_matches_epsilon_zero(self, m_y, m_z, n_t, data, l, seed):
        m = m_y * m_z
        r = data.draw(st.sampled_from([d for d in range(1, n_t + 1) if n_t % d == 0]))
        q = data.draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
        plan = build_scan_plan(ArrayConfig(n_t=n_t, m_y=m_y, m_z=m_z, r=r), q, l, rng=seed)
        _assert_ungated_is_epsilon_zero(plan, seed)

    def test_golden_constant_modulus_matches_epsilon_zero(self):
        # the golden plan's effective supports overlap
        for seed in range(5):
            _assert_ungated_is_epsilon_zero(GOLDEN_CM_PLAN, seed)

    def test_nlos_fallback_decodes_every_round(self):
        # round 0 repeats one beam, so every row goes to bin 0 and bin 1
        # owns none. Only bin 1 clears the gate there, which makes round 0
        # the sole NM round and leaves it with no candidate: the fallback
        # must then decode over both rounds, not over the NM subset
        cfg = ArrayConfig(n_t=4, m_y=2, m_z=2, r=2)
        halves = np.array([[0, 1], [2, 3]])
        beams = np.exp(1j * np.pi * np.outer(np.arange(4), [0, 1]))
        plan = encode_rounds(cfg, np.array([halves] * 2), np.array([halves] * 2),
                             CONSTANT_MODULUS, cm_beams=np.array([beams[:, [0, 0]], beams]))
        assert not np.any(plan.row_bin[0] == 1)
        ms = MeasurementSet(y=(np.array([[0.1, 0.2], [5.0, 6.0]]),
                               np.array([[0.3, 0.1], [0.2, 4.0]])), plan=plan)
        # nulltons (y < 1) per round: round 0 alone has the fewest
        assert [np.count_nonzero(y < 1.0) for y in ms.y] == [2, 3]
        est = decode_nlos(ms, plan, 1.0)
        assert est == decode_nlos(ms, plan, 0.0)
        assert est.nm_rounds == (0, 1)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def decode_cases(draw):
    """A small ideal-sparse or constant-modulus plan, readings for it and
    a threshold. The readings are continuous, or small integers with
    exact zeros (log -inf) and many exact ties; the threshold is 0, an
    integer, one of the readings or above every reading."""
    m_y, m_z = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n_t = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12, 24]))
    cfg = ArrayConfig(n_t=n_t, m_y=m_y, m_z=m_z, r=draw(st.sampled_from(_divisors(n_t))))
    q = draw(st.sampled_from(_divisors(cfg.m)))
    mode = draw(st.sampled_from([IDEAL_SPARSE, CONSTANT_MODULUS]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    plan = build_scan_plan(cfg, q, draw(st.integers(1, 4)), mode, rng)
    shape = (plan.l, plan.c_design.shape[1], plan.a_supports.shape[1])
    kind = draw(st.sampled_from(["continuous", "integers", "sparse"]))
    if kind == "continuous":
        y = rng.exponential(size=shape)
    elif kind == "integers":
        y = rng.integers(0, 4, size=shape).astype(float)
    else:
        y = rng.integers(1, 3, size=shape) * (rng.random(shape) < 0.2)
    epsilon = draw(st.sampled_from(
        [0.0, 1.0, 2.0, float(rng.choice(y.ravel())), float(y.max()) + 1.0]
    ))
    chosen = draw(st.integers(1, 2**plan.l - 1))  # a nonempty round subset, as bits
    subset = tuple(l for l in range(plan.l) if chosen >> l & 1)
    return MeasurementSet(y=y, plan=plan), epsilon, subset


def _corner_plan():
    """N_t = M = 4 in two rounds, each of which puts rows {0, 1} and
    columns {0, 1} in bin 0, rows {2, 3} and columns {2, 3} in bin 1."""
    halves = [[0, 1], [2, 3]]
    return handmade_plan(ArrayConfig(n_t=4, m_y=2, m_z=2, r=2), [(halves, halves)] * 2)


class TestBoundDecodeMatchesGrid:
    """The bound decode picks what an argmax over the full M x N_t score
    grid picks: the same entry, count, NM rounds and threshold."""

    @settings(deadline=None)
    @given(decode_cases())
    def test_equals_full_grid_decode(self, case):
        ms, epsilon, subset = case
        plan = ms.plan
        assert decode_los(ms, plan, epsilon) == grid_decode(ms, plan, epsilon)
        nm = grid_nm_rounds(ms, epsilon)
        assert decode_nlos(ms, plan, epsilon) == grid_decode(ms, plan, epsilon, nm)
        assert _decode(ms, plan, epsilon, subset) == grid_decode(ms, plan, epsilon, subset)

    def _check(self, plan, y, epsilon, want):
        ms = MeasurementSet(y=[np.array(y_l, dtype=float) for y_l in y], plan=plan)
        est = decode_los(ms, plan, epsilon)
        assert est == grid_decode(ms, plan, epsilon)
        assert (est.i_star, est.j_star) == want
        return est

    def test_highest_bound_row_scores_only_minus_inf(self):
        # rows 0 and 1 read 100 in one round and 0 in the other at every
        # column: the highest bound (2 log 100), every candidate at -inf.
        # Rows 2 and 3 score log 1 + log 1 = 0 everywhere
        plan = _corner_plan()
        est = self._check(plan, [[[100, 0], [1, 1]], [[0, 100], [1, 1]]], 0.5, (2, 0))
        assert est.candidate_count == 16

    def test_every_candidate_minus_inf_falls_back_to_first(self):
        # every entry reads 0 in one round; rows 2 and 3 have the higher
        # bound, but the fallback is the first candidate, not the seed's
        plan = _corner_plan()
        self._check(plan, [[[1, 0], [100, 0]], [[0, 1], [0, 100]]], 0.5, (0, 0))

    def test_winning_tie_spans_two_rows(self):
        # every entry scores log 4 + log 1 or log 1 + log 4, exactly log 4;
        # rows 2 and 3 have the higher bound, 2 log 4, so the seed row is
        # row 2, and the tie goes to row 0
        plan = _corner_plan()
        self._check(plan, [[[4, 4], [4, 1]], [[1, 1], [1, 4]]], 0.0, (0, 0))

    def test_row_without_candidate_has_largest_bound(self):
        # rows 0 and 1 read 0.9 below epsilon 1 in both rounds (bound
        # 2 log 0.9); rows 2 and 3 hold the only candidates, columns 0 and
        # 1, with the lower bound log 5 + log 0.01
        plan = _corner_plan()
        y = [[[0.9, 0.9], [5, 0.01]], [[0.9, 0.9], [0.01, 0.01]]]
        est = self._check(plan, y, 1.0, (2, 0))
        assert est.candidate_count == 4

    def test_non_candidate_outscores_every_candidate(self):
        # columns 2 and 3 of rows 2 and 3 read 0.9 below epsilon 1 in both
        # rounds (2 log 0.9); columns 0 and 1 hold the candidates, at
        # log 5 + log 0.01
        plan = _corner_plan()
        y = [[[0.01, 0.01], [5, 0.9]], [[0.01, 0.01], [0.01, 0.9]]]
        est = self._check(plan, y, 1.0, (2, 0))
        assert est.candidate_count == 4

    def test_scores_add_in_round_order(self):
        # 5 * 18 * 16 == 3 * 15 * 32: summed from round 0 the two log sums
        # are equal, so the tie goes to column 0; summed from the last
        # round, column 1's is larger by one unit in the last place
        cfg = ArrayConfig(n_t=2, m_y=1, m_z=1, r=1)
        plan = handmade_plan(cfg, [([[0]], [[0], [1]])] * 3)
        est = self._check(plan, [[[5, 3]], [[18, 15]], [[16, 32]]], 0.0, (0, 0))
        assert est.candidate_count == 2

    def test_acceptance_size_allocates_less_than_one_score_grid(self):
        # one M x N_t float grid at N_t=128, 16x16 is 256 KB
        cfg = ArrayConfig(n_t=128, m_y=16, m_z=16, r=8)
        rng = np.random.default_rng(9)
        ch = assemble_channels(
            sample_paths(1, 13.2, rng, with_bs_aod=True), sample_paths(1, 13.2, rng), cfg
        )
        plan = build_scan_plan(cfg, 16, 7, rng=rng)
        sigma = snr_to_sigma(ch.h, -20.0)
        ms = synthesize_measurements((ch.x, ch.y), plan, sigma, rng)
        epsilon = rayleigh_threshold(sigma, p_fa=0.1)
        decode_los(ms, plan, epsilon)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            est = decode_los(ms, plan, epsilon)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert est == grid_decode(ms, plan, epsilon)
        assert peak < cfg.m * cfg.n_t * 8 == 256 * 1024
