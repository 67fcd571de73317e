import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsbeam.errors import InvalidParameterError
from irsbeam.theory import (
    PlanProbe,
    _p_single,
    g_exact,
    min_rounds,
    p_lower_los,
    p_lower_nlos,
    p_nm_round,
    sample_complexity,
)


def g_brute(x, y, z):
    """Probability that y iid uniform (x-1)-subsets of {1..z-1} have empty
    common intersection, enumerated exactly over all subset combinations.
    Each subset is the non-target content of one winning bin; an empty
    intersection means the target index is pinned down uniquely."""
    if y == 0:
        return 1.0 if z == 1 else 0.0
    pool = [set(c) for c in itertools.combinations(range(1, z), x - 1)]
    total = 0
    empty = 0
    for combo in itertools.product(pool, repeat=y):
        total += 1
        inter = set(combo[0]).intersection(*combo[1:])
        if not inter:
            empty += 1
    return empty / total


class TestSingleRound:
    def test_q1_is_certain(self):
        assert p_lower_los(PlanProbe(m=16, n_t=8, q=1, r=1, l=3)) == 1.0

    def test_paper_scale_values(self):
        base = dict(m=256, n_t=128, r=4)
        assert p_lower_los(PlanProbe(q=32, l=4, **base)) == pytest.approx(0.9443, abs=5e-5)
        assert p_lower_los(PlanProbe(q=16, l=3, **base)) == pytest.approx(0.9465, abs=5e-5)
        assert p_lower_los(PlanProbe(q=16, l=4, **base)) == pytest.approx(0.9969, abs=5e-5)

    def test_matches_direct_formula(self):
        for q, r, l in [(2, 2, 1), (4, 2, 3), (8, 4, 6)]:
            probe = PlanProbe(m=16, n_t=8, q=q, r=r, l=l)
            row = 1 - 15 * ((q - 1) / 15) ** l
            col = 1 - 7 * ((r - 1) / 7) ** l
            direct = row * col
            assert p_lower_los(probe) == pytest.approx(
                min(max(direct, 0.0), 1.0), abs=1e-12
            )

    @given(
        q=st.sampled_from([2, 4, 8]),
        r=st.sampled_from([2, 4]),
        l=st.integers(0, 20),
    )
    def test_bounds_and_monotone_in_l(self, q, r, l):
        probe = PlanProbe(m=16, n_t=8, q=q, r=r, l=l)
        p = p_lower_los(probe)
        assert 0.0 <= p <= 1.0
        assert p_lower_los(PlanProbe(m=16, n_t=8, q=q, r=r, l=l + 1)) >= p - 1e-12


class TestCoverProbability:
    def test_zero_rounds_convention(self):
        assert g_exact(4, 0, 16) == 0.0

    def test_single_round_cannot_disambiguate(self):
        assert g_exact(4, 1, 16) == 0.0
        assert g_exact(2, 1, 8) == 0.0

    def test_singleton_bin_always_succeeds(self):
        assert g_exact(1, 3, 8) == 1.0

    def test_full_bin_never_succeeds(self):
        assert g_exact(8, 1, 8) == 0.0

    def test_brute_force_enumeration(self):
        worst = 0.0
        for z in range(2, 9):
            for x in range(2, z + 1):
                for y in range(0, 4):
                    worst = max(worst, abs(g_exact(x, y, z) - g_brute(x, y, z)))
        assert worst < 1e-12

    def test_monotone_increasing_in_rounds(self):
        vals = [g_exact(32, y, 256) for y in range(1, 12)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_dominates_union_bound(self):
        # the closed union-bound form is a lower bound on the exact value
        for y in range(2, 10):
            lb = 1 - 255 * (31 / 255) ** y
            assert g_exact(32, y, 256) >= min(max(lb, 0.0), 1.0) - 1e-12


class TestNmRound:
    def test_paper_scale_values(self):
        base = dict(m=256, n_t=128, r=4, l=1)
        assert p_nm_round(PlanProbe(q=64, k=4, **base)) == pytest.approx(0.9540, abs=5e-5)
        assert p_nm_round(PlanProbe(q=32, k=4, **base)) == pytest.approx(0.9769, abs=5e-5)
        assert p_nm_round(PlanProbe(q=32, k=2, **base)) == pytest.approx(0.9961, abs=5e-5)

    def test_k1_is_certain(self):
        assert p_nm_round(PlanProbe(m=256, n_t=128, q=32, r=4, l=1, k=1)) == 1.0

    def test_k_exceeds_grid_raises(self):
        with pytest.raises(InvalidParameterError):
            p_nm_round(PlanProbe(m=4, n_t=4, q=2, r=2, l=1, k=5))

    def test_matches_direct_count(self):
        probe = PlanProbe(m=8, n_t=4, q=2, r=2, l=1, k=2)
        u, v = probe.u, probe.v
        direct = (
            (probe.q * probe.r) ** 2
            * math.comb(u * v, 2)
            / math.comb(probe.m * probe.n_t, 2)
        )
        assert p_nm_round(probe) == pytest.approx(direct, rel=1e-12)

    def test_monte_carlo_frequency(self):
        probe = PlanProbe(m=16, n_t=8, q=4, r=2, l=1, k=2)
        rng = np.random.default_rng(42)
        n = 100_000
        hits = 0
        for _ in range(n):
            row_perm = rng.permutation(probe.m)
            col_perm = rng.permutation(probe.n_t)
            row_bin = np.empty(probe.m, int)
            row_bin[row_perm] = np.arange(probe.m) // probe.q
            col_bin = np.empty(probe.n_t, int)
            col_bin[col_perm] = np.arange(probe.n_t) // probe.r
            pos = rng.choice(probe.m * probe.n_t, size=2, replace=False)
            ii, jj = np.unravel_index(pos, (probe.m, probe.n_t))
            bins = set(zip(row_bin[ii], col_bin[jj]))
            hits += len(bins) == 2
        p = p_nm_round(probe)
        assert abs(hits / n - p) < 3 * np.sqrt(p * (1 - p) / n)


class TestMultipath:
    def test_paper_scale_values(self):
        base = dict(m=256, n_t=128, r=4)
        assert p_lower_nlos(PlanProbe(q=32, k=4, l=4, **base)) == pytest.approx(0.9152, abs=5e-4)
        assert p_lower_nlos(PlanProbe(q=32, k=4, l=5, **base)) == pytest.approx(0.9863, abs=5e-4)
        assert p_lower_nlos(PlanProbe(q=16, k=2, l=4, **base)) == pytest.approx(0.9965, abs=5e-4)

    def test_bound_below_one(self):
        for l in range(1, 20):
            p = p_lower_nlos(PlanProbe(m=64, n_t=32, q=8, r=4, l=l, k=2))
            assert 0.0 <= p <= 1.0

    def test_monotone_in_l(self):
        vals = [
            p_lower_nlos(PlanProbe(m=256, n_t=128, q=32, r=4, l=l, k=3))
            for l in range(1, 16)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_binomial_mixture_identity(self):
        probe = PlanProbe(m=16, n_t=8, q=4, r=2, l=4, k=2)
        p_nm = p_nm_round(probe)
        total = 0.0
        for l_nm in range(probe.l + 1):
            w = math.comb(probe.l, l_nm) * p_nm**l_nm * (1 - p_nm) ** (probe.l - l_nm)
            g_row = g_exact(probe.q, l_nm, probe.m)
            g_col = g_exact(probe.r, l_nm, probe.n_t)
            total += g_row * g_col * w
        assert p_lower_nlos(probe) == pytest.approx(total, rel=1e-12)


class TestPlanning:
    def test_min_rounds_paper_scale(self):
        assert min_rounds(32, 256, 0.95) == 5

    def test_min_rounds_q1(self):
        assert min_rounds(1, 256, 0.5) == 1

    def test_min_rounds_is_tight(self):
        def axis(l):
            return 1 - 255 * (31 / 255) ** l

        for target in (0.5, 0.9, 0.99, 0.999):
            l = min_rounds(32, 256, target)
            assert axis(l) >= target
            if l > 1:
                assert axis(l - 1) < target

    @settings(deadline=None, max_examples=200)
    @given(st.integers(2, 300), st.data(), st.floats(0.01, 0.999999))
    def test_min_rounds_is_tight_property(self, m, data, p1):
        q = data.draw(st.integers(1, m - 1))
        l = min_rounds(q, m, p1)
        assert l >= 1 and _p_single(q, l, m) >= p1
        if l > 1:
            assert _p_single(q, l - 1, m) < p1

    def test_sample_complexity_consistency(self):
        probe = PlanProbe(m=256, n_t=128, q=32, r=4, l=1)
        for p0 in (0.90, 0.95, 0.99):
            t, l = sample_complexity(probe, p0)
            reached = PlanProbe(m=256, n_t=128, q=32, r=4, l=l)
            assert p_lower_los(reached) >= p0
            assert t == probe.u * probe.v * l

    def test_sample_complexity_beats_exhaustive(self):
        probe = PlanProbe(m=256, n_t=128, q=32, r=4, l=1)
        t, _ = sample_complexity(probe, 0.95)
        assert t < 256 * 128


class TestProbeValidation:
    def test_rejects_bad_q(self):
        with pytest.raises(InvalidParameterError):
            PlanProbe(m=16, n_t=8, q=16, r=2, l=1)
        with pytest.raises(InvalidParameterError):
            PlanProbe(m=16, n_t=8, q=3, r=2, l=1)

    def test_rejects_negative_l(self):
        with pytest.raises(InvalidParameterError):
            PlanProbe(m=16, n_t=8, q=4, r=2, l=-1)
