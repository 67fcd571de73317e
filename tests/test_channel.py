import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irsbeam.arrays import (
    ArrayConfig,
    cascade_dictionary,
    dft_dictionary,
    ula_response,
    upa_response,
)
from irsbeam.channel import (
    _assemble,
    PathSet,
    _noised_magnitude,
    _row_products,
    _strongest,
    _unit_peak,
    assemble_channels,
    draw_normals,
    sample_paths,
)
from irsbeam.codebook import build_scan_plan
from irsbeam.decoder import synthesize_measurements
from irsbeam.errors import InvalidParameterError

from helpers import (
    channel_from_lambda,
    exhaustive_scan,
    noisy_magnitude_per_matrix,
    strongest_entry,
)

CFG = ArrayConfig(n_t=8, m_y=4, m_z=4, r=2)


def grid_aligned_paths(cfg, iy, iz, jt, gain=1.0 + 0j):
    """Angles whose spatial frequencies land exactly on dictionary grid points."""
    eta = lambda i, n: -1 + (2 * i + 1) / n
    fz = eta(iz, cfg.m_z)
    el = np.arccos(fz)  # 2*0.5*cos(el) = fz
    fy = eta(iy, cfg.m_y)
    az = np.arcsin(np.clip(fy / np.sin(el), -1, 1))
    aod = np.arcsin(eta(jt, cfg.n_t))
    return PathSet(
        gains=np.array([gain]),
        azimuth=np.array([az]),
        elevation=np.array([el]),
        bs_aod=np.array([aod]),
    )


def per_path_cascade(bs_irs, irs_user, cfg):
    """Reference cascade matrix summed path by path with np.outer."""
    g = sum(
        gain * np.outer(upa_response(az, el, cfg), np.conj(ula_response(aod, cfg)))
        for gain, az, el, aod in zip(
            bs_irs.gains, bs_irs.azimuth, bs_irs.elevation, bs_irs.bs_aod
        )
    ) * np.sqrt(cfg.n_t * cfg.m / len(bs_irs.gains))
    h_r = sum(
        gain * upa_response(az, el, cfg)
        for gain, az, el in zip(irs_user.gains, irs_user.azimuth, irs_user.elevation)
    ) * np.sqrt(cfg.m / len(irs_user.gains))
    return np.conj(h_r)[:, None] * g


# (m_y, m_z). barD^H u is taken per axis on u laid out m_y x m_z, so a
# reshape-order slip shows only where m_y != m_z: draw such arrays, and
# 1 x n and n x 1 ones, on purpose.
irs_shapes = st.one_of(
    st.tuples(st.integers(1, 4), st.integers(1, 4)),
    st.tuples(st.integers(1, 5), st.integers(1, 5)).filter(lambda s: s[0] != s[1]),
    st.tuples(st.just(1), st.integers(2, 8)),
    st.tuples(st.integers(2, 8), st.just(1)),
)

small_cascades = st.tuples(
    irs_shapes,
    st.integers(1, 8),  # n_t
    st.integers(1, 4),  # BS-IRS paths
    st.integers(1, 4),  # IRS-user paths
    st.integers(0, 2**32 - 1),  # seed
).map(lambda c: (*c[0], *c[1:]))


@settings(deadline=None, max_examples=60)
@given(small_cascades)
@example((2, 3, 4, 2, 2, 1))
@example((1, 6, 3, 3, 1, 2))
@example((6, 1, 3, 1, 3, 3))
def test_assemble_matches_per_path_oracle(case):
    m_y, m_z, n_t, p, pp, seed = case
    cfg = ArrayConfig(n_t=n_t, m_y=m_y, m_z=m_z, r=1)
    rng = np.random.default_rng(seed)
    bs_irs = sample_paths(p, 0.0, rng, with_bs_aod=True)
    irs_user = sample_paths(pp, 0.0, rng)
    ch = assemble_channels(bs_irs, irs_user, cfg)
    h = per_path_cascade(bs_irs, irs_user, cfg)
    assert np.abs(ch.h - h).max() <= 1e-12 * np.abs(h).max()
    lam = cascade_dictionary(cfg).conj().T @ h @ dft_dictionary(n_t)
    assert np.abs(ch.lam - lam).max() <= 1e-12 * np.abs(lam).max()


@settings(deadline=None, max_examples=40)
@given(small_cascades)
def test_vectorized_responses_match_per_angle_calls(case):
    m_y, m_z, n_t, p, _, seed = case
    cfg = ArrayConfig(n_t=n_t, m_y=m_y, m_z=m_z, r=1)
    paths = sample_paths(p, 0.0, np.random.default_rng(seed), with_bs_aod=True)
    ula = ula_response(paths.bs_aod, cfg)
    upa = upa_response(paths.azimuth, paths.elevation, cfg)
    assert ula.shape == (n_t, p) and upa.shape == (cfg.m, p)
    for k in range(p):
        assert np.array_equal(ula[:, k], ula_response(paths.bs_aod[k], cfg))
        assert np.array_equal(
            upa[:, k], upa_response(paths.azimuth[k], paths.elevation[k], cfg)
        )


class TestSamplePaths:
    def test_single_path_unit_gain(self):
        rng = np.random.default_rng(0)
        ps = sample_paths(1, 13.2, rng)
        assert abs(ps.gains[0]) == pytest.approx(1.0)

    def test_zero_db_splits_power_evenly(self):
        rng = np.random.default_rng(1)
        draws = [sample_paths(2, 0.0, rng) for _ in range(20_000)]
        los = np.mean([abs(d.gains[0]) ** 2 for d in draws])
        nlos = np.mean([abs(d.gains[1]) ** 2 for d in draws])
        assert los == pytest.approx(0.5, abs=1e-12)  # deterministic magnitude
        assert nlos == pytest.approx(0.5, rel=0.05)

    def test_rician_13_2_db_power_ratio(self):
        rng = np.random.default_rng(2)
        draws = [sample_paths(2, 13.2, rng) for _ in range(100_000)]
        los = np.mean([abs(d.gains[0]) ** 2 for d in draws])
        nlos = np.mean([abs(d.gains[1]) ** 2 for d in draws])
        assert los / nlos == pytest.approx(10 ** 1.32, rel=0.05)

    def test_angles_inside_sector(self):
        rng = np.random.default_rng(3)
        ps = sample_paths(50, 0.0, rng, with_bs_aod=True)
        assert np.all((ps.azimuth > -np.pi / 2) & (ps.azimuth < np.pi / 2))
        assert np.all((ps.elevation > 0) & (ps.elevation < np.pi))

    def test_rejects_bad_inputs(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidParameterError):
            sample_paths(0, 0.0, rng)
        with pytest.raises(InvalidParameterError):
            sample_paths(2, np.inf, rng)
        # 10^(x/10) overflows above ~3082.5 dB and is 0 below ~-3240 dB
        for db in (4000.0, -4000.0):
            with pytest.raises(InvalidParameterError, match="rician_db"):
                sample_paths(2, db, rng)


class TestAssemble:
    def test_on_grid_single_path_concentrates_energy(self):
        bs_irs = grid_aligned_paths(CFG, iy=1, iz=2, jt=3)
        irs_user = grid_aligned_paths(CFG, iy=2, iz=1, jt=0)
        irs_user = PathSet(
            gains=irs_user.gains,
            azimuth=irs_user.azimuth,
            elevation=irs_user.elevation,
        )
        ch = assemble_channels(bs_irs, irs_user, CFG)
        peak = np.max(np.abs(ch.lam)) ** 2
        total = np.linalg.norm(ch.lam) ** 2
        assert peak / total >= 0.999

    def test_off_grid_single_path_has_unique_peak(self):
        rng = np.random.default_rng(7)
        bs_irs = sample_paths(1, 13.2, rng, with_bs_aod=True)
        irs_user = sample_paths(1, 13.2, rng)
        ch = assemble_channels(bs_irs, irs_user, CFG)
        mags = np.sort(np.abs(ch.lam).ravel())
        assert mags[-1] > mags[-2]

    def test_zero_gains_give_zero_channel(self):
        zero = PathSet(
            gains=np.zeros(1, complex),
            azimuth=np.zeros(1),
            elevation=np.full(1, np.pi / 2),
            bs_aod=np.zeros(1),
        )
        user = PathSet(
            gains=np.zeros(1, complex),
            azimuth=np.zeros(1),
            elevation=np.full(1, np.pi / 2),
        )
        ch = assemble_channels(zero, user, CFG)
        assert np.all(ch.h == 0) and np.all(ch.lam == 0)

    @pytest.mark.parametrize("link,name", [
        (0, "gains"), (0, "azimuth"), (0, "elevation"), (0, "bs_aod"), (1, "gains"), (1, "azimuth"),
    ])
    @pytest.mark.parametrize("fill", [np.nan, np.inf])
    def test_non_finite_path_gain_or_angle_rejected(self, link, name, fill):
        # an inf angle reached np.sin with a RuntimeWarning, and NaN gains
        # reached the strongest entry's search, which raised IndexError
        rng = np.random.default_rng(3)
        pair = [sample_paths(2, 13.2, rng, with_bs_aod=True), sample_paths(2, 0.0, rng)]
        values = getattr(pair[link], name).copy()
        values[1] = fill
        pair[link] = replace(pair[link], **{name: values})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="path gains and angles must be finite"):
                assemble_channels(*pair, CFG)

    def test_energy_preservation(self):
        rng = np.random.default_rng(11)
        bs_irs = sample_paths(3, 5.0, rng, with_bs_aod=True)
        irs_user = sample_paths(2, 0.0, rng)
        ch = assemble_channels(bs_irs, irs_user, CFG)
        assert np.linalg.norm(ch.lam) == pytest.approx(
            np.linalg.norm(ch.h), rel=1e-10
        )

    def test_beamspace_matches_transform(self):
        rng = np.random.default_rng(13)
        bs_irs = sample_paths(3, 0.0, rng, with_bs_aod=True)
        irs_user = sample_paths(2, 0.0, rng)
        ch = assemble_channels(bs_irs, irs_user, CFG)
        expect = cascade_dictionary(CFG).conj().T @ ch.h @ dft_dictionary(CFG.n_t)
        np.testing.assert_allclose(ch.lam, expect, rtol=0, atol=1e-12 * np.abs(expect).max())


@st.composite
def factors_with_ties(draw):
    """Beamspace factors x (M x P) and y (P x N_t), P = 1..4, with exact
    ties planted at the strongest entry (a copy of its row of x or its
    column of y elsewhere), near ties (its row of x turned by a phase and
    moved by a few ulps), or all zero, at scales of 2^-400, 1 and 2^400."""
    p = draw(st.integers(1, 4))
    m, n_t = draw(st.integers(1, 48)), draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((m, p)) + 1j * rng.standard_normal((m, p))
    y = rng.standard_normal((p, n_t)) + 1j * rng.standard_normal((p, n_t))
    for kind in draw(st.lists(st.sampled_from(["row", "column", "near"]), max_size=3)):
        i, j = strongest_entry(x @ y)
        if kind == "row":
            x[draw(st.integers(0, m - 1))] = x[i]
        elif kind == "column":
            y[:, draw(st.integers(0, n_t - 1))] = y[:, j]
        else:
            turn = np.exp(1j * draw(st.floats(0, 2 * np.pi)))
            x[draw(st.integers(0, m - 1))] = x[i] * turn * (1 + draw(st.integers(-3, 3)) * 2.0**-52)
    if draw(st.integers(0, 9)) == 0:
        x[:] = 0
    return x * 2.0 ** draw(st.sampled_from([-400, 0, 400])), y


@pytest.mark.parametrize("p,pp", [(1, 1), (1, 2), (2, 2), (3, 1)])
def test_block_channels_are_each_pairs_channel(p, pp):
    # every stacked product of a block is, slice by slice, the product one
    # pair takes alone: the same bits in the same layout, and the same
    # strongest entry
    cfg = ArrayConfig(n_t=32, m_y=8, m_z=4, r=4)
    rng = np.random.default_rng(p * 10 + pp)
    pairs = [(sample_paths(p, 13.2, rng, with_bs_aod=True), sample_paths(pp, 0.0, rng))
             for _ in range(7)]
    block, stacks = _assemble(pairs, cfg)
    for k, (ch, pair) in enumerate(zip(block, pairs)):
        one = assemble_channels(*pair, cfg)
        assert ch.strongest == one.strongest
        for name, stack in zip(("x", "y", "u", "b"), stacks):
            got, want = getattr(ch, name), getattr(one, name)
            assert got.strides == want.strides, name
            assert got.tobytes() == want.tobytes() == stack[k].tobytes(), name


class TestUnitPeak:
    """Each matrix of a stack is scaled by the power of two that brings its
    peak magnitude into [0.5, 1), or refused where that power overflows."""

    @pytest.mark.parametrize("peak", [2.0**-1024, 2.0**-1022, 3.0, 2.0**1023 * 1.5])
    def test_scales_each_matrix_exactly_into_half_open_unit(self, peak):
        stack = np.array([[[peak, 0.5j * peak]], [[0.75, 0.25]]])
        got = _unit_peak(stack)
        e = int(np.frexp(peak)[1])
        assert np.array_equal(got, [stack[0] * 2.0**-e, stack[1]])
        assert 0.5 <= np.abs(got[0]).max() < 1

    def test_zero_matrix_left_as_it_is(self):
        stack = np.array([np.zeros((2, 3), complex), np.full((2, 3), 4.0 + 0j)])
        got = _unit_peak(stack)
        assert np.array_equal(got[0], stack[0]) and np.abs(got[1]).max() == 0.5

    @pytest.mark.parametrize("fill", [2.0**-1030, 2.0**-1074, np.nan, np.inf, -np.inf])
    def test_peak_beyond_the_scale_range_rejected(self, fill):
        # a peak below 2^-1024 needs a scale of 2^1025 or more, which is
        # inf, and the scaled matrix would hold inf and NaN
        stack = np.array([np.ones((2, 2), complex), np.full((2, 2), fill + 0j)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="finite and nonzero"):
                _unit_peak(stack)


class TestStrongest:
    @settings(deadline=None, max_examples=300)
    @given(factors_with_ties())
    def test_equals_argmax_of_the_dense_product(self, factors):
        x, y = factors
        lam = x @ y
        ((i, j),) = _strongest(x[None], y[None])
        assert (i, j) == strongest_entry(lam)
        assert np.array_equal(_row_products(x, y, [i]), lam[[i]])

    @settings(deadline=None, max_examples=100)
    @given(small_cascades, st.sampled_from([-400, -1, 1, 400]))
    def test_ignores_an_exact_power_of_two_on_u(self, case, k):
        m_y, m_z, n_t, p, pp, seed = case
        cfg = ArrayConfig(n_t=n_t, m_y=m_y, m_z=m_z, r=1)
        rng = np.random.default_rng(seed)
        bs_irs = sample_paths(p, 0.0, rng, with_bs_aod=True)
        irs_user = sample_paths(pp, 0.0, rng)
        ch = assemble_channels(bs_irs, irs_user, cfg)
        scaled = assemble_channels(replace(bs_irs, gains=bs_irs.gains * 2.0**k), irs_user, cfg)
        assert np.array_equal(scaled.u, ch.u * 2.0**k)
        assert scaled.strongest == ch.strongest == strongest_entry(ch.lam)

    @pytest.mark.parametrize("paths", [1, 2, 3])
    def test_acceptance_size_entries_are_rows_of_the_dense_product(self, paths):
        # the strongest entry, and the two entries BGR reads, are those of
        # the whole x @ y bit for bit, on the channels a trial samples
        cfg = ArrayConfig(n_t=128, m_y=16, m_z=16, r=8)
        rng = np.random.default_rng(60 + paths)
        for _ in range(60):
            ch = assemble_channels(
                sample_paths(paths, 13.2, rng, with_bs_aod=True), sample_paths(2, 0.0, rng), cfg
            )
            lam = ch.lam
            assert ch.strongest == strongest_entry(lam)
            i, j = rng.integers(cfg.m), rng.integers(cfg.n_t)
            for entry in (ch.strongest, (i, j)):
                assert ch.entry(*entry) == lam[entry]


def test_merged_row_construction_identity():
    """The merged J = conj(alpha) kron Sigma construction equals the direct
    unitary transform on a small on-grid instance."""
    cfg = ArrayConfig(n_t=4, m_y=2, m_z=2, r=1)
    m, n_t, p, pp = cfg.m, cfg.n_t, 1, 1
    d_r = np.kron(dft_dictionary(cfg.m_y), dft_dictionary(cfg.m_z))
    # on-grid: Sigma has one nonzero, alpha has one nonzero
    sigma = np.zeros((m, n_t), complex)
    sigma[2, 1] = 0.8 - 0.3j
    alpha = np.zeros(m, complex)
    alpha[1] = -0.5 + 0.2j
    g = np.sqrt(n_t * m / p) * d_r @ sigma @ dft_dictionary(n_t).conj().T
    h_r = np.sqrt(m / pp) * d_r @ alpha
    h = np.conj(h_r)[:, None] * g
    lam = cascade_dictionary(cfg).conj().T @ h @ dft_dictionary(n_t)

    # merged construction: rows of J summed into groups S_i defined by
    # duplicate columns of the full row-wise Khatri-Rao product
    tilde_full = np.sqrt(m) * np.einsum("ij,ik->ijk", np.conj(d_r), d_r).reshape(m, m * m)
    bar = cascade_dictionary(cfg)
    j_mat = np.sqrt(n_t * m / (p * pp)) * np.kron(
        np.conj(alpha)[:, None], sigma
    ).reshape(m * m, n_t)
    lam_merged = np.zeros((m, n_t), complex)
    for i in range(m):
        dup = np.where(
            np.all(np.abs(tilde_full - bar[:, i : i + 1]) < 1e-9, axis=0)
        )[0]
        lam_merged[i] = j_mat[dup].sum(axis=0)
    np.testing.assert_allclose(lam_merged, lam, atol=1e-9)


class TestExhaustive:
    """The exhaustive grid scan: a plan of one round of singleton bins."""

    def test_noiseless_is_exact(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            bs_irs = sample_paths(2, 13.2, rng, with_bs_aod=True)
            irs_user = sample_paths(2, 13.2, rng)
            ch = assemble_channels(bs_irs, irs_user, CFG)
            est, _ = exhaustive_scan(ch, 0.0, rng)
            assert (est.i_star, est.j_star) == ch.strongest

    def test_small_noise_high_success(self):
        cfg = ArrayConfig(n_t=4, m_y=2, m_z=2, r=1)
        rng = np.random.default_rng(33)
        hits = 0
        for _ in range(500):
            bs_irs = sample_paths(1, 13.2, rng, with_bs_aod=True)
            irs_user = sample_paths(1, 13.2, rng)
            ch = assemble_channels(bs_irs, irs_user, cfg)
            sigma = 0.01 * np.abs(ch.lam).max()
            est, _ = exhaustive_scan(ch, sigma, rng)
            hits += (est.i_star, est.j_star) == ch.strongest
        assert hits / 500 >= 0.99

    def test_extreme_noise_is_uniform_guess(self):
        cfg = ArrayConfig(n_t=4, m_y=2, m_z=2, r=1)
        rng = np.random.default_rng(37)
        lam = np.zeros((4, 4), complex)
        lam[1, 2] = 1.0
        ch = channel_from_lambda(lam, cfg)
        hits = 0
        for _ in range(4000):
            est, _ = exhaustive_scan(ch, 1e6, rng)
            hits += (est.i_star, est.j_star) == ch.strongest
        # success ~ Binomial(4000, 1/16): expect 250, allow 4 sigma
        assert abs(hits - 250) < 4 * np.sqrt(4000 * (1 / 16) * (15 / 16))


class TestNoisyMagnitude:
    @pytest.mark.parametrize("sigma", [0.0, 0.05, 3.0])
    def test_exhaustive_readings_keep_their_stream(self, sigma):
        # the grid scan's M x N_t readings, in the singleton plan's bin
        # order, draw all real parts, then all imaginary ones
        cfg = ArrayConfig(n_t=8, m_y=2, m_z=4, r=2)
        rng = np.random.default_rng(43)
        lam = rng.standard_normal((cfg.m, cfg.n_t)) + 1j * rng.standard_normal((cfg.m, cfg.n_t))
        # the plan draws first, then the noise, from the same stream
        rng = np.random.default_rng(44)
        rnd = build_scan_plan(replace(cfg, r=1), 1, 1, rng=rng).rounds[0]
        z = np.sqrt(cfg.m) * lam[np.ix_(rnd.c_design[:, 0], rnd.a_supports[:, 0])]
        want = noisy_magnitude_per_matrix(z, sigma, rng)
        est, measurements = exhaustive_scan(
            channel_from_lambda(lam, cfg), sigma, np.random.default_rng(44)
        )
        assert np.array_equal(measurements.y[0], want)
        u, v = np.unravel_index(np.argmax(want), want.shape)
        assert (est.i_star, est.j_star) == (rnd.c_design[u, 0], rnd.a_supports[v, 0])

    @settings(deadline=None, max_examples=100)
    @given(st.lists(st.integers(1, 5), min_size=2, max_size=4),
           st.floats(1e-300, 1e300), st.floats(1e-300, 1e300), st.integers(0, 2**32 - 1))
    def test_shared_draw_equals_per_matrix_noise(self, shape, sigma, other, seed):
        # the draw and the scale step of a trial's noise, against the
        # per-matrix oracle: the same values, bit for bit, from the same
        # stream, with another sigma scaled from the draw first
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want_rng, got_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        want = np.array([noisy_magnitude_per_matrix(m, sigma, want_rng)
                         for m in z.reshape(-1, *z.shape[-2:])]).reshape(z.shape)
        normals = draw_normals(z.shape, got_rng)
        kept = normals.copy()
        _noised_magnitude(z, normals, other)
        assert np.array_equal(normals, kept)
        assert np.array_equal(_noised_magnitude(z, normals, sigma), want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        # drawn into a given array, as a block draws each trial's noise
        out_rng = np.random.default_rng(seed + 1)
        out = np.empty(kept.shape)
        assert draw_normals(z.shape, out_rng, out) is out
        assert out.tobytes() == kept.tobytes()
        assert out_rng.bit_generator.state == got_rng.bit_generator.state

    @pytest.mark.parametrize("sigma", [-1.0, np.nan, np.inf])
    def test_bad_sigma_rejected(self, sigma):
        rng = np.random.default_rng(41)
        ch = channel_from_lambda(np.eye(4, dtype=complex), ArrayConfig(n_t=4, m_y=2, m_z=2, r=1))
        plan = build_scan_plan(ch.cfg, 2, 1, rng=0)
        calls = (
            lambda: synthesize_measurements(ch.lam, plan, sigma, rng),
            lambda: exhaustive_scan(ch, sigma, rng),
        )
        for call in calls:
            with pytest.raises(InvalidParameterError, match="sigma"):
                call()

    def test_noise_without_rng_rejected(self):
        ch = channel_from_lambda(np.eye(4, dtype=complex), ArrayConfig(n_t=4, m_y=2, m_z=2, r=1))
        plan = build_scan_plan(ch.cfg, 2, 1, rng=0)
        with pytest.raises(InvalidParameterError, match="rng"):
            synthesize_measurements(ch.lam, plan, 0.5)
