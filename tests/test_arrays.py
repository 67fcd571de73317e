import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsbeam.arrays import (
    ArrayConfig,
    cascade_dictionary,
    cascade_factor_h,
    dft_dictionary,
    steering_vector,
    ula_response,
    upa_response,
)
from irsbeam.errors import InvalidParameterError


def test_steering_zero_freq_is_constant():
    np.testing.assert_allclose(steering_vector(0.0, 4), 0.5 * np.ones(4))


def test_steering_freq_one():
    np.testing.assert_allclose(
        steering_vector(1.0, 2), np.array([1, -1]) / np.sqrt(2), atol=1e-15
    )


def test_steering_dft_column_orthogonality():
    a = steering_vector(0.25, 8)
    b = steering_vector(0.25 + 2 / 8, 8)
    assert abs(np.vdot(a, b)) < 1e-14


def test_steering_rejects_empty():
    with pytest.raises(InvalidParameterError):
        steering_vector(0.0, 0)


@given(st.floats(-1, 1, allow_nan=False), st.integers(1, 64))
def test_steering_unit_norm(freq, n):
    assert np.linalg.norm(steering_vector(freq, n)) == pytest.approx(1.0)


def test_ula_broadside():
    cfg = ArrayConfig(n_t=4, m_y=1, m_z=1, r=1)
    np.testing.assert_allclose(ula_response(0.0, cfg), 0.5 * np.ones(4))


def test_ula_endfire():
    cfg = ArrayConfig(n_t=2, m_y=1, m_z=1, r=1)
    np.testing.assert_allclose(ula_response(np.pi / 2, cfg), steering_vector(1.0, 2))


def test_ula_thirty_degrees():
    cfg = ArrayConfig(n_t=8, m_y=1, m_z=1, r=1)
    np.testing.assert_allclose(
        ula_response(np.pi / 6, cfg), steering_vector(0.5, 8), atol=1e-14
    )


def test_upa_horizon_elevation_gives_constant_z_factor():
    cfg = ArrayConfig(n_t=1, m_y=2, m_z=2, r=1)
    got = upa_response(0.7, np.pi / 2, cfg)
    expect = np.kron(
        steering_vector(np.sin(0.7), 2), steering_vector(0.0, 2)
    )
    np.testing.assert_allclose(got, expect, atol=1e-14)


def test_upa_boresight_constant():
    cfg = ArrayConfig(n_t=1, m_y=2, m_z=2, r=1)
    np.testing.assert_allclose(upa_response(0.0, np.pi / 2, cfg), 0.5 * np.ones(4),
                               atol=1e-14)


def test_upa_unit_norm():
    cfg = ArrayConfig(n_t=1, m_y=4, m_z=4, r=1)
    assert np.linalg.norm(upa_response(np.pi / 4, np.pi / 3, cfg)) == pytest.approx(
        1.0, abs=1e-12
    )


def test_dft_dictionary_trivial():
    np.testing.assert_allclose(dft_dictionary(1), [[1.0]])


def test_dft_dictionary_small_grid():
    d = dft_dictionary(4)
    for i, freq in enumerate([-3 / 4, -1 / 4, 1 / 4, 3 / 4]):
        np.testing.assert_allclose(d[:, i], steering_vector(freq, 4))
    np.testing.assert_allclose(d.conj().T @ d, np.eye(4), atol=1e-14)


def test_dft_dictionary_unitary_large():
    d = dft_dictionary(128)
    assert np.abs(d.conj().T @ d - np.eye(128)).max() < 1e-10


def test_cascade_dictionary_trivial():
    cfg = ArrayConfig(n_t=1, m_y=1, m_z=1, r=1)
    np.testing.assert_allclose(cascade_dictionary(cfg), [[1.0]])


def test_cascade_dictionary_first_columns_distinct_rest_duplicates():
    cfg = ArrayConfig(n_t=1, m_y=2, m_z=2, r=1)
    d_r = np.kron(dft_dictionary(2), dft_dictionary(2))
    # row-wise Kronecker product: row i is kron(conj(d_r[i]), d_r[i])
    tilde = 2.0 * np.einsum("ij,ik->ijk", np.conj(d_r), d_r).reshape(4, 16)  # sqrt(M) = 2
    assert tilde.shape == (4, 16)
    bar = cascade_dictionary(cfg)
    np.testing.assert_allclose(bar, tilde[:, :4], atol=1e-14)

    def col_key(c):
        return tuple(np.round(c.real, 9)) + tuple(np.round(c.imag, 9))

    first = [col_key(tilde[:, k]) for k in range(4)]
    assert len(set(first)) == 4
    for k in range(4, 16):
        assert col_key(tilde[:, k]) in set(first)
    np.testing.assert_allclose(bar.conj().T @ bar, np.eye(4), atol=1e-12)


def test_cascade_dictionary_unitary_large():
    cfg = ArrayConfig(n_t=1, m_y=16, m_z=16, r=1)
    bar = cascade_dictionary(cfg)
    assert np.abs(bar.conj().T @ bar - np.eye(256)).max() < 1e-9


def test_cascade_columns_are_kron_of_steering_vectors():
    cfg = ArrayConfig(n_t=1, m_y=4, m_z=2, r=1)
    bar = cascade_dictionary(cfg)
    # every column must factor as a(phi, m_y) kron a(pi_, m_z): check the
    # per-entry modulus 1/sqrt(M) and the rank-1 reshape criterion
    m = cfg.m
    assert np.allclose(np.abs(bar), 1 / np.sqrt(m))
    for k in range(m):
        block = bar[:, k].reshape(cfg.m_y, cfg.m_z)
        s = np.linalg.svd(block, compute_uv=False)
        assert s[1] < 1e-12


@settings(deadline=None, max_examples=20)
@given(st.sampled_from([1, 2, 3, 4, 8]), st.sampled_from([1, 2, 3, 4, 8]))
def test_cascade_dictionary_unitary_property(m_y, m_z):
    cfg = ArrayConfig(n_t=1, m_y=m_y, m_z=m_z, r=1)
    bar = cascade_dictionary(cfg)
    assert np.abs(bar.conj().T @ bar - np.eye(cfg.m)).max() < 1e-10


@settings(deadline=None, max_examples=20)
@given(st.sampled_from([1, 2, 3, 4, 8]), st.sampled_from([1, 2, 3, 4, 8]))
def test_cascade_dictionary_is_kron_of_axis_factors(m_y, m_z):
    cfg = ArrayConfig(n_t=1, m_y=m_y, m_z=m_z, r=1)
    kron_h = np.kron(cascade_factor_h(m_y), cascade_factor_h(m_z))
    assert np.abs(kron_h - cascade_dictionary(cfg).conj().T).max() < 1e-14


def test_array_config_validation():
    with pytest.raises(InvalidParameterError):
        ArrayConfig(n_t=0, m_y=1, m_z=1, r=1)
    with pytest.raises(InvalidParameterError):
        ArrayConfig(n_t=4, m_y=1, m_z=1, r=5)
    with pytest.raises(InvalidParameterError):
        ArrayConfig(n_t=4, m_y=1, m_z=1, r=1, spacing_ratio=0.0)


@pytest.mark.parametrize("spacing", [float("nan"), float("inf")])
def test_array_config_rejects_non_finite_spacing(spacing):
    # a NaN or infinite spacing gives NaN steering vectors, and every trial
    # on them fails in the decoder
    with pytest.raises(InvalidParameterError, match="spacing_ratio"):
        ArrayConfig(n_t=4, m_y=1, m_z=1, r=1, spacing_ratio=spacing)
