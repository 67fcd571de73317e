"""Array geometry, steering vectors and angular dictionaries.

All indices are 0-based. Spatial frequencies live in [-1, 1) and map to
array phase progressions of exp(j*pi*k*freq).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidDimensionError, check_field_types


@dataclass(frozen=True)
class ArrayConfig:
    """BS ULA / IRS UPA geometry and RF-chain count.

    n_t: BS antenna count (ULA)
    m_y, m_z: IRS element counts along the two UPA axes
    r: number of RF chains at the BS (beams formed simultaneously)
    spacing_ratio: element spacing over wavelength (d / lambda)
    """

    n_t: int
    m_y: int
    m_z: int
    r: int
    spacing_ratio: float = 0.5

    def __post_init__(self):
        check_field_types(self, InvalidDimensionError)
        if self.n_t < 1 or self.m_y < 1 or self.m_z < 1:
            raise InvalidDimensionError(
                f"array sizes must be >= 1, got n_t={self.n_t}, "
                f"m_y={self.m_y}, m_z={self.m_z}"
            )
        if not 1 <= self.r <= self.n_t:
            raise InvalidDimensionError(
                f"RF chain count must satisfy 1 <= r <= n_t, got r={self.r}"
            )
        if not (self.spacing_ratio > 0 and np.isfinite(self.spacing_ratio)):
            raise InvalidDimensionError("spacing_ratio must be positive and finite")

    @property
    def m(self) -> int:
        """Total IRS element count."""
        return self.m_y * self.m_z


def steering_vector(freq, n: int) -> np.ndarray:
    """Unit-norm steering vectors: entry k is exp(j*pi*k*freq) / sqrt(n).

    One frequency gives n values, an array of P frequencies an n x P
    matrix. This is the only place a steering exponent is computed.
    """
    if n < 1:
        raise InvalidDimensionError(f"steering vector length must be >= 1, got {n}")
    # this operation order keeps each column bit-identical to a 1-frequency call
    return np.exp(np.multiply.outer(1j * np.pi * np.arange(n), freq)) / np.sqrt(n)


def ula_response(angle, cfg: ArrayConfig) -> np.ndarray:
    """BS transmit responses a(2*(d/lambda)*sin(angle), n_t): n_t values,
    or n_t x P for an array of P angles."""
    return steering_vector(2.0 * cfg.spacing_ratio * np.sin(angle), cfg.n_t)


def upa_response(azimuth, elevation, cfg: ArrayConfig) -> np.ndarray:
    """IRS receive responses, the Kronecker product of two steering vectors.

    The y-axis factor carries sin(az)*sin(el), the z-axis factor cos(el).
    Arrays of P angles give M x P, one response per column (a column-wise
    Khatri-Rao product). Unit norm by construction.
    """
    fy = 2.0 * cfg.spacing_ratio * np.sin(azimuth) * np.sin(elevation)
    fz = 2.0 * cfg.spacing_ratio * np.cos(elevation)
    ay, az = steering_vector(fy, cfg.m_y), steering_vector(fz, cfg.m_z)
    return (ay[:, None] * az[None, :]).reshape(cfg.m, *np.shape(fy))


@lru_cache(maxsize=32)
def dft_dictionary(n: int) -> np.ndarray:
    """Unitary n x n dictionary whose columns sample the frequency grid.

    Column i (0-based) is steering_vector(-1 + (2i+1)/n, n).
    """
    if n < 1:
        raise InvalidDimensionError(f"dictionary size must be >= 1, got {n}")
    d = steering_vector(-1.0 + (2.0 * np.arange(n) + 1.0) / n, n)
    d.setflags(write=False)
    return d


@lru_cache(maxsize=32)
def _cascade_dictionary_cached(m_y: int, m_z: int) -> np.ndarray:
    d_r = np.kron(dft_dictionary(m_y), dft_dictionary(m_z))
    m = m_y * m_z
    # Row-wise (transposed) Khatri-Rao of conj(D_R) and D_R, first M columns.
    # Column k of the full M x M^2 product pairs conj(column 0..) with
    # column k for k < M, i.e. sqrt(M) * conj(d_0) * d_k entrywise.
    bar = np.sqrt(m) * np.conj(d_r[:, :1]) * d_r
    bar.setflags(write=False)
    return bar


def cascade_dictionary(cfg: ArrayConfig) -> np.ndarray:
    """Unitary M x M dictionary for the cascade (IRS-side) beamspace.

    First M columns of sqrt(M) * conj(D_R) row-wise-Kronecker D_R, where
    D_R = D_{m_y} kron D_{m_z}.
    """
    return _cascade_dictionary_cached(cfg.m_y, cfg.m_z)


@lru_cache(maxsize=32)
def cascade_factor_h(n: int) -> np.ndarray:
    """Conjugate transpose of sqrt(n) * conj(D_n[:, 0]) * D_n, n x n.

    The cascade dictionary is the Kronecker product of the factors of its
    two axes, barD = F_{m_y} kron F_{m_z}, so barD^H applies as two small
    products, one per axis, without building barD.
    """
    d = dft_dictionary(n)
    f_h = (np.sqrt(n) * np.conj(d[:, :1]) * d).conj().T.copy()
    f_h.setflags(write=False)
    return f_h
