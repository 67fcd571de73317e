"""Geometric cascade channels, their beamspace images and noisy readings."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arrays import (
    ArrayConfig,
    cascade_factor_h,
    dft_dictionary,
    ula_response,
    upa_response,
)
from .errors import InvalidDimensionError, InvalidParameterError

# Angle sectors used when sampling path geometry: azimuth away from
# endfire, elevation away from the UPA poles.
AZIMUTH_SECTOR = (-np.pi / 3, np.pi / 3)
ELEVATION_SECTOR = (np.pi / 3, 2 * np.pi / 3)


@dataclass(frozen=True)
class PathSet:
    """Complex gains and angles of one link's propagation paths.

    For the BS-IRS link the IRS-side angles are AoAs and `bs_aod` holds the
    BS-side departure angles. For the IRS-user link the IRS-side angles are
    AoDs and `bs_aod` is None.
    """

    gains: np.ndarray
    azimuth: np.ndarray
    elevation: np.ndarray
    bs_aod: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.gains)
        if len(self.azimuth) != n or len(self.elevation) != n:
            raise InvalidDimensionError("angle arrays must match gain count")
        if self.bs_aod is not None and len(self.bs_aod) != n:
            raise InvalidDimensionError("bs_aod must match gain count")

    @property
    def path_count(self) -> int:
        return len(self.gains)


@dataclass(frozen=True)
class CascadeChannel:
    """Cascade channel H = diag(h_r^H) G with its beamspace image.

    `u` (M x P) and `b` (N_t x P) are the rank-P factors, h = u b^H; the
    full-CSI reference beams are computed from them. `lam` is the unitary
    beamspace transform of `h`, and `x` = barD^H u (M x P) and
    `y` = b^H D (P x N_t) are its factors, lam = x y, from which a scan
    reads its rounds. `strongest` is the 0-based (row, col) index of the
    largest |lam| entry, ties broken by lowest row then lowest column.
    """

    h: np.ndarray
    lam: np.ndarray
    strongest: tuple[int, int]
    x: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    cfg: ArrayConfig = field(repr=False)


@dataclass(frozen=True)
class AlignmentEstimate:
    """Estimated strongest index with decoder diagnostics (0-based)."""

    i_star: int
    j_star: int
    candidate_count: int
    nm_rounds: tuple[int, ...] | None
    detector_threshold: float


def _argmax_2d(a: np.ndarray) -> tuple[int, int]:
    # np.argmax scans C-order, which is exactly lowest-row-then-column.
    i, j = np.unravel_index(int(np.argmax(a)), a.shape)
    return int(i), int(j)


def db_to_power(db: float, name: str) -> float:
    """The power ratio 10^(db/10) of a dB value. InvalidParameterError
    unless it is a positive finite float: db finite and in about
    (-3240, 3082.5] dB, outside which the ratio rounds to 0 or overflows."""
    try:
        power = 10.0 ** (float(db) / 10.0)
    except OverflowError:
        power = np.inf
    if not 0 < power < np.inf:
        raise InvalidParameterError(f"{name} must be the dB of a finite positive power, got {db}")
    return power


def sample_paths(
    path_count: int,
    rician_db: float,
    rng: np.random.Generator,
    with_bs_aod: bool = False,
) -> PathSet:
    """Draw Rician path gains and uniform off-grid angles.

    Total small-scale path power is 1: the LOS path carries kappa/(kappa+1)
    with a uniformly random phase; each of the path_count-1 NLOS gains is
    circular complex Gaussian with power (1/(kappa+1))/(path_count-1).
    """
    if path_count < 1:
        raise InvalidDimensionError("path_count must be >= 1")
    kappa = db_to_power(rician_db, "rician_db")
    gains = np.empty(path_count, dtype=complex)
    if path_count == 1:
        los_power = 1.0
    else:
        los_power = kappa / (kappa + 1.0)
        nlos_power = (1.0 / (kappa + 1.0)) / (path_count - 1)
        re, im = rng.standard_normal((2, path_count - 1))
        gains[1:] = np.sqrt(nlos_power / 2.0) * (re + 1j * im)
    gains[0] = np.sqrt(los_power) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    az = rng.uniform(*AZIMUTH_SECTOR, size=path_count)
    el = rng.uniform(*ELEVATION_SECTOR, size=path_count)
    aod = rng.uniform(*AZIMUTH_SECTOR, size=path_count) if with_bs_aod else None
    return PathSet(gains=gains, azimuth=az, elevation=el, bs_aod=aod)


def assemble_channels(
    bs_irs: PathSet, irs_user: PathSet, cfg: ArrayConfig
) -> CascadeChannel:
    """Cascade channel h = diag(conj(h_r)) G from its rank-P path factors.

    G = sqrt(N_t*M/P) sum_p g_p a_p b_p^H, so h = U B^H with U (M x P) the
    IRS responses times the gains, the scale and conj(h_r), and B
    (N_t x P) the BS responses; likewise lam = X Y with X = barD^H U and
    Y = B^H D, both kept on the channel. X is taken through barD's
    Kronecker factors, so the M x M cascade dictionary is neither built
    nor read.
    """
    if bs_irs.bs_aod is None:
        raise InvalidDimensionError("BS-IRS path set needs BS departure angles")
    m, m_y, m_z, n_t = cfg.m, cfg.m_y, cfg.m_z, cfg.n_t
    h_r = upa_response(irs_user.azimuth, irs_user.elevation, cfg) @ irs_user.gains
    h_r *= np.sqrt(m / irs_user.path_count)
    u = (
        np.conj(h_r)[:, None]
        * upa_response(bs_irs.azimuth, bs_irs.elevation, cfg)
        * bs_irs.gains
        * np.sqrt(n_t * m / bs_irs.path_count)
    )
    b = ula_response(bs_irs.bs_aod, cfg)
    b_h = b.conj().T
    # barD^H = F_{m_y}^H kron F_{m_z}^H acts on each path's column of u,
    # laid out m_y x m_z, as F_{m_y}^H W F_{m_z}^H^T
    w = u.T.reshape(-1, m_y, m_z)
    x = (cascade_factor_h(m_y) @ w @ cascade_factor_h(m_z).T).reshape(-1, m).T
    y = b_h @ dft_dictionary(n_t)
    lam = x @ y
    return CascadeChannel(
        h=u @ b_h, lam=lam, strongest=_argmax_2d(np.abs(lam)),
        x=x, y=y, u=u, b=b, cfg=cfg,
    )


def noisy_magnitude(
    z: np.ndarray, sigma: float, rng: np.random.Generator | None
) -> np.ndarray:
    """|z + N| with N circular complex Gaussian of variance sigma**2 per
    entry; |z| when sigma is 0.

    z is a matrix or a stack of matrices. Each matrix in turn draws its
    real parts, then its imaginary parts, so a stack draws the stream
    that its matrices would draw one by one.
    """
    if not 0 <= sigma < np.inf:
        raise InvalidParameterError(f"sigma must be finite and >= 0, got {sigma}")
    if sigma > 0:
        if rng is None:
            raise InvalidParameterError("sigma > 0 needs an rng to draw the noise")
        noise = rng.standard_normal(z.shape[:-2] + (2,) + z.shape[-2:])
        # the roundings of complex (re + 1j im) * sigma / sqrt(2): numpy
        # divides a complex by a real through the real's reciprocal
        noise *= sigma
        noise *= 1.0 / np.sqrt(2.0)
        z = z + (noise[..., 0, :, :] + 1j * noise[..., 1, :, :])
    return np.abs(z)

