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
from .errors import InvalidParameterError

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
            raise InvalidParameterError("angle arrays must match gain count")
        if self.bs_aod is not None and len(self.bs_aod) != n:
            raise InvalidParameterError("bs_aod must match gain count")


@dataclass(frozen=True)
class CascadeChannel:
    """Cascade channel H = diag(h_r^H) G from its rank-P factors.

    `u` (M x P) and `b` (N_t x P) are the factors of h = u b^H; the
    full-CSI reference beams are computed from them. `x` = barD^H u
    (M x P) and `y` = b^H D (P x N_t) are the factors of the unitary
    beamspace image lam = x y, from which a scan reads its rounds.
    `strongest` is the 0-based (row, col) index of the largest |lam|
    entry, ties broken by lowest row then lowest column. `h` and `lam`
    are M x N_t and formed on read: a trial reads `h` only to set an SNR
    and never reads `lam`; the benchmark's replay and tests read both.
    """

    strongest: tuple[int, int]
    x: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    cfg: ArrayConfig = field(repr=False)

    @property
    def h(self) -> np.ndarray:
        return self.u @ self.b.conj().T

    @property
    def lam(self) -> np.ndarray:
        return self.x @ self.y

    def entry(self, i: int, j: int) -> complex:
        """lam[i, j], from a row product that rounds as x @ y does."""
        return _row_products(self.x, self.y, [i])[0, j]


@dataclass(frozen=True)
class AlignmentEstimate:
    """Estimated strongest index with decoder diagnostics (0-based)."""

    i_star: int
    j_star: int
    candidate_count: int
    nm_rounds: tuple[int, ...] | None
    detector_threshold: float


def _argmax_2d(a: np.ndarray) -> tuple[int, int]:
    # argmax scans C-order, which is exactly lowest-row-then-column.
    return divmod(int(a.argmax()), a.shape[1])


def _row_products(x: np.ndarray, y: np.ndarray, rows) -> np.ndarray:
    """Rows `rows` of x @ y, rounded as the whole product rounds them.
    OpenBLAS passes a one-row product to its matrix-vector kernel, whose
    sums round differently at some P, so unless x has one row the first
    row is read twice."""
    if x.shape[0] == 1:
        return x[rows] @ y
    return (x[[*rows, rows[0]]] @ y)[:-1]


def _strongest(x: np.ndarray, y: np.ndarray) -> list[tuple[int, int]]:
    """For each of B factor pairs (x B x M x P, y B x P x N_t), the
    (row, col) np.argmax(np.abs(x @ y)) gives, lowest row then column on
    ties, from a few rows of x @ y.

    x and y are first scaled to unit peak by exact powers of two, which
    scales every product exactly and keeps it normal at any channel
    scale. Row i is bounded by b_i = |x_i| @ max_j |y_:,j|. The row
    products (_row_products) are taken of the highest-bound row, whose
    largest magnitude is s, then of every row, in ascending order, with
    b_i >= s (1 - delta), and the argmax is taken over those rows. The
    scaling and the bounds are stacked over the pairs; each pair's rows
    are its own.

    delta = (4P + 8) u, u = 2^-53, covers the rounding, so no skipped row
    holds an entry that reaches s. Each part of an entry is a sum of 2P
    real products, so in any order, fused or not, the entry is off by at
    most sqrt(2) gamma_2P sum_p |x_ip| |y_pj| <= sqrt(2) gamma_2P b_i
    (gamma_n = n u / (1 - n u)), and its magnitude (hypot, within an
    ulp) by 2u more. The computed b_i, a P-term sum of magnitudes within 2u each,
    is at least (1 - 2u)^2 (1 - gamma_P) b_i, and s (1 - delta) rounds
    once. A skipped row's entries then stay below s once delta exceeds
    (7 + (2 sqrt(2) + 1) P) u plus terms of order P^2 u^2.
    """
    ax, ay = np.abs(x), np.abs(y).max(axis=2)
    sx = np.ldexp(1.0, -np.frexp(ax.max(axis=(1, 2)))[1])[:, None, None]
    sy = np.ldexp(1.0, -np.frexp(ay.max(axis=1))[1])[:, None]
    x, y = x * sx, y * sy[..., None]
    bounds = ((ax * sx) @ (ay * sy)[..., None])[..., 0]
    slack = 1.0 - (4 * x.shape[2] + 8) * 2.0**-53
    found = []
    for xk, yk, bound, top in zip(x, y, bounds, bounds.argmax(axis=1).tolist()):
        mags = np.abs(_row_products(xk, yk, [top]))
        rows = (bound >= mags.max() * slack).nonzero()[0]
        if rows.tolist() != [top]:  # the top row alone is kept in most channels
            mags = np.abs(_row_products(xk, yk, rows))
        i, j = _argmax_2d(mags)
        found.append((int(rows[i]), j))
    return found


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
        raise InvalidParameterError("path_count must be >= 1")
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
    nor read, and the strongest entry from a few rows of lam
    (_strongest), so no M x N_t matrix is formed. This is the block of
    one of _assemble.
    """
    return _assemble([(bs_irs, irs_user)], cfg)[0][0]


def _assemble(pairs: list[tuple[PathSet, PathSet]], cfg: ArrayConfig):
    """The channels of B trials' (BS-IRS, IRS-user) path sets, all with
    the path counts of the first pair, and the stacks their factors are
    slices of: (channels, (x, y, u, b)), x B x M x P, y B x P x N_t,
    u B x M x P and b B x N_t x P.

    Every stage is one call over the block: one IRS response call over
    each trial's angles of both links, one BS response call, and stacked
    products whose every slice is the product a trial of its own takes,
    in the same layout, so a channel does not depend on its block.
    """
    if any(bs.bs_aod is None for bs, _ in pairs):
        raise InvalidParameterError("BS-IRS path set needs BS departure angles")
    m, m_y, m_z, n_t = cfg.m, cfg.m_y, cfg.m_z, cfg.n_t
    p, n_irs = len(pairs[0][0].gains), len(pairs[0][0].gains) + len(pairs[0][1].gains)
    # per trial: the IRS azimuths of both links, their elevations, the BS AoDs
    angles = np.concatenate([a for bs, iu in pairs for a in (
        bs.azimuth, iu.azimuth, bs.elevation, iu.elevation, bs.bs_aod)]).reshape(len(pairs), -1)
    gains = np.concatenate([g for bs, iu in pairs for g in (bs.gains, iu.gains)]).reshape(len(pairs), -1)
    irs = upa_response(angles[:, :n_irs], angles[:, n_irs:2 * n_irs], cfg).transpose(1, 0, 2)
    h_r = (irs[..., p:] @ gains[:, p:, None])[..., 0]
    h_r *= np.sqrt(m / (n_irs - p))
    u = np.conj(h_r)[..., None] * irs[..., :p] * gains[:, None, :p] * np.sqrt(n_t * m / p)
    # each trial's b in the layout of its own response, for the products that read it
    b = np.ascontiguousarray(ula_response(angles[:, 2 * n_irs:], cfg).transpose(1, 0, 2))
    # barD^H = F_{m_y}^H kron F_{m_z}^H acts on each path's column of u,
    # laid out m_y x m_z, as F_{m_y}^H W F_{m_z}^H^T
    w = u.transpose(0, 2, 1).reshape(-1, p, m_y, m_z)
    x = (cascade_factor_h(m_y) @ w @ cascade_factor_h(m_z).T).reshape(-1, p, m).transpose(0, 2, 1)
    y = b.conj().transpose(0, 2, 1) @ dft_dictionary(n_t)
    channels = [CascadeChannel(strongest=s, x=x[k], y=y[k], u=u[k], b=b[k], cfg=cfg)
                for k, s in enumerate(_strongest(x, y))]
    return channels, (x, y, u, b)


def draw_normals(shape: tuple[int, ...], rng: np.random.Generator,
                 out: np.ndarray | None = None) -> np.ndarray:
    """The noise draw for readings of `shape`, a matrix or a stack of
    matrices: per matrix its real parts, then its imaginary parts, on an
    axis of 2, so a stack draws the stream its matrices would draw one by
    one. Drawn into `out`, a C-contiguous float array of that shape, when
    given."""
    return rng.standard_normal(shape[:-2] + (2,) + shape[-2:], out=out)


def _noised_magnitude(z: np.ndarray, normals: np.ndarray, sigma: float) -> np.ndarray:
    """|z + N|, N circular complex Gaussian of variance sigma**2 per entry:
    sigma (re + 1j im) / sqrt(2) of draw_normals' `normals`, scaled into a
    new array, so the same draw can noise z at another sigma."""
    # the roundings of complex (re + 1j im) * sigma / sqrt(2): numpy
    # divides a complex by a real through the real's reciprocal
    noise = normals * sigma
    noise *= 1.0 / np.sqrt(2.0)
    return np.abs(z + (noise[..., 0, :, :] + 1j * noise[..., 1, :, :]))

