"""Channels built directly from a beamspace matrix, for planted-support
studies, the exhaustive grid scan as a scan with singleton bins, the
dense beamspace coefficients of ideal-sparse beams, the per-beam
effective support of a constant-modulus beam, round-by-round noisy
readings, readings summed bin member by bin member, and the full-grid
decode the bound decode must equal."""

from dataclasses import replace

import numpy as np

from irsbeam.arrays import ArrayConfig, cascade_dictionary, dft_dictionary
from irsbeam.channel import AlignmentEstimate, CascadeChannel
from irsbeam.codebook import IDEAL_SPARSE, build_scan_plan
from irsbeam.decoder import decode_los, rayleigh_threshold, synthesize_measurements


def channel_from_lambda(lam: np.ndarray, cfg: ArrayConfig) -> CascadeChannel:
    """The cascade channel whose beamspace image is `lam`: factors
    u = barD lam and b = D, so h = barD lam D^H, and lam = lam I."""
    u = cascade_dictionary(cfg) @ lam
    b = dft_dictionary(cfg.n_t)
    i, j = np.unravel_index(int(np.argmax(np.abs(lam))), lam.shape)
    return CascadeChannel(
        h=u @ b.conj().T, lam=lam, strongest=(int(i), int(j)),
        x=lam, y=np.eye(cfg.n_t, dtype=complex), u=u, b=b, cfg=cfg,
    )


def exhaustive(cfg):
    """The exhaustive grid scan of cfg: one round of singleton bins."""
    return replace(cfg, q=1, l=1, mode=IDEAL_SPARSE, array=replace(cfg.array, r=1))


def exhaustive_scan(ch: CascadeChannel, sigma: float, rng, decode=decode_los):
    """Measure every grid pair of ch once, as a trial of the exhaustive
    config does: a singleton plan, its readings, and the decode at the
    trial's threshold. Returns (estimate, measurements)."""
    plan = build_scan_plan(replace(ch.cfg, r=1), 1, 1, rng=rng)
    measurements = synthesize_measurements((ch.x, ch.y), plan, sigma, rng)
    if sigma > 0:
        epsilon = rayleigh_threshold(sigma)
    else:
        epsilon = 1e-9 * float(measurements.y.max())
    return decode(measurements, plan, epsilon), measurements


def sparse_amplitudes(n: int, supports: np.ndarray, amp: float) -> np.ndarray:
    """Dense n x len(supports) beamspace coefficients: column k holds amp
    on the rows supports[k] and 0 elsewhere. An ideal-sparse round's beams
    are the dictionaries times these: barD @ (c_design, sqrt(M/q)) and
    D @ (a_supports, 1/sqrt(R))."""
    mat = np.zeros((n, len(supports)), dtype=complex)
    mat[supports, np.arange(len(supports))[:, None]] = amp
    return mat


def effective_support(v: np.ndarray, q: int, bar_d: np.ndarray) -> np.ndarray:
    """Indices of the q largest |barD_R^H v| entries, lowest index on ties:
    the support of one beam, computed from that beam alone."""
    c = np.abs(bar_d.conj().T @ v)
    # stable sort on (-magnitude, index) gives lowest-index tie-breaks
    order = np.argsort(-c, kind="stable")
    return np.sort(order[:q])


def noisy_magnitude_per_matrix(z: np.ndarray, sigma: float, rng) -> np.ndarray:
    """|z + N| for one matrix z: all real parts drawn, then all imaginary."""
    if sigma > 0:
        z = z + (
            rng.standard_normal(z.shape) + 1j * rng.standard_normal(z.shape)
        ) * sigma / np.sqrt(2.0)
    return np.abs(z)


def round_readings(lam: np.ndarray, rnd) -> np.ndarray:
    """One round's noiseless readings of a dense lam, U x V, as bin sums:
    each IRS bin's rows of lam summed (times sqrt(M/q)), or a
    constant-modulus beam's image times lam, then each precoder's columns
    summed, all over sqrt(R)."""
    (u, q), (v, r) = rnd.c_design.shape, rnd.a_supports.shape
    scale = 1.0 / np.sqrt(r)
    if rnd.cm_beams is None:
        rows = lam.take(rnd.c_design.ravel(), axis=0).reshape(u, q, -1).sum(axis=1)
        scale *= np.sqrt(rnd.cfg.m / q)
    else:
        rows = (cascade_dictionary(rnd.cfg).conj().T @ rnd.cm_beams).conj().T @ lam
    z = rows.take(rnd.a_supports.T.ravel(), axis=1).reshape(u, r, v).sum(axis=1)
    z *= scale
    return z


def sequential_readings(x: np.ndarray, y: np.ndarray, plan) -> np.ndarray:
    """The noiseless readings of every round, L x U x V, of lam = x @ y
    with every bin summed one member at a time from its first: the rows of
    x in each design set (ideal-sparse) and the columns of y in each
    precoder support. A constant-modulus beam reads (barD^H v)^H x. The P
    outer products are added from path 0, then scaled, with the array
    operations of the readings under test, so the two agree bit for bit
    exactly when they sum in the same order."""
    scale = 1.0 / np.sqrt(plan.a_supports.shape[2])
    if plan.mode == IDEAL_SPARSE:
        rows = x[plan.c_design[..., 0]]
        for k in range(1, plan.q):
            rows = rows + x[plan.c_design[..., k]]
        scale *= np.sqrt(plan.cfg.m / plan.q)
    else:
        bar_h = cascade_dictionary(plan.cfg).conj().T
        rows = np.stack([(bar_h @ beams).conj().T @ x for beams in plan.cm_beams])
    cols = y.T[plan.a_supports[..., 0]]
    for k in range(1, plan.a_supports.shape[2]):
        cols = cols + y.T[plan.a_supports[..., k]]
    z = rows[..., :1] * cols[:, None, :, 0]
    for p in range(1, x.shape[1]):
        z = z + rows[..., p:p + 1] * cols[:, None, :, p]
    return z * scale


def readings_per_round(lam: np.ndarray, plan, sigma: float, rng) -> list[np.ndarray]:
    """The noisy readings of each round in turn, each drawing its own noise:
    the values and random stream the stacked synthesis must keep."""
    return [
        noisy_magnitude_per_matrix(round_readings(lam, rnd), sigma, rng)
        for rnd in plan.rounds
    ]


def grid_decode(measurements, plan, epsilon: float, nm_rounds=None) -> AlignmentEstimate:
    """The probability-product decode over an M x N_t score grid: each of
    the rounds (all, or the NM rounds) adds its gathered log readings to
    the grid and ORs its gate into the candidate mask, in round order.
    Non-candidates score -inf, the argmax takes the lowest row, then
    column, a best score of -inf falls back to the first candidate, and
    with no candidate the decode reruns at epsilon 0 over every round."""
    with np.errstate(divide="ignore"):
        log_y = np.log(measurements.y)
    gate = measurements.y >= epsilon
    shape = (plan.cfg.m, plan.cfg.n_t)
    score, mask = np.zeros(shape), np.zeros(shape, dtype=bool)
    for l in range(plan.l) if nm_rounds is None else nm_rounds:
        rnd = plan.rounds[l]
        score += log_y[l][np.ix_(rnd.row_bin, rnd.col_bin)]
        mask |= gate[l][np.ix_(rnd.row_bin, rnd.col_bin)]
    n_candidates = int(np.count_nonzero(mask))
    if n_candidates == 0:
        every = None if nm_rounds is None else tuple(range(plan.l))
        return grid_decode(measurements, plan, 0.0, every)
    score[~mask] = -np.inf
    best = int(np.argmax(score))
    if score.flat[best] == -np.inf:
        best = int(np.argmax(mask))
    i, j = np.unravel_index(best, shape)
    return AlignmentEstimate(
        i_star=int(i), j_star=int(j), candidate_count=n_candidates,
        nm_rounds=nm_rounds, detector_threshold=epsilon,
    )


def grid_nm_rounds(measurements, epsilon: float) -> tuple[int, ...]:
    """The rounds with the fewest nulltons (readings y < epsilon)."""
    counts = [int(np.count_nonzero(y < epsilon)) for y in measurements.y]
    return tuple(l for l, c in enumerate(counts) if c == min(counts))
