"""Strongest-path recovery from phaseless bin measurements.

One probability-product decoder scores every beamspace entry by the
product of its bins' squared measurements over a set of rounds: all
rounds for LOS channels, only the no-multiton (NM) rounds for NLOS
channels. A decode in which no entry clears the detector gate returns
the same decoder's result at threshold 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import cascade_dictionary
from .channel import AlignmentEstimate, noisy_magnitude
from .codebook import IDEAL_SPARSE, ScanPlan
from .errors import InvalidDimensionError, InvalidParameterError


@dataclass(frozen=True)
class MeasurementSet:
    """L finite, nonnegative U x V matrices, one per scanning round.

    `y` is given as a sequence of U x V matrices or as one L x U x V
    array, and kept as that array; it iterates and indexes by round.
    """

    y: np.ndarray
    plan: ScanPlan

    def __post_init__(self):
        plan = self.plan
        if not plan.rounds or len(self.y) != plan.l:
            raise InvalidDimensionError("a non-empty plan and one matrix per round required")
        rnd = plan.rounds[0]
        if any(np.shape(y_l) != (rnd.u, rnd.v) for y_l in self.y):
            raise InvalidDimensionError(f"round matrix must be {rnd.u} x {rnd.v}")
        y = np.asarray(self.y, dtype=float)
        # a NaN fails both comparisons
        if not (y.min() >= 0 and y.max() < np.inf):
            raise InvalidParameterError("measurements must be finite and nonnegative")
        object.__setattr__(self, "y", y)


def _round_readings(x: np.ndarray, y: np.ndarray, plan: ScanPlan) -> np.ndarray:
    """The noiseless readings of every round of the plan, L x U x V, of
    Lambda = X Y with X M x P and Y P x N_t.

    Each round's rows C^H X: an ideal-sparse row bin sums the rows of X in
    its design set, scaled by sqrt(M/q); a constant-modulus beam v reads
    (barD^H v)^H X. Each precoder sums the columns of Y in its support,
    scaled by 1/sqrt(R), for all rounds in one gather. The U x P rows times
    those P x V sums is a sum of P outer products; nothing of size
    M x N_t is made.
    """
    if not plan.rounds:
        raise InvalidDimensionError("a plan with at least one round required")
    rounds, n = plan.rounds, plan.l
    (u, q), (v, r) = rounds[0].c_design.shape, rounds[0].a_supports.shape
    scale = 1.0 / np.sqrt(r)
    if plan.mode == IDEAL_SPARSE:
        design = np.stack([rnd.c_design for rnd in rounds])  # L x U x q
        rows = x.take(design.ravel(), axis=0).reshape(n, u, q, -1).sum(axis=2)
        scale *= np.sqrt(plan.cfg.m / q)
    else:
        # the image encode_round bins by; another product order moves the low bits
        bar_h = cascade_dictionary(plan.cfg).conj().T
        rows = np.stack([(bar_h @ rnd.cm_beams).conj().T @ x for rnd in rounds])
    cols = np.stack([rnd.a_supports.T for rnd in rounds])  # L x R x V
    y_bins = y.take(cols.ravel(), axis=1).reshape(-1, n, r, v).sum(axis=2)
    z = rows[..., :1] * y_bins[0, :, None]
    for p in range(1, len(y_bins)):
        z += rows[..., p:p + 1] * y_bins[p, :, None]
    z *= scale
    return z


def synthesize_measurements(
    lam: np.ndarray | tuple[np.ndarray, np.ndarray],
    plan: ScanPlan,
    sigma: float,
    rng: np.random.Generator | None = None,
) -> MeasurementSet:
    """Y_l = |C_l^H Lambda A_l + N_l| for every round of the plan.

    C_l = barD^H v_beams and A_l = D^H f_beams are the beams' beamspace
    images. `lam` is Lambda's rank-P factor pair (X, Y), Lambda = X Y, as
    `CascadeChannel.x` and `.y`, or Lambda (M x N_t) itself, read as the
    pair (Lambda, I). The noiseless readings are bin sums, not matrix
    products: X's rows times Y's columns, (C_l^H X)(Y A_l). They form one
    L x U x V stack, noised in one draw, round by round.
    """
    x, y = lam if isinstance(lam, tuple) else (lam, np.eye(lam.shape[1]))
    return MeasurementSet(y=noisy_magnitude(_round_readings(x, y, plan), sigma, rng), plan=plan)


def _decode(
    measurements: MeasurementSet,
    plan: ScanPlan,
    epsilon: float,
    nm_rounds: tuple[int, ...] | None = None,
) -> AlignmentEstimate:
    """Probability-product decoding over the NM rounds (None: every round).

    Candidates are the entries with a bin reading y >= epsilon in at least
    one of those rounds, the magnitude test the NM count uses. Among them
    the product of squared scores is maximized through the sum of log
    magnitudes, which neither underflows nor overflows. A candidate whose
    product is 0 (log -inf) still beats every non-candidate; ties go to
    the lowest row, then column.

    With no candidate the result is the decode at epsilon 0 over every
    round (every entry a candidate; for NLOS every round NM), not over the
    NM rounds: a constant-modulus bin may own no rows, so an empty
    candidate set does not imply that every round was selected.
    """
    if plan is not measurements.plan:
        raise InvalidParameterError("decode with the plan the measurements were taken with")
    with np.errstate(divide="ignore"):
        log_y = np.log(measurements.y)
    gate = measurements.y >= epsilon
    shape = (plan.cfg.m, plan.cfg.n_t)
    score, mask = np.zeros(shape), np.zeros(shape, dtype=bool)
    log_buf, gate_buf = np.empty(shape), np.empty(shape, dtype=bool)
    for l in range(plan.l) if nm_rounds is None else nm_rounds:
        rnd = plan.rounds[l]
        # gather columns (U x N_t), then whole rows into the reused M x N_t
        # buffers; mode="clip" writes straight into them (bins are in range)
        log_y[l].take(rnd.col_bin, axis=1).take(rnd.row_bin, axis=0, out=log_buf, mode="clip")
        gate[l].take(rnd.col_bin, axis=1).take(rnd.row_bin, axis=0, out=gate_buf, mode="clip")
        score += log_buf
        mask |= gate_buf
    n_candidates = int(np.count_nonzero(mask))
    if n_candidates == 0:
        every = None if nm_rounds is None else tuple(range(plan.l))
        return _decode(measurements, plan, 0.0, every)
    np.copyto(score, -np.inf, where=np.logical_not(mask, out=gate_buf))
    best = int(np.argmax(score))
    if score.flat[best] == -np.inf:
        best = int(np.argmax(mask))
    i, j = np.unravel_index(best, score.shape)
    return AlignmentEstimate(
        i_star=int(i), j_star=int(j), candidate_count=n_candidates,
        nm_rounds=nm_rounds, detector_threshold=epsilon,
    )


def decode_los(
    measurements: MeasurementSet, plan: ScanPlan, epsilon: float
) -> AlignmentEstimate:
    """Probability-product ML decoding over all rounds.

    epsilon is the detector threshold: an entry is a candidate when one
    of its bin readings has y >= epsilon. `plan` is measurements.plan.
    """
    return _decode(measurements, plan, epsilon)


def decode_nlos(
    measurements: MeasurementSet, plan: ScanPlan, epsilon: float
) -> AlignmentEstimate:
    """NM-round-restricted probability-product decoding.

    Rounds with the fewest nulltons (readings y < epsilon) are taken as
    multiton-free (NM); only those contribute probability factors.
    """
    counts = np.count_nonzero(measurements.y < epsilon, axis=(1, 2))
    nm = tuple(np.flatnonzero(counts == counts.min()).tolist())
    return _decode(measurements, plan, epsilon, nm)


def rayleigh_threshold(sigma: float, p_fa: float = 0.1) -> float:
    """Energy-detector threshold for a false-alarm target.

    Under the noise-only hypothesis the magnitude is Rayleigh with scale
    sigma/sqrt(2), so P(y > eps) = exp(-eps^2 / sigma^2).
    """
    if not 0 < p_fa < 1:
        raise InvalidParameterError("p_fa must lie in (0, 1)")
    return float(sigma * np.sqrt(np.log(1.0 / p_fa)))
