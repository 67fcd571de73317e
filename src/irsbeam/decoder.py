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

from .channel import AlignmentEstimate, noisy_magnitude
from .codebook import ScanPlan
from .errors import InvalidDimensionError, InvalidParameterError


@dataclass(frozen=True)
class MeasurementSet:
    """L finite, nonnegative U x V matrices, one per scanning round."""

    y: tuple[np.ndarray, ...]
    plan: ScanPlan

    def __post_init__(self):
        if len(self.y) != self.plan.l:
            raise InvalidDimensionError("one measurement matrix per plan round required")
        for y_l, rnd in zip(self.y, self.plan.rounds):
            if y_l.shape != (rnd.u, rnd.v):
                raise InvalidDimensionError(f"round matrix must be {rnd.u} x {rnd.v}")
            # a NaN fails both comparisons
            if not (y_l.min() >= 0 and y_l.max() < np.inf):
                raise InvalidParameterError("measurements must be finite and nonnegative")


def synthesize_measurements(
    lam: np.ndarray,
    plan: ScanPlan,
    sigma: float,
    rng: np.random.Generator | None = None,
) -> MeasurementSet:
    """Y_l = |C_l^H Lambda A_l + N_l| for every round of the plan."""
    ys = tuple(
        noisy_magnitude(rnd.c_mat.conj().T @ lam @ rnd.a_mat, sigma, rng)
        for rnd in plan.rounds
    )
    return MeasurementSet(y=ys, plan=plan)


def _decode(
    measurements: MeasurementSet,
    plan: ScanPlan,
    epsilon: float,
    rounds: range | tuple[int, ...],
    nm_rounds: tuple[int, ...] | None,
) -> AlignmentEstimate:
    """Probability-product decoding over the given rounds.

    Candidates are the entries whose squared score reaches epsilon**2 in
    at least one round. Among them the product of squared scores is
    maximized through the sum of log magnitudes (half the log of the
    product), which neither underflows nor overflows. A candidate whose
    product is 0 (log -inf) still beats every non-candidate; ties go to
    the lowest row, then column.

    With no candidate the result is the decode at epsilon 0 over every
    round (every entry a candidate; for NLOS every round NM), not over the
    given rounds: a constant-modulus bin may own no rows, so an empty
    candidate set does not imply that every round was selected.
    """
    eps_sq = epsilon**2
    score = np.zeros((plan.cfg.m, plan.cfg.n_t))
    mask = np.zeros(score.shape, dtype=bool)
    for l in rounds:
        rnd = plan.rounds[l]
        y = measurements.y[l]
        with np.errstate(divide="ignore"):
            log_y = np.log(y)
        # gather columns (U x N_t), then whole rows: several times faster
        # than one np.ix_ gather, and the result is C-contiguous
        mask |= (y**2 >= eps_sq)[:, rnd.col_bin][rnd.row_bin]
        score += log_y[:, rnd.col_bin][rnd.row_bin]
    n_candidates = int(mask.sum())
    if n_candidates == 0:
        every = tuple(range(plan.l))
        return _decode(measurements, plan, 0.0, every, None if nm_rounds is None else every)
    score[~mask] = -np.inf
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

    epsilon is the detector threshold in the magnitude domain; the
    candidate gate operates on squared scores, hence epsilon**2.
    """
    return _decode(measurements, plan, epsilon, range(plan.l), None)


def classify_nulltons(y_l: np.ndarray, epsilon: float) -> int:
    """Count measurements accepted as noise-only (y < epsilon)."""
    return int(np.count_nonzero(y_l < epsilon))


def select_nm_rounds(counts: list[int]) -> tuple[int, ...]:
    """All rounds whose nullton count attains the minimum."""
    if not counts:
        raise InvalidParameterError("at least one round count is required")
    lo = min(counts)
    return tuple(l for l, c in enumerate(counts) if c == lo)


def decode_nlos(
    measurements: MeasurementSet, plan: ScanPlan, epsilon: float
) -> AlignmentEstimate:
    """NM-round-restricted probability-product decoding.

    Rounds with the fewest sub-threshold measurements are taken as
    multiton-free; only those contribute probability factors.
    """
    counts = [classify_nulltons(y_l, epsilon) for y_l in measurements.y]
    nm = select_nm_rounds(counts)
    return _decode(measurements, plan, epsilon, nm, nm)


def rayleigh_threshold(sigma: float, p_fa: float = 0.1) -> float:
    """Energy-detector threshold for a false-alarm target.

    Under the noise-only hypothesis the magnitude is Rayleigh with scale
    sigma/sqrt(2), so P(y > eps) = exp(-eps^2 / sigma^2).
    """
    if not 0 < p_fa < 1:
        raise InvalidParameterError("p_fa must lie in (0, 1)")
    return float(sigma * np.sqrt(np.log(1.0 / p_fa)))
