"""Strongest-path recovery from phaseless bin measurements.

One probability-product decoder scores every beamspace entry by the
product of its bins' squared measurements over a set of rounds: all
rounds for LOS channels, only the no-multiton (NM) rounds for NLOS
channels. A decode in which no entry clears the detector gate returns
the same decoder's result at threshold 0. The decoder does not score
the whole M x N_t grid: per-row and per-column bounds on the score,
summed in the grid's round order, prune the search to a sub-grid that
must hold the best entry, and the answer is bit-for-bit the full grid's.
The plan forms the noiseless readings (ScanPlan.readings); they are noised here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import AlignmentEstimate, noisy_magnitude
from .codebook import ScanPlan
from .errors import InvalidDimensionError, InvalidParameterError


@dataclass(frozen=True)
class MeasurementSet:
    """L finite, nonnegative, real U x V matrices, one per scanning round.

    `y` is given as a sequence of U x V matrices or as one L x U x V
    array, and kept as that array; it iterates and indexes by round.
    """

    y: np.ndarray
    plan: ScanPlan

    def __post_init__(self):
        plan = self.plan
        u, v = plan.c_design.shape[1], plan.a_supports.shape[1]
        try:
            y = np.asarray(self.y)
        except ValueError:  # ragged rounds
            y = None
        if not plan.l or np.shape(y) != (plan.l, u, v):
            raise InvalidDimensionError(f"a non-empty plan and one {u} x {v} matrix per round required")
        # readings are magnitudes: a complex one is refused, not cast to its real part
        if y.dtype.kind not in "biuf":
            raise InvalidParameterError(f"measurements must be real numbers, not {y.dtype}")
        y = y.astype(float, copy=False)
        # a NaN fails both comparisons
        if not (y.min() >= 0 and y.max() < np.inf):
            raise InvalidParameterError("measurements must be finite and nonnegative")
        object.__setattr__(self, "y", y)


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
    pair (Lambda, I). The plan forms the noiseless readings
    (ScanPlan.readings), one L x U x V stack, noised here in one draw,
    round by round.
    """
    x, y = lam if isinstance(lam, tuple) else (lam, np.eye(lam.shape[1]))
    return MeasurementSet(y=noisy_magnitude(plan.readings(x, y), sigma, rng), plan=plan)


def _sum_rounds(parts: np.ndarray) -> np.ndarray:
    """parts[0] + parts[1] + ..., added in round order from round 0."""
    total = parts[0].copy()
    for part in parts[1:]:
        total += part
    return total


def _decode(
    measurements: MeasurementSet,
    plan: ScanPlan,
    epsilon: float,
    nm_rounds: tuple[int, ...] | None = None,
) -> AlignmentEstimate:
    """Probability-product decoding over the NM rounds (None: every round).

    Candidates are the entries with a bin reading y >= epsilon in at least
    one of those rounds, the magnitude test the NM count uses. Among them
    the product of squared readings is maximized through the score, the
    sum of log magnitudes over the rounds, which neither underflows nor
    overflows. A candidate whose product is 0 (log -inf) still beats every
    non-candidate; ties go to the lowest row, then column.

    Row i's bound sums, over the rounds, the largest log reading in its
    row bin, and column j's bound the largest in its column bin. Bounds
    and scores are summed in round order from round 0, and floating-point
    addition is monotone, so no score exceeds its row's or its column's
    bound. The seed score s* is the best candidate score in the
    highest-bound row that holds a candidate. The best entry then lies in
    the sub-grid of the candidate rows and the columns whose bounds reach
    s*, usually a few rows and columns; exact ties, or a seed whose
    candidates all score -inf, can keep up to all M x N_t. Its scores
    are summed in the same order, so the entry, and every tie, is the one
    an argmax over the full score grid picks. The candidate count comes
    from each round's gate packed to bits over the columns, OR-ed over
    the rounds.

    The decoded rounds' bin maps are slices of the plan's row_bin and
    col_bin stacks.

    With no candidate the result is the decode at epsilon 0 over every
    round (every entry a candidate; for NLOS every round NM), not over the
    NM rounds: a constant-modulus bin may own no rows, so an empty
    candidate set does not imply that every round was selected.
    """
    if plan is not measurements.plan:
        raise InvalidParameterError("decode with the plan the measurements were taken with")
    rounds = slice(None) if nm_rounds is None else list(nm_rounds)
    y = measurements.y[rounds]
    n, u, v = y.shape
    with np.errstate(divide="ignore"):
        log_y = np.log(y)
    # entry (i, j) reads, in the k-th decoded round, row row_at[k, i] of
    # the n*U rows of the readings and column col_bin[k, j] of that row
    offsets = np.arange(n)[:, None]
    row_at = plan.row_bin[rounds] + offsets * u
    col_bin = plan.col_bin[rounds]
    col_at = col_bin + offsets * v

    # each round's gate gathered over the columns and packed to bits over
    # them (n x U x bytes), gathered over the rows (n x M x bytes), OR-ed
    gate = (y >= epsilon).transpose(0, 2, 1).reshape(n * v, u).take(col_at, axis=0)
    bits = np.packbits(np.ascontiguousarray(gate.transpose(0, 2, 1)), axis=-1)
    cand = np.bitwise_or.reduce(bits.reshape(n * u, -1).take(row_at, axis=0), axis=0)
    n_candidates = int(np.count_nonzero(np.unpackbits(cand)))
    if n_candidates == 0:
        every = None if nm_rounds is None else tuple(range(plan.l))
        return _decode(measurements, plan, 0.0, every)

    def scores(rows, cols) -> np.ndarray:
        return _sum_rounds(log_y.take(row_at[:, rows, None] * v + col_bin[:, None, cols]))

    def candidates(rows) -> np.ndarray:
        return np.unpackbits(cand[rows], axis=-1, count=plan.cfg.n_t).view(bool)

    row_bound = _sum_rounds(log_y.max(axis=2).take(row_at))
    col_bound = _sum_rounds(log_y.max(axis=1).take(col_at))
    cand_rows = np.flatnonzero(cand.any(axis=1))
    # the seed row as a one-element index array, so its scores keep a row axis
    seed = cand_rows[[np.argmax(row_bound[cand_rows])]]
    s_star = scores(seed, slice(None))[candidates(seed)].max()
    rows = cand_rows[row_bound[cand_rows] >= s_star]
    cols = np.flatnonzero(col_bound >= s_star)
    sub = scores(rows, cols)
    np.copyto(sub, -np.inf, where=~candidates(rows)[:, cols])
    best = int(np.argmax(sub))
    if sub.flat[best] == -np.inf:
        i = cand_rows[0]
        j = np.argmax(candidates(i))
    else:
        i, j = rows[best // len(cols)], cols[best % len(cols)]
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


def rayleigh_threshold(sigma: float, p_fa: float) -> float:
    """Energy-detector threshold for a false-alarm target.

    Under the noise-only hypothesis the magnitude is Rayleigh with scale
    sigma/sqrt(2), so P(y > eps) = exp(-eps^2 / sigma^2).
    """
    if not 0 < p_fa < 1:
        raise InvalidParameterError("p_fa must lie in (0, 1)")
    return float(sigma * np.sqrt(np.log(1.0 / p_fa)))
