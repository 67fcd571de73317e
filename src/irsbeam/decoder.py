"""Strongest-path recovery from phaseless bin measurements.

One probability-product decoder (_decode_scans) scores every beamspace
entry by the product of its bins' squared measurements over a set of
rounds: all rounds for LOS channels, only the no-multiton (NM) rounds,
which it selects itself, for NLOS channels. A decode in which no entry
clears the detector gate returns the same decoder's result at threshold
0. The decoder does not score the whole M x N_t grid: per-row and
per-column bounds on the score, summed in the grid's round order, prune
the search to a sub-grid that must hold the best entry, and the answer
is bit-for-bit the full grid's. decode_los and decode_nlos are that
decoder on a single scan, without and with the NM rule.
The plan forms the noiseless readings (ScanPlan.readings); they are noised here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import AlignmentEstimate, _noised_magnitude, draw_normals
from .codebook import ScanPlan
from .errors import InvalidParameterError


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
            raise InvalidParameterError(f"a non-empty plan and one {u} x {v} matrix per round required")
        # readings are magnitudes: a complex one is refused, not cast to its real part
        if y.dtype.kind not in "biuf":
            raise InvalidParameterError(f"measurements must be real numbers, not {y.dtype}")
        object.__setattr__(self, "y", _checked(y.astype(float, copy=False)))


def _checked(y: np.ndarray) -> np.ndarray:
    """y, a float array of readings, or InvalidParameterError unless every
    reading is finite and nonnegative: the MeasurementSet check, made
    once for a stack of scans."""
    # a NaN fails both comparisons
    if not (y.min() >= 0 and y.max() < np.inf):
        raise InvalidParameterError("measurements must be finite and nonnegative")
    return y


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
    (ScanPlan.readings), one L x U x V stack, noised here as a trial
    noises them: one draw_normals, round by round, scaled by sigma.
    InvalidParameterError unless sigma is finite and >= 0, and has an
    rng to draw from when positive.
    """
    if not 0 <= sigma < np.inf:
        raise InvalidParameterError(f"sigma must be finite and >= 0, got {sigma}")
    if sigma > 0 and rng is None:
        raise InvalidParameterError("sigma > 0 needs an rng to draw the noise")
    x, y = lam if isinstance(lam, tuple) else (lam, np.eye(lam.shape[1]))
    z = plan.readings(x, y)
    y = np.abs(z) if sigma == 0 else _noised_magnitude(z, draw_normals(z.shape, rng), sigma)
    return MeasurementSet(y=y, plan=plan)


def _sum_rounds(parts: np.ndarray) -> np.ndarray:
    """parts[0] + parts[1] + ..., added in round order from round 0."""
    total = parts[0].copy()
    for part in parts[1:]:
        total += part
    return total


def _decode_scans(
    y: np.ndarray,
    row_bin: np.ndarray,
    col_bin: np.ndarray,
    epsilon: np.ndarray,
    nlos: bool = False,
) -> list[AlignmentEstimate]:
    """Probability-product decoding of S scans of L rounds (y S x L x U x V,
    threshold epsilon[s]) over every round, or with `nlos` over each
    scan's NM rounds: the one place the NM rule is taken. A scan's NM
    rounds are those with the fewest nulltons (readings y < epsilon[s]).
    Scan s was taken with the plan whose bin maps are row_bin[s] (L x M)
    and col_bin[s] (L x N_t). InvalidParameterError unless every reading
    is finite and nonnegative (_checked).

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
    bound. A round outside the NM rounds adds +0.0 to a bound, which
    leaves every sum as the one over the NM rounds alone. The seed score
    s* is the best candidate score in the highest-bound row that holds a
    candidate. The best entry then lies in the sub-grid of the candidate
    rows and the columns whose bounds reach s*, usually a few rows and
    columns; exact ties, or a seed whose candidates all score -inf, can
    keep up to all M x N_t. Its scores are summed in the same order, so
    the entry, and every tie, is the one an argmax over the full score
    grid picks. The candidate count comes from each round's gate packed
    to bits over the columns, OR-ed over the rounds.

    The log readings, gates, candidate bits and the row and column bounds
    are taken for all scans at once; the candidate count, the seed row
    and the sub-grid are each scan's own.

    With no candidate the result is the decode at epsilon 0 with the same
    `nlos`: every entry a candidate and, as no reading is a nullton, every
    round NM. It is not the decode over the NM rounds: a constant-modulus
    bin may own no rows, so an empty candidate set does not imply that
    every round was selected.

    The gate decides only at low SNR and small p_fa. At the acceptance
    size (LOS, seed 3, 150 trials per cell), against the ungated decode
    at epsilon 0: at the default p_fa = 0.1 no decision moved at -50, -40
    or -30 dB; at p_fa = 0.01, 31 and 12 moved at -50 and -40 dB; at
    p_fa = 1e-3, 105 and 59; at -30 dB none moved at any of these p_fa.
    """
    _checked(y)
    scans, n, u, v = y.shape
    n_t = col_bin.shape[2]
    with np.errstate(divide="ignore"):
        log_y = np.log(y)
    # entry (i, j) reads, in round k of scan s, row row_at[s, k, i] of the
    # scans*n*U rows of the readings and column col_bin[s, k, j] of that row
    offsets = np.arange(scans * n).reshape(scans, n, 1)
    row_at = row_bin + offsets * u
    col_at = col_bin + offsets * v

    # each round's gate gathered over the columns and packed to bits over
    # them (scans x n x U x bytes), gathered over the rows (scans x n x M x bytes),
    # OR-ed over the rounds
    gate = y >= epsilon[:, None, None, None]
    rounds = None
    if nlos:
        # the fewest nulltons are the most readings through the gate: y holds no NaN
        hits = np.count_nonzero(gate, axis=(2, 3))
        rounds = hits == hits.max(axis=1, keepdims=True)
        gate &= rounds[:, :, None, None]
    gate = gate.transpose(0, 1, 3, 2).reshape(scans * n * v, u).take(col_at, axis=0)
    bits = np.packbits(np.ascontiguousarray(gate.transpose(0, 1, 3, 2)), axis=-1)
    cand = np.bitwise_or.reduce(bits.reshape(scans * n * u, -1).take(row_at, axis=0), axis=1)

    row_parts, col_parts = log_y.max(axis=3), log_y.max(axis=2)
    if rounds is not None:
        row_parts = np.where(rounds[..., None], row_parts, 0.0)
        col_parts = np.where(rounds[..., None], col_parts, 0.0)
    row_bounds = _sum_rounds(row_parts.take(row_at).transpose(1, 0, 2))
    col_bounds = _sum_rounds(col_parts.take(col_at).transpose(1, 0, 2))
    estimates = []
    for k, (cand_k, any_k, row_bound, col_bound, eps) in enumerate(zip(
            cand, cand.any(axis=2), row_bounds, col_bounds, epsilon.tolist())):
        count = int(np.count_nonzero(np.unpackbits(cand_k)))
        if count == 0:
            estimates += _decode_scans(y[k:k + 1], row_bin[k:k + 1], col_bin[k:k + 1],
                                       np.zeros(1), nlos)
            continue
        # the per-scan index arrays below come from ndarray methods, which
        # cost less per call than numpy's function wrappers
        nm = None if rounds is None else rounds[k].nonzero()[0]
        at, bins = (row_at[k], col_bin[k]) if nm is None else (row_at[k][nm], col_bin[k][nm])

        def scores(rows, cols) -> np.ndarray:
            return _sum_rounds(log_y.take(at[:, rows, None] * v + bins[:, None, cols]))

        def candidates(rows) -> np.ndarray:
            return np.unpackbits(cand_k[rows], axis=-1, count=n_t).view(bool)

        cand_rows = any_k.nonzero()[0]
        # the seed row as a one-element index array, so its scores keep a row axis
        seed = cand_rows[[row_bound[cand_rows].argmax()]]
        s_star = scores(seed, slice(None))[candidates(seed)].max()
        rows = cand_rows[row_bound[cand_rows] >= s_star]
        cols = (col_bound >= s_star).nonzero()[0]
        sub = scores(rows, cols)
        np.copyto(sub, -np.inf, where=~candidates(rows)[:, cols])
        best = int(sub.argmax())
        if sub.flat[best] == -np.inf:
            i = cand_rows[0]
            j = candidates(i).argmax()
        else:
            i, j = rows[best // len(cols)], cols[best % len(cols)]
        estimates.append(AlignmentEstimate(
            i_star=int(i), j_star=int(j), candidate_count=count,
            nm_rounds=None if nm is None else tuple(nm.tolist()),
            detector_threshold=eps,
        ))
    return estimates


def decode_los(
    measurements: MeasurementSet, plan: ScanPlan, epsilon: float
) -> AlignmentEstimate:
    """Probability-product ML decoding over all rounds: _decode_scans of
    this one scan.

    epsilon is the detector threshold: an entry is a candidate when one
    of its bin readings has y >= epsilon. `plan` is measurements.plan.
    """
    return _decode_one(measurements, plan, epsilon, nlos=False)


def decode_nlos(
    measurements: MeasurementSet, plan: ScanPlan, epsilon: float
) -> AlignmentEstimate:
    """NM-round-restricted probability-product decoding: _decode_scans of
    this one scan with the NM rule.

    Rounds with the fewest nulltons (readings y < epsilon) are taken as
    multiton-free (NM); only those contribute probability factors.
    """
    return _decode_one(measurements, plan, epsilon, nlos=True)


def _decode_one(measurements: MeasurementSet, plan: ScanPlan, epsilon: float,
                nlos: bool) -> AlignmentEstimate:
    """_decode_scans of one scan, taken with `plan`: InvalidParameterError
    unless `plan` is measurements.plan."""
    if plan is not measurements.plan:
        raise InvalidParameterError("decode with the plan the measurements were taken with")
    return _decode_scans(measurements.y[None], plan.row_bin[None], plan.col_bin[None],
                         np.array([epsilon]), nlos)[0]


def rayleigh_threshold(sigma: float, p_fa: float) -> float:
    """Energy-detector threshold for a false-alarm target.

    Under the noise-only hypothesis the magnitude is Rayleigh with scale
    sigma/sqrt(2), so P(y > eps) = exp(-eps^2 / sigma^2).
    """
    if not 0 < p_fa < 1:
        raise InvalidParameterError("p_fa must lie in (0, 1)")
    return float(sigma * np.sqrt(np.log(1.0 / p_fa)))
