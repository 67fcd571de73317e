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
from functools import lru_cache

import numpy as np

from .channel import AlignmentEstimate, _noised_magnitude, draw_normals
from .codebook import ScanPlan
from .errors import InvalidParameterError

_FLOAT_MAX = np.finfo(float).max


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


@lru_cache(maxsize=8)
def _column_words(n_t: int) -> tuple[np.ndarray, np.ndarray]:
    """Per column j < n_t, its word j // 64 and its bit 1 << (j % 64)."""
    j = np.arange(n_t)
    return j // 64, np.left_shift(np.uint64(1), (j % 64).astype(np.uint64))


def _bits(words: np.ndarray, n_t: int) -> np.ndarray:
    """The first n_t bits of each row of 64-bit words, as bools: bit
    j % 64 of word j // 64 is column j."""
    raw = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(raw, axis=-1, count=n_t, bitorder="little").view(bool)


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
    bound. With `nlos` the log readings of the rounds outside a scan's NM
    rounds are set to 0.0 in place before any sum: adding +0.0 leaves
    every sum (no log is -0.0) as the one over the NM rounds alone. The
    seed row is the first of the highest bound among the rows that hold a
    candidate, and s* the best score among its candidates. The best entry
    then lies in the sub-grid of the candidate rows and the columns whose
    bounds reach s*, usually the seed row alone or a few rows and columns;
    exact ties, or a seed whose candidates all score -inf (then s* = -inf
    and the sub-grid holds every candidate), can keep up to all M x N_t.
    Its scores are summed in the same order, so the entry, and every tie,
    is the one an argmax over the full score grid picks, and a sub-grid
    whose best is -inf gives its first candidate.

    Every step is taken for all scans at once, with no loop over them.
    The head builds the plan indices: entry (i, j) reads, in round k of
    scan s, row row_at[s, k, i] of the S*L*U rows of the readings and
    column col_at[s, k, j] of their S*L*V columns, and masks (S x L x V x
    W, W = ceil(N_t / 64)) holds each column bin as 64-bit words, bit
    j % 64 of word j // 64 set for each of its columns j. Candidate bits
    are such words: a round's row bin has the sum of the masks of the
    column bins its gate passes, which are disjoint, so the sum is their
    union. The words are gathered to the rows, OR-ed over the rounds and
    counted word by word.
    The seed rows are one masked argmax over the row bounds and their
    scores one gather; each scan's first best candidate in its seed row
    is its winner so far. The sub-grids' other rows are one flat list of
    (scan, row, column) triples, from the kept (scan, row) pairs' bits
    and the columns whose bounds reach s*, scored by one gather summed in
    round order. Each scan's first best triple, lowest row then column,
    replaces its winner when it scores above s*, or s* from a lower row.
    Past M x N_t triples in all, each scan's triples are scored on their
    own, so no pass scores more entries than one M x N_t grid.

    With no candidate the result is the decode at epsilon 0 with the same
    `nlos`: every entry a candidate and, as no reading is a nullton, every
    round NM. It is not the decode over the NM rounds: a constant-modulus
    bin may own no rows, so an empty candidate set does not imply that
    every round was selected. Such a scan is decoded in the same pass:
    its words become every column (a round's column bins cover every
    column and every row has a bin), its count M x N_t, with `nlos` its
    NM rounds every round, and its recorded threshold 0.0.

    The gate decides only at low SNR and small p_fa. At the acceptance
    size (LOS, seed 3, 150 trials per cell), against the ungated decode
    at epsilon 0: at the default p_fa = 0.1 no decision moved at -50, -40
    or -30 dB; at p_fa = 0.01, 31 and 12 moved at -50 and -40 dB; at
    p_fa = 1e-3, 105 and 59; at -30 dB none moved at any of these p_fa.
    """
    scans, n, u, v = y.shape
    m, n_t = row_bin.shape[2], col_bin.shape[2]
    word, bit = _column_words(n_t)
    offsets = np.arange(scans * n).reshape(scans, n, 1)
    row_at, col_at = row_bin + offsets * u, col_bin + offsets * v
    masks = np.zeros((scans, n, v, word[-1] + 1), dtype=np.uint64)
    # ufunc.at is given one value per index: numpy 2.4 reads past values
    # it has to broadcast over an index of several axes
    np.add.at(masks.reshape(-1), (col_at * masks.shape[3] + word).ravel(),
              bit[None].repeat(scans * n, axis=0).ravel())
    with np.errstate(divide="ignore", invalid="ignore"):
        log_y = np.log(y)
    # a negative, NaN or infinite reading has a NaN or +inf log, which
    # _checked refuses
    if not log_y.max() < np.inf:
        _checked(y)
    gate = y >= epsilon[:, None, None, None]
    rounds = None
    if nlos:
        # the fewest nulltons are the most readings through the gate: y holds no NaN
        hits = np.count_nonzero(gate, axis=(2, 3))
        rounds = hits == hits.max(axis=1, keepdims=True)
        gate &= rounds[:, :, None, None]
    # each round's row bins' words, gathered to the rows and OR-ed over the rounds
    cand = np.bitwise_or.reduce(np.matmul(gate, masks).reshape(scans * n * u, -1).take(row_at, axis=0),
                                axis=1)
    counts = np.bitwise_count(cand).sum(axis=(1, 2), dtype=np.int64)
    none = counts == 0
    if none.any():  # the decode at epsilon 0: every entry a candidate, every round NM
        cand[none] = masks[none, 0].sum(axis=1)[:, None]
        counts[none] = m * n_t
        epsilon = np.where(none, 0.0, epsilon)
        if nlos:
            rounds[none] = True
    if nlos:
        log_y[~rounds] = 0.0
    cand_rows = cand[..., 0] != 0
    for w in range(1, cand.shape[2]):
        cand_rows |= cand[..., w] != 0

    # round-major (L x ...) gathers, whose rounds _sum_rounds adds in turn
    rows_t, cols_t = row_at.transpose(1, 0, 2), col_bin.transpose(1, 0, 2)
    # each round's row maxima, over a contiguous copy so the maximum runs
    # down its columns, and column maxima, gathered to the rows and columns
    row_bounds = _sum_rounds(log_y.transpose(0, 1, 3, 2).copy().max(axis=2).take(rows_t))
    col_bounds = _sum_rounds(log_y.max(axis=2).take(col_at.transpose(1, 0, 2)))
    # the first candidate row of the highest bound: a candidate row that
    # bounds at -inf still ranks above every other row
    seed = np.where(cand_rows, np.maximum(row_bounds, -_FLOAT_MAX), -np.inf).argmax(axis=1)
    scan = np.arange(scans)
    seed_bits = _bits(cand[scan, seed], n_t)
    seed_scores = np.where(seed_bits, _sum_rounds(log_y.take(rows_t[:, scan, seed, None] * v + cols_t)),
                           -np.inf)
    s_star = seed_scores.max(axis=1)[:, None]
    # each scan's winner so far: the seed row's first best candidate, or
    # at s* = -inf its first candidate
    win_i, win_j = seed.copy(), (seed_bits & (seed_scores == s_star)).argmax(axis=1)
    kept = cand_rows & (row_bounds >= s_star)
    kept[scan, seed] = False
    pair_s, pair_i = kept.nonzero()
    if len(pair_s):
        # the sub-grid's other rows, as (scan, row, column) triples
        sub = _bits(cand[pair_s, pair_i], n_t) & (col_bounds >= s_star)[pair_s]
        cuts = [0, len(pair_s)]
        if np.count_nonzero(sub) > m * n_t:  # past M x N_t triples, a pass per scan
            cuts = np.searchsorted(pair_s, np.arange(scans + 1)).tolist()
        for lo, hi in zip(cuts, cuts[1:]):
            flat = np.flatnonzero(sub[lo:hi])
            pt, jt = flat // n_t, flat % n_t
            st, it = pair_s[lo:hi][pt], pair_i[lo:hi][pt]
            at = rows_t[:, st, it]
            at *= v
            at += cols_t[:, st, jt]
            scores = _sum_rounds(log_y.take(at))
            best = np.full(scans, -np.inf)
            np.maximum.at(best, st, scores)
            # the first best triple of each scan, which wins over the seed
            # row's above s*, or at s* from a lower row
            top = (scores == best[st]).nonzero()[0]
            first = st[top]
            lead = np.ones(len(top), dtype=bool)
            np.not_equal(first[1:], first[:-1], out=lead[1:])
            top, first = top[lead], first[lead]
            gain = (scores[top] > s_star[first, 0]) | ((scores[top] == s_star[first, 0])
                                                      & (it[top] < seed[first]))
            win_i[first[gain]], win_j[first[gain]] = it[top[gain]], jt[top[gain]]

    return [AlignmentEstimate(i_star=i, j_star=j, candidate_count=count,
                              nm_rounds=None if nm is None else tuple(k for k, on in enumerate(nm) if on),
                              detector_threshold=eps)
            for count, i, j, nm, eps in zip(counts.tolist(), win_i.tolist(), win_j.tolist(),
                                            [None] * scans if rounds is None else rounds.tolist(),
                                            epsilon.tolist())]


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
    unless `plan` is measurements.plan and epsilon is finite and >= 0."""
    if plan is not measurements.plan:
        raise InvalidParameterError("decode with the plan the measurements were taken with")
    if not 0 <= epsilon < np.inf:
        raise InvalidParameterError(f"epsilon must be finite and >= 0, got {epsilon}")
    return _decode_scans(measurements.y[None], plan.row_bin[None], plan.col_bin[None],
                         np.array([epsilon]), nlos)[0]


def rayleigh_threshold(sigma: float, p_fa: float) -> float:
    """Energy-detector threshold for a false-alarm target.

    Under the noise-only hypothesis the magnitude is Rayleigh with scale
    sigma/sqrt(2), so P(y > eps) = exp(-eps^2 / sigma^2).
    InvalidParameterError unless sigma is finite and >= 0 and p_fa lies
    in (0, 1).
    """
    if not 0 <= sigma < np.inf:
        raise InvalidParameterError(f"sigma must be finite and >= 0, got {sigma}")
    if not 0 < p_fa < 1:
        raise InvalidParameterError("p_fa must lie in (0, 1)")
    return float(sigma * np.sqrt(np.log(1.0 / p_fa)))
