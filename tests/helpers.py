"""Channels built directly from a beamspace matrix, for planted-support
studies, the exhaustive grid scan as a scan with singleton bins, the
dense beamspace coefficients of ideal-sparse beams, the per-beam
effective support of a constant-modulus beam, round-by-round noisy
readings, readings summed bin member by bin member, a plan's run of
rounds, the full-grid decode the
bound decode must equal, the empty-intersection probability as an
exact Markov chain, the lockstep constant-modulus ascent with two
stored stacks and complex division that codebook._ascend must equal, and
the one-pair BGR reference loop that harness._lockstep_beams must equal."""

from dataclasses import fields, replace
from fractions import Fraction
from math import comb, sqrt

import numpy as np

from irsbeam.arrays import ArrayConfig, cascade_dictionary, dft_dictionary
from irsbeam.channel import AlignmentEstimate, CascadeChannel, _unit_peak
from irsbeam.codebook import (
    CM_MAX_ITERS, CM_STEP0, CM_TOL, IDEAL_SPARSE, CMResult, ScanPlan, build_scan_plan,
)
from irsbeam.decoder import decode_los, rayleigh_threshold, synthesize_measurements
from irsbeam.errors import InvalidParameterError
from irsbeam.harness import BGR_MAX_ITERS, BGR_TOL, _ZERO_CHANNEL, ExperimentConfig


def channel_from_lambda(lam: np.ndarray, cfg: ArrayConfig) -> CascadeChannel:
    """The cascade channel whose beamspace image is `lam`: factors
    u = barD lam and b = D, so h = barD lam D^H, and lam = lam I."""
    u = cascade_dictionary(cfg) @ lam
    return CascadeChannel(
        strongest=strongest_entry(lam), x=lam, y=np.eye(cfg.n_t, dtype=complex),
        u=u, b=dft_dictionary(cfg.n_t), cfg=cfg,
    )


def strongest_entry(lam: np.ndarray) -> tuple[int, int]:
    """The largest |lam| entry of a dense matrix, lowest row then column
    on ties (np.argmax scans in C order)."""
    i, j = np.unravel_index(int(np.argmax(np.abs(lam))), lam.shape)
    return int(i), int(j)


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
        epsilon = rayleigh_threshold(sigma, ExperimentConfig.p_fa)
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


def plan_rounds(plan: ScanPlan, start: int, l: int) -> ScanPlan:
    """The plan of `plan`'s l rounds from round `start`: views of its
    stacks, the other fields as they are."""
    stacks = {f.name: getattr(plan, f.name) for f in fields(ScanPlan)[3:]}
    return replace(plan, **{k: s if s is None else s[start:start + l] for k, s in stacks.items()})


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


def g_chain(x: int, y: int, z: int) -> Fraction:
    """The probability that y independent uniform (x-1)-subsets of a
    (z-1)-set have an empty common intersection, as a Markov chain on the
    size s of the intersection so far: from s = z-1 (no subset yet), one
    more subset moves it to t with probability
    C(s, t) C(n-s, k-t) / C(n, k), n = z-1, k = x-1. Every term is
    positive, and the chain shares no step with inclusion-exclusion."""
    n, k = z - 1, x - 1
    dist = {n: Fraction(1)}
    for _ in range(y):
        step = {}
        for s, p in dist.items():
            for t in range(min(s, k) + 1):
                w = comb(s, t) * comb(n - s, k - t)
                if w:
                    step[t] = step.get(t, 0) + p * Fraction(w, comb(n, k))
        dist = step
    return dist.get(0, Fraction(0))


def _project_unit_reference(v: np.ndarray) -> np.ndarray:
    # repeated renormalization drives every |v_i| to exactly 1.0 in floats
    for _ in range(4):
        a = np.abs(v)
        if np.all(a == 1.0):
            break
        v = v / a
    return v


def ascend_reference(pt: np.ndarray) -> list[CMResult]:
    """The lockstep ascent of codebook._ascend with two stored stacks, p^T
    and p^H, and trial points normalized by complex division: the oracle
    the solver must equal bit for bit, beam by beam.

    `pt` (B x q x M) stacks each set's p^T (p is M x q), and is
    overwritten as the batch shrinks. Each beam keeps its own step
    length, backtracking, objective history and stop flag, and leaves
    the batch once it stops. Every product is one gemv per slice on p or
    p^H in the caller's layout (slice.T and slice.conj()).
    """
    b, _, m = pt.shape
    ph = pt.conj()
    results: list[CMResult] = [None] * b
    slot = np.arange(b)  # the beam each row of the active batch holds
    objs = np.zeros((b, CM_MAX_ITERS + 1))
    s = pt.sum(axis=1)
    v = np.where(np.abs(s) > 0, np.exp(1j * np.angle(s)), 1.0 + 0j)

    # inner = p^H v and den = 1 + |inner|^2, kept in step with v
    inner = (ph @ v[..., None])[..., 0]
    den = 1.0 + np.abs(inner) ** 2
    objs[:, 0] = last = np.log2(den).sum(axis=1)
    step = np.full(b, CM_STEP0 * m)
    for it in range(1, CM_MAX_ITERS + 1):
        k = len(slot)
        # Wirtinger gradient of the objective w.r.t. conj(v)
        egrad = (pt[:k].transpose(0, 2, 1) @ (inner / den)[..., None])[..., 0]
        rgrad = egrad - np.real(egrad * np.conj(v)) * v
        # a beam whose gradient has zero squared norm takes no step
        searching = (rgrad.view(float) ** 2).sum(axis=1) != 0
        new = last.copy()
        trial = step  # halved in place while a beam searches
        for _ in range(30):
            cand = v + trial[:, None] * rgrad
            cand = cand / np.abs(cand)  # |cand_i| >= 1: rgrad_i is tangent to v_i
            cand_inner = (ph[:k] @ cand[..., None])[..., 0]
            cand_den = 1.0 + np.abs(cand_inner) ** 2
            obj = np.log2(cand_den).sum(axis=1)
            hit = searching & (obj > last)
            if hit.all():  # every beam accepts this trial, none an earlier one
                v, inner, den, new = cand, cand_inner, cand_den, obj
                break
            if hit.any():
                for x, y in ((v, cand), (inner, cand_inner), (den, cand_den)):
                    np.copyto(x, y, where=hit[:, None])
                np.copyto(new, obj, where=hit)
                searching ^= hit
                if not searching.any():
                    break
            np.multiply(trial, 0.5, out=trial, where=searching)
        objs[slot, it] = new
        # a beam that took no step kept new == last and has converged
        accepted = new > last
        converged = ~accepted | (new - last < CM_TOL * np.maximum(1.0, np.abs(last)))
        stop = converged | (it == CM_MAX_ITERS)
        for i in np.flatnonzero(stop):
            results[slot[i]] = CMResult(
                v=_project_unit_reference(v[i]),
                objectives=objs[slot[i], : it + accepted[i]].copy(),
                converged=bool(converged[i]),
            )
        step, last = trial * 2.0, new
        if stop.any():
            keep = np.flatnonzero(~stop)
            # move the running sets forward in place: copying the
            # compacted stacks would hold both copies at once
            for dst, src in enumerate(keep):
                pt[dst], ph[dst] = pt[src], ph[src]
            slot, v, inner, den, step, last = (
                x[keep] for x in (slot, v, inner, den, step, last)
            )
            if not len(slot):
                break
    return results


def optimal_beams(u: np.ndarray, b: np.ndarray):
    """Full-CSI reference beams for h = u b^H of one pair, u M x P and
    b N_t x P: constant-modulus v (M), unit-norm f (N_t). The alternating
    maximization of harness._lockstep_beams on matrices, with each step's
    products taken on the pair alone: the oracle each pair of a stack
    must equal bit for bit. InvalidParameterError unless u and b are
    finite and h is nonzero."""
    u, b = _unit_peak(u), _unit_peak(b)
    u_h = u.conj().T
    gram = b.conj().T @ b
    vals, vecs = np.linalg.eig((u_h @ u) @ gram)
    x = vecs[:, vals.real.argmax()]
    obj = 0.0
    for _ in range(BGR_MAX_ITERS):
        hf = u @ (gram @ x)
        v = np.exp(1j * np.angle(hf))
        w = u_h @ v
        bw = b @ w
        # ||b w|| as np.linalg.norm takes it: two dot products, real and imaginary
        nrm = sqrt(bw.real.dot(bw.real) + bw.imag.dot(bw.imag))
        if nrm == 0:  # the objective never falls, and starts above 0 unless h = 0
            raise InvalidParameterError(_ZERO_CHANNEL)
        x = w / nrm
        if nrm - obj <= BGR_TOL * obj:
            break
        obj = nrm
    return v, b @ x
