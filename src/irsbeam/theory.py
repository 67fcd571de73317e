"""Closed-form success probabilities and training-budget planning."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParameterError


@dataclass(frozen=True)
class PlanProbe:
    """System and plan parameters for the closed-form calculators.

    k <= U*V is the number of nonzero beamspace entries (NLOS analysis only).
    """

    m: int
    n_t: int
    q: int
    r: int
    l: int
    k: int = 1

    def __post_init__(self):
        if not (1 <= self.q < self.m) or not (1 <= self.r < self.n_t):
            raise InvalidParameterError("need 1 <= q < m and 1 <= r < n_t")
        if self.m % self.q != 0 or self.n_t % self.r != 0:
            raise InvalidParameterError("q must divide m and r divide n_t")
        if self.l < 0 or self.k < 1:
            raise InvalidParameterError("need l >= 0 and k >= 1")
        if self.k > self.u * self.v:
            raise InvalidParameterError("more nonzeros than bins: no NM round exists")

    @property
    def u(self) -> int:
        return self.m // self.q

    @property
    def v(self) -> int:
        return self.n_t // self.r


def _p_single(x: int, y: int, z: int) -> float:
    """1 - (z-1) * ((x-1)/(z-1))**y, the single-axis lower bound, clamped
    to [0, 1] (the raw expression goes negative when it is vacuous)."""
    p = 1.0 - (z - 1) * ((x - 1) / (z - 1)) ** y
    return min(max(p, 0.0), 1.0)


def p_lower_los(probe: PlanProbe) -> float:
    """Lower bound on single-dominant-entry recovery after l rounds."""
    if probe.l == 0:
        return 0.0
    return _p_single(probe.q, probe.l, probe.m) * _p_single(probe.r, probe.l, probe.n_t)


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def g_exact(x: int, y: int, z: int) -> float:
    """Probability that y independent uniform (x-1)-subsets of a (z-1)-set
    have an empty common intersection.

    Evaluated by inclusion-exclusion with log-domain terms (binomials at
    practical sizes overflow naive arithmetic) and exact float summation.
    y = 0 degenerates: the empty intersection convention makes the common
    set the whole universe, so the probability is 0 unless the universe
    itself is empty.
    """
    if not 1 <= x <= z:
        raise InvalidParameterError("need 1 <= x <= z")
    if x == 1:
        return 1.0 if y >= 1 else (1.0 if z == 1 else 0.0)
    if y == 0:
        return 1.0 if z == 1 else 0.0
    log_denom = _log_comb(z - 1, x - 1)
    terms = []
    for j in range(1, x):
        log_t = _log_comb(z - 1, j) + y * (_log_comb(z - 1 - j, x - 1 - j) - log_denom)
        terms.append(-((-1.0) ** (j - 1)) * math.exp(log_t))
    g = 1.0 + math.fsum(sorted(terms, key=abs, reverse=True))
    return min(max(g, 0.0), 1.0)


def p_nm_round(probe: PlanProbe) -> float:
    """Probability that one round of scanning contains no multiton bin."""
    k, uv, mn = probe.k, probe.u * probe.v, probe.m * probe.n_t
    log_p = k * math.log(probe.r * probe.q) + _log_comb(uv, k) - _log_comb(mn, k)
    return min(math.exp(log_p), 1.0)


def p_lower_nlos(probe: PlanProbe) -> float:
    """Lower bound on largest-entry recovery with k nonzero entries.

    Binomial mixture over the NM-round count of the exact empty-intersection
    probabilities. The zero-NM-rounds term contributes nothing (recovery
    from no usable rounds has probability zero).
    """
    p = p_nm_round(probe)
    total = 0.0
    for l in range(0, probe.l + 1):
        w = math.comb(probe.l, l) * p**l * (1.0 - p) ** (probe.l - l)
        total += g_exact(probe.q, l, probe.m) * g_exact(probe.r, l, probe.n_t) * w
    return min(max(total, 0.0), 1.0)


def min_rounds(q: int, m: int, p1: float) -> int:
    """Smallest round count L >= 1 with _p_single(q, L, m) >= p1.

    _p_single rises with L toward 1, so an upward search from L = 1
    finds the minimum; the closed-form log(m-1) + log(1/(1-p1)) over
    log((m-1)/(q-1)) bounds its length.
    """
    if not 0 < p1 < 1:
        raise InvalidParameterError("p1 must lie in (0, 1)")
    if not 1 <= q < m:
        raise InvalidParameterError("need 1 <= q < m")
    l = 1
    while _p_single(q, l, m) < p1:
        l += 1
    return l


def sample_complexity(probe: PlanProbe, p0: float) -> tuple[int, int]:
    """(total measurements T, rounds L) to reach success probability p0.

    The target splits evenly across the two index axes: each must reach
    sqrt(p0).
    """
    if not 0 < p0 < 1:
        raise InvalidParameterError("p0 must lie in (0, 1)")
    p_axis = math.sqrt(p0)
    l = max(min_rounds(probe.q, probe.m, p_axis), min_rounds(probe.r, probe.n_t, p_axis))
    return probe.u * probe.v * l, l
