"""Closed-form success probabilities and training-budget planning."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParameterError, check_field_types


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
        check_field_types(self)
        if not (1 <= self.q <= self.m) or not (1 <= self.r <= self.n_t):
            raise InvalidParameterError("need 1 <= q <= m and 1 <= r <= n_t")
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
    to [0, 1] (the raw expression goes negative when it is vacuous); 1 on
    an axis of one index."""
    if z == 1:
        return 1.0
    p = 1.0 - (z - 1) * ((x - 1) / (z - 1)) ** y
    return min(max(p, 0.0), 1.0)


def p_lower_los(probe: PlanProbe) -> float:
    """Lower bound on single-dominant-entry recovery after l rounds."""
    if probe.l == 0:
        return 0.0
    return _p_single(probe.q, probe.l, probe.m) * _p_single(probe.r, probe.l, probe.n_t)


def _g_by_rounds(x: int, y_max: int, z: int) -> list[float]:
    """[g(x, y, z) for y = 0..y_max], g(x, y, z) the probability that y
    independent uniform (x-1)-subsets of a (z-1)-set have an empty common
    intersection.

    Inclusion-exclusion summed in exact integers, rounded once by the
    division: the big-integer terms C(z-1, j) and C(z-1-j, x-1-j) are
    formed once and raised to each y by one product per term, with one
    exact division per y. y = 0 degenerates: the empty intersection
    convention makes the common set the whole universe, so the
    probability is 0 unless the universe itself is empty.
    """
    if not 1 <= x <= z:
        raise InvalidParameterError("need 1 <= x <= z")
    n = z - 1
    signed = [(-1) ** j * math.comb(n, j) for j in range(x)]
    bases = [math.comb(n - j, x - 1 - j) for j in range(x)]
    den = math.comb(n, x - 1)
    out, powers, den_y = [float(z == 1)], [1] * x, 1
    for _ in range(y_max):
        powers, den_y = [p * b for p, b in zip(powers, bases)], den_y * den
        out.append(sum(s * p for s, p in zip(signed, powers)) / den_y)
    return out


def p_nm_round(probe: PlanProbe) -> float:
    """Probability that one round of scanning contains no multiton bin,
    counted in exact integers and rounded once by the division."""
    k, uv, mn = probe.k, probe.u * probe.v, probe.m * probe.n_t
    return (probe.r * probe.q) ** k * math.comb(uv, k) / math.comb(mn, k)


def p_lower_nlos(probe: PlanProbe) -> float:
    """Lower bound on largest-entry recovery with k nonzero entries.

    Binomial mixture over the NM-round count of the exact empty-intersection
    probabilities. The zero-NM-rounds term contributes nothing (recovery
    from no usable rounds has probability zero).
    """
    p = p_nm_round(probe)
    g_rows = _g_by_rounds(probe.q, probe.l, probe.m)
    g_cols = _g_by_rounds(probe.r, probe.l, probe.n_t)
    total = 0.0
    for l in range(0, probe.l + 1):
        w = math.comb(probe.l, l) * p**l * (1.0 - p) ** (probe.l - l)
        total += g_rows[l] * g_cols[l] * w
    return min(max(total, 0.0), 1.0)


def min_rounds(q: int, m: int, p1: float) -> int:
    """Smallest round count L >= 1 with _p_single(q, L, m) >= p1.

    _p_single rises with L toward 1 when q < m, so an upward search from
    L = 1 finds the minimum; the closed-form log(m-1) + log(1/(1-p1)) over
    log((m-1)/(q-1)) bounds its length. One bin of all m > 1 indices
    never singles one out: no L reaches p1, an InvalidParameterError.
    """
    if not 0 < p1 < 1:
        raise InvalidParameterError("p1 must lie in (0, 1)")
    if not 1 <= q <= m:
        raise InvalidParameterError("need 1 <= q <= m")
    if q == m > 1:
        raise InvalidParameterError(
            f"one bin of all {m} indices singles none out, so no L reaches the target")
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
