"""Closed-form upper bounds on the growth rate of (b,k)-hash codes.

A (b,k)-hash code is a subset of {1..b}^n in which every k distinct words
have a coordinate where all k symbols differ; R(b,k) denotes the exponential
growth rate (base-2 log per coordinate) of the largest such code.  This module
collects the classical closed-form bounds, the rate formula that converts a
bound on the separation quadratic form into a rate bound, and the balanced-code
fixed-point solver that combines a distance bound with the hashing argument.

All logs are base 2.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable

LOG2 = math.log2

#: absolute tolerance of ``balanced_fixed_point``'s bisection
_FIXED_POINT_TOL = 1e-10
#: grid points on which ``balanced_fixed_point`` checks F nonincreasing
_MONOTONE_PROBES = 64


class InvalidParams(ValueError):
    pass


class NonMonotoneF(ValueError):
    """Tabulated or supplied distance-bound function fails the decreasing check."""


def falling(n: int, m: int) -> int:
    """Falling factorial n (n-1) ... (n-m+1); m = 0 gives 1."""
    if m < 0:
        raise ValueError("negative falling factorial length")
    out = 1
    for t in range(m):
        out *= n - t
    return out


@dataclass(frozen=True)
class ProblemParams:
    """Alphabet size b, hash order k, optional form order j (2 <= j <= k-2)."""

    b: int
    k: int
    j: int | None = None

    def __post_init__(self):
        if self.b < 2:
            raise InvalidParams(f"b={self.b} must be >= 2")
        if self.k < 3:
            raise InvalidParams(f"k={self.k} must be >= 3")
        if self.b < self.k:
            raise InvalidParams(f"need b >= k, got ({self.b},{self.k})")
        if self.j is not None and not 2 <= self.j <= self.k - 2:
            raise InvalidParams(f"j={self.j} must satisfy 2 <= j <= k-2={self.k - 2}")


def fredman_komlos(params: ProblemParams) -> float:
    """b^(k-1 falling)/b^(k-1) * log2(b-k+2), valid for b >= k >= 3."""
    b, k = params.b, params.k
    return falling(b, k - 1) / b ** (k - 1) * LOG2(b - k + 2)


def korner_marton(params: ProblemParams) -> tuple[float, int]:
    """min over j in [2, k-2] of b^(j+1 falling)/b^(j+1) * log2((b-j)/(k-j-1)).

    Returns the bound and the minimizing j.  Requires k >= 4 so the range is
    nonempty.
    """
    b, k = params.b, params.k
    if k < 4:
        raise InvalidParams("korner_marton needs k >= 4")
    best, best_j = math.inf, -1
    for j in range(2, k - 1):
        val = falling(b, j + 1) / b ** (j + 1) * LOG2((b - j) / (k - j - 1))
        if val < best:
            best, best_j = val, j
    return best, best_j


def dvj_bound(params: ProblemParams) -> float:
    """(1/log2 b + b^2 / ((b^2-3b+2) log2((b-2)/(k-3))))^-1, for b >= k >= 4.

    k = 3 is rejected: the log divisor degenerates.
    """
    b, k = params.b, params.k
    if k < 4:
        raise InvalidParams("dvj_bound needs k >= 4")
    return 1.0 / (1.0 / LOG2(b) + b * b / ((b * b - 3 * b + 2) * LOG2((b - 2) / (k - 3))))


def rate_from_form_bound(b: int, k: int, j: int, m: float) -> float:
    """Rate bound from an upper bound m on the order-j separation quadratic form.

    Returns (2/(m log2((b-j)/(k-j-1))) + 1/log2(b/(j-1)))^-1.  Strictly
    increasing in m, so any overestimate of the form still yields a valid
    (weaker) rate bound.
    """
    if m <= 0:
        raise InvalidParams(f"form bound m={m!r} must be positive")
    if not 2 <= j <= k - 2:
        raise InvalidParams(f"j={j} must satisfy 2 <= j <= k-2={k - 2}")
    ratio = (b - j) / (k - j - 1)
    base = b / (j - 1)
    if ratio <= 1 or base <= 1:
        raise InvalidParams(f"degenerate logs for (b,k,j)=({b},{k},{j})")
    return 1.0 / (2.0 / (m * LOG2(ratio)) + 1.0 / LOG2(base))


def conjectured_bound(params: ProblemParams) -> float:
    """Conjectural refinement of the j-minimized bound; NOT a theorem.

    min over j in [2, k-2] of
    (1/log2(b/(j-1)) + b^(j+1)/(b^(j+1 falling) log2((b-j)/(k-j-1))))^-1.
    Callers must surface the conjecture flag when reporting this value.
    """
    b, k = params.b, params.k
    if k < 4:
        raise InvalidParams("conjectured_bound needs k >= 4")
    best = math.inf
    for j in range(2, k - 1):
        val = 1.0 / (
            1.0 / LOG2(b / (j - 1))
            + b ** (j + 1) / (falling(b, j + 1) * LOG2((b - j) / (k - j - 1)))
        )
        best = min(best, val)
    return best


# ---------------------------------------------------------------------------
# Balanced-code fixed point: combining a distance bound with the hash argument
# ---------------------------------------------------------------------------


def plotkin_delta(b: int) -> Callable[[float], float]:
    """Distance bound delta(R) from the Plotkin bound for b-ary codes.

    Solving R <= log2(b) (1 - delta b/(b-1)) for delta gives
    delta <= (b-1)/b * (1 - R/log2 b).
    """

    def F(rate: float) -> float:
        return (b - 1) / b * (1.0 - rate / LOG2(b))

    return F


def balanced_fixed_point(
    b: int,
    k: int,
    F: Callable[[float], float],
) -> float:
    """sup{ R : R <= c F(R) } with c = (b-2)^(k-3 falling)/b^(k-3), by bisection.

    F must be continuous and nonincreasing on [0, log2 b]; this is verified on
    a grid of ``_MONOTONE_PROBES`` points and violations are reported via
    NonMonotoneF rather than silently accepted.  The fixed point is located
    to absolute tolerance ``_FIXED_POINT_TOL``.
    """
    if b < k or k < 4:
        raise InvalidParams(f"balanced_fixed_point needs b >= k >= 4, got ({b},{k})")
    c = falling(b - 2, k - 3) / b ** (k - 3)
    if c <= 0:
        raise InvalidParams(f"degenerate combination factor c={c}")
    hi_cap = LOG2(b)
    grid = [hi_cap * t / (_MONOTONE_PROBES - 1) for t in range(_MONOTONE_PROBES)]
    vals = [F(r) for r in grid]
    for a, z in zip(vals, vals[1:]):
        if z > a + 1e-12:
            raise NonMonotoneF("F increases on the probe grid; refusing to bisect")

    def g(rate: float) -> float:
        return c * F(rate) - rate

    lo = 0.0
    if g(hi_cap) >= 0:
        return hi_cap
    hi = hi_cap
    while hi - lo > _FIXED_POINT_TOL:
        mid = 0.5 * (lo + hi)
        if g(mid) >= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def plotkin_combined_k4(b: int) -> float:
    """Rate bound for k = 4 from intersecting the hashing and Plotkin constraints.

    The two primitive inequalities R <= delta (b-2)/b and
    R <= log2(b) (1 - delta b/(b-1)) cross at
    R* = (b-1)(b-2) log2(b) / ((b-1)(b-2) + b^2 log2(b)).
    Computed by the generic fixed-point solver and cross-checked against the
    closed form; disagreement beyond 1e-8 raises.
    """
    if b < 4:
        raise InvalidParams(f"plotkin_combined_k4 needs b >= 4, got {b}")
    closed = (b - 1) * (b - 2) * LOG2(b) / ((b - 1) * (b - 2) + b * b * LOG2(b))
    solved = balanced_fixed_point(b, 4, plotkin_delta(b))
    if abs(solved - closed) > 1e-8:
        raise ArithmeticError(
            f"fixed-point solver ({solved!r}) disagrees with closed form ({closed!r})"
        )
    return solved


def plotkin_crossing_delta(b: int) -> float:
    """Relative distance at the crossing of the two k = 4 constraints.

    delta* = b(b-1) log2(b) / ((b-1)(b-2) + b^2 log2(b)); related to the rate
    by R* = delta* (b-2)/b.  Reported alongside the rate for transparency.
    """
    if b < 4:
        raise InvalidParams(f"plotkin_crossing_delta needs b >= 4, got {b}")
    return b * (b - 1) * LOG2(b) / ((b - 1) * (b - 2) + b * b * LOG2(b))


def load_tabulated_f(path) -> Callable[[float], float]:
    """Load a tabulated distance bound: plain text, two columns "R delta" per line.

    R values must be strictly increasing and delta nonincreasing (checked).
    Returns a piecewise-linear interpolant, clamped to the endpoint values
    outside the tabulated range.
    """
    rs: list[float] = []
    ds: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected two columns, got {line!r}")
            rs.append(float(parts[0]))
            ds.append(float(parts[1]))
    if len(rs) < 2:
        raise ValueError(f"{path}: need at least two rows")
    for a, z in zip(rs, rs[1:]):
        if z <= a:
            raise ValueError(f"{path}: R column must be strictly increasing")
    for a, z in zip(ds, ds[1:]):
        if z > a + 1e-12:
            raise NonMonotoneF(f"{path}: delta column must be nonincreasing")

    def F(rate: float) -> float:
        if rate <= rs[0]:
            return ds[0]
        if rate >= rs[-1]:
            return ds[-1]
        i = bisect.bisect_right(rs, rate) - 1
        t = (rate - rs[i]) / (rs[i + 1] - rs[i])
        return ds[i] + t * (ds[i + 1] - ds[i])

    return F
