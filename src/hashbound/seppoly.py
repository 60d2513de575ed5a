"""Separation polynomial on pairs of probability vectors.

For probability vectors p, q in R^b and an order j with 2 <= j <= b-1, the
separation polynomial of order j is the sum over all ordered (j+1)-tuples of
distinct indices (i_1, ..., i_j, m) of

    p[i_1] * ... * p[i_j] * q[m]  +  q[i_1] * ... * q[i_j] * p[m] .

It measures how likely j symbols drawn from one distribution and one symbol
from the other are pairwise distinct, which is what drives the hash-code rate
bounds in :mod:`hashbound.classical`.

Grouping the tuples by their trailing index gives the identity

    S_j(p, q) = j! * sum_m ( q[m] * e_j(p \\ m) + p[m] * e_j(q \\ m) )

where ``e_j(v \\ m)`` is the j-th elementary symmetric polynomial of v with
coordinate m removed.  ``sep_batch``, the one evaluator the engine uses,
applies this form to stacks of vector pairs; ``sep_naive`` enumerates tuples
literally and serves as the verification battery's independent oracle for
small b.

All monomials have nonnegative coefficients, so evaluation involves no
cancellation: every routine here is unconditionally stable and monotone
nondecreasing in each coordinate of p and q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import numpy as np

#: hard cap on b for the naive evaluator (factorial blowup guard)
NAIVE_B_CAP = 8

#: chunk size for the bulk evaluator, keeps the prefix/suffix tables small
_BATCH_CHUNK = 8192


class DimensionMismatch(ValueError):
    """p, q and the declared alphabet size disagree."""


class NaiveCapExceeded(ValueError):
    """sep_naive called with b beyond its factorial-safe cap."""


@dataclass(frozen=True)
class SepParams:
    """Alphabet size b and polynomial order j, with 2 <= j <= b-1."""

    b: int
    j: int

    def __post_init__(self):
        if self.b < 2:
            raise ValueError(f"alphabet size b={self.b} must be >= 2")
        if not 2 <= self.j <= self.b - 1:
            raise ValueError(f"order j={self.j} must satisfy 2 <= j <= b-1={self.b - 1}")


def sep_naive(p, q, params: SepParams) -> float:
    """Literal tuple-enumeration evaluator; independent oracle, b <= NAIVE_B_CAP only.

    ``p`` and ``q`` are plain length-b sequences of nonnegative reals.
    """
    if len(p) != params.b or len(q) != params.b:
        raise DimensionMismatch(f"expected dimension {params.b}, got {len(p)} and {len(q)}")
    if params.b > NAIVE_B_CAP:
        raise NaiveCapExceeded(f"b={params.b} exceeds naive cap {NAIVE_B_CAP}")
    pv = [float(v) for v in p]
    qv = [float(v) for v in q]
    j = params.j
    total = 0.0
    for tup in permutations(range(params.b), j + 1):
        m = tup[j]
        pprod = 1.0
        qprod = 1.0
        for i in tup[:j]:
            pprod *= pv[i]
            qprod *= qv[i]
        total += pprod * qv[m] + qprod * pv[m]
    return total


def sep_uniform_fraction(params: SepParams) -> Fraction:
    """Exact value of the separation polynomial at two uniform vectors.

    Equals 2 * b^(j+1 falling) / b^(j+1); integer arithmetic throughout.
    """
    b, j = params.b, params.j
    num = 2
    for t in range(j + 1):
        num *= b - t
    return Fraction(num, b ** (j + 1))


def sep_uniform_exact(params: SepParams) -> float:
    return float(sep_uniform_fraction(params))


def _loo_esym(V: np.ndarray, j: int) -> np.ndarray:
    """Leave-one-out elementary symmetric values for a stack of vectors.

    V has shape (N, b); the result ``out[n, m] = e_j(V[n] without column m)``.
    Uses prefix/suffix tables: e_j(v \\ m) = sum_t pre[m][t] * suf[m+1][j-t].
    Still cancellation-free (sums of nonnegative products only).
    """
    N, b = V.shape
    pre = np.zeros((b + 1, j + 1, N))
    pre[0, 0] = 1.0
    for m in range(b):
        v = V[:, m]
        pre[m + 1, 0] = pre[m, 0]
        for t in range(1, j + 1):
            pre[m + 1, t] = pre[m, t] + v * pre[m, t - 1]
    suf = np.zeros((b + 1, j + 1, N))
    suf[b, 0] = 1.0
    for m in range(b - 1, -1, -1):
        v = V[:, m]
        suf[m, 0] = suf[m + 1, 0]
        for t in range(1, j + 1):
            suf[m, t] = suf[m + 1, t] + v * suf[m + 1, t - 1]
    # out[m] = sum_t pre[m, t] * suf[m+1, j-t]
    left = pre[:b]                      # (b, j+1, N)
    right = suf[1:, ::-1, :]            # right[m, t] = suf[m+1][j-t]
    return np.einsum("mtn,mtn->nm", left, right)


def sep_batch(P: np.ndarray, Q: np.ndarray, j: int) -> np.ndarray:
    """S_j over stacks of vectors via the leave-one-out identity.

    P, Q have shape (N, b) with rows paired; returns shape (N,).  The two
    per-row sums swap under P <-> Q and are added last, so the result is
    exactly symmetric in P and Q.
    """
    P = np.ascontiguousarray(P, dtype=float)
    Q = np.ascontiguousarray(Q, dtype=float)
    if P.shape != Q.shape or P.ndim != 2:
        raise DimensionMismatch(f"paired stacks required, got {P.shape} and {Q.shape}")
    N = P.shape[0]
    jf = float(math.factorial(j))
    out = np.empty(N)
    for lo in range(0, N, _BATCH_CHUNK):
        hi = min(lo + _BATCH_CHUNK, N)
        Pc, Qc = P[lo:hi], Q[lo:hi]
        loo_p = _loo_esym(Pc, j)
        loo_q = _loo_esym(Qc, j)
        out[lo:hi] = jf * ((Qc * loo_p).sum(axis=1) + (Pc * loo_q).sum(axis=1))
    return out
