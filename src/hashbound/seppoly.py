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
coordinate m removed.  Each of the two sums is one coefficient of a
generating polynomial (Macdonald, *Symmetric Functions and Hall Polynomials*,
section I.2): the [t^j s^1] coefficient of

    prod_i ( 1 + p[i] t + q[i] s )

is sum_m q[m] e_j(p \\ m), and with p and q swapped it is the other sum.
``sep_batch``, the one evaluator the engine uses, multiplies this product out
one coordinate at a time over stacks of vector pairs, truncated to degree j
in t and degree 1 in s; ``_sep_partials`` runs the same recurrence with one
coordinate's factor left out per row, which yields the partial derivatives
the certifier's centred-form bound needs.  Both share one banded pass,
``_generate``, which runs every call in chunks in one module-level workspace
on cached views; ``sep_naive`` enumerates tuples literally and serves as the
verification battery's independent oracle for small b.

All monomials have nonnegative coefficients, and every coefficient update is
a sum of products of nonnegative numbers, so evaluation involves no
cancellation: every routine here is unconditionally stable and monotone
nondecreasing in each coordinate of p and q.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import numpy as np

#: hard cap on b for the naive evaluator (factorial blowup guard)
NAIVE_B_CAP = 8

#: rows per chunk of the bulk evaluator, keeps the workspace near 2 MB at b = 7
_BATCH_CHUNK = 4096
#: the one workspace every call runs in (``_views``); not for concurrent threads
_work = np.empty(0)


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


@functools.lru_cache(maxsize=256)
def _row_bands(b: int, ja: int, jb: int) -> tuple[int, tuple[slice, ...], tuple[tuple, ...]]:
    """``_generate``'s workspace: its rows, those of V, W, A and B (products
    T follow), and the updates in order as (factor, read, product, to): the
    factor a row, the others (first, stop) row bands.
    Only the rows of A and B that can still change ``A[ja]`` or ``B[jb]`` are
    updated; ``A[0]`` is 1, so ``ja = 0`` reads ``B[jb]`` alone.  Before
    coordinate i, rows above i of A and above i-1 of B are still zero; with
    r = b-1-i coordinates left after it, rows of B below jb - r, and of A
    below ja - r or jb + 1 - r, can no longer reach them.  Updating only the
    rows in between leaves both bit-identical to the update of every row: the
    skipped terms add exact zeros or feed no row read."""
    a0, b0, t0 = 2 * b, 2 * b + max(ja, jb) + 1, 2 * b + max(ja, jb) + jb + 2
    updates = []
    for i in range(b):
        r = b - 1 - i
        lo, top = max(0, jb - r), min(i, jb)
        s, lo_a, top_a = max(lo, 1), max(1, ja - r, jb + 1 - r), min(i + 1, max(ja, jb))
        for x, read, to, m in ((i, b0 + s - 1, b0 + s, top + 1 - s),              # B[a] += V_i B[a-1]
                               (b + i, a0 + lo, b0 + lo, top + 1 - lo),           # B[a] += W_i A[a]
                               (i, a0 + lo_a - 1, a0 + lo_a, top_a + 1 - lo_a)):  # A[a] += V_i A[a-1]
            if m > 0:
                updates.append((x, (read, read + m), (t0, t0 + m), (to, to + m)))
    return t0 + b0 - a0, (slice(0, b), slice(b, a0), slice(a0, b0), slice(b0, t0)), tuple(updates)


@functools.cache
def _views(b: int, ja: int, jb: int, width: int) -> tuple[list, list]:
    """``_generate``'s stacks and updates on the workspace, each row (2, width),
    P side first, one view per distinct row or band; growing the workspace
    drops every cached view."""
    global _work
    rows, stacks, plan = _row_bands(b, ja, jb)
    if _work.size < rows * 2 * width:
        _views.cache_clear()
        _work = np.empty(rows * 2 * _BATCH_CHUNK)
    ws = _work[: rows * 2 * width].reshape(rows, 2, width)
    at = {r: ws[r if isinstance(r, int) else slice(*r)] for r in {r for update in plan for r in update}}
    return [ws[s] for s in stacks], [tuple(at[r] for r in update) for update in plan]


def _generate(P: np.ndarray, Q: np.ndarray, ja: int, jb: int,
              drop: np.ndarray | None = None) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """The pass behind ``sep_batch`` and ``_sep_partials``: per chunk of
    ``_BATCH_CHUNK`` rows, its first row, its size n and the coefficients of
    prod_i (1 + V_i t + W_i s), V = [P; Q] against W = [Q; P], without the
    factor of coordinate ``drop[r]`` in row r of both stacks if given:
    ``A[a]`` is the [t^a s^0] one and ``B[a]`` the [t^a s^1] one, each
    (2, width), P side first; only ``A[ja]`` and ``B[jb]`` are complete
    (``_row_bands``).  Each chunk runs on the workspace's views of width n
    rounded up to a multiple of 64 (``_views``), its padded columns zeroed.
    Each product goes to T before its add, so an update reads the previous
    coordinate's rows."""
    N, b = P.shape
    for lo in range(0, N, _BATCH_CHUNK):
        n = min(_BATCH_CHUNK, N - lo)
        (V, W, A, B), updates = _views(b, ja, jb, -(-n // 64) * 64)
        # one row per coordinate, one copy from either memory order
        V[:, 0, :n], V[:, 1, :n], V[:, :, n:] = P[lo : lo + n].T, Q[lo : lo + n].T, 0.0
        if drop is not None:
            at = (drop[lo : lo + n], np.arange(n))
            V[:, 0][at] = V[:, 1][at] = 0.0
        W[:] = V[:, ::-1]
        A[0], A[1:], B[:] = 1.0, 0.0, 0.0
        for x, read, prod, to in updates:
            np.add(to, np.multiply(x, read, prod), to)
        yield lo, n, A, B


def sep_batch(P: np.ndarray, Q: np.ndarray, j: int) -> np.ndarray:
    """S_j over stacks of vector pairs via the generating polynomial.

    P, Q have shape (N, b) with rows paired; returns shape (N,).  The pass
    (``_generate``) stacks V = [P; Q] against W = [Q; P] and multiplies out
    prod_i (1 + V_i t + W_i s) one coordinate at a time, truncated to degree
    j in t and degree 1 in s.  The first half of ``B[j]`` is then
    sum_m q[m] e_j(p \\ m) and the second half sum_m p[m] e_j(q \\ m); they
    swap under P <-> Q and are added last, so the result is exactly
    symmetric in P and Q.  Every update adds products of nonnegative numbers,
    so the evaluation is cancellation-free and, rounding included, monotone
    nondecreasing in each entry of P and Q.  P and Q may come in either
    memory order (the sampler's draws are coordinate-major); each chunk is
    copied once, into the pass's coordinate rows.
    """
    P, Q = np.asarray(P, dtype=float), np.asarray(Q, dtype=float)
    if P.shape != Q.shape or P.ndim != 2:
        raise DimensionMismatch(f"paired stacks required, got {P.shape} and {Q.shape}")
    jf = float(math.factorial(j))
    out = np.empty(P.shape[0])
    for lo, n, _A, B in _generate(P, Q, 0, j):
        np.multiply(np.add(B[j, 0, :n], B[j, 1, :n], out[lo : lo + n]), jf, out[lo : lo + n])
    return out


def _sep_partials(P: np.ndarray, Q: np.ndarray, j: int, drop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """dS_j/dp_i and dS_j/dq_i at i = ``drop[r]`` for every row r, in one pass.

    Factoring coordinate i out of the generating polynomial leaves
    R_i = prod_{l != i} (1 + p_l t + q_l s) and R'_i, the same with p and q
    swapped, and gives

        dS_j/dp_i = j! * ([t^(j-1) s^1] R_i + [t^j s^0] R'_i)
        dS_j/dq_i = j! * ([t^j s^0] R_i + [t^(j-1) s^1] R'_i) .

    Zeroing both p_i and q_i in a column drops its factor, so the pass of
    ``sep_batch`` (``_generate``, reading ``A[j]`` and ``B[j-1]``) yields
    every row's two coefficients, whatever coordinate each row leaves out.
    Both partials are polynomials with nonnegative coefficients in the
    remaining entries.
    """
    P, Q = np.asarray(P, dtype=float), np.asarray(Q, dtype=float)
    jf = float(math.factorial(j))
    dp, dq = np.empty(P.shape[0]), np.empty(P.shape[0])
    for lo, n, A, B in _generate(P, Q, j, j - 1, drop):
        np.multiply(np.add(B[j - 1, 0, :n], A[j, 1, :n], dp[lo : lo + n]), jf, dp[lo : lo + n])
        np.multiply(np.add(A[j, 0, :n], B[j - 1, 1, :n], dq[lo : lo + n]), jf, dq[lo : lo + n])
    return dp, dq
