"""Finite candidate-configuration families for the partitioned form maxima.

The probability simplex is split into b+1 cells: a bulk cell and b tagged
cells.  For the max-value partition a vector is tagged by a coordinate
exceeding 1-eps; for the min-value partition by its minimum coordinate lying
below eps (ties broken toward the earliest strictly-smaller coordinate).  The
four cell-pair maxima of the separation polynomial,

    m1 = sup over bulk x bulk        m2 = sup over bulk x tagged
    m3 = sup over same tag pairs     m4 = sup over distinct tag pairs,

are each attained (or upper bounded) on a finite list of block-structured
configurations: vectors made of constant blocks drawn from {0, eps, 1-eps, 1}
and repeated-value blocks whose common values are affine in at most three
free variables after eliminating one normalization identity per vector.

This module builds those configuration lists.  Each configuration keeps its
affine map as block arrays, for structure, and at coordinate level
(``Configuration.coords``), the one map that is evaluated.  Optimizing each
configuration is :mod:`hashbound.optimize`'s job.

Conventions used by every family below:

* block multiplicities always sum to b on each side;
* one variable per side is eliminated against the unit-sum identity, so any
  in-box assignment yields vectors summing to 1 exactly (up to float rounding
  of the elimination itself);
* a per-family cap restricts how many zero coordinates a side may carry:
  either exactly a special count (b-2 or b-1, family dependent) or at most
  b-j.  Whether a standalone structural zero counts toward that total is
  ambiguous, so both readings are enumerated and the union kept; extra
  configurations can only raise the computed maximum, which is the safe
  direction for an upper bound;
* swapping p and q leaves the polynomial unchanged, so a family whose twin
  (l1 and l2 swapped, and gamma and zeta in ``max-m4/opposed-zeros``) is that
  swap up to a coordinate permutation, with the same boxes, yields one twin
  only: l1 <= l2, and gamma <= zeta when l1 = l2.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

import numpy as np

_FEAS_TOL = 1e-12
_SUM_TOL = 1e-9


class PartitionKind(Enum):
    MAX_VALUE = "max"
    MIN_VALUE = "min"


class CellPair(Enum):
    """Which pair of partition cells a maximum ranges over."""

    BULK_BULK = "m1"
    BULK_TAGGED = "m2"
    TAGGED_SAME = "m3"
    TAGGED_CROSS = "m4"

    @property
    def label(self) -> str:
        return self.value


#: selectors whose published reductions only upper-bound the true supremum
UPPER_BOUND_ONLY = {
    (PartitionKind.MAX_VALUE, CellPair.BULK_TAGGED),
    (PartitionKind.MIN_VALUE, CellPair.TAGGED_SAME),
    (PartitionKind.MIN_VALUE, CellPair.TAGGED_CROSS),
}


@dataclass(frozen=True)
class PartitionSpec:
    """Partition kind plus its threshold eps."""

    kind: PartitionKind
    eps: float

    def validate(self, b: int, j: int) -> None:
        if self.kind is PartitionKind.MAX_VALUE:
            if not 0.0 < self.eps <= 1.0 / (j + 1):
                raise ValueError(
                    f"max-value partition needs 0 < eps <= 1/(j+1)={1.0 / (j + 1):.6g}, "
                    f"got {self.eps!r}"
                )
        else:
            if not 0.0 < self.eps < 1.0 / b:
                raise ValueError(
                    f"min-value partition needs 0 < eps < 1/b={1.0 / b:.6g}, got {self.eps!r}"
                )


@dataclass(frozen=True)
class FreeVar:
    name: str
    lo: float
    hi: float


@dataclass(frozen=True)
class Block:
    """mult coordinates sharing the value const + sum(coef * x[idx]).

    [lo, hi] is the range the value must stay in for the assignment to be a
    point of the family; assignments violating it are masked out, not clipped.
    """

    mult: int
    const: float
    coeffs: tuple[tuple[int, float], ...]
    lo: float
    hi: float


class BlockArrays(NamedTuple):
    """A configuration's blocks as arrays, p blocks first: block i takes the
    value const[i] + coef[i] . x (coef is dense, zero where ``Block.coeffs``
    names no variable), must stay in [lo[i], hi[i]] and fills mult[i]
    coordinates."""

    const: np.ndarray
    coef: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    mult: np.ndarray


@dataclass(frozen=True)
class Configuration:
    b: int
    j: int
    family: str
    discrete: tuple[tuple[str, float], ...]
    blocks_p: tuple[Block, ...]
    blocks_q: tuple[Block, ...]
    free: tuple[FreeVar, ...]

    def __post_init__(self):
        for side, blocks in (("p", self.blocks_p), ("q", self.blocks_q)):
            total = sum(blk.mult for blk in blocks)
            if total != self.b:
                raise ValueError(f"{side}-side multiplicities sum to {total}, not b={self.b}")

    @property
    def dim(self) -> int:
        return len(self.free)

    @functools.cached_property
    def arrays(self) -> BlockArrays:
        """The blocks as arrays: the structure ``coords`` and ``chain_rule``
        are built from; every evaluation reads ``coords``."""
        blocks = self.blocks_p + self.blocks_q
        coef = np.zeros((len(blocks), self.dim))
        for row, blk in enumerate(blocks):
            for idx, c in blk.coeffs:
                coef[row, idx] = c
        return BlockArrays(np.array([blk.const for blk in blocks]), coef,
                           np.array([blk.lo for blk in blocks]), np.array([blk.hi for blk in blocks]),
                           np.array([blk.mult for blk in blocks]))

    @functools.cached_property
    def coords(self) -> BlockArrays:
        """The affine map that is evaluated, at coordinate level, p coordinates
        first: each block of ``arrays`` repeated by its mult, so every mult is
        1, its band padded by ``_FEAS_TOL``."""
        const, coef, lo, hi, mult = (np.repeat(v, self.arrays.mult, axis=0) for v in self.arrays)
        return BlockArrays(const, coef, lo - _FEAS_TOL, hi + _FEAS_TOL, np.ones_like(mult))

    @functools.cached_property
    def chain_rule(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Runs of coordinates with the same p-block and q-block, hence the
        same partials: each run's first coordinate and Cp, Cq (runs, dim), the
        run length times each free variable's coefficient in the two blocks,
        so df/dx_k = sum over runs of Cp[., k] dS/dp + Cq[., k] dS/dq there."""
        A, b = self.arrays, self.b
        owner = np.repeat(np.arange(len(A.mult)), A.mult)
        starts = np.flatnonzero(np.diff(owner[:b], prepend=-1) | np.diff(owner[b:], prepend=-1))
        lengths = np.diff(starts, append=b)[:, None]
        return starts, lengths * A.coef[owner[starts]], lengths * A.coef[owner[b + starts]]

    def block_values(self, X: np.ndarray) -> np.ndarray:
        """Every coordinate's value at each row of X (N, dim), shape (N, 2b),
        p first: const, then coef * x added one free variable at a time in
        index order, on ``coords`` built coordinate-major."""
        C = self.coords
        R = np.repeat(C.const[:, None], X.shape[0], axis=1)
        for k in range(self.dim):
            R += np.multiply.outer(C.coef[:, k], X[:, k])
        return R.T

    def block_ranges(self, los: np.ndarray, his: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Range of every coordinate's value over each box [los, his], shape
        (n, 2b) twice, p first: interval arithmetic adding the terms of
        ``block_values`` in its order, so by monotone rounding each end is that
        routine's value at a corner of the box, and a point box gets its
        values exactly."""
        C = self.coords
        vlo = np.repeat(C.const[None], los.shape[0], axis=0)
        vhi = vlo.copy()
        for k in range(self.dim):
            at_lo, at_hi = C.coef[:, k] * los[:, k, None], C.coef[:, k] * his[:, k, None]
            vlo += np.minimum(at_lo, at_hi)
            vhi += np.maximum(at_lo, at_hi)
        return vlo, vhi

    def assemble(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Substitute assignments X (N, dim) -> (P, Q, feasible mask):
        ``block_values`` and whether each row stays in the padded bands."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        V, C = self.block_values(X), self.coords
        return V[:, : self.b], V[:, self.b :], ((V >= C.lo) & (V <= C.hi)).all(axis=1)

    def point(self, x: Sequence[float]) -> tuple[np.ndarray, np.ndarray, bool]:
        P, Q, feas = self.assemble(np.asarray(x, dtype=float).reshape(1, -1))
        return P[0], Q[0], bool(feas[0])

    def describe(self) -> str:
        parts = [f"{self.family}"] + [f"{k}={v:g}" for k, v in self.discrete]
        return " ".join(parts)


# ---------------------------------------------------------------------------
# configuration builder
# ---------------------------------------------------------------------------

#: one side of a family shape: (multiplicity, constant value or free variable)
Entry = tuple[int, float | FreeVar]
#: what a family generator yields: (family, discrete choices, p entries, q entries)
Shape = tuple[str, tuple[tuple[str, float], ...], list[Entry], list[Entry]]


def _side(entries: Sequence[Entry], base: int) -> tuple[tuple[Block, ...], list[FreeVar]] | None:
    """Blocks of one side and the boxes of its free variables, numbered from base.

    The last variable entry is eliminated against the unit-sum identity and
    the others keep their own boxes, tightened against it.  Returns None when
    the side is infeasible (empty box or inconsistent constants).
    """
    entries = [(m, s) for m, s in entries if m > 0]
    residual = 1.0 - math.fsum(m * s for m, s in entries if not isinstance(s, FreeVar))
    unknowns = [(pos, m, s) for pos, (m, s) in enumerate(entries) if isinstance(s, FreeVar)]
    if not unknowns:
        if abs(residual) > _SUM_TOL:
            return None
        return tuple(Block(m, s, (), s, s) for m, s in entries), []
    *frees, (elim_pos, elim_mult, elim) = unknowns
    # tighten each free box against the elimination identity
    boxes = []
    for i, (_, mi, si) in enumerate(frees):
        others = [(mw, sw) for t, (_, mw, sw) in enumerate(frees) if t != i]
        lo_rest = elim_mult * elim.lo + math.fsum(mw * sw.lo for mw, sw in others)
        hi_rest = elim_mult * elim.hi + math.fsum(mw * sw.hi for mw, sw in others)
        lo = max(si.lo, (residual - hi_rest) / mi)
        hi = min(si.hi, (residual - lo_rest) / mi)
        if lo > hi + _FEAS_TOL:
            return None
        boxes.append(FreeVar(si.name, lo, hi))
    # emptiness check for the eliminated block
    lo_att = (residual - math.fsum(m * fv.hi for (_, m, _), fv in zip(frees, boxes))) / elim_mult
    hi_att = (residual - math.fsum(m * fv.lo for (_, m, _), fv in zip(frees, boxes))) / elim_mult
    if hi_att < elim.lo - _FEAS_TOL or lo_att > elim.hi + _FEAS_TOL:
        return None
    index = {pos: base + t for t, (pos, _, _) in enumerate(frees)}
    blocks = []
    for pos, (m, s) in enumerate(entries):
        if not isinstance(s, FreeVar):
            blocks.append(Block(m, s, (), s, s))
        elif pos == elim_pos:
            coeffs = tuple((index[fp], -fm / elim_mult) for fp, fm, _ in frees)
            blocks.append(Block(m, residual / elim_mult, coeffs, s.lo, s.hi))
        else:
            blocks.append(Block(m, 0.0, ((index[pos], 1.0),), s.lo, s.hi))
    return tuple(blocks), boxes


def _build_config(
    b: int,
    j: int,
    family: str,
    discrete: Sequence[tuple[str, float]],
    p_entries: Sequence[Entry],
    q_entries: Sequence[Entry],
) -> Configuration | None:
    """Assemble a configuration, eliminating one variable per side.

    Entries are (mult, c) for a constant block c or (mult, FreeVar) for a
    block with its own variable and range (``_V``); zero multiplicities are
    dropped.  Returns None when the family instance is infeasible.
    """
    p = _side(p_entries, 0)
    q = None if p is None else _side(q_entries, len(p[1]))
    if q is None:
        return None
    return Configuration(b, j, family, tuple(discrete), p[0], q[0], tuple(p[1] + q[1]))


def _configs(b: int, j: int, shapes: Iterable[Shape]) -> list[Configuration]:
    """The feasible configurations of a family generator's shapes, in order."""
    return [cfg for shape in shapes if (cfg := _build_config(b, j, *shape)) is not None]


def _admit(readings: Iterable[int], special: int, b: int, j: int) -> bool:
    """Some reading of a side's zero count is the special count or at most b-j."""
    return any(c == special or c <= b - j for c in readings)


def _V(name: str, lo: float, hi: float) -> FreeVar:
    return FreeVar(name, float(lo), float(hi))


# ---------------------------------------------------------------------------
# family generators: each yields the shapes of its family instances
# ---------------------------------------------------------------------------


def _global_max_families(b, j, _eps=None):
    """Unconstrained-maximum families: zero blocks in opposing positions.

    Shape (0^l1, a^l2, c^m ; d^l1, 0^l2, e^m); zero counts b-1 or at most b-j.
    Used for the bulk/tagged selector of the max partition, the cross-tag
    selector of the min partition, and the global shortcut path.  The
    families do not depend on eps; ``_eps`` only matches the signature of
    the other generators in ``_FAMILIES``.
    """
    special = b - 1
    for l1 in range(0, b + 1):
        if not _admit((l1,), special, b, j):
            continue
        for l2 in range(l1, b + 1 - l1):
            if not _admit((l2,), special, b, j):
                continue
            m = b - l1 - l2
            yield ("global/opposed-zeros", (("l1", l1), ("l2", l2)),
                   [(l1, 0.0), (l2, _V("a", 0, 1)), (m, _V("c", 0, 1))],
                   [(l1, _V("d", 0, 1)), (l2, 0.0), (m, _V("e", 0, 1))])


def _max_m1_families(b, j, eps):
    cap = 1.0 - eps
    special = b - 2
    for l1 in range(0, b + 1):
        for l2 in range(0, b + 1 - l1):
            # case 1: both sides carry a capped coordinate, opposed zeros next to it
            m = b - l1 - l2 - 2
            if l1 <= l2 and m >= 0 and _admit((l1 + 1, l1), special, b, j) and _admit((l2 + 1, l2), special, b, j):
                yield ("max-m1/both-capped", (("l1", l1), ("l2", l2)),
                       [(l1, 0.0), (l2, _V("a", 0, cap)), (m, _V("c", 0, cap)), (1, 0.0), (1, cap)],
                       [(l1, _V("d", 0, cap)), (l2, 0.0), (m, _V("e", 0, cap)), (1, cap), (1, 0.0)])
            # case 2: only q carries a capped coordinate
            m = b - l1 - l2 - 1
            if m >= 0 and _admit((l1 + 1, l1), special, b, j) and _admit((l2,), special, b, j):
                yield ("max-m1/one-capped", (("l1", l1), ("l2", l2)),
                       [(l1, 0.0), (l2, _V("a", 0, cap)), (m, _V("c", 0, cap)), (1, 0.0)],
                       [(l1, _V("d", 0, cap)), (l2, 0.0), (m, _V("e", 0, cap)), (1, cap)])
            # case 3: no capped coordinate on either side
            m = b - l1 - l2
            if l1 <= l2 and _admit((l1,), special, b, j) and _admit((l2,), special, b, j):
                yield ("max-m1/uncapped", (("l1", l1), ("l2", l2)),
                       [(l1, 0.0), (l2, _V("a", 0, cap)), (m, _V("c", 0, cap))],
                       [(l1, _V("d", 0, cap)), (l2, 0.0), (m, _V("e", 0, cap))])


def _max_m3_families(b, j, eps):
    cap = 1.0 - eps
    special = b - 2
    for l1 in range(0, b):
        if not _admit((l1,), special, b, j):
            continue
        for l2 in range(l1, b - l1):
            if not _admit((l2,), special, b, j):
                continue
            m = b - 1 - l1 - l2
            yield ("max-m3/shared-cap", (("l1", l1), ("l2", l2)),
                   [(1, cap), (l1, 0.0), (l2, _V("a", 0, eps)), (m, _V("c", 0, eps))],
                   [(1, cap), (l1, _V("d", 0, eps)), (l2, 0.0), (m, _V("e", 0, eps))])


def _max_m4_families(b, j, eps):
    cap = 1.0 - eps
    special = b - 1
    # case 1: free cap levels on both sides, no interior zeros
    yield ("max-m4/plain", (),
           [(1, _V("g", cap, 1)), (b - 2, _V("a", 0, 1)), (1, 0.0)],
           [(1, 0.0), (b - 2, _V("d", 0, 1)), (1, _V("z", cap, 1))])
    # case 2: zeros in p only; q's cap pinned to an endpoint
    for l1 in range(1, b - 1):
        if not _admit((l1 + 1, l1), special, b, j):
            continue
        m = b - l1 - 2
        for zeta in (cap, 1.0):
            yield ("max-m4/p-zeros", (("l1", l1), ("zeta", zeta)),
                   [(1, _V("g", cap, 1)), (l1, 0.0), (m, _V("a", 0, 1)), (1, 0.0)],
                   [(1, 0.0), (l1, _V("d", 0, 1)), (m, _V("e", 0, 1)), (1, zeta)])
    # case 3: opposed zeros on both sides; both caps pinned to endpoints
    for l1 in range(1, b - 1):
        if not _admit((l1 + 1, l1), special, b, j):
            continue
        for l2 in range(l1, b - 1 - l1):
            if not _admit((l2 + 1, l2), special, b, j):
                continue
            m = b - l1 - l2 - 2
            for gamma, zeta in itertools.product((cap, 1.0), repeat=2):
                if l1 == l2 and gamma > zeta:
                    continue
                yield ("max-m4/opposed-zeros", (("l1", l1), ("l2", l2), ("gamma", gamma), ("zeta", zeta)),
                       [(1, gamma), (l1, 0.0), (l2, _V("a", 0, 1)), (m, _V("c", 0, 1)), (1, 0.0)],
                       [(1, 0.0), (l1, _V("d", 0, 1)), (l2, 0.0), (m, _V("e", 0, 1)), (1, zeta)])


def _min_m1_families(b, j, eps):
    for l1 in range(0, b + 1):
        for l2 in range(l1, b + 1 - l1):
            m = b - l1 - l2
            yield ("min-m1/floor-blocks", (("l1", l1), ("l2", l2)),
                   [(l1, eps), (l2, _V("a", eps, 1)), (m, _V("c", eps, 1))],
                   [(l1, _V("d", eps, 1)), (l2, eps), (m, _V("e", eps, 1))])


def _min_m2_families(b, j, eps):
    special = b - 1
    # case 1: p small on the block facing q's raised block
    for l1 in range(1, b + 1):
        yield ("min-m2/avg-small", (("l1", l1),),
               [(l1, _V("a", 0, eps)), (b - l1, _V("c", 0, 1))],
               [(l1, _V("e", eps, 1)), (b - l1, eps)])
    # case 2: p pinned at eps on the lead coordinate
    for l1 in range(0, b):
        m = b - l1 - 1
        yield ("min-m2/lead-eps", (("l1", l1),),
               [(1, eps), (l1, _V("a", 0, 1)), (m, _V("c", 0, 1))],
               [(1, _V("z", eps, 1)), (l1, _V("e", eps, 1)), (m, eps)])
    # case 3: p carries zeros
    for l1 in range(1, b + 1):
        if not _admit((l1,), special, b, j):
            continue
        for l2 in range(0, b + 1 - l1):
            m = b - l1 - l2
            yield ("min-m2/p-zeros", (("l1", l1), ("l2", l2)),
                   [(l1, 0.0), (l2, _V("a", 0, 1)), (m, _V("c", 0, 1))],
                   [(l1, _V("d", eps, 1)), (l2, _V("e", eps, 1)), (m, eps)])


def _min_m3_families(b, j, eps):
    special = b - 1
    for l1 in range(0, b + 1):
        if not _admit((l1,), special, b, j):
            continue
        for l2 in range(0, b + 1 - l1):
            # case 1: lead coordinates folded into the sub-eps tail blocks
            mm = b - l1 - l2
            if l1 <= l2 and mm >= 1 and _admit((l2,), special, b, j):
                yield ("min-m3/folded", (("l1", l1), ("l2", l2)),
                       [(l1, 0.0), (l2, _V("a", 0, 1)), (mm, _V("c", 0, eps))],
                       [(l1, _V("d", 0, 1)), (l2, 0.0), (mm, _V("e", 0, eps))])
            # cases 2 and 3: free lead on p, q lead pinned at 0 or eps
            m = mm - 1
            if m < 0:
                continue
            for q1, tag, zq in ((0.0, "min-m3/q-lead-zero", (l2 + 1, l2)), (eps, "min-m3/q-lead-eps", (l2,))):
                if _admit(zq, special, b, j):
                    yield (tag, (("l1", l1), ("l2", l2), ("q1", q1)),
                           [(1, _V("g", 0, eps)), (l1, 0.0), (l2, _V("a", 0, 1)), (m, _V("c", 0, 1))],
                           [(1, q1), (l1, _V("d", 0, 1)), (l2, 0.0), (m, _V("e", 0, 1))])


#: the family generator of every (partition kind, cell pair)
_FAMILIES = {
    (PartitionKind.MAX_VALUE, CellPair.BULK_BULK): _max_m1_families,
    (PartitionKind.MAX_VALUE, CellPair.BULK_TAGGED): _global_max_families,
    (PartitionKind.MAX_VALUE, CellPair.TAGGED_SAME): _max_m3_families,
    (PartitionKind.MAX_VALUE, CellPair.TAGGED_CROSS): _max_m4_families,
    (PartitionKind.MIN_VALUE, CellPair.BULK_BULK): _min_m1_families,
    (PartitionKind.MIN_VALUE, CellPair.BULK_TAGGED): _min_m2_families,
    (PartitionKind.MIN_VALUE, CellPair.TAGGED_SAME): _min_m3_families,
    (PartitionKind.MIN_VALUE, CellPair.TAGGED_CROSS): _global_max_families,
}


def enumerate_candidates(
    spec: PartitionSpec, which: CellPair, b: int, j: int
) -> list[Configuration]:
    """All candidate configurations for one cell-pair maximum.

    Every admissible (l1, l2) pair subject to nonnegative block sizes and the
    family's zero-count cap, crossed with the discrete endpoint choices where
    the family allows them.  An empty result for a particular family just
    means that family is vacuous at these sizes; getting back an empty *list*
    means every family was vacuous, which callers should treat as an error.
    """
    spec.validate(b, j)
    return _configs(b, j, _FAMILIES[(spec.kind, which)](b, j, float(spec.eps)))


def global_candidates(b: int, j: int) -> list[Configuration]:
    """Configurations covering the unconstrained maximum of the polynomial."""
    return _configs(b, j, _global_max_families(b, j))
