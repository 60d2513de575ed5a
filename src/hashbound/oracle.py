"""Independent checks grounding the engine from below.

* subdomain sampling: lower-bounds each cell-pair maximum with true members
  of the cell pair, so engine values can be validated from below; the cells
  are drawn by direct constructions into coordinate-major buffers (one row
  per coordinate), and the exact membership predicates still filter every row;
  the P side draws on a helper thread while the caller draws the Q side, and
  the caller alone evaluates;
* the (b,k)-hash property checker and an exhaustive tiny-length code search,
  grounding the definitions the asymptotic bounds speak about;
* sampled inequality suites for the four exchange/merge lemmas the
  configuration reductions rest on.

Everything stochastic takes an explicit seed; the two sides of a sampled pair
draw from generators spawned from one seed sequence, so results are
reproducible.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .configs import CellPair, PartitionKind, PartitionSpec
from .seppoly import SepParams, sep_batch

_INCONCLUSIVE_ACCEPT_RATE = 1e-4
#: absolute slack a sampled value may exceed the engine value by and still count as dominated
_DOMINANCE_SLACK = 1e-9


# ---------------------------------------------------------------------------
# cell membership and sampling
# ---------------------------------------------------------------------------


def _bulk_mask(V: np.ndarray, spec: PartitionSpec) -> np.ndarray:
    C = V.T   # one row per coordinate, contiguous for the draws below
    if spec.kind is PartitionKind.MAX_VALUE:
        return (C <= 1.0 - spec.eps).all(axis=0)
    return (C >= spec.eps).all(axis=0)


def _tagged_mask(V: np.ndarray, spec: PartitionSpec, i: int) -> np.ndarray:
    C = V.T
    vi = C[i]
    if spec.kind is PartitionKind.MAX_VALUE:
        return vi > 1.0 - spec.eps
    ok = (vi < spec.eps) & (C >= vi).all(axis=0)
    if i > 0:
        ok &= (C[:i] > vi).all(axis=0)
    return ok


#: rows per block of a side's draw: one block's row-major exponentials are
#: the only scratch of their kind, so no (n, b) array is made beside the
#: caller's coordinate rows
_BLOCK = 1 << 14


class _Side:
    """One side's buffers, owned by the caller: coordinate rows for up to
    ``cap`` members, the first ``have`` of them drawn and waiting, and the
    scratch of one block of draws."""

    def __init__(self, b: int, cap: int, tag: int | None):
        block = min(cap, _BLOCK)
        self.V = np.empty((b, cap))
        self.have = 0
        self.exp = np.empty((block, b if tag is None else b - 1))
        self.inv = np.empty(block)
        # the tagged coordinate of every draw, and one block of its factor
        self.vi = np.empty(0 if tag is None else cap)
        self.factor = np.empty(0 if tag is None else block)

    def rows(self) -> np.ndarray:
        return self.V[:, : self.have].T

    def keep(self, blk: np.ndarray, ok: np.ndarray) -> None:
        """Count the members of ``blk``, the block just drawn after the
        waiting rows, moving them up over the rejected ones."""
        if ok.all():
            self.have += blk.shape[1]
        else:
            m = int(ok.sum())
            blk[:, :m] = blk[:, ok]
            self.have += m

    def drop(self, m: int) -> None:
        """Let the first ``m`` waiting rows go; the rest move up."""
        self.have -= m
        if self.have:
            self.V[:, : self.have] = self.V[:, m : m + self.have]


def _exponentials(rng: np.random.Generator, side: _Side, c: int) -> tuple[np.ndarray, np.ndarray]:
    """One block of c Dirichlet(1) rows as (E, s): ``E * s[:, None]`` equals
    ``rng.dirichlet(np.ones(k), size=c)`` bit for bit, generator state
    included, since numpy draws each row as exponentials, sums them left to
    right and multiplies by the reciprocal of the sum."""
    E, s = side.exp[:c], side.inv[:c]
    rng.standard_exponential(out=E)
    np.copyto(s, E[:, 0])
    for col in range(1, E.shape[1]):
        s += E[:, col]
    np.divide(1.0, s, out=s)
    return E, s


def _draw_bulk(rng: np.random.Generator, spec: PartitionSpec, b: int, n: int, side: _Side) -> np.ndarray:
    """Draw n candidates of the bulk cell; its members join ``side``'s
    waiting rows, returned as (have, b)."""
    for lo in range(0, n, _BLOCK):
        c = min(_BLOCK, n - lo)
        blk = side.V[:, side.have : side.have + c]
        E, s = _exponentials(rng, side, c)
        np.multiply(E.T, s, out=blk)
        if spec.kind is PartitionKind.MIN_VALUE:
            # {v >= eps} is the simplex scaled by 1 - b eps about eps 1
            blk *= 1.0 - b * spec.eps
            blk += spec.eps
        side.keep(blk, _bulk_mask(blk.T, spec))
    return side.rows()


def _draw_tagged(rng: np.random.Generator, spec: PartitionSpec, b: int, i: int, n: int,
                 side: _Side) -> np.ndarray:
    """Draw n candidates of tagged cell i, as ``_draw_bulk`` does: the other
    b - 1 coordinates fill the rows before and after row i, which takes the
    tagged coordinate."""
    vi = rng.random(out=side.vi[:n])
    if spec.kind is PartitionKind.MAX_VALUE:
        # v_i = 1 - eps + eps u, uniform on [1 - eps, 1)
        vi *= spec.eps
        vi += 1.0 - spec.eps
    else:
        # v -> (m = v_i, v - m): the minimum m has density proportional to
        # (1 - b m)^(b-2) on [0, eps), drawn by inverse CDF; given m, the
        # rest is m plus the simplex scaled by 1 - b m; in place,
        # m = -expm1(log1p(-scale u) / (b - 1)) / b
        scale = -np.expm1((b - 1) * math.log1p(-b * spec.eps))
        np.multiply(-scale, vi, out=vi)
        np.log1p(vi, out=vi)
        vi /= b - 1
        np.expm1(vi, out=vi)
        np.negative(vi, out=vi)
        vi /= b
    for lo in range(0, n, _BLOCK):
        c = min(_BLOCK, n - lo)
        v, f = vi[lo : lo + c], side.factor[:c]
        blk = side.V[:, side.have : side.have + c]
        E, s = _exponentials(rng, side, c)
        if spec.kind is PartitionKind.MAX_VALUE:
            np.subtract(1.0, v, out=f)
        else:
            np.subtract(1.0, np.multiply(v, b, out=f), out=f)
        for dst, src in ((blk[:i], E[:, :i]), (blk[i + 1 :], E[:, i:])):
            np.multiply(src.T, s, out=dst)
            dst *= f
            if spec.kind is PartitionKind.MIN_VALUE:
                dst += v
        blk[i] = v
        side.keep(blk, _tagged_mask(blk.T, spec, i))
    return side.rows()


#: per selector, the tagged coordinate of each side's cell (None: the bulk)
_SELECTOR_CELLS = {
    CellPair.BULK_BULK: (None, None),
    CellPair.BULK_TAGGED: (None, 0),
    CellPair.TAGGED_SAME: (0, 0),
    CellPair.TAGGED_CROSS: (0, 1),
}


def _beside(helper: Callable[[], None], caller: Callable[[], None]) -> None:
    """Run ``helper`` on a new thread while this thread runs ``caller``.

    The thread is joined on every path, so none outlives the call, and an
    exception raised by ``helper`` is raised here, once ``caller`` is done.
    """
    failed: list[BaseException] = []

    def run() -> None:
        try:
            helper()
        except BaseException as exc:   # forwarded: the caller raises it
            failed.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    try:
        caller()
    finally:
        thread.join()
    if failed:
        raise failed[0]


@dataclass(frozen=True)
class SampleReport:
    selector: CellPair
    kind: PartitionKind
    eps: float
    b: int
    j: int
    requested: int
    evaluated: int
    best_value: float
    best_p: tuple[float, ...]
    best_q: tuple[float, ...]
    inconclusive: bool
    engine_value: float | None = None

    def dominated(self, engine_value: float) -> bool:
        return bool(self.best_value <= engine_value + _DOMINANCE_SLACK)


def sample_subdomain(
    spec: PartitionSpec,
    which: CellPair,
    b: int,
    j: int,
    count: int,
    seed: int,
    *,
    engine_value: float | None = None,
) -> SampleReport:
    """Best polynomial value over ``count`` sampled members of the cell pair.

    Each side is drawn by a direct construction, with w a uniform
    (Dirichlet(1)) simplex vector.  The min cells and the max bulk get the
    uniform law on the simplex restricted to the cell (uniform spacings;
    Devroye, *Non-Uniform Random Variate Generation*, 1986, ch. 5):

    * min bulk, all v >= eps: v = eps 1 + (1 - b eps) w;
    * min tagged i, v_i the minimum below eps: v_i = m, whose density is
      proportional to (1 - b m)^(b-2) on [0, eps), drawn by inverse CDF, and
      v_k = m + (1 - b m) w_k for k != i;
    * max bulk: w itself, rejected when some coordinate exceeds 1 - eps
      (a share of at most b eps^(b-1)).

    The max tagged cell i takes v_i uniform on [1 - eps, 1) and the rest
    (1 - v_i) w, which weights v_i = 1 more than the uniform law does.
    Each side draws in place into buffers this call owns: coordinate rows
    for up to 65,536 members, filled in blocks of 16,384 rows whose
    exponentials are the only other scratch; they reach ``sep_batch`` as
    (n, b) views.  The exact membership predicates (strict inequalities
    included) stay the final filter, so every evaluated row is a true member;
    rows one side has to spare wait for the other side.

    In each round the P side draws on a helper thread while this thread
    draws the Q side.  The two generators are independent and numpy
    releases the GIL while it draws, so the draws overlap and every float is
    the same as drawn one side after the other.  The helper is joined on
    every path before the round is evaluated, and its exception, if any, is
    raised here: no thread outlives the call, so a bound that follows can
    still fork (``optimize._forkable``).  ``sep_batch`` runs on this thread
    only, since the kernel's one workspace (``seppoly._work``) is not for
    concurrent threads and in-process hooks on ``oracle.sep_batch``, such as
    the benchmark's tracer, expect each call on the calling thread.  If, after
    max(1e5, 10 count) draws per side, fewer than one in 10^4 of them were
    evaluated, sampling stops and the report is inconclusive rather than an
    error.
    """
    spec.validate(b, j)
    if count < 1:
        raise ValueError("count must be >= 1")
    ss = np.random.SeedSequence(seed)
    rng_p, rng_q = (np.random.Generator(np.random.PCG64(s)) for s in ss.spawn(2))
    tags = _SELECTOR_CELLS[which]
    cap = min(1 << 16, count)
    P, Q = _Side(b, cap, tags[0]), _Side(b, cap, tags[1])

    def top_up(side: _Side, tag: int | None, rng: np.random.Generator, n: int) -> None:
        if side.have < n:
            if tag is None:
                _draw_bulk(rng, spec, b, n - side.have, side)
            else:
                _draw_tagged(rng, spec, b, tag, n - side.have, side)

    best = -math.inf
    best_p = best_q = None
    got = 0
    proposed = 0
    while got < count:
        # top up both sides to n rows, P on a helper thread; one side's
        # surplus waits for the other
        n = min(1 << 16, count - got)
        _beside(lambda: top_up(P, tags[0], rng_p, n), lambda: top_up(Q, tags[1], rng_q, n))
        proposed += n
        m = min(P.have, Q.have, n)
        if m:
            vals = sep_batch(P.V[:, :m].T, Q.V[:, :m].T, j)
            k = int(np.argmax(vals))
            if vals[k] > best:
                best = float(vals[k])
                best_p, best_q = P.V[:, k].copy(), Q.V[:, k].copy()
            got += m
            P.drop(m)
            Q.drop(m)
        if proposed > max(100_000, 10 * count) and got < _INCONCLUSIVE_ACCEPT_RATE * proposed:
            break
    inconclusive = got < count
    return SampleReport(
        selector=which,
        kind=spec.kind,
        eps=spec.eps,
        b=b,
        j=j,
        requested=count,
        evaluated=got,
        best_value=best if best_p is not None else math.nan,
        best_p=tuple(best_p.tolist()) if best_p is not None else (),
        best_q=tuple(best_q.tolist()) if best_q is not None else (),
        inconclusive=inconclusive,
        engine_value=engine_value,
    )


# ---------------------------------------------------------------------------
# (b,k)-hash codes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Code:
    """A list of distinct length-n words over the alphabet {0..b-1}."""

    words: tuple[tuple[int, ...], ...]
    b: int
    n: int

    def __post_init__(self):
        seen = set()
        for w in self.words:
            if len(w) != self.n:
                raise ValueError(f"word {w} has length {len(w)}, expected {self.n}")
            for s in w:
                if not 0 <= s < self.b:
                    raise ValueError(f"symbol {s} out of range [0, {self.b})")
            if w in seen:
                raise ValueError(f"duplicate word {w}")
            seen.add(w)

    def __len__(self) -> int:
        return len(self.words)

    def serialize(self) -> str:
        return "\n".join(" ".join(str(s) for s in w) for w in self.words) + "\n"

    @classmethod
    def parse(cls, text: str, b: int) -> "Code":
        words = tuple(
            tuple(int(tok) for tok in line.split())
            for line in text.strip().splitlines()
            if line.strip()
        )
        if not words:
            raise ValueError("empty code")
        return cls(words, b, len(words[0]))


def _subset_separated(words, subset, n: int) -> bool:
    for i in range(n):
        if len({words[w][i] for w in subset}) == len(subset):
            return True
    return False


def is_bk_hash(code: Code, k: int) -> tuple[bool, tuple[int, ...] | None]:
    """Does every k-subset of codewords separate on some coordinate?

    Vacuously true when k exceeds the code size.  On failure, returns the
    index tuple of a violating k-subset as a witness.
    """
    if k < 1:
        raise ValueError("k must be positive")
    words = code.words
    if k > len(words):
        return True, None
    for subset in itertools.combinations(range(len(words)), k):
        if not _subset_separated(words, subset, code.n):
            return False, subset
    return True, None


@dataclass(frozen=True)
class SearchResult:
    size: int
    witness: Code
    exact: bool       # False when the size cap or time budget cut the search
    nodes: int


def max_code_exhaustive(
    b: int,
    k: int,
    n: int,
    *,
    size_cap: int | None = None,
    budget_secs: float | None = None,
    order: str = "asc",
) -> SearchResult:
    """Largest (b,k)-hash code of length n by backtracking over all words.

    Symmetry pruning: per-coordinate symbol relabeling maps codes to codes, so
    some maximum code contains the all-zero word and the search roots there.
    ``order`` picks the candidate iteration order ("asc"/"desc" over the
    lexicographic word list); the exact maximum must not depend on it.
    Intended for b^n small (hard cap 512); larger instances should use the
    budget and accept a flagged lower bound.
    """
    if b ** n > 512:
        raise ValueError(f"b^n = {b ** n} too large for exhaustive search (cap 512)")
    universe = list(itertools.product(range(b), repeat=n))
    zero = tuple([0] * n)
    universe.remove(zero)
    if order == "desc":
        universe.reverse()
    elif order != "asc":
        raise ValueError(f"unknown order {order!r}")
    cap = size_cap if size_cap is not None else b ** n
    deadline = time.monotonic() + budget_secs if budget_secs is not None else None

    best: list[tuple[int, ...]] = [zero]
    chosen: list[tuple[int, ...]] = [zero]
    nodes = 0
    exact = True

    def extendable(word) -> bool:
        if len(chosen) + 1 < k:
            return True
        for rest in itertools.combinations(chosen, k - 1):
            if not _subset_separated(list(rest) + [word], range(k), n):
                return False
        return True

    def walk(start: int) -> None:
        nonlocal nodes, exact, best
        nodes += 1
        if deadline is not None and time.monotonic() > deadline:
            exact = False
            return
        if len(chosen) > len(best):
            best = chosen.copy()
        if len(chosen) >= cap:
            return
        for idx in range(start, len(universe)):
            if len(chosen) + (len(universe) - idx) <= len(best):
                return  # cannot beat the incumbent
            word = universe[idx]
            if extendable(word):
                chosen.append(word)
                walk(idx + 1)
                chosen.pop()
                if not exact:
                    return

    walk(0)
    if size_cap is not None and len(best) >= cap:
        exact = False  # the cap may have hidden a larger code
    witness = Code(tuple(best), b, n)
    ok, bad = is_bk_hash(witness, k)
    if not ok:
        raise AssertionError(f"search produced an invalid witness, subset {bad}")
    return SearchResult(size=len(best), witness=witness, exact=exact, nodes=nodes)


# ---------------------------------------------------------------------------
# exchange/merge lemma suites
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LemmaReport:
    lemma: str
    b: int
    j: int
    samples: int
    violations: int
    worst_margin: float      # most negative rhs-lhs seen (>= -slack it passes)
    counterexample: tuple | None

    @property
    def passed(self) -> bool:
        return self.violations == 0


_LEMMA_SLACK = 1e-12


def check_lemma_inequalities(
    which: str, b: int, j: int, count: int, seed: int
) -> LemmaReport:
    """Sample hypothesis-satisfying instances of one exchange/merge inequality.

    ``which`` is one of:

    * "L6": sorting q against sorted p never decreases the polynomial
      (swap q_1, q_2 when p_1 <= p_2, q_1 <= q_2);
    * "L7": a vector supported on the first j-1 coordinates, each entry capped
      by 1-alpha, is dominated by (1-alpha, alpha, 0, ...) when the facing
      vector is ascending there;
    * "L8": with a coordinate at 1-eps or above (eps <= 1/(j+1)) and the
      facing vector ascending, merging its two smallest entries into one and
      zeroing the first never decreases the polynomial;
    * "L9": lowering a coordinate above 1-eps back to 1-eps and moving the
      surplus to a small coordinate strictly increases the polynomial when
      the facing vector is capped-heavy (eps < 1/2).

    Violations beyond 1e-12 are hard failures with the counterexample.
    """
    params = SepParams(b, j)
    rng = np.random.Generator(np.random.PCG64(seed))

    if which == "L6":
        P = rng.dirichlet(np.ones(b), size=count)
        Q = rng.dirichlet(np.ones(b), size=count)
        P[:, :2] = np.sort(P[:, :2], axis=1)
        Q[:, :2] = np.sort(Q[:, :2], axis=1)
        lhs_P, lhs_Q = P, Q
        rhs_P = P
        rhs_Q = Q.copy()
        rhs_Q[:, [0, 1]] = rhs_Q[:, [1, 0]]
    elif which == "L7":
        if j < 3:
            raise ValueError("L7 needs j >= 3 (at least two supported coordinates)")
        # feasibility of "j-1 entries summing to 1, each <= 1-alpha" needs
        # alpha <= (j-2)/(j-1)
        alpha = rng.uniform(0.0, (j - 2) / (j - 1), size=count)
        raw = rng.dirichlet(np.ones(j - 1), size=count)
        # blend toward uniform just enough to cap the largest entry at 1-alpha
        mx = raw.max(axis=1)
        t = np.clip((mx - (1.0 - alpha)) / (mx - 1.0 / (j - 1) + 1e-300), 0.0, 1.0)
        uni = np.full((count, j - 1), 1.0 / (j - 1))
        P = np.zeros((count, b))
        P[:, : j - 1] = raw + t[:, None] * (uni - raw)
        Q = rng.dirichlet(np.ones(b), size=count)
        Q[:, : j - 1] = np.sort(Q[:, : j - 1], axis=1)
        lhs_P, lhs_Q = P, Q
        rhs_P = np.zeros((count, b))
        rhs_P[:, 0] = 1.0 - alpha
        rhs_P[:, 1] = alpha
        rhs_Q = Q
    elif which == "L8":
        eps = rng.uniform(0.0, 1.0 / (j + 1), size=count)
        p1 = 1.0 - eps * rng.random(count)
        P = rng.dirichlet(np.ones(b - 1), size=count) * (1.0 - p1)[:, None]
        P = np.column_stack([p1, P])
        Q = np.sort(rng.dirichlet(np.ones(b), size=count), axis=1)
        lhs_P, lhs_Q = P, Q
        rhs_Q = Q.copy()
        rhs_Q[:, 1] = Q[:, 0] + Q[:, 1]
        rhs_Q[:, 0] = 0.0
        rhs_P = P
    elif which == "L9":
        eps = rng.uniform(1e-6, 0.5 - 1e-9, size=count)
        delta = eps * rng.random(count)
        delta = np.maximum(delta, 1e-12)
        q1 = 1.0 - eps * rng.random(count)
        Q = rng.dirichlet(np.ones(b - 1), size=count) * (1.0 - q1)[:, None]
        Q = np.column_stack([q1, Q])
        rest = rng.dirichlet(np.ones(b - 1), size=count) * (eps - delta)[:, None]
        P = np.column_stack([1.0 - eps + delta, rest])
        lhs_P, lhs_Q = P, Q
        rhs_P = P.copy()
        rhs_P[:, 0] = 1.0 - eps
        rhs_P[:, 1] = P[:, 1] + delta
        rhs_Q = Q
    else:
        raise ValueError(f"unknown lemma id {which!r} (expected L6/L7/L8/L9)")

    lhs = sep_batch(lhs_P, lhs_Q, j)
    rhs = sep_batch(rhs_P, rhs_Q, j)
    margin = rhs - lhs
    bad = margin < -_LEMMA_SLACK
    worst = float(margin.min()) if count else 0.0
    counterexample = None
    if bad.any():
        i = int(np.argmin(margin))
        counterexample = (tuple(lhs_P[i]), tuple(lhs_Q[i]), float(lhs[i]), float(rhs[i]))
    return LemmaReport(
        lemma=which,
        b=b,
        j=j,
        samples=count,
        violations=int(bad.sum()),
        worst_margin=worst,
        counterexample=counterexample,
    )
