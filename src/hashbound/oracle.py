"""Independent checks grounding the engine from below.

* subdomain sampling: lower-bounds each cell-pair maximum with true members
  of the cell pair, so engine values can be validated from below; the cells
  are drawn by direct constructions into coordinate-major buffers (one row
  per coordinate), and the exact membership predicates still filter every row;
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
import time
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


def _draw_bulk(rng: np.random.Generator, spec: PartitionSpec, b: int, n: int) -> np.ndarray:
    # one row per coordinate; the buffer is made before the row-major draw
    # it outlives, an order that keeps peak memory lower
    V = np.empty((b, n))
    V[...] = rng.dirichlet(np.ones(b), size=n).T
    if spec.kind is PartitionKind.MIN_VALUE:
        # {v >= eps} is the simplex scaled by 1 - b eps about eps 1
        V *= 1.0 - b * spec.eps
        V += spec.eps
    ok = _bulk_mask(V.T, spec)
    return V.T if ok.all() else V.T[ok]


def _draw_tagged(rng: np.random.Generator, spec: PartitionSpec, b: int, i: int, n: int) -> np.ndarray:
    # one row per coordinate: the other b - 1 fill rows 1.. and the rows
    # before i then move up one, leaving row i to the tagged coordinate
    V = np.empty((b, n))
    u = rng.random(n)
    rest = V[1:]
    rest[...] = rng.dirichlet(np.ones(b - 1), size=n).T
    if spec.kind is PartitionKind.MAX_VALUE:
        vi = 1.0 - spec.eps + spec.eps * u
        rest *= 1.0 - vi
    else:
        # v -> (m = v_i, v - m): the minimum m has density proportional to
        # (1 - b m)^(b-2) on [0, eps), drawn by inverse CDF; given m, the
        # rest is m plus the simplex scaled by 1 - b m
        scale = -np.expm1((b - 1) * math.log1p(-b * spec.eps))
        vi = -np.expm1(np.log1p(-scale * u) / (b - 1)) / b
        rest *= 1.0 - b * vi
        rest += vi
    V[:i] = V[1 : i + 1]
    V[i] = vi
    ok = _tagged_mask(V.T, spec, i)
    return V.T if ok.all() else V.T[ok]


#: per selector, the tagged coordinate of each side's cell (None: the bulk)
_SELECTOR_CELLS = {
    CellPair.BULK_BULK: (None, None),
    CellPair.BULK_TAGGED: (None, 0),
    CellPair.TAGGED_SAME: (0, 0),
    CellPair.TAGGED_CROSS: (0, 1),
}


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
    Draws are built in place, coordinate-major, and reach ``sep_batch`` as
    (n, b) views.  The exact membership predicates (strict inequalities
    included) stay the final filter, so every evaluated row is a true member;
    rows one side has to spare wait for the other side.  If, after
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

    def top_up(S: np.ndarray, tag: int | None, rng: np.random.Generator, n: int) -> np.ndarray:
        if len(S) >= n:
            return S
        k = n - len(S)
        new = _draw_bulk(rng, spec, b, k) if tag is None else _draw_tagged(rng, spec, b, tag, k)
        return np.concatenate((S, new)) if len(S) else new

    best = -math.inf
    best_p = best_q = None
    got = 0
    proposed = 0
    P = Q = np.empty((0, b))
    while got < count:
        # top up both sides to n rows; one side's surplus waits for the other,
        # copied out so the drawn buffers are freed first (lower peak memory)
        n = min(1 << 16, count - got)
        P, Q = top_up(P, tags[0], rng_p, n), top_up(Q, tags[1], rng_q, n)
        proposed += n
        m = min(len(P), len(Q), n)
        if m:
            vals = sep_batch(P[:m], Q[:m], j)
            k = int(np.argmax(vals))
            if vals[k] > best:
                best = float(vals[k])
                best_p, best_q = P[k].copy(), Q[k].copy()
            got += m
            P, Q = P[m:].copy(), Q[m:].copy()
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
