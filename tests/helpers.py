"""Independent oracles used by the tests.

These deliberately share no code with the production evaluators: the batched
naive evaluator enumerates index tuples literally, the elementary symmetric
oracle expands the generating polynomial by convolution, the decimal oracles
re-evaluate the closed forms and the combiner at 50 digits, the rational
oracle evaluates the separation polynomial exactly in ``Fraction``, the cell
predicates test one vector at a time where the sampler masks whole batches,
the rejection reference keeps uniform simplex draws where the sampler
constructs cell members directly, and the hash-code checker compares symbol
bitmasks where the engine compares symbol sets.  The exceptions:
``sep_by_full_generating_pass`` and ``sep_partials_unbanded`` repeat the
arithmetic of ``sep_batch`` and ``_sep_partials`` on purpose, without their
row restriction, ``sep_batch_per_call`` and ``sep_partials_per_call`` with
a workspace of their own per call instead of the one shared workspace,
and ``pick_seeds_loop`` repeats the seed choice of the
local search one candidate at a time, so that a test can require each pair
to agree bit for bit; ``lattice_reference`` builds one configuration's
lattice on its own, with the optimizer's corner bound, so that a test can
require the stacked lattices (``optimize._lattices``) to match it bit for
bit, and ``root_bound`` reads its bounds; ``dense_scan_max``, a reference
for the optimizer's search rather than for the evaluator, evaluates with
``sep_batch``; and
``best_config_exhaustive``, a reference for the optimizer's pruning, runs
its per-configuration search on every configuration; ``block_level_values``
and ``block_level_ranges`` evaluate a configuration's affine map one block
at a time, ``spread`` repeating each block into its coordinates, so that a
test can require the coordinate-level map (``Configuration.coords``) to
match it bit for bit.
"""

import itertools
import math
from decimal import ROUND_CEILING, Decimal, localcontext
from fractions import Fraction
from itertools import permutations

import numpy as np

from hashbound.configs import Configuration, PartitionKind, PartitionSpec
from hashbound.optimize import _ROOT_SPLITS, _cell_bounds_batch, _root_box, maximize_config
from hashbound.reporting import round_up_str
from hashbound.seppoly import _BATCH_CHUNK, _row_bands, sep_batch


def sep_naive_batch(P: np.ndarray, Q: np.ndarray, j: int) -> np.ndarray:
    """Literal ordered-distinct-tuple enumeration, vectorized over row pairs."""
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    N, b = P.shape
    idx = np.array(list(permutations(range(b), j + 1)), dtype=np.intp)
    head, tail = idx[:, :j], idx[:, j]
    out = np.zeros(N)
    chunk = max(1, 2_000_000 // idx.shape[0])
    for lo in range(0, N, chunk):
        hi = min(N, lo + chunk)
        Pc, Qc = P[lo:hi], Q[lo:hi]
        pprod = np.ones((hi - lo, idx.shape[0]))
        qprod = np.ones((hi - lo, idx.shape[0]))
        for t in range(j):
            pprod *= Pc[:, head[:, t]]
            qprod *= Qc[:, head[:, t]]
        out[lo:hi] = (pprod * Qc[:, tail]).sum(axis=1) + (qprod * Pc[:, tail]).sum(axis=1)
    return out


def esym_excluding_poly(values, j: int, excluded: int) -> float:
    """Coefficient of x^j in prod_{i != excluded} (1 + v_i x)."""
    coeffs = np.array([1.0])
    for i, v in enumerate(values):
        if i == excluded:
            continue
        coeffs = np.convolve(coeffs, np.array([1.0, float(v)]))
    return float(coeffs[j]) if j < len(coeffs) else 0.0


def sep_by_full_generating_pass(P: np.ndarray, Q: np.ndarray, j: int) -> np.ndarray:
    """``sep_batch``'s generating-polynomial pass with every coefficient row
    updated at every coordinate and no chunking: the reference for its row
    restriction, which must not change a single bit."""
    n, b = P.shape
    V = np.concatenate((P, Q)).T.copy()
    W = np.concatenate((V[:, n:], V[:, :n]), axis=1)
    A = np.zeros((j + 1, 2 * n))
    A[0] = 1.0
    B = np.zeros((j + 1, 2 * n))
    for i in range(b):
        B[1:] += V[i] * B[:-1]
        B += W[i] * A
        A[1:] += V[i] * A[:-1]
    return float(math.factorial(j)) * (B[j, :n] + B[j, n:])


def sep_partials_unbanded(P: np.ndarray, Q: np.ndarray, j: int, drop: np.ndarray):
    """``_sep_partials``'s recurrence with every coefficient row below the
    read degrees updated and no chunking: the reference for its row
    restriction, which must not change a single bit."""
    n, b = P.shape
    V = np.concatenate((P, Q)).T.copy()
    W = np.concatenate((V[:, n:], V[:, :n]), axis=1)
    cols = np.arange(2 * n)
    V[np.concatenate((drop, drop)), cols] = 0.0
    W[np.concatenate((drop, drop)), cols] = 0.0
    A = np.zeros((j + 1, 2 * n))
    A[0] = 1.0
    B = np.zeros((j, 2 * n))
    for i in range(b):
        top_b, top_a = min(i, j - 1), min(i + 1, j)
        B[1 : top_b + 1] += V[i] * B[:top_b]
        B[: top_b + 1] += W[i] * A[: top_b + 1]
        A[1 : top_a + 1] += V[i] * A[:top_a]
    jf = float(math.factorial(j))
    return jf * (B[j - 1, :n] + A[j, n:]), jf * (A[j, :n] + B[j - 1, n:])


def _generate_per_call(P: np.ndarray, Q: np.ndarray, ja: int, jb: int,
                       drop: np.ndarray | None = None):
    """The kernel's banded, chunked pass with one workspace per call, viewed
    once per chunk size, each coefficient row [P side | Q side]."""
    N, b = P.shape
    rows, stacks, plan = _row_bands(b, ja, jb)
    work, views = np.empty(rows * 2 * min(N, _BATCH_CHUNK)), {}
    for lo in range(0, N, _BATCH_CHUNK):
        n = min(_BATCH_CHUNK, N - lo)
        if n not in views:
            ws = work[: rows * 2 * n].reshape(rows, 2 * n)
            views[n] = [ws[s] for s in stacks], [(ws[x], *(ws[slice(*at)] for at in bands))
                                                 for x, *bands in plan]
        (V, W, A, B), updates = views[n]
        # one row per coordinate, one copy from either memory order
        V[:, :n], V[:, n:] = P[lo : lo + n].T, Q[lo : lo + n].T
        if drop is not None:
            at = (drop[lo : lo + n], np.arange(n))
            V[:, :n][at] = V[:, n:][at] = 0.0
        W[:, :n], W[:, n:] = V[:, n:], V[:, :n]
        A[0], A[1:], B[:] = 1.0, 0.0, 0.0
        for x, read, prod, to in updates:
            np.add(to, np.multiply(x, read, prod), to)
        yield lo, n, A, B


def sep_batch_per_call(P: np.ndarray, Q: np.ndarray, j: int) -> np.ndarray:
    """``sep_batch`` with a workspace of its own for every call
    (``_generate_per_call``): the reference for the one shared workspace
    and its padded widths, which must not change a single bit."""
    P, Q = np.asarray(P, dtype=float), np.asarray(Q, dtype=float)
    jf = float(math.factorial(j))
    out = np.empty(P.shape[0])
    for lo, n, _A, B in _generate_per_call(P, Q, 0, j):
        np.multiply(np.add(B[j, :n], B[j, n:], out[lo : lo + n]), jf, out[lo : lo + n])
    return out


def sep_partials_per_call(P: np.ndarray, Q: np.ndarray, j: int, drop: np.ndarray):
    """``_sep_partials`` on ``_generate_per_call``, the same reference."""
    P, Q = np.asarray(P, dtype=float), np.asarray(Q, dtype=float)
    jf = float(math.factorial(j))
    dp, dq = np.empty(P.shape[0]), np.empty(P.shape[0])
    for lo, n, A, B in _generate_per_call(P, Q, j, j - 1, drop):
        np.multiply(np.add(B[j - 1, :n], A[j, n:], dp[lo : lo + n]), jf, dp[lo : lo + n])
        np.multiply(np.add(A[j, :n], B[j - 1, n:], dq[lo : lo + n]), jf, dq[lo : lo + n])
    return dp, dq


def pick_seeds_loop(X: np.ndarray, vals: np.ndarray, cell: np.ndarray, count: int) -> np.ndarray:
    """The local search's seed choice one candidate at a time: best first,
    stopping at the first value that is not finite, each pick more than two
    cells away from every earlier one along some axis."""
    seeds: list[int] = []
    for i in np.argsort(vals)[::-1]:
        if not np.isfinite(vals[i]):
            break
        if all(np.any(np.abs(X[i] - X[s]) > 2.0 * cell) for s in seeds):
            seeds.append(i)
            if len(seeds) >= count:
                break
    return np.array(seeds, dtype=int)


def sep_by_convolution(p, q, j: int) -> float:
    """S_j(p, q) = j! sum_m (q_m e_j(p without m) + p_m e_j(q without m)).

    Each elementary symmetric value comes from ``esym_excluding_poly``.
    """
    return math.factorial(j) * sum(
        q[m] * esym_excluding_poly(p, j, m) + p[m] * esym_excluding_poly(q, j, m)
        for m in range(len(p))
    )


def _esym_fraction(values, j: int) -> Fraction:
    """e_j(values) exactly, by the recurrence e_a <- e_a + v e_(a-1)."""
    e = [Fraction(1)] + [Fraction(0)] * j
    for v in values:
        for a in range(j, 0, -1):
            e[a] += v * e[a - 1]
    return e[j]


def sep_fraction(p, q, j: int) -> Fraction:
    """S_j(p, q) in exact rational arithmetic; entries are converted exactly."""
    p = [Fraction(v) for v in p]
    q = [Fraction(v) for v in q]
    total = Fraction(0)
    for m in range(len(p)):
        total += q[m] * _esym_fraction(p[:m] + p[m + 1:], j)
        total += p[m] * _esym_fraction(q[:m] + q[m + 1:], j)
    return math.factorial(j) * total


def in_bulk(v: np.ndarray, spec: PartitionSpec) -> bool:
    if spec.kind is PartitionKind.MAX_VALUE:
        return bool(np.all(v <= 1.0 - spec.eps))
    return bool(np.all(v >= spec.eps))


def in_tagged(v: np.ndarray, spec: PartitionSpec, i: int) -> bool:
    """Membership in the i-th tagged cell (0-based coordinate index).

    Max partition: coordinate i exceeds 1-eps.  Min partition: coordinate i is
    a minimum below eps, strictly smaller than every earlier coordinate.
    """
    if spec.kind is PartitionKind.MAX_VALUE:
        return bool(v[i] > 1.0 - spec.eps)
    if not v[i] < spec.eps:
        return False
    if not np.all(v >= v[i]):
        return False
    return bool(np.all(v[:i] > v[i]))


def rejection_sample(
    rng: np.random.Generator, spec: PartitionSpec, b: int, tag: int | None, n: int
) -> np.ndarray:
    """n members of one cell, uniform on the simplex and kept by plain rejection.

    ``tag`` is None for the bulk cell, else the tagged coordinate.  Membership
    is decided per row by min, max and argmin, not by the sampler's masks:
    ``argmin`` returns the first minimal coordinate, which is exactly the
    min-partition rule (a minimum, strictly below every earlier coordinate).
    """
    eps = spec.eps
    kept, have = [], 0
    while have < n:
        V = rng.dirichlet(np.ones(b), size=4 * n)
        if spec.kind is PartitionKind.MAX_VALUE:
            keep = V.max(axis=1) <= 1.0 - eps if tag is None else V[:, tag] > 1.0 - eps
        elif tag is None:
            keep = V.min(axis=1) >= eps
        else:
            keep = (V[:, tag] < eps) & (V.argmin(axis=1) == tag)
        kept.append(V[keep])
        have += int(keep.sum())
    return np.concatenate(kept)[:n]


def ks_statistic(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between the
    two empirical distribution functions."""
    x, y = np.sort(x), np.sort(y)
    at = np.concatenate((x, y))
    fx = np.searchsorted(x, at, side="right") / len(x)
    fy = np.searchsorted(y, at, side="right") / len(y)
    return float(np.abs(fx - fy).max())


def ks_critical(n: int, m: int | None = None, alpha: float = 1e-3) -> float:
    """Asymptotic critical value at level alpha of the two-sample statistic
    for samples of n and m, or of the one-sample statistic when m is None."""
    c = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    return c * math.sqrt(1.0 / n + (1.0 / m if m else 0.0))


def is_bk_hash_bitset(code, k: int) -> tuple[bool, tuple[int, ...] | None]:
    """(b,k)-hash check by per-coordinate symbol bitmasks; same contract as
    ``hashbound.oracle.is_bk_hash``."""
    if k > len(code.words):
        return True, None
    masks = [[1 << w[i] for w in code.words] for i in range(code.n)]
    for subset in itertools.combinations(range(len(code.words)), k):
        ok = False
        for col in masks:
            acc = 0
            for w in subset:
                acc |= col[w]
            if acc.bit_count() == k:
                ok = True
                break
        if not ok:
            return False, subset
    return True, None


def random_simplex(rng: np.random.Generator, b: int, n: int = 1) -> np.ndarray:
    return rng.dirichlet(np.ones(b), size=n)


# ---------------------------------------------------------------------------
# 50-digit decimal oracles for the closed forms and for the rounding rule of
# the published tables.  Inputs that come from a published table are passed as
# their printed strings, so nothing here starts from a binary float.
# ---------------------------------------------------------------------------

DEC_DIGITS = 50


def _dec(x) -> Decimal:
    return x if isinstance(x, Decimal) else Decimal(str(x))


def _dlog2(x: Decimal) -> Decimal:
    return x.ln() / Decimal(2).ln()


def korner_marton_decimal(b: int, k: int) -> Decimal:
    """min over j in [2, k-2] of b^(j+1 falling)/b^(j+1) * log2((b-j)/(k-j-1))."""
    with localcontext() as ctx:
        ctx.prec = DEC_DIGITS
        return min(
            Decimal(math.perm(b, j + 1)) / Decimal(b) ** (j + 1)
            * _dlog2(Decimal(b - j) / Decimal(k - j - 1))
            for j in range(2, k - 1)
        )


def dvj_decimal(b: int, k: int) -> Decimal:
    """(1/log2 b + b^2 / ((b^2-3b+2) log2((b-2)/(k-3))))^-1."""
    with localcontext() as ctx:
        ctx.prec = DEC_DIGITS
        bb = Decimal(b)
        return 1 / (
            1 / _dlog2(bb)
            + bb * bb / ((bb * bb - 3 * bb + 2) * _dlog2(Decimal(b - 2) / Decimal(k - 3)))
        )


def rate_decimal(b: int, k: int, j: int, m) -> Decimal:
    """(2/(m log2((b-j)/(k-j-1))) + 1/log2(b/(j-1)))^-1 for a form bound m."""
    with localcontext() as ctx:
        ctx.prec = DEC_DIGITS
        return 1 / (
            2 / (_dec(m) * _dlog2(Decimal(b - j) / Decimal(k - j - 1)))
            + 1 / _dlog2(Decimal(b) / Decimal(j - 1))
        )


def combine_decimal(m1, m2, m3, m4, cells: int) -> Decimal:
    """Maximum of the cell quadratic over weights on one bulk and ``cells`` tagged cells.

    For a bulk weight t the tagged mass 1-t contributes (1-t)^2 a, where a is
    m3/cells + (cells-1) m4/cells when the mass is spread evenly and m3 when it
    sits on one cell; g(t) = t^2 m1 + 2t(1-t) m2 + (1-t)^2 a is then maximized
    over t in [0, 1] in closed form.
    """
    with localcontext() as ctx:
        ctx.prec = DEC_DIGITS
        m1, m2, m3, m4 = (_dec(m) for m in (m1, m2, m3, m4))
        n = Decimal(cells)
        best = None
        for a in (m3 / n + (n - 1) * m4 / n, m3):
            curv = m1 - 2 * m2 + a          # g(t) = curv t^2 + 2 slope t + a
            slope = m2 - a
            cand = max(a, m1)
            if curv < 0 and 0 <= -slope / curv <= 1:
                cand = max(cand, a - slope * slope / curv)
            best = cand if best is None else max(best, cand)
        return best


def printed_ulp(printed: str) -> Decimal:
    """One unit in the last place of a printed decimal ("0.01343", "1.2e-12")."""
    return Decimal(1).scaleb(Decimal(printed.strip()).as_tuple().exponent)


def ceil_as_printed(value: Decimal, printed: str) -> str:
    """Upward ceiling of ``value`` in the format of ``printed``.

    The printed string fixes the format: "0.16894" gives five decimals,
    "8.4300e-3" a four-decimal mantissa times 1e-3, and so on.
    """
    s = printed.strip().lower()
    mant, _, exp = s.partition("e")
    places = len(mant.split(".")[1]) if "." in mant else 0
    with localcontext() as ctx:
        ctx.prec = DEC_DIGITS
        scaled = value.scaleb(-int(exp)) if exp else value
        out = str(scaled.quantize(Decimal(1).scaleb(-places), rounding=ROUND_CEILING))
    return f"{out}e{exp}" if exp else out



def matches_printed(computed: float, printed: str) -> bool:
    """Does ``computed`` reproduce a printed decimal after upward rounding?

    The printed string fixes the precision: "0.16894" checks the 5th decimal,
    "8.4300e-3" checks the mantissa at 4 decimals, and so on.  The ceiling is
    taken after a relative nudge of 1e-11 so that values which are exact in
    decimal but land one binary ulp above their decimal expansion (0.192,
    0.0036288, ...) do not spill onto the next grid point.
    """
    printed = printed.strip()
    if "e" in printed or "E" in printed:
        mant_s, exp_s = printed.lower().split("e")
        exp = int(exp_s)
        scaled = computed / (10.0 ** exp)
        places = len(mant_s.split(".")[1]) if "." in mant_s else 0
        return float(round_up_str(_nudge(scaled), places)) == float(mant_s)
    places = len(printed.split(".")[1]) if "." in printed else 0
    return float(round_up_str(_nudge(computed), places)) == float(printed)


def _nudge(x: float) -> float:
    return x - abs(x) * 1e-11


def dense_scan_max(config: Configuration, grid: int = 400) -> float:
    """Largest value over a dense grid of the configuration's box, -inf when
    ``assemble`` admits no grid point.

    ``grid + 1`` points along one free variable; two and three variables get
    a per-axis count that keeps the scan near 45 * grid and 180 * grid points,
    at least 9 per axis.  An axis narrower than 1e-12 gets its midpoint only.
    """
    d = config.dim
    if d <= 1:
        counts = [max(2, grid + 1)] * d
    else:
        budget = 45.0 * grid * (4.0 if d == 3 else 1.0)
        counts = [max(9, int(round(budget ** (1.0 / d))))] * d
    axes = [
        np.array([0.5 * (fv.lo + fv.hi)]) if fv.hi - fv.lo < 1e-12 else np.linspace(fv.lo, fv.hi, n)
        for fv, n in zip(config.free, counts)
    ]
    P, Q, feas = config.assemble(np.array(list(itertools.product(*axes))))
    if not feas.any():
        return -np.inf
    return float(sep_batch(P[feas], Q[feas], config.j).max())


def block_level_values(config: Configuration, X: np.ndarray) -> np.ndarray:
    """Every block's value at each row of X (N, dim), shape (N, blocks), on
    the block-level map ``Configuration.arrays``: const, then coef * x added
    one free variable at a time in index order."""
    A = config.arrays
    V = np.repeat(A.const[None], X.shape[0], axis=0)
    for k in range(config.dim):
        V += A.coef[:, k] * X[:, k, None]
    return V


def block_level_ranges(config: Configuration, los: np.ndarray, his: np.ndarray):
    """Range of every block's value over each box [los, his], shape
    (n, blocks) twice, by interval arithmetic on ``Configuration.arrays``
    adding the terms of ``block_level_values`` in its order."""
    A = config.arrays
    vlo = np.repeat(A.const[None], los.shape[0], axis=0)
    vhi = vlo.copy()
    for k in range(config.dim):
        at_lo, at_hi = A.coef[:, k] * los[:, k, None], A.coef[:, k] * his[:, k, None]
        vlo += np.minimum(at_lo, at_hi)
        vhi += np.maximum(at_lo, at_hi)
    return vlo, vhi


def spread(config: Configuration, V: np.ndarray) -> np.ndarray:
    """Per-block columns V (N, blocks) repeated into coordinate rows (N, 2b), p first."""
    return np.repeat(V, config.arrays.mult, axis=1)


def lattice_reference(config: Configuration):
    """The configuration's box split into a uniform lattice of parts.

    ``_ROOT_SPLITS[dim]`` parts per axis (the last edge is ``hi`` itself, so
    the parts tile the box exactly), each with its corner bound
    (``_cell_bounds_batch``), all in one batch.  Returns the parts' low and
    high corners and their bounds (-inf for provably infeasible parts).  A
    0-dimensional configuration is one part, its point.
    """
    lo, hi = _root_box(config)
    k = _ROOT_SPLITS[config.dim]
    edges = []
    for a, z in zip(lo, hi):
        e = np.linspace(a, z, k + 1)
        e[-1] = z
        edges.append(e)
    los = np.array(list(itertools.product(*(e[:-1] for e in edges))))
    his = np.array(list(itertools.product(*(e[1:] for e in edges))))
    return los, his, _cell_bounds_batch(config, config.block_ranges(los, his))


def root_bound(config: Configuration) -> float:
    """Upper bound on the configuration's whole box, -inf when provably
    infeasible: the largest corner bound of its lattice parts
    (``lattice_reference``)."""
    return float(lattice_reference(config)[2].max())


def best_config_exhaustive(configs):
    """The winner of ``maximize_config`` over every configuration, with no
    bound or pruning: the highest value, ties to the smallest ``describe()``.
    Returns (ConfigMax, describe()), or (None, None) when no configuration
    has an admitted lattice centre."""
    best = best_tag = None
    for cfg in configs:
        res = maximize_config(cfg)
        if res is None:
            continue
        tag = cfg.describe()
        if best is None or res.value > best.value or (res.value == best.value and tag < best_tag):
            best, best_tag = res, tag
    return best, best_tag
