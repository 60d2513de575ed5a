"""Maximization of the separation polynomial over configuration boxes.

Each configuration depends on at most three free variables, and the objective
is a degree-(j+1) polynomial with nonnegative coefficients in the assembled
coordinates.  The polynomial only grows when any coordinate grows, so
evaluating it at the coordinate-wise maxima of a box bounds the box
rigorously (the corner bound); a centred (mean-value) form, whose gradient
ranges come from the leave-one-out partials of the generating polynomial,
split by sign where a coordinate can be negative, bounds it too, with an
overestimate that shrinks quadratically with the box width where the corner
bound's shrinks linearly.  Both read one computation of the coordinate
ranges of the configuration's affine map (``Configuration.coords``), and
``_box_bounds`` lowers the corner bound to the centred form where needed.

Every configuration's box is cut once, into a uniform lattice of parts with
corner bounds, in one stacked build per selector (``_lattices``).
``_best_config`` evaluates the points (0-dimensional configurations) first,
for an attained incumbent, then visits the others in one pass, highest
lattice bound first, and maximizes only those that the branch-and-bound
(``_certified_supremum``), held to 2 * dim bisections below each part, does
not bound strictly below the incumbent (``_dominated``).  The winner is the
same as a search of every configuration would give: highest value, ties
broken by the smallest ``Configuration.describe()``.  ``maximize_config``
evaluates the part centres of each configuration it is handed, once, and
polishes the best few admitted ones by a deterministic shrinking local
search down to step 1e-12.  A configuration whose lattice bound lies above
the maximum but whose lattice admits no centre is listed in
``CellMaxResult.unsearched``.

Certification is optional.  The certified mode of ``compute_cell_max`` runs
the same branch-and-bound, with no depth limit, per maximized configuration
whose bound is finite, from the lattice parts, with its open boxes in
arrays, bisected several levels deep per ``_box_bounds`` call.  A box is not
split further once its bound lies within a tolerance, relative to the cell
maximum, of that maximum; the largest such bound still counts, so the
certified value never falls below a value the configuration attains, even
where the local search found no admitted point to start from.  A search that
hits its node cap still returns a valid but looser bound and says so in
``CellMaxResult.certify_capped``.

The max partition's m2 and the min partition's m4 range over the global
families, which do not depend on eps.  One memo holds the global maximum per
(b, j) and certification tolerance; ``compute_cell_max`` answers both
selectors from it, and ``global_form_max`` reads and fills the same entries.

``compute_all_cell_maxima`` deals a bound's cells, by candidate count,
between this process and one forked child where a second CPU is free.  A
cell is a pure function of its inputs, so every result is the one a search
of each cell in this process gives, bit for bit.
"""

from __future__ import annotations

import itertools
import os
import pickle
import signal
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .configs import (
    _FAMILIES,
    CellPair,
    Configuration,
    PartitionSpec,
    UPPER_BOUND_ONLY,
    _global_max_families,
    enumerate_candidates,
    global_candidates,
)
from .seppoly import _sep_partials, sep_batch

_REFINE_STEP = 1e-12
_ZOOM_POINTS = {1: 17, 2: 7, 3: 5}
_SEED_COUNT = 6

#: a configuration's lattice (``_lattices``): the low and the high corners of
#: its parts and each part's bound
Lattice = tuple[np.ndarray, np.ndarray, np.ndarray]
#: the low and the high ends of every coordinate over each box (``Configuration.block_ranges``)
Ranges = tuple[np.ndarray, np.ndarray]


class BudgetExceeded(RuntimeError):
    """Cooperative wall-clock budget ran out."""


@dataclass
class Budget:
    seconds: float | None

    def __post_init__(self):
        self._t0 = time.monotonic()

    def check(self, what: str = "") -> None:
        if self.seconds is not None and time.monotonic() - self._t0 > self.seconds:
            raise BudgetExceeded(what or "time budget exceeded")


NO_BUDGET = Budget(None)


@dataclass(frozen=True)
class ConfigMax:
    """Maximum of one configuration: value and the witness pair."""

    value: float
    p: tuple[float, ...]
    q: tuple[float, ...]


@dataclass(frozen=True)
class CellMaxResult:
    """One cell-pair maximum: engine value plus provenance.

    ``exactness`` is "attained" when the published reduction claims the
    supremum is attained on the family list (closure of the cell pair) and
    "upper_bound" when it only dominates it.  ``certified_excess`` is the
    additive slack of the certified run: value + certified_excess is a
    rigorous upper bound on the cell maximum, and the slack is at most
    ``cert_tol`` times |value| unless a box narrower than 1e-12 or the node
    cap stopped the search; it is 0 when certification is off.
    ``certify_capped`` is True when the branch-and-bound of some configuration
    stopped at its node cap.  ``unsearched`` lists the configurations whose
    root bound (the largest corner bound of their lattice parts) lies above
    ``value`` but whose lattice admits no centre to seed the local search
    from: the certified slack covers them, the uncertified value may not.
    ``selector`` is None for the global maximum (``global_form_max``).
    """

    selector: CellPair | None
    value: float
    config_tag: str
    p: tuple[float, ...]
    q: tuple[float, ...]
    exactness: str
    certified_excess: float = 0.0
    certify_capped: bool = False
    unsearched: tuple[str, ...] = ()


def _evaluate(config: Configuration, X: np.ndarray) -> np.ndarray:
    """Objective on assignments X, -inf where infeasible."""
    P, Q, feas = config.assemble(X)
    if feas.all():
        return sep_batch(P, Q, config.j)
    vals = np.full(X.shape[0], -np.inf)
    if feas.any():
        vals[feas] = sep_batch(P[feas], Q[feas], config.j)
    return vals


def _pick_seeds(X: np.ndarray, vals: np.ndarray, cell: np.ndarray, count: int) -> np.ndarray:
    """Indices of up to ``count`` points of X with finite values, best first,
    each more than two cells away from every earlier pick along some axis."""
    order = np.argsort(vals)[::-1]
    alive = np.logical_and.accumulate(np.isfinite(vals[order]))
    seeds: list[int] = []
    while alive.any() and len(seeds) < count:
        i = order[np.argmax(alive)]
        seeds.append(i)
        alive &= np.any(np.abs(X[order] - X[i]) > 2.0 * cell, axis=1)
    return np.array(seeds, dtype=int)


def maximize_config(
    config: Configuration, lattice: Lattice | None = None, *, budget: Budget = NO_BUDGET
) -> ConfigMax | None:
    """Maximum of the polynomial over the configuration's box.

    Evaluates the part centres of the configuration's lattice (``_lattices``;
    built here when not given) once, then shrinks a coordinate window around
    the best few separated admitted centres until the window drops below
    1e-12.  A window point that leaves a block's band is moved back onto it
    along the block's coefficients, so the search can slide along a band
    edge that runs obliquely to the axes.  Returns None when no lattice
    centre is admitted, which a vacuous configuration guarantees.
    """
    los, his, _bounds = _lattices([config])[0] if lattice is None else lattice
    centers = 0.5 * (los + his)
    values = _evaluate(config, centers)
    if not np.isfinite(values).any():
        return None
    d = config.dim
    if d == 0:
        x, val = centers[0], float(values[0])
    else:
        lo, hi = _root_box(config)
        cell = his[0] - los[0]
        seeds = _pick_seeds(centers, values, cell, _SEED_COUNT)
        centers, best_vals = centers[seeds], values[seeds]
        A = config.arrays
        moving = A.coef.any(axis=1)
        bands = [(c, c @ c, const, band_lo, band_hi) for c, const, band_lo, band_hi
                 in zip(A.coef[moving], A.const[moving], A.lo[moving], A.hi[moving])]

        w = np.maximum(cell * 1.5, _REFINE_STEP)
        widths = np.tile(w, (len(centers), 1))
        npts = _ZOOM_POINTS[d]
        offsets = np.array(list(itertools.product(np.linspace(-1.0, 1.0, npts), repeat=d)))
        rounds = 0
        while widths.max() > _REFINE_STEP and rounds < 200:
            rounds += 1
            budget.check("refinement")
            cand = centers[:, None, :] + offsets[None, :, :] * widths[:, None, :]
            flat = cand.reshape(-1, d)
            for c, cc, const, band_lo, band_hi in bands:
                at = const + flat @ c
                back = np.minimum(np.maximum(at, band_lo), band_hi) - at
                if back.any():
                    flat += np.outer(back / cc, c)
            np.minimum(np.maximum(flat, lo, out=flat), hi, out=flat)
            cvals = _evaluate(config, flat).reshape(len(centers), -1)
            arg = np.argmax(cvals, axis=1)
            v = cvals[np.arange(len(centers)), arg]
            better = v > best_vals + 1e-16 * np.abs(best_vals)
            best_vals[better] = v[better]
            centers[better] = cand[better, arg[better]]
            widths *= np.where(better, 0.6, 0.33)[:, None]
            # drop hopeless seeds once the windows are already small
            if rounds == 12 and len(centers) > 2:
                keep = np.argsort(best_vals)[::-1][:2]
                centers, best_vals, widths = centers[keep], best_vals[keep], widths[keep]

        s = int(np.argmax(best_vals))
        x, val = centers[s], float(best_vals[s])
    p, q, feas = config.point(x)
    if not feas:  # should not happen: best came from a feasible evaluation
        return None
    return ConfigMax(val, tuple(p.tolist()), tuple(q.tolist()))


# ---------------------------------------------------------------------------
# monotone box bounds and certification
# ---------------------------------------------------------------------------


_ROOT_SPLITS = {0: 1, 1: 32, 2: 16, 3: 6}  # parts per axis of a configuration's lattice, by dimension
_PRUNE_BATCH = 256  # most boxes the certifier bounds in one call, one 2-D lattice
_LATTICE_BLOCK = 1024  # most lattice parts per sep_batch call; 2,048 raised peak RSS by 1 MB


def _root_box(config: Configuration) -> tuple[np.ndarray, np.ndarray]:
    return (np.array([fv.lo for fv in config.free]), np.array([fv.hi for fv in config.free]))


def _cell_bounds_batch(config: Configuration, ranges: Ranges) -> np.ndarray:
    """Monotone interval bound per box, -inf for provably infeasible boxes.

    A coordinate's range (``ranges``) disjoint from its padded band
    (``Configuration.coords``, padded by the tolerance ``assemble`` admits)
    makes the whole box infeasible.  Otherwise the polynomial at the
    coordinate-wise maxima, clipped to the padded band, dominates every point
    of the box that ``Configuration.assemble`` admits: both read one band.
    """
    C, (vlo, vhi), b = config.coords, ranges, config.b
    feas = ((vhi >= C.lo) & (vlo <= C.hi)).all(axis=1)
    out = np.full(len(vhi), -np.inf)
    if feas.any():
        top = np.maximum(np.minimum(vhi[feas], C.hi), 0.0)
        out[feas] = sep_batch(top[:, :b], top[:, b:], config.j)
    return out


def _round_rel(b: int) -> float:
    """A priori relative rounding bound of one centred bound (Higham, ch. 3).

    gamma_n = n u / (1 - n u) with u = 2^-53 and n = 5b + 18: a term of
    ``sep_batch`` or ``_sep_partials`` is rounded at most three times per
    coordinate and twice at the end, the two subtractions of a split lower
    end (``_gradient_bounds``) twice more, and the chain rule (one product,
    at most 2b sums over runs), the radius terms and the final sums at most
    2b + 7 more times.  Doubled, because the bound must also dominate the
    rounded ``sep_batch`` value at any point of the box, whose error is at
    most gamma_n times the same magnitude sum.
    """
    nu = (5 * b + 18) * 2.0 ** -53
    return 2.0 * nu / (1.0 - nu)


def _gradient_bounds(config: Configuration, ranges: Ranges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """[G_lo, G_hi], enclosing the unclipped polynomial's gradient on each
    box, and |G|, bounding the magnitudes of the terms summed into either end.
    Each partial g (``_sep_partials``) has nonnegative coefficients, so with
    M the largest coordinate magnitudes, L+ the low coordinate ends raised to
    0 and M0 equal to M with the coordinates that can be negative set to 0,
    g lies in [g(L+) - (g(M) - g(M0)), g(M)]: the monomials free of those
    coordinates grow with their entries, and the others are each at most
    their value at M in magnitude, values that sum to g(M) - g(M0).  The
    chain rule goes through the affine blocks (``Configuration.chain_rule``);
    one pass covers every box, corner set and run.  ``ranges`` as in
    ``_cell_bounds_batch``."""
    (vlo, vhi), n, b = ranges, len(ranges[0]), config.b
    starts, Cp, Cq = config.chain_rule
    # M and L+ for every box, M0 where some coordinate can be negative; each row
    # repeated once per run, leaving out the run's first coordinate
    neg = vlo < 0.0
    split = np.nonzero(neg.any(axis=1))[0]
    top = np.maximum(np.abs(vlo), vhi)
    corners = np.concatenate((top, np.maximum(vlo, 0.0), np.where(neg[split], 0.0, top[split])))
    rows = np.repeat(corners, len(starts), axis=0)
    dp, dq = _sep_partials(rows[:, :b], rows[:, b:], config.j, np.tile(starts, len(corners)))
    dp, dq = dp.reshape(len(corners), -1), dq.reshape(len(corners), -1)
    for g in (dp, dq):   # the lower ends, g(L+) - (g(M) - g(M0)) where split
        g[n : 2 * n][split] -= g[:n][split] - g[2 * n :]
    dp_hi, dq_hi = dp[:n, :, None], dq[:n, :, None]
    dp_lo, dq_lo = dp[n : 2 * n, :, None], dq[n : 2 * n, :, None]
    g_hi = (np.maximum(dp_lo * Cp, dp_hi * Cp) + np.maximum(dq_lo * Cq, dq_hi * Cq)).sum(axis=1)
    g_lo = (np.minimum(dp_lo * Cp, dp_hi * Cp) + np.minimum(dq_lo * Cq, dq_hi * Cq)).sum(axis=1)
    g_abs = dp[:n] @ np.abs(Cp) + dq[:n] @ np.abs(Cq)
    g_abs[split] *= 3.0   # a split lower end sums three partials, each at most g(M)
    return g_lo, g_hi, g_abs


def _centred_bounds_batch(config: Configuration, los: np.ndarray, his: np.ndarray, ranges: Ranges) -> np.ndarray:
    """Centred-form (mean-value) upper bound of the polynomial on each box.

    f(c) + sum_k r_k max(|G_lo,k|, |G_hi,k|) + margin, where c is the box
    centre, r_k the distance from c to the farther face along free variable
    k and [G_lo,k, G_hi,k] encloses df/dx_k on the box (``_gradient_bounds``,
    from the partials at three corner sets).

    The bound holds for the unclipped polynomial on the whole box, so it
    dominates every point ``Configuration.assemble`` admits there.

    Rounding: the result is raised by ``_round_rel(b)`` times
    S(|v(c)|) + sum_k r_k |G|_k, where |G|_k bounds the magnitudes of the
    chain-rule terms, so it cannot fall below a value ``sep_batch`` computes
    inside the box.  At a centre with a negative coordinate f(c) cancels,
    so S at the magnitudes |v(c)| scales the margin there instead of f(c);
    such boxes keep their centred bound rather than being skipped.  The
    coordinates come from ``Configuration.block_values``, as in ``assemble``,
    and ``ranges`` (``Configuration.block_ranges``) adds the same terms in
    the same order; the rounding of those affine sums is not covered, as in
    the corner bound.
    """
    b, j = config.b, config.j
    centre = 0.5 * (los + his)
    radius = np.maximum(his - centre, centre - los)
    g_lo, g_hi, g_abs = _gradient_bounds(config, ranges)
    at_centre = config.block_values(centre)
    value = sep_batch(at_centre[:, :b], at_centre[:, b:], j)
    scale = value.copy()
    cancels = (at_centre < 0.0).any(axis=1)
    if cancels.any():
        magnitude = np.abs(at_centre[cancels])
        scale[cancels] = sep_batch(magnitude[:, :b], magnitude[:, b:], j)
    reach = (radius * np.maximum(np.abs(g_lo), np.abs(g_hi))).sum(axis=1)
    margin = _round_rel(b) * (scale + (radius * g_abs).sum(axis=1))
    return value + reach + margin


def _box_bounds(config: Configuration, los: np.ndarray, his: np.ndarray, floor: float) -> np.ndarray:
    """The corner bound (``_cell_bounds_batch``) of each box, lowered to the
    centred form (``_centred_bounds_batch``) where it lies above ``floor``;
    -inf marks a provably infeasible box.  Both forms dominate every point
    ``Configuration.assemble`` admits in the box; both read one ``block_ranges``."""
    ranges = config.block_ranges(los, his)
    bounds = _cell_bounds_batch(config, ranges)
    above = np.nonzero(bounds > floor)[0]
    if config.dim and above.size:
        ranges = tuple(r[above] for r in ranges)
        bounds[above] = np.minimum(bounds[above], _centred_bounds_batch(config, los[above], his[above], ranges))
    return bounds


def _lattices(configs: list[Configuration]) -> list[Lattice]:
    """Each configuration's box split into a uniform lattice of parts.

    ``_ROOT_SPLITS[dim]`` parts per axis in ``itertools.product`` order, on
    ``np.linspace``'s edges (the last is ``hi``, so the parts tile the box),
    each with its corner bound (``_cell_bounds_batch``; -inf if provably
    infeasible); a point is one part.  Configurations of one (b, j) are
    stacked by dimension on their coordinate maps (``Configuration.coords``),
    each free variable's terms per edge interval added in ``block_ranges``'
    order; ``sep_batch`` bounds ``_LATTICE_BLOCK`` admitted parts per call."""
    by_dim = {d: [i for i, c in enumerate(configs) if c.dim == d] for d in {c.dim for c in configs}}
    lattices: list[Lattice] = [None] * len(configs)
    bounds = np.full(sum(len(m) * _ROOT_SPLITS[d] ** d for d, m in by_dim.items()), -np.inf)
    b, j = (configs[0].b, configs[0].j) if configs else (0, 0)
    rows, admit, base = np.empty((2 * b, len(bounds))), np.zeros(len(bounds), dtype=bool), 0
    for d, members in by_dim.items():
        k = _ROOT_SPLITS[d]
        grid = np.array(list(itertools.product(range(k), repeat=d)), dtype=int)
        per = max(1, _LATTICE_BLOCK // len(grid))   # configurations stacked at once
        for group in (members[first : first + per] for first in range(0, len(members), per)):
            n, maps = len(group), [configs[i].coords for i in group]
            lo, hi = (np.array([[getattr(fv, end) for fv in configs[i].free] for i in group])
                      for end in ("lo", "hi"))
            edges = np.arange(k + 1.0)[:, None] * ((hi - lo) / k)[:, None, :] + lo[:, None, :]
            edges[:, -1] = hi
            vlo, band_lo, band_hi = (np.array([getattr(C, f) for C in maps]).T.reshape((2 * b, n) + (1,) * d)
                                     for f in ("const", "lo", "hi"))
            vhi, coef = vlo, np.array([C.coef for C in maps]).T
            for a in range(d):   # the terms per edge interval, broadcast over the grid of parts
                at_lo, at_hi = coef[a][..., None] * edges[:, :-1, a], coef[a][..., None] * edges[:, 1:, a]
                axis = (2 * b, n) + (1,) * a + (k,) + (1,) * (d - 1 - a)
                vlo = vlo + np.minimum(at_lo, at_hi).reshape(axis)
                vhi = vhi + np.maximum(at_lo, at_hi).reshape(axis)
            parts = slice(base, base + vhi[0].size)
            admit[parts] = ((vhi >= band_lo) & (vlo <= band_hi)).all(axis=0).ravel()
            np.maximum(np.minimum(vhi, band_hi), 0.0, out=rows[:, parts].reshape(vhi.shape))
            for i, los, his in zip(group, edges[:, grid, np.arange(d)], edges[:, grid + 1, np.arange(d)]):
                lattices[i], base = (los, his, bounds[base : base + len(grid)]), base + len(grid)
    at = np.flatnonzero(admit)
    for cols in (at[start : start + _LATTICE_BLOCK] for start in range(0, len(at), _LATTICE_BLOCK)):
        bounds[cols] = sep_batch(rows[:b, cols].T, rows[b:, cols].T, j)
    return lattices


def _bisect(los: np.ndarray, his: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each box cut in half across its widest axis: the lower halves in box
    order, then the upper halves."""
    rows = np.arange(len(los))
    axes = np.argmax(his - los, axis=1)
    mids = 0.5 * (los[rows, axes] + his[rows, axes])
    child_lo, child_hi = np.concatenate((los, los)), np.concatenate((his, his))
    child_hi[rows, axes] = mids
    child_lo[rows + len(rows), axes] = mids
    return child_lo, child_hi


def _dominated(config: Configuration, lattice: Lattice, incumbent: float) -> bool:
    """True when the certifier, held to ``2 * dim`` bisections below each
    lattice part, bounds every box strictly below ``incumbent``."""
    sup, capped = _certified_supremum(config, np.nextafter(incumbent, -np.inf), lattice,
                                      tol=0.0, max_depth=2 * config.dim)
    return not capped and sup < incumbent


def _certified_supremum(
    config: Configuration,
    lower: float,
    lattice: Lattice,
    *,
    tol: float = 1e-5,
    max_nodes: int = 20000,
    max_depth: int | None = None,
    budget: Budget = NO_BUDGET,
) -> tuple[float, bool]:
    """Rigorous upper bound on the configuration supremum via branch-and-bound.

    ``lower`` is the incumbent to certify against (typically the best value
    found across all configurations) and ``lattice`` the configuration's
    lattice (``_lattices``), whose parts are the first boxes.  A box is closed
    once its bound is at most lower + tol or it is narrower than 1e-12 along
    every axis, so a point closes at once with its value as its bound.  Each
    step bisects the ``_PRUNE_BATCH // 2`` open boxes with the highest bounds
    across their widest axis, and again while the children fit in
    ``_PRUNE_BATCH``, and bounds the children in one ``_box_bounds`` call
    with the floor lower + tol.  Each bisection is one of ``max_nodes``.
    Every open box counts its bisections below its lattice part, and one
    open box ``max_depth`` or more deep stops the search as the cap does;
    the prune (``_dominated``) runs this search with such a depth limit, the
    certification without one.

    Returns the largest of ``lower``, the bound of every closed box and, at
    a cap, of every box still open: a valid upper bound on the configuration
    supremum, at most lower + tol unless a cap was hit or a too narrow box
    had a larger bound.  Also returns whether a cap was hit.
    """
    los, his, bounds = lattice
    depth = np.zeros(len(bounds), dtype=int)
    cut = lower + tol

    def close(los, his, bounds, depth, kept):  # the open boxes; kept raised to every other's bound
        open_ = (bounds > cut) & ((his - los) >= _REFINE_STEP).any(axis=1)
        return (los[open_], his[open_], bounds[open_], depth[open_],
                float(bounds.max(where=~open_, initial=kept)))

    los, his, bounds, depth, kept = close(los, his, bounds, depth, lower)
    nodes = 0
    while len(bounds) and nodes < max_nodes and (max_depth is None or depth.max() < max_depth):
        budget.check("certification")
        order = np.argsort(-bounds, kind="stable")
        top, rest = order[: _PRUNE_BATCH // 2], order[_PRUNE_BATCH // 2:]
        child_lo, child_hi, child_depth = los[top], his[top], depth[top]
        while 2 * len(child_lo) <= _PRUNE_BATCH:
            nodes += len(child_lo)
            child_lo, child_hi = _bisect(child_lo, child_hi)
            child_depth = np.tile(child_depth, 2) + 1
        child_lo, child_hi, child, child_depth, kept = close(
            child_lo, child_hi, _box_bounds(config, child_lo, child_hi, cut), child_depth, kept)
        los, his = np.concatenate((los[rest], child_lo)), np.concatenate((his[rest], child_hi))
        bounds = np.concatenate((bounds[rest], child))
        depth = np.concatenate((depth[rest], child_depth))
    if len(bounds):  # a cap hit: the open boxes bound what is left
        return max(kept, float(bounds.max())), True
    return kept, False


# ---------------------------------------------------------------------------
# cell maxima
# ---------------------------------------------------------------------------


def _best_config(
    configs: list[Configuration], what: str, *, certify: bool, cert_tol: float, budget: Budget
) -> CellMaxResult:
    """Maximize the configurations that their bounds do not prove dominated.

    The points (0-dimensional configurations with a finite bound) come
    first, one evaluation each, for an attained incumbent before any polish.
    The others follow in one pass, highest first by the largest part bound
    of their lattice (``_lattices``, corner bounds), ties in list order.  A
    configuration is maximized unless ``_dominated`` proves it below the
    incumbent, and the pass stops at the first bound strictly below the
    incumbent.  The winner has the highest value, ties to the smallest
    ``describe()``.  With ``certify`` every maximized configuration with a
    finite bound is certified (``_certified_supremum``).  The result
    has selector None and exactness "attained", as the global maximum's.
    """
    lattices = _lattices(configs)
    roots = [float(bounds.max()) for _los, _his, bounds in lattices]
    best: ConfigMax | None = None
    best_cfg: Configuration | None = None
    examined: list[tuple[Configuration, Lattice]] = []
    unseeded: list[tuple[float, str]] = []
    point = [not cfg.dim and np.isfinite(root) for cfg, root in zip(configs, roots)]
    for i in sorted(range(len(configs)), key=lambda i: (not point[i], -roots[i])):
        if best is not None and roots[i] < best.value:
            if point[i]:
                continue
            break
        budget.check(what)
        cfg = configs[i]
        if best is not None and _dominated(cfg, lattices[i], best.value):
            continue
        examined.append((cfg, lattices[i]))
        res = maximize_config(cfg, lattices[i], budget=budget)
        if res is None:
            unseeded.append((roots[i], cfg.describe()))
        elif best is None or res.value > best.value or (
            res.value == best.value and cfg.describe() < best_cfg.describe()
        ):
            best, best_cfg = res, cfg
    if best is None:
        raise ValueError(f"every configuration vacuous in {what}")
    certified = best.value
    capped = False
    if certify:
        # certify against the best value across configurations: dominated
        # configurations prune in a handful of splits, and those the search
        # skipped have a root bound below it already
        tol = cert_tol * abs(best.value)
        for cfg, lattice in examined:
            sup, hit = _certified_supremum(cfg, best.value, lattice, tol=tol, budget=budget)
            certified = max(certified, sup)
            capped |= hit
    return CellMaxResult(
        selector=None,
        value=best.value,
        config_tag=best_cfg.describe(),
        p=best.p,
        q=best.q,
        exactness="attained",
        certified_excess=max(0.0, certified - best.value),
        certify_capped=capped,
        unsearched=tuple(tag for root, tag in unseeded if root > best.value),
    )


#: the global maximum by (b, j, cert_tol if certified else None): the global
#: families do not depend on eps, so every eps and both selectors that use
#: them share one search per request in a process
_GLOBAL_MAXIMA: dict[tuple[int, int, float | None], CellMaxResult] = {}

_CERT_TOL = 1e-9  # the certification tolerance of a bound's cells and of the global maximum


def _global_key(b: int, j: int, certify: bool, cert_tol: float) -> tuple[int, int, float | None]:
    return (b, j, cert_tol if certify else None)


def _global_max(b: int, j: int, certify: bool, cert_tol: float, budget: Budget,
                candidates: list[Configuration] | None = None) -> CellMaxResult:
    key = _global_key(b, j, certify, cert_tol)
    if key not in _GLOBAL_MAXIMA:  # a call that runs out of budget stores nothing
        configs = global_candidates(b, j) if candidates is None else candidates
        _GLOBAL_MAXIMA[key] = _best_config(configs, "global max", certify=certify,
                                           cert_tol=cert_tol, budget=budget)
    return _GLOBAL_MAXIMA[key]


def compute_cell_max(
    spec: PartitionSpec,
    which: CellPair,
    b: int,
    j: int,
    *,
    certify: bool = False,
    cert_tol: float = _CERT_TOL,
    budget: Budget = NO_BUDGET,
    candidates: list[Configuration] | None = None,
) -> CellMaxResult:
    """Maximize over every candidate configuration of one cell-pair selector.

    With ``certify`` every configuration examined with a finite root bound is
    certified to within ``cert_tol`` times |maximum| of the maximum
    (``_certified_supremum``), whether or not its lattice seeded a search,
    except those ``_dominated`` pruned: the prune bounded them strictly below
    an incumbent no larger than the maximum.  ``unsearched`` lists the
    configurations whose root bound lies above the maximum but whose lattice
    seeded no search.  The two selectors whose families are the global ones
    read the memoised global maximum (``global_form_max``) once the spec is
    validated.  ``candidates`` is the selector's list (``enumerate_candidates``,
    or ``global_candidates`` for the global ones) where the caller has it
    already; otherwise it is enumerated here.
    """
    if _FAMILIES[(spec.kind, which)] is _global_max_families:
        spec.validate(b, j)
        res = _global_max(b, j, certify, cert_tol, budget, candidates)
    else:
        configs = enumerate_candidates(spec, which, b, j) if candidates is None else candidates
        res = _best_config(configs, f"{which.label} enumeration",
                           certify=certify, cert_tol=cert_tol, budget=budget)
    exactness = "upper_bound" if (spec.kind, which) in UPPER_BOUND_ONLY else "attained"
    return replace(res, selector=which, exactness=exactness)


def _forkable() -> bool:
    """Whether a second process can search beside this one: ``os.fork``
    exists, at least two CPUs are in this process's affinity set, and this
    process runs one Python thread, so no lock can be held across the fork."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2 and threading.active_count() == 1)


def _search_split(search: Callable[[CellPair], CellMaxResult], ours: list[CellPair],
                  theirs: list[CellPair]) -> dict[CellPair, CellMaxResult]:
    """``search(cell)`` for every cell of both lists, keyed by cell.

    With both lists non-empty and ``_forkable()``, a forked child searches
    ``theirs`` and pickles its results, or its exception, back through a
    pipe before it leaves by ``os._exit``, while the caller searches
    ``ours``.  Meanwhile each runs on its own half of the caller's CPU set:
    the scheduler can leave a forked child on its parent's CPU while
    another CPU idles.  The caller then gets its whole CPU set back,
    re-raises the child's exception, or raises ``RuntimeError`` with the
    child's exit status if the child sent nothing, and always reaps the
    child, killing it first if the caller's own search failed.  Otherwise,
    or where the fork fails, the caller searches ``ours``, then ``theirs``.
    """
    pid = -1
    if ours and theirs and _forkable():
        cpus = sorted(os.sched_getaffinity(0))
        read, write = os.pipe()
        try:
            pid = os.fork()
        except OSError:   # no process to spare
            os.close(read)
            os.close(write)
    if pid < 0:
        return {which: search(which) for which in ours + theirs}
    if pid == 0:
        status = 1
        try:
            os.sched_setaffinity(0, cpus[len(cpus) // 2 :])
            os.close(read)
            try:
                out = True, [search(which) for which in theirs]
            except BaseException as exc:   # forwarded: the caller raises it
                out = False, exc
            data = pickle.dumps(out)
            with os.fdopen(write, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    done = False
    try:
        with os.fdopen(read, "rb") as pipe:
            os.sched_setaffinity(0, cpus[: len(cpus) // 2])
            found = {which: search(which) for which in ours}
            data = pipe.read()
        done = True
    finally:
        os.sched_setaffinity(0, cpus)
        if not done:
            os.kill(pid, signal.SIGKILL)
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0:   # the child sets 0 only once its whole result is written
        raise RuntimeError(f"the forked search exited with status {status} before sending its result")
    ok, out = pickle.loads(data)
    if not ok:
        raise out
    found.update(zip(theirs, out))
    return found


def compute_all_cell_maxima(
    spec: PartitionSpec,
    b: int,
    j: int,
    *,
    certify: bool = False,
    budget: Budget = NO_BUDGET,
) -> dict[CellPair, CellMaxResult]:
    """The four cell maxima of one bound, in ``CellPair`` order, each equal
    to its ``compute_cell_max``.

    A global cell already in the memo is answered first.  The other cells'
    candidates are enumerated once, in ``CellPair`` order, and the cells are
    dealt longest first by candidate count, each to the list with fewer
    candidates so far.  ``_search_split`` searches the list with more
    candidates here and the other in a forked child, which starts later,
    where a second CPU is ours.  A global cell searched in the child enters
    the memo as ``_global_max`` stores it.
    """
    key = _global_key(b, j, certify, _CERT_TOL)
    glob = {which for which in CellPair if _FAMILIES[(spec.kind, which)] is _global_max_families}
    todo: dict[CellPair, list[Configuration]] = {}

    def search(which: CellPair) -> CellMaxResult:
        return compute_cell_max(spec, which, b, j, certify=certify, budget=budget,
                                candidates=todo.get(which))

    def load(side: list[CellPair]) -> int:
        return sum(len(todo[which]) for which in side)

    cells = {which: search(which) for which in CellPair if which in glob and key in _GLOBAL_MAXIMA}
    for which in CellPair:
        if which not in cells:
            todo[which] = global_candidates(b, j) if which in glob else enumerate_candidates(spec, which, b, j)
    lists: tuple[list[CellPair], list[CellPair]] = ([], [])
    for which in sorted(todo, key=lambda which: -len(todo[which])):
        min(lists, key=lambda side: (load(side), len(side))).append(which)
    theirs, ours = sorted(lists, key=load)
    cells.update(_search_split(search, ours, theirs))
    for which in todo.keys() & glob:   # a no-op unless the child searched it
        _GLOBAL_MAXIMA.setdefault(key, replace(cells[which], selector=None, exactness="attained"))
    return {which: cells[which] for which in CellPair}


def global_form_max(
    b: int, j: int, *, certify: bool = False, budget: Budget = NO_BUDGET
) -> CellMaxResult:
    """Unconstrained maximum of the order-j polynomial over simplex pairs,
    certified with ``cert_tol`` 1e-9 when asked; its memo entry is the one
    the max partition's m2 and the min partition's m4 read."""
    return _global_max(b, j, certify, _CERT_TOL, budget)
