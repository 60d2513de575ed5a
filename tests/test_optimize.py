import functools
import hashlib
import itertools
import os
import time

import numpy as np
import pytest

from hashbound import optimize, presets
from hashbound.combiner import full_bound
from hashbound.configs import (
    _FEAS_TOL as _FEAS_PAD,
    Block,
    CellPair,
    Configuration,
    FreeVar,
    PartitionKind,
    PartitionSpec,
    enumerate_candidates,
    global_candidates,
)
from hashbound.optimize import (
    Budget,
    BudgetExceeded,
    _cell_bounds_batch,
    _centred_bounds_batch,
    _certified_supremum,
    _bisect,
    _gradient_bounds,
    _lattices,
    _pick_seeds,
    _root_box,
    compute_all_cell_maxima,
    compute_cell_max,
    global_form_max,
    maximize_config,
)
from hashbound.oracle import sample_subdomain
from hashbound.seppoly import _sep_partials, sep_batch, sep_uniform_exact, SepParams

from helpers import (
    best_config_exhaustive,
    block_level_ranges,
    dense_scan_max,
    lattice_reference,
    pick_seeds_loop,
    root_bound,
    spread,
)


def test_zero_dim_config_is_exact():
    spec = PartitionSpec(PartitionKind.MAX_VALUE, 0.09)
    cfgs = enumerate_candidates(spec, CellPair.BULK_BULK, 7, 5)
    uniform = next(
        c for c in cfgs
        if c.family == "max-m1/uncapped" and dict(c.discrete) == {"l1": 0, "l2": 0}
    )
    assert uniform.dim == 0
    res = maximize_config(uniform)
    assert res.value == pytest.approx(sep_uniform_exact(SepParams(7, 5)), abs=1e-15)


def test_maximize_dominates_random_probes():
    rng = np.random.default_rng(99)
    spec = PartitionSpec(PartitionKind.MIN_VALUE, 0.05)
    for which in (CellPair.BULK_BULK, CellPair.TAGGED_SAME):
        cfgs = enumerate_candidates(spec, which, 6, 4)
        for cfg in cfgs[:8]:
            res = maximize_config(cfg)
            if res is None or cfg.dim == 0:
                continue
            lo = np.array([fv.lo for fv in cfg.free])
            hi = np.array([fv.hi for fv in cfg.free])
            X = lo + (hi - lo) * rng.random((1000, cfg.dim))
            P, Q, feas = cfg.assemble(X)
            if not feas.any():
                continue
            vals = sep_batch(P[feas], Q[feas], cfg.j)
            assert vals.max() <= res.value + 1e-9


def test_cell_max_seven_seven_m3():
    spec = PartitionSpec(PartitionKind.MAX_VALUE, 9 / 100)
    res = compute_cell_max(spec, CellPair.TAGGED_SAME, 7, 5)
    assert res.value == pytest.approx(0.000006, abs=1e-5)
    assert res.exactness == "attained"


def test_cell_max_flags_upper_bounds():
    spec = PartitionSpec(PartitionKind.MIN_VALUE, 0.05)
    assert compute_cell_max(spec, CellPair.TAGGED_SAME, 6, 4).exactness == "upper_bound"
    assert compute_cell_max(spec, CellPair.TAGGED_CROSS, 6, 4).exactness == "upper_bound"
    assert compute_cell_max(spec, CellPair.BULK_BULK, 6, 4).exactness == "attained"


def test_global_form_max_truncated_simplex():
    # for (6, j=4) the unconstrained maximum sits at a vertex against the
    # spread vector, giving 0.192 exactly
    res = global_form_max(6, 4)
    assert res.value == pytest.approx(0.192, abs=1e-9)


def test_certified_mode_small_excess():
    spec = PartitionSpec(PartitionKind.MIN_VALUE, 0.05)
    res = compute_cell_max(spec, CellPair.BULK_BULK, 6, 4, certify=True)
    assert 0.0 <= res.certified_excess < 1e-4
    plain = compute_cell_max(spec, CellPair.BULK_BULK, 6, 4)
    assert res.value == pytest.approx(plain.value, abs=1e-12)
    assert not res.certify_capped and not plain.certify_capped


def test_certify_node_cap_is_reported(monkeypatch):
    # on the (6,6) preset the same-tag search, held to 1,000 nodes, stops at
    # its node cap with a slack above the requested tolerance; the cross-tag
    # one finishes under the default cap
    from hashbound import combiner, presets

    pre = presets.PARTITION_PRESETS[(6, 6)]
    with monkeypatch.context() as m:
        m.setattr(optimize, "_certified_supremum",
                  functools.partial(optimize._certified_supremum, max_nodes=1000))
        capped = compute_cell_max(pre.spec(), CellPair.TAGGED_SAME, 6, pre.j, certify=True)
    assert capped.certify_capped
    assert capped.certified_excess > 1e-5
    done = compute_cell_max(pre.spec(), CellPair.TAGGED_CROSS, 6, pre.j, certify=True)
    assert not done.certify_capped
    assert done.certified_excess <= 1e-5

    # the report flags exactly the capped cell
    def with_certified_tags(*args, **kwargs):
        cells = compute_all_cell_maxima(*args, **kwargs)
        cells[CellPair.TAGGED_SAME] = capped
        cells[CellPair.TAGGED_CROSS] = done
        return cells

    monkeypatch.setattr(combiner, "compute_all_cell_maxima", with_certified_tags)
    rep = combiner.full_bound(6, 6, pre.j, pre.spec())
    assert [f for f in rep.flags if f.endswith(":certify-node-cap")] == ["m3:certify-node-cap"]


def test_six_six_same_tag_excess_under_default_cap():
    # the sign-split gradient enclosure bounds the boxes on the diagonal
    # feasibility edge, where an eliminated block reaches 0, tightly enough
    # that the default cap leaves a slack of at most 1e-8
    from hashbound import presets

    pre = presets.PARTITION_PRESETS[(6, 6)]
    res = compute_cell_max(pre.spec(), CellPair.TAGGED_SAME, 6, pre.j, certify=True)
    assert 0.0 <= res.certified_excess <= 1e-8


def test_five_five_certifies_every_cell_without_cap():
    from hashbound import presets

    pre = presets.PARTITION_PRESETS[(5, 5)]
    for which in CellPair:
        res = compute_cell_max(pre.spec(), which, 5, pre.j, certify=True)
        assert not res.certify_capped, which
        assert 0.0 <= res.certified_excess <= 1e-5, which


def _sub_boxes(rng, lo0, hi0):
    """The root box, boxes at its two extreme corners, random sub-boxes,
    small boxes and a point box inside it."""
    d = lo0.size
    boxes = [(lo0, hi0)]
    for _ in range(2):
        x = lo0 + (hi0 - lo0) * rng.random(d)
        boxes += [(lo0, x), (x, hi0)]
    for _ in range(3):
        a, c = lo0 + (hi0 - lo0) * rng.random((2, d))
        boxes.append((np.minimum(a, c), np.maximum(a, c)))
    for _ in range(2):
        x = lo0 + (hi0 - lo0) * rng.random(d)
        h = 10.0 ** rng.uniform(-7, -1, d)
        boxes.append((np.maximum(x - h, lo0), np.minimum(x + h, hi0)))
    x = lo0 + (hi0 - lo0) * rng.random(d)
    boxes.append((x, x.copy()))
    return boxes


def _swinging_configuration(rng):
    """Random affine blocks in one or two free variables on [0, 1]: constants
    and coefficients of either sign, so block values cross 0 in many boxes."""
    b = int(rng.integers(3, 7))
    d = int(rng.integers(1, 3))

    def side():
        cuts = np.sort(rng.choice(np.arange(1, b), size=int(rng.integers(0, min(3, b - 1) + 1)),
                                  replace=False))
        return tuple(
            Block(int(m), float(rng.uniform(-0.6, 0.6)),
                  tuple((k, float(rng.uniform(-1.0, 1.0))) for k in range(d) if rng.random() < 0.7),
                  -1.0, 1.0)
            for m in np.diff(np.concatenate(([0], cuts, [b])))
        )

    return Configuration(
        b=b, j=int(rng.integers(2, b)), family="test/swing", discrete=(),
        blocks_p=side(), blocks_q=side(), free=tuple(FreeVar(f"x{k}", 0.0, 1.0) for k in range(d)),
    )


def test_centred_bound_dominates_sampled_points():
    # the bound holds for the unclipped polynomial on the whole box, block
    # values below zero included, and is raised above the rounding of
    # sep_batch: it must dominate every sampled point, both corners and the centre
    from hashbound import presets

    rng = np.random.default_rng(41)
    configs = []
    for b, k in ((5, 5), (6, 6), (7, 7), (9, 8)):
        pre = presets.PARTITION_PRESETS[(b, k)]
        for which in CellPair:
            cfgs = [c for c in enumerate_candidates(pre.spec(), which, b, pre.j) if c.dim]
            configs += [cfgs[i] for i in rng.choice(len(cfgs), size=min(3, len(cfgs)), replace=False)]
    # made-up configurations whose blocks swing across 0 on their boxes
    configs += [_swinging_configuration(rng) for _ in range(40)]
    crossing = 0
    for cfg in configs:
        lo0 = np.array([fv.lo for fv in cfg.free])
        hi0 = np.array([fv.hi for fv in cfg.free])
        boxes = _sub_boxes(rng, lo0, hi0)
        los = np.array([lo for lo, _ in boxes])
        his = np.array([hi for _, hi in boxes])
        vlo, vhi = cfg.block_ranges(los, his)
        bounds = _centred_bounds_batch(cfg, los, his, (vlo, vhi))
        for side in (slice(None, cfg.b), slice(cfg.b, None)):
            crossing += int(((vlo[:, side] < 0.0) & (vhi[:, side] > 0.0)).any(axis=1).sum())
        for (lo, hi), bound in zip(boxes, bounds):
            X = np.clip(lo + (hi - lo) * rng.random((2000, cfg.dim)), lo, hi)
            X = np.vstack([X, lo, hi, 0.5 * (lo + hi)])
            P, Q, _feas = cfg.assemble(X)
            assert bound >= sep_batch(P, Q, cfg.j).max(), (cfg.describe(), lo, hi)
    assert crossing >= 100


def test_split_gradient_enclosure_contains_sampled_partials():
    # boxes where some block range reaches below its band edge at 0: the
    # gradient of the unclipped polynomial at 2,000 points and the corners of
    # each box, by the chain rule over the partials there, lies inside the
    # sign-split enclosure
    rng = np.random.default_rng(43)
    cases = []
    for cfg in (c for c in _preset_and_sweep_configurations() if c.dim):
        los, his, _bounds = _lattices([cfg])[0]
        below = np.nonzero((cfg.block_ranges(los, his)[0] < 0.0).any(axis=1))[0]
        cases += [(cfg, los[i], his[i]) for i in rng.permutation(below)[:2]]
    for _ in range(30):
        cfg = _swinging_configuration(rng)
        cases += [(cfg, lo, hi) for lo, hi in _sub_boxes(rng, *_root_box(cfg))[:-1]]
    split = 0
    for cfg, lo, hi in cases:
        if not (cfg.block_ranges(lo[None], hi[None])[0] < 0.0).any():
            continue
        split += 1
        g_lo, g_hi, g_abs = (g[0] for g in _gradient_bounds(cfg, cfg.block_ranges(lo[None], hi[None])))
        corners = np.array(list(itertools.product(*zip(lo, hi))))
        X = np.vstack([np.clip(lo + (hi - lo) * rng.random((2000, cfg.dim)), lo, hi), corners])
        starts, Cp, Cq = cfg.chain_rule
        rows = np.repeat(cfg.block_values(X), len(starts), axis=0)
        dp, dq = _sep_partials(rows[:, : cfg.b], rows[:, cfg.b :], cfg.j, np.tile(starts, len(X)))
        grad = dp.reshape(len(X), -1) @ Cp + dq.reshape(len(X), -1) @ Cq
        slack = 1e-12 * g_abs
        assert (g_lo - slack <= grad).all() and (grad <= g_hi + slack).all(), (cfg.describe(), lo, hi)
    assert split >= 200


def test_pick_seeds_matches_the_greedy_loop():
    # ties, -inf values and points exactly two cells apart: the alive mask
    # picks the indices the one-at-a-time loop picks, in its order
    rng = np.random.default_rng(47)
    for d in (1, 2, 3):
        for n in (0, 1, 5, 40, 216):
            for count in (1, 6):
                X = rng.integers(0, 8, (n, d)) * 0.125
                vals = rng.integers(0, 4, n) * 0.25
                vals[rng.random(n) < 0.3] = -np.inf
                cell = np.full(d, 0.0625 * rng.integers(1, 3))
                want = pick_seeds_loop(X, vals, cell, count)
                got = _pick_seeds(X, vals, cell, count)
                assert got.dtype == want.dtype and np.array_equal(got, want), (d, n, count)


#: sha256 of the pinned cells' (value, config_tag, p, q) reprs, one line each
PINNED_CELLS = "d4959402a2d2616f2b08d719209796cca1439c48e6ee203a35eff5e56241136f"


def test_uncertified_cells_are_pinned():
    # value, configuration and witness of the 48 uncertified preset cells and
    # of two eps-sweep cells off their presets, to the last bit: a change
    # meant to speed up the search must not move any of them
    from hashbound import presets

    cells = [(pre.spec(), b, pre.j) for (b, _k), pre in sorted(presets.PARTITION_PRESETS.items())]
    cells += [(PartitionSpec(PartitionKind.MIN_VALUE, 0.05), 6, 3),
              (PartitionSpec(PartitionKind.MAX_VALUE, 0.093), 7, 5)]
    digest = hashlib.sha256()
    for spec, b, j in cells:
        for which in CellPair:
            res = compute_cell_max(spec, which, b, j)
            digest.update(repr((res.value, res.config_tag, res.p, res.q)).encode() + b"\n")
    assert digest.hexdigest() == PINNED_CELLS


#: sha256 of the certified preset cells' (value, certified_excess,
#: certify_capped, config_tag) reprs, one line each
PINNED_CERTIFIED_CELLS = "0ec7ec4885fa715733b575a16e6b118396765075e50f29f848fd7aaf37d59540"


def test_certified_cells_are_pinned():
    # value, certified slack, cap flag and configuration of the 12 certified
    # cells of the (5,5), (6,6) and (7,7) presets, to the last bit: a change
    # meant to speed up the search or the certifier must not move any of them
    from hashbound import presets

    digest = hashlib.sha256()
    for b, k in ((5, 5), (6, 6), (7, 7)):
        pre = presets.PARTITION_PRESETS[(b, k)]
        for which in CellPair:
            res = compute_cell_max(pre.spec(), which, b, pre.j, certify=True)
            line = repr((res.value, res.certified_excess, res.certify_capped, res.config_tag))
            digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == PINNED_CERTIFIED_CELLS


#: sha256 of (describe(), value, p, q) from ``maximize_config`` for every
#: configuration with a finite lattice bound, one line each
PINNED_CONFIG_MAXIMA = "0ea64a22aa4eb0722c2efbdd2f7efecaf2cc21a8afcab514c3a3d6dc463f31cc"


def test_config_maxima_are_pinned():
    # the local search's result on every configuration of the (5,5), (6,6)
    # and (7,7) presets and of (6,6) min j=3 at eps 0.05, to the last bit,
    # losers included: the cell pins only see each selector's winner ((7,7)
    # max j=5 at eps 0.09 is the (7,7) preset)
    from hashbound import presets

    cells = [(pre.spec(), pre.b, pre.j) for pre in (presets.PARTITION_PRESETS[(b, k)]
                                                    for b, k in ((5, 5), (6, 6), (7, 7)))]
    cells +=[(PartitionSpec(PartitionKind.MIN_VALUE, 0.05), 6, 3)]
    digest, count = hashlib.sha256(), 0
    for spec, b, j in cells:
        for which in CellPair:
            configs = enumerate_candidates(spec, which, b, j)
            for cfg, lattice in zip(configs, _lattices(configs), strict=True):
                if np.isfinite(lattice[2]).any():
                    res = maximize_config(cfg, lattice)
                    line = (cfg.describe(),) + ((None,) if res is None else (res.value, res.p, res.q))
                    digest.update(repr(line).encode() + b"\n")
                    count += 1
    assert count == 288
    assert digest.hexdigest() == PINNED_CONFIG_MAXIMA


def test_block_ranges_enclose_block_values():
    # the coordinate ranges are the block-level ranges spread to coordinates,
    # to the last bit; every coordinate value at a sampled point or a corner
    # of a box lies in its range over that box, and a point box's range is
    # its value
    rng = np.random.default_rng(17)
    configs = [c for c in _preset_and_sweep_configurations() if c.dim]
    configs += [_swinging_configuration(rng) for _ in range(40)]
    for cfg in configs:
        lo0, hi0 = _root_box(cfg)
        boxes = _sub_boxes(rng, lo0, hi0)
        los = np.array([lo for lo, _ in boxes])
        his = np.array([hi for _, hi in boxes])
        vlo, vhi = cfg.block_ranges(los, his)
        for got, want in zip((vlo, vhi), block_level_ranges(cfg, los, his), strict=True):
            assert got.tobytes() == spread(cfg, want).tobytes(), cfg.describe()
        for (lo, hi), box_lo, box_hi in zip(boxes, vlo, vhi):
            corners = np.array(list(itertools.product(*zip(lo, hi))))
            X = np.vstack([np.clip(lo + (hi - lo) * rng.random((200, cfg.dim)), lo, hi), corners])
            V = cfg.block_values(X)
            assert (box_lo <= V).all() and (V <= box_hi).all(), (cfg.describe(), lo, hi)
            assert (V.min(axis=0) == box_lo).all() and (V.max(axis=0) == box_hi).all()
        point_lo, point_hi = cfg.block_ranges(los[-1:], his[-1:])
        assert (point_lo == cfg.block_values(los[-1:])).all() and (point_hi == point_lo).all()


def test_centred_bound_overestimate_is_second_order():
    # around an interior point, shrinking the box tenfold shrinks the centred
    # bound's excess over the box maximum about a hundredfold, the corner
    # bound's only about tenfold
    from hashbound import presets

    pre = presets.PARTITION_PRESETS[(7, 7)]
    cfg = next(c for c in enumerate_candidates(pre.spec(), CellPair.BULK_BULK, 7, pre.j)
               if c.dim == 1)
    x0 = 0.5 * (cfg.free[0].lo + cfg.free[0].hi)
    excess = {}
    for h in (1e-2, 1e-3):
        lo, hi = np.array([[x0 - h]]), np.array([[x0 + h]])
        P, Q, _feas = cfg.assemble(np.linspace(x0 - h, x0 + h, 2001)[:, None])
        top = sep_batch(P, Q, cfg.j).max()
        ranges = cfg.block_ranges(lo, hi)
        excess[h] = (_centred_bounds_batch(cfg, lo, hi, ranges)[0] - top,
                     _cell_bounds_batch(cfg, ranges)[0] - top)
    centred_ratio = excess[1e-2][0] / excess[1e-3][0]
    corner_ratio = excess[1e-2][1] / excess[1e-3][1]
    assert centred_ratio > 50.0
    assert corner_ratio < 20.0


@pytest.mark.parametrize("kind, eps, b, j, which", [
    (PartitionKind.MAX_VALUE, 9 / 100, 7, 5, CellPair.BULK_BULK),
    (PartitionKind.MAX_VALUE, 9 / 100, 7, 5, CellPair.TAGGED_SAME),
    (PartitionKind.MIN_VALUE, 0.05, 6, 4, CellPair.BULK_BULK),
    (PartitionKind.MIN_VALUE, 0.05, 6, 4, CellPair.BULK_TAGGED),
    (PartitionKind.MIN_VALUE, 0.05, 6, 3, CellPair.TAGGED_SAME),
    (None, None, 6, 4, None),  # global_form_max(6, 4)
])
def test_root_bound_pruning_matches_brute_force(monkeypatch, kind, eps, b, j, which):
    if which is None:
        cfgs = global_candidates(b, j)
    else:
        spec = PartitionSpec(kind, eps)
        cfgs = enumerate_candidates(spec, which, b, j)
    best, best_tag = best_config_exhaustive(cfgs)

    maximized = []

    def counted(cfg, *args, **kwargs):
        res = maximize_config(cfg, *args, **kwargs)
        maximized.append((cfg.describe(), res))
        return res

    monkeypatch.setattr(optimize, "maximize_config", counted)
    got = global_form_max(b, j) if which is None else compute_cell_max(spec, which, b, j)
    assert (got.value, got.config_tag, got.p, got.q) == (best.value, best_tag, best.p, best.q)
    feasible = {cfg.describe() for cfg in cfgs if np.isfinite(root_bound(cfg))}
    assert feasible - {tag for tag, _res in maximized}, "no configuration was skipped"


def _exhaustive_cells():
    """Every selector of the (5,5), (6,5), (6,6) and (7,7) presets and of the
    eps sweep's (6,6) min j=3 cell at eps 0.05, as (spec, which, b, j); the
    sweep's (7,7) max j=5 cell at eps 0.09 is the (7,7) preset's."""
    from hashbound import presets

    cells = []
    for b, k in ((5, 5), (6, 5), (6, 6), (7, 7)):
        pre = presets.PARTITION_PRESETS[(b, k)]
        cells.append((pre.spec(), b, pre.j))
    cells.append((PartitionSpec(PartitionKind.MIN_VALUE, 0.05), 6, 3))
    return [(spec, which, b, j) for spec, b, j in cells for which in CellPair]


def test_cell_max_matches_exhaustive_search():
    # bounding and the prune skip only configurations that cannot win: the
    # result is the one a search of every configuration gives
    for spec, which, b, j in _exhaustive_cells():
        best, tag = best_config_exhaustive(enumerate_candidates(spec, which, b, j))
        got = compute_cell_max(spec, which, b, j)
        assert (got.value, got.config_tag, got.p, got.q) == (best.value, tag, best.p, best.q), (b, j, which)


def _global_cells():
    """The selector that ranges over the global families on each of the 12
    presets and on the eps sweep's two cells off their presets, as
    (spec, which, b, j): the max partition's m2 and the min partition's m4."""
    from hashbound import presets

    cells = [(pre.spec(), b, pre.j) for (b, _k), pre in sorted(presets.PARTITION_PRESETS.items())]
    cells += [(PartitionSpec(PartitionKind.MIN_VALUE, 0.047), 6, 3),
              (PartitionSpec(PartitionKind.MAX_VALUE, 0.093), 7, 5)]
    return [(spec, CellPair.BULK_TAGGED if spec.kind is PartitionKind.MAX_VALUE
             else CellPair.TAGGED_CROSS, b, j) for spec, b, j in cells]


@pytest.mark.parametrize("certify", [False, True])
def test_global_cells_match_the_unmemoised_search(certify):
    # the selector's own configurations are the global ones, and the memo
    # hands back every field an un-memoised search of them gives, apart from
    # the selector and its exactness
    from dataclasses import replace

    from hashbound.configs import UPPER_BOUND_ONLY

    for spec, which, b, j in _global_cells():
        configs = global_candidates(b, j)
        assert [c.describe() for c in configs] == [
            c.describe() for c in enumerate_candidates(spec, which, b, j)]
        want = optimize._best_config(configs, "global max", certify=certify, cert_tol=1e-9,
                                     budget=Budget(None))
        exactness = "upper_bound" if (spec.kind, which) in UPPER_BOUND_ONLY else "attained"
        for _ in range(2):  # the first call fills the memo, the second reads it
            got = compute_cell_max(spec, which, b, j, certify=certify)
            assert got == replace(want, selector=which, exactness=exactness), (b, j, which)
        assert (want.certified_excess > 0.0) == certify, (b, j, which)


def test_warm_full_bound_enumerates_three_cells(monkeypatch):
    # at a new eps only the three eps-dependent cells are searched: the
    # fourth cell and the global path read the memo
    from hashbound.combiner import full_bound

    full_bound(6, 6, 3, PartitionSpec(PartitionKind.MIN_VALUE, 0.05))
    searched = []
    enumerate_real, global_real = optimize.enumerate_candidates, optimize.global_candidates

    def enumerated(spec, which, b, j):
        searched.append(which)
        return enumerate_real(spec, which, b, j)

    def global_searched(b, j):
        searched.append((b, j))
        return global_real(b, j)

    monkeypatch.setattr(optimize, "enumerate_candidates", enumerated)
    monkeypatch.setattr(optimize, "global_candidates", global_searched)
    rep = full_bound(6, 6, 3, PartitionSpec(PartitionKind.MIN_VALUE, 0.047))
    assert searched == [CellPair.BULK_BULK, CellPair.BULK_TAGGED, CellPair.TAGGED_SAME]
    assert 0.0 < rep.bound < 1.0


def test_global_memo_answers_only_its_own_request(monkeypatch):
    from dataclasses import replace

    searched = []
    real = optimize.global_candidates

    def counted(b, j):
        searched.append((b, j))
        return real(b, j)

    monkeypatch.setattr(optimize, "global_candidates", counted)
    spec = PartitionSpec(PartitionKind.MAX_VALUE, 0.09)
    certified = compute_cell_max(spec, CellPair.BULK_TAGGED, 7, 5, certify=True)
    assert certified.certified_excess > 0.0
    # an uncertified request is not served by the certified entry
    plain = compute_cell_max(spec, CellPair.BULK_TAGGED, 7, 5)
    assert plain.certified_excess == 0.0 and plain.value == certified.value
    # nor a tighter tolerance by a looser one
    tight = compute_cell_max(spec, CellPair.BULK_TAGGED, 7, 5, certify=True, cert_tol=1e-12)
    assert searched == [(7, 5)] * 3
    assert tight.certified_excess <= 1e-12 * tight.value
    assert compute_cell_max(spec, CellPair.BULK_TAGGED, 7, 5, certify=True) == certified
    assert global_form_max(7, 5, certify=True) == replace(certified, selector=None, exactness="attained")
    # the spec is still checked against (b, j) when the entry is there
    with pytest.raises(ValueError):
        compute_cell_max(PartitionSpec(PartitionKind.MAX_VALUE, 0.5), CellPair.BULK_TAGGED, 7, 5)
    with pytest.raises(ValueError):
        compute_cell_max(PartitionSpec(PartitionKind.MIN_VALUE, 0.2), CellPair.TAGGED_CROSS, 7, 5)
    # both selectors read one entry, each under its own name
    cross = compute_cell_max(PartitionSpec(PartitionKind.MIN_VALUE, 0.1), CellPair.TAGGED_CROSS, 7, 5)
    assert (plain.selector, cross.selector) == (CellPair.BULK_TAGGED, CellPair.TAGGED_CROSS)
    assert (cross.value, cross.p, cross.q) == (plain.value, plain.p, plain.q)
    assert searched == [(7, 5)] * 3


@pytest.fixture(scope="module")
def bounded_search():
    """One certified search of every cell of ``_exhaustive_cells``, from an
    empty memo of global maxima (so a global cell met twice is searched once),
    recording each configuration the prune drops with its incumbent, and each
    lattice the certify pass starts from with the value it certifies against
    (the prune runs the certifier too, with a ``max_depth``)."""
    pruned, certified = [], []
    dominated, supremum = optimize._dominated, optimize._certified_supremum

    def record_prune(cfg, lattice, incumbent):
        out = dominated(cfg, lattice, incumbent)
        if out:
            pruned.append((cfg, lattice, incumbent))
        return out

    def record_certification(cfg, lower, lattice, **kwargs):
        if "max_depth" not in kwargs:
            certified.append((cfg, lower, lattice[2]))
        return supremum(cfg, lower, lattice, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize, "_GLOBAL_MAXIMA", {})
        mp.setattr(optimize, "_dominated", record_prune)
        mp.setattr(optimize, "_certified_supremum", record_certification)
        for spec, which, b, j in _exhaustive_cells():
            compute_cell_max(spec, which, b, j, certify=True)
    return pruned, certified


def test_pruned_configurations_lie_below_incumbent(bounded_search):
    # no admitted point of a dropped configuration reaches the incumbent it
    # was compared against: at least 2,000 admitted samples of its box, its
    # lattice centres and a sample of each part whose bound reached it
    pruned, _certified = bounded_search
    rng = np.random.default_rng(23)
    for cfg, (los, his, bounds), incumbent in pruned:
        lo, hi = _root_box(cfg)
        top = bounds >= incumbent
        X = [0.5 * (los + his), los[top] + (his[top] - los[top]) * rng.random((top.sum(), cfg.dim))]
        admitted = 0
        for _ in range(50):
            if admitted >= 2000:
                break
            batch = lo + (hi - lo) * rng.random((10_000, cfg.dim))
            admitted += int(cfg.assemble(batch)[2].sum())
            X.append(batch)
        assert admitted >= 2000, cfg.describe()
        P, Q, feas = cfg.assemble(np.vstack(X))
        assert sep_batch(P[feas], Q[feas], cfg.j).max() < incumbent, cfg.describe()
    assert len(pruned) >= 20


def test_bisected_children_tile_their_parent():
    rng = np.random.default_rng(8)
    for d in (1, 2, 3):
        los = rng.random((5, d))
        his = los + rng.uniform(1e-9, 1.0, (5, d))
        child_lo, child_hi = _bisect(los, his)
        assert child_lo.shape == child_hi.shape == (10, d)
        for i, (lo, hi) in enumerate(zip(los, his)):
            # the lower half comes in box order, the upper half five rows on;
            # they meet at the midpoint of the widest axis and copy the box
            # along every other axis, so they tile it exactly
            widest = np.arange(d) == np.argmax(hi - lo)
            mid = 0.5 * (lo + hi)
            assert (child_lo[i] == lo).all() and (child_hi[i + 5] == hi).all()
            assert (child_hi[i] == np.where(widest, mid, hi)).all()
            assert (child_lo[i + 5] == np.where(widest, mid, lo)).all()


def test_pruned_configurations_are_not_certified(bounded_search):
    # the prune bounded every grandchild strictly below an incumbent no
    # larger than the cell value, so certifying the configuration again
    # cannot raise the certified value
    pruned, certified = bounded_search
    assert pruned and certified
    assert not {id(cfg) for cfg, *_ in pruned} & {id(cfg) for cfg, *_ in certified}


def test_dominated_configurations_are_not_polished(monkeypatch):
    # on the eps-sweep's (6,6) min j=3 same-tag cell the 3-D q-lead shapes
    # bound at 0.67-0.86 on their corner-bound lattice against a maximum of
    # 0.4815; only the one that comes first before any incumbent exists and
    # the two that two rounds of bisection cannot separate from the
    # incumbent are still polished
    polished = []

    def counted(cfg, *args, **kwargs):
        polished.append(cfg)
        return maximize_config(cfg, *args, **kwargs)

    monkeypatch.setattr(optimize, "maximize_config", counted)
    res = compute_cell_max(PartitionSpec(PartitionKind.MIN_VALUE, 0.05), CellPair.TAGGED_SAME, 6, 3)
    assert res.value == pytest.approx(0.4815, abs=1e-4)
    deep = [c.describe() for c in polished if c.dim == 3 and c.family.startswith("min-m3/q-lead-")]
    assert len(polished) <= 5
    assert len(deep) <= 3 and not [tag for tag in deep if tag.startswith("min-m3/q-lead-zero")]


def test_prune_keeps_a_configuration_that_ties_the_incumbent():
    # a free variable that enters no block leaves the polynomial constant on
    # the box: at an incumbent equal to that value nothing may be pruned, so
    # the tie still reaches the smallest-describe() rule; one ulp above, the
    # whole box bounds strictly below the incumbent
    cfg = Configuration(
        b=3, j=2, family="test/flat", discrete=(),
        blocks_p=(Block(1, 0.5, (), 0.5, 0.5), Block(2, 0.25, (), 0.25, 0.25)),
        blocks_q=(Block(3, 1 / 3, (), 1 / 3, 1 / 3),),
        free=(FreeVar("a", 0.0, 1.0),),
    )
    lattice = _lattices([cfg])[0]
    P, Q, feas = cfg.assemble(np.linspace(0.0, 1.0, 9)[:, None])
    values = sep_batch(P, Q, cfg.j)
    assert feas.all() and (values == values[0]).all() and (lattice[2] == values[0]).all()
    v = values[0]
    assert not optimize._dominated(cfg, lattice, v)
    assert optimize._dominated(cfg, lattice, np.nextafter(v, np.inf))


def _preset_and_sweep_configurations():
    """Every configuration of the (5,5), (6,6), (7,7) and (9,8) presets and
    of the two cells of the eps sweep, off their presets."""
    from hashbound import presets

    cells = []
    for b, k in ((5, 5), (6, 6), (7, 7), (9, 8)):
        pre = presets.PARTITION_PRESETS[(b, k)]
        cells.append((pre.spec(), b, pre.j))
    cells += [(PartitionSpec(PartitionKind.MIN_VALUE, 0.047), 6, 3),
              (PartitionSpec(PartitionKind.MAX_VALUE, 0.093), 7, 5)]
    return [cfg for spec, b, j in cells for which in CellPair
            for cfg in enumerate_candidates(spec, which, b, j)]


def test_stacked_lattices_match_the_per_configuration_reference():
    # every selector's configurations of the 12 presets, and of (6,6) min
    # j=3 and (7,7) max j=5 at three eps each, stacked into one call per
    # selector: the corners and bounds of every part, to the last bit
    from hashbound import presets

    cells = [(pre.spec(), b, pre.j) for (b, _k), pre in sorted(presets.PARTITION_PRESETS.items())]
    cells += [(PartitionSpec(PartitionKind.MIN_VALUE, eps), 6, 3) for eps in (0.047, 0.05, 0.053)]
    cells += [(PartitionSpec(PartitionKind.MAX_VALUE, eps), 7, 5) for eps in (0.087, 0.09, 0.093)]
    checked = 0
    for spec, b, j in cells:
        for which in CellPair:
            configs = enumerate_candidates(spec, which, b, j)
            for cfg, got in zip(configs, _lattices(configs), strict=True):
                for g, want in zip(got, lattice_reference(cfg), strict=True):
                    assert g.dtype == want.dtype and g.shape == want.shape, cfg.describe()
                    assert g.tobytes() == want.tobytes(), cfg.describe()
                checked += 1
    assert checked >= 1700


def test_stacked_lattices_bound_in_blocks(monkeypatch):
    # the 37 configurations of (6,6) min j=3 m3 have 7,424 parts in all:
    # their admitted parts go to the kernel in at most ceil(7424 / block)
    # calls of at most one block each
    configs = enumerate_candidates(PartitionSpec(PartitionKind.MIN_VALUE, 0.05),
                                   CellPair.TAGGED_SAME, 6, 3)
    parts = sum(optimize._ROOT_SPLITS[cfg.dim] ** cfg.dim for cfg in configs)
    assert len(configs) == 37 and parts == 7424
    rows = []

    def counted(P, Q, j):
        rows.append(len(P))
        return sep_batch(P, Q, j)

    monkeypatch.setattr(optimize, "sep_batch", counted)
    lattices = _lattices(configs)
    block = optimize._LATTICE_BLOCK
    assert 0 < len(rows) <= -(-parts // block) and max(rows) <= block
    assert sum(rows) == sum(int(np.isfinite(bounds).sum()) for _los, _his, bounds in lattices)


def test_split_root_bound_between_maximum_and_corner_bound():
    # the split bound, the largest corner bound of the lattice parts,
    # dominates every configuration's maximum and is never looser than the
    # corner bound of the whole box
    checked = 0
    for cfg in _preset_and_sweep_configurations():
        lo, hi = _root_box(cfg)
        corner = _cell_bounds_batch(cfg, cfg.block_ranges(lo[None, :], hi[None, :]))[0]
        split = root_bound(cfg)
        assert split <= corner, cfg.describe()
        res = maximize_config(cfg)
        if res is not None:
            assert res.value <= split, cfg.describe()
            checked += 1
    assert checked >= 400


def test_lattice_seeds_reach_dense_scan_maximum():
    # the lattice centres that seed the local search are far coarser than a
    # dense grid scan; the search must still reach every value the scan finds
    checked = 0
    for cfg in _preset_and_sweep_configurations():
        reference = dense_scan_max(cfg)
        if not np.isfinite(reference):
            continue
        res = maximize_config(cfg)
        assert res is not None, cfg.describe()
        assert res.value >= reference - 1e-12 * abs(res.value), cfg.describe()
        checked += 1
    assert checked >= 400


def _band_configuration(family, a_lo, a_hi, b=3):
    """j = 2: every coordinate of p at level a in [a_lo, a_hi], q uniform."""
    return Configuration(
        b=b, j=2, family=family, discrete=(),
        blocks_p=(Block(b, 0.0, ((0, 1.0),), a_lo, a_hi),),
        blocks_q=(Block(b, 1 / b, (), 1 / b, 1 / b),),
        free=(FreeVar("a", 0.0, 1.0),),
    )


def test_certified_value_covers_configuration_without_admitted_seed(monkeypatch):
    # a 1-D band of width 1e-4 holds no centre of its configuration's lattice
    # (nor a point of a dense grid), so the local search has nowhere to start;
    # its root bound is finite, and the certified value must still cover it
    ordinary = _band_configuration("test/ordinary", 0.0, 0.3)
    sliver = _band_configuration("test/sliver", 0.3001, 0.3002)
    assert maximize_config(sliver) is None and np.isfinite(root_bound(sliver))
    P, Q, feas = sliver.assemble(np.linspace(0.3001, 0.3002, 101)[:, None])
    sliver_max = sep_batch(P[feas], Q[feas], sliver.j).max()

    monkeypatch.setattr(optimize, "enumerate_candidates", lambda *args: [ordinary, sliver])
    spec = PartitionSpec(PartitionKind.MAX_VALUE, 0.1)
    res = compute_cell_max(spec, CellPair.BULK_BULK, 3, 2, certify=True)
    assert res.config_tag == "test/ordinary"
    assert res.value < sliver_max
    assert res.value + res.certified_excess >= sliver_max


@pytest.mark.parametrize("certify", [False, True])
def test_unsearched_configuration_is_flagged_when_uncertified(monkeypatch, certify):
    # the sliver's root bound lies above the reported value, yet nothing
    # searched it: an uncertified bound must say so; a certified one covers it
    from hashbound.combiner import full_bound

    ordinary = _band_configuration("test/ordinary", 0.0, 0.3, b=4)
    sliver = _band_configuration("test/sliver", 0.3001, 0.3002, b=4)
    real = optimize.enumerate_candidates

    def candidates(spec, which, b, j):
        return [ordinary, sliver] if which is CellPair.BULK_BULK else real(spec, which, b, j)

    monkeypatch.setattr(optimize, "enumerate_candidates", candidates)
    spec = PartitionSpec(PartitionKind.MAX_VALUE, 0.1)
    res = compute_cell_max(spec, CellPair.BULK_BULK, 4, 2, certify=certify)
    assert res.unsearched == ("test/sliver",)
    rep = full_bound(4, 4, 2, spec, certify=certify)
    flagged = [f for f in rep.flags if f.endswith(":unsearched-configuration")]
    assert flagged == ([] if certify else ["m1:unsearched-configuration"])
    assert all("unsearched" not in key for cell in rep.cell_values.values() for key in cell)


def test_certified_supremum_keeps_slack_of_dropped_boxes():
    # with the incumbent just below the winning configuration's maximum and
    # a tolerance above the gap, every box is dropped within tolerance: the
    # result must still be at least the attained maximum
    from hashbound import presets

    pre = presets.PARTITION_PRESETS[(5, 5)]
    for which in CellPair:
        res = compute_cell_max(pre.spec(), which, 5, pre.j)
        cfg = next(c for c in enumerate_candidates(pre.spec(), which, 5, pre.j)
                   if c.describe() == res.config_tag)
        sup, capped = _certified_supremum(cfg, res.value - 5e-6, _lattices([cfg])[0], tol=1e-5)
        assert not capped, which
        assert res.value <= sup <= res.value + 5e-6, which


def _best_admitted_value(cfg, rng, count=2000):
    """The best value over at least ``count`` admitted samples of the
    configuration's box and its admitted lattice centres."""
    los, his, _bounds = _lattices([cfg])[0]
    lo, hi = _root_box(cfg)
    X, admitted = [0.5 * (los + his)], 0
    for _ in range(50):
        if admitted >= count:
            break
        batch = lo + (hi - lo) * rng.random((10_000, cfg.dim))
        admitted += int(cfg.assemble(batch)[2].sum())
        X.append(batch)
    assert admitted >= count, cfg.describe()
    P, Q, feas = cfg.assemble(np.vstack(X))
    return sep_batch(P[feas], Q[feas], cfg.j).max()


@pytest.fixture(scope="module")
def preset_certificates():
    """For every configuration with dim >= 1 and a finite bound of the (5,5)
    and (7,7) presets: the best admitted sample value (``_best_admitted_value``),
    the certified supremum at lower = the cell value, the sizes of the
    ``_box_bounds`` calls it made, and its results with ``max_nodes=5`` at
    lower = the cell value and at half the sampled value."""
    from hashbound import presets

    rng = np.random.default_rng(31)
    box_bounds = optimize._box_bounds
    records = []
    for b, k in ((5, 5), (7, 7)):
        pre = presets.PARTITION_PRESETS[(b, k)]
        for which in CellPair:
            value = compute_cell_max(pre.spec(), which, b, pre.j).value
            tol = 1e-9 * abs(value)
            for cfg in enumerate_candidates(pre.spec(), which, b, pre.j):
                lattice = _lattices([cfg])[0]
                if cfg.dim == 0 or not np.isfinite(lattice[2]).any():
                    continue
                sizes = []

                def recorded(config, los, his, floor):
                    sizes.append(len(los))
                    return box_bounds(config, los, his, floor)

                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(optimize, "_box_bounds", recorded)
                    full = _certified_supremum(cfg, value, lattice, tol=tol)
                sampled = _best_admitted_value(cfg, rng)
                capped = [_certified_supremum(cfg, lower, lattice, tol=tol, max_nodes=5)
                          for lower in (value, 0.5 * sampled)]
                records.append((cfg, sampled, full, sizes, capped))
    return records


def test_certifier_bounds_full_batches_of_at_most_prune_batch():
    # each step bisects the top open boxes until their children fill more
    # than half of one batch, and never more than one: unbounded batches
    # raise the peak memory, small ones pay the per-call overhead; the (6,6)
    # same-tag cell keeps thousands of boxes open until its node cap
    from hashbound import presets

    sizes = []
    box_bounds, supremum = optimize._box_bounds, optimize._certified_supremum

    def recorded(config, los, his, floor):
        sizes.append(len(los))
        return box_bounds(config, los, his, floor)

    def certify(*args, **kwargs):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimize, "_box_bounds", recorded)
            return supremum(*args, **kwargs)

    pre = presets.PARTITION_PRESETS[(6, 6)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize, "_certified_supremum", certify)
        assert compute_cell_max(pre.spec(), CellPair.TAGGED_SAME, 6, pre.j, certify=True).certify_capped
    assert len(sizes) > 50
    assert all(optimize._PRUNE_BATCH // 2 < n <= optimize._PRUNE_BATCH for n in sizes)


def test_certified_supremum_dominates_admitted_samples(preset_certificates):
    for cfg, sampled, (sup, capped), _sizes, _capped in preset_certificates:
        assert not capped, cfg.describe()
        assert sup >= sampled, cfg.describe()
    assert len(preset_certificates) >= 100


def test_capped_certifier_still_dominates_admitted_samples(preset_certificates):
    # one step spends more than 5 nodes, so the cap stops every search that
    # needs a second step, and its open boxes still bound the configuration;
    # below a positive sampled value no box holding the best sample can close
    hit = 0
    for cfg, sampled, _full, sizes, ((sup, capped), (low_sup, low_capped)) in preset_certificates:
        assert capped == (len(sizes) >= 2), cfg.describe()
        assert sup >= sampled and low_sup >= sampled and (low_capped or sampled == 0), cfg.describe()
        hit += capped
    assert hit >= 10


def test_cell_bound_covers_padded_block_values():
    # assemble admits block values up to hi + pad; the bound must cover them
    hi = 0.5
    x = hi + 0.5 * _FEAS_PAD
    cfg = Configuration(
        b=3, j=2, family="test/padded", discrete=(),
        blocks_p=(Block(1, 0.0, ((0, 1.0),), 0.0, hi), Block(2, 0.25, (), 0.25, 0.25)),
        blocks_q=(Block(3, 1 / 3, (), 1 / 3, 1 / 3),),
        free=(FreeVar("a", 0.0, x),),
    )
    P, Q, feas = cfg.assemble(np.array([[x]]))
    assert feas[0] and hi < P[0, 0] <= hi + _FEAS_PAD
    value = sep_batch(P, Q, cfg.j)[0]
    bound = _cell_bounds_batch(cfg, cfg.block_ranges(np.array([[0.0]]), np.array([[x]])))[0]
    assert bound >= value


def test_budget_exceeded():
    spec = PartitionSpec(PartitionKind.MAX_VALUE, 1 / 12)
    with pytest.raises(BudgetExceeded):
        compute_all_cell_maxima(spec, 15, 11, budget=Budget(1e-6))


forked = pytest.mark.skipif(not optimize._forkable(), reason="the cells search in one process here")


@pytest.fixture
def forks(monkeypatch):
    """The calls of ``os.fork`` made during the test."""
    made, fork = [], os.fork

    def counted():
        made.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return made


@forked
def test_child_errors_reach_the_caller(monkeypatch, forks):
    pre = presets.PARTITION_PRESETS[(5, 5)]
    parent, real = os.getpid(), optimize.compute_cell_max

    def out_of_budget(*args, **kwargs):   # a budget that runs out in the child
        return real(*args, **{**kwargs, "budget": Budget(1e-6)})

    def invalid(*args, **kwargs):
        raise ValueError("bad cell")

    def dies(*args, **kwargs):   # leaves without writing to the pipe
        os._exit(3)

    def searched_by(child_cell):   # the real search in the caller, child_cell in the child
        def cell(*args, **kwargs):
            return (real if os.getpid() == parent else child_cell)(*args, **kwargs)
        return cell

    for child_cell, error, match in ((out_of_budget, BudgetExceeded, None),
                                     (invalid, ValueError, "bad cell"),
                                     (dies, RuntimeError, "status 3")):
        monkeypatch.setattr(optimize, "compute_cell_max", searched_by(child_cell))
        forks.clear()
        with pytest.raises(error, match=match):
            compute_all_cell_maxima(pre.spec(), 5, pre.j)
        assert forks == [1]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@forked
def test_caller_error_kills_a_running_child(monkeypatch, forks):
    pre = presets.PARTITION_PRESETS[(7, 7)]
    parent, calls = os.getpid(), []

    def cell(*args, **kwargs):
        if os.getpid() != parent:
            time.sleep(60)
        calls.append(1)
        raise ValueError("caller failed")

    monkeypatch.setattr(optimize, "compute_cell_max", cell)
    start = time.monotonic()
    with pytest.raises(ValueError, match="caller failed"):
        compute_all_cell_maxima(pre.spec(), 7, pre.j)
    assert forks == [1] and calls == [1] and time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@forked
def test_split_runs_on_disjoint_cpus(monkeypatch, forks):
    # the two processes take the two halves of the caller's CPU set, and the
    # caller gets its whole set back
    pre = presets.PARTITION_PRESETS[(7, 7)]
    compute_all_cell_maxima(pre.spec(), 7, pre.j)   # the global cell is memoised
    parent, before = os.getpid(), os.sched_getaffinity(0)
    monkeypatch.setattr(optimize, "compute_cell_max",
                        lambda *args, **kwargs: (os.getpid() == parent, frozenset(os.sched_getaffinity(0))))
    cells = compute_all_cell_maxima(pre.spec(), 7, pre.j)
    assert forks == [1, 1] and os.sched_getaffinity(0) == before
    # the memoised cell is answered before the split, on the whole set
    here = {cpus for at_parent, cpus in cells.values() if at_parent} - {frozenset(before)}
    there = {cpus for at_parent, cpus in cells.values() if not at_parent}
    assert len(here) == len(there) == 1
    here, there = here.pop(), there.pop()
    assert here and there and here.isdisjoint(there) and here | there == before


@forked
def test_bound_after_sampling_still_forks(forks):
    # the sampler's helper thread is gone when it returns, so the next bound
    # still splits its cells between two processes
    pre = presets.PARTITION_PRESETS[(7, 7)]
    sample_subdomain(pre.spec(), CellPair.BULK_TAGGED, 7, pre.j, 70_000, seed=5)
    assert optimize._forkable()
    full_bound(7, 7, pre.j, pre.spec())
    assert forks == [1]


def test_failed_fork_searches_every_cell_here(monkeypatch):
    pre = presets.PARTITION_PRESETS[(7, 7)]
    alone = {which: compute_cell_max(pre.spec(), which, 7, pre.j) for which in CellPair}
    optimize._GLOBAL_MAXIMA.clear()

    def no_fork():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "fork", no_fork)
    assert compute_all_cell_maxima(pre.spec(), 7, pre.j) == alone


@pytest.mark.parametrize("certify", [False, True])
def test_split_cell_maxima_equal_the_per_cell_search(forks, certify):
    # each cell searched on its own, in this process, against the split
    # search, with the global memo empty and filled; every field to the bit
    for b in (5, 6, 7):
        pre = presets.PARTITION_PRESETS[(b, b)]
        spec = pre.spec()
        optimize._GLOBAL_MAXIMA.clear()
        alone = {which: compute_cell_max(spec, which, b, pre.j, certify=certify) for which in CellPair}
        memo = dict(optimize._GLOBAL_MAXIMA)
        for warm in (False, True):
            optimize._GLOBAL_MAXIMA.clear()
            optimize._GLOBAL_MAXIMA.update(memo if warm else {})
            got = compute_all_cell_maxima(spec, b, pre.j, certify=certify)
            assert list(got) == list(CellPair)
            assert got == alone, (b, warm)
            assert optimize._GLOBAL_MAXIMA == memo, (b, warm)
    assert len(forks) == (6 if optimize._forkable() else 0)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_bulk_bulk_dominates_uniform_value():
    # the uniform vector lies in the bulk cell of both partitions at the
    # preset thresholds, so the bulk/bulk maximum can never fall below it
    for kind, eps, b, j in (
        (PartitionKind.MAX_VALUE, 9 / 100, 7, 5),
        (PartitionKind.MIN_VALUE, 0.05, 6, 4),
    ):
        spec = PartitionSpec(kind, eps)
        res = compute_cell_max(spec, CellPair.BULK_BULK, b, j)
        assert res.value >= sep_uniform_exact(SepParams(b, j)) - 1e-12


def test_global_max_at_uniform_for_every_shortcut_pair():
    # grounds the closed-form path: for each published shortcut pair the
    # unconstrained maximum over the candidate families sits at uniform
    from hashbound import presets

    for b, k in sorted(presets.UNIFORM_GLOBAL_MAX_PAIRS):
        res = global_form_max(b, k - 2)
        uniform = sep_uniform_exact(SepParams(b, k - 2))
        assert res.value == pytest.approx(uniform, abs=1e-9), (b, k)
