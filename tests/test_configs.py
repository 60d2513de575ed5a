import hashlib
import itertools

import numpy as np
import pytest

from hashbound import presets
from hashbound.configs import (
    _FEAS_TOL,
    CellPair,
    PartitionKind,
    PartitionSpec,
    _V,
    _build_config,
    enumerate_candidates,
    global_candidates,
)
from hashbound.optimize import maximize_config

from helpers import block_level_values, root_bound, spread


def test_partition_spec_validation():
    PartitionSpec(PartitionKind.MAX_VALUE, 0.09).validate(7, 5)
    with pytest.raises(ValueError):
        PartitionSpec(PartitionKind.MAX_VALUE, 0.2).validate(7, 5)  # > 1/(j+1)
    with pytest.raises(ValueError):
        PartitionSpec(PartitionKind.MAX_VALUE, 0.0).validate(7, 5)
    PartitionSpec(PartitionKind.MIN_VALUE, 0.05).validate(6, 4)
    with pytest.raises(ValueError):
        PartitionSpec(PartitionKind.MIN_VALUE, 0.2).validate(6, 4)  # >= 1/b


@pytest.mark.parametrize("kind,eps,b,j", [
    (PartitionKind.MAX_VALUE, 9 / 100, 7, 5),
    (PartitionKind.MAX_VALUE, 1 / 12, 15, 11),
    (PartitionKind.MIN_VALUE, 0.05, 6, 4),
    (PartitionKind.MIN_VALUE, 0.1, 6, 3),
])
def test_configuration_invariants(kind, eps, b, j):
    """Multiplicities sum to b; in-box assignments are unit-sum vectors."""
    spec = PartitionSpec(kind, eps)
    rng = np.random.default_rng(5)
    for which in CellPair:
        cfgs = enumerate_candidates(spec, which, b, j)
        assert cfgs, f"no candidates for {which}"
        for cfg in cfgs:
            assert sum(blk.mult for blk in cfg.blocks_p) == b
            assert sum(blk.mult for blk in cfg.blocks_q) == b
            d = cfg.dim
            assert d <= 3
            lo = np.array([fv.lo for fv in cfg.free])
            hi = np.array([fv.hi for fv in cfg.free])
            X = lo + (hi - lo) * rng.random((16, d)) if d else np.zeros((1, 0))
            P, Q, feas = cfg.assemble(X)
            for arr in (P[feas], Q[feas]):
                if len(arr) == 0:
                    continue
                assert arr.min() >= -1e-12
                assert arr.max() <= 1.0 + 1e-12
                assert np.abs(arr.sum(axis=1) - 1.0).max() <= 1e-9


def test_max_m1_counts_match_independent_enumeration():
    """Recount the admissible family instances with a standalone loop; the
    p<->q mirrored families (both capped, uncapped) keep l1 <= l2 only."""
    b, j, eps = 7, 5, 9 / 100
    cap = 1.0 - eps
    spec = PartitionSpec(PartitionKind.MAX_VALUE, eps)
    cfgs = enumerate_candidates(spec, CellPair.BULK_BULK, b, j)

    def zeros_ok(z):
        return z == b - 2 or z <= b - j

    def side_feasible(mults, residual):
        # unknown blocks range over [0, cap]; they must absorb the residual
        capacity = cap * sum(mults)
        return -1e-9 <= residual <= capacity + 1e-9

    expected = 0
    for l1 in range(b + 1):
        for l2 in range(b + 1 - l1):
            # both capped: two extra coordinates, a standalone zero each side
            m = b - l1 - l2 - 2
            if (
                l1 <= l2
                and m >= 0
                and (zeros_ok(l1 + 1) or zeros_ok(l1))
                and (zeros_ok(l2 + 1) or zeros_ok(l2))
                and side_feasible([l2, m], eps)
                and side_feasible([l1, m], eps)
            ):
                expected += 1
            # only q capped
            m = b - l1 - l2 - 1
            if (
                m >= 0
                and (zeros_ok(l1 + 1) or zeros_ok(l1))
                and zeros_ok(l2)
                and side_feasible([l2, m], 1.0)
                and side_feasible([l1, m], eps)
            ):
                expected += 1
            # neither capped
            m = b - l1 - l2
            if (
                l1 <= l2
                and zeros_ok(l1)
                and zeros_ok(l2)
                and side_feasible([l2, m], 1.0)
                and side_feasible([l1, m], 1.0)
            ):
                expected += 1
    assert len(cfgs) == expected == 31


def test_max_m3_single_family_shape():
    spec = PartitionSpec(PartitionKind.MAX_VALUE, 0.09)
    cfgs = enumerate_candidates(spec, CellPair.TAGGED_SAME, 7, 5)
    assert all(cfg.family == "max-m3/shared-cap" for cfg in cfgs)
    # the shared cap occupies the lead coordinate on both sides
    for cfg in cfgs:
        assert cfg.blocks_p[0].mult == 1 and cfg.blocks_p[0].const == pytest.approx(0.91)
        assert cfg.blocks_q[0].mult == 1 and cfg.blocks_q[0].const == pytest.approx(0.91)


def test_min_m2_uniform_eps_degenerate_excluded():
    """l1 = b would force p uniform at 1/b > eps, violating its block range."""
    b, j, eps = 6, 3, 0.1
    spec = PartitionSpec(PartitionKind.MIN_VALUE, eps)
    cfgs = enumerate_candidates(spec, CellPair.BULK_TAGGED, b, j)
    small = [c for c in cfgs if c.family == "min-m2/avg-small"]
    assert small, "averaged-small family should not be vacuous"
    assert all(dict(c.discrete)["l1"] < b for c in small)


def test_zero_count_restriction_enforced():
    b, j = 15, 11
    cfgs = global_candidates(b, j)
    for cfg in cfgs:
        l1 = dict(cfg.discrete)["l1"]
        l2 = dict(cfg.discrete)["l2"]
        for z in (l1, l2):
            assert z == b - 1 or z <= b - j


def test_assemble_feasibility_mask():
    spec = PartitionSpec(PartitionKind.MAX_VALUE, 0.09)
    cfgs = enumerate_candidates(spec, CellPair.BULK_BULK, 7, 5)
    cfg = next(c for c in cfgs if c.dim == 2)
    lo = np.array([fv.lo for fv in cfg.free])
    hi = np.array([fv.hi for fv in cfg.free])
    inside = 0.5 * (lo + hi)
    _, _, ok = cfg.assemble(inside.reshape(1, -1))
    # pushing variables far outside their boxes must trip the mask
    _, _, bad = cfg.assemble((hi + 10.0).reshape(1, -1))
    assert not bad[0]
    assert ok[0] or True  # midpoints can be infeasible; the mask just must act


def test_assemble_matches_the_block_map_spread():
    # assemble works on the coordinate-level map; at random points in and
    # around the box of every configuration of the 12 presets and the two
    # eps-sweep cells it must give the block-level values spread to
    # coordinates, and the block-level band mask, to the last bit
    rng = np.random.default_rng(71)
    cells = [(pre.spec(), b, pre.j) for (b, _k), pre in sorted(presets.PARTITION_PRESETS.items())]
    cells += [(PartitionSpec(PartitionKind.MIN_VALUE, 0.047), 6, 3),
              (PartitionSpec(PartitionKind.MAX_VALUE, 0.093), 7, 5)]
    admitted = total = 0
    for spec, b, j in cells:
        for which in CellPair:
            for cfg in enumerate_candidates(spec, which, b, j):
                lo, hi = (np.array([getattr(fv, end) for fv in cfg.free]) for end in ("lo", "hi"))
                X = lo + (hi - lo) * rng.uniform(-0.25, 1.25, (40, cfg.dim))
                P, Q, feas = cfg.assemble(X)
                V, A = block_level_values(cfg, X), cfg.arrays
                R, mask = spread(cfg, V), ((V >= A.lo - _FEAS_TOL) & (V <= A.hi + _FEAS_TOL)).all(axis=1)
                want = (R[:, : cfg.b], R[:, cfg.b :], mask)
                for got, ref in zip((P, Q, feas), want, strict=True):
                    assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), cfg.describe()
                admitted, total = admitted + int(feas.sum()), total + len(feas)
    assert 0 < admitted < total


def _pinned_cells():
    """The pinned cell set: (spec, selector, b, j) for the 12 presets and the
    two eps-sweep cells off their presets under all four selectors and two
    small cells, then (None, None, b, k - 2) for the global families of every
    Table 1 row."""
    cells = [(pre.spec(), b, pre.j) for (b, _k), pre in sorted(presets.PARTITION_PRESETS.items())]
    cells += [(PartitionSpec(PartitionKind.MIN_VALUE, 0.047), 6, 3),
              (PartitionSpec(PartitionKind.MAX_VALUE, 0.093), 7, 5),
              (PartitionSpec(PartitionKind.MIN_VALUE, 0.2), 3, 2),
              (PartitionSpec(PartitionKind.MAX_VALUE, 0.3), 4, 2)]
    out = [(spec, which, b, j) for spec, b, j in cells for which in CellPair]
    return out + [(None, None, row.b, row.k - 2) for row in presets.TABLE1]


def _candidates(spec, which, b, j):
    return global_candidates(b, j) if spec is None else enumerate_candidates(spec, which, b, j)


def test_enumeration_is_pinned():
    """Every configuration of the pinned cell set, in enumeration order, is
    unchanged.  A refactor of the family generators must keep this digest; a
    deliberate change of the families must update it."""
    cfgs = [cfg for cell in _pinned_cells() for cfg in _candidates(*cell)]
    digest = hashlib.sha256()
    for cfg in cfgs:
        digest.update(repr((cfg.b, cfg.j, cfg.describe(), cfg.blocks_p, cfg.blocks_q,
                            cfg.free)).encode())
    assert len(cfgs) == 2410
    assert digest.hexdigest() == "a8aa3b102501bbe3a784135f31421c9b4b7fc5e726ac2b3e3214b9debc44681e"


#: the families whose (l1, l2)-swapped twin, with gamma and zeta swapped in
#: max-m4/opposed-zeros, is their p<->q mirror
_MIRRORED = {"global/opposed-zeros", "max-m1/both-capped", "max-m1/uncapped", "max-m3/shared-cap",
             "max-m4/opposed-zeros", "min-m1/floor-blocks", "min-m3/folded"}


def _old_mirrored_shapes(spec, which, b, j):
    """The mirrored families' instances as their loops enumerated them before
    the twins were dropped: (family, label, p side, q side), each side a list
    of (mult, lo, hi) blocks, lo == hi for a constant."""
    def ok(z, special):
        return z == special or z <= b - j

    kind = None if spec is None else spec.kind
    eps = None if spec is None else spec.eps
    cap = None if spec is None else 1.0 - eps
    if kind is None or (kind, which) in ((PartitionKind.MAX_VALUE, CellPair.BULK_TAGGED),
                                         (PartitionKind.MIN_VALUE, CellPair.TAGGED_CROSS)):
        for l1, l2 in itertools.product(range(b + 1), repeat=2):
            m = b - l1 - l2
            if m >= 0 and ok(l1, b - 1) and ok(l2, b - 1):
                yield ("global/opposed-zeros", (l1, l2),
                       [(l1, 0, 0), (l2, 0, 1), (m, 0, 1)], [(l1, 0, 1), (l2, 0, 0), (m, 0, 1)])
    elif kind is PartitionKind.MAX_VALUE and which is CellPair.BULK_BULK:
        for l1, l2 in itertools.product(range(b + 1), repeat=2):
            m = b - l1 - l2 - 2
            if m >= 0 and (ok(l1 + 1, b - 2) or ok(l1, b - 2)) and (ok(l2 + 1, b - 2) or ok(l2, b - 2)):
                yield ("max-m1/both-capped", (l1, l2),
                       [(l1, 0, 0), (l2, 0, cap), (m, 0, cap), (1, 0, 0), (1, cap, cap)],
                       [(l1, 0, cap), (l2, 0, 0), (m, 0, cap), (1, cap, cap), (1, 0, 0)])
            m = b - l1 - l2
            if m >= 0 and ok(l1, b - 2) and ok(l2, b - 2):
                yield ("max-m1/uncapped", (l1, l2),
                       [(l1, 0, 0), (l2, 0, cap), (m, 0, cap)], [(l1, 0, cap), (l2, 0, 0), (m, 0, cap)])
    elif kind is PartitionKind.MAX_VALUE and which is CellPair.TAGGED_SAME:
        for l1, l2 in itertools.product(range(b), repeat=2):
            m = b - 1 - l1 - l2
            if m >= 0 and ok(l1, b - 2) and ok(l2, b - 2):
                yield ("max-m3/shared-cap", (l1, l2),
                       [(1, cap, cap), (l1, 0, 0), (l2, 0, eps), (m, 0, eps)],
                       [(1, cap, cap), (l1, 0, eps), (l2, 0, 0), (m, 0, eps)])
    elif kind is PartitionKind.MAX_VALUE and which is CellPair.TAGGED_CROSS:
        for l1, l2 in itertools.product(range(1, b - 1), repeat=2):
            m = b - l1 - l2 - 2
            if m < 0 or not (ok(l1 + 1, b - 1) or ok(l1, b - 1)) or not (ok(l2 + 1, b - 1) or ok(l2, b - 1)):
                continue
            for gamma, zeta in itertools.product((cap, 1.0), repeat=2):
                yield ("max-m4/opposed-zeros", (l1, l2, gamma, zeta),
                       [(1, gamma, gamma), (l1, 0, 0), (l2, 0, 1), (m, 0, 1), (1, 0, 0)],
                       [(1, 0, 0), (l1, 0, 1), (l2, 0, 0), (m, 0, 1), (1, zeta, zeta)])
    elif kind is PartitionKind.MIN_VALUE and which is CellPair.BULK_BULK:
        for l1, l2 in itertools.product(range(b + 1), repeat=2):
            m = b - l1 - l2
            if m >= 0:
                yield ("min-m1/floor-blocks", (l1, l2),
                       [(l1, eps, eps), (l2, eps, 1), (m, eps, 1)], [(l1, eps, 1), (l2, eps, eps), (m, eps, 1)])
    elif kind is PartitionKind.MIN_VALUE and which is CellPair.TAGGED_SAME:
        for l1, l2 in itertools.product(range(b + 1), repeat=2):
            m = b - l1 - l2
            if m >= 1 and ok(l1, b - 1) and ok(l2, b - 1):
                yield ("min-m3/folded", (l1, l2),
                       [(l1, 0, 0), (l2, 0, 1), (m, 0, eps)], [(l1, 0, 1), (l2, 0, 0), (m, 0, eps)])


def _side_feasible(side):
    """Some values in the blocks' ranges sum to 1 over the side."""
    return (sum(m * lo for m, lo, _ in side) - 1e-9 <= 1.0
            <= sum(m * hi for m, _, hi in side) + 1e-9)


def _mirror(label):
    family, (l1, l2, *caps) = label
    return family, (l2, l1, *caps[::-1])


def _assert_twins_agree(kept, dropped):
    for a, b in ((maximize_config(kept).value, maximize_config(dropped).value),
                 (root_bound(kept), root_bound(dropped))):
        assert abs(a - b) <= 1e-14 * abs(a), (kept.describe(), a, b)


def test_mirror_twins_dropped_exactly():
    """Over the pinned cell set the mirrored families keep exactly one twin
    of each p<->q mirror pair, and every other family stays complete."""
    old_total = 0  # every configuration of the mirrored families before the twins were dropped
    others = 0
    for cell in _pinned_cells():
        cfgs = _candidates(*cell)
        kept = [(c.family, tuple(v for _, v in c.discrete)) for c in cfgs if c.family in _MIRRORED]
        recount = {(family, label) for family, label, p, q in _old_mirrored_shapes(*cell)
                   if _side_feasible(p) and _side_feasible(q)}
        kept_set = set(kept)
        mirrors = {_mirror(k) for k in kept_set}
        assert len(kept_set) == len(kept)
        assert kept_set | mirrors == recount, cell
        assert kept_set & mirrors == {k for k in kept_set if _mirror(k) == k}, cell
        old_total += len(recount)
        others += len(cfgs) - len(kept)
    # the pinned cell set held 3,773 configurations before the twins were dropped
    assert others == 3773 - old_total

    # one dropped twin per family, rebuilt from its shape before the twins were dropped
    b, j = 15, 11
    kept = next(c for c in global_candidates(b, j) if c.describe() == "global/opposed-zeros l1=2 l2=3")
    dropped = _build_config(b, j, "global/opposed-zeros", (("l1", 3), ("l2", 2)),
                            [(3, 0.0), (2, _V("a", 0, 1)), (10, _V("c", 0, 1))],
                            [(3, _V("d", 0, 1)), (2, 0.0), (10, _V("e", 0, 1))])
    _assert_twins_agree(kept, dropped)
    pre = presets.PARTITION_PRESETS[(7, 7)]
    cap = 1.0 - pre.eps
    kept = next(c for c in enumerate_candidates(pre.spec(), CellPair.TAGGED_CROSS, 7, pre.j)
                if c.family == "max-m4/opposed-zeros" and dict(c.discrete) == {
                    "l1": 1, "l2": 1, "gamma": cap, "zeta": 1.0})
    dropped = _build_config(7, pre.j, "max-m4/opposed-zeros",
                            (("l1", 1), ("l2", 1), ("gamma", 1.0), ("zeta", cap)),
                            [(1, 1.0), (1, 0.0), (1, _V("a", 0, 1)), (3, _V("c", 0, 1)), (1, 0.0)],
                            [(1, 0.0), (1, _V("d", 0, 1)), (1, 0.0), (3, _V("e", 0, 1)), (1, cap)])
    _assert_twins_agree(kept, dropped)
