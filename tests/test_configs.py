import hashlib

import numpy as np
import pytest

from hashbound.configs import (
    CellPair,
    PartitionKind,
    PartitionSpec,
    enumerate_candidates,
    global_candidates,
)


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
    """Recount the admissible family instances with a standalone loop."""
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
                m >= 0
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
                zeros_ok(l1)
                and zeros_ok(l2)
                and side_feasible([l2, m], 1.0)
                and side_feasible([l1, m], 1.0)
            ):
                expected += 1
    assert len(cfgs) == expected


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


def test_enumeration_is_pinned():
    """Every configuration of a fixed set of cells, in enumeration order, is
    unchanged: the 12 presets and the two eps-sweep cells off their presets
    under all four selectors, two small cells, and the global families of
    every Table 1 row.  A refactor of the family generators must keep this
    digest; a deliberate change of the families must update it."""
    from hashbound import presets

    cells = [(pre.spec(), b, pre.j) for (b, _k), pre in sorted(presets.PARTITION_PRESETS.items())]
    cells += [(PartitionSpec(PartitionKind.MIN_VALUE, 0.047), 6, 3),
              (PartitionSpec(PartitionKind.MAX_VALUE, 0.093), 7, 5),
              (PartitionSpec(PartitionKind.MIN_VALUE, 0.2), 3, 2),
              (PartitionSpec(PartitionKind.MAX_VALUE, 0.3), 4, 2)]
    cfgs = [cfg for spec, b, j in cells for which in CellPair
            for cfg in enumerate_candidates(spec, which, b, j)]
    cfgs += [cfg for row in presets.TABLE1 for cfg in global_candidates(row.b, row.k - 2)]
    digest = hashlib.sha256()
    for cfg in cfgs:
        digest.update(repr((cfg.b, cfg.j, cfg.describe(), cfg.blocks_p, cfg.blocks_q,
                            cfg.free)).encode())
    assert len(cfgs) == 3773
    assert digest.hexdigest() == "51c55c365bc60dfb70d470b05101176debf5a97b89a10293a3cf987ffd769507"
