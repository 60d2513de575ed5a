import itertools

import numpy as np
import pytest

from hashbound.configs import CellPair, PartitionKind, PartitionSpec
from hashbound.optimize import compute_cell_max
from hashbound.oracle import (
    Code,
    check_lemma_inequalities,
    is_bk_hash,
    max_code_exhaustive,
    sample_subdomain,
)
from hashbound.seppoly import sep_batch

from helpers import in_bulk, in_tagged, is_bk_hash_bitset


# ---------------------------------------------------------------------------
# subdomain sampling
# ---------------------------------------------------------------------------


def test_sample_members_satisfy_exact_predicates():
    for kind, eps, b, j in (
        (PartitionKind.MAX_VALUE, 0.09, 7, 5),
        (PartitionKind.MIN_VALUE, 0.05, 6, 4),
    ):
        spec = PartitionSpec(kind, eps)
        for which in CellPair:
            rep = sample_subdomain(spec, which, b, j, 500, seed=1)
            assert not rep.inconclusive
            p = np.array(rep.best_p)
            q = np.array(rep.best_q)
            role_p, role_q = {
                CellPair.BULK_BULK: ("bulk", "bulk"),
                CellPair.BULK_TAGGED: ("bulk", "tag0"),
                CellPair.TAGGED_SAME: ("tag0", "tag0"),
                CellPair.TAGGED_CROSS: ("tag0", "tag1"),
            }[which]
            for v, role in ((p, role_p), (q, role_q)):
                if role == "bulk":
                    assert in_bulk(v, spec)
                else:
                    assert in_tagged(v, spec, 0 if role == "tag0" else 1)


def test_sampling_bounded_by_engine():
    spec = PartitionSpec(PartitionKind.MAX_VALUE, 9 / 100)
    engine = compute_cell_max(spec, CellPair.BULK_BULK, 7, 5, grid=200).value
    rep = sample_subdomain(spec, CellPair.BULK_BULK, 7, 5, 20000, seed=2)
    assert rep.best_value <= engine + 1e-9
    # the bulk cell contains the uniform point, so samples should come close
    assert rep.best_value > 0.8 * engine


def test_sampling_same_tag_small_eps_is_tiny():
    # both vectors nearly a point mass: the polynomial almost vanishes
    spec = PartitionSpec(PartitionKind.MAX_VALUE, 0.01)
    m3 = sample_subdomain(spec, CellPair.TAGGED_SAME, 7, 5, 3000, seed=3)
    m1 = sample_subdomain(spec, CellPair.BULK_BULK, 7, 5, 3000, seed=3)
    assert m3.best_value < 1e-6 * m1.best_value


def test_sampling_deterministic():
    spec = PartitionSpec(PartitionKind.MIN_VALUE, 0.05)
    a = sample_subdomain(spec, CellPair.BULK_TAGGED, 6, 4, 4000, seed=77)
    b = sample_subdomain(spec, CellPair.BULK_TAGGED, 6, 4, 4000, seed=77)
    assert a == b


def test_hopeless_rejection_is_inconclusive_not_fatal():
    # a min-partition tagged cell at a vanishing threshold accepts ~nothing
    spec = PartitionSpec(PartitionKind.MIN_VALUE, 1e-9)
    rep = sample_subdomain(spec, CellPair.TAGGED_SAME, 6, 4, 1000, seed=5)
    assert rep.inconclusive
    assert rep.evaluated < rep.requested


def test_min_bulk_sampling_approaches_uniform_value():
    spec = PartitionSpec(PartitionKind.MIN_VALUE, 0.05)
    small = sample_subdomain(spec, CellPair.BULK_BULK, 6, 4, 2000, seed=4)
    rep = sample_subdomain(spec, CellPair.BULK_BULK, 6, 4, 50000, seed=4)
    assert rep.best_value <= 5 / 27 + 1e-9
    assert rep.best_value >= small.best_value  # approaches from below
    assert rep.best_value > 0.95 * 5 / 27


# ---------------------------------------------------------------------------
# hash codes
# ---------------------------------------------------------------------------


def test_is_bk_hash_identity_code():
    code = Code(tuple((s,) for s in range(5)), 5, 1)
    ok, witness = is_bk_hash(code, 5)
    assert ok and witness is None


def test_is_bk_hash_vacuous():
    code = Code(((0, 0), (1, 1)), 3, 2)
    ok, _ = is_bk_hash(code, 3)
    assert ok


def test_is_bk_hash_violation_witness():
    code = Code(((0, 0), (0, 1), (1, 0)), 2, 2)
    ok, witness = is_bk_hash(code, 3)
    assert not ok and witness == (0, 1, 2)


def test_is_bk_hash_symbol_range():
    with pytest.raises(ValueError):
        Code(((0, 5),), 3, 2)


def test_is_bk_hash_against_bitset_oracle():
    rng = np.random.default_rng(8)
    for _ in range(60):
        m = int(rng.integers(3, 7))
        words = set()
        while len(words) < m:
            words.add(tuple(int(s) for s in rng.integers(0, 3, size=3)))
        code = Code(tuple(sorted(words)), 3, 3)
        assert is_bk_hash(code, 3) == is_bk_hash_bitset(code, 3)


def test_is_bk_hash_monotone_under_subsetting():
    res = max_code_exhaustive(3, 3, 2)
    words = res.witness.words
    for r in range(2, len(words) + 1):
        for sub in itertools.combinations(words, r):
            ok, _ = is_bk_hash(Code(sub, 3, 2), 3)
            assert ok


def test_max_code_length_one():
    for b in (3, 4, 5):
        res = max_code_exhaustive(b, b, 1)
        assert res.size == b and res.exact


def test_max_code_332_stable_across_orders():
    asc = max_code_exhaustive(3, 3, 2, order="asc")
    desc = max_code_exhaustive(3, 3, 2, order="desc")
    assert asc.exact and desc.exact
    assert asc.size == desc.size == 4  # frozen from the exhaustive runs
    for res in (asc, desc):
        ok, _ = is_bk_hash(res.witness, 3)
        assert ok


def test_max_code_budget_flag():
    res = max_code_exhaustive(3, 3, 2, budget_secs=0.0)
    assert not res.exact
    ok, _ = is_bk_hash(res.witness, 3)
    assert ok  # partial results still carry a valid witness


def test_max_code_guards():
    with pytest.raises(ValueError):
        max_code_exhaustive(4, 4, 5)
    with pytest.raises(ValueError):
        max_code_exhaustive(3, 3, 2, order="sideways")


def test_code_serialization_roundtrip():
    res = max_code_exhaustive(3, 3, 2)
    text = res.witness.serialize()
    back = Code.parse(text, 3)
    assert back == res.witness


# ---------------------------------------------------------------------------
# lemma suites
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("which", ["L6", "L7", "L8", "L9"])
def test_lemma_suites_pass(which):
    rep = check_lemma_inequalities(which, 6, 4, 4000, seed=17)
    assert rep.passed, rep
    rep = check_lemma_inequalities(which, 7, 3, 4000, seed=18)
    assert rep.passed, rep


def test_lemma_l9_boundary_delta_equals_eps():
    # delta = eps empties the rest of p: p collapses to a vertex
    b, j, eps = 6, 4, 0.3
    q = [1.0 - eps] + [eps / (b - 1)] * (b - 1)
    lhs_p = [1.0] + [0.0] * (b - 1)
    rhs_p = [1.0 - eps, eps] + [0.0] * (b - 2)
    lhs, rhs = sep_batch(np.array([lhs_p, rhs_p]), np.array([q, q]), j)
    assert lhs <= rhs + 1e-12


def test_lemma_l8_boundary_p1_exactly_at_cap():
    b, j = 6, 4
    eps = 1.0 / (j + 1)
    p = np.array([[1.0 - eps] + [eps / (b - 1)] * (b - 1)])
    rng = np.random.default_rng(6)
    for _ in range(50):
        q = np.sort(rng.dirichlet(np.ones(b)))
        merged = np.array([0.0, q[0] + q[1], *q[2:]])
        lhs = sep_batch(p, q[None, :], j)[0]
        rhs = sep_batch(p, merged[None, :], j)[0]
        assert lhs <= rhs + 1e-12


def test_lemma_unknown_id():
    with pytest.raises(ValueError):
        check_lemma_inequalities("L1", 6, 4, 10, seed=0)
