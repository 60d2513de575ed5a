import itertools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from hashbound import oracle
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

from helpers import (
    in_bulk,
    in_tagged,
    is_bk_hash_bitset,
    ks_critical,
    ks_statistic,
    rejection_sample,
)


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
    engine = compute_cell_max(spec, CellPair.BULK_BULK, 7, 5).value
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


# SampleReport fields of fixed-seed runs, frozen from the row-major sampler:
# a change of memory layout must leave the random stream and every float as
# they are.  Cases: all selectors on a min and a max partition, a 70,000-row
# run (two top-up passes, the tagged side's surplus carried over), count 1,
# and a max bulk cell that rejects about a third of its draws.
_MIN, _MAX = PartitionKind.MIN_VALUE, PartitionKind.MAX_VALUE
_PINNED_SAMPLES = [
    ((_MIN, 0.05, 6, 3, CellPair.BULK_BULK, 777, 11),
     (777, 0.551702667515932, False,
      (0.19789226466470367, 0.19360941405248555, 0.1710859225996581, 0.1745036877731903, 0.16941727163694337, 0.093491439273019),
      (0.1464798747033655, 0.10271516083459659, 0.17987009851094327, 0.19788682413506592, 0.15191555385380606, 0.22113248796222268))),
    ((_MIN, 0.05, 6, 3, CellPair.BULK_TAGGED, 777, 11),
     (777, 0.5313853522317342, False,
      (0.2665832263765635, 0.07744354612076397, 0.09806779058144893, 0.0846944612279592, 0.1704286916880889, 0.3027822840051753),
      (0.0403569728947033, 0.226322775036873, 0.20939682502369392, 0.27704964208749727, 0.09937639906063223, 0.14749738589660039))),
    ((_MIN, 0.05, 6, 3, CellPair.TAGGED_SAME, 777, 11),
     (777, 0.4678156833778307, False,
      (0.04992022665465743, 0.19229635935356065, 0.25443089247089007, 0.24909930031586383, 0.10521397599389368, 0.14903924521113437),
      (0.04962444201017016, 0.11188127365934095, 0.13792762741433423, 0.11780832178035702, 0.30691273303195965, 0.27584560210383785))),
    ((_MIN, 0.05, 6, 3, CellPair.TAGGED_CROSS, 777, 11),
     (777, 0.530621386630275, False,
      (0.030150026237280966, 0.24930510926303573, 0.32083443072726076, 0.11767213383815699, 0.21267541977038976, 0.0693628801638758),
      (0.30977122615294017, 0.0072197302160997906, 0.036240291737975196, 0.2567433091030848, 0.16126177648002865, 0.22876366630987136))),
    ((_MAX, 0.09, 7, 5, CellPair.BULK_BULK, 777, 12),
     (777, 0.06795651294492397, False,
      (0.09528902963122513, 0.12965659765428147, 0.271529718085287, 0.1121933677181246, 0.11659777592404132, 0.08367264703788661, 0.19106086394915392),
      (0.22783329259200324, 0.10168750686611615, 0.18320279957130664, 0.17651881878593365, 0.11440233522775431, 0.12417083960906748, 0.07218440734781859))),
    ((_MAX, 0.09, 7, 5, CellPair.BULK_TAGGED, 777, 12),
     (777, 0.0598859560848153, False,
      (0.041663847025136806, 0.25702928233250644, 0.12955182141985827, 0.15062371384286213, 0.17692047925394125, 0.10542634156183849, 0.13878451456385651),
      (0.9130257907463329, 0.01744267153183899, 0.022020806837538244, 0.011031494238390211, 0.01762663413732029, 0.009490013975342626, 0.009362588533236684))),
    ((_MAX, 0.09, 7, 5, CellPair.TAGGED_SAME, 777, 12),
     (777, 3.739330620906282e-06, False,
      (0.9100769916702978, 0.01742155411003097, 0.0176189013030339, 0.025508016763999913, 0.006838688440439424, 0.014104731804188449, 0.008431115908009577),
      (0.9136932587031958, 0.013525807068867697, 0.0075335334302264485, 0.026341672395712907, 0.015216788149513516, 0.01877954801956233, 0.004909392232921262))),
    ((_MAX, 0.09, 7, 5, CellPair.TAGGED_CROSS, 777, 12),
     (777, 4.701004402785449e-05, False,
      (0.9230789466508044, 0.0023774167432593024, 0.006991213674959851, 0.008304630442557073, 0.031915818322935254, 0.01843822162873756, 0.008893752536746598),
      (0.0005770128753004283, 0.9136268878656935, 0.025671061433806885, 0.009193626291726811, 0.013745492463189164, 0.009710692591844794, 0.02747522647843846))),
    ((_MAX, 0.25, 4, 3, CellPair.BULK_TAGGED, 70000, 13),
     (70000, 0.21314748226967473, False,
      (0.0007818396534493265, 0.264463181638412, 0.35488737994945, 0.37986759875868853),
      (0.996366940989399, 0.0016287927919725548, 0.0013423273508348559, 0.000661938867793548))),
    ((_MIN, 0.05, 6, 3, CellPair.TAGGED_CROSS, 1, 14),
     (1, 0.3813704136646518, False,
      (0.028901502475597862, 0.29439204273866637, 0.226661050267021, 0.07347632088168796, 0.1336288972797367, 0.2429401863572902),
      (0.13670427286718295, 0.02646310798496072, 0.22711919776108136, 0.09158633922111314, 0.0750248643655018, 0.44310221780015985))),
    ((_MAX, 0.09, 7, 5, CellPair.BULK_BULK, 1, 15),
     (1, 0.04838312036446161, False,
      (0.23081075769757187, 0.05069088590104784, 0.23482951429291593, 0.10662585698455387, 0.1288693724166709, 0.12962444568917939, 0.11854916701806019),
      (0.004239637605620074, 0.13805006559440217, 0.12038021904154804, 0.09488011464405859, 0.10172313830447607, 0.4329596120801458, 0.10776721272974946))),
    ((_MAX, 0.3333333333333333, 3, 2, CellPair.BULK_BULK, 777, 16),
     (777, 0.5638557170859635, False,
      (0.5920799857100748, 0.01542462336628801, 0.39249539092363717),
      (0.057607455946110546, 0.6653995833456103, 0.27699296070827917))),
]


@pytest.mark.parametrize("case, pinned", _PINNED_SAMPLES)
def test_sample_reports_are_pinned(case, pinned):
    kind, eps, b, j, which, count, seed = case
    rep = sample_subdomain(PartitionSpec(kind, eps), which, b, j, count, seed)
    assert (rep.evaluated, rep.best_value, rep.inconclusive, rep.best_p, rep.best_q) == pinned


def test_min_tagged_vanishing_eps_samples_in_full():
    # the direct construction reaches a min-partition tagged cell at any
    # threshold; plain rejection would accept ~nothing here
    spec = PartitionSpec(PartitionKind.MIN_VALUE, 1e-9)
    rep = sample_subdomain(spec, CellPair.TAGGED_SAME, 6, 4, 1000, seed=5)
    assert not rep.inconclusive
    assert rep.evaluated == rep.requested
    assert in_tagged(np.array(rep.best_p), spec, 0)
    assert in_tagged(np.array(rep.best_q), spec, 0)


def test_rejecting_mask_is_inconclusive_not_fatal(monkeypatch):
    monkeypatch.setattr(oracle, "_tagged_mask", lambda V, spec, i: np.zeros(len(V), dtype=bool))
    spec = PartitionSpec(PartitionKind.MIN_VALUE, 0.05)
    rep = sample_subdomain(spec, CellPair.BULK_TAGGED, 6, 4, 1000, seed=5)
    assert rep.inconclusive
    assert rep.evaluated < rep.requested
    assert np.isnan(rep.best_value) and rep.best_p == rep.best_q == ()


@pytest.mark.parametrize("kind", list(PartitionKind))
@pytest.mark.parametrize("b", range(3, 9))
def test_direct_draws_are_members_with_negligible_rejection(kind, b):
    n = 2000
    rng = np.random.default_rng(100 + b)
    for eps in (1e-9, 0.5 / b, 1.0 / b - 1e-6):
        spec = PartitionSpec(kind, eps)
        spec.validate(b, b - 1)  # j = b - 1 admits max-partition eps up to 1/b
        # only the max bulk cell rejects: some coordinate above 1 - eps
        max_bulk_share = b * eps ** (b - 1) if kind is PartitionKind.MAX_VALUE else 0.0
        for tag in (None, 0, 1):
            if tag is None:
                V = oracle._draw_bulk(rng, spec, b, n)
                members = [in_bulk(v, spec) for v in V]
                share = max_bulk_share
            else:
                V = oracle._draw_tagged(rng, spec, b, tag, n)
                members = [in_tagged(v, spec, tag) for v in V]
                share = 0.0
            assert V.shape[1] == b and all(members), (eps, tag)
            assert np.allclose(V.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
            allowed = share + 5.0 * math.sqrt(share * (1.0 - share) / n) + 1e-3
            assert 1.0 - len(V) / n <= allowed, (eps, tag, len(V))


_LAW_ROWS = 50_000


@pytest.mark.parametrize("b, j, eps", [(6, 3, 0.05), (3, 2, 0.2)])
def test_min_partition_draws_match_rejection_law(b, j, eps):
    spec = PartitionSpec(PartitionKind.MIN_VALUE, eps)
    rng = np.random.default_rng(1000 * b + j)
    direct, reference = {}, {}
    for tag in (None, 0, 1):
        if tag is None:
            direct[tag] = oracle._draw_bulk(rng, spec, b, _LAW_ROWS)
        else:
            direct[tag] = oracle._draw_tagged(rng, spec, b, tag, _LAW_ROWS)
        reference[tag] = rejection_sample(rng, spec, b, tag, _LAW_ROWS)
        assert len(direct[tag]) == _LAW_ROWS
    crit = ks_critical(_LAW_ROWS, _LAW_ROWS)
    for tag in direct:
        for c in range(b):
            d = ks_statistic(direct[tag][:, c], reference[tag][:, c])
            assert d < crit, (tag, c, d, crit)
    # Q rows reversed, so a cell paired with itself is not paired row for row
    for P, Q in ((None, None), (None, 0), (0, 0), (0, 1)):
        d = ks_statistic(sep_batch(direct[P], direct[Q][::-1], j),
                         sep_batch(reference[P], reference[Q][::-1], j))
        assert d < crit, (P, Q, d, crit)


@pytest.mark.parametrize("eps", [1e-9, 1e-18])
def test_min_tagged_minimum_law_at_vanishing_eps(eps):
    # P(v_i <= x | cell) = (1 - (1 - b x)^(b-1)) / (1 - (1 - b eps)^(b-1)),
    # evaluated in 50-digit decimal: a vanishing eps keeps its relative precision
    b, n = 6, 5000
    spec = PartitionSpec(PartitionKind.MIN_VALUE, eps)
    m = np.sort(oracle._draw_tagged(np.random.default_rng(9), spec, b, 1, n)[:, 1])
    assert len(m) == n and m[-1] < eps
    with localcontext() as ctx:
        ctx.prec = 50
        top = 1 - (1 - b * Decimal(eps)) ** (b - 1)
        cdf = np.array([float((1 - (1 - b * Decimal(float(x))) ** (b - 1)) / top) for x in m])
    rank = np.arange(1, n + 1) / n
    d = max(np.abs(rank - cdf).max(), np.abs(rank - 1.0 / n - cdf).max())
    assert d < ks_critical(n), d


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
