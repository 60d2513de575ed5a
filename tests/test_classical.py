import math

import numpy as np
import pytest

from hashbound.classical import (
    InvalidParams,
    NonMonotoneF,
    ProblemParams,
    balanced_fixed_point,
    conjectured_bound,
    dvj_bound,
    falling,
    fredman_komlos,
    korner_marton,
    load_tabulated_f,
    plotkin_combined_k4,
    plotkin_crossing_delta,
    plotkin_delta,
    rate_from_form_bound,
)
from hashbound.reporting import round_up
from hashbound.seppoly import SepParams, sep_uniform_exact

from helpers import matches_printed

LOG2 = math.log2


def test_params_validation():
    ProblemParams(6, 4)
    ProblemParams(6, 4, j=2)
    with pytest.raises(InvalidParams):
        ProblemParams(4, 6)
    with pytest.raises(InvalidParams):
        ProblemParams(6, 4, j=3)  # j must be <= k-2


def test_falling():
    assert falling(5, 0) == 1
    assert falling(5, 3) == 60
    assert falling(13, 5) == 13 * 12 * 11 * 10 * 9


def test_fredman_komlos():
    assert fredman_komlos(ProblemParams(4, 4)) == pytest.approx(0.375, abs=1e-15)
    # b = k with b-k+2 = 2 collapses to the falling/power ratio
    assert fredman_komlos(ProblemParams(6, 6)) == pytest.approx(720 / 7776, abs=1e-15)
    assert fredman_komlos(ProblemParams(5, 4)) == pytest.approx(
        (5 * 4 * 3 / 125) * LOG2(3), abs=1e-12
    )
    assert fredman_komlos(ProblemParams(5, 4)) == pytest.approx(0.76078, abs=1e-5)


def test_korner_marton():
    val, j = korner_marton(ProblemParams(5, 5))
    assert j == 3
    assert matches_printed(val, "0.19200")
    val, _ = korner_marton(ProblemParams(6, 6))
    assert matches_printed(val, "0.09260")
    val, _ = korner_marton(ProblemParams(9, 9))
    assert matches_printed(val, "8.4300e-3")
    with pytest.raises(InvalidParams):
        korner_marton(ProblemParams(5, 3))


def test_korner_marton_is_min_of_its_terms():
    for b, k in ((6, 5), (9, 7), (12, 9)):
        val, _ = korner_marton(ProblemParams(b, k))
        last_term = falling(b, k - 1) / b ** (k - 1) * LOG2(b - k + 2)
        assert val <= last_term + 1e-15


def test_dvj_values():
    assert matches_printed(dvj_bound(ProblemParams(5, 4)), "0.57303")
    assert matches_printed(dvj_bound(ProblemParams(7, 4)), "0.94372")
    # the two large-alphabet cells are printed nearest-rounded in the source
    # table; assert the values themselves at print precision
    assert dvj_bound(ProblemParams(100, 6)) == pytest.approx(2.81342, abs=1e-5)
    assert dvj_bound(ProblemParams(100, 7)) == pytest.approx(2.67473, abs=1e-5)
    with pytest.raises(InvalidParams):
        dvj_bound(ProblemParams(5, 3))


def test_rate_from_form_bound_values():
    assert rate_from_form_bound(6, 6, 4, 5 / 27) == pytest.approx(5 / 59, abs=1e-15)
    assert matches_printed(rate_from_form_bound(7, 7, 5, 0.0861594), "0.04090")
    m = sep_uniform_exact(SepParams(7, 4))
    assert m == pytest.approx(0.299875, abs=1e-6)
    assert matches_printed(rate_from_form_bound(7, 6, 4, m), "0.19897")


def test_rate_strictly_increasing_in_form_bound():
    rng = np.random.default_rng(11)
    for _ in range(200):
        b = int(rng.integers(5, 15))
        k = int(rng.integers(4, b + 1))
        j = int(rng.integers(2, k - 1))
        m = float(rng.uniform(1e-4, 1.0))
        dm = float(rng.uniform(1e-6, 0.1))
        assert rate_from_form_bound(b, k, j, m + dm) > rate_from_form_bound(b, k, j, m)


def test_rate_errors():
    with pytest.raises(InvalidParams):
        rate_from_form_bound(6, 6, 4, 0.0)
    with pytest.raises(InvalidParams):
        rate_from_form_bound(6, 6, 5, 0.1)


def test_conjectured_bound_identity():
    # term-by-term the conjecture equals the rate formula fed the uniform
    # closed form, so the min over j can only improve on any single term
    assert conjectured_bound(ProblemParams(6, 6)) == pytest.approx(5 / 59, abs=1e-12)
    for b, k in ((5, 5), (8, 6), (10, 7)):
        val = conjectured_bound(ProblemParams(b, k))
        terms = [
            rate_from_form_bound(b, k, j, sep_uniform_exact(SepParams(b, j)))
            for j in range(2, k - 1)
        ]
        assert val == pytest.approx(min(terms), abs=1e-12)
        for t in terms:
            assert val <= t + 1e-12


def test_plotkin_combined():
    assert plotkin_combined_k4(4) == pytest.approx(12 / 38, abs=1e-9)
    assert plotkin_combined_k4(5) == pytest.approx(0.39777, abs=1e-5)
    with pytest.raises(InvalidParams):
        plotkin_combined_k4(3)


def test_plotkin_combined_against_bisection_oracle():
    # independent oracle: bisect the crossing of the two primitive constraints
    for b in (4, 5, 9, 13):
        lb = LOG2(b)

        def gap(delta):
            return delta * (b - 2) / b - lb * (1.0 - delta * b / (b - 1))

        lo, hi = 0.0, (b - 1) / b
        assert gap(lo) < 0 < gap(hi)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if gap(mid) < 0:
                lo = mid
            else:
                hi = mid
        delta_star = 0.5 * (lo + hi)
        rate_star = delta_star * (b - 2) / b
        assert plotkin_combined_k4(b) == pytest.approx(rate_star, abs=1e-9)
        assert plotkin_crossing_delta(b) == pytest.approx(delta_star, abs=1e-9)


def test_plotkin_below_dvj_for_k4():
    for b in range(5, 15):
        assert plotkin_combined_k4(b) < dvj_bound(ProblemParams(b, 4))


def test_balanced_fixed_point_constant():
    c = falling(3, 1) / 5  # b=5, k=4: (b-2)^(k-3 falling)/b^(k-3)
    got = balanced_fixed_point(5, 4, lambda r: 0.5)
    assert got == pytest.approx(min(c * 0.5, LOG2(5)), abs=1e-9)
    # huge constant pegs at the domain cap
    assert balanced_fixed_point(5, 4, lambda r: 100.0) == pytest.approx(LOG2(5), abs=1e-12)


def test_balanced_fixed_point_linear():
    # F(R) = 1 - R/2: crossing of R = c (1 - R/2) at R = c/(1 + c/2)
    b, k = 6, 5
    c = falling(b - 2, k - 3) / b ** (k - 3)
    got = balanced_fixed_point(b, k, lambda r: 1.0 - r / 2.0)
    assert got == pytest.approx(c / (1.0 + c / 2.0), abs=1e-9)


def test_balanced_fixed_point_matches_plotkin_closed_form():
    for b in (5, 8, 12):
        solved = balanced_fixed_point(b, 4, plotkin_delta(b))
        closed = (b - 1) * (b - 2) * LOG2(b) / ((b - 1) * (b - 2) + b * b * LOG2(b))
        assert solved == pytest.approx(closed, abs=1e-9)


def test_balanced_fixed_point_rejects_increasing_f():
    with pytest.raises(NonMonotoneF):
        balanced_fixed_point(5, 4, lambda r: r)


def test_tabulated_f(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("# rate delta\n0.0 0.8\n1.0 0.4\n2.0 0.1\n")
    F = load_tabulated_f(path)
    assert F(0.0) == 0.8
    assert F(0.5) == pytest.approx(0.6)
    assert F(1.5) == pytest.approx(0.25)
    assert F(5.0) == 0.1  # clamped beyond the table
    val = balanced_fixed_point(5, 4, F)
    assert abs(val - (3 / 5) * F(val)) <= 1e-8

    bad = tmp_path / "bad.txt"
    bad.write_text("0.0 0.1\n1.0 0.5\n")
    with pytest.raises(NonMonotoneF):
        load_tabulated_f(bad)
    unordered = tmp_path / "unordered.txt"
    unordered.write_text("1.0 0.5\n0.5 0.6\n")
    with pytest.raises(ValueError):
        load_tabulated_f(unordered)


def test_round_up():
    assert round_up(0.168932, 5) == 0.16894
    # pure ceiling of the double: binary-exact grid points stay put, values a
    # hair above a grid point round to the next one (the valid direction)
    assert round_up(0.125, 3) == 0.125
    assert round_up(-0.123456, 5) == -0.12345
    # two-significant-figure strings with negative exponents are upward
    # ceilings of the mantissa, the rule for the "rel" cell-maxima rows
    assert matches_printed(1.110915912653739e-12, "1.2e-12")
    assert not matches_printed(1.110915912653739e-12, "1.1e-12")
    assert matches_printed(6.944238e-10, "7.0e-10")
    assert not matches_printed(6.944238e-10, "7.0e-09")
