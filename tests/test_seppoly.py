import math
from fractions import Fraction

import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hashbound import seppoly
from hashbound.seppoly import (
    DimensionMismatch,
    NaiveCapExceeded,
    SepParams,
    _BATCH_CHUNK,
    _sep_partials,
    sep_batch,
    sep_naive,
    sep_uniform_exact,
    sep_uniform_fraction,
)

from helpers import (
    sep_by_convolution,
    sep_by_full_generating_pass,
    sep_fraction,
    sep_naive_batch,
    sep_batch_per_call,
    sep_partials_per_call,
    sep_partials_unbanded,
)


def _one_row(p, q, j: int) -> float:
    """``sep_batch`` on a single (p, q) pair."""
    return float(sep_batch(np.array([p], dtype=float), np.array([q], dtype=float), j)[0])


def test_params_validation():
    SepParams(6, 4)
    with pytest.raises(ValueError):
        SepParams(6, 1)
    with pytest.raises(ValueError):
        SepParams(6, 6)
    with pytest.raises(ValueError):
        SepParams(1, 2)


def test_naive_uniform_six_four():
    params = SepParams(6, 4)
    u = (1 / 6,) * 6
    assert sep_naive(u, u, params) == pytest.approx(5 / 27, abs=1e-12)


def test_naive_vertex_against_spread():
    params = SepParams(6, 4)
    p = (1.0, 0, 0, 0, 0, 0)
    q = (0.0,) + (0.2,) * 5
    assert sep_naive(p, q, params) == pytest.approx(0.192, abs=1e-12)


def test_naive_zero_when_support_too_small():
    # fewer than j nonzero entries on both sides kills every product
    params = SepParams(6, 4)
    p = (0.4, 0.6, 0, 0, 0, 0)
    q = (0, 0, 0.7, 0.3, 0, 0)
    assert sep_naive(p, q, params) == 0.0
    assert _one_row(p, q, params.j) == 0.0


def test_naive_guards():
    with pytest.raises(NaiveCapExceeded):
        sep_naive((1 / 9,) * 9, (1 / 9,) * 9, SepParams(9, 4))
    with pytest.raises(DimensionMismatch):
        sep_naive((0.2,) * 5, (1 / 6,) * 6, SepParams(6, 4))


def test_fast_uniform_seven_five():
    u = (1 / 7,) * 7
    val = _one_row(u, u, 5)
    assert val == pytest.approx(1440 / 16807, abs=1e-15)
    assert val == pytest.approx(0.085679, abs=1e-6)


def test_fast_vertex_seven_five():
    p = (1.0,) + (0.0,) * 6
    q = (0.0,) + (1 / 6,) * 6
    assert _one_row(p, q, 5) == pytest.approx(720 / 7776, abs=1e-15)


def test_fast_matches_naive_oracle():
    rng = np.random.default_rng(20240811)
    params = SepParams(6, 3)
    P = rng.dirichlet(np.ones(6), size=300)
    Q = rng.dirichlet(np.ones(6), size=300)
    fast = sep_batch(P, Q, params.j)
    for i in range(300):
        assert abs(fast[i] - sep_naive(P[i], Q[i], params)) <= 1e-12


def test_batch_matches_fast_and_batched_oracle():
    rng = np.random.default_rng(7)
    for b, j in ((5, 2), (6, 4), (7, 3)):
        P = rng.dirichlet(np.ones(b), size=400)
        Q = rng.dirichlet(np.ones(b), size=400)
        batch = sep_batch(P, Q, j)
        oracle = sep_naive_batch(P, Q, j)
        assert np.abs(batch - oracle).max() <= 1e-12
        for i in (17, 119, 301):
            assert batch[i] == pytest.approx(sep_by_convolution(P[i], Q[i], j), abs=1e-14)


def test_elem_sym_basics():
    # j = 1 on simplex vectors: sum_m q_m (1 - p_m) + p_m (1 - q_m) = 2 - 2 <p, q>
    assert _one_row([0.3, 0.5, 0.2], [0.2, 0.3, 0.5], 1) == pytest.approx(1.38, abs=1e-15)
    assert _one_row([1 / 6] * 6, [1 / 6] * 6, 4) == pytest.approx(5 / 27, abs=1e-15)
    # e_0 = 1, so the order-0 value is the total mass of both vectors
    assert _one_row([0.1, 0.2], [0.3, 0.4], 0) == pytest.approx(1.0, abs=1e-15)


def test_elem_sym_against_polynomial_expansion():
    # every b <= 8 and every order 1 <= j <= b-1, with exact zeros mixed into
    # the rows; q = unit vector e_m isolates j! e_j(p without m) for j >= 2
    rng = np.random.default_rng(3)
    for b in range(2, 9):
        P = rng.random((6, b))
        Q = rng.random((6, b))
        P[rng.random((6, b)) < 0.3] = 0.0
        Q[rng.random((6, b)) < 0.3] = 0.0
        P[0] = 0.0
        P[1, 1:] = 0.0
        Q[2] = 0.0
        Q[3, :-1] = 0.0
        P[4, 1:] = 0.0
        Q[4, :-1] = 0.0
        P = np.vstack([P, np.tile(P[5], (b, 1))])
        Q = np.vstack([Q, np.eye(b)])
        for j in range(1, b):
            got = sep_batch(P, Q, j)
            for n in range(P.shape[0]):
                assert got[n] == pytest.approx(
                    sep_by_convolution(P[n], Q[n], j), rel=1e-13, abs=1e-15
                ), (b, j, n)


def test_chunk_boundary_matches_short_slices():
    # rows straddle two full chunks and a partial third one
    rng = np.random.default_rng(11)
    N = 2 * _BATCH_CHUNK + 3
    for b, j in ((7, 5), (5, 2)):
        P = rng.dirichlet(np.ones(b), size=N)
        Q = rng.dirichlet(np.ones(b), size=N)
        P[rng.random((N, b)) < 0.2] = 0.0
        Q[rng.random((N, b)) < 0.2] = 0.0
        whole = sep_batch(P, Q, j)
        sliced = np.concatenate([sep_batch(P[lo:lo + 1000], Q[lo:lo + 1000], j)
                                 for lo in range(0, N, 1000)])
        np.testing.assert_allclose(whole, sliced, rtol=1e-15, atol=0.0)
        assert np.array_equal(sep_batch(Q, P, j), whole)
        for n in (0, _BATCH_CHUNK - 1, _BATCH_CHUNK, 2 * _BATCH_CHUNK, N - 1):
            assert whole[n] == pytest.approx(sep_by_convolution(P[n], Q[n], j), rel=1e-13, abs=1e-15)


def test_row_bands_leave_result_bit_identical():
    rng = np.random.default_rng(23)
    for b in range(2, 16):
        P = rng.random((40, b))
        Q = rng.random((40, b))
        P[rng.random((40, b)) < 0.25] = 0.0
        for j in range(b):
            assert np.array_equal(sep_batch(P, Q, j), sep_by_full_generating_pass(P, Q, j)), (b, j)


def test_banded_partials_are_bit_identical_to_the_full_recurrence():
    # rows around one chunk, every b and j, random left-out coordinates and
    # zero entries: the row restriction and the chunking change no bit
    rng = np.random.default_rng(29)
    for b in range(3, 16):
        N = _BATCH_CHUNK + 1
        P = rng.random((N, b))
        Q = rng.random((N, b))
        P[rng.random((N, b)) < 0.25] = 0.0
        Q[rng.random((N, b)) < 0.25] = 0.0
        drop = rng.integers(0, b, N)
        for j in range(1, b):
            for n in (_BATCH_CHUNK - 1, _BATCH_CHUNK, _BATCH_CHUNK + 1):
                got = _sep_partials(P[:n], Q[:n], j, drop[:n])
                want = sep_partials_unbanded(P[:n], Q[:n], j, drop[:n])
                assert all(np.array_equal(g, w) for g, w in zip(got, want)), (b, j, n)


@pytest.mark.parametrize("N", [2 * _BATCH_CHUNK - 1, 2 * _BATCH_CHUNK, 2 * _BATCH_CHUNK + 1])
def test_memory_order_leaves_results_bit_identical(N):
    # each chunk is copied once into coordinate rows, whatever the input layout
    rng = np.random.default_rng(37 + N)
    b, j = 7, 4
    P2, Q2 = rng.random((2 * N, b)), rng.random((2 * N, b))
    P2[rng.random((2 * N, b)) < 0.2] = 0.0
    P, Q = P2[::2].copy(), Q2[::2].copy()
    drop = rng.integers(0, b, N)
    want = sep_batch(P, Q, j)   # C order
    want_partials = _sep_partials(P, Q, j, drop)
    layouts = {
        "F": (np.asfortranarray(P), np.asfortranarray(Q)),
        "row-strided": (P2[::2], Q2[::2]),
        "lists": (P.tolist(), Q.tolist()),
    }
    assert layouts["F"][0].flags.f_contiguous and not layouts["row-strided"][0].flags.c_contiguous
    for name, (p, q) in layouts.items():
        assert np.array_equal(sep_batch(p, q, j), want), name
        got = _sep_partials(p, q, j, drop)
        assert all(np.array_equal(g, w) for g, w in zip(got, want_partials)), name


@pytest.mark.parametrize("order", ["C", "F"])
def test_shared_workspace_is_bit_identical_to_per_call_workspaces(order):
    # every call runs in chunks on padded widths in the one workspace: every
    # b, j and size around the widths, 1,024 rows, the chunk and several
    # chunks, against a workspace of its own per call, to the last bit
    rng = np.random.default_rng(61)
    sizes = (1, 63, 64, 65, 170, 1024, 1025, _BATCH_CHUNK - 1, _BATCH_CHUNK + 1, 2 * _BATCH_CHUNK + 65)
    for b in range(3, 16):
        P, Q = rng.random((max(sizes), b)), rng.random((max(sizes), b))
        P[rng.random(P.shape) < 0.25] = 0.0
        Q[rng.random(Q.shape) < 0.25] = 0.0
        drop = rng.integers(0, b, max(sizes))
        for n in sizes:
            p, q = (np.asfortranarray(M[:n]) if order == "F" else M[:n] for M in (P, Q))
            for j in range(1, b):
                assert sep_batch(p, q, j).tobytes() == sep_batch_per_call(p, q, j).tobytes(), (b, j, n)
                got, want = _sep_partials(p, q, j, drop[:n]), sep_partials_per_call(p, q, j, drop[:n])
                assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want)), (b, j, n)


@pytest.mark.parametrize("N", [1, 170, _BATCH_CHUNK + 1])
def test_back_to_back_calls_leave_earlier_results_intact(N, monkeypatch):
    # every call runs in one workspace: calls of two sizes in one padded
    # width, interleaved over three (b, j) and both entry points, must not
    # write into what an earlier call returned, and each result equals a
    # fresh computation; a (15,13) call of a whole chunk grows the
    # workspace, which lets every older buffer go
    monkeypatch.setattr(seppoly, "_work", np.empty(0))
    seppoly._views.cache_clear()
    rng = np.random.default_rng(53 + N)
    calls = [(b, j, n) for b, j in ((5, 3), (7, 5), (15, 13)) for n in (N, N + 1)] + [(15, 13, _BATCH_CHUNK)]
    results, buffers = [], [weakref.ref(seppoly._work)]
    for b, j, n in calls:
        P, Q, drop = rng.random((n, b)), rng.random((n, b)), rng.integers(0, b, n)
        for call, got in (((P, Q, j, None), (sep_batch(P, Q, j),)),
                          ((P, Q, j, drop), _sep_partials(P, Q, j, drop))):
            results.append((call, got, [g.copy() for g in got]))
        if seppoly._work is not buffers[-1]():
            buffers.append(weakref.ref(seppoly._work))
        assert all(ref() is None for ref in buffers[:-1]), (b, j, n)
    assert len(buffers) >= 3
    seppoly._views.cache_clear()
    for (P, Q, j, drop), got, old in results:
        fresh = (sep_batch_per_call(P, Q, j),) if drop is None else sep_partials_per_call(P, Q, j, drop)
        for g, o, f in zip(got, old, fresh, strict=True):
            assert g.tobytes() == o.tobytes() == f.tobytes(), (P.shape, j)
    outputs = [g for _call, got, _old in results for g in got]
    for i, g in enumerate(outputs):
        assert not any(np.shares_memory(g, other) for other in outputs[i + 1 :])


def test_sep_partials_match_exact_differences():
    # S_j is affine in each single coordinate, so dS/dp_i = S(p_i <- 1) - S(p_i <- 0)
    # exactly; rows mix zeros in and leave out every coordinate in turn
    rng = np.random.default_rng(31)
    for b in range(2, 8):
        P = rng.random((b, b))
        Q = rng.random((b, b))
        P[rng.random((b, b)) < 0.25] = 0.0
        Q[rng.random((b, b)) < 0.25] = 0.0
        drop = np.arange(b)
        for j in range(1, b):
            dp, dq = _sep_partials(P, Q, j, drop)
            for r, i in enumerate(drop):
                for got, V, other, swap in ((dp[r], P[r], Q[r], False), (dq[r], Q[r], P[r], True)):
                    hi, lo = list(V), list(V)
                    hi[i], lo[i] = 1.0, 0.0
                    args = ((other, hi), (other, lo)) if swap else ((hi, other), (lo, other))
                    exact = sep_fraction(*args[0], j) - sep_fraction(*args[1], j)
                    assert got >= 0.0
                    assert got == pytest.approx(float(exact), rel=1e-13, abs=1e-15), (b, j, r, swap)


def test_uniform_closed_form_values():
    assert sep_uniform_fraction(SepParams(6, 4)) == Fraction(5, 27)
    assert sep_uniform_exact(SepParams(7, 4)) == pytest.approx(2 * 2520 / 16807, abs=1e-15)
    # b = j+1: the falling factorial is the full factorial
    for j in (2, 3, 4):
        b = j + 1
        assert sep_uniform_fraction(SepParams(b, j)) == Fraction(
            2 * math.factorial(b), b ** b
        )


def test_uniform_closed_form_matches_fast():
    for b in range(3, 16):
        u = (1 / b,) * b
        for j in range(2, b):
            assert abs(_one_row(u, u, j) - sep_uniform_exact(SepParams(b, j))) <= 1e-14


@st.composite
def simplex_pair(draw):
    b = draw(st.integers(min_value=3, max_value=7))
    j = draw(st.integers(min_value=2, max_value=b - 1))
    raws = []
    for _ in range(2):
        raw = draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                min_size=b, max_size=b,
            )
        )
        total = sum(raw)
        if total < 1e-9:
            raw = [1.0] * b
            total = float(b)
        raws.append(tuple(x / total for x in raw))
    return b, j, raws[0], raws[1]


@settings(max_examples=150, deadline=None)
@given(simplex_pair())
def test_symmetry_in_p_and_q(data):
    b, j, p, q = data
    assert _one_row(p, q, j) == _one_row(q, p, j)


@settings(max_examples=150, deadline=None)
@given(simplex_pair(), st.randoms(use_true_random=False))
def test_permutation_equivariance(data, pyrandom):
    b, j, p, q = data
    perm = list(range(b))
    pyrandom.shuffle(perm)
    pp = tuple(p[i] for i in perm)
    qq = tuple(q[i] for i in perm)
    before = _one_row(p, q, j)
    after = _one_row(pp, qq, j)
    assert abs(before - after) <= 1e-14
