import json

import numpy as np
import pytest

from hashbound import optimize
from hashbound.combiner import (
    BoundReport,
    CellMaxima,
    cell_quadratic_batch,
    combine,
    full_bound,
)
from hashbound.configs import PartitionKind, PartitionSpec, global_candidates
from hashbound.optimize import Budget, BudgetExceeded, global_form_max
MI_77 = CellMaxima(0.085679, 0.092593, 0.000006, 0.000107, 7)
MI_66 = CellMaxima(0.185185, 0.178857, 0.140664, 0.192000, 6)
MI_55 = CellMaxima(0.384033, 0.389226, 0.374759, 0.389226, 5)


def test_cell_maxima_validation():
    with pytest.raises(ValueError):
        CellMaxima(0.0, 0.1, 0.1, 0.1, 5)


def cell_quadratic(mi: CellMaxima, eta) -> float:
    """f(eta) for one full weight vector, through ``cell_quadratic_batch``."""
    return float(cell_quadratic_batch(mi, np.asarray(eta, dtype=float)[None, :])[0])


def test_quadratic_endpoints():
    eta = np.zeros(8)
    eta[0] = 1.0
    assert cell_quadratic(MI_77, eta) == MI_77.m1
    flat = np.array([0.0] + [1 / 7] * 7)
    assert cell_quadratic(MI_77, flat) == pytest.approx(
        MI_77.m3 / 7 + 6 * MI_77.m4 / 7, abs=1e-15
    )


def test_quadratic_hand_value_at_six_six():
    # all mass off the bulk cell, spread evenly: 0.140664/6 + 5*0.192/6
    flat = np.array([0.0] + [1 / 6] * 6)
    assert cell_quadratic(MI_66, flat) == pytest.approx(0.1834440, abs=1e-7)
    assert cell_quadratic(MI_66, flat) < 5 / 27


def test_combine_published_tuples():
    assert combine(MI_77).value == pytest.approx(0.0861594, abs=5e-6)
    res = combine(MI_66)
    assert res.value == pytest.approx(MI_66.m1, abs=1e-15)
    assert res.eta0 == 1.0
    assert not res.used_fallback
    # (5,5): m2 == m4 exactly; the interior stationary point still wins
    res = combine(MI_55)
    assert res.value == pytest.approx(0.3873676, abs=5e-6)
    assert 0.0 < res.eta0 < 1.0


def test_combine_dominates_sampled_weights():
    rng = np.random.default_rng(123)
    for mi in (MI_77, MI_66, MI_55):
        top = combine(mi).value
        etas = rng.dirichlet(np.ones(mi.b + 1), size=20000)
        assert cell_quadratic_batch(mi, etas).max() <= top + 1e-12


def test_combine_monotone_in_inputs():
    rng = np.random.default_rng(321)
    base = combine(MI_77).value
    for _ in range(100):
        bump = rng.random(4) * 1e-3
        mi = CellMaxima(
            MI_77.m1 + bump[0], MI_77.m2 + bump[1], MI_77.m3 + bump[2],
            MI_77.m4 + bump[3], MI_77.b,
        )
        assert combine(mi).value >= base - 1e-15


def test_combine_fallback_when_m4_not_above_m3():
    mi = CellMaxima(0.2, 0.25, 0.3, 0.1, 6)
    res = combine(mi)
    assert res.used_fallback
    # exactness against a dense direct scan over (eta0, single-vertex/symmetric)
    rng = np.random.default_rng(9)
    etas = rng.dirichlet(np.ones(7), size=200000)
    assert cell_quadratic_batch(mi, etas).max() <= res.value + 1e-12
    # vertex slices dominate symmetric ones here
    t = np.linspace(0, 1, 2001)
    vertex = t * t * mi.m1 + 2 * t * (1 - t) * mi.m2 + (1 - t) ** 2 * mi.m3
    assert res.value == pytest.approx(vertex.max(), abs=1e-9)
    assert res.rest_shape == "vertex"


def test_full_bound_six_six(partition_report):
    rep = partition_report(6, 6)
    assert rep.bound == pytest.approx(5 / 59, abs=1e-7)
    assert rep.path == "partition"
    assert rep.m4_gt_m3 is True
    assert rep.combine_eta0 == 1.0
    # the published remark: the combined form bound equals the bulk value
    assert rep.combined_form_bound == pytest.approx(
        rep.cell_values["m1"]["value"], abs=1e-12
    )


def test_full_bound_shortcut_path():
    rep = full_bound(10, 6)
    assert rep.path == "global"
    assert rep.global_at_uniform
    assert rep.bound_rounded == 0.53909
    assert rep.elapsed_secs < 1.0


def test_preset_witnesses_are_probability_vectors(partition_report):
    """``assemble`` admits block values up to 1e-12 outside their bands, so a
    search could end at a witness with slightly negative coordinates; on every
    preset cell each witness vector is nonnegative and sums to 1."""
    from hashbound import presets

    for b, k in presets.PARTITION_PRESETS:
        for label, cell in partition_report(b, k).cell_values.items():
            for v in (cell["argmax_p"], cell["argmax_q"]):
                assert min(v) >= 0.0, (b, k, label, v)
                assert abs(sum(v) - 1.0) <= 1e-12, (b, k, label, v)


def test_report_rate_identity(partition_report):
    from hashbound.classical import rate_from_form_bound

    rep = partition_report(6, 6)
    form = (
        rep.combined_form_bound if rep.path == "partition" else rep.global_form_bound
    )
    assert rep.bound == rate_from_form_bound(rep.b, rep.k, rep.j, form)


def test_report_json_roundtrip(partition_report):
    rep = partition_report(6, 6)
    wire = json.dumps(rep.to_dict(), sort_keys=True)
    back = BoundReport.from_dict(json.loads(wire))
    assert back == rep
    assert json.loads(wire)["schema"] == 1


def test_full_bound_rejects_small_k():
    with pytest.raises(ValueError):
        full_bound(5, 3)


def test_global_max_is_computed_once_across_eps(monkeypatch):
    searched = []

    def counted(b, j):
        searched.append((b, j))
        return global_candidates(b, j)

    monkeypatch.setattr(optimize, "global_candidates", counted)
    # a budget that has already run out raises, and leaves nothing behind
    with pytest.raises(BudgetExceeded):
        full_bound(5, 5, budget=Budget(0.0))
    assert optimize._GLOBAL_MAXIMA == {}
    reps = [
        full_bound(5, 5, 2, PartitionSpec(PartitionKind.MAX_VALUE, eps))
        for eps in (0.2, 0.25)
    ]
    # the call that ran out, then the m2 cell at j=2 and the global path at
    # j=3, each searched once across both eps
    assert searched == [(5, 3), (5, 2), (5, 3)]
    assert sorted(optimize._GLOBAL_MAXIMA) == [(5, 2, None), (5, 3, None)]
    monkeypatch.setattr(optimize, "_GLOBAL_MAXIMA", {})
    fresh = max(global_form_max(5, 3).value, reps[0].uniform_form_value)
    assert reps[0].global_form_bound == reps[1].global_form_bound == fresh


def test_reused_cell_keeps_its_certified_excess():
    # on the (7,7) preset the global order equals the partition order, so
    # the bulk-tagged cell and the global path read one memo entry, whose
    # rigorous bound is its value plus its certified slack
    from dataclasses import replace

    from hashbound import presets

    pre = presets.PARTITION_PRESETS[(7, 7)]
    plain = full_bound(7, 7, pre.j, pre.spec())
    assert plain.global_form_bound == max(plain.cell_values["m2"]["value"], plain.uniform_form_value)
    (key, entry), = optimize._GLOBAL_MAXIMA.items()
    optimize._GLOBAL_MAXIMA[key] = replace(entry, certified_excess=0.5)
    rep = full_bound(7, 7, pre.j, pre.spec())
    assert rep.cell_values["m2"]["certified_excess"] == 0.5
    assert rep.global_form_bound == rep.cell_values["m2"]["value"] + 0.5
