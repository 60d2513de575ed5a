"""Acceptance gate: every criterion at its stated tolerance, fixed seeds.

One test per criterion; each prints a single PASS/FAIL line (visible with
``pytest -s``, or in the failure output otherwise) and then asserts.  The
assertions are faithful to the published reference cells, with one exception:
the few printed cells that break their own table's rule are listed, with
their cause, in ``errata.py``.  For such a cell the criterion asserts that

(a) the printed string still equals the value stored in ``presets``;
(b) the printed cell fails the criterion's rule, so an erratum that is no
    longer needed is reported as a failure;
(c) the computed value meets the criterion's unchanged rule against the
    corrected value;

and that the corrected value, re-derived from published inputs or from
50-digit decimal arithmetic, differs from the printed cell only by the
erratum's cause.  Every other cell is checked exactly as printed.
"""

import math
import time
from decimal import Decimal

import numpy as np

from hashbound import presets
from hashbound.classical import (
    ProblemParams,
    balanced_fixed_point,
    dvj_bound,
    korner_marton,
    plotkin_combined_k4,
    plotkin_delta,
)
from hashbound.combiner import CellMaxima, cell_quadratic_batch, combine, full_bound
from hashbound.configs import CellPair, PartitionKind
from hashbound.optimize import compute_cell_max
from hashbound.oracle import max_code_exhaustive, sample_subdomain
from hashbound.reporting import round_up
from hashbound.seppoly import sep_batch
from hashbound.verify import check_lemma_inequalities

import errata
from helpers import (
    ceil_as_printed,
    combine_decimal,
    dvj_decimal,
    korner_marton_decimal,
    matches_printed,
    printed_ulp,
    rate_decimal,
    sep_by_convolution,
    sep_naive_batch,
)

PARTITION_PAIRS = sorted(presets.PARTITION_PRESETS)
SHORTCUT_PAIRS = [(r.b, r.k) for r in presets.TABLE1 if r.shortcut]
SEED = 20240808


def _criterion(n: int, name: str, failures: list[str], total: int) -> None:
    status = "PASS" if not failures else "FAIL"
    line = f"ACCEPTANCE {n} [{name}]: {status} ({total - len(failures)}/{total} checks)"
    print(line)
    assert not failures, line + "\n  " + "\n  ".join(failures)


def _published(table: str, cell: tuple):
    """The value ``presets`` stores for one cell of a published table."""
    if table == "COMBINED_M":
        return presets.COMBINED_M[cell]
    if table == "CELL_MAX_TABLES":
        b, k, label = cell
        return presets.CELL_MAX_TABLES[(b, k)][int(label[1]) - 1][0]
    name, column = table.split(".")
    row = next(r for r in getattr(presets, name) if (r.b, r.k) == cell)
    return getattr(row, column)


def _stored_as_printed(e: errata.Erratum) -> bool:
    stored = _published(e.table, e.cell)
    return e.printed == stored if isinstance(stored, str) else float(e.printed) == stored


def _differs_by_cause(e: errata.Erratum) -> bool:
    """Printed and corrected differ by one last-place unit or by a tenfold exponent."""
    printed, corrected = Decimal(e.printed), Decimal(e.corrected)
    if e.cause == errata.ULP:
        ulp = printed_ulp(e.printed)
        return printed_ulp(e.corrected) == ulp and abs(corrected - printed) == ulp
    if e.cause == errata.EXPONENT:
        mantissa = e.printed.partition("e")[0]
        return mantissa == e.corrected.partition("e")[0] and printed == 10 * corrected
    raise ValueError(f"cause of {e.name} needs a criterion-specific check")


def _erratum_failures(
    e: errata.Erratum,
    *,
    printed_fails: bool,
    meets_corrected: bool,
    rederived: str,
    cause_holds: bool,
) -> list[str]:
    """Checks (a)-(c) of the module docstring, plus the re-derivation and cause."""
    checks = (
        (_stored_as_printed(e),
         f"(a) printed {e.printed} is no longer the presets value"
         f" {_published(e.table, e.cell)!r}"),
        (printed_fails, f"(b) computed value meets the rule against printed {e.printed}"),
        (meets_corrected, f"(c) computed value fails the rule against corrected {e.corrected}"),
        (rederived == e.corrected, f"re-derived {rederived} != corrected {e.corrected}"),
        (cause_holds, f"printed and corrected do not differ by: {e.cause}"),
    )
    bad = [msg for ok, msg in checks if not ok]
    if not bad:
        return []
    return [f"{e.table} {e.cell} [erratum {e.name}]: " + "; ".join(bad)]


def _table1_rederived(e: errata.Erratum, j: int) -> tuple[str, bool]:
    """Ceiling of the rate at published inputs, and whether the cause holds."""
    b, k = e.cell
    if e.cause != errata.CELL_COUNT:
        m = repr(presets.COMBINED_M[(b, k)])
        return ceil_as_printed(rate_decimal(b, k, j, m), e.corrected), _differs_by_cause(e)
    cells = [repr(v) for v, _ in presets.CELL_MAX_TABLES[(b, k)]]
    def rate_with(n):
        return ceil_as_printed(rate_decimal(b, k, j, combine_decimal(*cells, n)), e.printed)
    return rate_with(b), rate_with(b - 1) == e.printed


def test_criterion_1_table1_partition_path(partition_report):
    failures = []
    for b, k in PARTITION_PAIRS:
        row = next(r for r in presets.TABLE1 if (r.b, r.k) == (b, k))
        rep = partition_report(b, k)
        printed = float(row.ours)
        rounded = round_up(rep.bound, 5)
        e = errata.lookup("TABLE1.ours", (b, k))
        if e is None:
            if rounded != printed:
                failures.append(
                    f"({b},{k}): ceil(computed {rep.bound!r}) = {rounded} != printed {row.ours}"
                )
        else:
            rederived, cause_holds = _table1_rederived(e, presets.PARTITION_PRESETS[(b, k)].j)
            failures += _erratum_failures(
                e,
                printed_fails=rounded != printed,
                meets_corrected=rounded == float(e.corrected),
                rederived=rederived,
                cause_holds=cause_holds,
            )
        if abs(rep.bound - printed) > 1e-4:
            failures.append(
                f"({b},{k}): |computed {rep.bound!r} - printed {row.ours}| > 1e-4"
            )
        if rep.elapsed_secs > 60.0:
            failures.append(f"({b},{k}): took {rep.elapsed_secs:.1f}s > 60s budget")
    _criterion(1, "table1 partition path", failures, 3 * len(PARTITION_PAIRS))


def test_criterion_2_table1_shortcut_path():
    failures = []
    t0 = time.monotonic()
    for b, k in SHORTCUT_PAIRS:
        row = next(r for r in presets.TABLE1 if (r.b, r.k) == (b, k))
        rep = full_bound(b, k)
        if rep.path != "global" or not rep.global_at_uniform:
            failures.append(f"({b},{k}): expected the uniform closed-form path")
        if round_up(rep.bound, 5) != float(row.ours):
            failures.append(
                f"({b},{k}): ceil(computed {rep.bound!r}) != printed {row.ours}"
            )
    elapsed = time.monotonic() - t0
    if elapsed >= 1.0:
        failures.append(f"shortcut table took {elapsed:.2f}s >= 1s budget")
    _criterion(2, "table1 shortcut path", failures, 2 * len(SHORTCUT_PAIRS) + 1)


def test_criterion_3_combined_form_values(partition_report):
    failures = []
    for b, k in PARTITION_PAIRS:
        rep = partition_report(b, k)
        ref = presets.COMBINED_M[(b, k)]
        got = rep.combined_form_bound
        e = errata.lookup("COMBINED_M", (b, k))
        if e is None:
            if abs(got - ref) > 1e-5:
                failures.append(
                    f"({b},{k}): combined {got!r} vs published {ref!r}"
                    f" (diff {got - ref:+.2e})"
                )
            continue
        # the only erratum here is the (6,5) cell count: the printed cell is
        # the combination of the published cells over b - 1 tagged cells
        cells = [repr(v) for v, _ in presets.CELL_MAX_TABLES[(b, k)]]
        failures += _erratum_failures(
            e,
            printed_fails=abs(got - float(e.printed)) > 1e-5,
            meets_corrected=abs(got - float(e.corrected)) <= 1e-5,
            rederived=ceil_as_printed(combine_decimal(*cells, b), e.corrected),
            cause_holds=e.cause == errata.CELL_COUNT
            and abs(combine_decimal(*cells, b - 1) - Decimal(e.printed)) <= Decimal("1e-5"),
        )
    _criterion(3, "combined form bounds", failures, len(PARTITION_PAIRS))


def _cell_max_rederived(e: errata.Erratum, rep) -> str:
    """Ceiling of the cell maximum, bracketed from both sides.

    Upper end: the certified branch-and-bound maximum.  Lower end: the
    convolution oracle at the reported witness, which must lie in the closure
    of the selector's cells (two distinct tagged cells of the max partition).
    The ceiling is re-derived when both ends share it.
    """
    b, k, label = e.cell
    pre = presets.PARTITION_PRESETS[(b, k)]
    which = next(w for w in CellPair if w.label == label)
    assert pre.kind is PartitionKind.MAX_VALUE and which is CellPair.TAGGED_CROSS
    cert = compute_cell_max(pre.spec(), which, b, pre.j, certify=True, cert_tol=1e-12)
    upper = cert.value + cert.certified_excess
    p = np.array(rep.cell_values[label]["argmax_p"])
    q = np.array(rep.cell_values[label]["argmax_q"])
    i, h = int(p.argmax()), int(q.argmax())
    if i == h or min(p[i], q[h]) < 1.0 - pre.eps - 1e-12:
        return f"no witness in the {label} cells"
    lower = sep_by_convolution(p, q, pre.j)
    lo_ceil = ceil_as_printed(Decimal(lower), e.corrected)
    up_ceil = ceil_as_printed(Decimal(upper), e.corrected)
    return up_ceil if lo_ceil == up_ceil else f"bracket [{lower!r}, {upper!r}]"


def test_criterion_4_cell_maxima_grids(partition_report):
    # "abs" rows are printed to six decimals and checked to 1e-5; "rel" rows
    # are two-significant-figure upward ceilings and checked as such
    failures = []
    total = 0
    for b, k in PARTITION_PAIRS:
        rep = partition_report(b, k)
        refs = presets.CELL_MAX_TABLES[(b, k)]
        for label, (ref, mode) in zip(("m1", "m2", "m3", "m4"), refs):
            total += 1
            got = rep.cell_values[label]["value"]
            e = errata.lookup("CELL_MAX_TABLES", (b, k, label))
            if e is not None:
                failures += _erratum_failures(
                    e,
                    printed_fails=not matches_printed(got, e.printed),
                    meets_corrected=matches_printed(got, e.corrected),
                    rederived=_cell_max_rederived(e, rep),
                    cause_holds=_differs_by_cause(e),
                )
                continue
            if mode == "abs":
                ok = abs(got - ref) <= 1e-5
            else:
                ok = matches_printed(got, f"{ref:.1e}")
            if not ok:
                failures.append(
                    f"({b},{k}) {label}: computed {got!r} vs printed {ref!r} ({mode})"
                )
    _criterion(4, "cell maxima grids", failures, total)


#: recomputable classical columns: label, errata table, rows, column, the
#: program's closed form and its 50-digit decimal oracle
CLASSICAL_COLUMNS = (
    ("T1 km", "TABLE1.km", presets.TABLE1, "km",
     lambda p: korner_marton(p)[0], korner_marton_decimal),
    ("T3 km", "TABLE3.km", presets.TABLE3, "km",
     lambda p: korner_marton(p)[0], korner_marton_decimal),
    ("T2 dvj", "TABLE2.dvj", presets.TABLE2, "dvj", dvj_bound, dvj_decimal),
)


def test_criterion_5_classical_columns():
    failures = []
    total = 0
    # the decimal oracle runs before the timed section
    rederived = {
        e.name: ceil_as_printed(oracle(*e.cell), e.corrected)
        for _, table, _, _, _, oracle in CLASSICAL_COLUMNS
        for e in errata.ERRATA
        if e.table == table
    }
    t0 = time.monotonic()
    for label, table, rows, column, closed_form, _ in CLASSICAL_COLUMNS:
        for row in rows:
            total += 1
            printed = getattr(row, column)
            v = closed_form(ProblemParams(row.b, row.k))
            e = errata.lookup(table, (row.b, row.k))
            if e is None:
                if not matches_printed(v, printed):
                    failures.append(
                        f"{label}({row.b},{row.k}): computed {v!r}, printed {printed}"
                    )
                continue
            failures += _erratum_failures(
                e,
                printed_fails=not matches_printed(v, printed),
                meets_corrected=matches_printed(v, e.corrected),
                rederived=rederived[e.name],
                cause_holds=_differs_by_cause(e),
            )
    elapsed = time.monotonic() - t0
    total += 1
    if elapsed >= 1.0:
        failures.append(f"classical columns took {elapsed:.2f}s >= 1s budget")
    _criterion(5, "classical columns", failures, total)


def test_criterion_6_property_suites(partition_report):
    failures = []
    total = 0
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)

    # fast evaluator == literal enumeration, 1e4 pairs per (b, j), b <= 7
    for b in range(3, 8):
        for j in range(2, b):
            total += 1
            P = rng.dirichlet(np.ones(b), size=10000)
            Q = rng.dirichlet(np.ones(b), size=10000)
            gap = float(np.abs(sep_batch(P, Q, j) - sep_naive_batch(P, Q, j)).max())
            if gap > 1e-12:
                failures.append(f"oracle equivalence (b={b},j={j}): max gap {gap:.2e}")

    # exchange/merge lemma suites, 1e4 hypothesis-satisfying samples each
    for i, (b, j) in enumerate(((6, 4), (7, 5))):
        for which in ("L6", "L7", "L8", "L9"):
            total += 1
            rep = check_lemma_inequalities(which, b, j, 10000, seed=SEED + i)
            if not rep.passed:
                failures.append(
                    f"lemma {which} (b={b},j={j}): {rep.violations} violations,"
                    f" worst margin {rep.worst_margin:.2e}"
                )

    # combiner maximality over 1e5 random weight vectors per tested tuple
    tuples = []
    for b, k in ((7, 7), (6, 6)):
        rep = partition_report(b, k)
        tuples.append(CellMaxima(
            rep.cell_values["m1"]["value"], rep.cell_values["m2"]["value"],
            rep.cell_values["m3"]["value"], rep.cell_values["m4"]["value"], b,
        ))
    tuples.append(CellMaxima(0.384033, 0.389226, 0.374759, 0.389226, 5))
    for mi in tuples:
        total += 1
        etas = rng.dirichlet(np.ones(mi.b + 1), size=100000)
        worst = float(cell_quadratic_batch(mi, etas).max() - combine(mi).value)
        if worst > 1e-12:
            failures.append(f"combiner maximality b={mi.b}: sampled exceeds by {worst:.2e}")

    # sampling dominance for all 8 selectors at the preset thresholds
    cases = (
        (PartitionKind.MAX_VALUE, (7, 7)),
        (PartitionKind.MIN_VALUE, (6, 6)),
    )
    for kind, (b, k) in cases:
        pre = presets.PARTITION_PRESETS[(b, k)]
        rep = partition_report(b, k)
        spec = pre.spec()
        for i, which in enumerate(CellPair):
            total += 1
            cell = rep.cell_values[which.label]
            engine = cell["value"]
            excess = cell["certified_excess"]
            srep = sample_subdomain(spec, which, b, pre.j, 100000, seed=SEED + 10 + i)
            if srep.evaluated and srep.best_value > engine + excess + 1e-9:
                failures.append(
                    f"dominance {kind.value}-{which.label} ({b},{k}):"
                    f" sampled {srep.best_value!r} > engine {engine!r}"
                )

    elapsed = time.monotonic() - t0
    total += 1
    if elapsed > 600.0:
        failures.append(f"property suites took {elapsed:.0f}s > 600s budget")
    _criterion(6, "property suites", failures, total)


def test_criterion_7_balanced_code_consistency():
    # the published distance-bound table is out of scope (its distance bound
    # comes from an external formula); these checks substitute for it
    failures = []
    for b in range(5, 15):
        pc = plotkin_combined_k4(b)
        dv = dvj_bound(ProblemParams(b, 4))
        if not pc < dv:
            failures.append(f"b={b}: plotkin-combined {pc!r} not below dvj {dv!r}")
        closed = (b - 1) * (b - 2) * math.log2(b) / (
            (b - 1) * (b - 2) + b * b * math.log2(b)
        )
        solved = balanced_fixed_point(b, 4, plotkin_delta(b))
        if abs(solved - closed) > 1e-9:
            failures.append(f"b={b}: fixed point {solved!r} vs closed form {closed!r}")
    _criterion(7, "balanced-code consistency", failures, 2 * 10)


def test_criterion_8_definitional_grounding():
    failures = []
    for b in (3, 4, 5):
        res = max_code_exhaustive(b, b, 1)
        if not (res.exact and res.size == b):
            failures.append(f"A({b},{b},1) = {res.size} (exact={res.exact}), expected {b}")
    asc = max_code_exhaustive(3, 3, 2, order="asc")
    desc = max_code_exhaustive(3, 3, 2, order="desc")
    if not (asc.exact and desc.exact and asc.size == desc.size):
        failures.append(
            f"A(3,3,2) unstable across orders: asc {asc.size} desc {desc.size}"
        )
    _criterion(8, "definitional grounding", failures, 4)


def test_errata_name_published_cells():
    # an erratum naming no published cell would never be looked up
    for e in errata.ERRATA:
        assert _stored_as_printed(e), e.name
