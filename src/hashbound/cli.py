"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 budget
exceeded.  Output formats: aligned text (default), CSV with upward-rounded
bound columns plus full-precision ``_raw`` shadows, or JSON objects carrying
``"schema": 1``.
"""

from __future__ import annotations

import sys

import click

from . import presets
from .classical import (
    InvalidParams,
    NonMonotoneF,
    ProblemParams,
    balanced_fixed_point,
    dvj_bound,
    korner_marton,
    load_tabulated_f,
    plotkin_combined_k4,
    plotkin_crossing_delta,
)
from .combiner import BoundReport, classical_bounds, full_bound
from .configs import CellPair, PartitionKind, PartitionSpec
from .optimize import Budget, BudgetExceeded, compute_cell_max
from .oracle import max_code_exhaustive, sample_subdomain
from .reporting import render_csv, render_json, render_text_table, round_up, round_up_str
from .verify import run_verification

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_BUDGET = 3


class VerificationFailure(RuntimeError):
    pass


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _budget(budget_secs: int | None) -> Budget:
    return Budget(float(budget_secs)) if budget_secs is not None else Budget(None)


def _parse_eps(eps: str) -> float | None:
    if eps == "paper":
        return None
    try:
        return float(eps)
    except ValueError:
        raise click.UsageError(f"--eps must be a real number or 'paper', got {eps!r}")


def _resolve_runs(b, k, j, partition, eps_value):
    """Build the list of (j, spec|None) attempts for one bound computation."""
    runs: list[tuple[int | None, PartitionSpec | None]] = []
    if eps_value is None:  # paper preset
        pre = presets.PARTITION_PRESETS.get((b, k))
        if pre is not None and partition in ("auto", pre.kind.value):
            runs.append((j if j is not None else pre.j, pre.spec()))
        if not runs:
            runs.append((j, None))  # global path only
        if pre is None and (b, k) not in presets.UNIFORM_GLOBAL_MAX_PAIRS:
            raise click.UsageError(
                f"no paper preset for (b,k)=({b},{k}); pass an explicit --eps"
            )
        return runs
    kinds = (
        [PartitionKind.MAX_VALUE, PartitionKind.MIN_VALUE]
        if partition == "auto"
        else [PartitionKind(partition)]
    )
    jj = j if j is not None else k - 2
    for kind in kinds:
        spec = PartitionSpec(kind, eps_value)
        try:
            spec.validate(b, jj)
        except ValueError as exc:
            if partition == "auto":
                continue  # auto skips inadmissible kinds
            raise click.UsageError(str(exc))
        runs.append((jj, spec))
    if not runs:
        raise click.UsageError(
            f"eps={eps_value} admissible for neither partition kind at (b={b}, j={jj})"
        )
    return runs


def _report_text(rep: BoundReport) -> str:
    lines = [
        f"(b,k) = ({rep.b},{rep.k})",
        f"bound          {round_up_str(rep.bound, 5)}   (raw {rep.bound!r})",
        f"path           {rep.path} (j={rep.j})",
    ]
    if rep.partition_kind:
        lines.append(
            f"partition      {rep.partition_kind}-value, eps={rep.eps!r}"
            + (f" [{rep.eps_label}]" if rep.eps_label else "")
        )
        cells = rep.cell_values
        for label in ("m1", "m2", "m3", "m4"):
            c = cells[label]
            note = "" if c["exactness"] == "attained" else "  (upper bound)"
            lines.append(f"  {label}         {c['value']:.9f}{note}  [{c['config']}]")
        lines.append(
            f"  combined     {rep.combined_form_bound!r}  eta0={rep.combine_eta0:.6f}"
            f" rest={rep.combine_rest_shape}"
            + ("  (fallback: m4 <= m3)" if rep.combine_fallback else "")
        )
        lines.append(f"  partition bound {rep.partition_bound!r}")
    lines.append(
        f"global path    form={rep.global_form_bound!r} (j={rep.global_j},"
        f" uniform={'yes' if rep.global_at_uniform else 'no'}) -> bound {rep.global_bound!r}"
    )
    cl = rep.classical
    lines.append(
        f"classical      FK={round_up(cl['fredman_komlos'], 5)}"
        f" KM={round_up(cl['korner_marton'], 5)} (j={cl['korner_marton_j']})"
        f" DVJ={round_up(cl['dvj'], 5)}"
    )
    lines.append(
        f"conjectured    {round_up(cl['conjectured'], 5)}  (conjecture, not a theorem)"
    )
    if rep.flags:
        lines.append("flags          " + ", ".join(rep.flags))
    lines.append(f"elapsed        {rep.elapsed_secs:.2f}s")
    return "\n".join(lines) + "\n"


@click.group()
def cli():
    """Upper bounds on the growth rate of (b,k)-hash codes."""


@cli.command("bound")
@click.option("--b", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--j", type=int, default=None)
@click.option("--partition", type=click.Choice(["max", "min", "auto"]), default="auto")
@click.option("--eps", default="paper", help="threshold, a real number or 'paper'")
@click.option("--preset", type=click.Choice(["paper"]), default=None,
              help="alias for --eps paper")
@click.option("--certify", is_flag=True)
@click.option("--format", "fmt", type=click.Choice(["text", "csv", "json"]), default="text")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--budget-secs", type=int, default=None)
def cmd_bound(b, k, j, partition, eps, preset, certify, fmt, out, budget_secs):
    """Compute the best valid bound for one (b,k)."""
    eps_value = None if preset == "paper" else _parse_eps(eps)
    budget = _budget(budget_secs)
    best: BoundReport | None = None
    for jj, spec in _resolve_runs(b, k, j, partition, eps_value):
        rep = full_bound(b, k, jj, spec, certify=certify, budget=budget)
        if best is None or rep.bound < best.bound:
            best = rep
    if fmt == "text":
        _emit(_report_text(best), out)
    elif fmt == "json":
        _emit(render_json(best.to_dict()), out)
    else:
        headers = ["b", "k", "j", "path", "bound", "bound_raw", "form_bound_raw"]
        form = best.combined_form_bound if best.path == "partition" else best.global_form_bound
        rows = [[best.b, best.k, best.j, best.path, round_up_str(best.bound, 5),
                 repr(best.bound), repr(form)]]
        _emit(render_csv(headers, rows), out)


def _table1_row(row: presets.Table1Row, budget: Budget) -> list:
    if row.shortcut:
        rep = full_bound(row.b, row.k, budget=budget)
    else:
        pre = presets.PARTITION_PRESETS[(row.b, row.k)]
        rep = full_bound(row.b, row.k, pre.j, pre.spec(), budget=budget)
    km = rep.classical["korner_marton"]
    return [row.b, row.k, round_up_str(rep.bound, 5), repr(rep.bound), rep.path,
            round_up_str(km, 5), repr(km), row.arikan, row.gr]


@cli.command("table")
@click.option("--preset", "which", required=True, type=click.Choice(
    ["table1", "table2-computed-columns", "table3-computed-columns", "msvalues", "mi-tables"]))
@click.option("--format", "fmt", type=click.Choice(["text", "csv", "json"]), default="text")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--budget-secs", type=int, default=None)
def cmd_table(which, fmt, out, budget_secs):
    """Reproduce a published table's computed columns (literature columns are
    static reference data and tagged as such)."""
    budget = _budget(budget_secs)
    if which == "table1":
        headers = ["b", "k", "ours", "ours_raw", "path", "km", "km_raw",
                   "arikan_lit", "gr_lit"]
        data = [_table1_row(row, budget) for row in presets.TABLE1]
    elif which == "table2-computed-columns":
        headers = ["b", "k", "dvj", "dvj_raw", "costa_dalai_lit", "arikan_lit",
                   "gr_lit", "km_extended_lit"]
        data = []
        for row in presets.TABLE2:
            v = dvj_bound(ProblemParams(row.b, row.k))
            data.append([row.b, row.k, round_up_str(v, 5), repr(v),
                         row.costa_dalai or "---", row.arikan, row.gr, row.km_extended])
    elif which == "table3-computed-columns":
        headers = ["b", "k", "km", "km_raw", "gr_lit", "costa_dalai_lit", "arikan_lit"]
        data = []
        for row in presets.TABLE3:
            v, _ = korner_marton(ProblemParams(row.b, row.k))
            data.append([row.b, row.k, round_up_str(v, 7), repr(v),
                         row.gr, row.costa_dalai, row.arikan])
    elif which == "msvalues":
        headers = ["b", "k", "partition", "eps", "combined_form_raw", "published_ref"]
        data = []
        for (b, k), pre in sorted(presets.PARTITION_PRESETS.items()):
            rep = full_bound(b, k, pre.j, pre.spec(), budget=budget)
            data.append([b, k, pre.kind.value, pre.eps_label,
                         repr(rep.combined_form_bound), repr(presets.COMBINED_M[(b, k)])])
    else:  # mi-tables
        headers = ["b", "k", "partition", "eps", "m1_raw", "m2_raw", "m3_raw", "m4_raw"]
        data = []
        for (b, k), pre in sorted(presets.PARTITION_PRESETS.items()):
            vals = [
                compute_cell_max(pre.spec(), wh, b, pre.j, budget=budget).value
                for wh in CellPair
            ]
            data.append([b, k, pre.kind.value, pre.eps_label] + [repr(v) for v in vals])

    if fmt == "json":
        payload = {"schema": 1, "preset": which,
                   "rows": [dict(zip(headers, row)) for row in data]}
        _emit(render_json(payload), out)
    elif fmt == "csv":
        _emit(render_csv(headers, data), out)
    else:
        _emit(render_text_table(headers, [[str(c) for c in row] for row in data]), out)


@cli.command("verify")
@click.option("--seed", type=int, default=42)
@click.option("--samples", type=int, default=10000)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cmd_verify(seed, samples, fmt, out):
    """Run the cross-validation battery; nonzero exit on any violation."""
    checks = run_verification(seed=seed, lemma_count=samples)
    if fmt == "json":
        payload = {"schema": 1, "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks]}
        _emit(render_json(payload), out)
    else:
        lines = [f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}" for c in checks]
        _emit("\n".join(lines) + "\n", out)
    if not all(c.passed for c in checks):
        raise VerificationFailure("verification suite reported failures")


@cli.command("sweep-eps")
@click.option("--b", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--j", type=int, default=None)
@click.option("--partition", type=click.Choice(["max", "min"]), required=True)
@click.option("--eps-min", type=float, required=True)
@click.option("--eps-max", type=float, required=True)
@click.option("--steps", type=int, default=10)
@click.option("--format", "fmt", type=click.Choice(["text", "csv", "json"]), default="text")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--budget-secs", type=int, default=None)
def cmd_sweep_eps(b, k, j, partition, eps_min, eps_max, steps, fmt, out, budget_secs):
    """Scan the threshold over a grid and report the best resulting bound."""
    if steps < 1 or eps_max < eps_min:
        raise click.UsageError("empty sweep range")
    kind = PartitionKind(partition)
    jj = j if j is not None else k - 2
    for edge in (eps_min, eps_max):
        try:
            PartitionSpec(kind, edge).validate(b, jj)
        except ValueError as exc:
            raise click.UsageError(f"sweep range outside admissible interval: {exc}")
    budget = _budget(budget_secs)
    grid_eps = [eps_min + (eps_max - eps_min) * t / max(steps - 1, 1) for t in range(steps)]
    rows = []
    for e in grid_eps:
        rep = full_bound(b, k, jj, PartitionSpec(kind, e), budget=budget)
        rows.append((e, rep.bound, rep.path, ";".join(rep.flags)))
    best_eps, best_bound, *_ = min(rows, key=lambda r: r[1])
    pre = presets.PARTITION_PRESETS.get((b, k))
    beats = None
    if pre is not None and pre.kind is kind:
        pre_rep = full_bound(b, k, pre.j, pre.spec(), budget=budget)
        beats = best_bound < pre_rep.bound - 1e-9
    headers = ["eps", "bound", "bound_raw", "path", "flags"]
    data = [[f"{e:.9f}", round_up_str(v, 5), repr(v), path, flags] for e, v, path, flags in rows]
    summary = f"argmin eps = {best_eps!r} bound = {best_bound!r}"
    if beats is not None:
        summary += f"  improves on preset: {'yes' if beats else 'no'}"
    if fmt == "json":
        payload = {"schema": 1, "rows": [dict(zip(headers, r)) for r in data],
                   "argmin_eps": best_eps, "argmin_bound": best_bound,
                   "improves_on_preset": beats}
        _emit(render_json(payload), out)
    elif fmt == "csv":
        _emit(render_csv(headers, data), out)
    else:
        _emit(render_text_table(headers, data) + summary + "\n", out)


@cli.command("classical")
@click.option("--b", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--f-table", type=click.Path(exists=True, dir_okay=False), default=None,
              help="tabulated distance bound for the balanced fixed point")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cmd_classical(b, k, f_table, fmt, out):
    """Closed-form comparison bounds for one (b,k)."""
    vals = classical_bounds(ProblemParams(b, k))
    vals["conjectured_flag"] = "conjecture, not a theorem"
    if k == 4:
        vals["plotkin_combined"] = plotkin_combined_k4(b)
        vals["plotkin_crossing_delta"] = plotkin_crossing_delta(b)
    if f_table:
        F = load_tabulated_f(f_table)
        vals["balanced_fixed_point"] = balanced_fixed_point(b, k, F)
    if fmt == "json":
        _emit(render_json({"schema": 1, "b": b, "k": k, **vals}), out)
    else:
        lines = [f"{name:24s} {value}" for name, value in vals.items()]
        _emit("\n".join(lines) + "\n", out)


@cli.command("search-code")
@click.option("--b", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--n", type=int, required=True)
@click.option("--size-cap", type=int, default=None)
@click.option("--order", type=click.Choice(["asc", "desc"]), default="asc")
@click.option("--budget-secs", type=int, default=None)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="write the witness code, one word per line")
def cmd_search_code(b, k, n, size_cap, order, budget_secs, out):
    """Exhaustive search for the largest (b,k)-hash code of length n."""
    res = max_code_exhaustive(
        b, k, n, size_cap=size_cap, budget_secs=budget_secs, order=order
    )
    click.echo(
        f"A({b},{k},{n}) {'=' if res.exact else '>='} {res.size}"
        f"  (nodes={res.nodes}{', partial: budget/cap hit' if not res.exact else ''})"
    )
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(res.witness.serialize())
    else:
        click.echo(res.witness.serialize(), nl=False)
    if not res.exact:
        raise BudgetExceeded("search did not complete")


@cli.command("sample-mi")
@click.option("--b", type=int, required=True)
@click.option("--j", type=int, required=True)
@click.option("--partition", type=click.Choice(["max", "min"]), required=True)
@click.option("--eps", type=float, required=True)
@click.option("--which", type=click.Choice(["m1", "m2", "m3", "m4"]), required=True)
@click.option("--count", type=int, default=100000)
@click.option("--seed", type=int, default=42)
@click.option("--engine/--no-engine", default=True,
              help="compute the engine value and check dominance")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cmd_sample_mi(b, j, partition, eps, which, count, seed, engine, fmt, out):
    """Sample members of one cell pair and compare against the engine value."""
    spec = PartitionSpec(PartitionKind(partition), eps)
    sel = {c.label: c for c in CellPair}[which]
    engine_value = None
    if engine:
        engine_value = compute_cell_max(spec, sel, b, j).value
    rep = sample_subdomain(spec, sel, b, j, count, seed, engine_value=engine_value)
    payload = {
        "schema": 1,
        "selector": which,
        "partition": partition,
        "eps": eps,
        "b": b,
        "j": j,
        "requested": rep.requested,
        "evaluated": rep.evaluated,
        "best_sampled": rep.best_value,
        "best_p": list(rep.best_p),
        "best_q": list(rep.best_q),
        "engine_value": engine_value,
        "inconclusive": rep.inconclusive,
    }
    if fmt == "json":
        _emit(render_json(payload), out)
    else:
        lines = [f"{key:14s} {val}" for key, val in payload.items() if key != "schema"]
        _emit("\n".join(lines) + "\n", out)
    if engine_value is not None and not rep.inconclusive and not rep.dominated(engine_value):
        raise VerificationFailure(
            f"sampled value {rep.best_value!r} exceeds engine value {engine_value!r}"
        )


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except click.ClickException as exc:
        exc.show()
        return EXIT_USAGE
    except (InvalidParams, NonMonotoneF, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_USAGE
    except VerificationFailure as exc:
        click.echo(f"verification failure: {exc}", err=True)
        return EXIT_VERIFY
    except BudgetExceeded as exc:
        click.echo(f"budget exceeded: {exc}", err=True)
        return EXIT_BUDGET
    except click.exceptions.Abort:
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
