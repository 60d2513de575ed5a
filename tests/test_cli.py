import csv
import hashlib
import io
import json

from hashbound import presets
from hashbound.cli import EXIT_BUDGET, EXIT_OK, EXIT_USAGE, main
from hashbound.combiner import BoundReport


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_preset_five_five(capsys):
    code, out, _ = run(capsys, "bound", "--b", "5", "--k", "5", "--preset", "paper")
    assert code == EXIT_OK
    assert "0.16894" in out
    assert "partition" in out


def test_bound_preset_five_five_certified(capsys):
    # certification no longer stops at the node cap here, so the certified
    # bound prints the same ceiling as the uncertified one
    code, out, _ = run(capsys, "bound", "--b", "5", "--k", "5", "--preset", "paper", "--certify")
    assert code == EXIT_OK
    assert "0.16894" in out
    assert "certify-node-cap" not in out


def test_bound_shortcut_seven_six(capsys):
    code, out, _ = run(capsys, "bound", "--b", "7", "--k", "6", "--preset", "paper")
    assert code == EXIT_OK
    assert "0.19897" in out
    assert "global" in out


def test_bound_explicit_min_partition(capsys):
    code, out, _ = run(
        capsys, "bound", "--b", "6", "--k", "6", "--j", "4",
        "--partition", "min", "--eps", "0.05",
    )
    assert code == EXIT_OK
    assert "0.08475" in out


def test_bound_json_roundtrip(capsys):
    code, out, _ = run(
        capsys, "bound", "--b", "6", "--k", "6", "--j", "4",
        "--partition", "min", "--eps", "0.05", "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema"] == 1
    rep = BoundReport.from_dict(payload)
    assert rep.to_dict() == payload


def test_bound_csv_upward_rounding(capsys):
    code, out, _ = run(
        capsys, "bound", "--b", "7", "--k", "6", "--format", "csv",
    )
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    printed = float(rows[0]["bound"])
    raw = float(rows[0]["bound_raw"])
    assert printed >= raw
    assert printed - raw < 1e-5


def test_bound_usage_errors(capsys):
    code, _, err = run(capsys, "bound", "--b", "4", "--k", "6")
    assert code == EXIT_USAGE
    code, _, err = run(
        capsys, "bound", "--b", "7", "--k", "7", "--partition", "max", "--eps", "0.9"
    )
    assert code == EXIT_USAGE
    code, _, _ = run(capsys, "bound", "--b", "9", "--k", "9", "--preset", "paper")
    assert code == EXIT_USAGE  # no preset and not a shortcut pair


def test_bound_budget_exceeded(capsys):
    code, _, err = run(
        capsys, "bound", "--b", "13", "--k", "11", "--preset", "paper",
        "--budget-secs", "0",
    )
    assert code == EXIT_BUDGET


def test_table_table2(capsys):
    code, out, _ = run(capsys, "table", "--preset", "table2-computed-columns",
                       "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == len(presets.TABLE2)
    assert rows[0]["dvj"] == "0.57303"
    assert rows[0]["costa_dalai_lit"] == "0.66126"


def test_table_table3_json(capsys):
    code, out, _ = run(capsys, "table", "--preset", "table3-computed-columns",
                       "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert len(payload["rows"]) == len(presets.TABLE3)


def test_table_table1_subset(capsys, monkeypatch):
    # the printed columns of one row per path; the whole table (about 2 s)
    # is pinned by test_table_table1_csv_is_pinned
    subset = tuple(r for r in presets.TABLE1 if (r.b, r.k) in ((5, 5), (7, 6)))
    monkeypatch.setattr(presets, "TABLE1", subset)
    code, out, _ = run(capsys, "table", "--preset", "table1", "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(int(r["b"]), int(r["k"])) for r in rows] == [(5, 5), (7, 6)]
    assert rows[0]["ours"] == "0.16894"
    assert rows[1]["ours"] == "0.19897"
    assert rows[1]["path"] == "global"


#: sha256 of ``table --preset table1 --format csv``
TABLE1_CSV_SHA256 = "fbf7492075e8e4cc9788d8865320664a679073d2e321598afd7dbf924ee39373"


def test_table_table1_csv_is_pinned(tmp_path):
    # every row of the published table, the rounded bounds and their _raw
    # shadows, to the last byte: a change meant to leave the outputs as they
    # are must not move it
    out = tmp_path / "table1.csv"
    assert main(["table", "--preset", "table1", "--format", "csv", "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TABLE1_CSV_SHA256


def test_table_mi_tables_subset(capsys, monkeypatch):
    subset = {(6, 6): presets.PARTITION_PRESETS[(6, 6)]}
    monkeypatch.setattr(presets, "PARTITION_PRESETS", subset)
    code, out, _ = run(capsys, "table", "--preset", "mi-tables", "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert abs(float(rows[0]["m1_raw"]) - 5 / 27) < 1e-6


def test_table_msvalues_subset(capsys, monkeypatch):
    subset = {(6, 6): presets.PARTITION_PRESETS[(6, 6)]}
    monkeypatch.setattr(presets, "PARTITION_PRESETS", subset)
    code, out, _ = run(capsys, "table", "--preset", "msvalues", "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert abs(float(rows[0]["combined_form_raw"]) - 5 / 27) < 1e-6


def test_verify_deterministic_and_green(capsys):
    code1, out1, _ = run(capsys, "verify", "--seed", "42", "--samples", "800")
    code2, out2, _ = run(capsys, "verify", "--seed", "42", "--samples", "800")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    assert "FAIL" not in out1


def test_verify_json_reports_plain_bools(capsys):
    code, out, _ = run(capsys, "verify", "--seed", "42", "--samples", "800",
                       "--format", "json")
    assert code == EXIT_OK
    checks = json.loads(out)["checks"]
    assert checks
    assert all(type(c["passed"]) is bool and c["passed"] for c in checks)


def test_sweep_eps_six_six(capsys):
    # no threshold choice improves on the published bulk value at (6,6)
    code, out, _ = run(
        capsys, "sweep-eps", "--b", "6", "--k", "6", "--partition", "min",
        "--eps-min", "0.03", "--eps-max", "0.15", "--steps", "3",
        "--format", "csv",
    )
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3
    assert min(float(r["bound_raw"]) for r in rows) >= 5 / 59 - 1e-9


def test_sweep_eps_seven_seven_covers_preset(capsys):
    # a sweep over the admissible interval must do at least as well as the
    # published threshold choice
    code, out, _ = run(
        capsys, "sweep-eps", "--b", "7", "--k", "7", "--partition", "max",
        "--eps-min", "0.05", "--eps-max", str(1 / 6), "--steps", "20",
        "--format", "csv",
    )
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 20
    assert min(float(r["bound_raw"]) for r in rows) <= 0.04090 + 1e-5


def test_sweep_eps_rows_carry_the_report_flags(capsys):
    # a weakened cell must not pass silently: each row carries its report's
    # flags, here the min partition's upper-bound-only m3 and m4 cells
    from hashbound.combiner import full_bound
    from hashbound.configs import PartitionKind, PartitionSpec

    args = ["sweep-eps", "--b", "6", "--k", "6", "--j", "3", "--partition", "min",
            "--eps-min", "0.045", "--eps-max", "0.055", "--steps", "2"]
    want = [";".join(full_bound(6, 6, 3, PartitionSpec(PartitionKind.MIN_VALUE, e)).flags)
            for e in (0.045, 0.055)]
    assert all("m4:upper-bound" in flags for flags in want)
    code, out, _ = run(capsys, *args, "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0]) == ["eps", "bound", "bound_raw", "path", "flags"]
    assert [r["flags"] for r in rows] == want
    code, out, _ = run(capsys, *args, "--format", "json")
    assert [r["flags"] for r in json.loads(out)["rows"]] == want
    code, out, _ = run(capsys, *args)
    assert [line.split()[-1] for line in out.splitlines()[2:4]] == want


def test_sweep_eps_range_errors(capsys):
    code, _, err = run(
        capsys, "sweep-eps", "--b", "7", "--k", "7", "--partition", "max",
        "--eps-min", "0.05", "--eps-max", "0.5", "--steps", "4",
    )
    assert code == EXIT_USAGE
    code, _, err = run(
        capsys, "sweep-eps", "--b", "7", "--k", "7", "--partition", "max",
        "--eps-min", "0.1", "--eps-max", "0.05", "--steps", "4",
    )
    assert code == EXIT_USAGE


def test_classical_command(capsys):
    code, out, _ = run(capsys, "classical", "--b", "5", "--k", "4")
    assert code == EXIT_OK
    assert "plotkin_combined" in out
    assert "conjecture, not a theorem" in out


def test_search_code_writes_witness(capsys, tmp_path):
    path = tmp_path / "witness.txt"
    code, out, _ = run(capsys, "search-code", "--b", "3", "--k", "3", "--n", "2",
                       "--out", str(path))
    assert code == EXIT_OK
    assert "A(3,3,2) = 4" in out
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 4


def test_sample_mi_command(capsys):
    code, out, _ = run(
        capsys, "sample-mi", "--b", "6", "--j", "4", "--partition", "min",
        "--eps", "0.05", "--which", "m1", "--count", "3000", "--seed", "9",
    )
    assert code == EXIT_OK
    assert "best_sampled" in out
    assert "np.float64" not in out  # the witness prints as plain floats
