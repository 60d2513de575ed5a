"""The benchmark's tracer must still find and fire every hook it rebinds.

``perfbench/tracer.py`` records its per-layer metrics by rebinding
hashbound's module-level names.  A hooked name that goes missing is only
listed in ``Tracer.absent``, and the metrics that depend on it are dropped
without an error, so a rename under ``src/`` would silently shrink a traced
benchmark report.  This runs one certified CLI bound and one small sampling
check under the tracer, the two kinds of operation the workloads make, plus
one library bound shaped like an ``eps-sweep`` step, and reads
``perfbench/`` without changing it.
"""

import importlib.util
import json
import math
import time
from pathlib import Path

from hashbound import cli, combiner, optimize, oracle
from hashbound.configs import CellPair, PartitionKind, PartitionSpec

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _reject(token):
    raise ValueError(f"non-finite JSON constant {token}")


def test_tracer_hooks_every_layer(tmp_path):
    tracer = _load_tracer()
    tr = tracer.Tracer()
    out = tmp_path / "bound.json"
    tr.install()
    try:
        t0 = time.perf_counter()
        tr.op = 0
        rc = tr.call("cli.main", cli.main, ["bound", "--b", "5", "--k", "5", "--preset", "paper",
                                            "--certify", "--format", "json", "--out", str(out)])
        tr.op = 1
        smp = tr.call("oracle.sample", oracle.sample_subdomain,
                      PartitionSpec(PartitionKind.MIN_VALUE, 0.05), CellPair.TAGGED_SAME, 6, 3,
                      2000, 7)
        wall = time.perf_counter() - t0
    finally:
        tr.uninstall()
    assert rc == 0
    assert json.loads(out.read_text(encoding="utf-8"), parse_constant=_reject)["bound"] > 0.0
    assert smp.evaluated > 0
    assert tr.absent == []
    metrics = tr.layer_metrics(wall, wall)
    assert sorted(metrics) == sorted(tracer.METRICS)
    assert all(math.isfinite(value) for value in metrics.values()), metrics
    # every layer the workloads time was entered, not merely found
    for name in ("seppoly.rows.scan", "seppoly.rows.certify", "seppoly.rows.sample",
                 "configs.count", "configs.assemble.calls", "optimize.maximize.calls",
                 "optimize.certify.busy_s", "combiner.full_bound.calls", "combiner.combine.busy_s",
                 "classical.calls", "oracle.sample.evaluated"):
        assert metrics[name] > 0, name


def test_tracer_covers_an_eps_sweep_step(monkeypatch):
    # an eps-sweep step calls the library's full_bound, uncertified; its
    # global path looks the global maximum up in the memo on every call and
    # searches only while the (b, j) entry is missing
    tracer = _load_tracer()
    monkeypatch.setattr(optimize, "_GLOBAL_MAXIMA", {})
    tr = tracer.Tracer()
    tr.install()
    try:
        t0 = time.perf_counter()
        tr.op = 0
        rep = combiner.full_bound(6, 6, 3, PartitionSpec(PartitionKind.MIN_VALUE, 0.05))
        wall = time.perf_counter() - t0
    finally:
        tr.uninstall()
    assert 0.0 < rep.bound < 1.0
    assert tr.absent == []
    metrics = tr.layer_metrics(wall, wall)
    json.dumps(metrics, allow_nan=False)
    for name in ("optimize.global_max.calls", "seppoly.rows.scan", "combiner.full_bound.calls"):
        assert metrics[name] > 0, name
