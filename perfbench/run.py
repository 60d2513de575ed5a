"""hashbound benchmark: one run of one workload.

    python3 perfbench/run.py --workload preset-certified --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run times the set-up (fresh interpreters importing hashbound),
then starts one worker process (``worker.py``) that runs the workload with
BLAS/OpenMP limited to one thread, and reads the worker's peak memory with
``resource.getrusage``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Details (per-operation times, failures, per-layer self times, spans) are written
under ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracer import METRICS as PER_LAYER  # noqa: E402

WORKLOADS = ("preset-certified", "eps-sweep")
SETUP_PROBES = 4     # before the worker, and as many after it
DEADLINE_S = 170.0   # the whole run, set-up included

END_TO_END = {"cycle_ref": "ref", "max_bound_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def setup_times(env: dict[str, str]) -> list[float]:
    """Times from interpreter start to hashbound imported and ready."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        # no timeout: Popen.wait polls every 50 ms when given one
        subprocess.run([sys.executable, "-c", "import hashbound, hashbound.cli"],
                       env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


def main() -> int:
    ap = argparse.ArgumentParser(description="hashbound benchmark, one run")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "hashbound" / "__init__.py").is_file():
        print(f"no hashbound sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    env = child_env()
    try:
        setup = [] if args.trace else setup_times(env)
    except subprocess.CalledProcessError as exc:
        print(f"importing hashbound failed: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--result", str(result_path)]
    worker = subprocess.Popen(cmd, env=env, cwd=ROOT)
    try:
        rc = worker.wait(timeout=max(1.0, DEADLINE_S - (time.perf_counter() - start)))
    except subprocess.TimeoutExpired:
        worker.kill()
        worker.wait()
        print(f"worker exceeded the {DEADLINE_S:.0f} s deadline", file=sys.stderr)
        return 3
    # every other child only imports hashbound, so the largest is the worker
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    if rc != 0 or not result_path.is_file():
        print(f"worker exited with code {rc}", file=sys.stderr)
        return 3
    if not args.trace:  # probes on both sides of the worker see more of the machine's drift
        setup += setup_times(env)
    res = json.loads(result_path.read_text(encoding="utf-8"))

    attempted, failed = res["attempted"], res["failed"]
    for err in res["errors"]:
        print(f"FAILED: {err}")
    counts = collections.Counter(key for key, _, _ in res["trail"])
    samples = ", ".join(f"{key} x{n}" for key, n in counts.items())
    print(f"{args.workload} seed={args.seed}: timed {samples}; "
          f"{attempted} operations, {failed} failed, failed_frac {failed / attempted:.6g}")
    if args.workload == "preset-certified":
        print(f"cert_gap_e5 {res['cert_gap_e5']} (certified minus uncertified "
              f"printed bounds, in 1e-5)")
    if args.trace:
        traced = res["traced"]
        for name in traced["absent"]:
            print(f"absent hook: {name}")
        for layer, secs in traced["layer_self_s"].items():
            print(f"self_s {layer:10s} {secs:.4f} s")
        print(f"traced wall {traced['wall_s']:.4f} s, untraced wall {traced['untraced_wall_s']:.4f} s")
        metrics = {name: {"value": traced["metrics"][name], "unit": PER_LAYER[name][0]}
                   for name in PER_LAYER if name in traced["metrics"]}
    else:
        print(f"in seconds: wall_s {res['wall_s']:.4f} s, max_bound_s {res['max_bound_s']:.4f} s; "
              f"reference {res['reference_s'] * 1e3:.2f} ms")
        values = {"cycle_ref": res["cycle_ref"], "max_bound_ref": res["max_bound_ref"],
                  "setup_s": statistics.median(setup), "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": v, "unit": END_TO_END[name]} for name, v in values.items()}
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
