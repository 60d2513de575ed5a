"""The benchmark's own test: traced runs must be repeatable and complete.

    python3 perfbench/selfcheck.py [--seed 7] [workload ...]

For each workload (both by default) this makes two traced runs with the
same seed and checks that

* every operation passed its output check in both runs;
* the counts that must repeat exactly (``tracer.EXACT``) are identical;
* the per-layer self times sum to the traced wall time within 5 %, so no
  time escapes the spans.

It exits with code 1 if any check fails.  Each traced run makes an untraced
and a traced pass, so a workload takes about four times its pass time.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402
from tracer import EXACT  # noqa: E402

SELF_TIME_TOLERANCE = 0.05


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, cwd=HERE.parent, check=True, capture_output=True, text=True)
    summary = json.loads(out.stdout.strip().splitlines()[-1])
    detail = json.loads((HERE / "out" / f"result-{workload}-{seed}-trace1.json").read_text())
    return summary, detail


def check(workload: str, seed: int) -> list[str]:
    problems = []
    runs = [traced_run(workload, seed) for _ in range(2)]
    for i, (summary, detail) in enumerate(runs, 1):
        if not summary["correct"]:
            problems.append(f"run {i}: {summary['failed']} of {summary['attempted']} failed")
        traced = detail["traced"]
        total = sum(traced["layer_self_s"].values())
        if abs(total - traced["wall_s"]) > SELF_TIME_TOLERANCE * traced["wall_s"]:
            problems.append(f"run {i}: layer self times sum to {total:.3f} s, "
                            f"traced wall is {traced['wall_s']:.3f} s")
    first, second = (detail["traced"]["metrics"] for _, detail in runs)
    for name in EXACT:
        if first.get(name) != second.get(name):
            problems.append(f"{name}: {first.get(name)!r} then {second.get(name)!r}")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description="repeatability check of the traced benchmark runs")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("workloads", nargs="*", metavar="workload", help=", ".join(WORKLOADS))
    args = ap.parse_args()
    unknown = sorted(set(args.workloads) - set(WORKLOADS))
    if unknown:
        ap.error(f"unknown workload(s): {', '.join(unknown)}")
    failed = False
    for workload in args.workloads or WORKLOADS:
        problems = check(workload, args.seed)
        print(f"{'FAIL' if problems else 'PASS'} {workload} seed={args.seed}")
        for p in problems:
            print(f"  {p}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
