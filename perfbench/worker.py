"""One benchmark run of one workload, in a fresh single-threaded interpreter.

``run.py`` starts this script with ``src`` on ``PYTHONPATH`` and the BLAS and
OpenMP thread counts set to 1.  It makes the workload's operations from the
seed, does one untimed warm-up bound, then runs the operations in cycles,
times each one and checks every output.  With ``--trace 1`` it makes one
untimed cycle and one traced cycle of the same operations instead.
Everything it measures goes to the JSON file named by ``--result``.

An operation is one bound or one dominance check.  It fails on a nonzero
exit code, an exception, or a wrong output.
"""

from __future__ import annotations

import argparse
import heapq
import itertools
import json
import math
import random
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

import hashbound  # noqa: E402  (src/ is on PYTHONPATH, set by run.py)
from hashbound import cli, combiner, oracle  # noqa: E402
from hashbound.configs import CellPair, PartitionKind, PartitionSpec  # noqa: E402

from run import WORKLOADS  # noqa: E402
from tracer import Tracer  # noqa: E402

#: printed uncertified bound of each certified pair at the seed commit
UNCERTIFIED_PRINTED = {(5, 5): 0.16894, (7, 7): 0.04090}
#: raw uncertified bound of each certified pair at the seed commit
UNCERTIFIED_RAW = {(5, 5): 0.16893245843873222, (7, 7): 0.040897467564271914}
#: printed certified bound at the seed commit; a certified run may not print more
CERTIFIED_PRINTED = {(5, 5): 0.16910, (7, 7): 0.04090}

#: (b, k, j, partition kind, eps band) of the eps-sweep pairs; each band is
#: centred on the pair's paper preset eps and narrow enough that the bound's
#: cost barely depends on where in the band eps falls
EPS_PAIRS = [(6, 6, 3, PartitionKind.MIN_VALUE, (0.045, 0.055)),
             (7, 7, 5, PartitionKind.MAX_VALUE, (0.085, 0.095))]
#: eps-sweep draws one eps per stratum of the band, in a seeded order, so no
#: eps repeats within a run of up to this many steps per pair
EPS_STRATA = 16
SAMPLES = 100_000
DOMINANCE_SLACK = 1e-9
#: runs of the reference computation, about 17 ms each, after every operation
REF_REPEATS = 5
#: neighbours on each side whose references also count for an operation
REF_WINDOW = 1

#: untimed warm-up: a partition bound that no workload computes
WARMUP = ["bound", "--b", "5", "--k", "5", "--partition", "max", "--eps", "0.2"]


def e5(x: float) -> int:
    return round(x * 1e5)


def op_key(op: tuple) -> str:
    """Operations of one pair share a key: its (b,k)."""
    return f"({op[0]},{op[1]})"


_REF_ROWS = np.arange(300 * 7, dtype=float).reshape(300, 7) * 0.37 % 1.0


def _reference_kernel() -> None:
    heap: list = []  # heap and dict work, like the branch-and-bound loop
    for i in range(4000):
        heapq.heappush(heap, ((i * 7919) % 1000, i, (i, i + 1)))
    seen = {}
    while heap:
        key, _, cell = heapq.heappop(heap)
        seen[cell] = key
    for _ in range(150):  # numpy calls on a small batch, like most sep_batch calls
        q = np.sort(_REF_ROWS, axis=1)
        np.prod(1.0 - q[:, 1:], axis=1)
        np.cumsum(q, axis=1).max()


def reference_s() -> float:
    """Median time of a fixed computation that does not touch hashbound.

    The shared host runs this process at speeds that differ by up to 45 %
    for tens of seconds at a time.  Each operation is divided by the
    reference measured around it (``Tally.local_ref``), so its figure holds
    whatever speed the host gave the run.
    """
    times = []
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        _reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


@dataclass
class Tally:
    """Checks made, and the times of the operations in the order they ran."""
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: (key, operation time, bound time) of each operation
    trail: list[tuple[str, float, float]] = field(default_factory=list)
    #: reference times: refs[i] just before operation i, refs[i + 1] just after it
    refs: list[float] = field(default_factory=list)
    last_s: dict[str, float] = field(default_factory=dict)
    cert_gap_e5: int = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    def timed(self, key: str, op_s: float, bound_s: float) -> None:
        self.trail.append((key, op_s, bound_s))
        self.last_s[key] = op_s

    def local_ref(self, i: int) -> float:
        """Reference time around operation i: the median of the references
        taken around it and its REF_WINDOW neighbours on each side."""
        return statistics.median(self.refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 2])

    def summary(self) -> dict[str, float]:
        """One cycle's time and the slowest bound call, each operation
        taken at the median over its key; in references and in seconds."""
        per_key: dict[str, list[tuple[float, float, float]]] = {}
        for i, (key, op_s, bound_s) in enumerate(self.trail):
            per_key.setdefault(key, []).append((op_s, bound_s, self.local_ref(i)))

        def med(col, per_ref):
            return [statistics.median(t[col] / t[2] if per_ref else t[col] for t in v)
                    for v in per_key.values()]

        return {"cycle_ref": math.fsum(med(0, True)), "max_bound_ref": max(med(1, True)),
                "wall_s": math.fsum(med(0, False)), "max_bound_s": max(med(1, False)),
                "reference_s": statistics.median(self.refs)}


class Runner:
    def __init__(self, workload: str, seed: int, scratch: Path):
        self.workload = workload
        self.scratch = scratch
        self.tracer: Tracer | None = None
        self.referenced = False  # take a reference after each operation
        rng = random.Random(seed)
        if workload == "eps-sweep":
            self.sweep_steps = []
            for b, k, j, kind, (lo, hi) in EPS_PAIRS:
                strata = rng.sample(range(EPS_STRATA), EPS_STRATA)
                self.sweep_steps.append([
                    (b, k, j, kind, lo + (hi - lo) * (i + rng.random()) / EPS_STRATA,
                     [rng.randrange(2**32) for _ in CellPair])
                    for i in strata])
        else:
            self.ops = rng.sample(sorted(CERTIFIED_PRINTED), len(CERTIFIED_PRINTED))

    def cycle_ops(self, cycle: int) -> list[tuple]:
        """Operations of one cycle: every preset pair, rotated by the cycle
        number, or the next eps step of each sweep pair."""
        if self.workload != "eps-sweep":
            r = cycle % len(self.ops)
            return self.ops[r:] + self.ops[:r]
        return [steps[cycle % EPS_STRATA] for steps in self.sweep_steps]

    def span(self, name, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call(name, fn, *args, **kwargs)

    def bound_cli(self, argv: list[str], out: Path) -> int:
        return self.span("cli.main", cli.main, argv + ["--format", "json", "--out", str(out)])

    def run_op(self, tally: Tally, op: tuple, first: bool) -> None:
        """Run, time and check one operation."""
        t0 = time.perf_counter()
        if self.workload == "eps-sweep":
            bound_s = self.sweep(tally, *op)
        else:
            self.preset(tally, *op, first=first)
            bound_s = time.perf_counter() - t0
        tally.timed(op_key(op), time.perf_counter() - t0, bound_s)
        if self.referenced:
            tally.refs.append(reference_s())

    def preset(self, tally: Tally, b: int, k: int, first: bool) -> None:
        out = self.scratch / f"bound-{b}-{k}.json"
        out.unlink(missing_ok=True)
        rc = self.bound_cli(["bound", "--b", str(b), "--k", str(k), "--preset", "paper",
                             "--certify"], out)
        if rc != 0:
            tally.check(False, f"({b},{k}) exit code {rc}")
            return
        rep = json.loads(out.read_text(encoding="utf-8"))
        printed = e5(rep["bound_rounded"])
        if first:
            tally.cert_gap_e5 += printed - e5(UNCERTIFIED_PRINTED[(b, k)])
        tally.check(rep["bound"] >= UNCERTIFIED_RAW[(b, k)]
                    and printed <= e5(CERTIFIED_PRINTED[(b, k)]),
                    f"({b},{k}) certified {rep['bound']!r} outside "
                    f"[{UNCERTIFIED_RAW[(b, k)]!r}, {CERTIFIED_PRINTED[(b, k)]!r}]")

    def sweep(self, tally: Tally, b, k, j, kind, eps, seeds) -> float:
        """One eps step; returns the time of its bound."""
        spec = PartitionSpec(kind, eps)
        t0 = time.perf_counter()
        try:
            rep = combiner.full_bound(b, k, j, spec)
        except Exception as exc:  # a failed operation, counted; the run goes on
            tally.check(False, f"({b},{k}) eps={eps!r}: {exc!r}")
            return time.perf_counter() - t0
        bound_s = time.perf_counter() - t0
        if not tally.check(0.0 < rep.bound < 1.0 and rep.cell_values is not None,
                           f"({b},{k}) eps={eps!r}: bound {rep.bound!r}"):
            return bound_s
        for sel, sample_seed in zip(CellPair, seeds):
            cell = rep.cell_values[sel.label]
            engine = cell["value"] + cell["certified_excess"]
            try:
                smp = self.span("oracle.sample", oracle.sample_subdomain,
                                spec, sel, b, j, SAMPLES, sample_seed, engine_value=engine)
            except Exception as exc:
                tally.check(False, f"({b},{k}) eps={eps!r} {sel.label}: {exc!r}")
                continue
            tally.check(not smp.inconclusive and smp.best_value <= engine + DOMINANCE_SLACK,
                        f"({b},{k}) eps={eps!r} {sel.label}: sampled {smp.best_value!r} "
                        f"vs engine {engine!r} (inconclusive={smp.inconclusive})")
        return bound_s

    def run_cycle(self, tally: Tally, cycle: int) -> float:
        t0 = time.perf_counter()
        for index, op in enumerate(self.cycle_ops(cycle)):
            if self.tracer is not None:
                self.tracer.op = index
            self.run_op(tally, op, first=cycle == 0)
        return time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    src = (ROOT / "src").resolve()
    if src not in Path(hashbound.__file__).resolve().parents:
        print(f"hashbound imported from {hashbound.__file__}, not from {src}", file=sys.stderr)
        return 2

    scratch = OUT / f"tmp-{args.workload}-{args.seed}-{args.trace}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(args.workload, args.seed, scratch)
        if runner.bound_cli(WARMUP, scratch / "warmup.json") != 0:
            print("warm-up bound failed", file=sys.stderr)
            return 2
        tally = Tally()
        result: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
        if not args.trace:  # the traced cycles need no reference
            runner.referenced = True
            tally.refs.append(reference_s())
        start = time.perf_counter()
        untraced_wall = runner.run_cycle(tally, 0)
        if args.trace:
            traced_tally = Tally()
            tracer = runner.tracer = Tracer()
            tracer.install()
            try:  # the operations of the untraced cycle, again
                traced_wall = runner.run_cycle(traced_tally, 0)
            finally:
                tracer.uninstall()
            tally.attempted += traced_tally.attempted
            tally.failed += traced_tally.failed
            tally.errors += traced_tally.errors
            result["traced"] = {
                "wall_s": traced_wall,
                "untraced_wall_s": untraced_wall,
                "absent": tracer.absent,
                "metrics": tracer.layer_metrics(untraced_wall, traced_wall),
                "layer_self_s": tracer.layer_self_s(),
            }
            tracer.dump(str(OUT / f"spans-{args.workload}-{args.seed}.json"))
        else:
            # further cycles, one operation at a time, while the next one
            # fits in the run length by its last time
            later = (op for cycle in itertools.count(1) for op in runner.cycle_ops(cycle))
            for op in later:
                if time.perf_counter() - start + tally.last_s[op_key(op)] > args.seconds:
                    break
                runner.run_op(tally, op, first=False)
        result.update(attempted=tally.attempted, failed=tally.failed, errors=tally.errors,
                      cert_gap_e5=tally.cert_gap_e5, trail=tally.trail, refs=tally.refs)
        if not args.trace:
            result.update(tally.summary())
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
