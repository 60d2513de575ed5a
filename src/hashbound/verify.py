"""Cross-validation suites wiring the independent oracles to the engine.

Each check returns a CheckResult; the CLI turns any failure into exit code 2.
All randomness is seeded, so two runs with the same seed produce identical
reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .combiner import CellMaxima, cell_quadratic_batch, combine
from .configs import CellPair, PartitionKind, PartitionSpec
from .optimize import compute_cell_max
from .oracle import check_lemma_inequalities, sample_subdomain
from .seppoly import SepParams, sep_batch, sep_naive

ORACLE_TOL = 1e-12


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_oracle_equivalence(b: int, j: int, count: int, seed: int) -> CheckResult:
    """|sep_batch - sep_naive| <= 1e-12 on random simplex pairs."""
    rng = np.random.Generator(np.random.PCG64(seed))
    P = rng.dirichlet(np.ones(b), size=count)
    Q = rng.dirichlet(np.ones(b), size=count)
    fast = sep_batch(P, Q, j)
    params = SepParams(b, j)
    worst = 0.0
    for i in range(count):
        ref = sep_naive(P[i], Q[i], params)
        worst = max(worst, abs(fast[i] - ref))
    return CheckResult(
        name=f"oracle-equivalence b={b} j={j} n={count}",
        passed=bool(worst <= ORACLE_TOL),
        detail=f"max |fast - naive| = {worst:.3e}",
    )


def check_lemma(which: str, b: int, j: int, count: int, seed: int) -> CheckResult:
    rep = check_lemma_inequalities(which, b, j, count, seed)
    return CheckResult(
        name=f"lemma-{which} b={b} j={j} n={count}",
        passed=rep.passed,
        detail=f"violations={rep.violations} worst_margin={rep.worst_margin:.3e}",
    )


def check_combiner_maximality(mi: CellMaxima, count: int, seed: int) -> CheckResult:
    rng = np.random.Generator(np.random.PCG64(seed))
    etas = rng.dirichlet(np.ones(mi.b + 1), size=count)
    vals = cell_quadratic_batch(mi, etas)
    top = combine(mi).value
    worst = float(vals.max() - top)
    return CheckResult(
        name=f"combiner-maximality b={mi.b} n={count}",
        passed=bool(worst <= 1e-12),
        detail=f"max sampled - combined = {worst:.3e}",
    )


def check_sampling_dominance(
    spec: PartitionSpec,
    which: CellPair,
    b: int,
    j: int,
    count: int,
    seed: int,
) -> CheckResult:
    engine_value = compute_cell_max(spec, which, b, j).value
    rep = sample_subdomain(spec, which, b, j, count, seed, engine_value=engine_value)
    if rep.inconclusive and rep.evaluated == 0:
        return CheckResult(
            name=f"dominance {spec.kind.value}-{which.label} (b={b},j={j}) n={count}",
            passed=True,
            detail="inconclusive: rejection rate too high",
        )
    gap = rep.best_value - engine_value
    return CheckResult(
        name=f"dominance {spec.kind.value}-{which.label} (b={b},j={j}) n={rep.evaluated}",
        passed=rep.dominated(engine_value),
        detail=f"best sampled - engine = {gap:.3e}"
        + (" (inconclusive sample count)" if rep.inconclusive else ""),
    )


def run_verification(
    *,
    seed: int = 42,
    naive_pairs: tuple[tuple[int, int], ...] = ((6, 4), (7, 5), (6, 3)),
    naive_count: int = 2000,
    lemma_count: int = 10000,
    eta_count: int = 100000,
    dominance_count: int = 20000,
) -> list[CheckResult]:
    """The default cross-validation battery (a trimmed acceptance run)."""
    out: list[CheckResult] = []
    for i, (b, j) in enumerate(naive_pairs):
        out.append(check_oracle_equivalence(b, j, naive_count, seed + i))
    for i, which in enumerate(("L6", "L7", "L8", "L9")):
        out.append(check_lemma(which, 6, 4, lemma_count, seed + 100 + i))
    out.append(
        check_combiner_maximality(
            CellMaxima(0.085679, 0.092593, 0.000006, 0.000107, 7), eta_count, seed + 200
        )
    )
    out.append(
        check_combiner_maximality(
            CellMaxima(0.185185, 0.178857, 0.140664, 0.192000, 6), eta_count, seed + 201
        )
    )
    spec = PartitionSpec(PartitionKind.MIN_VALUE, 0.05)
    for i, which in enumerate(CellPair):
        out.append(check_sampling_dominance(spec, which, 6, 4, dominance_count, seed + 300 + i))
    return out
