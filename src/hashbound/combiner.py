"""Combining the four cell-pair maxima into a rate bound.

With the partition cells weighted by a probability vector
eta = (eta_0, ..., eta_b), the mixture form is dominated by

    f(eta) = eta_0^2 m1 + 2 eta_0 sum_i eta_i m2
           + sum_i eta_i^2 m3 + 2 sum_{i<h} eta_i eta_h m4 .

Fixing the bulk weight eta_0, the restriction of f to the remaining slice is
a quadratic whose Hessian sign is that of m3 - m4: concave slices peak at the
symmetric point eta_1 = ... = eta_b, convex slices at a single-cell vertex.
Either way the slice maximum reduces f to a quadratic in eta_0 alone, whose
maximum over [0,1] sits at an endpoint or the stationary point.  ``combine``
therefore evaluates the six candidates (two slice shapes, three eta_0 values
each) and is exact for every positive input, including ties; when m4 > m3 it
coincides with the closed-form maximizer and otherwise the vertex branch is
the published hypothesis' fallback, and the result is flagged.

``full_bound`` runs the whole pipeline for one (b, k): cell maxima for the
requested partition, the combiner, the rate conversion, and the always-valid
global-maximum path, returning the smaller bound with provenance.  The global
maximum comes from the one eps-independent memo in ``optimize``, certified
when the cells are.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, asdict

import numpy as np

from . import presets
from .classical import (
    ProblemParams,
    conjectured_bound,
    dvj_bound,
    fredman_komlos,
    korner_marton,
    rate_from_form_bound,
)
from .configs import CellPair, PartitionSpec
from .optimize import (
    Budget,
    CellMaxResult,
    NO_BUDGET,
    compute_all_cell_maxima,
    global_form_max,
)
from .reporting import round_up
from .seppoly import SepParams, sep_uniform_exact


@dataclass(frozen=True)
class CellMaxima:
    """Values (or upper bounds) of the four cell-pair maxima."""

    m1: float
    m2: float
    m3: float
    m4: float
    b: int

    def __post_init__(self):
        for name in ("m1", "m2", "m3", "m4"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")

    @property
    def closed_form_applies(self) -> bool:
        return self.m4 > self.m3


def cell_quadratic_batch(mi: CellMaxima, etas: np.ndarray) -> np.ndarray:
    """f(eta) for each row of an (N, b+1) array of full weight vectors."""
    etas = np.asarray(etas, dtype=float)
    eta0 = etas[:, 0]
    rest = etas[:, 1:]
    s = rest.sum(axis=1)
    sq = (rest * rest).sum(axis=1)
    cross = (s * s - sq) / 2.0
    return eta0 * eta0 * mi.m1 + 2.0 * eta0 * s * mi.m2 + sq * mi.m3 + 2.0 * cross * mi.m4


@dataclass(frozen=True)
class CombineResult:
    value: float
    eta0: float
    rest_shape: str          # "symmetric" or "vertex"
    used_fallback: bool      # published closed form needs m4 > m3


def _quad_candidates(m1: float, m2: float, a: float) -> list[float]:
    # g(t) = t^2 (m1 - 2 m2 + a) + 2 t (m2 - a) + a on [0, 1]
    cands = [0.0, 1.0]
    den = 2.0 * m2 - m1 - a
    if den != 0.0:
        t = (m2 - a) / den
        cands.append(min(1.0, max(0.0, t)))
    return cands


def combine(mi: CellMaxima) -> CombineResult:
    """Maximum of f over all weight vectors, with the maximizing bulk weight.

    Exact candidate evaluation (see module docstring); monotone nondecreasing
    in each of m1..m4, so upper-bound inputs stay safe.
    """
    b = mi.b
    best: tuple[float, float, str] | None = None
    for a, shape in (
        (mi.m3 / b + (b - 1) * mi.m4 / b, "symmetric"),
        (mi.m3, "vertex"),
    ):
        for t in _quad_candidates(mi.m1, mi.m2, a):
            val = t * t * mi.m1 + 2.0 * t * (1.0 - t) * mi.m2 + (1.0 - t) * (1.0 - t) * a
            key = (val, shape == "symmetric", t)
            if best is None or key > (best[0], best[2] == "symmetric", best[1]):
                best = (val, t, shape)
    value, eta0, shape = best
    return CombineResult(
        value=value,
        eta0=eta0,
        rest_shape=shape,
        used_fallback=not mi.closed_form_applies,
    )


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """Full provenance record for one (b, k) rate bound."""

    b: int
    k: int
    j: int
    bound: float
    bound_rounded: float
    path: str                       # "partition" or "global"
    partition_kind: str | None
    eps: float | None
    eps_label: str | None
    partition_j: int | None
    cell_values: dict | None        # per selector: value/exactness/config/excess
    m4_gt_m3: bool | None
    combined_form_bound: float | None
    combine_eta0: float | None
    combine_rest_shape: str | None
    combine_fallback: bool | None
    partition_bound: float | None
    global_j: int
    global_form_bound: float
    global_at_uniform: bool
    global_bound: float
    uniform_form_value: float
    classical: dict
    flags: tuple[str, ...]
    elapsed_secs: float

    def to_dict(self) -> dict:
        d = asdict(self)
        d["flags"] = list(self.flags)
        d["schema"] = 1
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "BoundReport":
        d = dict(d)
        schema = d.pop("schema", None)
        if schema != 1:
            raise ValueError(f"unsupported report schema {schema!r}")
        d["flags"] = tuple(d["flags"])
        return cls(**d)


def classical_bounds(params: ProblemParams) -> dict:
    """The closed-form comparison bounds a report carries, in report order."""
    km, km_j = korner_marton(params)
    return {
        "fredman_komlos": fredman_komlos(params),
        "korner_marton": km,
        "korner_marton_j": km_j,
        "dvj": dvj_bound(params),
        "conjectured": conjectured_bound(params),
    }


def _cells_to_dict(cells: dict[CellPair, CellMaxResult]) -> dict:
    out = {}
    for which, res in cells.items():
        out[which.label] = {
            "value": res.value,
            "exactness": res.exactness,
            "config": res.config_tag,
            "certified_excess": res.certified_excess,
            "argmax_p": list(res.p),
            "argmax_q": list(res.q),
        }
    return out


def full_bound(
    b: int,
    k: int,
    j: int | None = None,
    spec: PartitionSpec | None = None,
    *,
    certify: bool = False,
    budget: Budget = NO_BUDGET,
) -> BoundReport:
    """Best valid bound for (b, k): partition path (if a spec is given) vs the
    global-maximum path at order k-2.

    The global path uses the exact uniform closed form for pairs where the
    unconstrained maximum is published to sit at uniform vectors (the test
    suite checks that list only by the local search, a lower estimate) and
    otherwise the global maximum (``global_form_max``, plus its certified
    slack with ``certify``), which always dominates the mixture form.  That
    maximum does not depend on eps; ``optimize`` memoises it per (b, j), and
    the partition cells that range over the same families read the same
    entry.
    """
    t0 = time.monotonic()
    params = ProblemParams(b, k, j)
    if k < 4:
        raise ValueError("rate bounds need k >= 4")
    flags: list[str] = []
    jg = k - 2
    uniform_value = sep_uniform_exact(SepParams(b, jg))

    partition_rate = None
    cells = None
    comb = None
    mi = None
    pj = None
    if spec is not None:
        pj = j if j is not None else k - 2
        spec.validate(b, pj)
        cells = compute_all_cell_maxima(spec, b, pj, certify=certify, budget=budget)
        vals = {
            which: res.value + res.certified_excess for which, res in cells.items()
        }
        mi = CellMaxima(
            m1=vals[CellPair.BULK_BULK],
            m2=vals[CellPair.BULK_TAGGED],
            m3=vals[CellPair.TAGGED_SAME],
            m4=vals[CellPair.TAGGED_CROSS],
            b=b,
        )
        comb = combine(mi)
        if comb.used_fallback:
            flags.append("combine:fallback-m4<=m3")
        for which, res in cells.items():
            if res.exactness == "upper_bound":
                flags.append(f"{which.label}:upper-bound")
            if res.certify_capped:
                flags.append(f"{which.label}:certify-node-cap")
            if res.unsearched and not certify:
                flags.append(f"{which.label}:unsearched-configuration")
        partition_rate = rate_from_form_bound(b, k, pj, comb.value)

    if (b, k) in presets.UNIFORM_GLOBAL_MAX_PAIRS:
        global_form = uniform_value
        global_at_uniform = True
    else:
        glob = global_form_max(b, jg, certify=certify, budget=budget)
        global_form = max(glob.value + glob.certified_excess, uniform_value)
        global_at_uniform = abs(global_form - uniform_value) <= 1e-9
        if not global_at_uniform:
            flags.append("global-max:above-uniform")
    global_rate = rate_from_form_bound(b, k, jg, global_form)

    if partition_rate is not None and partition_rate <= global_rate:
        path, bound, jstar = "partition", partition_rate, pj
    else:
        path, bound, jstar = "global", global_rate, jg
        if global_at_uniform:
            flags.append("global:uniform-closed-form")

    classical = classical_bounds(params)
    flags.append("conjectured:not-a-theorem")

    return BoundReport(
        b=b,
        k=k,
        j=jstar,
        bound=bound,
        bound_rounded=round_up(bound, 5),
        path=path,
        partition_kind=spec.kind.value if spec else None,
        eps=spec.eps if spec else None,
        eps_label=None,
        partition_j=pj,
        cell_values=_cells_to_dict(cells) if cells else None,
        m4_gt_m3=mi.closed_form_applies if mi else None,
        combined_form_bound=comb.value if comb else None,
        combine_eta0=comb.eta0 if comb else None,
        combine_rest_shape=comb.rest_shape if comb else None,
        combine_fallback=comb.used_fallback if comb else None,
        partition_bound=partition_rate,
        global_j=jg,
        global_form_bound=global_form,
        global_at_uniform=global_at_uniform,
        global_bound=global_rate,
        uniform_form_value=uniform_value,
        classical=classical,
        flags=tuple(flags),
        elapsed_secs=time.monotonic() - t0,
    )
