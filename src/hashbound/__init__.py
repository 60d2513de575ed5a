"""Rigorous upper bounds on the growth rate of (b,k)-hash codes."""

from .classical import (
    ProblemParams,
    balanced_fixed_point,
    conjectured_bound,
    dvj_bound,
    falling,
    fredman_komlos,
    korner_marton,
    load_tabulated_f,
    plotkin_combined_k4,
    plotkin_crossing_delta,
    rate_from_form_bound,
)
from .combiner import BoundReport, CellMaxima, CombineResult, combine, full_bound
from .configs import CellPair, Configuration, PartitionKind, PartitionSpec, enumerate_candidates
from .optimize import (
    Budget,
    BudgetExceeded,
    CellMaxResult,
    compute_all_cell_maxima,
    compute_cell_max,
    global_form_max,
    maximize_config,
)
from .oracle import (
    Code,
    LemmaReport,
    SampleReport,
    check_lemma_inequalities,
    is_bk_hash,
    max_code_exhaustive,
    sample_subdomain,
)
from .seppoly import (
    SepParams,
    sep_batch,
    sep_naive,
    sep_uniform_exact,
    sep_uniform_fraction,
)

__version__ = "0.1.0"
