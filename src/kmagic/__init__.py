"""c-sum k-magic edge labelings and sum spectra of regular graphs.

A labeling assigns each edge a nonzero residue mod k (any nonzero integer
when k = 1) so that every vertex sees the same sum c of incident labels.
The package builds such labelings constructively, decides which sums a
regular graph admits, and cross-checks predictions against an exhaustive
solver.
"""

from .construct import ConstructResult, construct
from .errors import (
    BudgetError,
    FactorError,
    GraphError,
    KmagicError,
    LabelingError,
    RegularityError,
)
from .factorization import (
    DoublingMap,
    FactorDecomposition,
    check_factor,
    double_graph,
    extract_2h_factor,
    two_factorization,
)
from .factors import (
    degree_constrained_factor,
    exhaustive_factor_search,
    f_factor,
    mod3_factor,
)
from .graphs import (
    FAMILIES,
    MultiGraph,
    build_graph,
    circulant,
    complete,
    complete_bipartite,
    components,
    cycle,
    disjoint_union,
    generate,
    parse_graph,
    petersen,
    prism,
    random_regular,
    regularity,
    subgraph,
    write_graph,
)
from .labelings import (
    ConstructionTrace,
    EdgeLabeling,
    TraceStep,
    extend_by_factor,
    fold,
    labeling_from_json,
    labeling_to_json,
    verify,
    verify_subset,
)
from .solver import (
    DEFAULT_BUDGET,
    SearchResult,
    SolverBudget,
    available_kernels,
    search_labeling,
)
from .spectrum import (
    SpectrumSet,
    brute_force_spectrum,
    is_completely_k_magic,
    null_set,
    predict_spectrum,
    zero_sum_4_magic,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "ConstructResult",
    "ConstructionTrace",
    "DEFAULT_BUDGET",
    "DoublingMap",
    "EdgeLabeling",
    "FAMILIES",
    "FactorDecomposition",
    "FactorError",
    "GraphError",
    "KmagicError",
    "LabelingError",
    "MultiGraph",
    "RegularityError",
    "SearchResult",
    "SolverBudget",
    "SpectrumSet",
    "TraceStep",
    "available_kernels",
    "brute_force_spectrum",
    "build_graph",
    "check_factor",
    "circulant",
    "complete",
    "complete_bipartite",
    "components",
    "construct",
    "cycle",
    "degree_constrained_factor",
    "disjoint_union",
    "double_graph",
    "exhaustive_factor_search",
    "extend_by_factor",
    "extract_2h_factor",
    "f_factor",
    "fold",
    "generate",
    "is_completely_k_magic",
    "labeling_from_json",
    "labeling_to_json",
    "mod3_factor",
    "null_set",
    "parse_graph",
    "petersen",
    "predict_spectrum",
    "prism",
    "random_regular",
    "regularity",
    "search_labeling",
    "subgraph",
    "two_factorization",
    "verify",
    "verify_subset",
    "write_graph",
    "zero_sum_4_magic",
]
