"""First-Fit chain partitioning toolkit.

Posets without two long incomparable chains, their block-built interval
extensions and path decompositions, the First-Fit preserving quotient to
interval graphs, exact oracles (worst-case First-Fit, pathwidth), and the
adversarial families that force First-Fit to many chains.
"""

from .adversary import (
    KiersteadPoset,
    StackedPoset,
    kierstead,
    stacked,
    stacked_degenerate,
)
from .errors import (
    BudgetExhausted,
    CoverageError,
    CycleError,
    FormatError,
    GaveUp,
    IdOutOfRange,
    InternalError,
    InvalidBlock,
    InvalidColoring,
    InvalidDecomposition,
    MalformedInterval,
    NoUpSet,
    OutOfRange,
    ParamError,
    PosetFFError,
    SizeMismatch,
    TooLarge,
)
from .extension import (
    Block,
    BlockMove,
    BlockSequence,
    GoodElementCertificate,
    GoodElement,
    IntervalExtension,
    IntervalRepresentation,
    PathDecomposition,
    block_sequence,
    decomposition_from_blocks,
    find_good_element,
    initial_block,
    interval_order_of,
    up_set,
    validate_path_decomposition,
)
from .firstfit import (
    FFChainResult,
    FFColoring,
    PresentationOrder,
    first_fit_chains,
    first_fit_color,
    grundy_coloring,
    grundy_number,
    validate_ff_coloring,
    validate_ff_partition,
)
from .generators import (
    SplitMix64,
    gen_graph,
    gen_interval_order,
    gen_kk_free,
    gen_random_poset,
)
from .jsonio import (
    block_trace_to_list,
    canonical_dumps,
    ff_result_to_dict,
    graph_from_dict,
    graph_to_dict,
    homomorphism_from_dict,
    homomorphism_to_dict,
    intervals_from_dict,
    intervals_to_dict,
    order_from_dict,
    order_to_dict,
    pd_from_dict,
    pd_to_dict,
    poset_from_dict,
    poset_to_dict,
    read_json,
    witness_to_dict,
    write_json,
)
from .homomorphism import (
    FFImage,
    Homomorphism,
    IntervalCompletion,
    build_ff_image,
    interval_clique_number,
    interval_completion,
    path_decomposition_exact,
    pathwidth_exact,
    validate_homomorphism,
)
from .order import (
    Antichain,
    Chain,
    ChainPartition,
    Graph,
    KkWitness,
    Poset,
    antichain_poset,
    build_poset,
    chain_poset,
    complete_bipartite_graph,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    dilworth_partition,
    empty_graph,
    find_k_plus_k,
    incomparability_graph,
    interval_order_from_intervals,
    is_extension,
    is_interval_order,
    path_graph,
    width_with_witness,
)

__version__ = "0.1.0"
