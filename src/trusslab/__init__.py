"""trusslab: exact and approximate k-truss decomposition for undirected graphs."""

from .approx import (
    ApproxTrussOrder,
    EstimateResult,
    ThresholdRound,
    approx_order_holds,
    approx_truss_order,
    estimate_trussness,
    hypergraph_degeneracy_order,
    marker_test,
    threshold_estimate,
    threshold_rounds,
)
from .gadgets import (
    AugmentedGraph,
    BlowupView,
    add_spurious_cliques,
    bipartite_apex,
    blowup,
    complete_graph,
    disjoint_union,
    ladder_gadget,
)
from .graph import (
    DegeneracyInfo,
    Graph,
    build_graph,
    degeneracy_order,
    forward_wedge_count,
)
from .io import EdgeListError, load_graph, write_edge_list
from .sampling import (
    HypergraphSample,
    SamplerConfig,
    geometric_skip,
    gnp_random_graph,
    sample_hypergraph,
    sample_wedges_fixed_p,
)
from .triangles import (
    SupportTable,
    compute_supports,
    list_triangles,
)
from .truss import (
    EdgeOrder,
    TrussDecomposition,
    decomposition_from_order,
    is_exact_truss_order,
    max_truss_subgraph,
    suffix_support_profile,
    truss_decomposition,
    trussness,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxTrussOrder",
    "AugmentedGraph",
    "BlowupView",
    "DegeneracyInfo",
    "EdgeListError",
    "EdgeOrder",
    "EstimateResult",
    "Graph",
    "HypergraphSample",
    "SamplerConfig",
    "SupportTable",
    "ThresholdRound",
    "TrussDecomposition",
    "add_spurious_cliques",
    "approx_order_holds",
    "approx_truss_order",
    "bipartite_apex",
    "blowup",
    "build_graph",
    "complete_graph",
    "compute_supports",
    "decomposition_from_order",
    "degeneracy_order",
    "disjoint_union",
    "estimate_trussness",
    "forward_wedge_count",
    "geometric_skip",
    "gnp_random_graph",
    "hypergraph_degeneracy_order",
    "is_exact_truss_order",
    "ladder_gadget",
    "list_triangles",
    "load_graph",
    "marker_test",
    "max_truss_subgraph",
    "sample_hypergraph",
    "sample_wedges_fixed_p",
    "suffix_support_profile",
    "threshold_estimate",
    "threshold_rounds",
    "truss_decomposition",
    "trussness",
    "write_edge_list",
]
