"""Sparse-graph neighborhood machinery.

Canonical bounded-depth rooted graphs, neighborhood laws and their
edge-type statistics, prescribed-neighborhood unimodular trees, the
colored configuration model with exact counting, tree-like graph
encoding, entropy/rate functionals, and brute-force oracles.
"""

from .rooted import (
    CanonicalClass,
    LabeledRootedGraph,
    SimpleGraph,
    canonicalize,
    edge_type_count,
    edge_type_table,
    isolated_root,
    join_at_root,
    parse_class,
    root_degree,
    split_at_edge,
    star,
    truncate,
)
from .neighborhood import (
    NeighborhoodLaw,
    edge_intensity,
    edge_intensity_table,
    edge_type_distribution,
    empirical_distribution,
    is_admissible,
    mean_degree,
    poisson_law,
    root_edge_types,
    truncate_law,
    tv_distance,
)
from .ugw import (
    ColoredOffspringLaw,
    branch_law,
    colored_branch_law,
    consistency_check,
    edge_law_identity,
    marginal_ugw,
    sample_ugw,
    sample_ugw_bipartite,
    sample_ugw_colored,
    size_biased,
    typed_branching_law,
)
from .config_model import (
    ColoredMultigraph,
    Configuration,
    DegreeSequence,
    cm_probability,
    colorblind,
    colorblind_of,
    config_space_size,
    degree_sequence_of,
    excess,
    explore_neighborhood,
    fiber_size,
    graph_of,
    graphical_check,
    has_cycle_leq,
    sample_configuration,
    sample_G_Dh,
    subgraph_count_expectation,
    validate_degree_sequence,
)
from .tree_encoding import (
    EncodingContext,
    count_equivalent_graphs,
    distinct_orderings,
    encode,
    is_h_treelike,
    neighborhood_vector,
    verify_neighborhood_preservation,
)
from .entropy import (
    discontinuity_bound,
    entropy_constant,
    entropy_increment,
    rate_binomial,
    rate_degree_er,
    rate_degree_fixed,
    rate_fixed_degrees,
    rate_fixed_edges,
    relative_entropy,
    relative_entropy_poisson,
    shannon,
    sigma_ugw1,
    ugw_entropy,
)

__version__ = "0.1.0"
