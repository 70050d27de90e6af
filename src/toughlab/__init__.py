"""toughlab: exact graph toughness, adjacency spectra, and verification of
the eigenvalue toughness bound t(G) >= d/lambda - 1 on a reproducible corpus."""

from .bounds import (
    BoundReport,
    alon_bound,
    brouwer_bound,
    gu_bound,
    theorem_bound,
    verify_theorem,
)
from .errors import ToughlabError
from .graph import (
    Graph,
    NotRegular,
    VertexSet,
    components,
    e_between,
    e_within,
    emit_edge_list,
    emit_graph6,
    from_edge_list,
    is_connected,
    parse_edge_list,
    parse_graph6,
    regularity,
)
from .mixing import (
    MixingCheck,
    component_count_bound,
    exhaustive_mixing_verify,
    max_components_over_cuts,
    mixing_check,
    mixing_check_single,
    sampled_mixing_verify,
    verify_component_bound,
)
from .partition import (
    PartitionWitness,
    check_claim1_hypothesis,
    claim2_partition,
    index_subset,
)
from .spectra import SpectralProfile, spectrum
from .toughness import (
    ToughnessResult,
    exact_toughness,
    is_k_tough,
    naive_toughness,
    toughness_of_cut,
)

__all__ = [
    "BoundReport",
    "Graph",
    "MixingCheck",
    "NotRegular",
    "PartitionWitness",
    "SpectralProfile",
    "ToughlabError",
    "ToughnessResult",
    "VertexSet",
    "alon_bound",
    "brouwer_bound",
    "check_claim1_hypothesis",
    "claim2_partition",
    "component_count_bound",
    "components",
    "e_between",
    "e_within",
    "emit_edge_list",
    "emit_graph6",
    "exact_toughness",
    "exhaustive_mixing_verify",
    "from_edge_list",
    "gu_bound",
    "index_subset",
    "is_connected",
    "is_k_tough",
    "max_components_over_cuts",
    "mixing_check",
    "mixing_check_single",
    "naive_toughness",
    "parse_edge_list",
    "parse_graph6",
    "regularity",
    "sampled_mixing_verify",
    "spectrum",
    "theorem_bound",
    "toughness_of_cut",
    "verify_component_bound",
    "verify_theorem",
]

__version__ = "0.1.0"
