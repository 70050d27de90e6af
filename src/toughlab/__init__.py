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
    VertexSet,
    components,
    e_between,
    emit_edge_list,
    emit_graph6,
    from_edge_list,
    is_connected,
    parse_edge_list,
    parse_graph,
    parse_graph6,
    regularity,
)
from .mixing import (
    MixingCheck,
    component_count_bound,
    exhaustive_mixing_verify,
    mixing_check,
    sampled_mixing_verify,
    verify_component_bound,
)
from .partition import (
    PartitionWitness,
    claim2_partition,
    index_subset,
)
from .spectra import SpectralProfile, spectrum
from .toughness import (
    ToughnessResult,
    exact_toughness,
    max_components_over_cuts,
    naive_toughness,
    toughness_of_cut,
)

__version__ = "0.1.0"
