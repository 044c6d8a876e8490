"""palette-kit: exact palette index and decomposition certificates for
small multigraphs."""

from .coloring import (
    ChromaticIndexResult,
    EdgeColoring,
    PaletteSystem,
    chromatic_index,
    is_class1_regular,
    palettes_of,
)
from .decomposition import (
    ClauseReport,
    Decomposition3,
    classify_cubic,
    decomposition3_to_json,
    decomposition_from_json,
    extract_decomposition_3,
    regular_corollary_check,
    synthesize_coloring_3,
    two_palette_check,
    verify_decomposition_3,
)
from .errors import (
    ImproperColoring,
    InvalidCertificate,
    LoopRejected,
    MalformedInput,
    NonMinimalColoring,
    NotConnected,
    NotCubic,
    NotRegular,
    NotTwoPalettes,
    PaletteKitError,
    ResourceLimit,
    TooManyPalettes,
)
from .formats import (
    decode_edge_list_json,
    decode_graph6,
    decode_sparse6,
    encode_edge_list_json,
    read_graph_file,
)
from .hypergraphs import Hypergraph, associated_hypergraph
from .multigraph import (
    EdgeSubset,
    MultiGraph,
    VertexPartition,
    connected_components,
    disjoint_perfect_matchings,
    has_perfect_matching,
    has_spanning_even_subgraph_no_isolated,
    induced_edge_subgraph,
    is_connected,
    is_regular,
    perfect_matchings,
)
from .solver import (
    LowerBoundCheck,
    PaletteIndexResult,
    check_lower_bound_theorem,
    lex_min_witness,
    palette_index,
    palette_index_oracle,
    reduce_colors,
)

__version__ = "0.1.0"
