"""Graph substrate: dynamic simple graphs, vertex interning, 4-layered
graphs, updates, and static counting oracles."""

from repro.graph.interning import VertexInterner
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.layered_graph import (
    CLASSIFICATION_RELATIONS,
    LAYER_RELATIONS,
    RELATION_LAYERS,
    LayeredGraph,
)
from repro.graph.reduction import (
    expand_general_stream,
    expand_general_update,
)
from repro.graph.static_counts import (
    closed_four_walks_from_adjacency,
    count_closed_four_walks,
    four_cycles_from_adjacency,
    count_four_cycles_edge_list,
    count_four_cycles_through_edge,
    count_four_cycles_trace,
    count_four_cycles_wedges,
    count_three_paths,
    count_wedges_between,
    total_wedges,
)
from repro.graph.updates import (
    RELATION_NAMES,
    EdgeUpdate,
    LayeredEdgeUpdate,
    UpdateBatch,
    UpdateKind,
    UpdateStream,
    normalize_batch,
)

__all__ = [
    "DynamicGraph",
    "VertexInterner",
    "LayeredGraph",
    "RELATION_LAYERS",
    "LAYER_RELATIONS",
    "CLASSIFICATION_RELATIONS",
    "expand_general_update",
    "expand_general_stream",
    "closed_four_walks_from_adjacency",
    "count_closed_four_walks",
    "four_cycles_from_adjacency",
    "count_four_cycles_trace",
    "count_four_cycles_wedges",
    "count_four_cycles_edge_list",
    "count_four_cycles_through_edge",
    "count_three_paths",
    "count_wedges_between",
    "total_wedges",
    "EdgeUpdate",
    "LayeredEdgeUpdate",
    "UpdateBatch",
    "UpdateKind",
    "UpdateStream",
    "normalize_batch",
    "RELATION_NAMES",
]
