"""Bootstrap percolation on grid hypergraphs with exact algebraic certificates.

Library layout:

* ``grid`` -- grid specs, the row-major vertex codec (the only module that
  knows the id layout), the one edge walk of the "K"/"P" families, yielding
  each edge's value sets and vertex ids as a plain tuple, and the extremal
  set with its closed-form size,
* ``percolation`` -- generic hypergraph bootstrap closure with traces, plus
  hypergraph builders, the edge validator for outside input and the
  text-format reader,
* ``exact`` -- integer-only linear algebra: general-position matrices,
  dependency coefficients, and one fraction-free elimination kernel behind
  ``det``, ``matrix_rank`` and the incremental ``EliminationBasis``,
* ``certificate`` -- construction, verification (span from the triangular
  extremal rows) and auditing of the exact lower-bound certificate,
* ``search`` -- independent brute-force oracles and the r-neighbour process,
* ``cli`` -- the ``gridperc`` command-line driver.
"""

from .certificate import (
    AuditReport,
    Certificate,
    CertificateContext,
    CertificateError,
    CertificateTooLarge,
    audit_percolating_set,
    build_context,
    certificate_to_dict,
    certificate_vector,
    certified_lower_bound,
    projection_component,
)
from .exact import (
    EliminationBasis,
    build_general_position_matrix,
    dependency_coeffs,
    det,
    verify_general_position,
)
from .grid import (
    FAMILIES,
    GridSpec,
    count_edges,
    decode_vertex,
    encode_vertex,
    enumerate_edges,
    extremal_set,
    extremal_size,
    vertices,
)
from .percolation import (
    ClosureResult,
    Hypergraph,
    HypergraphTooLarge,
    canonical_edges,
    closure,
    grid_hypergraph,
    parse_hypergraph,
    read_hypergraph,
    weak_saturation_hypergraph,
)
from .search import (
    DEFAULT_BUDGET,
    Graph,
    SearchBudgetExceeded,
    SearchResult,
    greedy_r_neighbour_upper_bound,
    grid_graph,
    hypercube_graph,
    min_percolating_exact,
    min_r_neighbour_percolating,
    r_neighbour_closure,
)

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "Certificate",
    "CertificateContext",
    "CertificateError",
    "CertificateTooLarge",
    "ClosureResult",
    "DEFAULT_BUDGET",
    "EliminationBasis",
    "FAMILIES",
    "Graph",
    "GridSpec",
    "Hypergraph",
    "HypergraphTooLarge",
    "SearchBudgetExceeded",
    "SearchResult",
    "audit_percolating_set",
    "build_context",
    "build_general_position_matrix",
    "canonical_edges",
    "certificate_to_dict",
    "certificate_vector",
    "certified_lower_bound",
    "closure",
    "count_edges",
    "decode_vertex",
    "dependency_coeffs",
    "det",
    "encode_vertex",
    "enumerate_edges",
    "extremal_set",
    "extremal_size",
    "greedy_r_neighbour_upper_bound",
    "grid_graph",
    "grid_hypergraph",
    "hypercube_graph",
    "min_percolating_exact",
    "min_r_neighbour_percolating",
    "parse_hypergraph",
    "projection_component",
    "r_neighbour_closure",
    "read_hypergraph",
    "verify_general_position",
    "vertices",
    "weak_saturation_hypergraph",
]
