"""Exact lower-bound certificates for grid bootstrap percolation.

The certificate assigns every grid vertex an integer vector supported on the
extremal set's basis positions, built by pushing d-r+1 coordinates at a time
down to small values and weighting each image by entries of fixed per-axis
general-position matrices.  Verified properties:

* span: the vectors have full rank (the extremal-set size), because the
  extremal vertices' own vectors form a triangular block (certified_lower_bound),
* dependency: for every edge, the vectors of its vertices, weighted by their
  edge coefficients (products of per-axis cofactor coefficients, nonzero by
  general position), sum to zero -- checked on the very vectors that the
  certificate outputs and that audits replay.

Together these imply that the span of any percolating set's vectors never
grows while replaying its infection trace, yet must end at full rank, so no
percolating set can be smaller than the extremal set.  Grid constructions and
percolation runs live in the grid and percolation modules; this module only
builds and checks the algebra and audits given sets against it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .exact import (
    EliminationBasis,
    build_general_position_matrix,
    dependency_coeffs,
    verify_general_position,
)
from .grid import (
    GridEdge,
    GridSpec,
    Vertex,
    check_family,
    decode_vertex,
    encode_vertex,
    enumerate_edges,
    extremal_set,
)
from .percolation import closure, grid_hypergraph


class CertificateError(RuntimeError):
    """Internal verification failure; the construction guarantees success, so
    this signals an implementation bug rather than a user error."""


@dataclass(frozen=True)
class CertificateContext:
    """Fixed data the certificate vectors are built from.

    ``axis_matrices[k]`` is the n_k x (t_k - 1) general-position matrix for
    axis k+1; ``u_vertices`` lists the extremal set in row-major order and
    ``u_index`` maps each of its vertices to a basis position.
    """

    spec: GridSpec
    family: str
    axis_matrices: tuple[tuple[tuple[int, ...], ...], ...]
    u_vertices: tuple[Vertex, ...]
    u_index: dict[Vertex, int]

    @property
    def u_size(self) -> int:
        return len(self.u_vertices)


def build_context(spec: GridSpec, family: str = "K") -> CertificateContext:
    """Build and sanity-check the per-axis matrices and the basis indexing."""
    check_family(family)
    matrices = tuple(build_general_position_matrix(n, t) for n, t in zip(spec.dims, spec.thick))
    for axis, (m, t) in enumerate(zip(matrices, spec.thick), start=1):
        if not verify_general_position(m, t):
            raise CertificateError(f"axis {axis} matrix failed the general-position check")
    u = tuple(extremal_set(spec))
    return CertificateContext(spec, family, matrices, u, {v: i for i, v in enumerate(u)})


def project(spec: GridSpec, v: Vertex, axes, values) -> Vertex:
    """Copy of v with coordinate axes[i] set to values[i].

    Axes are 1-based and must be distinct; the result does not depend on the
    order of the (axis, value) pairs.
    """
    axes = tuple(axes)
    values = tuple(values)
    if len(axes) != len(set(axes)):
        raise ValueError(f"duplicate axes in {axes}")
    if len(axes) != len(values):
        raise ValueError("need one value per axis")
    if len(v) != spec.d:
        raise ValueError(f"expected {spec.d} coordinates, got {len(v)}")
    out = list(v)
    for k, j in zip(axes, values):
        if not 1 <= k <= spec.d:
            raise ValueError(f"axis {k} outside [1, {spec.d}]")
        if not 1 <= j <= spec.dims[k - 1]:
            raise ValueError(f"value {j} outside [1, {spec.dims[k - 1]}] on axis {k}")
        out[k - 1] = j
    return tuple(out)


def projection_component(v: Vertex, proj_axes, ctx: CertificateContext) -> list[int]:
    """Contribution of one projected-axis set to the vertex's vector.

    ``proj_axes`` must have size d - r + 1.  For every choice of small values
    (j_1..j_p), the image of v with those axes set to those values receives
    coefficient prod_a M[axis_a][v_axis_a][j_a].  All images have at least
    d - r + 1 small coordinates, hence at most r - 1 large ones, so the
    support always lies inside the extremal basis.
    """
    spec = ctx.spec
    proj_axes = tuple(proj_axes)
    p = spec.d - spec.r + 1
    if len(proj_axes) != p:
        raise ValueError(f"expected {p} projected axes, got {len(proj_axes)}")
    vec = [0] * ctx.u_size
    rows = [ctx.axis_matrices[k - 1][v[k - 1] - 1] for k in proj_axes]
    small_ranges = [range(1, spec.thick[k - 1]) for k in proj_axes]
    base = list(v)
    for js in itertools.product(*small_ranges):
        coeff = 1
        for row, j in zip(rows, js):
            coeff *= row[j - 1]
        if coeff == 0:
            continue
        for k, j in zip(proj_axes, js):
            base[k - 1] = j
        vec[ctx.u_index[tuple(base)]] += coeff
        for k in proj_axes:
            base[k - 1] = v[k - 1]
    return vec


def certificate_vector(v: Vertex, ctx: CertificateContext) -> list[int]:
    """Sum of projection_component over every axis subset of size d - r + 1.

    Entries are nonnegative integers; for a vertex in the extremal set the
    entry at its own basis position is strictly positive (some projected-axis
    set consists of its small coordinates and fixes it).
    """
    spec = ctx.spec
    p = spec.d - spec.r + 1
    vec = [0] * ctx.u_size
    for proj_axes in itertools.combinations(range(1, spec.d + 1), p):
        for i, x in enumerate(projection_component(v, proj_axes, ctx)):
            vec[i] += x
    return vec


def edge_coefficient(edge: GridEdge, v: Vertex, ctx: CertificateContext) -> int:
    """Dependency coefficient of vertex v within the given edge.

    Product over the edge's varying axes of the cofactor dependency
    coefficient for that axis's value set, evaluated at v's value.  Nonzero
    for every vertex of the edge.
    """
    if v not in edge:
        raise ValueError(f"vertex {v} is not in the edge")
    coeff = 1
    for axis, values in zip(edge.varying, edge.values):
        lams = dependency_coeffs(ctx.axis_matrices[axis - 1], values)
        coeff *= lams[values.index(v[axis - 1])]
    return coeff


def _edge_dependency_failure(edge: GridEdge, ctx, lam_cache, vectors) -> str | None:
    """Check the summed dependency of one edge: sum_v lambda_v f(v) = 0.

    Each vertex's certificate_vector is weighted by its edge coefficient.
    Returns a description when the total is nonzero, or None when the edge
    passes.  ``lam_cache`` is keyed by (axis, values); ``vectors`` maps each
    vertex to its certificate_vector and is filled on first use.
    """
    lam_axis = []
    for axis, values in zip(edge.varying, edge.values):
        key = (axis, values)
        if key not in lam_cache:
            lam_cache[key] = dependency_coeffs(ctx.axis_matrices[axis - 1], values)
        lam_axis.append(lam_cache[key])
    total = [0] * ctx.u_size
    for v in edge.vertices():
        c = 1
        for (axis, values), lams in zip(zip(edge.varying, edge.values), lam_axis):
            c *= lams[values.index(v[axis - 1])]
        if v not in vectors:
            vectors[v] = certificate_vector(v, ctx)
        total = [a + c * x for a, x in zip(total, vectors[v])]
    if any(total):
        return f"nonzero dependency sum for edge {edge}"
    return None


@dataclass(frozen=True)
class Certificate:
    """Verified certificate: context, verification flags and lower bound;
    ``f_vectors`` (row-major by vertex id) is built on first use."""

    context: CertificateContext
    verified_span: bool
    verified_dependencies: bool
    lower_bound: int

    @cached_property
    def f_vectors(self) -> tuple[tuple[int, ...], ...]:
        spec = self.context.spec
        return tuple(
            tuple(certificate_vector(decode_vertex(spec, i), self.context))
            for i in range(spec.num_vertices)
        )

    def vector_for(self, v: Vertex) -> tuple[int, ...]:
        return self.f_vectors[encode_vertex(self.context.spec, v)]


def certified_lower_bound(spec: GridSpec, family: str = "K") -> Certificate:
    """Build the certificate and verify it exactly.

    Span: each extremal vertex u has a positive entry at u and its other
    nonzero entries at extremal vertices of smaller coordinate sum, since
    every image of u lies at or below u (small coordinates stay, large ones
    drop to at most t_k - 1) and is u itself for the C(#small(u), d-r+1) >= 1
    axis sets inside small(u), all weights being nonnegative.  The |U| x |U|
    block is thus triangular with a positive diagonal, of rank |U|.
    Dependency: for every edge, the certificate vectors of its vertices,
    weighted by their nonzero edge coefficients, must sum to zero.  The
    vectors are computed once per vertex; those of U are shared between the
    span check and the edges.  The sums run over the "K" edges, which contain
    the "P" edges, so one verification covers both families.  Any failure
    raises CertificateError; on success the lower bound equals the
    extremal-set size.
    """
    ctx = build_context(spec, family)
    vectors: dict = {}
    sums = [sum(u) for u in ctx.u_vertices]
    for own, (u, s) in enumerate(zip(ctx.u_vertices, sums)):
        vec = vectors[u] = certificate_vector(u, ctx)
        if vec[own] <= 0 or any(x and sums[i] >= s and i != own for i, x in enumerate(vec)):
            raise CertificateError(f"span deficit: the vector of {u} is not triangular")

    lam_cache: dict = {}
    for edge in enumerate_edges(spec, "K"):
        failure = _edge_dependency_failure(edge, ctx, lam_cache, vectors)
        if failure is not None:
            raise CertificateError(failure)

    return Certificate(
        context=ctx,
        verified_span=True,
        verified_dependencies=True,
        lower_bound=ctx.u_size,
    )


@dataclass(frozen=True)
class AuditReport:
    """Outcome of auditing a candidate set against a verified certificate.

    Failures are report contents, never exceptions.  When the set percolates,
    ``steps_in_span[i]`` records whether the i-th traced infection's vector
    was already in the span of the seed vectors plus earlier steps (it always
    is for a valid certificate), and ``seed_rank`` is the rank of the set's
    own vectors, which then necessarily equals the full basis size.
    """

    percolated: bool
    initial_size: int
    seed_rank: int
    u_size: int
    steps_in_span: tuple[bool, ...]

    @property
    def all_steps_in_span(self) -> bool:
        return all(self.steps_in_span)

    @property
    def ok(self) -> bool:
        return self.percolated and self.all_steps_in_span and self.seed_rank == self.u_size


def audit_percolating_set(cert: Certificate, initial, family: str | None = None) -> AuditReport:
    """Replay a closure run from ``initial`` through the certificate algebra.

    ``initial`` is an iterable of vertex coordinate tuples; ``family``
    defaults to the certificate's.  The closure runs on that family's
    hypergraph; if it percolates, the trace is walked in order, asserting that
    no step's vector enlarges the span of what came before.
    """
    ctx = cert.context
    spec = ctx.spec
    fam = check_family(family) if family is not None else ctx.family
    ids = sorted({encode_vertex(spec, tuple(v)) for v in initial})

    result = closure(grid_hypergraph(spec, fam), ids)
    percolated = len(result.final) == spec.num_vertices

    basis = EliminationBasis(ctx.u_size)
    for a in ids:
        basis.insert(cert.f_vectors[a])
    seed_rank = basis.rank

    steps = []
    if percolated:
        for v, _edge in result.trace:
            grew = basis.insert(cert.f_vectors[v])
            steps.append(not grew)
    return AuditReport(
        percolated=percolated,
        initial_size=len(ids),
        seed_rank=seed_rank,
        u_size=ctx.u_size,
        steps_in_span=tuple(steps),
    )


def certificate_to_dict(cert: Certificate, include_f_vectors: bool = False) -> dict:
    """JSON-ready form of a certificate.

    Vector entries are serialized as decimal integer strings; with the fixed
    matrix rule and enumeration order the output is byte-reproducible.
    """
    ctx = cert.context
    out = {
        "spec": {"dims": list(ctx.spec.dims), "thick": list(ctx.spec.thick), "r": ctx.spec.r},
        "family": ctx.family,
        "axisMatrices": [[list(row) for row in m] for m in ctx.axis_matrices],
        "lowerBound": cert.lower_bound,
        "verifiedSpan": cert.verified_span,
        "verifiedDependencies": cert.verified_dependencies,
        "uSize": ctx.u_size,
    }
    if include_f_vectors:
        out["fVectors"] = [[str(x) for x in row] for row in cert.f_vectors]
    return out
