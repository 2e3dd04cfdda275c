"""Exact lower-bound certificates for grid bootstrap percolation.

The certificate assigns every grid vertex an integer vector supported on the
extremal set's basis positions, built by pushing d-r+1 coordinates at a time
down to small values and weighting each image by entries of fixed per-axis
general-position matrices.  Each vector is computed once, into the table that
is checked, output and replayed by audits.  Verified properties:

* span: the vectors have full rank (the extremal-set size), because each
  extremal vertex's own vector is positive at its basis position and zero
  after it, in row-major order (certified_lower_bound),
* general position: every (t_k - 1)-row minor of each axis matrix is
  nonzero (build_context),
* dependency: for every edge of the family the caller names, the vectors of
  its vertices, weighted by their edge coefficients, sum to zero.  Either
  family's check covers both: every "P" edge is a "K" edge, and the "P" sums
  imply the "K" sums by the interval lemma (certified_lower_bound).  A
  vertex's edge coefficient is the product over the edge's varying axes of its
  value's cofactor coefficient, nonzero by general position; the walk computes
  these only for the value sets its family uses.  The edge loop reads each
  edge's value sets and vertex ids from the one grid edge walk and looks the
  vectors up in the id-ordered table by id.

Together these imply that the span of any percolating set's vectors never
grows while replaying its infection trace, yet must end at full rank, so no
percolating set can be smaller than the extremal set.  Grid constructions and
percolation runs live in the grid and percolation modules; this module only
builds and checks the algebra and audits given sets against it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .exact import (
    EliminationBasis,
    build_general_position_matrix,
    dependency_coeffs,
    verify_general_position,
)
from .grid import (
    GridSpec,
    Vertex,
    axis_value_sets,
    check_family,
    encode_vertex,
    enumerate_edges,
    extremal_set,
    vertices,
)
from .percolation import Hypergraph, closure, grid_hypergraph


class CertificateError(RuntimeError):
    """Internal verification failure; the construction guarantees success, so
    this signals an implementation bug rather than a user error."""


# The most entries the |V| x |U| vector table may hold.  Just under it,
# certify --d 3 --n 25 --t 4 --r 2 --family P (9.7 million entries) took
# 19.5 s with a 96 MiB peak (Python 3.11, 2 shared cores).
MAX_TABLE_ENTRIES = 10**7


class CertificateTooLarge(RuntimeError):
    """The spec's vector table would exceed MAX_TABLE_ENTRIES entries."""


@dataclass(frozen=True)
class CertificateContext:
    """Fixed data the certificate vectors are built from; it depends on the
    spec only, not on the edge family.

    ``axis_matrices[k]`` is the n_k x (t_k - 1) general-position matrix for
    axis k+1; ``u_vertices`` lists the extremal set in row-major order and
    ``u_index`` maps each of its vertices to a basis position.
    """

    spec: GridSpec
    axis_matrices: tuple[tuple[tuple[int, ...], ...], ...]
    u_vertices: tuple[Vertex, ...]
    u_index: dict[Vertex, int]

    @property
    def u_size(self) -> int:
        return len(self.u_vertices)


def build_context(spec: GridSpec) -> CertificateContext:
    """Build the per-axis matrices and the basis indexing.

    The matrix depends on the axis shape (n_k, t_k) only, so each distinct
    shape's matrix is built and checked with verify_general_position,
    C(n_k, t_k - 1) minors, once, at its first axis; a zero minor raises
    CertificateError naming that axis.
    """
    shapes = {}
    for axis, (n, t) in enumerate(zip(spec.dims, spec.thick), start=1):
        if (n, t) not in shapes:
            m = shapes[n, t] = build_general_position_matrix(n, t)
            if not verify_general_position(m, t):
                raise CertificateError(f"axis {axis} matrix is not in general position")
    matrices = tuple(shapes[shape] for shape in zip(spec.dims, spec.thick))
    u = tuple(extremal_set(spec))
    return CertificateContext(spec, matrices, u, {v: i for i, v in enumerate(u)})


def projection_component(v: Vertex, proj_axes, ctx: CertificateContext) -> list[int]:
    """Contribution of one projected-axis set to the vertex's vector.

    ``proj_axes`` must be d - r + 1 distinct axes in [1, d], or ValueError is
    raised.  For every choice of small values (j_1..j_p), the image of v with
    those axes set to those values receives coefficient
    prod_a M[axis_a][v_axis_a][j_a].  All images have at least
    d - r + 1 small coordinates, hence at most r - 1 large ones, so the
    support always lies inside the extremal basis.
    """
    spec = ctx.spec
    proj_axes = tuple(proj_axes)
    p = spec.d - spec.r + 1
    axes = set(proj_axes)
    if len(proj_axes) != p or len(axes) != p or not axes <= set(range(1, spec.d + 1)):
        raise ValueError(f"expected {p} distinct projected axes in [1, {spec.d}], got {proj_axes}")
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


@dataclass(frozen=True)
class Certificate:
    """Verified certificate: its context and ``f_vectors``, the checked
    vector table (row-major by vertex id) that outputs and audits read.  Both
    depend on the spec only, so the certificate records no family.

    The first audit that closes on a family builds that family's grid
    hypergraph and the certificate keeps it, so later audits closing on the
    family reuse it; a build is freed with its certificate, and a
    ``dataclasses.replace`` copy starts without one.  An audit whose seeds
    reach full rank closes on "P" first (see audit_percolating_set), so a
    "K" audit of the extremal set builds "P" only.  Measured with
    ``tracemalloc``, the K build of 6^3/t=3/r=2 (7,200 edges) holds about
    1.5 MiB, and the K and P builds of 6^3/t=3/r=2 and 4^4/t=2/r=3 together
    hold 2.35 MiB.
    """

    context: CertificateContext
    f_vectors: tuple[tuple[int, ...], ...] = field(repr=False)
    _hypergraphs: dict[str, Hypergraph] = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def lower_bound(self) -> int:
        return self.context.u_size


def certified_lower_bound(spec: GridSpec, family: str) -> Certificate:
    """Build the certificate and verify it exactly.

    Every vertex's certificate_vector is computed once, into the table that
    both checks read and the certificate keeps.
    Span: the row of each extremal vertex u, at index ``own`` of the
    row-major U, must be positive at ``own`` and zero after it.  It is,
    because every image of u lies coordinatewise at or below u (small
    coordinates stay, since the first t_k - 1 rows of M_k are the identity,
    and large ones drop below t_k), hence at or before u in row-major order,
    and is u itself with weight 1 for the C(#small(u), d-r+1) >= 1 axis sets
    inside small(u), all weights being nonnegative.  The |U| x |U| block is
    thus lower triangular with a positive diagonal, of rank |U|.
    Dependency: for every edge, the vectors of its vertices, weighted by their
    edge coefficients (products of per-axis dependency_coeffs, computed once
    for each of the family's value sets on each distinct axis shape
    (n_k, t_k), whose axes share one matrix), must sum to zero.  An edge's
    ids are in row-major order, which is the order of the product of its
    value sets' coefficients.  The sums run over the edges of ``family``; the certificate
    returned is the same for either.  Either walk covers both families: a "P"
    edge is a "K" edge, and the "P" sums imply the "K" sums by the interval
    lemma.  On axis k, the coefficients lambda_A of a t_k-set A of values
    combine the rows of M_k listed in A to zero; as vectors indexed by value
    they lie in the left null space of M_k, of dimension n_k - t_k + 1 since
    M_k has rank t_k - 1 (build_context checks its minors).  The n_k - t_k + 1
    intervals {a, ..., a + t_k - 1} give independent vectors, each with its
    last nonzero entry at its own value a + t_k - 1, so they span that space
    and every lambda_A is a rational combination of interval vectors.  An
    edge's sum is multilinear in its varying axes' lambda vectors, so every
    "K" edge's sum is a combination of the sums of the "P" edges with the same
    varying axes and fixed values.  Any failure raises CertificateError; on
    success the lower bound equals the extremal-set size.  A spec whose table
    would hold more than MAX_TABLE_ENTRIES entries raises CertificateTooLarge
    before any row is built.
    """
    check_family(family)
    ctx = build_context(spec)
    entries = spec.num_vertices * ctx.u_size
    if entries > MAX_TABLE_ENTRIES:
        raise CertificateTooLarge(
            f"the certificate table would hold {spec.num_vertices} x {ctx.u_size} = {entries} entries,"
            f" over the limit of {MAX_TABLE_ENTRIES}"
        )
    tables = {}
    for m, n, t in zip(ctx.axis_matrices, spec.dims, spec.thick):
        if (n, t) not in tables:
            tables[n, t] = {vals: dependency_coeffs(m, vals) for vals in axis_value_sets(n, t, family)}
    coeffs = [tables[shape] for shape in zip(spec.dims, spec.thick)]
    rows = [tuple(certificate_vector(v, ctx)) for v in vertices(spec)]  # in vertex-id order
    for own, u in enumerate(ctx.u_vertices):
        vec = rows[encode_vertex(spec, u)]
        if vec[own] <= 0 or any(vec[own + 1 :]):
            raise CertificateError(f"span deficit: the vector of {u} is not triangular")

    for varying, values, fixed, ids in enumerate_edges(spec, family):
        lams = [coeffs[axis - 1][vals] for axis, vals in zip(varying, values)]
        total = [0] * ctx.u_size
        for i, cs in zip(ids, itertools.product(*lams)):
            c = math.prod(cs)
            total = [a + c * x for a, x in zip(total, rows[i])]
        if any(total):
            raise CertificateError(f"nonzero dependency sum for edge {(varying, values, fixed)}")

    return Certificate(ctx, tuple(rows))


@dataclass(frozen=True, slots=True)
class AuditReport:
    """Outcome of auditing a candidate set against a verified certificate.

    Failures are report contents, never exceptions.  When the set percolates,
    ``num_steps`` counts its traced infections and ``steps_out_of_span`` lists,
    ascending, the indices of those whose vector was not already in the span
    of the seed vectors plus earlier steps (none, for a valid certificate);
    a set that does not percolate has no steps.  ``seed_rank`` is the rank of
    the set's own vectors, which for a percolating set of a valid certificate
    equals the full basis size.  ``steps_in_span``, one bool per step, is
    derived from these two fields.
    """

    percolated: bool
    initial_size: int
    seed_rank: int
    u_size: int
    num_steps: int
    steps_out_of_span: tuple[int, ...]

    @property
    def steps_in_span(self) -> tuple[bool, ...]:
        out = set(self.steps_out_of_span)
        return tuple(i not in out for i in range(self.num_steps))

    @property
    def all_steps_in_span(self) -> bool:
        return not self.steps_out_of_span

    @property
    def ok(self) -> bool:
        return self.percolated and self.all_steps_in_span and self.seed_rank == self.u_size


def audit_percolating_set(cert: Certificate, initial, family: str) -> AuditReport:
    """Replay a closure run from ``initial`` through the certificate algebra.

    ``initial`` is an iterable of vertex coordinate tuples.  The seeds'
    vectors enter the basis before any closure runs.  Below full rank
    (u_size), the closure runs on the hypergraph of the caller's ``family``;
    if it percolates, the trace is walked in order, recording every step
    whose vector enlarges the span of what came before.

    At full rank the closure runs on the "P" hypergraph, and on the "K" one
    only when the caller's ``family`` is "K" and the set does not percolate
    on "P".  The report is that of a closure on ``family``: every "P" edge is
    a "K" edge, so a set that percolates on "P" percolates on "K"; a closure
    that percolates has |V| - |seeds| steps on either family; and at full
    rank no trace step is inserted, since each is in span, so no step is out
    of span on either family.  So a "K" audit of the extremal set, or of any
    superset, builds only the "P" hypergraph, which has n_k - t_k + 1 value
    sets per varying axis where "K" has C(n_k, t_k).

    Every vector enters the basis with its entries reversed, and the seeds
    enter extremal vertices first, then the others, ids descending within
    each group.  certified_lower_bound checks that an extremal vertex u's
    row is positive at u's own position and zero after it in row-major
    order.  Reversed, its first nonzero entry is its own diagonal, and it is
    zero at every earlier pivot, which belongs to a larger id: a verified
    certificate's extremal seeds meet only zero multipliers and enter without
    elimination, and a superset of the extremal set is at full rank after
    u_size inserts.  A damaged table still goes through full elimination.
    Once the rank reaches u_size, which it cannot exceed, no later seed or
    trace step is inserted: each would be in span.  Rank and span membership
    do not change under a fixed column permutation or another seed order,
    and the trace steps still follow all seeds, so the report is that of a
    plain id-order replay.

    The certificate keeps each family's hypergraph after the first audit
    that closes on that family (about 1.5 MiB for the K build of
    6^3/t=3/r=2, see Certificate); closure only reads it, so a report does
    not depend on which audits ran before it.  A build over
    MAX_HYPERGRAPH_EDGES edges raises HypergraphTooLarge before any edge is
    built.
    """
    ctx = cert.context
    spec = ctx.spec
    check_family(family)
    seeds = {encode_vertex(spec, v): v for v in map(tuple, initial)}
    ids = sorted(seeds)

    full = ctx.u_size
    basis = EliminationBasis(full)
    for a in sorted(reversed(ids), key=lambda a: seeds[a] not in ctx.u_index):
        if basis.rank == full:
            break
        basis.insert(cert.f_vectors[a][::-1])
    seed_rank = basis.rank

    for closed_on in dict.fromkeys(("P", family) if seed_rank == full else (family,)):
        hypergraph = cert._hypergraphs.get(closed_on)
        if hypergraph is None:
            hypergraph = cert._hypergraphs[closed_on] = grid_hypergraph(spec, closed_on)
        result = closure(hypergraph, ids)
        percolated = len(result.final) == spec.num_vertices
        if percolated:
            break

    trace = result.trace if percolated else ()
    grew = tuple(
        i for i, (v, _edge) in enumerate(trace) if basis.rank < full and basis.insert(cert.f_vectors[v][::-1])
    )
    return AuditReport(
        percolated=percolated,
        initial_size=len(ids),
        seed_rank=seed_rank,
        u_size=full,
        num_steps=len(trace),
        steps_out_of_span=grew,
    )


def certificate_to_dict(cert: Certificate, family: str, include_f_vectors: bool = False) -> dict:
    """JSON-ready form of a certificate, labelled with the caller's ``family``.

    Vector entries are serialized as decimal integer strings; with the fixed
    matrix rule and enumeration order the output is byte-reproducible.
    """
    ctx = cert.context
    out = {
        "spec": {"dims": list(ctx.spec.dims), "thick": list(ctx.spec.thick), "r": ctx.spec.r},
        "family": check_family(family),
        "axisMatrices": [[list(row) for row in m] for m in ctx.axis_matrices],
        "lowerBound": cert.lower_bound,
        "verifiedSpan": True,
        "verifiedDependencies": True,
        "uSize": ctx.u_size,
    }
    if include_f_vectors:
        out["fVectors"] = [[str(x) for x in row] for row in cert.f_vectors]
    return out
