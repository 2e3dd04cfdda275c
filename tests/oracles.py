"""Plain reference versions of the library's fast kernels, and helpers only
tests need.

Each reference is the straightforward form of a kernel the library
optimizes or builds another way, kept here so tests can require the library
to give exactly the same results; the per-"K"-edge dependency check is the
reference for the certificate's "P" walk, and the filter over every vertex is
the reference for the extremal set built from its large-axis sets.  The
helpers (coordinate projection, per-vertex edge coefficients, the hypergraph
text writer, span membership and the extremal set's infection schedule) have
no caller in the library.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import deque

from gridperc.exact import dependency_coeffs
from gridperc.grid import decode_vertex, encode_vertex, enumerate_edges, row_major_strides, vertices
from gridperc.percolation import ClosureResult, Hypergraph


class ReferenceBasis:
    """Incremental Bareiss echelon that carries out every reduction step.

    Row k is applied as v <- (p_k*v - v[c_k]*row_k) // p_{k-1} even when
    v[c_k] == 0, so each intermediate vector is materialized.
    EliminationBasis must store the same rows and pivot columns.
    """

    def __init__(self, ncols: int) -> None:
        self.ncols = ncols
        self._pivot_cols: list[int] = []
        self._rows: list[list[int]] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, vector) -> list[int]:
        v = list(vector)
        if not all(isinstance(x, int) for x in v):
            raise TypeError(f"entries must be int, got {vector!r}")
        if len(v) != self.ncols:
            raise ValueError(f"expected {self.ncols} entries, got {len(v)}")
        if self.rank == self.ncols:
            return [0] * self.ncols
        prev = 1
        for col, row in zip(self._pivot_cols, self._rows):
            pivot, c = row[col], v[col]
            v = [(pivot * x - c * y) // prev for x, y in zip(v, row)]
            prev = pivot
        return v

    def insert(self, vector) -> bool:
        v = self._reduce(vector)
        lead = next((j for j, x in enumerate(v) if x), None)
        if lead is None:
            return False
        self._pivot_cols.append(lead)
        self._rows.append(v)
        return True


def reference_closure(h, initial) -> ClosureResult:
    """Bootstrap closure whose initial counts scan every vertex of every edge.

    Same processing order as percolation.closure, so the same trace.
    """
    infected = bytearray(h.num_vertices)
    init = []
    for v in initial:
        v = operator.index(v)
        if not 0 <= v < h.num_vertices:
            raise ValueError(f"vertex {v} outside [0, {h.num_vertices})")
        if not infected[v]:
            infected[v] = 1
            init.append(v)

    remaining = [sum(1 for v in e if not infected[v]) for e in h.edges]
    trace: list[tuple[int, int]] = []
    queue: deque[int] = deque()

    def try_fire(e_idx: int) -> None:
        # remaining[e_idx] just reached 1; the edge fires unless its last
        # uninfected vertex was already infected elsewhere (pending decrement).
        for w in h.edges[e_idx]:
            if not infected[w]:
                infected[w] = 1
                trace.append((w, e_idx))
                queue.append(w)
                return

    for e_idx, count in enumerate(remaining):
        if count == 1:
            try_fire(e_idx)
    while queue:
        u = queue.popleft()
        for e_idx in h.incident[u]:
            remaining[e_idx] -= 1
            if remaining[e_idx] == 1:
                try_fire(e_idx)

    final = frozenset(i for i, flag in enumerate(infected) if flag)
    return ClosureResult(frozenset(init), final, tuple(trace))


def reference_neighbours(h) -> list[tuple[int, ...]]:
    """Each vertex's sorted neighbours in h read as a simple graph, by a scan
    of every pair: w is a neighbour of v iff {v, w} is an edge."""
    edges = set(h.edges)
    return [
        tuple(w for w in range(h.num_vertices) if (min(v, w), max(v, w)) in edges) for v in range(h.num_vertices)
    ]


def reference_r_neighbour_closure(neighbours, initial, r) -> set[int]:
    """Closure of the r-neighbour process on the simple graph whose vertex v
    has the neighbours ``neighbours[v]`` (as reference_neighbours gives
    them): passes over every vertex infect each one with at least r infected
    neighbours, until a pass infects none."""
    infected = set(initial)
    grew = True
    while grew:
        grew = False
        for v, ns in enumerate(neighbours):
            if v not in infected and len(infected.intersection(ns)) >= r:
                infected.add(v)
                grew = True
    return infected


def reference_grid_graph(dims) -> Hypergraph:
    """Grid graph on [n_1] x ... x [n_d] built by a coordinate loop: each
    vertex links to the next one along every axis, one stride further."""
    strides = row_major_strides(dims)
    edges = []
    for coords in itertools.product(*(range(1, n + 1) for n in dims)):
        vid = sum((x - 1) * s for x, s in zip(coords, strides))
        for x, n, s in zip(coords, dims, strides):
            if x < n:
                edges.append((vid, vid + s))
    return Hypergraph(math.prod(dims), edges)


def reference_hypercube_graph(d) -> Hypergraph:
    """d-cube on ids 0..2^d - 1, each id linked to every id one bit flip away."""
    edges = [(b, b | (1 << i)) for b in range(1 << d) for i in range(d) if not b & (1 << i)]
    return Hypergraph(1 << d, edges)


def reference_keeps_adjacency(g, image) -> bool:
    """True iff the permutation ``image`` of g's ids sends each vertex's
    neighbours to the neighbours of its image."""
    adj = reference_neighbours(g)
    return all(tuple(sorted(image[w] for w in ws)) == adj[image[u]] for u, ws in enumerate(adj))


def in_span(basis, vector) -> bool:
    """Membership test against an EliminationBasis without mutating it."""
    return not any(basis._reduce(vector))


def project(spec, v, axes, values):
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


def edge_coefficient(edge, v, ctx) -> int:
    """Dependency coefficient of vertex v within an edge of enumerate_edges.

    Product over the edge's varying axes of the cofactor dependency
    coefficient for that axis's value set, evaluated at v's value and
    computed afresh from the context's matrices.  Nonzero for every vertex
    of the edge.
    """
    varying, values, _fixed, ids = edge
    if encode_vertex(ctx.spec, v) not in ids:
        raise ValueError(f"vertex {v} is not in the edge")
    coeff = 1
    for axis, vals in zip(varying, values):
        lams = dependency_coeffs(ctx.axis_matrices[axis - 1], vals)
        coeff *= lams[vals.index(v[axis - 1])]
    return coeff


def reference_dependency_failure(ctx, rows):
    """First "K" edge whose vectors, weighted by their edge coefficients, do
    not sum to zero, or None.

    ``rows`` is a vector table in vertex-id order.  This is the walk over
    every "K" edge that the certificate's "P" walk must agree with, by the
    interval lemma in certified_lower_bound.  Each edge's coefficients come
    from dependency_coeffs on the context's matrices, not from a library
    table.
    """
    for edge in enumerate_edges(ctx.spec, "K"):
        varying, values, _fixed, ids = edge
        lams = [dependency_coeffs(ctx.axis_matrices[axis - 1], vals) for axis, vals in zip(varying, values)]
        total = [0] * ctx.u_size
        for i, cs in zip(ids, itertools.product(*lams)):
            c = math.prod(cs)
            total = [a + c * x for a, x in zip(total, rows[i])]
        if any(total):
            return edge
    return None


def format_hypergraph(h) -> str:
    """Text form read by parse_hypergraph: header ``p <num_vertices>
    <num_edges>``, then one line of space-separated 0-based ids per edge."""
    lines = [f"p {h.num_vertices} {len(h.edges)}"]
    lines.extend(" ".join(map(str, e)) for e in h.edges)
    return "\n".join(lines) + "\n"


def reference_extremal_set(spec):
    """The extremal set by its definition: every vertex, in row-major order,
    with at most r - 1 coordinates at or above their axis thickness."""
    return [v for v in vertices(spec) if sum(x >= t for x, t in zip(v, spec.thick)) <= spec.r - 1]


def extremal_schedule_failure(spec):
    """First vertex outside the extremal set that its schedule edge fails to
    infect, or None.

    This checks the proof in the extremal_set docstring on one spec.  A
    vertex v with at least r large coordinates gets the edge that varies its
    first r large axes, axis k over {v_k - t_k + 1, ..., v_k}, and fixes the
    other axes at v's values.  That edge must be a "P" edge of
    enumerate_edges holding v, and each of its other vertices must have a
    smaller coordinate sum than v.
    """
    p_edges = {edge[:3]: edge[3] for edge in enumerate_edges(spec, "P")}
    for v in vertices(spec):
        large = [k for k in range(1, spec.d + 1) if v[k - 1] >= spec.thick[k - 1]]
        if len(large) < spec.r:
            continue
        varying = tuple(large[: spec.r])
        values = tuple(tuple(range(v[k - 1] - spec.thick[k - 1] + 1, v[k - 1] + 1)) for k in varying)
        fixed = tuple(x for k, x in enumerate(v, start=1) if k not in varying)
        ids = p_edges.get((varying, values, fixed), ())
        own = encode_vertex(spec, v)
        if own not in ids or any(sum(decode_vertex(spec, i)) >= sum(v) for i in ids if i != own):
            return v
    return None
