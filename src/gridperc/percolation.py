"""Hypergraph bootstrap closure.

A vertex becomes infected when some hyperedge has that vertex as its only
uninfected member.  The closure is the unique fixed point of this monotone
rule; the order in which firings are processed never changes the result,
only the recorded trace.  ``Hypergraph`` trusts its edges to be canonical;
outside edge lists, such as the text format's, pass ``canonical_edges`` first.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .grid import GridSpec, count_edges, enumerate_edges

# The most edges a grid family may have for grid_hypergraph to build it or
# for ``edges --list`` to list it.  P 60^3/t=5/r=2 (564,480 edges) is under
# it, and building and closing it peaked at 922 MiB; the K 10^3/t=4/r=2 build
# (1,323,000 edges) took 1,140 MiB (Python 3.11, 2 shared cores).
MAX_HYPERGRAPH_EDGES = 10**6


class Hypergraph:
    """Immutable vertex count plus hyperedge list, with a vertex->edge index.

    Edges must be canonical, each a sorted tuple of distinct 0-based ids in
    ``[0, num_vertices)``; the constructor trusts this unchecked.  The edge
    order given at construction is preserved and is the order used for trace
    witness indices.  Edges of size 1 are allowed: their vertex is infected
    unconditionally once processing starts.
    """

    __slots__ = ("num_vertices", "edges", "incident")

    def __init__(self, num_vertices: int, edges) -> None:
        self.num_vertices = num_vertices
        self.edges = tuple(edges)
        incident = [[] for _ in range(num_vertices)]
        for i, e in enumerate(self.edges):
            for v in e:
                incident[v].append(i)
        self.incident = tuple(map(tuple, incident))

    def __repr__(self) -> str:
        return f"Hypergraph(num_vertices={self.num_vertices}, num_edges={len(self.edges)})"


def canonical_edges(num_vertices: int, edges) -> list[tuple[int, ...]]:
    """Bring an outside edge list to ``Hypergraph``'s canonical form: sort and
    de-duplicate each edge's ids, and raise ValueError on a negative vertex
    count, an empty edge or an id outside ``[0, num_vertices)``."""
    if num_vertices < 0:
        raise ValueError(f"negative vertex count {num_vertices}")
    canon = []
    for e in edges:
        vs = sorted(set(e))
        if not vs:
            raise ValueError("empty hyperedge")
        if vs[0] < 0 or vs[-1] >= num_vertices:
            raise ValueError(f"edge {vs} has a vertex outside [0, {num_vertices})")
        canon.append(tuple(vs))
    return canon


@dataclass(frozen=True)
class ClosureResult:
    """Final infected set plus the infection order with witness edges.

    ``trace[i] = (v, e)`` means v was the only uninfected vertex of edge e at
    step i; every other vertex of e lies in the initial set or in earlier
    trace entries.
    """

    initial: frozenset[int]
    final: frozenset[int]
    trace: tuple[tuple[int, int], ...]


def closure(h: Hypergraph, initial) -> ClosureResult:
    """Run the bootstrap process from ``initial`` to its fixed point.

    Counter-based: each edge keeps its number of uninfected vertices and is
    examined once per infected member, so the total work is linear in the sum
    of edge sizes.  The counts start at the edge sizes and lose one along the
    incidences of each distinct initial vertex.  The trace is the work list,
    read by index.  The edges whose count reaches 1, in the initial scan or
    at one vertex, fire after it in ascending edge index, each infecting its
    first uninfected vertex if one is left; firing changes no count, so the
    trace is that of firing at once.  Processing stops once every vertex is
    infected: no edge can then fire, so the final set and the trace are those
    of the full run, and no incidence of an unprocessed vertex is read.
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

    remaining = [len(e) for e in h.edges]
    for v in init:
        for e_idx in h.incident[v]:
            remaining[e_idx] -= 1
    ready = [e_idx for e_idx, count in enumerate(remaining) if count == 1]
    trace: list[tuple[int, int]] = []
    uninfected = h.num_vertices - len(init)
    done = 0
    while True:
        for e_idx in ready:
            for w in h.edges[e_idx]:
                if not infected[w]:
                    infected[w] = 1
                    trace.append((w, e_idx))
                    break
        if not done < len(trace) < uninfected:
            break
        ready = []
        for e_idx in h.incident[trace[done][0]]:
            remaining[e_idx] -= 1
            if remaining[e_idx] == 1:
                ready.append(e_idx)
        done += 1

    final = frozenset(i for i, flag in enumerate(infected) if flag)
    return ClosureResult(frozenset(init), final, tuple(trace))


def percolates(h: Hypergraph, initial) -> bool:
    """True iff the closure of ``initial`` is the whole vertex set."""
    return len(closure(h, initial).final) == h.num_vertices


class HypergraphTooLarge(RuntimeError):
    """A grid family has more than MAX_HYPERGRAPH_EDGES edges."""


def check_edge_count(count: int, family: str) -> None:
    """Raise HypergraphTooLarge if ``count`` edges of ``family`` are more
    than MAX_HYPERGRAPH_EDGES."""
    if count > MAX_HYPERGRAPH_EDGES:
        raise HypergraphTooLarge(
            f"the {family} family has {count} edges, over the limit of {MAX_HYPERGRAPH_EDGES}"
        )


def grid_hypergraph(spec: GridSpec, family: str) -> Hypergraph:
    """Materialize a grid family as an explicit hypergraph.

    Edges and their order are those of enumerate_edges, whose ids come from
    the grid codec's row-major strides, so only the grid module knows the id
    layout; they are sorted and in range, so they go in unchecked.  The
    closed-form count_edges is checked first: a family over
    MAX_HYPERGRAPH_EDGES edges raises HypergraphTooLarge before any edge is
    built.
    """
    check_edge_count(count_edges(spec, family), family)
    return Hypergraph(spec.num_vertices, (edge[3] for edge in enumerate_edges(spec, family)))


def weak_saturation_hypergraph(n: int, k: int) -> Hypergraph:
    """Edge-infection instance on the complete graph with n vertices.

    Hypergraph vertices are the C(n,2) graph edges (pairs in lexicographic
    order); there is one hyperedge per k-clique, holding that clique's C(k,2)
    pair ids, increasing since both the pairs of a clique and the ids are
    lexicographic.  A set of graph edges percolates iff the missing edges can
    be added one at a time, each completing a k-clique.
    """
    if k < 2 or n < k:
        raise ValueError(f"need n >= k >= 2, got n={n}, k={k}")
    pair_id = {p: i for i, p in enumerate(itertools.combinations(range(n), 2))}
    hyperedges = [
        tuple([pair_id[p] for p in itertools.combinations(clique, 2)])
        for clique in itertools.combinations(range(n), k)
    ]
    return Hypergraph(len(pair_id), hyperedges)


def weak_saturation_images(n: int) -> list[tuple[int, ...]]:
    """The n - 1 adjacent transpositions (i i+1) of the complete graph's
    vertices, acting on the pair ids of weak_saturation_hypergraph(n, k).

    Entry p of an image is the id pair p maps to; each image maps the
    hyperedges of every k onto themselves.
    """
    pairs = list(itertools.combinations(range(n), 2))
    pair_id = {p: i for i, p in enumerate(pairs)}
    images = []
    for i in range(n - 1):
        swap = {i: i + 1, i + 1: i}
        images.append(tuple(pair_id[tuple(sorted(swap.get(a, a) for a in p))] for p in pairs))
    return images


def parse_hypergraph(text: str) -> Hypergraph:
    """Read the text form: header ``p <num_vertices> <num_edges>``, then one
    line of space-separated 0-based ids per edge, in any order, with repeats
    dropped; blank lines are ignored."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows or rows[0][:1] != ["p"] or len(rows[0]) != 3:
        raise ValueError("expected header line 'p <num_vertices> <num_edges>'")
    try:
        nv, ne = int(rows[0][1]), int(rows[0][2])
    except ValueError:
        raise ValueError("non-integer counts in header") from None
    body = rows[1:]
    if len(body) != ne:
        raise ValueError(f"header promises {ne} edges, found {len(body)} edge lines")
    try:
        edges = [[int(tok) for tok in row] for row in body]
    except ValueError:
        raise ValueError("non-integer vertex id in edge line") from None
    return Hypergraph(nv, canonical_edges(nv, edges))


def read_hypergraph(path) -> Hypergraph:
    with open(path, "r", encoding="ascii") as fh:
        return parse_hypergraph(fh.read())
