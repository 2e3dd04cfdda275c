"""Independent search oracles.

Exhaustive minimum percolating sets by ascending subset enumeration,
randomized greedy upper bounds, and r-neighbour bootstrap percolation on
graphs.  Exceeding the search budget raises, it never degrades to an
approximate answer.

The searches and the greedy bounds run on int bitmasks of infected
vertices.  Each process gives one ``spread(state, v)``: from a closed state,
infect v and follow only the vertices that become infected, so it returns
the closure of state plus v.  Since closure(S + x) = closure(closure(S) + x),
the exhaustive search walks the same ascending, lexicographic candidate sets
as a plain scan, but as a depth-first prefix stack: each prefix's closure is
computed once and shared by all its extensions.  A candidate whose next
vertex already lies in the prefix's closure, or in the closure of an earlier
candidate it is dominated by, cannot percolate; it is counted without any
closure work, and a whole subtree of such candidates is counted at once.
So ``tested``, the budget exit and the witness are exactly those of the
plain scan.  ``closure`` and ``r_neighbour_closure`` remain the slower
oracles; each search or greedy bound calls one of them once, for the
closure of the forced vertices (of the empty set for the greedy bounds).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from collections import deque
from dataclasses import dataclass

from .grid import row_major_strides
from .percolation import Hypergraph, closure

DEFAULT_BUDGET = 10_000_000


class SearchBudgetExceeded(RuntimeError):
    def __init__(self, tested: int, budget: int) -> None:
        super().__init__(f"search budget exhausted after {tested} candidate sets (budget {budget})")
        self.tested = tested
        self.budget = budget


@dataclass(frozen=True)
class SearchResult:
    """Exact minimum, one witness (sorted ids), and candidates tested."""

    minimum: int
    witness: tuple[int, ...]
    tested: int


def _mask(vertices) -> int:
    return sum(1 << v for v in vertices)


def _edge_spread(h: Hypergraph):
    """spread(state, v) for hypergraph bootstrap: an edge fires when exactly
    one of its vertices is uninfected."""
    edge_masks = [_mask(e) for e in h.edges]
    incident = [[edge_masks[i] for i in ix] for ix in h.incident]

    def spread(state: int, v: int) -> int:
        if state >> v & 1:
            return state
        state |= 1 << v
        todo = [v]
        while todo:
            for e in incident[todo.pop()]:
                rest = e & ~state
                if rest and not rest & (rest - 1):
                    state |= rest
                    todo.append(rest.bit_length() - 1)
        return state

    return spread


def _min_subset_search(num_vertices, spread, start, mandatory, budget):
    # ``start`` is the closure of the mandatory set.  Candidates come in
    # ascending size, then as lexicographic subsets of the free vertices, so
    # the first hit is minimal; the full vertex set always percolates, so the
    # scan returns by size len(free) at the latest.
    #
    # Each prefix P keeps a dead mask: closure(P), the dead mask of its
    # parent, and closure(P + y) for each vertex y whose subtree under P is
    # done.  A candidate C = P + x + T with x dead cannot percolate: x lies in
    # closure(P) (then closure(C) = closure(C - x), a smaller candidate) or in
    # closure(Q + y) for a prefix Q of P and a vertex y tried before Q's next
    # vertex (then C lies in the closure of C - x + y, an earlier candidate of
    # the same size).  Either one was tested and failed, so the subtree under
    # x is counted without being walked.
    budget = operator.index(budget)
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    full = (1 << num_vertices) - 1
    forced = set(mandatory)
    free = [v for v in range(num_vertices) if v not in forced]
    nfree = len(free)
    if budget == 0:
        raise SearchBudgetExceeded(0, budget)
    tested = 1  # the mandatory set alone
    if start == full:
        return SearchResult(len(mandatory), tuple(sorted(mandatory)), tested)
    for size in range(1, nfree + 1):
        # One frame per prefix: [closure, dead mask, next free index to try].
        frames = [[start, start, 0]]
        while frames:
            frame = frames[-1]
            state, dead, lo = frame
            after = size - len(frames)  # vertices still to pick after the next one
            if after:
                i = lo
                while i < nfree - after and dead >> free[i] & 1:
                    skipped = math.comb(nfree - 1 - i, after)
                    if tested + skipped > budget:
                        # The scan stops inside this subtree, after candidate number ``budget``.
                        raise SearchBudgetExceeded(budget, budget)
                    tested += skipped
                    i += 1
                if i < nfree - after:
                    frame[2] = i + 1
                    reached = spread(state, free[i])
                    frames.append([reached, dead | reached, i + 1])
                    continue
            else:
                for i in range(lo, nfree):
                    if tested >= budget:
                        raise SearchBudgetExceeded(tested, budget)
                    tested += 1
                    v = free[i]
                    if not dead >> v & 1:
                        reached = spread(state, v)
                        if reached == full:
                            witness = mandatory + [free[f[2] - 1] for f in frames[:-1]] + [v]
                            return SearchResult(len(witness), tuple(sorted(witness)), tested)
                        dead |= reached
            # Nothing under this prefix percolates.
            frames.pop()
            if frames:
                frames[-1][1] |= state
    raise AssertionError("the full vertex set failed to percolate")


def min_percolating_exact(h: Hypergraph, *, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Smallest percolating set, by exhaustive ascending subset enumeration.

    Vertices that lie in no edge can never be infected, so they are forced
    into every candidate.  Always returns the exact minimum (the full vertex
    set percolates); raises SearchBudgetExceeded after ``budget`` candidate
    sets and ValueError for a negative ``budget``.
    """
    covered = set(itertools.chain.from_iterable(h.edges))
    mandatory = [v for v in range(h.num_vertices) if v not in covered]
    start = _mask(closure(h, mandatory).final)
    return _min_subset_search(h.num_vertices, _edge_spread(h), start, mandatory, budget)


def _greedy_deletion(num_vertices, spread, empty_closure, trials, seed):
    # A candidate percolates iff folding spread over it from the closure of
    # the empty set reaches every vertex.
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    full = (1 << num_vertices) - 1
    rng = random.Random(seed)
    best = frozenset(range(num_vertices))
    for _ in range(trials):
        order = list(range(num_vertices))
        rng.shuffle(order)
        current = set(range(num_vertices))
        for v in order:
            smaller = current - {v}
            if functools.reduce(spread, smaller, empty_closure) == full:
                current = smaller
        if len(current) < len(best):
            best = frozenset(current)
    return best


def greedy_upper_bound(h: Hypergraph, trials: int = 1, seed: int = 0) -> frozenset[int]:
    """Percolating set found by randomized greedy deletion from the full set.

    Each trial scans the vertices in a shuffled order and drops any whose
    removal keeps the set percolating.  One pass per trial suffices: removals
    only shrink closures, so a vertex that cannot be dropped now can never be
    dropped later.  Deterministic given the seed; the result percolates by
    construction, so its size is an upper bound on the true minimum.
    """
    empty_closure = _mask(closure(h, ()).final)
    return _greedy_deletion(h.num_vertices, _edge_spread(h), empty_closure, trials, seed)


class Graph:
    """Undirected simple graph: vertex count plus sorted adjacency tuples."""

    __slots__ = ("num_vertices", "adj")

    def __init__(self, num_vertices: int, edges) -> None:
        if num_vertices < 0:
            raise ValueError(f"negative vertex count {num_vertices}")
        neighbours = [set() for _ in range(num_vertices)]
        for u, v in edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError(f"edge ({u}, {v}) outside [0, {num_vertices})")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            neighbours[u].add(v)
            neighbours[v].add(u)
        self.num_vertices = num_vertices
        self.adj = tuple(tuple(sorted(ns)) for ns in neighbours)

    @property
    def num_edges(self) -> int:
        return sum(len(ns) for ns in self.adj) // 2

    def __repr__(self) -> str:
        return f"Graph(num_vertices={self.num_vertices}, num_edges={self.num_edges})"


def grid_graph(dims) -> Graph:
    """Axis-aligned grid graph on [n_1] x ... x [n_d].

    Vertices are row-major ids of the 1-based coordinate tuples, from the
    grid codec's strides (axes of length 1 are allowed here); two vertices
    are adjacent iff their tuples differ by exactly 1 in one axis.
    """
    dims = tuple(operator.index(n) for n in dims)
    if not dims or any(n < 1 for n in dims):
        raise ValueError(f"axis lengths must be >= 1, got {dims}")
    strides = row_major_strides(dims)
    edges = []
    for coords in itertools.product(*(range(1, n + 1) for n in dims)):
        vid = sum((x - 1) * s for x, s in zip(coords, strides))
        for x, n, s in zip(coords, dims, strides):
            if x < n:
                edges.append((vid, vid + s))
    return Graph(math.prod(dims), edges)


def hypercube_graph(d: int) -> Graph:
    """d-dimensional hypercube on ids 0..2^d - 1, adjacency by single bit flips."""
    if d < 1:
        raise ValueError(f"dimension {d} < 1")
    edges = [(b, b | (1 << i)) for b in range(1 << d) for i in range(d) if not b & (1 << i)]
    return Graph(1 << d, edges)


def r_neighbour_closure(g: Graph, initial, r: int) -> frozenset[int]:
    """Closure under: a vertex with at least r infected neighbours is infected."""
    r = operator.index(r)
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    infected = bytearray(g.num_vertices)
    queue: deque[int] = deque()
    for v in initial:
        v = operator.index(v)
        if not 0 <= v < g.num_vertices:
            raise ValueError(f"vertex {v} outside [0, {g.num_vertices})")
        if not infected[v]:
            infected[v] = 1
            queue.append(v)
    counts = [0] * g.num_vertices
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if not infected[w]:
                counts[w] += 1
                if counts[w] >= r:
                    infected[w] = 1
                    queue.append(w)
    return frozenset(i for i, flag in enumerate(infected) if flag)


def _neighbour_spread(g: Graph, r: int):
    """spread(state, v) for r-neighbour bootstrap on g."""
    neighbour_masks = [_mask(ns) for ns in g.adj]

    def spread(state: int, v: int) -> int:
        if state >> v & 1:
            return state
        state |= 1 << v
        todo = [v]
        while todo:
            for w in g.adj[todo.pop()]:
                if not state >> w & 1 and (neighbour_masks[w] & state).bit_count() >= r:
                    state |= 1 << w
                    todo.append(w)
        return state

    return spread


def min_r_neighbour_percolating(g: Graph, r: int, *, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Exhaustive minimum percolating set for the r-neighbour process.

    Same enumeration scheme and errors as min_percolating_exact; vertices of
    degree < r can never be infected, so they are forced into every candidate.
    """
    r = operator.index(r)
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    mandatory = [v for v in range(g.num_vertices) if len(g.adj[v]) < r]
    start = _mask(r_neighbour_closure(g, mandatory, r))
    return _min_subset_search(g.num_vertices, _neighbour_spread(g, r), start, mandatory, budget)


def greedy_r_neighbour_upper_bound(g: Graph, r: int, trials: int = 1, seed: int = 0) -> frozenset[int]:
    """Greedy-deletion upper bound for the r-neighbour process (cf.
    greedy_upper_bound; the same one-pass argument applies)."""
    r = operator.index(r)
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    empty_closure = _mask(r_neighbour_closure(g, (), r))
    return _greedy_deletion(g.num_vertices, _neighbour_spread(g, r), empty_closure, trials, seed)
