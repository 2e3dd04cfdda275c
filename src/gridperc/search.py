"""Independent search oracles.

Exhaustive minimum percolating sets by ascending subset enumeration,
randomized greedy upper bounds, and r-neighbour bootstrap percolation on
graphs.  Exceeding the search budget raises, it never degrades to an
approximate answer.
"""

from __future__ import annotations

import itertools
import operator
import random
from collections import deque
from dataclasses import dataclass

from .percolation import Hypergraph, percolates

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


def _min_subset_search(num_vertices, percolates_fn, mandatory, budget):
    # Ascending k, lexicographic subsets of the non-mandatory vertices, so the
    # first hit is minimal.  The full vertex set always percolates, so the
    # scan returns by k = num_vertices at the latest.
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    forced = set(mandatory)
    free = [v for v in range(num_vertices) if v not in forced]
    tested = 0
    for k in range(len(mandatory), num_vertices + 1):
        for combo in itertools.combinations(free, k - len(mandatory)):
            if tested >= budget:
                raise SearchBudgetExceeded(tested, budget)
            tested += 1
            candidate = mandatory + list(combo)
            if percolates_fn(candidate):
                return SearchResult(k, tuple(sorted(candidate)), tested)
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
    return _min_subset_search(h.num_vertices, lambda cand: percolates(h, cand), mandatory, budget)


def _greedy_deletion(num_vertices, percolates_fn, trials, seed):
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = random.Random(seed)
    best = frozenset(range(num_vertices))
    for _ in range(trials):
        order = list(range(num_vertices))
        rng.shuffle(order)
        current = set(range(num_vertices))
        for v in order:
            smaller = current - {v}
            if percolates_fn(smaller):
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
    return _greedy_deletion(h.num_vertices, lambda cand: percolates(h, cand), trials, seed)


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

    Vertices are row-major ids of the 1-based coordinate tuples; two vertices
    are adjacent iff their tuples differ by exactly 1 in one axis.
    """
    dims = tuple(int(n) for n in dims)
    if not dims or any(n < 1 for n in dims):
        raise ValueError(f"axis lengths must be >= 1, got {dims}")
    strides = [1] * len(dims)
    for k in range(len(dims) - 2, -1, -1):
        strides[k] = strides[k + 1] * dims[k + 1]
    edges = []
    for coords in itertools.product(*(range(1, n + 1) for n in dims)):
        vid = sum((x - 1) * s for x, s in zip(coords, strides))
        for k, n in enumerate(dims):
            if coords[k] < n:
                edges.append((vid, vid + strides[k]))
    total = 1
    for n in dims:
        total *= n
    return Graph(total, edges)


def hypercube_graph(d: int) -> Graph:
    """d-dimensional hypercube on ids 0..2^d - 1, adjacency by single bit flips."""
    if d < 1:
        raise ValueError(f"dimension {d} < 1")
    edges = [(b, b | (1 << i)) for b in range(1 << d) for i in range(d) if not b & (1 << i)]
    return Graph(1 << d, edges)


def r_neighbour_closure(g: Graph, initial, r: int) -> frozenset[int]:
    """Closure under: a vertex with at least r infected neighbours is infected."""
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


def min_r_neighbour_percolating(g: Graph, r: int, *, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Exhaustive minimum percolating set for the r-neighbour process.

    Same enumeration scheme and errors as min_percolating_exact; vertices of
    degree < r can never be infected, so they are forced into every candidate.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    nv = g.num_vertices
    mandatory = [v for v in range(nv) if len(g.adj[v]) < r]
    return _min_subset_search(
        nv, lambda cand: len(r_neighbour_closure(g, cand, r)) == nv, mandatory, budget
    )


def greedy_r_neighbour_upper_bound(g: Graph, r: int, trials: int = 1, seed: int = 0) -> frozenset[int]:
    """Greedy-deletion upper bound for the r-neighbour process (cf.
    greedy_upper_bound; the same one-pass argument applies)."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    return _greedy_deletion(
        g.num_vertices, lambda cand: len(r_neighbour_closure(g, cand, r)) == g.num_vertices, trials, seed
    )
