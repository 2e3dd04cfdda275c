"""Independent search oracles.

Exhaustive minimum percolating sets, and r-neighbour bootstrap percolation
with a randomized greedy upper bound, on a Hypergraph read as a simple
graph (see _neighbours).  Exceeding the search budget raises, it never
degrades to an approximate answer.

The searches and the greedy bound run on int bitmasks of infected
vertices.  Each process gives one ``spread(state, v)``: from a closed state,
infect v and follow only the vertices that become infected, so it returns
the closure of state plus v.

The exhaustive search answers exactly as a plain scan of the candidate sets
in ascending size, then in lexicographic order: the first that percolates
is the minimum and the witness, ``tested`` is its position in the scan, and
the budget exit comes after ``budget`` candidates.  It does not walk the
sizes in that order.  A superset of a percolating set percolates, so the
minimum is the size m at which some m-set percolates and no (m - 1)-set
does.  The search finds the lexicographically first percolating set of one
size at a time, downward from the largest size the budget reaches, and
walks only the size just below the minimum in full; each searched size
walks at most ``budget`` candidates.

Within a size, since closure(S + x) = closure(closure(S) + x), the
candidates form a depth-first prefix stack: each prefix's closure is
computed once and shared by all its extensions.  A candidate C whose vertex
x, picked after a prefix P, lies in closure(P) or in closure(Q + y), the
prefix of an earlier candidate with Q a prefix of P, is counted without
closure work, a whole subtree at once: if C percolated, so would the
earlier candidate C - x + y of the same size.  For x in closure(P), y is
any free vertex below x outside P; there is none when P holds every free
vertex below x, so that one vertex is never skipped.

A caller may also pass images: automorphisms of the hypergraph, each
checked before any search work to permute the vertex ids and to map the
edge set, and so the forced vertices, onto itself.  A candidate whose
prefix an image maps to a same-size set that comes earlier in the scan is
skipped, its subtree counted at once.  The first percolating set S* is
never skipped: an image g(S*) percolates too, so g(S*) cannot come before
S*.  Any set of automorphisms gives the answers of the plain scan; the CLI
passes generators (grid.axis_images for a grid graph, grid.family_images
for a grid family, whose K images include the adjacent value transpositions
of each axis, and percolation.weak_saturation_images).

The r-neighbour search also prunes by a potential.  Let psi(S) = r|S| -
e(S), with e(S) the edges with both ends in S.  Infecting a vertex with
j >= r infected neighbours changes psi by r - j <= 0, and adding any vertex
x raises it by r - |N(x) & S| <= r.  So no k more picks can make a closed
state S percolate when psi(S) + r k < psi(V) = r|V| - |E|, and a prefix
whose closure fails that test has its subtree counted at once.  It skips
only sets that do not percolate.  The test also gives a floor: the least k
for which the forced vertices' closure with k more picks is not doomed.  No
smaller set percolates.  When the budget reaches past the floor size, the
search walks that size first, in full; a percolating set there is the
answer, within the budget.  Otherwise the downward search runs as above and
stops above the floor.  On the 6 x 6 grid graph with r = 2, psi(V) = 12 and
the floor is the minimum 6: at the default budget the whole search makes 11
closures, against 75,625 with the square's images alone and 239,239 with
neither.  The hypergraph search has no such test.  Its analogue, |S| minus
the edges inside S against |V| - |E|, is as sound; it prunes nothing where
|V| <= |E|, as on most K grids, but on P with r = d that target is the
minimum itself.

Every search starts one way: fold ``spread`` over the vertices that must be
infected, from the closed empty state.  No search calls ``closure`` or
``r_neighbour_closure``; they are the tests' oracles, and the CLI checks
``rneighbour``'s witness with ``r_neighbour_closure``.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
import random
from dataclasses import dataclass

from .grid import GridSpec, count_edges, enumerate_edges
from .percolation import Hypergraph, check_search_bits, check_size

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


def _first_at_size(free, spread, start, full, size, limit, images, doomed):
    # The lexicographically first percolating ``size``-subset of ``free``
    # (added to the closed state ``start``) among that size's first ``limit``
    # positions, as (1-based position, picks), or None.  ``images`` holds,
    # per automorphism g that maps ``free`` onto itself, the bit of g(v) for
    # each vertex v.  ``doomed(state, k)``, if not None, is true only when no
    # k more picks can make the closed state ``state`` percolate; it is asked
    # once per prefix, on the prefix's closure, and a doomed prefix's subtree
    # is counted at once and never walked.
    #
    # Each prefix P keeps a dead mask: closure(P), the dead mask of its
    # parent, and closure(P + y) for each vertex y whose subtree under P is
    # done.  A candidate C = P + x + T with x dead is skipped, its subtree
    # counted at once; none of them is the first percolating set.
    # - x in closure(Q + y), for a prefix Q of P and a vertex y tried before
    #   Q's next vertex: closure(C) lies in closure(C - x + y), a same-size
    #   candidate that comes earlier.
    # - x in closure(P): closure(C) = closure(C - x).  If C percolates, so
    #   does C - x + y for every free y below x outside P, again an earlier
    #   candidate.  Such a y is missing only when P = free[:depth] and
    #   x = free[depth], so that one vertex is never skipped.
    #
    # Every frame also keeps the mask of g(P) for each image g.  An interior
    # pick x (one that is not the candidate's last) is skipped, its subtree
    # counted at once, when g(P + x) comes before P + x: the lowest vertex z
    # in which they differ lies in g(P + x).  Since P + x has no vertex above
    # x and g(P + x) has as many vertices, z is at most x.  Every completion
    # C of P + x adds only vertices above x, so either g(C) gains a vertex
    # below z that C lacks, or z is still the lowest difference: g(C) is a
    # same-size candidate before C, and it percolates iff C does.
    if not size:
        return (1, []) if start == full else None
    if doomed is not None and doomed(start, size):
        return None
    nfree = len(free)
    position = 0
    # One frame per prefix P: [closure, dead mask, next free index to try,
    # mask of P, mask of g(P) for each image g].
    frames = [[start, start, 0, 0, [0] * len(images)]]
    while frames:
        frame = frames[-1]
        state, dead, lo, prefix, prefix_images = frame
        depth = len(frames) - 1  # the prefix is free[:depth] iff lo == depth
        after = size - depth - 1  # vertices still to pick after the next one
        if after:
            i = lo
            while i < nfree - after:
                v = free[i]
                if i == depth or not dead >> v & 1:
                    picked = prefix | 1 << v
                    mapped = [m | bits[v] for m, bits in zip(prefix_images, images)]
                    for m in mapped:
                        diff = m ^ picked
                        if diff & -diff & m:
                            break  # g(picked) comes first: skip v
                    else:
                        reached = spread(state, v)
                        if doomed is None or not doomed(reached, after):
                            break  # pick v
                        # No completion percolates: v's subtree is done.
                        dead |= reached
                position += math.comb(nfree - 1 - i, after)
                if position > limit:
                    return None
                i += 1
            if i < nfree - after:
                frame[1:3] = dead, i + 1
                frames.append([reached, dead | reached, i + 1, picked, mapped])
                continue
        else:
            for i in range(lo, nfree):
                if position >= limit:
                    return None
                position += 1
                v = free[i]
                if i == depth or not dead >> v & 1:
                    reached = spread(state, v)
                    if reached == full:
                        return position, [free[f[2] - 1] for f in frames[:-1]] + [v]
                    dead |= reached
        # The first percolating set does not lie under this prefix.
        frames.pop()
        if frames:
            frames[-1][1] |= state
    return None


def _image_bits(images, num_vertices, edges):
    # Each image g as the list of bits 1 << g(v) per vertex v, once it is
    # checked to permute the ids and to map the edge set ``edges`` (sorted id
    # tuples) onto itself.  A permutation of a simple graph keeps adjacency
    # iff it does that.  Such a g keeps the covered vertices, or every
    # degree, and so the forced vertices.  First the search's masks are
    # counted: one |V|-bit mask per edge (the r-neighbour spread and
    # potential keep two per vertex) and per vertex of each image.
    images = list(images)
    check_search_bits("the search masks", num_vertices * (len(edges) + len(images) * num_vertices))
    edges = set(edges)
    ids = list(range(num_vertices))
    checked = []
    for number, image in enumerate(images):
        image = tuple(map(operator.index, image))
        if sorted(image) != ids:
            raise ValueError(f"image {number} is not a permutation of the vertex ids 0..{num_vertices - 1}")
        if {tuple(sorted(image[v] for v in e)) for e in edges} != edges:
            raise ValueError(f"image {number} is not an automorphism: it moves an edge off the edge set")
        checked.append([1 << w for w in image])
    return checked


def _min_subset_search(num_vertices, spread, start, mandatory, budget, images, doomed):
    # ``start`` is the closure of the mandatory set, ``images`` the checked
    # bits of _image_bits, ``doomed`` the prefix test of _first_at_size or
    # None.  Given ``doomed``, the floor size is searched first, then the
    # sizes downward (see the module docstring); ``tested`` is the answer's
    # position in the plain ascending scan.
    budget = operator.index(budget)
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if budget == 0:
        raise SearchBudgetExceeded(0, budget)
    full = (1 << num_vertices) - 1
    forced = set(mandatory)
    free = [v for v in range(num_vertices) if v not in forced]
    nfree = len(free)
    # before[k]: the scan's candidates of size below k (size 0 is the
    # mandatory set alone), up to the first size the budget does not reach.
    before = [0]
    while len(before) <= nfree and before[-1] < budget:
        before.append(before[-1] + math.comb(nfree, len(before) - 1))
    size = bisect.bisect_left(before, budget) - 1
    low = 0  # no set smaller than ``low`` percolates
    if doomed is not None:
        # The floor: no smaller set percolates.  A size below ``size`` lies
        # wholly within the budget, so a percolating set at the floor is the
        # answer.
        low = next(k for k in range(nfree + 1) if not doomed(start, k))
        if low < size:
            found = _first_at_size(free, spread, start, full, low, math.inf, images, doomed)
            if found is not None:
                return _result(mandatory, found, before[low])
            low += 1
    found = _first_at_size(free, spread, start, full, size, budget - before[size], images, doomed)
    while size > low:
        smaller = _first_at_size(free, spread, start, full, size - 1, math.inf, images, doomed)
        if smaller is None:
            break
        size -= 1
        found = smaller
    if found is None:  # none at the budget's last size, nor at the size below, walked in full
        raise SearchBudgetExceeded(budget, budget)
    return _result(mandatory, found, before[size])


def _result(mandatory, found, before_size):
    # The SearchResult of _first_at_size's (position, picks) at a size whose
    # scan starts after ``before_size`` candidates.
    position, picks = found
    witness = mandatory + picks
    return SearchResult(len(witness), tuple(sorted(witness)), before_size + position)


def min_percolating_exact(h: Hypergraph, *, budget: int = DEFAULT_BUDGET, images=()) -> SearchResult:
    """Smallest percolating set, by exhaustive subset search.

    Vertices that lie in no edge can never be infected, so they are forced
    into every candidate.  Always returns the exact minimum (the full vertex
    set percolates), with the witness and ``tested`` of a plain scan of the
    candidates in ascending size, then lexicographic order; raises
    SearchBudgetExceeded when that scan would pass ``budget`` candidate sets,
    ValueError for a negative ``budget``, and HypergraphTooLarge, before any
    mask is built, when the masks would hold more than
    percolation.MAX_SEARCH_BITS bits, |V|·(|E| + |images|·|V|).  The sizes
    are searched downward from the largest the budget reaches, so only the
    size below the minimum is walked in full.

    ``images`` are automorphisms of h, each a sequence whose entry v is the
    id vertex v maps to (``grid.family_images`` for a grid family,
    ``percolation.weak_saturation_images`` for weak saturation).  Before any
    search work each is checked to permute the ids and to map the edge set,
    and so the forced vertices, onto itself, or ValueError is raised.
    The search skips candidates that an image maps to an earlier one; the
    results are those of the plain scan for any set of images.
    """
    mandatory = [v for v in range(h.num_vertices) if not h.incident[v]]
    images = _image_bits(images, h.num_vertices, h.edges)
    spread = _edge_spread(h)
    # From the empty state only size-1 edges can fire; the forced vertices lie in no edge.
    start = functools.reduce(spread, (e[0] for e in h.edges if len(e) == 1), _mask(mandatory))
    return _min_subset_search(h.num_vertices, spread, start, mandatory, budget, images, None)


def grid_graph(dims) -> Hypergraph:
    """Axis-aligned grid graph on [n_1] x ... x [n_d], as a hypergraph of
    2-vertex edges.

    Vertices are the codec's row-major ids of the 1-based coordinate tuples;
    two are adjacent iff their tuples differ by exactly 1 in one axis.  The
    edges are the "P" family with thickness 2 and copy rank 1 on the axes
    longer than 1 (an axis of length 1 holds no edge and moves no id), in
    its walk order.  More than MAX_HYPERGRAPH_VERTICES vertices, or
    MAX_HYPERGRAPH_EDGES edges by the closed-form count_edges, raise
    HypergraphTooLarge before any is built.
    """
    dims = tuple(operator.index(n) for n in dims)
    if not dims or any(n < 1 for n in dims):
        raise ValueError(f"axis lengths must be >= 1, got {dims}")
    long = tuple(n for n in dims if n > 1)
    if not long:
        return Hypergraph(1, ())
    spec = GridSpec(long, (2,) * len(long), 1)
    check_size("the grid graph", spec.num_vertices, count_edges(spec, "P"))
    return Hypergraph(spec.num_vertices, (ids for *_, ids in enumerate_edges(spec, "P")))


def hypercube_graph(d: int) -> Hypergraph:
    """d-dimensional hypercube: grid_graph((2,) * d), the "P" family with
    thickness 2 and copy rank 1; ids 0..2^d - 1, adjacent iff one bit differs."""
    if d < 1:
        raise ValueError(f"dimension {d} < 1")
    return grid_graph((2,) * d)


def _neighbours(h: Hypergraph) -> list[tuple[int, ...]]:
    """Each vertex's sorted neighbours in h read as a simple graph: a
    repeated edge counts once.  An edge that does not have exactly two
    vertices raises ValueError."""
    neighbours = [set() for _ in range(h.num_vertices)]
    for e in h.edges:
        if len(e) != 2:
            raise ValueError(f"edge {list(e)} does not have exactly two vertices")
        u, w = e
        neighbours[u].add(w)
        neighbours[w].add(u)
    return [tuple(sorted(ns)) for ns in neighbours]


def r_neighbour_closure(h: Hypergraph, initial, r: int) -> frozenset[int]:
    """Closure under: a vertex with at least r infected neighbours is
    infected, on h read as a simple graph (see _neighbours)."""
    r = operator.index(r)
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    neighbours = _neighbours(h)
    infected = bytearray(h.num_vertices)
    queue = []
    for v in initial:
        v = operator.index(v)
        if not 0 <= v < h.num_vertices:
            raise ValueError(f"vertex {v} outside [0, {h.num_vertices})")
        if not infected[v]:
            infected[v] = 1
            queue.append(v)
    counts = [0] * h.num_vertices
    for u in queue:  # the queue grows while it is read, in infection order
        for w in neighbours[u]:
            if not infected[w]:
                counts[w] += 1
                if counts[w] >= r:
                    infected[w] = 1
                    queue.append(w)
    return frozenset(i for i, flag in enumerate(infected) if flag)


def _neighbour_spread(neighbours, r: int):
    """spread(state, v) for r-neighbour bootstrap on the simple graph whose
    vertex v has the sorted neighbours ``neighbours[v]``."""
    neighbour_masks = [_mask(ns) for ns in neighbours]

    def spread(state: int, v: int) -> int:
        if state >> v & 1:
            return state
        state |= 1 << v
        todo = [v]
        while todo:
            for w in neighbours[todo.pop()]:
                if not state >> w & 1 and (neighbour_masks[w] & state).bit_count() >= r:
                    state |= 1 << w
                    todo.append(w)
        return state

    return spread


def _potential_test(neighbours, r: int):
    """doomed(state, k) for r-neighbour bootstrap on the simple graph of
    ``neighbours``: true when the potential r|S| - e(S) of the closed state
    S, plus r per pick still to make, falls short of the full vertex set's
    r|V| - |E| (see the module docstring)."""
    neighbour_masks = [_mask(ns) for ns in neighbours]
    target = r * len(neighbours) - sum(map(len, neighbours)) // 2

    def doomed(state: int, k: int) -> bool:
        ends = 0  # twice e(S): each edge inside S counted from both ends
        rest = state
        while rest:
            low = rest & -rest
            ends += (neighbour_masks[low.bit_length() - 1] & state).bit_count()
            rest ^= low
        return r * (state.bit_count() + k) - ends // 2 < target

    return doomed


def min_r_neighbour_percolating(
    h: Hypergraph, r: int, *, budget: int = DEFAULT_BUDGET, images=()
) -> SearchResult:
    """Exhaustive minimum percolating set for the r-neighbour process on h
    read as a simple graph (see _neighbours).

    Same enumeration scheme, errors and ``images`` as min_percolating_exact
    (``grid.axis_images`` of the dims for a grid graph, of (2,) * d for the
    d-cube); vertices of degree < r can never be infected, so they are
    forced into every candidate.  Prefixes are also pruned by the potential
    r|S| - e(S) (see the module docstring), which changes no result.
    """
    r = operator.index(r)
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    neighbours = _neighbours(h)
    mandatory = [v for v, ns in enumerate(neighbours) if len(ns) < r]
    images = _image_bits(images, h.num_vertices, h.edges)
    spread = _neighbour_spread(neighbours, r)
    start = functools.reduce(spread, mandatory, 0)  # for r >= 1 the empty state is closed
    return _min_subset_search(h.num_vertices, spread, start, mandatory, budget, images, _potential_test(neighbours, r))


def greedy_r_neighbour_upper_bound(h: Hypergraph, r: int, trials: int = 1, seed: int = 0) -> frozenset[int]:
    """Percolating set of the r-neighbour process on h read as a simple
    graph (see _neighbours), found by randomized greedy deletion from the
    full set.

    Each trial scans the vertices in a shuffled order and drops any whose
    removal keeps the set percolating.  One pass per trial suffices: removals
    only shrink closures, so a vertex that cannot be dropped now can never be
    dropped later.  Deterministic given the seed; the result percolates by
    construction, so its size is an upper bound on the true minimum.  Its
    masks are counted as the exhaustive search's are, |V| bits per edge,
    and a count over MAX_SEARCH_BITS raises HypergraphTooLarge before any
    is built.
    """
    r = operator.index(r)
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n = h.num_vertices
    check_search_bits("the search masks", n * len(h.edges))
    # For r >= 1 the empty state 0 is closed, so a candidate percolates iff
    # folding spread over it from 0 reaches every vertex.
    spread = _neighbour_spread(_neighbours(h), r)
    full = (1 << n) - 1
    rng = random.Random(seed)
    best = frozenset(range(n))
    for _ in range(trials):
        order = list(range(n))
        rng.shuffle(order)
        current = set(range(n))
        for v in order:
            smaller = current - {v}
            if functools.reduce(spread, smaller, 0) == full:
                current = smaller
        if len(current) < len(best):
            best = frozenset(current)
    return best
