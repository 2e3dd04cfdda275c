import itertools
import math
import random
from collections import deque

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gridperc import cli, percolation, search
from gridperc.grid import GridSpec, axis_images, extremal_size, family_images
from gridperc.percolation import (
    Hypergraph,
    canonical_edges,
    closure,
    grid_hypergraph,
    percolates,
    weak_saturation_hypergraph,
    weak_saturation_images,
)
from gridperc.search import (
    DEFAULT_BUDGET,
    SearchBudgetExceeded,
    SearchResult,
    greedy_r_neighbour_upper_bound,
    grid_graph,
    hypercube_graph,
    min_percolating_exact,
    min_r_neighbour_percolating,
    r_neighbour_closure,
)
from oracles import (
    reference_grid_graph,
    reference_hypercube_graph,
    reference_keeps_adjacency,
    reference_neighbours,
    reference_r_neighbour_closure,
)


def reachable_from(g, sources):
    adj = reference_neighbours(g)
    seen = set(sources)
    queue = deque(sources)
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


@st.composite
def hypergraphs(draw, max_vertices=7, max_edges=8):
    nv = draw(st.integers(1, max_vertices))
    edge = st.lists(st.integers(0, nv - 1), min_size=1, max_size=min(4, nv))
    return Hypergraph(nv, canonical_edges(nv, draw(st.lists(edge, max_size=max_edges))))


@st.composite
def graphs(draw, max_vertices=8, max_edges=14):
    """A hypergraph of 2-vertex edges, which may repeat."""
    nv = draw(st.integers(1, max_vertices))
    pairs = list(itertools.combinations(range(nv), 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=max_edges)) if pairs else []
    return Hypergraph(nv, edges)


def deduplicated(h):
    return Hypergraph(h.num_vertices, sorted(set(h.edges)))


def plain_scan(num_vertices, percolates_fn, mandatory, budget):
    """Reference exhaustive search: every candidate in ascending size, then
    lexicographic order, each judged by a closure oracle, with the budget
    checked before each one."""
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


def plain_greedy(num_vertices, percolates_fn, trials, seed):
    """Reference greedy deletion, each step judged by a closure oracle."""
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


def hypergraph_oracle(h):
    covered = set(itertools.chain.from_iterable(h.edges))
    return [v for v in range(h.num_vertices) if v not in covered], lambda cand: percolates(h, cand)


def graph_oracle(g, r):
    neighbours = reference_neighbours(g)
    mandatory = [v for v, ns in enumerate(neighbours) if len(ns) < r]
    return mandatory, lambda cand: len(reference_r_neighbour_closure(neighbours, cand, r)) == g.num_vertices


def outcome(search, *args, **kwargs):
    """The search's result, or what its SearchBudgetExceeded carries."""
    try:
        return search(*args, **kwargs)
    except SearchBudgetExceeded as exc:
        return ("budget exceeded", exc.tested, exc.budget)


def first_percolating(free, mandatory, percolates_fn, size):
    """Reference for one size: the 1-based position and picks of the first
    percolating size-subset of free in itertools.combinations order."""
    for position, combo in enumerate(itertools.combinations(free, size), 1):
        if percolates_fn(mandatory + list(combo)):
            return position, list(combo)
    return None


def size_search(num_vertices, spread, start, mandatory, images, doomed=None):
    """The free vertices and _first_at_size bound to one process, its images
    and its prefix test."""
    free = [v for v in range(num_vertices) if v not in mandatory]
    full = (1 << num_vertices) - 1
    bits = [[1 << w for w in image] for image in images]

    def first(size, limit=math.inf):
        return search._first_at_size(free, spread, start, full, size, limit, bits, doomed)

    return free, first


def hypergraph_size_search(h, images=()):
    mandatory, _ = hypergraph_oracle(h)
    start = search._mask(closure(h, mandatory).final)
    return size_search(h.num_vertices, search._edge_spread(h), start, mandatory, images)


def graph_size_search(g, r, images=()):
    mandatory, _ = graph_oracle(g, r)
    start = search._mask(r_neighbour_closure(g, mandatory, r))
    neighbours = search._neighbours(g)
    spread = search._neighbour_spread(neighbours, r)
    return size_search(g.num_vertices, spread, start, mandatory, images, search._potential_test(neighbours, r))


@st.composite
def orbit_closed_hypergraphs(draw, max_vertices=8, max_edges=6):
    """A hypergraph whose edge set is closed under a random permutation p,
    with p, p**2 and p**3 as its images: automorphisms that need not be
    involutions and may move vertices in long cycles."""
    h = draw(hypergraphs(max_vertices=max_vertices, max_edges=max_edges))
    p = draw(st.permutations(range(h.num_vertices)))
    edges = set()
    for e in h.edges:
        while e not in edges:
            edges.add(e)
            e = tuple(sorted(p[v] for v in e))
    powers = [tuple(p)]
    while len(powers) < 3:
        powers.append(tuple(p[v] for v in powers[-1]))
    return Hypergraph(h.num_vertices, sorted(edges)), powers


@st.composite
def symmetric_instances(draw):
    """A grid graph, grid hypergraph (K with its value transpositions or P,
    equal and unequal axes), hypercube, weak saturation hypergraph or
    orbit-closed hypergraph with a random subset of its images, as (graph
    or hypergraph, r or None, images).  At most 10 vertices, so a plain scan
    of every candidate stays small."""
    kind = draw(st.sampled_from(["grid", "hypercube", "family", "wsat", "orbit"]))
    if kind == "grid":
        dims = draw(st.sampled_from([(4,), (2, 2), (2, 3), (3, 3), (2, 4), (1, 3, 3), (2, 2, 2), (2, 5)]))
        structure, r, images = grid_graph(dims), draw(st.integers(1, 3)), axis_images(dims)
    elif kind == "hypercube":
        d = draw(st.integers(1, 3))
        structure, r, images = hypercube_graph(d), draw(st.integers(1, 3)), axis_images((2,) * d)
    elif kind == "family":
        dims = draw(st.sampled_from([(4,), (3, 3), (2, 4), (2, 2, 2), (3, 2), (2, 5)]))
        thick = tuple(draw(st.integers(2, n)) for n in dims)
        spec = GridSpec(dims, thick, draw(st.integers(1, len(dims))))
        family = draw(st.sampled_from(["K", "P"]))
        structure, r, images = grid_hypergraph(spec, family), None, family_images(spec, family)
    elif kind == "wsat":
        n = draw(st.integers(2, 5))
        structure = weak_saturation_hypergraph(n, draw(st.integers(2, n)))
        r, images = None, weak_saturation_images(n)
    else:
        structure, images = draw(orbit_closed_hypergraphs())
        r = None
    return structure, r, [image for image in images if draw(st.booleans())]


def exhaustive(structure, r, budget=DEFAULT_BUDGET, images=()):
    """The exhaustive search for a hypergraph (r None) or graph."""
    if r is None:
        return min_percolating_exact(structure, budget=budget, images=images)
    return min_r_neighbour_percolating(structure, r, budget=budget, images=images)


def oracle(structure, r):
    return hypergraph_oracle(structure) if r is None else graph_oracle(structure, r)


def instance_size_search(structure, r, images):
    if r is None:
        return hypergraph_size_search(structure, images)
    return graph_size_search(structure, r, images)


def naive_minimum(h):
    """Smallest k such that some k-subset percolates, by a plain scan of
    every subset (no forced vertices, no early structure)."""
    return next(
        k
        for k in range(h.num_vertices + 1)
        if any(percolates(h, c) for c in itertools.combinations(range(h.num_vertices), k))
    )


def potential(g, r, vertices):
    """r|S| - e(S), with e(S) the distinct edges of g that have both ends in S."""
    inside = set(vertices)
    return r * len(inside) - sum(1 for u, w in set(g.edges) if u in inside and w in inside)


class TestMinPercolatingExact:
    def test_small_square_both_families(self):
        spec = GridSpec.cube(3, 2, 2, 2)
        for family in ("K", "P"):
            res = min_percolating_exact(grid_hypergraph(spec, family))
            assert res.minimum == 5
            assert percolates(grid_hypergraph(spec, family), res.witness)

    def test_single_edge_needs_all_but_one(self):
        for t in (2, 3, 5):
            h = Hypergraph(t, [tuple(range(t))])
            res = min_percolating_exact(h)
            assert res.minimum == t - 1

    def test_agrees_with_formula(self):
        for spec in (GridSpec.cube(2, 3, 2, 2), GridSpec.cube(3, 2, 3, 2), GridSpec((3, 4), (2, 3), 1)):
            for family in ("K", "P"):
                res = min_percolating_exact(grid_hypergraph(spec, family))
                assert res.minimum == extremal_size(spec)

    def test_isolated_vertices_are_mandatory(self):
        h = Hypergraph(4, [(0, 1)])
        res = min_percolating_exact(h)
        assert res.minimum == 3
        assert set(res.witness) >= {2, 3}

    def test_empty_hypergraph(self):
        res = min_percolating_exact(Hypergraph(3, []))
        assert res.minimum == 3
        assert res.witness == (0, 1, 2)

    def test_budget_exceeded(self):
        spec = GridSpec.cube(3, 2, 2, 2)
        with pytest.raises(SearchBudgetExceeded):
            min_percolating_exact(grid_hypergraph(spec, "K"), budget=10)
        with pytest.raises(ValueError):
            min_percolating_exact(grid_hypergraph(spec, "K"), budget=-1)

    def test_sizes_below_the_one_under_the_minimum_are_never_walked(self, monkeypatch):
        sizes = []
        walk = search._first_at_size

        def recorder(free, spread, start, full, size, *rest):
            sizes.append(size)
            return walk(free, spread, start, full, size, *rest)

        monkeypatch.setattr(search, "_first_at_size", recorder)
        res = min_percolating_exact(grid_hypergraph(GridSpec.cube(4, 2, 3, 2), "K"))
        assert res.minimum == 12
        assert min(sizes) == 11

    @given(hypergraphs())
    def test_property_minimum_matches_naive_scan(self, h):
        res = min_percolating_exact(h)
        assert len(res.witness) == res.minimum
        assert percolates(h, res.witness)
        assert res.minimum == naive_minimum(h)


def edge_set(h):
    """The vertex count and the sorted edges, so that two builders that list
    the same edges in another order compare equal."""
    return h.num_vertices, sorted(h.edges)


class TestGraphs:
    def test_grid_counts(self):
        g = grid_graph((3, 3))
        assert g.num_vertices == 9
        assert len(g.edges) == 12

    def test_hypercube_counts(self):
        g = hypercube_graph(3)
        assert g.num_vertices == 8
        assert len(g.edges) == 12

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_two_sided_grid_is_hypercube(self, d):
        assert edge_set(grid_graph((2,) * d)) == edge_set(hypercube_graph(d))

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    def test_grid_matches_the_stride_builder(self, dims):
        # Axes of length 1 included, down to the edgeless all-ones grid.
        assert edge_set(grid_graph(dims)) == edge_set(reference_grid_graph(dims))

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=4).filter(lambda dims: max(dims) > 1))
    def test_grid_is_the_p_family_of_its_long_axes(self, dims):
        long = tuple(n for n in dims if n > 1)
        p_family = grid_hypergraph(GridSpec(long, (2,) * len(long), 1), "P")
        assert grid_graph(dims).edges == p_family.edges

    @pytest.mark.parametrize("d", range(1, 9))
    def test_hypercube_matches_the_bit_flip_builder(self, d):
        assert edge_set(hypercube_graph(d)) == edge_set(reference_hypercube_graph(d))

    def test_validation(self):
        # A self-loop becomes a 1-vertex edge, which the r-neighbour process
        # refuses; an id out of range never reaches a hypergraph.
        loop = Hypergraph(3, canonical_edges(3, [(0, 0)]))
        with pytest.raises(ValueError, match=r"edge \[0\] does not have exactly two vertices"):
            r_neighbour_closure(loop, [0], 1)
        with pytest.raises(ValueError):
            canonical_edges(3, [(0, 3)])
        with pytest.raises(ValueError):
            grid_graph(())
        with pytest.raises(ValueError):
            hypercube_graph(0)
        # float axis lengths are rejected, not truncated to a 3 x 3 grid
        with pytest.raises(TypeError):
            grid_graph([3.7, 3])


class TestRNeighbourClosure:
    def test_full_set_is_fixed(self):
        g = grid_graph((3, 3))
        assert r_neighbour_closure(g, range(9), 2) == frozenset(range(9))

    def test_r1_is_reachability(self):
        rng = random.Random(2718)
        for _ in range(30):
            nv = rng.randint(1, 10)
            edges = set()
            for _ in range(rng.randint(0, 14)):
                u, v = rng.sample(range(nv), 2) if nv > 1 else (0, 0)
                if u != v:
                    edges.add((min(u, v), max(u, v)))
            g = Hypergraph(nv, sorted(edges))
            sources = rng.sample(range(nv), rng.randint(0, nv))
            assert r_neighbour_closure(g, sources, 1) == reachable_from(g, sources)

    def test_diagonal_fills_grid(self):
        g = grid_graph((3, 3))
        assert r_neighbour_closure(g, [0, 4, 8], 2) == frozenset(range(9))

    def test_monotone_and_idempotent(self):
        g = grid_graph((4, 4))
        rng = random.Random(31)
        for _ in range(40):
            b = rng.sample(range(16), rng.randint(0, 16))
            a = [v for v in b if rng.random() < 0.6]
            ca, cb = r_neighbour_closure(g, a, 2), r_neighbour_closure(g, b, 2)
            assert ca <= cb
            assert r_neighbour_closure(g, cb, 2) == cb

    def test_validation(self):
        g = grid_graph((2, 2))
        with pytest.raises(ValueError):
            r_neighbour_closure(g, [0], 0)
        with pytest.raises(ValueError):
            r_neighbour_closure(g, [9], 1)
        with pytest.raises(TypeError):
            r_neighbour_closure(g, [0.9, 1.2], 1)


class TestMinRNeighbour:
    def test_cube_full_rank(self):
        res = min_r_neighbour_percolating(hypercube_graph(3), 3)
        assert res.minimum == 4

    def test_square_grid(self):
        res = min_r_neighbour_percolating(grid_graph((3, 3)), 2)
        assert res.minimum == 3

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (2, 3)])
    def test_diagonal_observation(self, n, d):
        res = min_r_neighbour_percolating(grid_graph((n,) * d), d)
        assert res.minimum == n ** (d - 1)

    def test_r1_connected_needs_one(self):
        assert min_r_neighbour_percolating(grid_graph((4, 4)), 1).minimum == 1

    def test_low_degree_vertices_are_mandatory(self):
        # path graph with r=2: both endpoints have degree 1
        g = Hypergraph(4, [(0, 1), (1, 2), (2, 3)])
        res = min_r_neighbour_percolating(g, 2)
        assert set(res.witness) >= {0, 3}

    def test_budget(self):
        with pytest.raises(SearchBudgetExceeded):
            min_r_neighbour_percolating(hypercube_graph(4), 3, budget=5)
        with pytest.raises(ValueError):
            min_r_neighbour_percolating(hypercube_graph(4), 3, budget=-1)

    def test_greedy_upper_bound(self):
        g = hypercube_graph(3)
        witness = greedy_r_neighbour_upper_bound(g, 3, trials=20, seed=0)
        assert r_neighbour_closure(g, witness, 3) == frozenset(range(8))
        assert len(witness) >= 4


@pytest.mark.parametrize(
    "search,args,kwargs",
    [
        (r_neighbour_closure, (grid_graph((3, 3)), [0, 4, 8], 1.5), {}),
        (min_r_neighbour_percolating, (grid_graph((3, 3)), 1.5), {}),
        (greedy_r_neighbour_upper_bound, (grid_graph((3, 3)), 1.5), {}),
        (min_r_neighbour_percolating, (grid_graph((3, 3)), 2), {"budget": 2.5}),
        (min_percolating_exact, (grid_hypergraph(GridSpec.cube(3, 2, 2, 2), "K"),), {"budget": 2.5}),
    ],
    ids=["closure-r", "exhaustive-r", "greedy-r", "exhaustive-budget", "hypergraph-budget"],
)
def test_float_threshold_or_budget_is_rejected(search, args, kwargs):
    # not run as r=2, nor scanned to ceil(budget) candidates
    with pytest.raises(TypeError):
        search(*args, **kwargs)


@pytest.mark.parametrize(
    "run",
    [
        lambda h: r_neighbour_closure(h, [0], 1),
        lambda h: min_r_neighbour_percolating(h, 1),
        lambda h: greedy_r_neighbour_upper_bound(h, 1),
    ],
    ids=["closure", "exhaustive", "greedy"],
)
@pytest.mark.parametrize("edges", [[(0,), (1, 2)], [(0, 1), (0, 1, 2)]], ids=["one-vertex", "three-vertex"])
def test_r_neighbour_edges_have_two_vertices(run, edges):
    with pytest.raises(ValueError, match="does not have exactly two vertices"):
        run(Hypergraph(3, edges))


class TestRepeatedEdges:
    """The r-neighbour process reads a hypergraph as a simple graph: a
    repeated edge counts once, so h and its de-duplicated copy agree."""

    REPEATED = Hypergraph(3, [(0, 1), (0, 1), (1, 2)])

    @given(graphs(), st.integers(1, 3), st.sets(st.integers(0, 7)))
    @example(REPEATED, 2, {0})
    def test_closure(self, h, r, initial):
        initial = {v for v in initial if v < h.num_vertices}
        assert r_neighbour_closure(h, initial, r) == r_neighbour_closure(deduplicated(h), initial, r)

    @given(graphs(), st.integers(1, 3))
    @example(REPEATED, 2)
    def test_search(self, h, r):
        assert min_r_neighbour_percolating(h, r) == min_r_neighbour_percolating(deduplicated(h), r)

    @given(graphs(), st.integers(1, 3), st.sets(st.integers(0, 7)), st.integers(0, 8))
    @example(REPEATED, 1, set(), 0)
    def test_potential(self, h, r, initial, k):
        simple = deduplicated(h)
        state = search._mask(r_neighbour_closure(simple, {v for v in initial if v < h.num_vertices}, r))
        doomed, simple_doomed = (search._potential_test(search._neighbours(g), r) for g in (h, simple))
        assert doomed(state, k) == simple_doomed(state, k)


class TestPotential:
    """The facts behind the r-neighbour prefix test: infecting a vertex with
    at least r infected neighbours never raises r|S| - e(S), and adding any
    one vertex raises it by at most r."""

    @given(graphs(), st.integers(1, 3), st.data())
    def test_never_rises_along_the_closure(self, g, r, data):
        adj = reference_neighbours(g)
        infected = data.draw(st.sets(st.integers(0, g.num_vertices - 1)), label="initial")
        for x in range(g.num_vertices):
            assert potential(g, r, infected | {x}) <= potential(g, r, infected) + r
        expected = r_neighbour_closure(g, infected, r)
        while True:
            ready = [
                v
                for v in range(g.num_vertices)
                if v not in infected and sum(w in infected for w in adj[v]) >= r
            ]
            if not ready:
                break
            before = potential(g, r, infected)
            infected.add(data.draw(st.sampled_from(ready), label="next"))
            assert potential(g, r, infected) <= before
        assert infected == expected

    @given(graphs(), st.integers(1, 3), st.data())
    def test_doomed_states_have_no_percolating_completion(self, g, r, data):
        nv = g.num_vertices
        state = r_neighbour_closure(g, data.draw(st.sets(st.integers(0, nv - 1)), label="initial"), r)
        k = data.draw(st.integers(0, nv), label="picks")
        doomed = search._potential_test(search._neighbours(g), r)(search._mask(state), k)
        assert doomed == (potential(g, r, state) + r * k < r * nv - len(set(g.edges)))
        if doomed:
            for extra in itertools.combinations(range(nv), k):
                assert len(r_neighbour_closure(g, state | set(extra), r)) < nv


class TestFirstAtSize:
    """Each size on its own: the first percolating set of that size, whether
    or not smaller sets percolate."""

    def test_first_vertex_in_the_first_prefix_closure_is_not_skipped(self):
        # {0} percolates, so under the prefix {0} every other vertex lies in
        # the prefix's closure; the first 2- and 3-sets still percolate.
        h = Hypergraph(3, [(0, 2), (1, 2)])
        for budget in range(2, 2**3 + 2):
            assert min_percolating_exact(h, budget=budget) == SearchResult(1, (0,), 2)
        assert min_percolating_exact(h) == SearchResult(1, (0,), 2)
        _, first = hypergraph_size_search(h)
        assert first(2) == (1, [0, 1])
        assert first(3) == (1, [0, 1, 2])

    @given(hypergraphs(max_vertices=9, max_edges=10))
    def test_hypergraph(self, h):
        mandatory, perc = hypergraph_oracle(h)
        free, first = hypergraph_size_search(h)
        for size in range(len(free) + 1):
            assert first(size) == first_percolating(free, mandatory, perc, size)

    @given(graphs(), st.integers(1, 3))
    def test_r_neighbour(self, g, r):
        mandatory, perc = graph_oracle(g, r)
        free, first = graph_size_search(g, r)
        for size in range(len(free) + 1):
            assert first(size) == first_percolating(free, mandatory, perc, size)

    @given(symmetric_instances())
    def test_with_images(self, instance):
        structure, r, images = instance
        mandatory, perc = oracle(structure, r)
        free, first = instance_size_search(structure, r, images)
        for size in range(len(free) + 1):
            assert first(size) == first_percolating(free, mandatory, perc, size)


class TestAgainstPlainScan:
    """The prefix-closure searches and the mask-based greedy bound agree
    exactly with the plain scans over the closure oracles: minimum, witness,
    tested count, and the count a budget exit reports."""

    @given(hypergraphs(max_vertices=9, max_edges=10), st.data())
    def test_exact_search(self, h, data):
        mandatory, perc = hypergraph_oracle(h)
        expected = plain_scan(h.num_vertices, perc, mandatory, DEFAULT_BUDGET)
        assert min_percolating_exact(h) == expected
        budget = data.draw(st.integers(0, 2**h.num_vertices + 1), label="budget")
        assert outcome(min_percolating_exact, h, budget=budget) == outcome(
            plain_scan, h.num_vertices, perc, mandatory, budget
        )

    @given(graphs(), st.integers(1, 3), st.data())
    def test_r_neighbour_search(self, g, r, data):
        mandatory, perc = graph_oracle(g, r)
        expected = plain_scan(g.num_vertices, perc, mandatory, DEFAULT_BUDGET)
        assert min_r_neighbour_percolating(g, r) == expected
        budget = data.draw(st.integers(0, 2**g.num_vertices + 1), label="budget")
        assert outcome(min_r_neighbour_percolating, g, r, budget=budget) == outcome(
            plain_scan, g.num_vertices, perc, mandatory, budget
        )

    @pytest.mark.parametrize(
        "search",
        [
            lambda budget: min_percolating_exact(grid_hypergraph(GridSpec.cube(3, 2, 2, 2), "P"), budget=budget),
            lambda budget: min_percolating_exact(grid_hypergraph(GridSpec.cube(3, 2, 2, 1), "K"), budget=budget),
            lambda budget: min_r_neighbour_percolating(hypercube_graph(3), 2, budget=budget),
            lambda budget: min_r_neighbour_percolating(
                grid_graph((3, 3)), 2, budget=budget, images=axis_images((3, 3))
            ),
            lambda budget: min_percolating_exact(
                grid_hypergraph(GridSpec.cube(3, 2, 2, 2), "P"), budget=budget, images=axis_images((3, 3), (2, 2))
            ),
        ],
    )
    def test_every_budget(self, search):
        # The plain scan stops before candidate budget + 1, reporting budget.
        # Up to 2**9 + 1, one past every candidate of these inputs, so budgets
        # also reach sizes above the minimum.
        full = search(DEFAULT_BUDGET)
        for budget in range(2**9 + 2):
            expected = full if budget >= full.tested else ("budget exceeded", budget, budget)
            assert outcome(search, budget) == expected

    @pytest.mark.parametrize(
        "structure,r,expected",
        [
            # 2 lies in no edge; the size-1 edge infects 0, which completes (0, 1).
            (Hypergraph(3, [(0,), (0, 1)]), None, SearchResult(1, (2,), 1)),
            # 0 and 1 have degree 1 < r; together they infect 2.
            (Hypergraph(3, [(0, 2), (1, 2)]), 2, SearchResult(2, (0, 1), 1)),
        ],
        ids=["hypergraph", "graph"],
    )
    def test_start_calls_no_closure_oracle(self, monkeypatch, structure, r, expected):
        # The start state is spread folded over the forced vertices (and the
        # size-1 edges' vertices), never a closure oracle's answer.
        mandatory, perc = oracle(structure, r)
        assert plain_scan(structure.num_vertices, perc, mandatory, DEFAULT_BUDGET) == expected
        def oracle_called(*args):
            raise AssertionError("a search called a closure oracle")

        # search.closure too, should the name ever be imported again.
        for module, name in ((percolation, "closure"), (search, "closure"), (search, "r_neighbour_closure")):
            monkeypatch.setattr(module, name, oracle_called, raising=False)
        assert exhaustive(structure, r) == expected

    @given(symmetric_instances(), st.data())
    def test_search_with_images(self, instance, data):
        structure, r, images = instance
        mandatory, perc = oracle(structure, r)
        n = structure.num_vertices
        assert exhaustive(structure, r, images=images) == plain_scan(n, perc, mandatory, DEFAULT_BUDGET)
        budget = data.draw(st.integers(0, 2**n + 1), label="budget")
        assert outcome(exhaustive, structure, r, budget, images) == outcome(plain_scan, n, perc, mandatory, budget)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4)])
    def test_grid_graphs_where_the_potential_bound_is_tight(self, dims):
        # With r = 2, r|V| - |E| = n_1 + n_2 and the minimum is
        # (n_1 + n_2) / 2 rounded up: the potential test refutes every size
        # below it and no size above.  Budgets around each size's first
        # position and around the answer's.
        g = grid_graph(dims)
        mandatory, perc = graph_oracle(g, 2)
        expected = plain_scan(g.num_vertices, perc, mandatory, DEFAULT_BUDGET)
        assert expected.minimum == -(-sum(dims) // 2)
        starts = itertools.accumulate(math.comb(g.num_vertices, k) for k in range(expected.minimum + 1))
        budgets = {b + step for b in (0, expected.tested, *starts) for step in (-1, 0, 1) if b + step >= 0}
        for images in ((), axis_images(dims)):
            assert min_r_neighbour_percolating(g, 2, images=images) == expected
            for budget in budgets:
                assert outcome(min_r_neighbour_percolating, g, 2, budget=budget, images=images) == outcome(
                    plain_scan, g.num_vertices, perc, mandatory, budget
                )

    @given(st.one_of(graphs(), st.sampled_from([(4, 4), (3, 5), (2, 2, 3)]).map(grid_graph)), st.integers(1, 3))
    def test_r_neighbour_floor_first(self, g, r):
        # A budget past the potential's floor size walks the floor first.
        # Budgets around the answer's position and each size's first one, and
        # one of 10**18 that reaches every size, keep the plain scan's results
        # and budget exits.
        mandatory, perc = graph_oracle(g, r)
        n = g.num_vertices
        expected = plain_scan(n, perc, mandatory, 10**18)
        starts = itertools.accumulate(math.comb(n - len(mandatory), k) for k in range(n - len(mandatory) + 1))
        budgets = {b + step for b in (0, expected.tested, *starts) for step in (-1, 0, 1) if b + step >= 0}
        for budget in budgets | {10**18}:
            assert outcome(min_r_neighbour_percolating, g, r, budget=budget) == outcome(
                plain_scan, n, perc, mandatory, budget
            )

    @given(graphs(), st.integers(1, 3), st.integers(1, 4), st.integers(0, 1000))
    def test_r_neighbour_greedy(self, g, r, trials, seed):
        _, perc = graph_oracle(g, r)
        assert greedy_r_neighbour_upper_bound(g, r, trials, seed) == plain_greedy(
            g.num_vertices, perc, trials, seed
        )


def counted_spread_calls(monkeypatch):
    """A list that gains one entry per spread call of the r-neighbour searches
    started after this call."""
    calls = []
    make_spread = search._neighbour_spread

    def counting_spread(neighbours, r):
        spread = make_spread(neighbours, r)

        def counted(state, v):
            calls.append(v)
            return spread(state, v)

        return counted

    monkeypatch.setattr(search, "_neighbour_spread", counting_spread)
    return calls


def fail_if_called(*args, **kwargs):
    raise AssertionError("search work started before the images were checked")


class TestImages:
    """Images are checked to be automorphisms before any search work."""

    # Corner 2 and edge midpoint 1 of the 3 x 3 grid swapped: degrees 2 and 3.
    CORNER_MIDPOINT = (0, 2, 1, 3, 4, 5, 6, 7, 8)

    @pytest.mark.parametrize(
        "image",
        [tuple(range(8)), (0, 0, 2, 3, 4, 5, 6, 7, 8), tuple(range(1, 10)), CORNER_MIDPOINT],
        ids=["wrong-length", "repeated-id", "id-out-of-range", "corner-midpoint"],
    )
    def test_non_automorphism_is_rejected(self, monkeypatch, image):
        for name in ("_min_subset_search", "_first_at_size", "_edge_spread", "_neighbour_spread"):
            monkeypatch.setattr(search, name, fail_if_called)
        good = axis_images((3, 3))
        with pytest.raises(ValueError, match="image 1"):
            min_r_neighbour_percolating(grid_graph((3, 3)), 2, images=[good[0], image])
        with pytest.raises(ValueError, match="image 0"):
            min_percolating_exact(grid_hypergraph(GridSpec.cube(3, 2, 2, 2), "P"), images=[image])

    @given(graphs(max_vertices=6), st.data())
    def test_graph_images_are_checked_on_the_adjacent_pairs(self, g, data):
        image = data.draw(st.permutations(range(g.num_vertices)))
        try:
            min_r_neighbour_percolating(g, 1, images=[image])
        except ValueError as exc:
            assert "is not an automorphism" in str(exc)
            accepted = False
        else:
            accepted = True
        assert accepted == reference_keeps_adjacency(g, image)

    def test_accepting_the_corner_midpoint_swap_would_change_the_answer(self, monkeypatch):
        g = grid_graph((3, 3))
        expected = min_r_neighbour_percolating(g, 2)
        assert expected == SearchResult(3, (0, 2, 6), 57)
        assert min_r_neighbour_percolating(g, 2, images=axis_images((3, 3))) == expected
        monkeypatch.setattr(
            search, "_image_bits", lambda images, *rest: [[1 << w for w in image] for image in images]
        )
        unchecked = min_r_neighbour_percolating(g, 2, images=[self.CORNER_MIDPOINT])
        assert unchecked != expected
        assert unchecked.tested == 68

    @pytest.mark.parametrize(
        "search_fn, structure, forced, moved, automorphisms",
        [
            # The 3 x 3 grid graph with r = 3: the corners have degree 2.  The
            # permutations move the 7 vertices other than the centre and
            # corner 8; the identity and the 0-4-8 diagonal flip are accepted.
            (lambda g, images: min_r_neighbour_percolating(g, 3, images=images),
             grid_graph((3, 3)), {0, 2, 6, 8}, [0, 1, 2, 3, 5, 6, 7], 2),
            # Vertices 5 and 6 lie in no edge; 0 <-> 1, 3 <-> 4, the swap of the
            # two edges and 5 <-> 6 generate 16 automorphisms.
            (lambda h, images: min_percolating_exact(h, images=images),
             Hypergraph(7, [(0, 1, 2), (2, 3, 4)]), {5, 6}, list(range(7)), 16),
        ],
        ids=["grid-r3", "hypergraph"],
    )
    def test_accepted_images_map_forced_vertices_onto_themselves(
        self, search_fn, structure, forced, moved, automorphisms
    ):
        accepted = 0
        for targets in itertools.permutations(moved):
            image = list(range(structure.num_vertices))
            for v, w in zip(moved, targets):
                image[v] = w
            try:
                search_fn(structure, [image])
            except ValueError:
                continue
            accepted += 1
            assert {image[v] for v in forced} == forced
        assert accepted == automorphisms

    @pytest.mark.parametrize(
        "spec",
        [
            GridSpec((4, 5), (2, 4), 2),
            GridSpec((5, 3), (3, 2), 1),
            GridSpec((3, 4), (3, 2), 2),
            GridSpec.cube(3, 3, 2, 2),
        ],
    )
    def test_value_transpositions_keep_k_and_break_p_intervals(self, monkeypatch, spec):
        # Every K value transposition x_k = j <-> j + 1 is accepted.  On P it
        # keeps the intervals of an axis only when none ends at j or starts at
        # j + 1, that is when n - t < j < t: never for t <= (n + 1) / 2, always
        # for t = n.
        monkeypatch.setattr(search, "_min_subset_search", lambda *args: "searched")
        transpositions = family_images(spec, "K")[len(axis_images(spec.dims, spec.thick)):]
        swaps = [(n, t, j) for n, t in zip(spec.dims, spec.thick) for j in range(1, n)]
        assert len(transpositions) == len(swaps)
        k_family, p_family = grid_hypergraph(spec, "K"), grid_hypergraph(spec, "P")
        for image, (n, t, j) in zip(transpositions, swaps):
            assert min_percolating_exact(k_family, images=[image]) == "searched"
            if n - t < j < t:
                assert min_percolating_exact(p_family, images=[image]) == "searched"
            else:
                with pytest.raises(ValueError, match="not an automorphism"):
                    min_percolating_exact(p_family, images=[image])

    def test_four_cube_search_uses_its_symmetries(self, monkeypatch, capsys):
        # r|V| - |E| = 2 * 16 - 32 = 0, so the potential test prunes nothing
        # here and the gap is the images' alone.
        calls = counted_spread_calls(monkeypatch)
        min_r_neighbour_percolating(hypercube_graph(4), 2)
        plain = len(calls)
        calls.clear()
        assert cli.main(["rneighbour", "--hypercube", "4", "--r", "2", "--exhaustive"]) == 0
        assert '"minimum": 3' in capsys.readouterr().out
        assert 0 < len(calls) < plain

    def test_six_by_six_search_closure_count(self, monkeypatch, capsys):
        # 239,239 spread calls with neither rule.  The potential test refutes
        # every size below 6 before any closure, so the search walks size 6
        # first; its first percolating set takes 11, and size 7 is never
        # searched.
        calls = counted_spread_calls(monkeypatch)
        assert cli.main(["rneighbour", "--grid", "6,6", "--r", "2", "--exhaustive"]) == 0
        assert '"minimum": 6' in capsys.readouterr().out
        assert len(calls) == 11
