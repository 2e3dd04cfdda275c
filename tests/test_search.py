import itertools
import math
import random
from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridperc import cli, search
from gridperc.grid import GridSpec, axis_images, extremal_size
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
from oracles import reference_grid_graph, reference_hypercube_graph, reference_keeps_adjacency


def reachable_from(g, sources):
    seen = set(sources)
    queue = deque(sources)
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
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
    nv = draw(st.integers(1, max_vertices))
    pairs = list(itertools.combinations(range(nv), 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=max_edges)) if pairs else []
    return Graph(nv, edges)


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
    mandatory = [v for v in range(g.num_vertices) if len(g.adj[v]) < r]
    return mandatory, lambda cand: len(r_neighbour_closure(g, cand, r)) == g.num_vertices


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


def size_search(num_vertices, spread, start, mandatory, images):
    """The free vertices and _first_at_size bound to one process and its
    images."""
    free = [v for v in range(num_vertices) if v not in mandatory]
    full = (1 << num_vertices) - 1
    bits = [[1 << w for w in image] for image in images]

    def first(size, limit=math.inf):
        return search._first_at_size(free, spread, start, full, size, limit, bits)

    return free, first


def hypergraph_size_search(h, images=()):
    mandatory, _ = hypergraph_oracle(h)
    start = search._mask(closure(h, mandatory).final)
    return size_search(h.num_vertices, search._edge_spread(h), start, mandatory, images)


def graph_size_search(g, r, images=()):
    mandatory, _ = graph_oracle(g, r)
    start = search._mask(r_neighbour_closure(g, mandatory, r))
    return size_search(g.num_vertices, search._neighbour_spread(g, r), start, mandatory, images)


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
    """A grid graph, grid hypergraph (K or P, equal and unequal axes),
    hypercube, weak saturation hypergraph or orbit-closed hypergraph with a
    random subset of its images, as (graph or hypergraph, r or None,
    images).  At most 10 vertices, so a plain scan of every candidate stays
    small."""
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
        structure = grid_hypergraph(spec, draw(st.sampled_from(["K", "P"])))
        r, images = None, axis_images(dims, thick)
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

        def recorder(free, spread, start, full, size, limit, images):
            sizes.append(size)
            return walk(free, spread, start, full, size, limit, images)

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


class TestGraphs:
    def test_grid_counts(self):
        g = grid_graph((3, 3))
        assert g.num_vertices == 9
        assert g.num_edges == 12

    def test_hypercube_counts(self):
        g = hypercube_graph(3)
        assert g.num_vertices == 8
        assert g.num_edges == 12

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_two_sided_grid_is_hypercube(self, d):
        assert grid_graph((2,) * d).adj == hypercube_graph(d).adj

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    def test_grid_matches_the_stride_builder(self, dims):
        # Axes of length 1 included, down to the edgeless all-ones grid.
        assert grid_graph(dims).adj == reference_grid_graph(dims).adj

    @pytest.mark.parametrize("d", range(1, 9))
    def test_hypercube_matches_the_bit_flip_builder(self, d):
        assert hypercube_graph(d).adj == reference_hypercube_graph(d).adj

    def test_validation(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 0)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])
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
            g = Graph(nv, edges)
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
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
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

    @given(symmetric_instances(), st.data())
    def test_search_with_images(self, instance, data):
        structure, r, images = instance
        mandatory, perc = oracle(structure, r)
        n = structure.num_vertices
        assert exhaustive(structure, r, images=images) == plain_scan(n, perc, mandatory, DEFAULT_BUDGET)
        budget = data.draw(st.integers(0, 2**n + 1), label="budget")
        assert outcome(exhaustive, structure, r, budget, images) == outcome(plain_scan, n, perc, mandatory, budget)

    @given(graphs(), st.integers(1, 3), st.integers(1, 4), st.integers(0, 1000))
    def test_r_neighbour_greedy(self, g, r, trials, seed):
        _, perc = graph_oracle(g, r)
        assert greedy_r_neighbour_upper_bound(g, r, trials, seed) == plain_greedy(
            g.num_vertices, perc, trials, seed
        )


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
        for name in ("_min_subset_search", "_first_at_size", "closure", "r_neighbour_closure"):
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

    def test_six_by_six_search_uses_the_square_symmetries(self, monkeypatch, capsys):
        # 239,239 spread calls with no images; the CLI passes the square's.
        calls = 0
        make_spread = search._neighbour_spread

        def counting_spread(g, r):
            spread = make_spread(g, r)

            def counted(state, v):
                nonlocal calls
                calls += 1
                return spread(state, v)

            return counted

        monkeypatch.setattr(search, "_neighbour_spread", counting_spread)
        assert cli.main(["rneighbour", "--grid", "6,6", "--r", "2", "--exhaustive"]) == 0
        assert '"minimum": 6' in capsys.readouterr().out
        assert calls < 120_000

