import itertools
import random
import re
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridperc import grid, percolation
from gridperc.certificate import audit_percolating_set, certified_lower_bound
from gridperc.grid import (
    GridSpec,
    count_edges,
    encode_vertex,
    enumerate_edges,
    extremal_set,
)
from gridperc.percolation import (
    Hypergraph,
    canonical_edges,
    closure,
    grid_hypergraph,
    parse_hypergraph,
    percolates,
    weak_saturation_hypergraph,
    weak_saturation_images,
)
from gridperc.search import min_percolating_exact
from oracles import format_hypergraph, reference_closure


def replay_trace(h, result):
    """Independent trace validator: each step's witness edge must have every
    other vertex already infected, and the replay must land on `final`."""
    infected = set(result.initial)
    for v, e_idx in result.trace:
        assert v not in infected
        edge = set(h.edges[e_idx])
        assert v in edge
        assert edge - {v} <= infected
        infected.add(v)
    assert infected == set(result.final)


def random_hypergraph(rng, max_vertices=10, max_edges=12):
    nv = rng.randint(1, max_vertices)
    ne = rng.randint(0, max_edges)
    edges = []
    for _ in range(ne):
        size = rng.randint(1, min(4, nv))
        edges.append(rng.sample(range(nv), size))
    return Hypergraph(nv, canonical_edges(nv, edges))


@st.composite
def hypergraphs(draw, max_vertices=10, max_edges=12):
    nv = draw(st.integers(1, max_vertices))
    edge = st.lists(st.integers(0, nv - 1), min_size=1, max_size=min(4, nv))
    return Hypergraph(nv, canonical_edges(nv, draw(st.lists(edge, max_size=max_edges))))


@st.composite
def small_grid_specs(draw):
    """Grid specs with d <= 3 axes of length at most 4."""
    dims = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
    thick = [draw(st.integers(2, n)) for n in dims]
    return GridSpec(tuple(dims), tuple(thick), draw(st.integers(1, len(dims))))


class TestHypergraph:
    def test_validation(self):
        # A text edge line is never empty: blank lines are skipped.
        cases = [
            (3, [[0, 3]], "p 3 1\n3 0\n", "edge [0, 3] has a vertex outside [0, 3)"),
            (3, [[-1]], "p 3 1\n-1\n", "edge [-1] has a vertex outside [0, 3)"),
            (3, [[]], None, "empty hyperedge"),
            (-1, [], "p -1 0\n", "negative vertex count -1"),
        ]
        for num_vertices, edges, text, message in cases:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                canonical_edges(num_vertices, edges)
            if text is not None:
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    parse_hypergraph(text)

    def test_canonicalization(self):
        assert canonical_edges(4, [[2, 0, 2, 1], (3,)]) == [(0, 1, 2), (3,)]
        for h in (Hypergraph(4, canonical_edges(4, [[2, 0, 2, 1]])), parse_hypergraph("p 4 1\n2 0 2 1\n")):
            assert h.edges == ((0, 1, 2),)
            assert h.incident[0] == (0,)
            assert h.incident[3] == ()

    @given(small_grid_specs(), st.sampled_from(["K", "P"]))
    def test_property_grid_ids_are_canonical(self, spec, family):
        # grid_hypergraph passes these ids to the constructor unchecked.
        for edge in enumerate_edges(spec, family):
            ids = edge[3]
            assert type(ids) is tuple
            assert all(a < b for a, b in zip(ids, ids[1:]))
            assert 0 <= ids[0] and ids[-1] < spec.num_vertices

    @pytest.mark.parametrize("n", range(2, 8))
    def test_weak_saturation_ids_are_canonical(self, n):
        for k in range(2, n + 1):
            h = weak_saturation_hypergraph(n, k)
            for e in h.edges:
                assert type(e) is tuple
                assert all(a < b for a, b in zip(e, e[1:]))
                assert 0 <= e[0] and e[-1] < h.num_vertices
            validated = Hypergraph(h.num_vertices, canonical_edges(h.num_vertices, h.edges))
            assert (h.edges, h.incident) == (validated.edges, validated.incident)

    @given(small_grid_specs(), st.sampled_from(["K", "P"]))
    def test_property_trusted_build_equals_validated_build(self, spec, family):
        ids = [edge[3] for edge in enumerate_edges(spec, family)]
        trusted = grid_hypergraph(spec, family)
        validated = Hypergraph(spec.num_vertices, canonical_edges(spec.num_vertices, ids))
        assert trusted.num_vertices == validated.num_vertices
        assert trusted.edges == validated.edges
        assert trusted.incident == validated.incident

    def test_builders_never_validate(self, monkeypatch):
        # Builders of trusted ids skip canonical_edges; only outside input
        # pays for it.  The audit below is one operation of the benchmark's
        # audit workload.
        def forbidden(*args):
            raise AssertionError("canonical_edges called")

        monkeypatch.setattr(percolation, "canonical_edges", forbidden)
        spec = GridSpec.cube(3, 3, 2, 2)
        for family in ("K", "P"):
            assert len(grid_hypergraph(spec, family).edges) == count_edges(spec, family)
        assert len(weak_saturation_hypergraph(6, 4).edges) == 15
        cert = certified_lower_bound(spec, "K")
        for family in ("K", "P"):
            assert audit_percolating_set(cert, extremal_set(spec), family=family).ok
        with pytest.raises(AssertionError, match="canonical_edges called"):
            parse_hypergraph("p 2 1\n0 1\n")


class TestClosure:
    def test_no_edges(self):
        h = Hypergraph(4, [])
        res = closure(h, [0, 2])
        assert res.final == {0, 2}
        assert res.trace == ()

    def test_single_edge_fires(self):
        h = Hypergraph(3, [(0, 1, 2)])
        res = closure(h, [0, 1])
        assert res.final == {0, 1, 2}
        assert res.trace == ((2, 0),)

    def test_extremal_set_fills_interval_grid(self):
        spec = GridSpec.cube(3, 2, 2, 2)
        h = grid_hypergraph(spec, "P")
        ids = [encode_vertex(spec, v) for v in extremal_set(spec)]
        res = closure(h, ids)
        assert len(res.final) == 9
        replay_trace(h, res)

    def test_out_of_range(self):
        h = Hypergraph(3, [(0, 1)])
        with pytest.raises(ValueError):
            closure(h, [3])

    def test_non_integer_ids_rejected(self):
        h = Hypergraph(3, [(0, 1, 2)])
        with pytest.raises(TypeError):
            closure(h, [0.9, 1.2])
        with pytest.raises(TypeError):
            closure(h, ["0"])

    def test_size_one_edges_fire_unconditionally(self):
        h = Hypergraph(3, [(1,), (0, 2)])
        res = closure(h, [])
        assert res.final == {1}
        res = closure(h, [0])
        assert res.final == {0, 1, 2}

    def test_percolates(self):
        h = Hypergraph(3, [(0, 1, 2)])
        assert percolates(h, [0, 1, 2])
        assert percolates(h, [0, 1])
        assert not percolates(h, [0])

    def test_extremal_minus_one_never_percolates(self):
        spec = GridSpec.cube(3, 2, 2, 2)
        h = grid_hypergraph(spec, "K")
        ids = [encode_vertex(spec, v) for v in extremal_set(spec)]
        assert percolates(h, ids)
        for drop in ids:
            assert not percolates(h, [v for v in ids if v != drop])

    def test_monotone_and_idempotent(self):
        rng = random.Random(20240)
        for _ in range(150):
            h = random_hypergraph(rng)
            b = rng.sample(range(h.num_vertices), rng.randint(0, h.num_vertices))
            a = [v for v in b if rng.random() < 0.6]
            res_a, res_b = closure(h, a), closure(h, b)
            assert res_a.final <= res_b.final
            again = closure(h, res_b.final)
            assert again.final == res_b.final
            assert again.trace == ()
            replay_trace(h, res_b)

    def test_order_independent(self):
        rng = random.Random(77)
        for _ in range(80):
            h = random_hypergraph(rng)
            a = rng.sample(range(h.num_vertices), rng.randint(0, h.num_vertices))
            expected = closure(h, a).final
            # reorder the edges and the ids within each, repeating some ids
            perm = [rng.sample(e, len(e)) + rng.sample(e, rng.randint(0, len(e))) for e in h.edges]
            rng.shuffle(perm)
            shuffled = Hypergraph(h.num_vertices, canonical_edges(h.num_vertices, perm))
            res = closure(shuffled, a)
            assert res.final == expected
            replay_trace(shuffled, res)

    @given(hypergraphs(), st.data())
    def test_property_initial_order_invariant(self, h, data):
        initial = data.draw(st.lists(st.integers(0, h.num_vertices - 1), unique=True))
        shuffled = data.draw(st.permutations(initial))
        assert closure(h, shuffled).final == closure(h, initial).final

    @given(hypergraphs(), st.data())
    def test_property_matches_scanning_reference(self, h, data):
        # repeated, unordered ids; hypergraphs() draws size-1 edges too
        initial = data.draw(st.lists(st.integers(0, h.num_vertices - 1)))
        assert closure(h, initial) == reference_closure(h, initial)

    @given(hypergraphs(), st.data())
    def test_property_monotone_and_idempotent(self, h, data):
        vertex_sets = st.frozensets(st.integers(0, h.num_vertices - 1))
        a = data.draw(vertex_sets)
        b = a | data.draw(vertex_sets)
        final_a = closure(h, a).final
        assert final_a <= closure(h, b).final
        assert closure(h, final_a).final == final_a

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_four_cycle_process_on_square_grids(self, n):
        # 2x2-square infection on [n]^2: the extremal set fills the grid
        spec = GridSpec.cube(n, 2, 2, 2)
        h = grid_hypergraph(spec, "P")
        ids = [encode_vertex(spec, v) for v in extremal_set(spec)]
        assert percolates(h, ids)


class TestWeakSaturation:
    def test_counts(self):
        h = weak_saturation_hypergraph(4, 3)
        assert h.num_vertices == 6
        assert len(h.edges) == 4
        assert all(len(e) == 3 for e in h.edges)
        h = weak_saturation_hypergraph(5, 3)
        assert h.num_vertices == 10
        assert len(h.edges) == 10

    def test_minimum_on_k4(self):
        res = min_percolating_exact(weak_saturation_hypergraph(4, 3))
        assert res.minimum == 3

    @pytest.mark.parametrize("n,k", [(2, 2), (4, 3), (5, 3), (5, 4), (6, 4)])
    def test_images_are_adjacent_vertex_transpositions(self, n, k):
        pairs = list(itertools.combinations(range(n), 2))
        images = weak_saturation_images(n)
        assert len(images) == n - 1
        edges = set(weak_saturation_hypergraph(n, k).edges)
        for i, image in enumerate(images):
            swap = {i: i + 1, i + 1: i}
            for p, q in zip(pairs, image):
                assert pairs[q] == tuple(sorted(swap.get(a, a) for a in p))
            assert {tuple(sorted(image[v] for v in e)) for e in edges} == edges

    def test_validation(self):
        with pytest.raises(ValueError):
            weak_saturation_hypergraph(3, 4)
        with pytest.raises(ValueError):
            weak_saturation_hypergraph(4, 1)


class TestTextFormat:
    def test_roundtrip(self):
        h = Hypergraph(5, [(0, 1, 4), (2,), (1, 3)])
        text = format_hypergraph(h)
        assert text.splitlines()[0] == "p 5 3"
        back = parse_hypergraph(text)
        assert back.num_vertices == 5
        assert back.edges == h.edges

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_hypergraph("q 3 1\n0 1\n")
        with pytest.raises(ValueError):
            parse_hypergraph("p 3 2\n0 1\n")
        with pytest.raises(ValueError):
            parse_hypergraph("p 3 1\n0 x\n")
        with pytest.raises(ValueError):
            parse_hypergraph("p 3 1\n0 7\n")

    @given(hypergraphs())
    def test_property_roundtrip(self, h):
        back = parse_hypergraph(format_hypergraph(h))
        assert back.num_vertices == h.num_vertices
        assert back.edges == h.edges

    def test_blank_lines_ignored(self):
        back = parse_hypergraph("p 3 1\n\n0 1 2\n\n")
        assert back.edges == ((0, 1, 2),)


class TestGridHypergraph:
    def test_built_without_edge_objects_or_codec(self):
        spec = GridSpec.cube(3, 3, 2, 2)
        forbidden = mock.Mock(side_effect=AssertionError("called"))
        with mock.patch.object(grid, "encode_vertex", forbidden):
            h = grid_hypergraph(spec, "K")
        assert len(h.edges) == count_edges(spec, "K")
        assert h.edges == tuple(e[3] for e in enumerate_edges(spec, "K"))
        forbidden.assert_not_called()

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            grid_hypergraph(GridSpec.cube(3, 2, 2, 2), "Q")

    @given(small_grid_specs(), st.data())
    def test_property_p_closure_lies_in_k_closure(self, spec, data):
        # Every P edge is a K edge, so a set that percolates under P
        # percolates under K; certified minperc checks its witness on P alone.
        initial = data.draw(st.frozensets(st.integers(0, spec.num_vertices - 1)))
        assert closure(grid_hypergraph(spec, "P"), initial).final <= closure(grid_hypergraph(spec, "K"), initial).final
