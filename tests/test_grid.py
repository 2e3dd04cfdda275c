import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridperc.grid import (
    FAMILIES,
    GridSpec,
    axis_images,
    axis_value_sets,
    count_edges,
    decode_vertex,
    encode_vertex,
    enumerate_edges,
    extremal_set,
    extremal_size,
    family_images,
    vertices,
)
import oracles
from oracles import extremal_schedule_failure


def edge_vertices(spec, edge):
    """The vertex tuples of an enumerated edge, decoded from its ids."""
    return [decode_vertex(spec, i) for i in edge[3]]


def oracle_is_edge(spec, family, vertex_set):
    """Independent edge test: scan a candidate vertex set directly against the
    definition (per-axis value sets, exactly r of thickness size, full product,
    intervals for P)."""
    values = [sorted({v[k] for v in vertex_set}) for k in range(spec.d)]
    varying = [k for k, vals in enumerate(values) if len(vals) > 1]
    if len(varying) != spec.r:
        return False
    for k in varying:
        t = spec.thick[k]
        if len(values[k]) != t:
            return False
        if family == "P" and values[k] != list(range(values[k][0], values[k][0] + t)):
            return False
    return set(vertex_set) == set(itertools.product(*values))


def oracle_edges(spec, family):
    """All edges found by brute-force scan over vertex subsets of the possible
    sizes."""
    all_vertices = list(vertices(spec))
    sizes = set()
    for axes in itertools.combinations(range(spec.d), spec.r):
        size = 1
        for k in axes:
            size *= spec.thick[k]
        sizes.add(size)
    found = set()
    for size in sorted(sizes):
        for subset in itertools.combinations(all_vertices, size):
            if oracle_is_edge(spec, family, subset):
                found.add(frozenset(subset))
    return found


SMALL_SPECS = [
    GridSpec.cube(3, 2, 2, 2),
    GridSpec.cube(3, 2, 3, 1),
    GridSpec.cube(2, 3, 2, 2),
    GridSpec.cube(4, 2, 3, 2),
    GridSpec((3, 4), (2, 3), 1),
    GridSpec((3, 4), (2, 3), 2),
    GridSpec((2, 3, 4), (2, 2, 3), 2),
]


@st.composite
def grid_specs(draw, max_d=3, max_n=4):
    """Valid specs with mixed thicknesses, any r, d <= max_d and axis lengths
    <= max_n (by default at most 64 cells)."""
    d = draw(st.integers(1, max_d))
    dims = draw(st.lists(st.integers(2, max_n), min_size=d, max_size=d))
    thick = [draw(st.integers(2, n)) for n in dims]
    return GridSpec(tuple(dims), tuple(thick), draw(st.integers(1, d)))


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec((), (), 1)
        with pytest.raises(ValueError):
            GridSpec((1, 3), (2, 2), 1)
        with pytest.raises(ValueError):
            GridSpec((3, 3), (2, 4), 1)
        with pytest.raises(ValueError):
            GridSpec((3, 3), (1, 2), 1)
        with pytest.raises(ValueError):
            GridSpec((3, 3), (2, 2), 3)
        with pytest.raises(ValueError):
            GridSpec((3, 3), (2, 2), 0)
        with pytest.raises(ValueError):
            GridSpec((3, 3), (2,), 1)

    def test_non_integer_values_rejected(self):
        with pytest.raises(TypeError):
            GridSpec((3.7, 3), (2, 2), 2)
        with pytest.raises(TypeError):
            GridSpec((3, 3), (2, 2.9), 2)
        with pytest.raises(TypeError):
            GridSpec((3, 3), (2, 2), 1.5)
        with pytest.raises(TypeError):
            GridSpec((3, 3), (2, 2), 2.0)
        with pytest.raises(TypeError):
            GridSpec(("3", 3), (2, 2), 2)


class TestCodec:
    def test_origin_maps_to_zero(self):
        assert encode_vertex(GridSpec.cube(3, 2, 2, 1), (1, 1)) == 0

    def test_row_major_example(self):
        assert encode_vertex(GridSpec.cube(3, 2, 2, 1), (2, 3)) == 5

    def test_decode_last(self):
        assert decode_vertex(GridSpec.cube(2, 3, 2, 1), 7) == (2, 2, 2)

    @pytest.mark.parametrize("spec", SMALL_SPECS)
    def test_roundtrip_exhaustive(self, spec):
        for i in range(spec.num_vertices):
            assert encode_vertex(spec, decode_vertex(spec, i)) == i
        for i, v in enumerate(vertices(spec)):
            assert encode_vertex(spec, v) == i

    def test_out_of_range(self):
        spec = GridSpec.cube(3, 2, 2, 1)
        with pytest.raises(ValueError):
            encode_vertex(spec, (0, 1))
        with pytest.raises(ValueError):
            encode_vertex(spec, (1, 4))
        with pytest.raises(ValueError):
            encode_vertex(spec, (1, 1, 1))
        with pytest.raises(ValueError):
            decode_vertex(spec, 9)
        with pytest.raises(ValueError):
            decode_vertex(spec, -1)

    def test_non_integer_rejected(self):
        spec = GridSpec((3, 3), (2, 2), 2)
        with pytest.raises(TypeError):
            decode_vertex(spec, 1.5)
        with pytest.raises(TypeError):
            encode_vertex(spec, (1.5, 2))
        with pytest.raises(TypeError):
            encode_vertex(spec, (2.0, 2))


class TestEdges:
    def test_counts_match_oracle(self):
        # frozen values computed by the brute-force subset scan
        cases = [
            (GridSpec.cube(3, 2, 2, 2), "K", 9),
            (GridSpec.cube(3, 2, 2, 2), "P", 4),
            (GridSpec.cube(4, 3, 2, 1), "K", 288),
        ]
        for spec, family, expected in cases:
            edges = list(enumerate_edges(spec, family))
            assert len(edges) == expected
            assert count_edges(spec, family) == expected
            assert {frozenset(edge_vertices(spec, e)) for e in edges} == oracle_edges(spec, family)

    def test_single_edge_line(self):
        spec = GridSpec.cube(2, 1, 2, 1)
        edges = list(enumerate_edges(spec, "K"))
        assert len(edges) == 1
        assert edges[0] == ((1,), ((1, 2),), (), (0, 1))
        assert edge_vertices(spec, edges[0]) == [(1,), (2,)]

    @pytest.mark.parametrize("spec", SMALL_SPECS)
    @pytest.mark.parametrize("family", ["K", "P"])
    def test_count_matches_enumeration(self, spec, family):
        edges = list(enumerate_edges(spec, family))
        assert len(edges) == count_edges(spec, family)
        # every edge yielded exactly once
        keys = [e[:3] for e in edges]
        assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("spec", SMALL_SPECS)
    def test_interval_family_is_subfamily(self, spec):
        k_sets = {e[3] for e in enumerate_edges(spec, "K")}
        for e in enumerate_edges(spec, "P"):
            assert e[3] in k_sets

    @given(grid_specs())
    def test_property_count_and_subfamily(self, spec):
        k_edges = [frozenset(edge_vertices(spec, e)) for e in enumerate_edges(spec, "K")]
        p_edges = [frozenset(edge_vertices(spec, e)) for e in enumerate_edges(spec, "P")]
        assert count_edges(spec, "K") == len(k_edges)
        assert count_edges(spec, "P") == len(p_edges)
        assert set(p_edges) <= set(k_edges)

    @pytest.mark.parametrize("spec", SMALL_SPECS)
    def test_edge_expansion_size(self, spec):
        for varying, values, fixed, ids in enumerate_edges(spec, "K"):
            assert len(varying) == spec.r
            assert len(varying) + len(fixed) == spec.d
            assert len(ids) == len(set(ids)) == math.prod(len(vals) for vals in values)

    def test_deterministic_order(self):
        spec = GridSpec.cube(3, 2, 2, 1)
        first = list(enumerate_edges(spec, "P"))
        second = list(enumerate_edges(spec, "P"))
        assert first == second
        # varying axis sets appear in lexicographic blocks
        assert first[0][0] == (1,)
        assert first[-1][0] == (2,)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            count_edges(GridSpec.cube(3, 2, 2, 2), "Q")
        with pytest.raises(ValueError):
            next(enumerate_edges(GridSpec.cube(3, 2, 2, 2), "Q"))
        with pytest.raises(ValueError):
            next(axis_value_sets(3, 2, "Q"))

    @settings(max_examples=60)
    @given(grid_specs(max_d=4, max_n=5), st.sampled_from(FAMILIES))
    def test_property_ids_match_codec(self, spec, family):
        # The codec applied to the product of each edge's labelled axis values
        # is the oracle for the stride arithmetic.
        edges = list(enumerate_edges(spec, family))
        assert len(edges) == count_edges(spec, family)
        assert len({e[:3] for e in edges}) == len(edges)
        for varying, values, fixed, ids in edges:
            fixed_axes = [k for k in range(1, spec.d + 1) if k not in varying]
            labelled = dict(zip(varying, values)) | {k: (x,) for k, x in zip(fixed_axes, fixed)}
            axis_values = [labelled[k] for k in range(1, spec.d + 1)]
            assert ids == tuple(sorted(encode_vertex(spec, v) for v in itertools.product(*axis_values)))
            assert all(a < b for a, b in zip(ids, ids[1:]))

    def test_count_matches_enumeration_large(self):
        spec = GridSpec((10, 10), (3, 4), 2)
        assert count_edges(spec, "K") == 120 * 210 == sum(1 for _ in enumerate_edges(spec, "K"))
        assert count_edges(spec, "P") == 8 * 7 == sum(1 for _ in enumerate_edges(spec, "P"))


class TestExtremal:
    def test_example_grid(self):
        spec = GridSpec.cube(3, 2, 2, 2)
        assert set(extremal_set(spec)) == {(1, 1), (1, 2), (1, 3), (2, 1), (3, 1)}

    def test_zero_large_allowed(self):
        spec = GridSpec.cube(2, 3, 2, 1)
        assert extremal_set(spec) == [(1, 1, 1)]

    def test_inhomogeneous_thresholds(self):
        spec = GridSpec((3, 4), (2, 3), 2)
        u = extremal_set(spec)
        assert len(u) == 8
        excluded = [v for v in vertices(spec) if v[0] >= 2 and v[1] >= 3]
        assert len(excluded) == 4
        assert set(u) == set(vertices(spec)) - set(excluded)

    def test_sizes(self):
        assert extremal_size(GridSpec.cube(3, 2, 2, 2)) == 5
        assert extremal_size(GridSpec.cube(5, 3, 3, 2)) == 44
        assert extremal_size(GridSpec((3, 4), (2, 3), 2)) == 8
        assert extremal_size(GridSpec.cube(2, 4, 2, 1)) == 1

    @pytest.mark.parametrize("spec", SMALL_SPECS + [GridSpec.cube(10, 2, 4, 2), GridSpec((9, 11), (3, 5), 1)])
    def test_size_matches_set(self, spec):
        assert len(extremal_set(spec)) == extremal_size(spec)

    @given(grid_specs(max_d=5))
    def test_property_set_equals_the_vertex_filter(self, spec):
        # Same vertices, same row-major order, no repeats.
        assert extremal_set(spec) == oracles.reference_extremal_set(spec)

    @given(grid_specs())
    def test_property_schedule_infects_every_vertex_outside_u(self, spec):
        assert extremal_schedule_failure(spec) is None

    def test_schedule_checker_needs_the_schedule_edge(self, monkeypatch):
        # On 3^2/t=2/r=2 the last "P" edge, {2, 3} x {2, 3}, is the schedule
        # edge of (3, 3) alone.
        spec = GridSpec.cube(3, 2, 2, 2)
        edges = list(enumerate_edges(spec, "P"))
        monkeypatch.setattr(oracles, "enumerate_edges", lambda spec, family: edges[:-1])
        assert extremal_schedule_failure(spec) == (3, 3)

    def test_full_rank_closed_form(self):
        # with r = d the sum telescopes to n^d - (n + 1 - t)^d
        for n in range(2, 11):
            for t in range(2, n + 1):
                for d in range(1, 7):
                    spec = GridSpec.cube(n, d, t, d)
                    assert extremal_size(spec) == n**d - (n + 1 - t) ** d


class TestClosedFormsAtScale:
    # Both counts are coefficients of one product over the axes, O(d^2); the
    # axis-subset sums they replace took seconds at d = 22 and did not finish
    # at d = 30, r = 15.
    def test_headline_specs(self):
        assert count_edges(GridSpec.cube(2, 30, 2, 15), "K") == math.comb(30, 15) * 2**15
        assert extremal_size(GridSpec.cube(3, 60, 2, 60)) == 3**60 - 2**60

    @pytest.mark.parametrize("d", [1, 2, 5, 13, 40])
    def test_cubes_match_the_binomial_sums(self, d):
        for n in (2, 3, 6):
            for t in range(2, n + 1):
                for r in range(1, d + 1):
                    spec = GridSpec.cube(n, d, t, r)
                    assert extremal_size(spec) == sum(
                        math.comb(d, s) * (t - 1) ** (d - s) * (n + 1 - t) ** s for s in range(r)
                    )
                    for family, ways in (("K", math.comb(n, t)), ("P", n - t + 1)):
                        assert count_edges(spec, family) == math.comb(d, r) * ways**r * n ** (d - r)


class TestAxisImages:
    @given(grid_specs())
    def test_reflections_then_equal_adjacent_swaps(self, spec):
        # Built through the codec, independently of the stride arithmetic.
        def image(move):
            return tuple(encode_vertex(spec, move(list(v))) for v in vertices(spec))

        def reflect(k):
            return lambda v: v[:k] + [spec.dims[k] + 1 - v[k]] + v[k + 1:]

        def swap(k):
            return lambda v: v[:k] + [v[k + 1], v[k]] + v[k + 2:]

        expected = [image(reflect(k)) for k in range(spec.d)] + [
            image(swap(k))
            for k in range(spec.d - 1)
            if (spec.dims[k], spec.thick[k]) == (spec.dims[k + 1], spec.thick[k + 1])
        ]
        assert axis_images(spec.dims, spec.thick) == expected
        for family in FAMILIES:
            edges = {edge[3] for edge in enumerate_edges(spec, family)}
            for g in expected:
                assert {tuple(sorted(g[v] for v in e)) for e in edges} == edges

    @given(grid_specs())
    def test_family_images_add_value_transpositions_for_k(self, spec):
        # Built through the codec: x_k = j <-> x_k = j + 1, per axis, per j.
        def transpose(k, j):
            def move(v):
                v[k] = {j: j + 1, j + 1: j}.get(v[k], v[k])
                return tuple(v)

            return tuple(encode_vertex(spec, move(list(v))) for v in vertices(spec))

        axes = axis_images(spec.dims, spec.thick)
        transpositions = [transpose(k, j) for k in range(spec.d) for j in range(1, spec.dims[k])]
        assert family_images(spec, "K") == axes + transpositions
        assert family_images(spec, "P") == axes
        edges = {edge[3] for edge in enumerate_edges(spec, "K")}
        for g in transpositions:
            assert {tuple(sorted(g[v] for v in e)) for e in edges} == edges
        with pytest.raises(ValueError):
            family_images(spec, "Q")

    def test_counts(self):
        assert len(axis_images((3, 3, 3), (2, 2, 2))) == 5
        assert len(axis_images((3, 3, 3), (2, 3, 2))) == 3
        assert len(axis_images((3, 3, 3))) == 5
        # An axis of length 1 has no reflection; the grid graph allows it.
        assert axis_images((1, 3)) == [(2, 1, 0)]

