import dataclasses
import itertools
import json
import math
import random
from collections import defaultdict
from contextlib import nullcontext
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridperc import certificate
from gridperc.certificate import (
    AuditReport,
    CertificateError,
    audit_percolating_set,
    build_context,
    certificate_to_dict,
    certificate_vector,
    certified_lower_bound,
    projection_component,
)
from gridperc.cli import main
from gridperc.exact import EliminationBasis, dependency_coeffs, matrix_rank
from gridperc.grid import (
    FAMILIES,
    GridSpec,
    count_edges,
    decode_vertex,
    encode_vertex,
    enumerate_edges,
    extremal_set,
    extremal_size,
    vertices,
)
from gridperc.percolation import Hypergraph, canonical_edges
from oracles import (
    ReferenceBasis,
    edge_coefficient,
    project,
    reference_closure,
    reference_dependency_failure,
)

SPEC_3222 = GridSpec.cube(3, 2, 2, 2)
SPEC_3232 = GridSpec.cube(3, 2, 3, 2)
SPEC_INHOM = GridSpec((3, 4), (2, 3), 2)


@st.composite
def small_specs(draw):
    """Specs with d <= 3, axis lengths <= 4, mixed thicknesses and any r."""
    d = draw(st.integers(1, 3))
    dims = draw(st.lists(st.integers(2, 4), min_size=d, max_size=d))
    thick = [draw(st.integers(2, n)) for n in dims]
    return GridSpec(tuple(dims), tuple(thick), draw(st.integers(1, d)))


@st.composite
def vector_damage(draw):
    """A small spec, one of its vertices, a basis position and a nonzero delta."""
    spec = draw(small_specs())
    v = decode_vertex(spec, draw(st.integers(0, spec.num_vertices - 1)))
    position = draw(st.integers(0, extremal_size(spec) - 1))
    return spec, v, position, draw(st.integers().filter(bool))


@st.composite
def span_free_damages(draw):
    """A small spec and three damages of its vector table, with 1, 2 and 3
    entries, each a (vertex id, basis position, nonzero delta).

    Every entry is one the span check leaves free: any entry of a vertex
    outside the extremal set, or an entry of an extremal vertex at a basis
    position before its own in row-major order.  So certified_lower_bound
    can reject a damaged table only by a dependency sum.
    """
    spec = draw(small_specs())
    size = extremal_size(spec)
    own = {encode_vertex(spec, w): i for i, w in enumerate(extremal_set(spec))}
    free = {a: range(own.get(a, size)) for a in range(spec.num_vertices)}
    free = {a: positions for a, positions in free.items() if positions}
    entries = st.sampled_from(sorted(free)).flatmap(
        lambda a: st.tuples(st.just(a), st.sampled_from(free[a]), st.integers().filter(bool))
    )
    return spec, [draw(st.lists(entries, min_size=k, max_size=k)) for k in (1, 2, 3)]


@st.composite
def audit_cases(draw):
    """A small spec, a family and a seed set: a subset or a superset of the
    extremal set, or a random set."""
    spec = draw(small_specs())
    u = extremal_set(spec)
    everything = list(vertices(spec))
    kind = draw(st.sampled_from(["subset", "superset", "random"]))
    if kind == "subset":
        seeds = draw(st.lists(st.sampled_from(u), unique=True))
    elif kind == "superset":
        outside = [v for v in everything if v not in set(u)]
        seeds = u + draw(st.lists(st.sampled_from(outside), unique=True)) if outside else u
    else:
        seeds = draw(st.lists(st.sampled_from(everything), unique=True))
    return spec, draw(st.sampled_from(FAMILIES)), draw(st.permutations(seeds))


def edge_vertices(spec, edge):
    """The vertex tuples of an enumerated edge, decoded from its ids."""
    return [decode_vertex(spec, i) for i in edge[3]]


def reference_replay(cert, initial, family):
    """Audit with the seed vectors inserted in id order, on a hypergraph built
    through canonical_edges from the enumerated edges' ids (which the grid
    tests check against the codec).  The closure and the elimination are the
    plain reference kernels, so a fault in the library's kernels shows as a
    different result.  Returns whether the set percolated, its size, its seed
    rank and one bool per trace step, True when the step was in span."""
    ctx = cert.context
    spec = ctx.spec
    nv = spec.num_vertices
    edges = [e[3] for e in enumerate_edges(spec, family)]
    ids = sorted({encode_vertex(spec, tuple(v)) for v in initial})
    result = reference_closure(Hypergraph(nv, canonical_edges(nv, edges)), ids)
    percolated = len(result.final) == spec.num_vertices
    basis = ReferenceBasis(ctx.u_size)
    for a in ids:
        basis.insert(cert.f_vectors[a])
    seed_rank = basis.rank
    steps = tuple(not basis.insert(cert.f_vectors[v]) for v, _ in result.trace) if percolated else ()
    return percolated, len(ids), seed_rank, steps


def reference_audit(cert, initial, family):
    """The report of reference_replay, built from its bool per step."""
    percolated, size, seed_rank, steps = reference_replay(cert, initial, family)
    out_of_span = tuple(i for i, in_span in enumerate(steps) if not in_span)
    return AuditReport(percolated, size, seed_rank, cert.context.u_size, len(steps), out_of_span)


def damaged_certificate(cert):
    """The certificate with the row of its last extremal vertex in id order
    replaced by a copy of the first one's row."""
    ctx = cert.context
    rows = list(cert.f_vectors)
    rows[encode_vertex(ctx.spec, ctx.u_vertices[-1])] = rows[encode_vertex(ctx.spec, ctx.u_vertices[0])]
    return dataclasses.replace(cert, f_vectors=tuple(rows))


def basis_vector(ctx, v, scale=1):
    out = [0] * ctx.u_size
    out[ctx.u_index[v]] = scale
    return out


class TestProject:
    def test_single_axis(self):
        assert project(SPEC_3222, (2, 3), (1,), (1,)) == (1, 3)

    def test_two_axes(self):
        assert project(SPEC_3222, (3, 3), (1, 2), (1, 1)) == (1, 1)

    def test_middle_axis(self):
        spec = GridSpec.cube(2, 3, 2, 1)
        assert project(spec, (1, 1, 2), (2,), (2,)) == (1, 2, 2)

    def test_order_independent(self):
        a = project(SPEC_INHOM, (3, 4), (1, 2), (2, 1))
        b = project(SPEC_INHOM, (3, 4), (2, 1), (1, 2))
        assert a == b == (2, 1)

    def test_errors(self):
        with pytest.raises(ValueError):
            project(SPEC_3222, (1, 1), (1, 1), (2, 2))
        with pytest.raises(ValueError):
            project(SPEC_3222, (1, 1), (1,), (4,))
        with pytest.raises(ValueError):
            project(SPEC_3222, (1, 1), (3,), (1,))


class TestProjectionComponent:
    def test_thickness_two_collapses_to_unit_projection(self):
        ctx = build_context(SPEC_3222)
        assert projection_component((2, 3), (1,), ctx) == basis_vector(ctx, (1, 3))

    def test_power_row_weights(self):
        ctx = build_context(SPEC_3232)
        expected = [0] * ctx.u_size
        expected[ctx.u_index[(1, 2)]] = 1
        expected[ctx.u_index[(2, 2)]] = 3
        assert projection_component((3, 2), (1,), ctx) == expected

    def test_identity_row_is_fixed_point(self):
        ctx = build_context(SPEC_3232)
        assert projection_component((2, 2), (1,), ctx) == basis_vector(ctx, (2, 2))

    def test_support_stays_in_extremal_set(self):
        for spec in (SPEC_3222, SPEC_3232, SPEC_INHOM, GridSpec.cube(2, 3, 2, 2)):
            ctx = build_context(spec)
            members = set(ctx.u_vertices)
            p = spec.d - spec.r + 1
            for v in vertices(spec):
                for axes in itertools.combinations(range(1, spec.d + 1), p):
                    small = [range(1, spec.thick[k - 1]) for k in axes]
                    for js in itertools.product(*small):
                        image = project(spec, v, axes, js)
                        assert spec.large_count(image) <= spec.r - 1
                        assert image in members

    def test_wrong_axis_count(self):
        ctx = build_context(SPEC_3222)
        with pytest.raises(ValueError):
            projection_component((1, 1), (1, 2), ctx)

    @pytest.mark.parametrize(
        "axes",
        [(0, 1), (1, 1), (-1, 2), (1, 4)],
        ids=["axis-zero", "repeated", "negative", "past-d"],
    )
    def test_bad_axes_rejected(self, axes):
        ctx = build_context(GridSpec.cube(4, 3, 3, 2))
        with pytest.raises(ValueError, match="distinct projected axes"):
            projection_component((4, 1, 3), axes, ctx)


class TestCertificateVector:
    def test_interior_vertex(self):
        ctx = build_context(SPEC_3222)
        expected = [0] * ctx.u_size
        expected[ctx.u_index[(1, 2)]] = 1
        expected[ctx.u_index[(2, 1)]] = 1
        assert certificate_vector((2, 2), ctx) == expected

    def test_origin_counts_small_coordinates(self):
        ctx = build_context(SPEC_3222)
        assert certificate_vector((1, 1), ctx) == basis_vector(ctx, (1, 1), scale=2)

    def test_boundary_vertex(self):
        ctx = build_context(SPEC_3222)
        expected = [0] * ctx.u_size
        expected[ctx.u_index[(1, 1)]] = 1
        expected[ctx.u_index[(3, 1)]] = 1
        assert certificate_vector((3, 1), ctx) == expected

    def test_extremal_vertices_have_positive_own_coefficient(self):
        for spec in (SPEC_3222, SPEC_3232, SPEC_INHOM, GridSpec.cube(4, 3, 3, 2)):
            ctx = build_context(spec)
            for v in ctx.u_vertices:
                vec = certificate_vector(v, ctx)
                assert vec[ctx.u_index[v]] > 0
                assert all(x >= 0 for x in vec)


class TestEdgeCoefficient:
    def test_unit_square_coefficients(self):
        ctx = build_context(SPEC_3222)
        edges = [e for e in enumerate_edges(SPEC_3222, "K") if e[1] == ((2, 3), (1, 2))]
        assert len(edges) == 1
        edge = edges[0]
        assert edge_coefficient(edge, (2, 1), ctx) == 1
        assert edge_coefficient(edge, (3, 1), ctx) == -1

    def test_thickness_two_signs_alternate(self):
        ctx = build_context(SPEC_3222)
        for edge in enumerate_edges(SPEC_3222, "K"):
            varying, values, _, _ = edge
            for v in edge_vertices(SPEC_3222, edge):
                lam = edge_coefficient(edge, v, ctx)
                assert lam in (-1, 1)
                # sign alternates with the positions of the coordinates
                pos = sum(vals.index(v[axis - 1]) for axis, vals in zip(varying, values))
                assert lam == (-1) ** (len(varying) + pos)

    def test_nonzero_everywhere(self):
        for spec in (SPEC_3232, SPEC_INHOM):
            ctx = build_context(spec)
            for edge in enumerate_edges(spec, "K"):
                for v in edge_vertices(spec, edge):
                    assert edge_coefficient(edge, v, ctx) != 0

    def test_vertex_outside_edge(self):
        ctx = build_context(SPEC_3222)
        edge = next(iter(enumerate_edges(SPEC_3222, "K")))
        with pytest.raises(ValueError):
            edge_coefficient(edge, (3, 3), ctx)

    @given(small_specs())
    def test_property_table_products_follow_id_order(self, spec):
        # certified_lower_bound pairs an edge's ids with the product of its
        # value sets' dependency_coeffs; each product must be the coefficient
        # of the vertex with that id.
        ctx = build_context(spec)
        for edge in enumerate_edges(spec, "K"):
            varying, values, _, ids = edge
            lams = [dependency_coeffs(ctx.axis_matrices[axis - 1], vals) for axis, vals in zip(varying, values)]
            products = [math.prod(cs) for cs in itertools.product(*lams)]
            assert len(products) == len(ids)
            assert products == [edge_coefficient(edge, v, ctx) for v in edge_vertices(spec, edge)]
            assert all(products)


class TestDependencySums:
    @pytest.mark.parametrize("spec", [SPEC_3222, SPEC_3232, SPEC_INHOM, GridSpec.cube(2, 3, 2, 2)])
    def test_per_projection_sums_vanish(self, spec):
        ctx = build_context(spec)
        p = spec.d - spec.r + 1
        for edge in enumerate_edges(spec, "K"):
            verts = edge_vertices(spec, edge)
            lam = [edge_coefficient(edge, v, ctx) for v in verts]
            for axes in itertools.combinations(range(1, spec.d + 1), p):
                total = [0] * ctx.u_size
                for v, c in zip(verts, lam):
                    for i, x in enumerate(projection_component(v, axes, ctx)):
                        total[i] += c * x
                assert not any(total)

    def test_line_sums_vanish(self):
        # finer cancellation: within an edge, the sum over each line along a
        # projected varying axis is already zero
        for spec in (SPEC_3232, GridSpec.cube(2, 3, 2, 2)):
            ctx = build_context(spec)
            p = spec.d - spec.r + 1
            for edge in enumerate_edges(spec, "K"):
                verts = edge_vertices(spec, edge)
                for axes in itertools.combinations(range(1, spec.d + 1), p):
                    shared = [k for k in axes if k in edge[0]]
                    assert shared  # p + r > d forces an overlap
                    for k in shared:
                        lines = defaultdict(list)
                        for v in verts:
                            key = tuple(x for i, x in enumerate(v, start=1) if i != k)
                            lines[key].append(v)
                        expected_lines = len(verts) // spec.thick[k - 1]
                        assert len(lines) == expected_lines
                        for line in lines.values():
                            total = [0] * ctx.u_size
                            for v in line:
                                c = edge_coefficient(edge, v, ctx)
                                for i, x in enumerate(projection_component(v, axes, ctx)):
                                    total[i] += c * x
                            assert not any(total)


class TestCertifiedLowerBound:
    def test_small_square(self):
        cert = certified_lower_bound(SPEC_3222, "K")
        assert cert.lower_bound == 5

    def test_cube_rank_two(self):
        cert = certified_lower_bound(GridSpec.cube(2, 3, 2, 2), "K")
        assert cert.lower_bound == 4

    def test_inhomogeneous(self):
        cert = certified_lower_bound(SPEC_INHOM, "K")
        assert cert.lower_bound == 8

    def test_interval_family_request(self):
        cert = certified_lower_bound(SPEC_3222, "P")
        assert cert.lower_bound == 5
        # The family names only the walked edges; the certificate is the spec's.
        assert [f.name for f in dataclasses.fields(cert)] == ["context", "f_vectors", "_hypergraphs"]
        assert certificate_to_dict(cert, "P")["family"] == "P"

    @pytest.mark.parametrize(
        "spec",
        [SPEC_3222, SPEC_3232, SPEC_INHOM, GridSpec.cube(2, 3, 2, 1), GridSpec.cube(4, 2, 3, 1)],
    )
    def test_matches_formula_and_set(self, spec):
        cert = certified_lower_bound(spec, "K")
        assert cert.lower_bound == extremal_size(spec) == len(extremal_set(spec))

    def test_span_rank_equals_basis_size(self):
        for spec in (SPEC_3222, SPEC_3232, SPEC_INHOM):
            ctx = build_context(spec)
            rows = [certificate_vector(decode_vertex(spec, i), ctx) for i in range(spec.num_vertices)]
            assert matrix_rank(rows) == ctx.u_size

    def test_vector_lookup(self):
        cert = certified_lower_bound(SPEC_3222, "K")
        assert cert.f_vectors[encode_vertex(SPEC_3222, (1, 1))][cert.context.u_index[(1, 1)]] == 2

    @given(small_specs())
    def test_property_triangular_check_agrees_with_rank(self, spec):
        cert = certified_lower_bound(spec, "K")
        assert matrix_rank(cert.f_vectors) == cert.context.u_size == cert.lower_bound

    @staticmethod
    def damage_one_entry(monkeypatch, row, column):
        """Add 1 to the entry of ``row``'s vector at ``column``, or zero its
        own entry when ``column`` is None."""
        original = certificate.certificate_vector

        def damaged(v, ctx):
            vec = original(v, ctx)
            if v == row:
                if column is None:
                    vec[ctx.u_index[row]] = 0
                else:
                    vec[ctx.u_index[column]] += 1
            return vec

        monkeypatch.setattr(certificate, "certificate_vector", damaged)

    # U of SPEC_3222 in row-major order: (1,1), (1,2), (1,3), (2,1), (3,1).
    @pytest.mark.parametrize(
        "row,column",
        [((1, 1), (1, 2)), ((1, 2), (2, 1)), ((1, 1), None)],
        ids=["next_position", "later_position", "zero_diagonal"],
    )
    def test_non_triangular_row_is_rejected(self, monkeypatch, row, column):
        self.damage_one_entry(monkeypatch, row, column)
        with pytest.raises(CertificateError, match="span deficit"):
            certified_lower_bound(SPEC_3222, "K")

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize(
        "row,column,verdict",
        [((1, 3), (2, 1), "span deficit"), ((2, 1), (1, 3), "nonzero dependency sum")],
        ids=["after_own_smaller_sum", "before_own_larger_sum"],
    )
    def test_span_check_follows_row_major_order(self, monkeypatch, row, column, verdict, family):
        # (2, 1) comes after (1, 3) in row-major order but has the smaller
        # coordinate sum: the span check rejects an entry after a row's own
        # position, and leaves one before it to the dependency sums.
        self.damage_one_entry(monkeypatch, row, column)
        with pytest.raises(CertificateError, match=verdict):
            certified_lower_bound(SPEC_3222, family)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_nonzero_dependency_sum_is_rejected(self, monkeypatch, family):
        # (3, 3) is not extremal, so the span check still passes and only the
        # dependency sums of the edges through (3, 3) can catch the damage;
        # the P edge {2, 3} x {2, 3} holds it.
        original = certificate.projection_component

        def damaged(v, proj_axes, ctx):
            vec = original(v, proj_axes, ctx)
            if v == (3, 3):
                vec[ctx.u_index[(1, 1)]] += 1
            return vec

        monkeypatch.setattr(certificate, "projection_component", damaged)
        with pytest.raises(CertificateError, match="nonzero dependency sum"):
            certified_lower_bound(SPEC_3222, family)

    @pytest.mark.parametrize("family", FAMILIES)
    @given(vector_damage())
    def test_property_damaged_vector_is_rejected(self, family, damage):
        # Every vertex lies in some edge of either family, where its
        # coefficient is nonzero, so any change to its vector breaks that
        # edge's summed dependency (or, for an extremal vertex, possibly the
        # span check first).
        spec, target, position, delta = damage
        original = certificate.certificate_vector

        def damaged(v, ctx):
            vec = original(v, ctx)
            if v == target:
                vec[position] += delta
            return vec

        with mock.patch.object(certificate, "certificate_vector", damaged):
            with pytest.raises(CertificateError):
                certified_lower_bound(spec, family)

    @pytest.mark.parametrize("spec", [SPEC_3222, SPEC_3232, SPEC_INHOM, GridSpec.cube(3, 3, 2, 2)])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_walks_only_its_own_family(self, spec, family):
        walks = []  # [family, edges yielded] per walk

        def spy(spec, fam):
            walks.append([fam, 0])
            for edge in enumerate_edges(spec, fam):
                walks[-1][1] += 1
                yield edge

        with mock.patch.object(certificate, "enumerate_edges", spy):
            certified_lower_bound(spec, family)
        assert walks == [[family, count_edges(spec, family)]]

    @pytest.mark.parametrize("spec", [
        SPEC_3232,
        SPEC_INHOM,
        GridSpec((4, 5, 3), (3, 2, 3), 2),
        GridSpec.cube(6, 3, 3, 2),
        GridSpec((5, 6, 7), (2, 3, 4), 2),
    ])
    def test_coefficients_only_for_the_walked_family(self, spec):
        # The context checks each distinct axis matrix for general position
        # once, at its first axis, and computes no dependency coefficient
        # (the axes of a cube share one matrix); a certificate computes one per
        # value set of the family it walks, every t_k-subset for K, every
        # interval for P, once per distinct axis shape (n_k, t_k).
        coeffs = mock.patch.object(certificate, "dependency_coeffs", wraps=certificate.dependency_coeffs)
        checks = mock.patch.object(certificate, "verify_general_position", wraps=certificate.verify_general_position)
        computed = {}
        with coeffs as counted, checks as checked:
            ctx = build_context(spec)
            computed[None] = counted.call_count
            for family in FAMILIES:
                counted.reset_mock()
                certified_lower_bound(spec, family)
                computed[family] = counted.call_count
        axes = list(dict.fromkeys(zip(spec.dims, spec.thick)))
        assert computed == {
            None: 0,
            "K": sum(math.comb(n, t) for n, t in axes),
            "P": sum(n - t + 1 for n, t in axes),
        }
        one_per_shape = list(dict.fromkeys(zip(ctx.axis_matrices, spec.thick)))
        assert [c.args for c in checked.call_args_list] == one_per_shape * (1 + len(FAMILIES))

    def test_unknown_family_is_rejected_before_any_work(self):
        cert = certified_lower_bound(SPEC_3222, "K")
        contexts = mock.patch.object(certificate, "build_context", wraps=build_context)
        vectors = mock.patch.object(certificate, "certificate_vector", wraps=certificate_vector)
        builds = mock.patch.object(certificate, "grid_hypergraph", wraps=certificate.grid_hypergraph)
        with contexts as contexted, vectors as computed, builds as built:
            with pytest.raises(ValueError, match="unknown edge family 'Q'"):
                certified_lower_bound(SPEC_3222, "Q")
            with pytest.raises(ValueError, match="unknown edge family 'Q'"):
                audit_percolating_set(cert, extremal_set(SPEC_3222), family="Q")
            with pytest.raises(ValueError, match="unknown edge family 'Q'"):
                certificate_to_dict(cert, "Q")
        assert (contexted.call_count, computed.call_count, built.call_count) == (0, 0, 0)
        assert cert._hypergraphs == {}

    @given(small_specs())
    def test_property_families_share_one_table(self, spec):
        # The K and P certificates differ only in the edges their dependency
        # check walks.  sweep, certified minperc and audit build the P one
        # for either family, and this is why their output keeps its bytes.
        k, p = certified_lower_bound(spec, "K"), certified_lower_bound(spec, "P")
        assert k.context.axis_matrices == p.context.axis_matrices
        assert k.context.u_vertices == p.context.u_vertices
        assert k.f_vectors == p.f_vectors
        assert k.lower_bound == p.lower_bound

    @given(span_free_damages())
    def test_property_p_walk_agrees_with_k_walk(self, case):
        # The interval lemma: the P sums vanish exactly when the K sums do,
        # on the real table and on damaged ones.
        spec, damages = case
        real = certified_lower_bound(spec, "P")
        assert reference_dependency_failure(real.context, real.f_vectors) is None
        for damage in damages:
            rows = [list(row) for row in real.f_vectors]
            for a, position, delta in damage:
                rows[a][position] += delta
            if reference_dependency_failure(real.context, rows) is None:
                verdict = nullcontext()
            else:
                verdict = pytest.raises(CertificateError, match="nonzero dependency sum")
            table = mock.patch.object(certificate, "certificate_vector", lambda v, ctx: rows[encode_vertex(spec, v)])
            with table, verdict:
                certified_lower_bound(spec, "P")

    def test_output_is_the_verified_table(self):
        # Certification computes every vector once; outputs and audits read
        # that same table instead of recomputing it.
        spy = mock.patch.object(certificate, "certificate_vector", wraps=certificate_vector)
        with spy as counted:
            cert = certified_lower_bound(SPEC_INHOM, "K")
            table = cert.f_vectors
            data = certificate_to_dict(cert, "K", include_f_vectors=True)
            report = audit_percolating_set(cert, extremal_set(SPEC_INHOM), "K")
        assert counted.call_count == SPEC_INHOM.num_vertices
        assert report.ok
        rows = [tuple(certificate_vector(v, cert.context)) for v in vertices(SPEC_INHOM)]
        assert list(table) == rows
        assert data["fVectors"] == [[str(x) for x in row] for row in rows]

    @pytest.mark.parametrize("spec", [
        GridSpec.cube(5, 2, 3, 2),
        GridSpec.cube(4, 3, 2, 3),
        GridSpec.cube(8, 3, 3, 3),
        GridSpec.cube(3, 4, 2, 4),
        GridSpec((4, 6), (4, 2), 2),
        GridSpec((5, 6, 7), (2, 3, 4), 3),
    ])
    def test_p_counting_bound_when_r_equals_d(self, spec):
        # A second lower-bound proof, free of the algebra: firing an edge adds
        # one vertex and puts at least that edge inside the infected set, so
        # |S| - e(S) never rises along a run, and a percolating set has at
        # least |V| - |E_P| members.  With r = d, |E_P| = prod(n_k - t_k + 1)
        # and |V| - |E_P| is the extremal size.
        assert certified_lower_bound(spec, "P").lower_bound == spec.num_vertices - count_edges(spec, "P")

    def test_degenerate_matrix_is_rejected(self, monkeypatch, capsys):
        # On the t = 3 axis of length 4, two equal power rows make the minor
        # of rows {3, 4} zero; a last row parallel to the first makes only the
        # minor of rows {1, 4} zero.  No interval of three values holds both 1
        # and 4, so in that case no "P" coefficient is zero, and only the
        # general-position check can reject the matrix.  One test over both
        # damages and both families.
        original = certificate.build_general_position_matrix
        damages = {
            "equal_power_rows": lambda rows: rows[-2],
            "parallel_end_rows": lambda rows: tuple(2 * x for x in rows[0]),
        }
        damage = None

        def degenerate(n, t):
            rows = list(original(n, t))
            if t == 3:
                rows[-1] = damages[damage](rows)
            return tuple(rows)

        monkeypatch.setattr(certificate, "build_general_position_matrix", degenerate)
        for damage, family in itertools.product(damages, FAMILIES):
            with pytest.raises(CertificateError, match="axis 2"):
                certified_lower_bound(SPEC_INHOM, family)
            assert main(["certify", "--n", "3,4", "--t", "2,3", "--r", "2", "--family", family]) == 1, (damage, family)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: axis 2 matrix"), (damage, family)


class TestAudit:
    def test_extremal_set_passes(self):
        cert = certified_lower_bound(SPEC_3222, "K")
        report = audit_percolating_set(cert, extremal_set(SPEC_3222), "K")
        assert report.percolated
        assert report.seed_rank == 5
        assert report.all_steps_in_span
        assert report.ok
        assert len(report.steps_in_span) == report.num_steps == 4
        assert report.steps_out_of_span == ()
        # frozen, with slots: one report holds its six fields and no dict
        assert not hasattr(report, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.num_steps = 0

    def test_full_vertex_set(self):
        cert = certified_lower_bound(SPEC_3222, "K")
        report = audit_percolating_set(cert, list(vertices(SPEC_3222)), "K")
        assert report.percolated
        assert report.seed_rank == 5
        assert report.steps_in_span == ()
        assert report.ok

    def test_removals_fail_to_percolate(self):
        cert = certified_lower_bound(SPEC_3222, "K")
        u = extremal_set(SPEC_3222)
        for drop in u:
            report = audit_percolating_set(cert, [v for v in u if v != drop], "K")
            assert not report.percolated
            assert not report.ok

    def test_interval_family_audit(self):
        cert = certified_lower_bound(SPEC_3222, "K")
        report = audit_percolating_set(cert, extremal_set(SPEC_3222), family="P")
        assert report.ok

    def test_seed_rank_bounds_any_percolating_set(self):
        cert = certified_lower_bound(GridSpec.cube(2, 3, 2, 2), "K")
        # a different minimal percolating set (a vertex plus its neighbours):
        # its vectors must still have full rank
        other = [(2, 2, 2), (1, 2, 2), (2, 1, 2), (2, 2, 1)]
        report = audit_percolating_set(cert, other, "K")
        assert report.percolated
        assert report.seed_rank == cert.lower_bound == 4
        assert report.ok

    # Each set has the extremal set's size and percolates under K but not
    # under P.
    K_ONLY_CASES = [
        (GridSpec.cube(3, 2, 2, 2), (0, 1, 5, 6, 8)),
        (GridSpec.cube(4, 2, 2, 2), (0, 1, 2, 4, 11, 12, 15)),
        (GridSpec.cube(3, 3, 2, 2), (0, 1, 2, 3, 15, 18, 24)),
        (GridSpec.cube(4, 2, 3, 1), (0, 1, 4, 7)),
    ]

    def test_k_only_percolating_sets(self):
        # An audit that closes on the wrong family shows on these sets.
        for spec, ids in self.K_ONLY_CASES:
            cert = certified_lower_bound(spec, "P")
            seeds = [decode_vertex(spec, i) for i in ids]
            assert len(seeds) == cert.lower_bound
            k, p = (audit_percolating_set(cert, seeds, family) for family in ("K", "P"))
            assert k.percolated and k.ok, spec
            assert not p.percolated, spec
            assert k == reference_audit(cert, seeds, "K")
            assert p == reference_audit(cert, seeds, "P")

    @settings(max_examples=60)
    @given(audit_cases())
    def test_property_seed_order_changes_no_report(self, case):
        spec, family, seeds = case
        cert = certified_lower_bound(spec, "K")
        report = audit_percolating_set(cert, seeds, family)
        assert report == reference_audit(cert, seeds, family)
        if report.percolated:
            assert report.steps_out_of_span == ()
            assert len(report.steps_in_span) == report.num_steps
        damaged = damaged_certificate(cert)
        assert audit_percolating_set(damaged, seeds, family) == reference_audit(damaged, seeds, family)

    @pytest.mark.parametrize("case", K_ONLY_CASES)
    def test_full_rank_k_audit_closes_on_p_first(self, case):
        # At full rank a K audit settles percolation on P, and builds K only
        # when P does not percolate; below full rank it closes on its own
        # family.  A dataclasses.replace copy starts with no builds.
        spec, ids = case
        cert = certified_lower_bound(spec, "P")
        u = extremal_set(spec)
        superset = u + [v for v in vertices(spec) if v not in set(u)][::2]
        k_only = [decode_vertex(spec, i) for i in ids]
        spy = mock.patch.object(certificate, "grid_hypergraph", wraps=certificate.grid_hypergraph)
        for seed_sets, family, builds in [
            ([u, superset], "K", ["P"]),
            ([k_only], "K", ["P", "K"]),
            ([u[1:]], "K", ["K"]),
            ([u[1:]], "P", ["P"]),
        ]:
            fresh = dataclasses.replace(cert)
            with spy as built:
                reports = [audit_percolating_set(fresh, seeds, family) for seeds in seed_sets]
            assert [c.args for c in built.call_args_list] == [(spec, fam) for fam in builds]
            assert reports == [reference_audit(cert, seeds, family) for seeds in seed_sets]

    def test_one_build_per_certificate_and_family(self):
        spec = GridSpec.cube(3, 3, 2, 2)
        u = extremal_set(spec)
        # The moved set percolates on K but not on P, so a build shared
        # between the families would show in its reports.
        moved = [v for v in u if v != (1, 1, 1)] + [(1, 3, 3)]
        seed_sets = [u, moved, u[1:]]
        cert = certified_lower_bound(spec, "K")
        # The K audit of u is at full rank and builds P; moved, at full rank
        # too, needs K.  The damaged certificate's u is below full rank, so
        # its K audits build K, and its P audits P.
        p_then_k = [(spec, "P"), (spec, "K")]
        spy = mock.patch.object(certificate, "grid_hypergraph", wraps=certificate.grid_hypergraph)
        with spy as built:
            reports = {fam: [audit_percolating_set(cert, seeds, fam) for seeds in seed_sets] for fam in FAMILIES}
            assert [c.args for c in built.call_args_list] == p_then_k
            for fam in FAMILIES:
                assert [audit_percolating_set(cert, seeds, fam) for seeds in seed_sets] == reports[fam]
            assert built.call_count == len(FAMILIES)
            for other, order in [
                (certified_lower_bound(spec, "K"), p_then_k),
                (damaged_certificate(cert), p_then_k[::-1]),
            ]:
                built.reset_mock()
                for fam in FAMILIES:
                    for seeds in seed_sets:
                        audit_percolating_set(other, seeds, fam)
                        audit_percolating_set(other, seeds, fam)
                assert [c.args for c in built.call_args_list] == order
        for fam, fam_reports in reports.items():
            assert fam_reports == [reference_audit(cert, seeds, fam) for seeds in seed_sets]
        assert [r.percolated for r in reports["K"]] == [True, True, False]
        assert [r.percolated for r in reports["P"]] == [True, False, False]

    @settings(max_examples=40)
    @given(small_specs(), st.data())
    def test_property_report_ignores_earlier_audits(self, spec, data):
        # One certificate object answers a drawn sequence of audits with K and
        # P interleaved; each report must equal a fresh reference build's.
        everything = list(vertices(spec))
        audits = data.draw(st.lists(
            st.tuples(st.sampled_from(FAMILIES), st.lists(st.sampled_from(everything), unique=True)),
            min_size=1, max_size=6,
        ))
        cert = certified_lower_bound(spec, "K")
        for audited in (cert, damaged_certificate(cert)):
            for family, seeds in audits:
                assert audit_percolating_set(audited, seeds, family) == reference_audit(audited, seeds, family)

    @pytest.mark.parametrize("spec", [SPEC_3222, SPEC_3232, SPEC_INHOM, GridSpec.cube(3, 3, 2, 2)])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_damaged_certificate_still_fails(self, spec, family):
        # The damaged table loses rank on the extremal set, and some trace
        # step puts the missing direction back; inserting the extremal seeds
        # first must not hide that step.
        damaged = damaged_certificate(certified_lower_bound(spec, "K"))
        u = extremal_set(spec)
        report = audit_percolating_set(damaged, u, family)
        assert report == reference_audit(damaged, u, family)
        steps = reference_replay(damaged, u, family)[3]
        assert report.steps_out_of_span == tuple(i for i, in_span in enumerate(steps) if not in_span)
        assert report.steps_in_span == steps
        assert report.percolated
        assert report.seed_rank == damaged.lower_bound - 1
        assert not report.all_steps_in_span
        assert not report.ok

    @pytest.mark.parametrize("spec", [SPEC_3222, SPEC_INHOM, GridSpec.cube(3, 3, 2, 2)])
    def test_superset_fills_the_basis_with_the_extremal_set(self, spec):
        # Each extremal vector grows the span, so a superset of the extremal
        # set reaches full rank after exactly u_size inserts, and no seed or
        # trace step is inserted after that.
        cert = certified_lower_bound(spec, "K")
        below_full = []
        original = EliminationBasis._reduce

        def counting(self, vector):
            below_full.append(self.rank < self.ncols)
            return original(self, vector)

        for seeds in (list(vertices(spec)), extremal_set(spec) + [max(vertices(spec))]):
            below_full.clear()
            with mock.patch.object(EliminationBasis, "_reduce", counting):
                report = audit_percolating_set(cert, seeds, "K")
            assert report.ok
            assert sum(below_full) == cert.lower_bound
            assert len(below_full) == cert.lower_bound

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("spec", [
        SPEC_3222,
        SPEC_INHOM,
        GridSpec((3, 4, 3), (2, 3, 2), 1),
        GridSpec.cube(3, 3, 2, 3),
        GridSpec.cube(4, 3, 3, 2),
    ])
    def test_extremal_seeds_need_no_elimination(self, spec, family):
        # Reversed, an extremal row's first nonzero entry is its own diagonal
        # and it is zero at the pivots of the larger ids inserted before it,
        # so every reduction step has a zero multiplier.  Before an insert's
        # first nonzero multiplier every step only rescales, so that
        # multiplier is the vector's own entry at a pivot column: an insert
        # eliminates iff the vector is nonzero at some earlier pivot.
        cert = certified_lower_bound(spec, family)
        u = extremal_set(spec)
        outside = [v for v in vertices(spec) if v not in set(u)]
        eliminating = []
        original = EliminationBasis._reduce

        def counting(self, vector):
            eliminating.append(any(vector[c] for c in self._pivot_cols))
            return original(self, vector)

        for seeds in (u, outside[::2] + u[::-1] + outside[1::2]):
            eliminating.clear()
            with mock.patch.object(EliminationBasis, "_reduce", counting):
                report = audit_percolating_set(cert, seeds, family)
            assert report.ok
            assert len(eliminating) == cert.lower_bound
            assert sum(eliminating) == 0

    # Fixed, with the number of draws, before the first run.
    PERMUTATION_SEED = 31

    @pytest.mark.parametrize("spec", [
        GridSpec.cube(5, 2, 3, 2),
        GridSpec.cube(6, 3, 3, 2),
        GridSpec.cube(7, 3, 4, 2),
        GridSpec.cube(5, 4, 3, 3),
    ])
    def test_permuted_extremal_sets_audit_ok(self, spec):
        # A permutation of each axis's values maps K edges onto K edges, so
        # g(U) is a minimum percolating set under K.  Its rows are not
        # triangular in the audit's order, so the audit takes the full
        # elimination path.
        rng = random.Random(self.PERMUTATION_SEED)
        cert = certified_lower_bound(spec, "P")
        u = extremal_set(spec)
        eliminating = []
        original = EliminationBasis._reduce

        def counting(self, vector):
            eliminating.append(any(vector[c] for c in self._pivot_cols))
            return original(self, vector)

        for _ in range(2):
            perms = [[0, *rng.sample(range(1, n + 1), n)] for n in spec.dims]
            moved = [tuple(perm[x] for perm, x in zip(perms, v)) for v in u]
            eliminating.clear()
            with mock.patch.object(EliminationBasis, "_reduce", counting):
                report = audit_percolating_set(cert, moved, "K")
            assert any(eliminating)
            assert report.ok
            assert report.seed_rank == cert.lower_bound
            assert report.steps_out_of_span == ()
            assert report.num_steps == spec.num_vertices - cert.lower_bound


class TestSerialization:
    def test_schema(self):
        cert = certified_lower_bound(SPEC_3222, "K")
        data = certificate_to_dict(cert, "K")
        assert data["spec"] == {"dims": [3, 3], "thick": [2, 2], "r": 2}
        assert data["family"] == "K"
        assert data["axisMatrices"] == [[[1], [1], [1]], [[1], [1], [1]]]
        assert data["lowerBound"] == 5
        assert data["verifiedSpan"] is True
        assert data["verifiedDependencies"] is True
        assert data["uSize"] == 5
        assert "fVectors" not in data
        json.dumps(data)

    def test_f_vector_strings(self):
        cert = certified_lower_bound(SPEC_3222, "K")
        data = certificate_to_dict(cert, "K", include_f_vectors=True)
        assert len(data["fVectors"]) == 9
        origin = data["fVectors"][encode_vertex(SPEC_3222, (1, 1))]
        assert origin == ["2", "0", "0", "0", "0"]

    def test_byte_reproducible(self):
        first = json.dumps(certificate_to_dict(certified_lower_bound(SPEC_INHOM, "K"), "K", True))
        second = json.dumps(certificate_to_dict(certified_lower_bound(SPEC_INHOM, "K"), "K", True))
        assert first == second
