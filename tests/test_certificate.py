import dataclasses
import itertools
import json
import math
from collections import defaultdict
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
from gridperc.exact import EliminationBasis, matrix_rank
from gridperc.grid import (
    FAMILIES,
    GridSpec,
    decode_vertex,
    encode_vertex,
    enumerate_edges,
    extremal_set,
    extremal_size,
    vertices,
)
from gridperc.percolation import Hypergraph, canonical_edges
from oracles import ReferenceBasis, edge_coefficient, project, reference_closure

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


def reference_audit(cert, initial, family=None):
    """Audit with the seed vectors inserted in id order, on a hypergraph built
    through canonical_edges from the enumerated edges' ids (which the grid
    tests check against the codec).  The closure and the elimination are the
    plain reference kernels, so a fault in the library's kernels shows as a
    different report."""
    ctx = cert.context
    spec = ctx.spec
    nv = spec.num_vertices
    edges = [e[3] for e in enumerate_edges(spec, family or ctx.family)]
    ids = sorted({encode_vertex(spec, tuple(v)) for v in initial})
    result = reference_closure(Hypergraph(nv, canonical_edges(nv, edges)), ids)
    percolated = len(result.final) == spec.num_vertices
    basis = ReferenceBasis(ctx.u_size)
    for a in ids:
        basis.insert(cert.f_vectors[a])
    seed_rank = basis.rank
    steps = tuple(not basis.insert(cert.f_vectors[v]) for v, _ in result.trace) if percolated else ()
    return AuditReport(percolated, len(ids), seed_rank, ctx.u_size, steps)


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
        # value sets' coefficients from ctx.axis_coeffs; each product must be
        # the coefficient of the vertex with that id.
        ctx = build_context(spec)
        for edge in enumerate_edges(spec, "K"):
            varying, values, _, ids = edge
            lams = [ctx.axis_coeffs[axis - 1][vals] for axis, vals in zip(varying, values)]
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
        assert cert.context.family == "P"

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

    @pytest.mark.parametrize(
        "row,column",
        [((1, 1), (1, 2)), ((1, 2), (2, 1)), ((1, 1), None)],
        ids=["larger_sum", "equal_sum", "zero_diagonal"],
    )
    def test_non_triangular_row_is_rejected(self, monkeypatch, row, column):
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
        with pytest.raises(CertificateError, match="span deficit"):
            certified_lower_bound(SPEC_3222, "K")

    def test_nonzero_dependency_sum_is_rejected(self, monkeypatch):
        # (3, 3) is not extremal, so the span check still passes and only the
        # dependency sums of the edges through (3, 3) can catch the damage.
        original = certificate.projection_component

        def damaged(v, proj_axes, ctx):
            vec = original(v, proj_axes, ctx)
            if v == (3, 3):
                vec[ctx.u_index[(1, 1)]] += 1
            return vec

        monkeypatch.setattr(certificate, "projection_component", damaged)
        with pytest.raises(CertificateError, match="nonzero dependency sum"):
            certified_lower_bound(SPEC_3222, "K")

    @given(vector_damage())
    def test_property_damaged_vector_is_rejected(self, damage):
        # Every vertex lies in some edge, where its coefficient is nonzero, so
        # any change to its vector breaks that edge's summed dependency (or,
        # for an extremal vertex, possibly the span check first).
        spec, target, position, delta = damage
        original = certificate.certificate_vector

        def damaged(v, ctx):
            vec = original(v, ctx)
            if v == target:
                vec[position] += delta
            return vec

        with mock.patch.object(certificate, "certificate_vector", damaged):
            with pytest.raises(CertificateError):
                certified_lower_bound(spec, "K")

    def test_output_is_the_verified_table(self):
        # Certification computes every vector once; outputs and audits read
        # that same table instead of recomputing it.
        spy = mock.patch.object(certificate, "certificate_vector", wraps=certificate_vector)
        with spy as counted:
            cert = certified_lower_bound(SPEC_INHOM, "K")
            table = cert.f_vectors
            data = certificate_to_dict(cert, include_f_vectors=True)
            report = audit_percolating_set(cert, extremal_set(SPEC_INHOM))
        assert counted.call_count == SPEC_INHOM.num_vertices
        assert report.ok
        rows = [tuple(certificate_vector(v, cert.context)) for v in vertices(SPEC_INHOM)]
        assert list(table) == rows
        assert data["fVectors"] == [[str(x) for x in row] for row in rows]

    def test_degenerate_matrix_is_rejected(self, monkeypatch, capsys):
        # Two equal power rows on the t = 3 axis make some minors zero.
        original = certificate.build_general_position_matrix

        def degenerate(n, t):
            rows = list(original(n, t))
            if t == 3:
                rows[-1] = rows[-2]
            return tuple(rows)

        monkeypatch.setattr(certificate, "build_general_position_matrix", degenerate)
        with pytest.raises(CertificateError, match="axis 2"):
            certified_lower_bound(SPEC_INHOM, "K")
        assert main(["certify", "--n", "3,4", "--t", "2,3", "--r", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: axis 2 matrix")


class TestAudit:
    def test_extremal_set_passes(self):
        cert = certified_lower_bound(SPEC_3222, "K")
        report = audit_percolating_set(cert, extremal_set(SPEC_3222))
        assert report.percolated
        assert report.seed_rank == 5
        assert report.all_steps_in_span
        assert report.ok
        assert len(report.steps_in_span) == 4

    def test_full_vertex_set(self):
        cert = certified_lower_bound(SPEC_3222, "K")
        report = audit_percolating_set(cert, list(vertices(SPEC_3222)))
        assert report.percolated
        assert report.seed_rank == 5
        assert report.steps_in_span == ()
        assert report.ok

    def test_removals_fail_to_percolate(self):
        cert = certified_lower_bound(SPEC_3222, "K")
        u = extremal_set(SPEC_3222)
        for drop in u:
            report = audit_percolating_set(cert, [v for v in u if v != drop])
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
        report = audit_percolating_set(cert, other)
        assert report.percolated
        assert report.seed_rank == cert.lower_bound == 4
        assert report.ok

    @settings(max_examples=60)
    @given(audit_cases())
    def test_property_seed_order_changes_no_report(self, case):
        spec, family, seeds = case
        cert = certified_lower_bound(spec, "K")
        assert audit_percolating_set(cert, seeds, family) == reference_audit(cert, seeds, family)
        damaged = damaged_certificate(cert)
        assert audit_percolating_set(damaged, seeds, family) == reference_audit(damaged, seeds, family)

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
        assert report.percolated
        assert report.seed_rank == damaged.lower_bound - 1
        assert not report.all_steps_in_span
        assert not report.ok

    @pytest.mark.parametrize("spec", [SPEC_3222, SPEC_INHOM, GridSpec.cube(3, 3, 2, 2)])
    def test_superset_fills_the_basis_with_the_extremal_set(self, spec):
        # Each extremal vector grows the span, so a superset of the extremal
        # set reaches full rank after exactly u_size inserts; every later
        # insert finds the basis full.
        cert = certified_lower_bound(spec, "K")
        below_full = []
        original = EliminationBasis._reduce

        def counting(self, vector):
            below_full.append(self.rank < self.ncols)
            return original(self, vector)

        for seeds in (list(vertices(spec)), extremal_set(spec) + [max(vertices(spec))]):
            below_full.clear()
            with mock.patch.object(EliminationBasis, "_reduce", counting):
                report = audit_percolating_set(cert, seeds)
            assert report.ok
            assert sum(below_full) == cert.lower_bound
            assert len(below_full) > cert.lower_bound


class TestSerialization:
    def test_schema(self):
        cert = certified_lower_bound(SPEC_3222, "K")
        data = certificate_to_dict(cert)
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
        data = certificate_to_dict(cert, include_f_vectors=True)
        assert len(data["fVectors"]) == 9
        origin = data["fVectors"][encode_vertex(SPEC_3222, (1, 1))]
        assert origin == ["2", "0", "0", "0", "0"]

    def test_byte_reproducible(self):
        first = json.dumps(certificate_to_dict(certified_lower_bound(SPEC_INHOM, "K"), True))
        second = json.dumps(certificate_to_dict(certified_lower_bound(SPEC_INHOM, "K"), True))
        assert first == second
