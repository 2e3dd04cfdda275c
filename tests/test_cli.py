import argparse
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gridperc
from gridperc import certificate, cli, grid, percolation
from gridperc.cli import main
from gridperc.grid import FAMILIES, GridSpec, count_edges, extremal_size
from gridperc.percolation import weak_saturation_hypergraph
from oracles import format_hypergraph


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestFormula:
    def test_homogeneous(self, capsys):
        code, data = run_json(capsys, ["formula", "--d", "3", "--r", "2", "--n", "5", "--t", "3"])
        assert code == 0
        assert data == {"extremalSize": 44}

    def test_inhomogeneous_lists(self, capsys):
        code, data = run_json(capsys, ["formula", "--r", "2", "--n", "3,4", "--t", "2,3"])
        assert code == 0
        assert data == {"extremalSize": 8}

    def test_csv(self, capsys):
        code = main(["formula", "--d", "2", "--r", "2", "--n", "3", "--t", "2", "--format", "csv"])
        assert code == 0
        assert capsys.readouterr().out == "extremalSize\n5\n"

    def test_inconsistent_lists(self, capsys):
        # The counts are those given, before a single value is broadcast.
        cases = [
            (["--d", "3", "--n", "3,4", "--t", "2"], "--d 3, --n gives 2, --t gives 1"),
            (["--d", "2", "--n", "3", "--t", "2,2,2"], "--d 2, --n gives 1, --t gives 3"),
            (["--n", "3,4", "--t", "2,2,2"], "--d 3, --n gives 2, --t gives 3"),
        ]
        for argv, counts in cases:
            assert main(["formula", "--r", "1", *argv]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: inconsistent list lengths: {counts}\n"

    def test_invalid_spec(self, capsys):
        assert main(["formula", "--d", "2", "--r", "2", "--n", "3", "--t", "5"]) == 2
        assert main(["formula", "--d", "2", "--r", "3", "--n", "3", "--t", "2"]) == 2
        capsys.readouterr()


class TestExtremal:
    def test_vertices(self, capsys):
        code, data = run_json(capsys, ["extremal", "--d", "2", "--r", "2", "--n", "3", "--t", "2"])
        assert code == 0
        assert data["uSize"] == 5
        assert data["vertices"] == [[1, 1], [1, 2], [1, 3], [2, 1], [3, 1]]

    @pytest.mark.parametrize("r,size", [(1, 1), (3, 1801)])
    def test_thirty_axes_never_walk_the_grid(self, capsys, monkeypatch, r, size):
        # 3^30 vertices: the extremal set is built from its large-axis sets,
        # so a walk over every vertex fails the test instead of hanging it.
        def forbidden(spec):
            raise AssertionError("grid.vertices called")

        monkeypatch.setattr(grid, "vertices", forbidden)
        code, data = run_json(capsys, ["extremal", "--n", "3", "--t", "2", "--r", str(r), "--d", "30"])
        assert code == 0
        u = data["vertices"]
        assert data["uSize"] == len(u) == extremal_size(GridSpec.cube(3, 30, 2, r)) == size
        assert u[0] == [1] * 30
        assert u == sorted(u) and all(a != b for a, b in zip(u, u[1:]))
        assert all(sum(x >= 2 for x in v) <= r - 1 for v in u)


class TestEdges:
    def test_count(self, capsys):
        code, data = run_json(capsys, ["edges", "--d", "2", "--r", "2", "--n", "3", "--t", "2", "--family", "P"])
        assert code == 0
        assert data == {"family": "P", "count": 4}

    def test_list(self, capsys):
        code, data = run_json(
            capsys, ["edges", "--d", "2", "--r", "2", "--n", "3", "--t", "2", "--family", "P", "--list"]
        )
        assert code == 0
        assert len(data["edges"]) == 4
        assert data["edges"][0]["vertices"] == [0, 1, 3, 4]


class TestClosure:
    def test_from_file(self, capsys, tmp_path):
        path = tmp_path / "wsat.hg"
        path.write_text(format_hypergraph(weak_saturation_hypergraph(4, 3)))
        code, data = run_json(capsys, ["closure", "--input", str(path), "--infected", "0,3,5"])
        assert code == 0
        assert data["percolates"] is True
        assert data["finalSize"] == 6

    def test_non_percolating_exit(self, capsys, tmp_path):
        path = tmp_path / "h.hg"
        path.write_text("p 3 1\n0 1 2\n")
        code, data = run_json(capsys, ["closure", "--input", str(path), "--infected", "0"])
        assert code == 1
        assert data["percolates"] is False

    def test_grid_mode_with_extremal_start(self, capsys):
        code, data = run_json(
            capsys,
            ["closure", "--d", "2", "--r", "2", "--n", "3", "--t", "2", "--family", "P", "--initial-u"],
        )
        assert code == 0
        assert data["finalSize"] == 9
        assert len(data["trace"]) == 4

    def test_missing_inputs(self, capsys):
        assert main(["closure"]) == 2
        assert main(["closure", "--d", "2", "--r", "2", "--n", "3", "--t", "2"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "extra",
        [
            ["--initial-u"],
            ["--infected", "0,3,5", "--d", "2", "--r", "2", "--n", "3", "--t", "2"],
            ["--infected", "0,3,5", "--r", "2"],
            ["--infected", "0,3,5", "--family", "P"],
        ],
        ids=["initial-u", "spec", "r-only", "family"],
    )
    def test_input_rejects_grid_arguments(self, capsys, tmp_path, extra):
        path = tmp_path / "wsat.hg"
        path.write_text(format_hypergraph(weak_saturation_hypergraph(4, 3)))
        assert main(["closure", "--input", str(path)] + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --input takes neither a grid spec (--d/--r/--n/--t/--family) nor --initial-u\n"

    def test_infected_and_initial_u_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["closure", "--d", "2", "--r", "2", "--n", "3", "--t", "2", "--initial-u", "--infected", "0"])
        assert err.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_bad_file(self, capsys, tmp_path):
        assert main(["closure", "--input", str(tmp_path / "missing.hg"), "--infected", "0"]) == 2
        capsys.readouterr()

    def test_input_ids_in_any_order_with_repeats(self, capsys, tmp_path):
        runs = []
        for name, text in [("messy.hg", "p 5 3\n4 1 0 1\n2 2\n3 1\n"), ("canonical.hg", "p 5 3\n0 1 4\n2\n1 3\n")]:
            path = tmp_path / name
            path.write_text(text)
            code = main(["closure", "--input", str(path), "--infected", "3,0"])
            runs.append((code, capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0
        assert json.loads(runs[0][1].out)["trace"]

    @pytest.mark.parametrize(
        "text,message",
        [
            ("p -2 0\n", "negative vertex count -2"),
            ("p 3 1\n-1 2\n", "edge [-1, 2] has a vertex outside [0, 3)"),
            ("p 3 1\n0 1.5\n", "non-integer vertex id in edge line"),
        ],
        ids=["negative-count", "negative-id", "non-integer-id"],
    )
    def test_invalid_input_file(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.hg"
        path.write_text(text)
        assert main(["closure", "--input", str(path), "--infected", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestCertify:
    def test_verified_certificate(self, capsys):
        code, data = run_json(capsys, ["certify", "--d", "2", "--r", "2", "--n", "3", "--t", "2", "--family", "K"])
        assert code == 0
        assert data["lowerBound"] == 5
        assert data["verifiedSpan"] is True
        assert data["verifiedDependencies"] is True
        assert data["uSize"] == 5
        assert "fVectors" not in data

    def test_include_f_vectors(self, capsys):
        code, data = run_json(
            capsys,
            ["certify", "--d", "2", "--r", "2", "--n", "3", "--t", "2", "--include-f-vectors"],
        )
        assert code == 0
        assert len(data["fVectors"]) == 9

    @pytest.mark.parametrize("vectors", [[], ["--include-f-vectors"]], ids=["bound", "vectors"])
    @pytest.mark.parametrize(
        "spec",
        ["--d 2 --r 2 --n 3 --t 2", "--n 3,4 --t 2,3 --r 2", "--d 3 --r 1 --n 3 --t 2",
         "--d 3 --r 2 --n 4 --t 3", "--n 3,4,3 --t 2,3,3 --r 3"],
    )
    def test_families_print_one_certificate(self, capsys, spec, vectors):
        # The certificate is the spec's: --family names only the edges the
        # check walks and the "family" line it prints.
        out = {}
        for family in FAMILIES:
            assert main(["certify", *spec.split(), "--family", family, *vectors]) == 0
            out[family] = capsys.readouterr().out.splitlines()
        assert len(out["K"]) == len(out["P"])
        differ = [(k, p) for k, p in zip(out["K"], out["P"]) if k != p]
        assert differ == [('  "family": "K",', '  "family": "P",')]

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "cert.json"
        code = main(["certify", "--d", "2", "--r", "2", "--n", "3", "--t", "3", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["lowerBound"] == 8


class TestAudit:
    def test_default_extremal_set(self, capsys):
        code, data = run_json(capsys, ["audit", "--d", "2", "--r", "2", "--n", "3", "--t", "2", "--family", "P"])
        assert code == 0
        assert data["ok"] is True
        assert data["seedRank"] == 5
        assert data["stepsInSpan"] == [True] * 4

    def test_removed_vertex_fails(self, capsys):
        code, data = run_json(
            capsys,
            ["audit", "--d", "2", "--r", "2", "--n", "3", "--t", "2", "--remove", "0"],
        )
        assert code == 1
        assert data["percolated"] is False

    def test_removed_id_out_of_range(self, capsys):
        assert main(["audit", "--d", "2", "--r", "2", "--n", "3", "--t", "2", "--remove", "99"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "outside" in captured.err

    def test_explicit_infected(self, capsys):
        code, data = run_json(
            capsys,
            ["audit", "--d", "2", "--r", "2", "--n", "3", "--t", "2", "--infected", "0,1,2,3,4,5,6,7,8"],
        )
        assert code == 0
        assert data["percolated"] is True
        # repeated ids count once in initialSize
        code, data = run_json(
            capsys,
            ["audit", "--d", "2", "--r", "2", "--n", "3", "--t", "2", "--infected", "6,0,1,2,3,6,0"],
        )
        assert code == 0
        assert data["initialSize"] == 5
        assert data["ok"] is True


class TestMinperc:
    def test_exhaustive(self, capsys):
        code, data = run_json(
            capsys,
            ["minperc", "--d", "2", "--r", "2", "--n", "3", "--t", "2", "--family", "P", "--exhaustive"],
        )
        assert code == 0
        assert data["minimum"] == 5
        assert data["mode"] == "exhaustive"
        assert data["witness"] == [0, 1, 2, 3, 6]
        assert data["tested"] == 259

    def test_certified_default(self, capsys):
        code, data = run_json(capsys, ["minperc", "--d", "2", "--r", "2", "--n", "3", "--t", "2"])
        assert code == 0
        assert data["minimum"] == 5
        assert data["mode"] == "certified"

    def test_budget_exit(self, capsys):
        code = main(
            ["minperc", "--d", "2", "--r", "2", "--n", "3", "--t", "2", "--exhaustive", "--budget", "5"]
        )
        assert code == 3
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["K", "P"])
    def test_witness_that_fails_to_percolate_exits_1(self, capsys, monkeypatch, family):
        real = cli.certified_lower_bound

        def one_extremal_vertex_short(spec, fam):
            cert = real(spec, fam)
            context = dataclasses.replace(cert.context, u_vertices=cert.context.u_vertices[1:])
            return dataclasses.replace(cert, context=context)

        monkeypatch.setattr(cli, "certified_lower_bound", one_extremal_vertex_short)
        code = main(["minperc", "--d", "2", "--r", "2", "--n", "3", "--t", "2", "--family", family])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: extremal set failed to percolate\n"

    @pytest.mark.parametrize("family", ["K", "P"])
    @pytest.mark.parametrize("damage", ["moved", "repeated"])
    def test_witness_other_than_the_extremal_set_exits_1(self, capsys, monkeypatch, family, damage):
        # A set of the right size that is not the extremal set: its first
        # vertex moved to the top corner, which has d >= r large coordinates,
        # or its last vertex replaced by a repeat of its first.
        real = cli.certified_lower_bound

        def damaged(spec, fam):
            cert = real(spec, fam)
            u = cert.context.u_vertices
            u = (spec.dims, *u[1:]) if damage == "moved" else (*u[:-1], u[0])
            return dataclasses.replace(cert, context=dataclasses.replace(cert.context, u_vertices=u))

        monkeypatch.setattr(cli, "certified_lower_bound", damaged)
        code = main(["minperc", "--d", "2", "--r", "2", "--n", "3", "--t", "2", "--family", family])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "error: extremal set failed to percolate\n"

    @pytest.mark.parametrize("family", ["K", "P"])
    def test_certified_mode_builds_no_hypergraph(self, capsys, monkeypatch, family):
        # The witness is the extremal set, whose percolation the extremal_set
        # docstring proves, so it is checked structurally and never closed.
        built = []
        real = percolation.grid_hypergraph

        def recording(spec, fam):
            built.append(fam)
            return real(spec, fam)

        for module in (cli, certificate, percolation):
            monkeypatch.setattr(module, "grid_hypergraph", recording)
        code, data = run_json(capsys, ["minperc", "--d", "3", "--r", "2", "--n", "3", "--t", "2", "--family", family])
        assert (code, data["family"], data["mode"]) == (0, family, "certified")
        assert built == []

    def test_modes_agree(self, capsys):
        for family in ("K", "P"):
            base = ["minperc", "--d", "3", "--r", "2", "--n", "2", "--t", "2", "--family", family]
            _, certified = run_json(capsys, base)
            _, exhaustive = run_json(capsys, base + ["--exhaustive"])
            assert certified["minimum"] == exhaustive["minimum"] == 4


class TestRneighbour:
    def test_exhaustive_grid(self, capsys):
        code, data = run_json(capsys, ["rneighbour", "--grid", "3,3", "--r", "2", "--exhaustive"])
        assert code == 0
        assert data["minimum"] == 3
        assert data["tested"] == 57

    def test_exhaustive_hypercube(self, capsys):
        code, data = run_json(capsys, ["rneighbour", "--hypercube", "4", "--r", "3", "--exhaustive"])
        assert code == 0
        assert data["minimum"] == 6
        assert data["tested"] == 8873

    def test_greedy_default(self, capsys):
        code, data = run_json(capsys, ["rneighbour", "--hypercube", "3", "--r", "3"])
        assert code == 0
        assert data["mode"] == "greedy"
        assert data["upperBound"] >= 4

    def test_witness_that_fails_to_percolate_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "greedy_r_neighbour_upper_bound", lambda *args, **kwargs: frozenset())
        code = main(["rneighbour", "--grid", "3,3", "--r", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: reported witness does not percolate\n"

    def test_requires_one_graph(self, capsys):
        assert main(["rneighbour", "--r", "2"]) == 2
        assert main(["rneighbour", "--grid", "3,3", "--hypercube", "3", "--r", "2"]) == 2
        capsys.readouterr()


class TestWsat:
    def test_k5_triangles(self, capsys):
        code, data = run_json(capsys, ["wsat", "--n", "5", "--k", "3"])
        assert code == 0
        assert data["minimum"] == 4
        assert data["numVertices"] == 10
        assert data["tested"] == 177

    def test_invalid(self, capsys):
        assert main(["wsat", "--n", "3", "--k", "4"]) == 2
        capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["minperc", "--d", "2", "--r", "2", "--n", "3", "--t", "2", "--exhaustive"],
        ["rneighbour", "--grid", "3,3", "--r", "2", "--exhaustive"],
        ["wsat", "--n", "5", "--k", "3"],
    ],
)
def test_negative_budget_is_invalid_input(capsys, argv):
    assert main(argv + ["--budget", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: budget must be >= 0, got -1\n"


@pytest.mark.parametrize(
    "argv,minimum,witness,tested",
    [
        (["wsat", "--n", "7", "--k", "3"], 6, [0, 1, 2, 3, 4, 5], 27897),
        (["wsat", "--n", "6", "--k", "5"], 12, list(range(12)), 32193),
        (["minperc", "--n", "4,4", "--t", "2,3", "--r", "2", "--exhaustive"],
         10, [0, 1, 2, 3, 4, 5, 8, 9, 12, 13], 50793),
    ],
)
def test_benchmark_search_counts(capsys, argv, minimum, witness, tested):
    # The benchmark's exhaustive commands: the scan order fixes every count.
    code, data = run_json(capsys, argv)
    assert code == 0
    assert (data["minimum"], data["witness"], data["tested"]) == (minimum, witness, tested)


@pytest.mark.parametrize(
    "argv,minimum,witness,tested",
    [
        (["rneighbour", "--grid", "7,7", "--r", "2", "--exhaustive", "--budget", str(10**12)],
         7, [0, 2, 4, 6, 14, 28, 42], 17_822_801),
        (["minperc", "--d", "2", "--n", "5", "--t", "3", "--r", "2", "--family", "K", "--exhaustive",
          "--budget", str(10**12)], 16, [*range(12), 15, 16, 20, 21], 29_704_200),
    ],
)
def test_pruned_search_counts(capsys, argv, minimum, witness, tested):
    # The answers of the searches without the potential test and the value
    # transpositions, which took 6.0 s and 10.9 s to reach them.
    code, data = run_json(capsys, argv)
    assert code == 0
    assert (data["minimum"], data["witness"], data["tested"]) == (minimum, witness, tested)


def test_benchmark_budget_exit(capsys):
    argv = ["minperc", "--d", "3", "--n", "3", "--t", "2", "--r", "2", "--family", "P",
            "--exhaustive", "--budget", "50000"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: search budget exhausted after 50000 candidate sets (budget 50000)\n"


class TestTableGuard:
    COMMANDS = ["certify", "audit", "minperc"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_thirty_axes_exit_3_before_any_row(self, capsys, monkeypatch, command):
        # 3^30 vertices and one extremal vertex: a row built would mean the
        # guard let the table through, so the test fails instead of hanging.
        def forbidden(v, ctx):
            raise AssertionError("certificate_vector called")

        monkeypatch.setattr(certificate, "certificate_vector", forbidden)
        assert main([command, "--n", "3", "--t", "2", "--r", "1", "--d", "30"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the certificate table would hold 205891132094649 x 1 = 205891132094649 entries,"
            " over the limit of 10000000\n"
        )

    @pytest.mark.parametrize("command", COMMANDS)
    def test_limit_is_the_largest_table_allowed(self, capsys, monkeypatch, command):
        # 3^2/t=2/r=2 has 9 vertices and 5 extremal ones: 45 entries.
        argv = [command, "--d", "2", "--r", "2", "--n", "3", "--t", "2"]
        monkeypatch.setattr(certificate, "MAX_TABLE_ENTRIES", 45)
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(certificate, "MAX_TABLE_ENTRIES", 44)
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the certificate table would hold 9 x 5 = 45 entries, over the limit of 44\n"
        with pytest.raises(certificate.CertificateTooLarge):
            certificate.certified_lower_bound(GridSpec.cube(3, 2, 2, 2), "P")


class TestHypergraphGuard:
    # 3^2/t=2/r=2 has 9 K edges and 4 P edges.
    SPEC = ["--d", "2", "--r", "2", "--n", "3", "--t", "2", "--family", "K"]

    @pytest.mark.parametrize("command, code", [
        (["edges", "--list"], 0),
        (["closure", "--initial-u"], 0),
        (["minperc", "--exhaustive"], 0),
        (["audit", "--remove", "0"], 1),  # below full rank: closes on K
    ], ids=["edges", "closure", "minperc", "audit"])
    def test_limit_is_the_most_edges_built(self, capsys, monkeypatch, command, code):
        argv = [*command, *self.SPEC]
        monkeypatch.setattr(percolation, "MAX_HYPERGRAPH_EDGES", 9)
        assert main(argv) == code
        capsys.readouterr()
        monkeypatch.setattr(percolation, "MAX_HYPERGRAPH_EDGES", 8)
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the K family has 9 edges, over the limit of 8\n"

    def test_full_rank_audit_needs_no_k_build(self, capsys, monkeypatch):
        monkeypatch.setattr(percolation, "MAX_HYPERGRAPH_EDGES", 4)
        code, data = run_json(capsys, ["audit", *self.SPEC])
        assert (code, data["family"], data["ok"]) == (0, "K", True)

    def test_counts_at_the_real_limit(self, capsys, monkeypatch):
        # Only closed-form counts: no test builds a hypergraph near the limit.
        def forbidden(spec, family):
            raise AssertionError("a hypergraph over the limit was built")

        monkeypatch.setattr(percolation, "enumerate_edges", forbidden)
        assert percolation.MAX_HYPERGRAPH_EDGES == 10**6
        assert count_edges(GridSpec.cube(60, 3, 5, 2), "P") == 564_480
        percolation.check_edge_count(564_480, "P")
        for n, edges in [(10, 1_323_000), (12, 8_820_900)]:
            assert count_edges(GridSpec.cube(n, 3, 4, 2), "K") == edges
            with pytest.raises(percolation.HypergraphTooLarge, match=f"the K family has {edges} edges"):
                percolation.grid_hypergraph(GridSpec.cube(n, 3, 4, 2), "K")
        # The count alone is not guarded; the K fallback of an audit below
        # full rank is.
        code, data = run_json(capsys, ["edges", "--d", "3", "--n", "12", "--t", "4", "--r", "2"])
        assert (code, data["count"]) == (0, 8_820_900)
        assert main(["audit", "--d", "3", "--n", "12", "--t", "4", "--r", "2", "--remove", "0"]) == 3
        assert capsys.readouterr().err == "error: the K family has 8820900 edges, over the limit of 1000000\n"


class TestSweep:
    def test_header_and_shape(self, capsys):
        code = main(["sweep", "--max-n", "3", "--max-d", "2"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "d,r,n,t,family,formula,lower_bound,brute_force,edges,u_size,runtime_ms"
        # d=1: r=1 x n in {2,3} x t -> 3 specs; d=2: r in {1,2} x 3 specs = 6; 9 specs x 2 families
        assert len(lines) == 1 + 18

    def test_formula_column_matches_certificate(self, capsys):
        code = main(["sweep", "--max-n", "3", "--max-d", "2", "--brute-tests", "2000"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[5] == cells[6]  # formula == lower_bound
            if cells[7]:
                assert cells[7] == cells[5]  # brute force agrees where computed

    def test_json_format(self, capsys):
        code, data = run_json(capsys, ["sweep", "--max-n", "2", "--max-d", "2", "--format", "json"])
        assert code == 0
        assert all(row["formula"] == row["lower_bound"] for row in data)

    @pytest.mark.parametrize("families", ["", " , ", "K,K", "K,P,K"])
    def test_families_empty_or_repeated(self, capsys, families):
        assert main(["sweep", "--max-n", "2", "--max-d", "1", "--families", families]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --families needs distinct families, got {families!r}\n"

    def test_families_unknown(self, capsys):
        assert main(["sweep", "--max-n", "2", "--max-d", "1", "--families", "K,Q"]) == 2
        assert capsys.readouterr().err == "error: unknown family 'Q' in --families\n"

    def test_negative_brute_tests(self, capsys):
        assert main(["sweep", "--max-n", "2", "--max-d", "1", "--brute-tests", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --brute-tests must be >= 0, got -5\n"

    @pytest.mark.parametrize(
        "option,value,least",
        [("--max-d", "0", 1), ("--max-d", "-3", 1), ("--max-n", "1", 2), ("--max-cells", "0", 2), ("--max-cells", "1", 2)],
    )
    def test_empty_sweep_rejected(self, capsys, option, value, least):
        # Below these bounds no spec fits, so the sweep would print only its header.
        argv = ["sweep", "--max-n", "2", "--max-d", "1", "--max-cells", "2", option, value]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {option} must be >= {least}, got {value}\n"

    def test_smallest_sweep_bounds_give_one_spec(self, capsys):
        assert main(["sweep", "--max-n", "2", "--max-d", "1", "--max-cells", "2", "--families", "P"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("1,1,2,2,P,")


class TestCertificateWalk:
    # The commands that read a certificate only for its bound, U and vectors
    # check it on the P edges whatever the family; certify still walks the
    # family it prints.
    @pytest.mark.parametrize(
        "argv,family",
        [
            (["sweep", "--max-n", "3", "--max-d", "2", "--families"], "K"),
            (["sweep", "--max-n", "3", "--max-d", "2", "--families"], "P"),
            (["minperc", "--d", "3", "--r", "2", "--n", "3", "--t", "2", "--family"], "K"),
            (["minperc", "--r", "2", "--n", "3,4", "--t", "2,3", "--family"], "P"),
            (["audit", "--d", "3", "--r", "2", "--n", "3", "--t", "2", "--family"], "K"),
            (["audit", "--r", "2", "--n", "3,4", "--t", "2,3", "--family"], "P"),
            (["certify", "--d", "3", "--r", "2", "--n", "3", "--t", "2", "--family"], "K"),
        ],
    )
    def test_walks(self, capsys, monkeypatch, argv, family):
        walks = []  # [spec, family, edges yielded] per walk
        real = certificate.enumerate_edges

        def spy(spec, fam):
            walks.append([spec, fam, 0])
            for edge in real(spec, fam):
                walks[-1][2] += 1
                yield edge

        monkeypatch.setattr(certificate, "enumerate_edges", spy)
        assert main(argv + [family]) == 0
        capsys.readouterr()
        walked = "K" if argv[0] == "certify" else "P"
        assert walks == [[spec, walked, count_edges(spec, walked)] for spec, _, _ in walks]
        assert len(walks) == (9 if argv[0] == "sweep" else 1)


class TestParser:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_parser_is_built_once(self, capsys, monkeypatch):
        argv = ["formula", "--d", "2", "--r", "2", "--n", "3", "--t", "2"]
        assert main(argv) == 0
        expected = capsys.readouterr()

        def fail(*args, **kwargs):
            raise AssertionError("main built another ArgumentParser")

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", fail)
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr() == expected

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as err:
            main(["formula", "--d", "2", "--r", "1", "--n", "3", "--t", "2", "--bogus"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--d", "2", "--r", "2", "--n", "3", "--t", "2"],
            ["audit", "--d", "2", "--r", "2", "--n", "3", "--t", "2"],
            ["sweep", "--max-n", "2", "--max-d", "1"],
        ],
    )
    def test_jobs_option_removed(self, argv):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--jobs", "2"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["closure", "--input", "h.hg", "--infected", "0"],
            ["certify", "--d", "2", "--r", "2", "--n", "3", "--t", "2"],
            ["audit", "--d", "2", "--r", "2", "--n", "3", "--t", "2"],
            ["rneighbour", "--grid", "3,3", "--r", "2"],
            ["wsat", "--n", "4", "--k", "3"],
        ],
    )
    def test_format_only_on_tabular_commands(self, argv):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--format", "json"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv,header",
        [
            (["formula", "--d", "2", "--r", "2", "--n", "3", "--t", "2"], "extremalSize"),
            (["extremal", "--d", "2", "--r", "2", "--n", "3", "--t", "2"], "x1,x2"),
            (["edges", "--d", "2", "--r", "2", "--n", "3", "--t", "2"], "count"),
            (["minperc", "--d", "2", "--r", "2", "--n", "3", "--t", "2"], "family,mode,minimum,witness,tested"),
            (
                ["sweep", "--max-n", "2", "--max-d", "1"],
                "d,r,n,t,family,formula,lower_bound,brute_force,edges,u_size,runtime_ms",
            ),
        ],
    )
    def test_csv_on_tabular_commands(self, capsys, argv, header):
        assert main(argv + ["--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == header


def test_import_loads_no_worker_machinery():
    src = str(Path(gridperc.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys, gridperc.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures', 'fractions') "
        "if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# Exit code and SHA-256 of stdout + NUL + stderr for each command, recorded
# before the handlers were made to return their output to ``main``.  Sweep
# rows end in ``runtime_ms``, which is masked.  The commands run in a
# directory holding the two hypergraph files below.  A failure shows the new
# pair; replace an entry only when its output is meant to change.
GOLDEN = {
    "formula --d 3 --r 2 --n 5 --t 3":
        (0, "6ac8ba728a45ce10eaeafa2410a619ec88d8b8ec2ca7e280a3b80e89f3501fa9"),
    "formula --r 2 --n 3,4 --t 2,3 --format csv":
        (0, "d925860785f2d596854cb340a5d04871e20ae95c09fe463ac49c68c782f4c144"),
    "formula --d 3 --r 1 --n 3,4 --t 2":
        (2, "6ab4de3c97681bc0bbe803c75009e121f67e928051b429ab6951bcfbfaf84bb6"),
    "formula --d 2 --r 2 --n 3 --t 5":
        (2, "dd16a537ff016842a4bb74a9b36abd9efc030ad4910dc655d0071a9c4ac45e51"),
    "extremal --d 2 --r 2 --n 3 --t 2":
        (0, "d9f973b5adac40aa992c7c7edc88041b3432408eb389f806dc51bf3b1fbcbe59"),
    "extremal --r 2 --n 3,4 --t 2,3 --format csv":
        (0, "f9ef285222c3704bc01399a87e8bf275d7a60a434dbda5d12f0d469609f64f4c"),
    "edges --d 2 --r 2 --n 3 --t 2 --family P":
        (0, "dc0b28f60c0a1602b440f31854f4b9a64b94c2c1b71c0f63ff9780f1d6b75756"),
    "edges --d 2 --r 2 --n 3 --t 2 --format csv":
        (0, "20d334378c49fde6ecb4b78432dc59837ca7f813612c96073f553ed1dc2b25ee"),
    "edges --d 2 --r 2 --n 3 --t 2 --family P --list":
        (0, "5d63b0809300f7ca7fe4fa78d36aff2c1160e531629dba589495fa3cf5a044cd"),
    "edges --d 2 --r 2 --n 3 --t 2 --list --format csv":
        (0, "484989b5623069425a878f79dd417f358a30b7c29008081fc7778f53a0d2279b"),
    "closure --input wsat.hg --infected 0,3,5":
        (0, "ab12a795c75adc75f6f3e8e6d7880fce3a2a66b96c1df1b8ee239368cca0e96c"),
    "closure --input h.hg --infected 0":
        (1, "73bfd0a100d25711c1382eba9f4567ee51ece7251ee69b9c03d5424d3e982b66"),
    "closure --input missing.hg --infected 0":
        (2, "54c8e4af5de5ba2a82ed7166e375d535d7a5ae1928a7a2205e82662bf213aa39"),
    "closure --input wsat.hg":
        (2, "33528ca583732d8201a2adf5c3af8bd4a395a7fa8715d77233f1e9b58506cf97"),
    "closure --d 2 --r 2 --n 3 --t 2 --family P --initial-u":
        (0, "e992b861c9cc5c6ce00bc81b6c553b930273c210203e9a76da8eb56dac252e7e"),
    "closure --n 3,4 --t 2,3 --r 2 --infected 0,1,2,3":
        (1, "b6987bd56ad831c1a68538e2894e666decb6e17daee8f002016975390eeda0dd"),
    "closure --d 2 --r 2 --n 3 --t 2":
        (2, "578b1a21889cde9396fad9522e1bd6c03fe06f2b83f921d8cd15433cf4934dd3"),
    "closure":
        (2, "440b192868a83823e33e6ee135301ee121859b0a4cc6a8cab2f305173c226a6d"),
    "certify --d 2 --r 2 --n 3 --t 2":
        (0, "5014c707cc0ec78d50b562b7ae2e6ff7d4de032d758a7cb36299ec6a797eff72"),
    "certify --n 3,4 --t 2,3 --r 2 --family P --include-f-vectors":
        (0, "aa65e907432f68ea4d00d0d9ccf9a158bdf827187efbaca2292a3d8654b11219"),
    "audit --d 2 --r 2 --n 3 --t 2 --family P":
        (0, "5af1b5aa9bfc3d45e7f666e211ae6f0cbc4f865221ccc6905e51f1b44cffec9f"),
    "audit --d 2 --r 2 --n 3 --t 2 --remove 0":
        (1, "d65858d4865afa04e28b8f61f16b1af65418c8bd233492d9cd9ce1a6cc66999f"),
    "audit --d 2 --r 2 --n 3 --t 2 --infected 0,1,2,3,4,5,6,7,8":
        (0, "ad8a4636a115d817cbfa4332153e7221d7b070a36e7c1746a8a922521fda6b69"),
    "audit --d 2 --r 2 --n 3 --t 2 --remove 99":
        (2, "fdc38dbe3920f9a8aa0afe972e8cb933c80dd220d617f77a2fe66304567705c0"),
    "minperc --d 2 --r 2 --n 3 --t 2":
        (0, "937e1140657a86f82a46e4f1dba8fead6b97f75c87ed98e830dc391c8b62e97e"),
    "minperc --d 2 --r 2 --n 3 --t 2 --format csv":
        (0, "a95dd93caf4915a5c400b72fb566ab07ebd8f70ba1bbae85fca739dba41c4f3a"),
    "minperc --d 2 --r 2 --n 3 --t 2 --family P --exhaustive":
        (0, "7c9e75f45cf3f0c749b5e0bab7fd158c709b459071e6bdb118efdad2600ecb56"),
    "minperc --d 2 --r 2 --n 3 --t 2 --family P --exhaustive --format csv":
        (0, "dd014bab5677d9877d3abed0fbab3d62d14d1dd93e2df2d04f7bd5593c00a7c6"),
    "minperc --d 2 --r 2 --n 3 --t 2 --exhaustive --budget 5":
        (3, "ab228ad0e380e815ddc4323a49b14e2cbc13c7e402246655639a6f1c59e73779"),
    "minperc --d 2 --r 2 --n 3 --t 2 --exhaustive --budget -1":
        (2, "48464f27323becddc15f071abdf447c16c9b528c6954090dd8a8f315e139401e"),
    "rneighbour --grid 4,4 --r 2 --trials 20":
        (0, "cf47097bbbe60cf4f6397752bf0c933c2a27f4f41fc9ac0c880589009d70a0a5"),
    "rneighbour --hypercube 3 --r 3 --seed 7":
        (0, "ae7eca8f4ad7e33dc1398671d2a7457256c6d29726c45b0f80f9672ed9c0a70f"),
    "rneighbour --grid 3,3 --r 2 --exhaustive":
        (0, "2674d64b686c79e0aa126335add6bb7cbf7e0c344bdda348d102e3550d4b778c"),
    "rneighbour --hypercube 3 --r 2 --exhaustive":
        (0, "eccc66008670d7181a473ea2b38ed7e9e46adef172138d16b728c528bffb29a5"),
    "rneighbour --grid 1,4,1 --r 2 --exhaustive":
        (0, "d44522a85e8cdf06fd4fb64dfc2020ffe06a616c5412ec974c4bdc75219bfdd1"),
    "rneighbour --grid 3,1,3 --r 2 --exhaustive":
        (0, "28712f0c8d23377c3ed8a989066a2c458f51af8ab1ca54ac3b02abcd2093c87f"),
    "rneighbour --grid 3,3 --r 2 --exhaustive --budget 10":
        (3, "b8758b6eb5ddf8fbecc23fdd94f88bdb94b45e1ccf17d2aefd6d144bc999b04a"),
    "rneighbour --r 2":
        (2, "63ded7a7c6398beadcd279f5956790e149418f8018b148b2442af054e6af77cb"),
    "rneighbour --grid 3,3 --hypercube 3 --r 2":
        (2, "63ded7a7c6398beadcd279f5956790e149418f8018b148b2442af054e6af77cb"),
    "rneighbour --hypercube 3 --r 0":
        (2, "888b58b5d921c1510037d4e36986075ebd4da0cb2ec1607ff87257b1965e3640"),
    "wsat --n 5 --k 3":
        (0, "ec9c310c879fd1693d148f21fe8debd05f1d4b0dcfa613675f37bc6120b71d53"),
    "wsat --n 5 --k 3 --budget 100":
        (3, "0922c3bd8a81b2f391238c7ce3bbb604d55a523045d71f939d0db3d3fdb35202"),
    "wsat --n 3 --k 4":
        (2, "c6b140d9a5de8f3fd60926c7fdd0c42b0d1509635c15c25c7f2cc544cbe48864"),
    "sweep --max-n 3 --max-d 2":
        (0, "c7d1f58393611ee3b87b7ffbabef6f9e866b2fde802c952fd8028bab449a220a"),
    "sweep --max-n 3 --max-d 2 --families P --brute-tests 2000 --format json":
        (0, "db9cbd4cbd0a970a49f7e5923ce19dc8e846dc4c8daa00cc81da8706cf3e3000"),
    "sweep --max-n 2 --max-d 1 --families K,K":
        (2, "68029528ad9d42dff0edf3d166e14a26de9535f50eaa0cba464b4cbd8ae78d39"),
    "sweep --max-n 2 --max-d 1 --brute-tests -5":
        (2, "f1aa44fb38cb9805a47d1a33a0b7f5021a15b5d3ed70c9b219bbbf82e2874b27"),
    # Recorded while these commands still built a certificate of the
    # requested family, on specs where the K and P edge walks differ.
    "audit --d 3 --n 4 --t 3 --r 2":
        (0, "2d1adf83f5a2b10c7ab80db1e285d55c31f4f8e523e3e3c0239782caaa0d49d2"),
    "audit --n 4,5 --t 2,3 --r 2 --remove 0":
        (1, "dd75cd4d31f9e0bcd6021785a75f242433e1f5011f701e10d9c74d14640934ab"),
    "minperc --d 3 --n 5 --t 3 --r 2 --format csv":
        (0, "6497b982bea8dda41db6c7d4647adf67d325f5908fe2f1473a08d69b76a1da6d"),
    "minperc --n 4,5,6 --t 2,3,4 --r 2":
        (0, "ce573203ddf47ed6cfa7e097c163ce724dafe6ab3a506d14ebf824588b1b411e"),
    "sweep --max-n 4 --max-d 3 --families K --format json":
        (0, "5099eb6046c81582cb9324d28b27bfa1a029f60de58a26c867ef81a66cda93f0"),
    # Recorded while the audit still inserted its seeds in ascending id
    # order: the extremal set of 4^3/t=3/r=2 plus four outside vertices,
    # given unsorted, whose 28 trace steps fill ``stepsInSpan``.
    "audit --d 3 --n 4 --t 3 --r 2 --family K --infected "
    "42,10,13,4,21,2,24,29,33,36,16,7,18,19,49,5,12,20,6,25,28,48,3,27,22,9,53,8,63,37,1,52,23,17,0,32":
        (0, "9aeada5c6fa38c3a5ba50c05ade5f48165085b6f92fb40fa0caa87787e0186c6"),
    "audit --d 3 --n 4 --t 3 --r 2 --family P --infected "
    "42,10,13,4,21,2,24,29,33,36,16,7,18,19,49,5,12,20,6,25,28,48,3,27,22,9,53,8,63,37,1,52,23,17,0,32":
        (0, "68a97efac927d3c8d269329b2e3406029fbabaaa431ec84621668c6757d341d3"),
}


def golden_run(capsys, command):
    code = main(command.split())
    captured = capsys.readouterr()
    out = captured.out
    if command.startswith("sweep"):
        out = re.sub(r"\d+$", "#", out, flags=re.M)
    return code, hashlib.sha256(f"{out}\0{captured.err}".encode()).hexdigest()


@pytest.fixture
def hypergraph_dir(tmp_path, monkeypatch):
    (tmp_path / "wsat.hg").write_text(format_hypergraph(weak_saturation_hypergraph(4, 3)))
    (tmp_path / "h.hg").write_text("p 3 1\n0 1 2\n")
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("command", list(GOLDEN))
def test_golden_output(capsys, hypergraph_dir, command):
    assert golden_run(capsys, command) == GOLDEN[command]


@pytest.mark.parametrize(
    "command",
    ["extremal --d 2 --r 2 --n 3 --t 2 --format csv", "audit --d 2 --r 2 --n 3 --t 2 --remove 0"],
)
def test_out_file_gets_the_stdout_bytes(capsys, tmp_path, command):
    code = main(command.split())
    stdout = capsys.readouterr().out
    out = tmp_path / "out.txt"
    assert main(command.split() + ["--out", str(out)]) == code
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout.encode()


def test_out_into_missing_directory_is_invalid_input(capsys, tmp_path):
    out = tmp_path / "missing" / "out.json"
    assert main(["formula", "--d", "2", "--r", "2", "--n", "3", "--t", "2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno 2] No such file or directory")
