import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gridperc
from gridperc.cli import main
from gridperc.percolation import format_hypergraph, weak_saturation_hypergraph


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
        code = main(["formula", "--d", "3", "--r", "1", "--n", "3,4", "--t", "2"])
        assert code == 2
        assert "inconsistent" in capsys.readouterr().err

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

    def test_bad_file(self, capsys, tmp_path):
        assert main(["closure", "--input", str(tmp_path / "missing.hg"), "--infected", "0"]) == 2
        capsys.readouterr()


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


def test_benchmark_budget_exit(capsys):
    argv = ["minperc", "--d", "3", "--n", "3", "--t", "2", "--r", "2", "--family", "P",
            "--exhaustive", "--budget", "50000"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: search budget exhausted after 50000 candidate sets (budget 50000)\n"


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


class TestParser:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

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
