"""Mutation check: the tests must catch hand-made faults in the library.

Each mutant replaces one exact piece of text in one source file and names
the tests that must fail on the result.  For every mutant the script copies
``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory, applies
the mutant there, runs its listed tests and requires every one of them to
fail.  Before any mutant runs, all listed tests must pass on an unmutated
copy.  A mutant whose old text does not occur exactly once is an error: a
refactor that moves the text must update the mutant, not drop it.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py

It prints one line per mutant and exits 0 only if every mutant is killed.
pytest does not collect this file (it collects ``test_*.py`` only).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CERT = "src/gridperc/certificate.py"
CLI = "src/gridperc/cli.py"
EXACT = "src/gridperc/exact.py"
GRID = "src/gridperc/grid.py"
PERC = "src/gridperc/percolation.py"
SEARCH = "src/gridperc/search.py"

# (name, file, exact old text, new text, test ids that must each fail)
MUTANTS = [
    (
        "closure stops one infection early",
        PERC,
        "if not done < len(trace) < uninfected:",
        "if not done < len(trace) < uninfected - 1:",
        [
            "tests/test_percolation.py::TestClosure::test_extremal_set_fills_interval_grid",
            "tests/test_certificate.py::TestAudit::test_interval_family_audit",
        ],
    ),
    (
        "closure fires the ready edges in descending order",
        PERC,
        "        for e_idx in ready:\n",
        "        for e_idx in reversed(ready):\n",
        [
            "tests/test_percolation.py::TestClosure::test_property_matches_scanning_reference",
            "tests/test_percolation.py::TestClosure::test_no_incidence_is_read_after_the_last_infection[K-spec2]",
        ],
    ),
    (
        "kernel drops its final rescale",
        EXACT,
        "        if last != held:\n            v = [x * last // held for x in v]\n",
        "",
        [
            "tests/test_exact.py::TestDeferredRescale::test_triangular_input_has_only_zero_multipliers",
            "tests/test_exact.py::TestDeferredRescale::test_trailing_zero_multipliers_rescale_at_the_end",
        ],
    ),
    (
        "certificate table guard disabled",
        CERT,
        "if entries > MAX_TABLE_ENTRIES:",
        "if False:",
        [
            "tests/test_cli.py::TestTableGuard::test_thirty_axes_exit_3_before_any_row[certify]",
            "tests/test_cli.py::TestTableGuard::test_limit_is_the_largest_table_allowed[audit]",
            "tests/test_cli.py::TestTableGuard::test_limit_is_the_largest_table_allowed[minperc]",
        ],
    ),
    (
        "audit seeds stop at rank |U| - 1",
        CERT,
        "        if basis.rank == full:\n            break",
        "        if basis.rank == full - 1:\n            break",
        [
            "tests/test_certificate.py::TestAudit::test_extremal_set_passes",
            "tests/test_certificate.py::TestAudit::test_full_vertex_set",
        ],
    ),
    (
        "audit trace stops at rank |U| - 1",
        CERT,
        "if basis.rank < full and basis.insert(",
        "if basis.rank < full - 1 and basis.insert(",
        [
            "tests/test_certificate.py::TestAudit::test_damaged_certificate_still_fails[K-spec0]",
        ],
    ),
    (
        "certified minperc accepts r large coordinates",
        CLI,
        "any(spec.large_count(v) >= spec.r for v in u)",
        "any(spec.large_count(v) > spec.r for v in u)",
        [
            "tests/test_cli.py::TestMinperc::test_witness_other_than_the_extremal_set_exits_1[moved-K]",
            "tests/test_cli.py::TestMinperc::test_witness_other_than_the_extremal_set_exits_1[moved-P]",
        ],
    ),
    (
        "certified minperc counts repeated witness members",
        CLI,
        "if len(set(witness)) != extremal_size(spec)",
        "if len(witness) != extremal_size(spec)",
        [
            "tests/test_cli.py::TestMinperc::test_witness_other_than_the_extremal_set_exits_1[repeated-K]",
            "tests/test_cli.py::TestMinperc::test_witness_other_than_the_extremal_set_exits_1[repeated-P]",
        ],
    ),
    (
        "floor answer reported one position late",
        SEARCH,
        "return _result(mandatory, found, before[low])",
        "return _result(mandatory, found, before[low] + 1)",
        [
            "tests/test_search.py::TestAgainstPlainScan::test_r_neighbour_floor_first",
        ],
    ),
    (
        "floor walked first when the budget does not pass it",
        SEARCH,
        "        if low < size:\n",
        "        if low <= size:\n",
        [
            "tests/test_search.py::TestAgainstPlainScan::test_r_neighbour_floor_first",
        ],
    ),
    (
        "general position not checked",
        CERT,
        "if not verify_general_position(m, t):",
        "if False:",
        [
            "tests/test_certificate.py::TestCertifiedLowerBound::test_degenerate_matrix_is_rejected",
            "tests/test_certificate.py::TestCertifiedLowerBound::test_coefficients_only_for_the_walked_family[spec0]",
        ],
    ),
    (
        "every subset's coefficients built for P",
        CERT,
        "for vals in axis_value_sets(n, t, family)}",
        'for vals in axis_value_sets(n, t, "K")}',
        [
            "tests/test_certificate.py::TestCertifiedLowerBound::test_coefficients_only_for_the_walked_family[spec1]",
            "tests/test_certificate.py::TestCertifiedLowerBound::test_coefficients_only_for_the_walked_family[spec2]",
        ],
    ),
    (
        "coefficient table rebuilt for every axis",
        CERT,
        "if (n, t) not in tables:",
        "if True:",
        [
            "tests/test_certificate.py::TestCertifiedLowerBound::test_coefficients_only_for_the_walked_family[spec0]",
            "tests/test_certificate.py::TestCertifiedLowerBound::test_coefficients_only_for_the_walked_family[spec3]",
        ],
    ),
    (
        "trace steps inserted unreversed",
        CERT,
        "basis.insert(cert.f_vectors[v][::-1])",
        "basis.insert(cert.f_vectors[v])",
        [
            "tests/test_certificate.py::TestAudit::test_damaged_certificate_still_fails[K-spec0]",
            "tests/test_certificate.py::TestAudit::test_damaged_certificate_still_fails[P-spec1]",
        ],
    ),
    (
        "seeds inserted ascending",
        CERT,
        "for a in sorted(reversed(ids), key=",
        "for a in sorted(ids, key=",
        [
            "tests/test_certificate.py::TestAudit::test_extremal_seeds_need_no_elimination[spec1-K]",
            "tests/test_certificate.py::TestAudit::test_extremal_seeds_need_no_elimination[spec4-P]",
        ],
    ),
    (
        "audit closes on a fixed K",
        CERT,
        "cert._hypergraphs[closed_on] = grid_hypergraph(spec, closed_on)",
        'cert._hypergraphs[closed_on] = grid_hypergraph(spec, "K")',
        [
            "tests/test_certificate.py::TestAudit::test_one_build_per_certificate_and_family",
            "tests/test_certificate.py::TestAudit::test_damaged_certificate_still_fails[P-spec3]",
            "tests/test_certificate.py::TestAudit::test_k_only_percolating_sets",
        ],
    ),
    (
        "no K fallback when P fails at full rank",
        CERT,
        '("P", family) if seed_rank == full',
        '("P",) if seed_rank == full',
        [
            "tests/test_certificate.py::TestAudit::test_k_only_percolating_sets",
            "tests/test_certificate.py::TestAudit::test_full_rank_k_audit_closes_on_p_first[case2]",
            "tests/test_certificate.py::TestAudit::test_permuted_extremal_sets_audit_ok[spec0]",
        ],
    ),
    (
        "P chosen below full rank",
        CERT,
        "else (family,)):",
        'else ("P",)):',
        [
            "tests/test_certificate.py::TestAudit::test_full_rank_k_audit_closes_on_p_first[case0]",
            "tests/test_certificate.py::TestAudit::test_damaged_certificate_still_fails[K-spec3]",
        ],
    ),
    (
        "hypergraph edge guard disabled",
        PERC,
        "if count > MAX_HYPERGRAPH_EDGES:",
        "if False:",
        [
            "tests/test_cli.py::TestHypergraphGuard::test_limit_is_the_most_edges_built[edges]",
            "tests/test_cli.py::TestHypergraphGuard::test_limit_is_the_most_edges_built[audit]",
            "tests/test_cli.py::TestHypergraphGuard::test_counts_at_the_real_limit",
        ],
    ),
    (
        "span check skips the position after a row's own",
        CERT,
        "any(vec[own + 1 :])",
        "any(vec[own + 2 :])",
        [
            "tests/test_certificate.py::TestCertifiedLowerBound::test_non_triangular_row_is_rejected[next_position]",
            "tests/test_certificate.py::TestCertifiedLowerBound::test_span_check_follows_row_major_order[after_own_smaller_sum-K]",
            "tests/test_certificate.py::TestCertifiedLowerBound::test_span_check_follows_row_major_order[after_own_smaller_sum-P]",
        ],
    ),
    (
        "span check accepts a zero diagonal",
        CERT,
        "if vec[own] <= 0 or",
        "if vec[own] < 0 or",
        [
            "tests/test_certificate.py::TestCertifiedLowerBound::test_non_triangular_row_is_rejected[zero_diagonal]",
        ],
    ),
    (
        "kernel takes entries without operator.index",
        EXACT,
        "v = list(map(operator.index, vector))",
        "v = list(vector)",
        [
            "tests/test_exact.py::TestEliminationBasis::test_non_rational_entries_rejected",
            "tests/test_exact.py::TestEliminationBasis::test_full_rank_basis_still_checks_input",
        ],
    ),
    (
        "extremal set left in large-axis-set order",
        GRID,
        "    return sorted(\n        v\n        for size in range(spec.r)",
        "    return list(\n        v\n        for size in range(spec.r)",
        [
            "tests/test_grid.py::TestExtremal::test_property_set_equals_the_vertex_filter",
            "tests/test_cli.py::TestExtremal::test_vertices",
        ],
    ),
    (
        "hypergraph start skips the size-1 edges",
        SEARCH,
        "(e[0] for e in h.edges if len(e) == 1), _mask(mandatory)",
        "(), _mask(mandatory)",
        [
            "tests/test_search.py::TestAgainstPlainScan::test_start_calls_no_closure_oracle[hypergraph]",
        ],
    ),
    (
        "r-neighbour start leaves out the forced vertices",
        SEARCH,
        "start = functools.reduce(spread, mandatory, 0)",
        "start = 0",
        [
            "tests/test_search.py::TestMinRNeighbour::test_low_degree_vertices_are_mandatory",
            "tests/test_search.py::TestAgainstPlainScan::test_start_calls_no_closure_oracle[graph]",
        ],
    ),
    (
        "projected axes not checked to be distinct",
        CERT,
        "len(proj_axes) != p or len(axes) != p or",
        "len(proj_axes) != p or",
        [
            "tests/test_certificate.py::TestProjectionComponent::test_bad_axes_rejected[repeated]",
        ],
    ),
]


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run_pytest(tree: Path, ids) -> subprocess.CompletedProcess:
    # The copy's own src/ comes first; a fixed hypothesis seed makes each
    # verdict reproducible.
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", "--hypothesis-seed=0", *ids]
    return subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)


def failed_ids(result: subprocess.CompletedProcess, ids) -> list[str]:
    lines = result.stdout.splitlines()
    return [i for i in ids if any(ln == f"FAILED {i}" or ln.startswith(f"FAILED {i} - ") for ln in lines)]


def main() -> int:
    started = time.perf_counter()
    for name, path, old, _new, _ids in MUTANTS:
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            print(f"error: mutant {name!r}: old text occurs {count} times in {path}", file=sys.stderr)
            return 2
    every_id = list(dict.fromkeys(i for *_, ids in MUTANTS for i in ids))
    with tempfile.TemporaryDirectory(prefix="gridperc-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        result = run_pytest(clean, every_id)
        if result.returncode != 0:
            print(result.stdout + result.stderr, file=sys.stderr)
            print("error: the listed tests do not all pass on the unmutated tree", file=sys.stderr)
            return 2
        survivors = 0
        for number, (name, path, old, new, ids) in enumerate(MUTANTS):
            tree = Path(tmp) / f"mutant{number}"
            copy_tree(tree)
            target = tree / path
            target.write_text(target.read_text().replace(old, new))
            result = run_pytest(tree, ids)
            failed = failed_ids(result, ids)
            killed = result.returncode == 1 and len(failed) == len(ids)
            survivors += not killed
            print(f"{'killed  ' if killed else 'SURVIVED'} {name}: {len(failed)} of {len(ids)} listed tests failed")
            if not killed:
                print(result.stdout[-2000:], file=sys.stderr)
            shutil.rmtree(tree)
    elapsed = time.perf_counter() - started
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed in {elapsed:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
