"""The benchmark's three workloads: their operations and output checks.

Each workload's ``setup(gp, rng)`` receives the freshly imported ``gridperc``
package and a ``random.Random`` seeded from ``--seed``, and returns the list
of operations one pass runs, in the order the seed chose.  An operation is a
callable that returns an observation, plus a check that returns ``None`` when
the observation is correct or a one-line reason when it is not.

Why these workloads (the full layer map is in README.md):

* ``certify`` -- the CLI certification path over a fixed spec ladder.  The
  per-edge dependency loop and the Bareiss rank dominate; ``search`` and
  ``closure`` are never called.
* ``audit`` -- library audits against certificates built during set-up:
  hypergraph builds, large closures and the ``Fraction`` elimination basis.
  The dependency check runs only in set-up.
* ``exhaustive`` -- the brute-force oracles: hundreds of thousands of tiny
  closures through ``search``; ``certificate`` and ``exact`` are never called.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from dataclasses import dataclass
from typing import Any, Callable

from oracle import (
    edge_count,
    extremal_size,
    extremal_vertices,
    grid_vertices,
    load_digests,
    stdout_digest,
)


@dataclass(frozen=True)
class Op:
    """One timed operation and the check of what it returned."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]
    # Candidate sets a search operation tested; None for other operations.
    candidates: "Callable[[Any], int] | None" = None


@dataclass(frozen=True)
class CliResult:
    rc: int
    out: str
    err: str


def run_cli(gp, argv: list[str]) -> CliResult:
    """Run ``gridperc.cli.main`` in-process, capturing stdout and stderr.

    ``main`` is looked up on every call so that a traced run sees the
    rebound name.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = gp.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return CliResult(rc, out.getvalue(), err.getvalue())


def _spec_of(argv: list[str]):
    """(dims, thick, r) from a ladder command line, broadcast as the CLI does."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    ns = [int(x) for x in opts["--n"].split(",")]
    ts = [int(x) for x in opts["--t"].split(",")]
    d = int(opts.get("--d", max(len(ns), len(ts))))
    return tuple(ns * d if len(ns) == 1 else ns), tuple(ts * d if len(ts) == 1 else ts), int(opts["--r"])


def _cli_op(gp, digests, command: str, check_payload, *, rc=0, mask_runtime=False, candidates=None) -> Op:
    argv = command.split()

    def check(res: CliResult):
        if res.rc != rc:
            return f"exit code {res.rc}, expected {rc}"
        expected = digests.get(command)
        if expected is None:
            return "no recorded stdout digest"
        if stdout_digest(res.out, mask_runtime) != expected:
            return "stdout differs from the recorded digest"
        return check_payload(res)

    return Op(command, lambda: run_cli(gp, argv), check, candidates)


# ---------------------------------------------------------------- certify

CERTIFY_LADDER = [
    "certify --d 3 --n 6 --t 3 --r 2",
    "certify --d 4 --n 4 --t 3 --r 3 --family P",
    "certify --d 4 --n 4 --t 2 --r 3",
    "certify --d 5 --n 3 --t 2 --r 3",
    "certify --d 4 --n 5 --t 2 --r 2 --family P",
    "certify --n 5,6,7 --t 2,3,4 --r 2",
    "certify --d 3 --n 5 --t 3 --r 2 --include-f-vectors",
]
SWEEP_LADDER = [
    ("sweep --max-cells 64", 4, 3, 64),
    ("sweep --max-n 5 --max-cells 125", 5, 3, 125),
]
SWEEP_HEADER = "d,r,n,t,family,formula,lower_bound,brute_force,edges,u_size,runtime_ms"


def _check_certificate(command: str):
    dims, thick, r = _spec_of(command.split())
    bound = extremal_size(dims, thick, r)
    with_vectors = "--include-f-vectors" in command

    def check(res: CliResult):
        payload = json.loads(res.out)
        if payload["spec"] != {"dims": list(dims), "thick": list(thick), "r": r}:
            return f"spec echoed as {payload['spec']}"
        if payload["lowerBound"] != bound or payload["uSize"] != bound:
            return f"lowerBound {payload['lowerBound']}, uSize {payload['uSize']}, formula {bound}"
        if payload["verifiedSpan"] is not True or payload["verifiedDependencies"] is not True:
            return "certificate not verified"
        if with_vectors:
            vectors = payload["fVectors"]
            if len(vectors) != len(grid_vertices(dims)) or any(len(row) != bound for row in vectors):
                return "fVectors have the wrong shape"
        return None

    return check


def _check_sweep(max_n: int, max_d: int, max_cells: int):
    expected_keys = [
        (d, r, n, t, family)
        for d in range(1, max_d + 1)
        for r in range(1, d + 1)
        for n in range(2, max_n + 1)
        if n**d <= max_cells
        for t in range(2, n + 1)
        for family in ("K", "P")
    ]

    def check(res: CliResult):
        lines = res.out.rstrip("\n").split("\n")
        if lines[0] != SWEEP_HEADER:
            return f"sweep header {lines[0]!r}"
        rows = [line.split(",") for line in lines[1:]]
        keys = [(int(d), int(r), int(n), int(t), fam) for d, r, n, t, fam, *_ in rows]
        if keys != expected_keys:
            return "sweep rows differ from the expected spec list"
        for (d, r, n, t, family), row in zip(keys, rows):
            bound = extremal_size((n,) * d, (t,) * d, r)
            formula, lower, brute, edges, u_size = row[5:10]
            if not int(formula) == int(lower) == int(u_size) == bound:
                return f"sweep row {row}: formula {bound}"
            if brute != "" or int(edges) != edge_count((n,) * d, (t,) * d, r, family):
                return f"sweep row {row}: wrong edges or brute_force"
        return None

    return check


def certify_setup(gp, rng) -> list[Op]:
    digests = load_digests()
    ops = [_cli_op(gp, digests, c, _check_certificate(c)) for c in CERTIFY_LADDER]
    ops += [
        _cli_op(gp, digests, c, _check_sweep(max_n, max_d, cells), mask_runtime=True)
        for c, max_n, max_d, cells in SWEEP_LADDER
    ]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- audit

# (dims, thick, r): the certificates built in set-up, K family.
AUDIT_SPECS = [((6, 6, 6), (3, 3, 3), 2), ((4, 4, 4, 4), (2, 2, 2, 2), 3)]


def _check_audit(size: int, u_size: int, expect_ok: bool):
    def check(report):
        if report.initial_size != size or report.u_size != u_size:
            return f"initial_size {report.initial_size}, u_size {report.u_size}"
        if expect_ok:
            if not (report.ok and report.percolated and report.seed_rank == u_size
                    and report.all_steps_in_span):
                return "superset of the extremal set failed the audit"
        elif report.percolated or report.ok:
            return f"a set of size {size} < {u_size} percolated or passed"
        return None

    return check


def audit_setup(gp, rng) -> list[Op]:
    ops = []
    for dims, thick, r in AUDIT_SPECS:
        u_size = extremal_size(dims, thick, r)
        cert = gp.certified_lower_bound(gp.GridSpec(dims, thick, r), "K")
        if cert.lower_bound != u_size:
            raise RuntimeError(f"certificate for {dims}/{thick}/{r}: bound {cert.lower_bound} != {u_size}")
        everything = grid_vertices(dims)
        u = extremal_vertices(dims, thick, r)
        in_u = set(u)
        outside = [v for v in everything if v not in in_u]
        for family in ("K", "P"):
            cases = [("extremal", u, True)]
            # The seed picks the added vertices; their number is fixed, since
            # the audit's cost grows with the set and the seed should not
            # change how much work a pass does.
            for i in range(3):
                extra = rng.sample(outside, len(outside) * (i + 1) // 4)
                cases.append((f"superset{i}", u + extra, True))
            for i in range(2):
                drop = rng.randrange(len(u))
                cases.append((f"minus{i}", u[:drop] + u[drop + 1:], False))
            cases.append(("random", rng.sample(everything, u_size - 1), False))
            for name, verts, expect_ok in cases:
                ops.append(Op(
                    f"audit {dims}/{thick}/r{r} {family} {name}",
                    lambda cert=cert, verts=verts, family=family:
                        gp.audit_percolating_set(cert, verts, family=family),
                    _check_audit(len(verts), u_size, expect_ok),
                ))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- exhaustive

# Command and its known exact minimum.
EXHAUSTIVE_LADDER = [
    ("minperc --n 4,5 --t 2 --r 2 --family P --exhaustive", 8),
    ("minperc --d 2 --n 4 --t 3 --r 2 --family K --exhaustive", 12),
    ("minperc --d 2 --n 4 --t 3 --r 2 --family P --exhaustive", 12),
    ("minperc --n 4,4 --t 2,3 --r 2 --exhaustive", 10),
    ("wsat --n 7 --k 3", 6),
    ("wsat --n 6 --k 5", 12),
    ("rneighbour --grid 6,6 --r 2 --exhaustive", 6),
]
BUDGET_COMMAND = "minperc --d 3 --n 3 --t 2 --r 2 --family P --exhaustive --budget 50000"
_BUDGET_MESSAGE = re.compile(r"search budget exhausted after (\d+) candidate sets")


def _check_minimum(minimum: int):
    def check(res: CliResult):
        payload = json.loads(res.out)
        if payload["minimum"] != minimum or len(payload["witness"]) != minimum:
            return f"minimum {payload['minimum']}, expected {minimum}"
        return None

    return check


def _check_budget(res: CliResult):
    if res.out or not _BUDGET_MESSAGE.search(res.err):
        return "budget exhaustion not reported"
    return None


def exhaustive_setup(gp, rng) -> list[Op]:
    digests = load_digests()
    ops = [
        _cli_op(gp, digests, c, _check_minimum(m),
                candidates=lambda res: json.loads(res.out)["tested"])
        for c, m in EXHAUSTIVE_LADDER
    ]
    ops.append(_cli_op(
        gp, digests, BUDGET_COMMAND, _check_budget, rc=3,
        candidates=lambda res: int(_BUDGET_MESSAGE.search(res.err).group(1)),
    ))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "certify": certify_setup,
    "audit": audit_setup,
    "exhaustive": exhaustive_setup,
}
