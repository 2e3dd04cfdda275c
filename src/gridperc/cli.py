"""Command-line driver.

Subcommands: formula, extremal, edges, closure, certify, audit, minperc,
rneighbour, wsat, sweep.  Output is JSON; tabular commands also render CSV
via --format csv.  Exit codes: 0 success / verified / percolated, 1 negative
result (non-percolation, invalid certificate), 2 invalid input, 3 search
budget exceeded, or a certificate table, hypergraph, edge walk, extremal
set or set of search masks over its size limit.

Each ``_cmd_*`` handler only computes: it returns ``(payload, table,
exit_code)``, where ``payload`` is the JSON-ready result and ``table`` holds
the CSV rows, header row first, or is None on commands without --format.
``main`` alone reads --format and --out, serializes, writes, and maps errors
to exit codes.

A certificate depends on the spec only, and the family belongs to the
caller: ``certify`` walks and prints --family, and ``audit`` reports
percolation on it (an audit of the extremal set or of a superset is
settled by the percolation proof and closes nothing, see
audit_percolating_set).  ``sweep``, certified ``minperc`` and
``audit`` walk the "P" edges whatever --family says; by the interval lemma
in ``certified_lower_bound`` that check covers the "K" edges too.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time

from .certificate import (
    CertificateError,
    CertificateTooLarge,
    audit_percolating_set,
    certificate_to_dict,
    certified_lower_bound,
)
from .grid import (
    FAMILIES,
    GridSpec,
    axis_images,
    count_edges,
    decode_vertex,
    encode_vertex,
    enumerate_edges,
    extremal_set,
    extremal_size,
    family_images,
)
from .percolation import (
    HypergraphTooLarge,
    check_edge_count,
    check_size,
    closure,
    grid_hypergraph,
    read_hypergraph,
    weak_saturation_hypergraph,
    weak_saturation_images,
)
from .search import (
    DEFAULT_BUDGET,
    SearchBudgetExceeded,
    greedy_r_neighbour_upper_bound,
    grid_graph,
    hypercube_graph,
    min_percolating_exact,
    min_r_neighbour_percolating,
    r_neighbour_closure,
)


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in str(text).split(",") if tok != ""]
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}") from None


def _parse_spec(args) -> GridSpec:
    ns = _int_list(args.n)
    ts = _int_list(args.t)
    if not ns or not ts:
        raise ValueError("--n and --t must each give at least one value")
    d = args.d if args.d is not None else max(len(ns), len(ts))
    if len(ns) not in (1, d) or len(ts) not in (1, d):
        raise ValueError(
            f"inconsistent list lengths: --d {d}, --n gives {len(ns)}, --t gives {len(ts)}"
        )
    if len(ns) == 1:
        ns = ns * d
    if len(ts) == 1:
        ts = ts * d
    return GridSpec(tuple(ns), tuple(ts), args.r)


def _add_spec_args(p: argparse.ArgumentParser, with_family: bool = True, required: bool = True) -> None:
    p.add_argument("--d", type=int, default=None, help="number of axes (inferred from --n/--t lists if omitted)")
    p.add_argument("--r", type=int, required=required, help="number of varying axes per edge")
    p.add_argument("--n", required=required, help="axis length, or comma list of per-axis lengths")
    p.add_argument("--t", required=required, help="thickness, or comma list of per-axis thicknesses")
    if with_family:
        p.add_argument("--family", choices=FAMILIES, default="K", help="edge family (default K)")


def _add_output_args(p: argparse.ArgumentParser, formats=()) -> None:
    p.add_argument("--out", default=None, help="write output to this file instead of stdout")
    if formats:
        p.add_argument("--format", choices=list(formats), default=formats[0])


def _found(result) -> dict:
    """Output fields of an exhaustive search result."""
    return {"minimum": result.minimum, "witness": list(result.witness), "tested": result.tested}


def _cmd_formula(args):
    spec = _parse_spec(args)
    value = extremal_size(spec)
    return {"extremalSize": value}, [["extremalSize"], [value]], 0


def _cmd_extremal(args):
    spec = _parse_spec(args)
    check_size("the extremal set", extremal_size(spec))
    u = [list(v) for v in extremal_set(spec)]
    header = [f"x{k}" for k in range(1, spec.d + 1)]
    return {"uSize": len(u), "vertices": u}, [header, *u], 0


def _cmd_edges(args):
    spec = _parse_spec(args)
    count = count_edges(spec, args.family)
    payload = {"family": args.family, "count": count}
    table = [["count"], [count]]
    if args.list:
        check_edge_count(count, args.family)
        edges = list(enumerate_edges(spec, args.family))
        payload["edges"] = [
            {
                "varying": list(varying),
                "values": [list(vals) for vals in values],
                "fixed": list(fixed),
                "vertices": ids,
            }
            for varying, values, fixed, ids in edges
        ]
        table = [["index", "vertices"]] + [[i, " ".join(map(str, edge[3]))] for i, edge in enumerate(edges)]
    return payload, table, 0


def _cmd_closure(args):
    if args.input:
        if args.initial_u or any(x is not None for x in (args.d, args.r, args.n, args.t, args.family)):
            raise ValueError("--input takes neither a grid spec (--d/--r/--n/--t/--family) nor --initial-u")
        h = read_hypergraph(args.input)
        if args.infected is None:
            raise ValueError("--infected is required with --input")
        initial = _int_list(args.infected)
    else:
        if args.n is None or args.t is None or args.r is None:
            raise ValueError("provide either --input FILE or a grid spec (--n/--t/--r)")
        spec = _parse_spec(args)
        h = grid_hypergraph(spec, args.family or "K")
        if args.initial_u:
            initial = [encode_vertex(spec, v) for v in extremal_set(spec)]
        elif args.infected is not None:
            initial = _int_list(args.infected)
        else:
            raise ValueError("provide --infected ids or --initial-u")
    result = closure(h, initial)
    perc = len(result.final) == h.num_vertices
    payload = {
        "numVertices": h.num_vertices,
        "initial": sorted(result.initial),
        "finalSize": len(result.final),
        "final": sorted(result.final),
        "percolates": perc,
        "trace": [[v, e] for v, e in result.trace],
    }
    return payload, None, 0 if perc else 1


def _cmd_certify(args):
    spec = _parse_spec(args)
    cert = certified_lower_bound(spec, args.family)
    return certificate_to_dict(cert, args.family, args.include_f_vectors), None, 0


def _cmd_audit(args):
    spec = _parse_spec(args)
    cert = certified_lower_bound(spec, "P")  # bounds both families by the interval lemma
    if args.infected is not None:
        vertices = [decode_vertex(spec, i) for i in _int_list(args.infected)]
    else:
        vertices = cert.context.u_vertices
    if args.remove:
        drop = {decode_vertex(spec, i) for i in _int_list(args.remove)}
        vertices = [v for v in vertices if v not in drop]
    report = audit_percolating_set(cert, vertices, args.family)
    payload = {
        "family": args.family,
        "initialSize": report.initial_size,
        "percolated": report.percolated,
        "seedRank": report.seed_rank,
        "uSize": report.u_size,
        "stepsInSpan": list(report.steps_in_span),
        "allStepsInSpan": report.all_steps_in_span,
        "ok": report.ok,
    }
    return payload, None, 0 if report.ok else 1


def _cmd_minperc(args):
    spec = _parse_spec(args)
    if args.exhaustive:
        h = grid_hypergraph(spec, args.family)
        payload = {
            "family": args.family,
            "mode": "exhaustive",
            **_found(min_percolating_exact(h, budget=args.budget, images=family_images(spec, args.family))),
        }
    else:
        cert = certified_lower_bound(spec, "P")  # bounds both families by the interval lemma
        u = cert.context.u_vertices
        witness = sorted(encode_vertex(spec, v) for v in u)
        # extremal_size(spec) distinct vertices with at most r - 1 large
        # coordinates are the extremal set, which percolates by the proof in
        # the extremal_set docstring.
        if len(set(witness)) != extremal_size(spec) or any(spec.large_count(v) >= spec.r for v in u):
            raise CertificateError("extremal set failed to percolate")
        payload = {
            "family": args.family,
            "mode": "certified",
            "minimum": cert.lower_bound,
            "witness": witness,
            "tested": 1,
        }
    row = {**payload, "witness": " ".join(map(str, payload["witness"]))}
    return payload, [list(row), list(row.values())], 0


def _cmd_rneighbour(args):
    if (args.grid is None) == (args.hypercube is None):
        raise ValueError("provide exactly one of --grid or --hypercube")
    if args.grid is not None:
        dims = _int_list(args.grid)
        g = grid_graph(dims)
        desc = {"kind": "grid", "dims": dims}
    else:
        g = hypercube_graph(args.hypercube)
        desc = {"kind": "hypercube", "d": args.hypercube}
        dims = (2,) * args.hypercube
    payload = {"graph": desc, "r": args.r}
    if args.exhaustive:
        payload["mode"] = "exhaustive"
        result = min_r_neighbour_percolating(g, args.r, budget=args.budget, images=axis_images(dims))
        payload.update(_found(result))
    else:
        witness = greedy_r_neighbour_upper_bound(g, args.r, trials=args.trials, seed=args.seed)
        payload.update(
            mode="greedy", upperBound=len(witness), witness=sorted(witness), trials=args.trials, seed=args.seed
        )
    # independent sanity check on whichever witness we are about to report
    if len(r_neighbour_closure(g, payload["witness"], args.r)) != g.num_vertices:
        raise CertificateError("reported witness does not percolate")
    return payload, None, 0


def _cmd_wsat(args):
    h = weak_saturation_hypergraph(args.n, args.k)
    result = min_percolating_exact(h, budget=args.budget, images=weak_saturation_images(args.n))
    payload = {
        "n": args.n,
        "k": args.k,
        "numVertices": h.num_vertices,
        "numEdges": len(h.edges),
        **_found(result),
    }
    return payload, None, 0


SWEEP_HEADER = ["d", "r", "n", "t", "family", "formula", "lower_bound", "brute_force", "edges", "u_size", "runtime_ms"]


def _sweep_specs(args):
    for d in range(1, args.max_d + 1):
        for r in range(1, d + 1):
            for n in range(2, args.max_n + 1):
                if n**d > args.max_cells:
                    continue
                for t in range(2, n + 1):
                    yield GridSpec.cube(n, d, t, r)


def _cmd_sweep(args):
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    if not families or len(set(families)) != len(families):
        raise ValueError(f"--families needs distinct families, got {args.families!r}")
    for f in families:
        if f not in FAMILIES:
            raise ValueError(f"unknown family {f!r} in --families")
    for option, value, least in (("--max-n", args.max_n, 2), ("--max-d", args.max_d, 1),
                                 ("--max-cells", args.max_cells, 2), ("--brute-tests", args.brute_tests, 0)):
        if value < least:  # the smallest spec, d=1 and n=2, has 2 cells: no sweep is empty
            raise ValueError(f"{option} must be >= {least}, got {value}")
    rows = []
    for spec in _sweep_specs(args):
        cert = certified_lower_bound(spec, "P")  # bounds both families by the interval lemma
        u_size = cert.context.u_size
        for family in families:
            started = time.perf_counter()
            formula = extremal_size(spec)
            edge_count = count_edges(spec, family)
            brute = ""
            if args.brute_tests > 0:
                nv = spec.num_vertices
                predicted = sum(math.comb(nv, k) for k in range(formula + 1))
                if predicted <= args.brute_tests:
                    brute = min_percolating_exact(
                        grid_hypergraph(spec, family),
                        budget=args.brute_tests,
                        images=family_images(spec, family),
                    ).minimum
            runtime_ms = int((time.perf_counter() - started) * 1000)
            rows.append(
                [spec.d, spec.r, spec.dims[0], spec.thick[0], family, formula,
                 cert.lower_bound, brute, edge_count, u_size, runtime_ms]
            )
    return [dict(zip(SWEEP_HEADER, row)) for row in rows], [SWEEP_HEADER, *rows], 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridperc",
        description="Bootstrap percolation on grid hypergraphs with exact lower-bound certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("formula", help="closed-form minimum percolating set size")
    _add_spec_args(p, with_family=False)
    _add_output_args(p, ("json", "csv"))
    p.set_defaults(handler=_cmd_formula)

    p = sub.add_parser("extremal", help="list the extremal percolating set")
    _add_spec_args(p, with_family=False)
    _add_output_args(p, ("json", "csv"))
    p.set_defaults(handler=_cmd_extremal)

    p = sub.add_parser("edges", help="count (or list) the edges of a grid family")
    _add_spec_args(p)
    p.add_argument("--list", action="store_true", help="include every edge in the output")
    _add_output_args(p, ("json", "csv"))
    p.set_defaults(handler=_cmd_edges)

    p = sub.add_parser("closure", help="run the bootstrap closure from an initial set")
    p.add_argument("--input", default=None, help="hypergraph text file ('p <nv> <ne>' header)")
    start = p.add_mutually_exclusive_group()
    start.add_argument("--infected", default=None, help="comma list of initially infected 0-based ids")
    start.add_argument("--initial-u", action="store_true", help="start from the extremal set (grid mode)")
    _add_spec_args(p, with_family=False, required=False)
    p.add_argument("--family", choices=FAMILIES, default=None, help="edge family (default K)")
    _add_output_args(p)
    p.set_defaults(handler=_cmd_closure)

    p = sub.add_parser("certify", help="build and verify the exact lower-bound certificate")
    _add_spec_args(p)
    p.add_argument("--include-f-vectors", action="store_true", help="serialize the per-vertex vectors")
    _add_output_args(p)
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("audit", help="audit a percolating set against the certificate")
    _add_spec_args(p)
    p.add_argument("--infected", default=None, help="comma ids of the initial set (default: extremal set)")
    p.add_argument("--remove", default=None, help="comma ids to drop from the initial set")
    _add_output_args(p)
    p.set_defaults(handler=_cmd_audit)

    p = sub.add_parser("minperc", help="minimum percolating set of a grid family")
    _add_spec_args(p)
    p.add_argument("--exhaustive", action="store_true",
                   help="force the independent brute-force oracle (default: certificate-assisted)")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    _add_output_args(p, ("json", "csv"))
    p.set_defaults(handler=_cmd_minperc)

    p = sub.add_parser("rneighbour", help="r-neighbour bootstrap percolation on a graph")
    p.add_argument("--grid", default=None, help="comma list of grid side lengths")
    p.add_argument("--hypercube", type=int, default=None, help="hypercube dimension")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--exhaustive", action="store_true",
                   help="exact minimum by subset enumeration (default: greedy upper bound)")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--trials", type=int, default=50, help="greedy restarts (greedy mode)")
    p.add_argument("--seed", type=int, default=0)
    _add_output_args(p)
    p.set_defaults(handler=_cmd_rneighbour)

    p = sub.add_parser("wsat", help="minimum percolating edge set for clique completion")
    p.add_argument("--n", type=int, required=True, help="complete-graph vertex count")
    p.add_argument("--k", type=int, required=True, help="clique size")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    _add_output_args(p)
    p.set_defaults(handler=_cmd_wsat)

    p = sub.add_parser("sweep", help="formula/certificate/search agreement sweep over homogeneous specs")
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--max-d", type=int, default=3)
    p.add_argument("--max-cells", type=int, default=64)
    p.add_argument("--families", default="K,P")
    p.add_argument("--brute-tests", type=int, default=0,
                   help="also brute-force specs whose predicted subset count fits this cap")
    _add_output_args(p, ("csv", "json"))
    p.set_defaults(handler=_cmd_sweep)

    return parser


_parser = None  # built by the first main call; parse_args leaves it unchanged


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    args = _parser.parse_args(argv)
    try:
        payload, table, code = args.handler(args)
        if table is not None and args.format == "csv":
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(table)
            text = buf.getvalue()
        else:
            text = json.dumps(payload, indent=2) + "\n"
        if args.out:
            with open(args.out, "w", encoding="ascii") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code
    except (SearchBudgetExceeded, CertificateTooLarge, HypergraphTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CertificateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
