"""Tracing gridperc from outside the library.

``Tracer.install`` rebinds each traced function in every ``gridperc`` module
that holds it (the defining module and every module that imported the name),
patches ``EliminationBasis.insert`` on the class, and wraps ``enumerate_edges``
in a counting iterator.  ``uninstall`` puts every original back.

Each wrapper adds its call's duration to the function's total and its self
time (duration minus the time of traced calls made inside it) to the
function's self time, so the self times of all layers add up to the time
spent inside top-level traced calls.  Calls in hot loops (closure inside the
subset search, per-vertex certificate vectors, per-row inserts) are only
aggregated; other calls also keep one span each, with the span that caused
it and the operation it belongs to.
"""

from __future__ import annotations

import time
from collections import Counter

from oracle import edge_count

LAYERS = ("cli", "certificate", "exact", "percolation", "grid", "search")


def _count_k_edges(counters, args, cert):
    spec = args[0]
    counters["certificate.k_edges_verified"] += edge_count(spec.dims, spec.thick, spec.r, "K")


def _count_vector_entries(counters, args, vector):
    counters["certificate.f_vector_entries"] += len(vector)


def _count_cells(counters, args, rank):
    rows = list(args[0])
    counters["exact.matrix_rank.cells"] += len(rows) * len(rows[0])


def _count_grew(counters, args, grew):
    counters["exact.EliminationBasis.insert.grew"] += bool(grew)


def _count_edges_built(counters, args, hypergraph):
    counters["percolation.hypergraph_edges_built"] += len(hypergraph.edges)


def _count_firings(counters, args, result):
    counters["percolation.closure.firings"] += len(result.trace)


def _count_candidates(counters, args, outcome):
    # A SearchBudgetExceeded carries the count too; None means nothing found.
    counters["search.candidates_tested"] += getattr(outcome, "tested", 0)


_count_candidates.on_error = True


# (defining module, attribute, hot, observer).  ``observer(counters, args,
# outcome)`` runs after the call returns; ``outcome`` is its result.  An
# observer marked ``on_error`` also runs when the call raises, with the
# exception as ``outcome``.  ``install`` raises AttributeError, naming the
# attribute, for a name the library no longer has, so that a renamed function
# cannot silently read 0.
TRACED = [
    ("cli", "main", False, None),
    ("certificate", "build_context", False, None),
    ("certificate", "projection_component", True, None),
    ("certificate", "certificate_vector", True, _count_vector_entries),
    ("certificate", "certified_lower_bound", False, _count_k_edges),
    ("certificate", "audit_percolating_set", False, None),
    ("certificate", "certificate_to_dict", False, None),
    ("exact", "build_general_position_matrix", False, None),
    ("exact", "verify_general_position", False, None),
    ("exact", "det", True, None),
    ("exact", "dependency_coeffs", True, None),
    ("exact", "matrix_rank", False, _count_cells),
    ("exact", "EliminationBasis.insert", True, _count_grew),
    ("percolation", "closure", True, _count_firings),
    ("percolation", "percolates", True, None),
    ("percolation", "grid_hypergraph", False, _count_edges_built),
    ("percolation", "weak_saturation_hypergraph", False, _count_edges_built),
    ("grid", "count_edges", False, None),
    ("grid", "extremal_set", False, None),
    ("grid", "extremal_size", False, None),
    ("search", "min_percolating_exact", False, _count_candidates),
    ("search", "min_r_neighbour_percolating", False, _count_candidates),
    ("search", "r_neighbour_closure", True, None),
    ("search", "grid_graph", False, None),
    ("search", "hypercube_graph", False, None),
]
COUNTERS = [
    "certificate.k_edges_verified",
    "certificate.f_vector_entries",
    "exact.matrix_rank.cells",
    "exact.EliminationBasis.insert.grew",
    "percolation.hypergraph_edges_built",
    "percolation.closure.firings",
    "search.candidates_tested",
    "grid.enumerate_edges.yielded",
    "cli.stdout_bytes",
]


class Tracer:
    """Aggregated call statistics, counters and spans for one traced run."""

    def __init__(self) -> None:
        # name -> [calls, total seconds, self seconds]
        self.stats = {f"{m}.{a}": [0, 0.0, 0.0] for m, a, _, _ in TRACED}
        self.counters = Counter({name: 0 for name in COUNTERS})
        self.spans: list[dict] = []
        self.op = None
        # One frame per active traced call: [time of traced children, span id].
        self._stack = [[0.0, None]]
        self._patched: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- wrapping

    def _wrap(self, name, fn, hot, observer):
        stat = self.stats[name]
        stack = self._stack
        spans = self.spans
        counters = self.counters
        clock = time.perf_counter  # a local name: wrappers run in hot loops

        def traced(*args, **kwargs):
            parent = stack[-1]
            span_id = parent[1] if hot else len(spans)
            if not hot:
                spans.append(None)  # reserved so ids follow call order
            frame = [0.0, span_id]
            stack.append(frame)
            outcome = None
            failed = False
            start = clock()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except BaseException as exc:
                outcome, failed = exc, True
                raise
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                parent[0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if not hot:
                    spans[span_id] = {
                        "id": span_id, "parent": parent[1], "op": self.op,
                        "name": name, "start": start, "end": end,
                    }
                if observer is not None and (not failed or getattr(observer, "on_error", False)):
                    observer(counters, args, outcome)

        traced.__wrapped__ = fn
        return traced

    def _count_iterations(self, name, fn):
        counters = self.counters
        key = f"{name}.yielded"

        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counters[key] += 1
                yield item

        counted.__wrapped__ = fn
        return counted

    def _rebind(self, modules, original, replacement) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self, package) -> None:
        """Rebind the traced names in ``package`` and all its loaded submodules."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [package] + [getattr(package, name) for name in LAYERS]
        try:
            for module_name, attr, hot, observer in TRACED:
                owner = getattr(package, module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                wrapped = self._wrap(f"{module_name}.{attr}", original, hot, observer)
                if path:  # a method: patch it on its class
                    self._patched.append((owner, leaf, original))
                    setattr(owner, leaf, wrapped)
                else:
                    self._rebind(modules, original, wrapped)
            original = package.grid.enumerate_edges
            self._rebind(modules, original, self._count_iterations("grid.enumerate_edges", original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- results

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass averages of every call statistic, counter and layer self time."""
        out: dict[str, float] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, (calls, total, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls / passes
            out[f"{name}.s"] = total / passes
            out[f"{name}.self_s"] = self_s / passes
            layer_self[name.split(".", 1)[0]] += self_s / passes
        for name, value in self.counters.items():
            out[name] = value / passes
        for layer, value in layer_self.items():
            out[f"{layer}.self_s"] = value
        inserts = self.stats["exact.EliminationBasis.insert"][0]
        out["exact.EliminationBasis.insert.grew_ratio"] = (
            self.counters["exact.EliminationBasis.insert.grew"] / inserts if inserts else 0.0
        )
        search_s = out["search.min_percolating_exact.s"] + out["search.min_r_neighbour_percolating.s"]
        out["search.candidates_per_s"] = out["search.candidates_tested"] / search_s if search_s else 0.0
        return out

    def kept_spans(self) -> list[dict]:
        return [span for span in self.spans if span is not None]
