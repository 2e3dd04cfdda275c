"""Plain reference versions of the library's fast kernels.

Each is the straightforward form of a kernel the library optimizes, kept
here so tests can require the library to give exactly the same results.
"""

from __future__ import annotations

import operator
from collections import deque

from gridperc.percolation import ClosureResult


class ReferenceBasis:
    """Incremental Bareiss echelon that carries out every reduction step.

    Row k is applied as v <- (p_k*v - v[c_k]*row_k) // p_{k-1} even when
    v[c_k] == 0, so each intermediate vector is materialized.
    EliminationBasis must store the same rows and pivot columns.
    """

    def __init__(self, ncols: int) -> None:
        self.ncols = ncols
        self._pivot_cols: list[int] = []
        self._rows: list[list[int]] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, vector) -> list[int]:
        v = list(vector)
        if not all(isinstance(x, int) for x in v):
            raise TypeError(f"entries must be int, got {vector!r}")
        if len(v) != self.ncols:
            raise ValueError(f"expected {self.ncols} entries, got {len(v)}")
        if self.rank == self.ncols:
            return [0] * self.ncols
        prev = 1
        for col, row in zip(self._pivot_cols, self._rows):
            pivot, c = row[col], v[col]
            v = [(pivot * x - c * y) // prev for x, y in zip(v, row)]
            prev = pivot
        return v

    def insert(self, vector) -> bool:
        v = self._reduce(vector)
        lead = next((j for j, x in enumerate(v) if x), None)
        if lead is None:
            return False
        self._pivot_cols.append(lead)
        self._rows.append(v)
        return True


def reference_closure(h, initial) -> ClosureResult:
    """Bootstrap closure whose initial counts scan every vertex of every edge.

    Same processing order as percolation.closure, so the same trace.
    """
    infected = bytearray(h.num_vertices)
    init = []
    for v in initial:
        v = operator.index(v)
        if not 0 <= v < h.num_vertices:
            raise ValueError(f"vertex {v} outside [0, {h.num_vertices})")
        if not infected[v]:
            infected[v] = 1
            init.append(v)

    remaining = [sum(1 for v in e if not infected[v]) for e in h.edges]
    trace: list[tuple[int, int]] = []
    queue: deque[int] = deque()

    def try_fire(e_idx: int) -> None:
        # remaining[e_idx] just reached 1; the edge fires unless its last
        # uninfected vertex was already infected elsewhere (pending decrement).
        for w in h.edges[e_idx]:
            if not infected[w]:
                infected[w] = 1
                trace.append((w, e_idx))
                queue.append(w)
                return

    for e_idx, count in enumerate(remaining):
        if count == 1:
            try_fire(e_idx)
    while queue:
        u = queue.popleft()
        for e_idx in h.incident[u]:
            remaining[e_idx] -= 1
            if remaining[e_idx] == 1:
                try_fire(e_idx)

    final = frozenset(i for i, flag in enumerate(infected) if flag)
    return ClosureResult(frozenset(init), final, tuple(trace))
