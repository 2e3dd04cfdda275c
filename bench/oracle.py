"""Output oracles for the benchmark, computed without calling gridperc.

The closed formula and the edge counts are worked out here from the grid
parameters alone, so a wrong answer from the library cannot also make its
own check pass.  Recorded stdout digests pin the exact bytes of every CLI
command in the ladders; ``record_digests.py`` rewrites them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from pathlib import Path

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def extremal_size(dims, thick, r) -> int:
    """Closed-form minimum percolating set size.

    Expands prod_k ((t_k - 1) + (n_k + 1 - t_k) x) and sums the coefficients
    of x^0 .. x^(r-1): a vertex of the extremal set has at most r - 1 axes at
    or above their thickness.
    """
    poly = [1]
    for n, t in zip(dims, thick):
        nxt = [0] * (len(poly) + 1)
        for i, c in enumerate(poly):
            nxt[i] += c * (t - 1)
            nxt[i + 1] += c * (n + 1 - t)
        poly = nxt
    return sum(poly[:r])


def edge_count(dims, thick, r, family) -> int:
    """Number of edges of the K or P family: r varying axes, the rest fixed."""
    total = 0
    for varying in itertools.combinations(range(len(dims)), r):
        ways = 1
        for k, (n, t) in enumerate(zip(dims, thick)):
            if k not in varying:
                ways *= n
            elif family == "K":
                ways *= math.comb(n, t)
            else:
                ways *= n - t + 1
        total += ways
    return total


def grid_vertices(dims):
    """All 1-based coordinate tuples in row-major order."""
    return list(itertools.product(*(range(1, n + 1) for n in dims)))


def extremal_vertices(dims, thick, r):
    """Vertices with at most r - 1 coordinates at or above their thickness."""
    return [
        v for v in grid_vertices(dims) if sum(x >= t for x, t in zip(v, thick)) <= r - 1
    ]


def mask_last_column(csv_text: str) -> str:
    """Blank the last field of every data row (the sweep's ``runtime_ms``)."""
    lines = csv_text.split("\n")
    return "\n".join(
        [lines[0]] + [line.rsplit(",", 1)[0] + "," if line else line for line in lines[1:]]
    )


def stdout_digest(text: str, mask_runtime: bool = False) -> str:
    if mask_runtime:
        text = mask_last_column(text)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests() -> dict[str, str]:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)
