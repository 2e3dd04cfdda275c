"""Grid hypergraph families on [n_1] x ... x [n_d].

Vertices are 1-based coordinate tuples; the row-major codec is the only
place 0-based ids appear.  Two edge families are supported, selected by a
one-letter tag that is also the wire value used by the CLI and in
serialized certificates:

* ``"K"`` -- the value set along each varying axis is an arbitrary subset
  of the required size (induced copies of a complete-graph power),
* ``"P"`` -- the value sets are intervals of consecutive values
  (axis-aligned path-power copies).

Every ``"P"`` edge is also a ``"K"`` edge of the same spec.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

Vertex = tuple[int, ...]

FAMILIES = ("K", "P")


def check_family(family: str) -> str:
    if family not in FAMILIES:
        raise ValueError(f"unknown edge family {family!r}; expected one of {FAMILIES}")
    return family


@dataclass(frozen=True)
class GridSpec:
    """Axis lengths, per-axis thicknesses and the copy rank of a grid family.

    ``dims[k]`` is the length n_k of axis k+1 (at least 2), ``thick[k]`` the
    number t_k of values an edge takes when that axis varies (2 <= t_k <= n_k),
    and ``r`` the number of axes that vary in every edge (1 <= r <= d).
    """

    dims: tuple[int, ...]
    thick: tuple[int, ...]
    r: int

    def __post_init__(self) -> None:
        dims = tuple(map(operator.index, self.dims))
        thick = tuple(map(operator.index, self.thick))
        r = operator.index(self.r)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "thick", thick)
        object.__setattr__(self, "r", r)
        if not dims:
            raise ValueError("need at least one axis")
        if len(thick) != len(dims):
            raise ValueError(f"dims and thick lengths differ: {len(dims)} vs {len(thick)}")
        for n, t in zip(dims, thick):
            if n < 2:
                raise ValueError(f"axis length {n} < 2")
            if not 2 <= t <= n:
                raise ValueError(f"thickness {t} outside [2, {n}]")
        if not 1 <= r <= len(dims):
            raise ValueError(f"copy rank {r} outside [1, {len(dims)}]")

    @classmethod
    def cube(cls, n: int, d: int, t: int, r: int) -> "GridSpec":
        """Homogeneous spec: d axes of length n, every thickness t."""
        if d < 1:
            raise ValueError(f"dimension {d} < 1")
        return cls((n,) * d, (t,) * d, r)

    @property
    def d(self) -> int:
        return len(self.dims)

    @property
    def num_vertices(self) -> int:
        return math.prod(self.dims)

    def homogeneous(self) -> bool:
        return len(set(self.dims)) == 1 and len(set(self.thick)) == 1

    def large_count(self, v: Vertex) -> int:
        """Number of coordinates of v at or above their axis thickness."""
        return sum(1 for x, t in zip(v, self.thick) if x >= t)


def encode_vertex(spec: GridSpec, v: Vertex) -> int:
    """Row-major 0-based id of a 1-based coordinate tuple.

    A non-integer coordinate raises TypeError: it makes the id a non-integer,
    so one check of the result covers every coordinate.
    """
    if len(v) != spec.d:
        raise ValueError(f"expected {spec.d} coordinates, got {len(v)}")
    idx = 0
    for x, n in zip(v, spec.dims):
        if not 1 <= x <= n:
            raise ValueError(f"coordinate {x} outside [1, {n}]")
        idx = idx * n + (x - 1)
    return operator.index(idx)


def decode_vertex(spec: GridSpec, idx: int) -> Vertex:
    """Inverse of encode_vertex; a non-integer id raises TypeError."""
    idx = operator.index(idx)
    if not 0 <= idx < spec.num_vertices:
        raise ValueError(f"vertex id {idx} outside [0, {spec.num_vertices})")
    coords = []
    for n in reversed(spec.dims):
        coords.append(idx % n + 1)
        idx //= n
    return tuple(reversed(coords))


def vertices(spec: GridSpec):
    """All grid vertices in row-major order (id order under the codec)."""
    return itertools.product(*(range(1, n + 1) for n in spec.dims))


def edge_vertex_ids(spec: GridSpec, family: str):
    """Yield each edge's vertex ids as a sorted tuple, in enumerate_edges order.

    Computed from the codec's row-major strides: for each varying-axis set
    and choice of value sets, the ids relative to the fixed axes' base id are
    formed once and then shifted by every base.  A row-major product of
    increasing per-axis values gives increasing ids, so no sort is needed.
    """
    check_family(family)
    strides = [math.prod(spec.dims[k + 1:]) for k in range(spec.d)]
    axes = range(spec.d)
    for varying in itertools.combinations(axes, spec.r):
        value_choices = [
            [[(x - 1) * strides[k] for x in vals]
             for vals in _axis_value_sets(spec.dims[k], spec.thick[k], family)]
            for k in varying
        ]
        fixed_steps = [
            [x * strides[k] for x in range(spec.dims[k])] for k in axes if k not in varying
        ]
        bases = [sum(steps) for steps in itertools.product(*fixed_steps)]
        for values in itertools.product(*value_choices):
            offsets = [sum(steps) for steps in itertools.product(*values)]
            for base in bases:
                yield tuple([base + o for o in offsets])


@dataclass(frozen=True)
class GridEdge:
    """One hyperedge: value sets on the varying axes, single values elsewhere.

    ``varying`` holds the 1-based axes that vary (strictly increasing),
    ``values[i]`` the sorted value set taken along axis ``varying[i]``, and
    ``fixed`` the values of the remaining axes in increasing axis order.
    """

    varying: tuple[int, ...]
    values: tuple[tuple[int, ...], ...]
    fixed: tuple[int, ...]

    def __post_init__(self) -> None:
        varying = tuple(map(operator.index, self.varying))
        values = tuple(tuple(map(operator.index, vals)) for vals in self.values)
        fixed = tuple(map(operator.index, self.fixed))
        object.__setattr__(self, "varying", varying)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "fixed", fixed)
        if list(varying) != sorted(set(varying)) or (varying and varying[0] < 1):
            raise ValueError("varying axes must be strictly increasing 1-based indices")
        if len(values) != len(varying):
            raise ValueError("one value set per varying axis required")
        if varying and varying[-1] > len(varying) + len(fixed):
            raise ValueError(f"varying axis {varying[-1]} beyond dimension {len(varying) + len(fixed)}")
        for vals in values:
            if len(vals) < 2 or list(vals) != sorted(set(vals)) or vals[0] < 1:
                raise ValueError(f"value set {vals} must be strictly increasing with >= 2 entries")
        if any(x < 1 for x in fixed):
            raise ValueError("fixed values must be positive")

    @property
    def d(self) -> int:
        return len(self.varying) + len(self.fixed)

    def axis_values(self) -> tuple[tuple[int, ...], ...]:
        """Candidate values per axis, singletons on the non-varying axes."""
        out = []
        vi = fi = 0
        for k in range(1, self.d + 1):
            if vi < len(self.varying) and self.varying[vi] == k:
                out.append(self.values[vi])
                vi += 1
            else:
                out.append((self.fixed[fi],))
                fi += 1
        return tuple(out)

    def vertices(self):
        """Expand to vertex tuples, row-major within the edge."""
        return itertools.product(*self.axis_values())

    def num_vertices(self) -> int:
        return math.prod(len(vals) for vals in self.values)

    def __contains__(self, v: Vertex) -> bool:
        if len(v) != self.d:
            return False
        return all(x in vals for x, vals in zip(v, self.axis_values()))


def _axis_value_sets(n: int, t: int, family: str):
    if family == "K":
        yield from itertools.combinations(range(1, n + 1), t)
    else:
        for a in range(1, n - t + 2):
            yield tuple(range(a, a + t))


def enumerate_edges(spec: GridSpec, family: str):
    """Yield every edge of the family exactly once.

    Order is fixed so downstream outputs are byte-reproducible: varying axis
    sets lexicographic, then value sets lexicographic, then fixed values
    row-major.
    """
    check_family(family)
    axes = range(1, spec.d + 1)
    for varying in itertools.combinations(axes, spec.r):
        fixed_axes = [k for k in axes if k not in varying]
        value_choices = [
            list(_axis_value_sets(spec.dims[k - 1], spec.thick[k - 1], family)) for k in varying
        ]
        fixed_choices = [range(1, spec.dims[k - 1] + 1) for k in fixed_axes]
        for values in itertools.product(*value_choices):
            for fixed in itertools.product(*fixed_choices):
                yield GridEdge(varying, values, fixed)


def count_edges(spec: GridSpec, family: str) -> int:
    """Closed-form edge count; equals the length of enumerate_edges."""
    check_family(family)
    total = 0
    for varying in itertools.combinations(range(1, spec.d + 1), spec.r):
        ways = 1
        for k in varying:
            n, t = spec.dims[k - 1], spec.thick[k - 1]
            ways *= math.comb(n, t) if family == "K" else n - t + 1
        for k in range(1, spec.d + 1):
            if k not in varying:
                ways *= spec.dims[k - 1]
        total += ways
    return total


def extremal_set(spec: GridSpec) -> list[Vertex]:
    """Vertices with at most r-1 coordinates at or above their axis thickness.

    Returned in row-major order.  This set percolates in both families and is
    a minimum percolating set; the certificate module proves the matching
    lower bound.
    """
    limit = spec.r - 1
    return [v for v in vertices(spec) if spec.large_count(v) <= limit]


def extremal_size(spec: GridSpec) -> int:
    """Size of extremal_set in closed form.

    Sum over axis subsets S with |S| <= r-1 of
    prod_{k in S} (n_k + 1 - t_k) * prod_{k not in S} (t_k - 1);
    for homogeneous specs this is sum_s C(d,s) (t-1)^(d-s) (n+1-t)^s.
    """
    total = 0
    axes = range(spec.d)
    for size in range(spec.r):
        for subset in itertools.combinations(axes, size):
            inside = set(subset)
            term = 1
            for k in axes:
                n, t = spec.dims[k], spec.thick[k]
                term *= (n + 1 - t) if k in inside else (t - 1)
            total += term
    return total
