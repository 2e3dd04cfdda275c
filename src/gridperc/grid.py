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


def row_major_strides(dims) -> list[int]:
    """Id step of one unit along each axis under the row-major codec."""
    return [math.prod(dims[k + 1:]) for k in range(len(dims))]


def axis_images(dims, thick=None) -> list[tuple[int, ...]]:
    """Generators of the grid's axis symmetries, as permutations of the ids.

    One reflection x_k -> n_k + 1 - x_k per axis of length above 1, then a
    swap of each pair of adjacent axes with equal lengths (and, when
    ``thick`` is given, equal thicknesses): at most d reflections and d - 1
    swaps, each a tuple whose entry v is the id vertex v maps to.  Each maps
    the grid graph on ``dims``, and the "K" and "P" families of any copy
    rank, onto themselves; family_images adds the symmetries that only "K"
    has.  The ids move by row-major stride arithmetic.
    """
    dims = tuple(map(operator.index, dims))
    strides = row_major_strides(dims)
    ids = range(math.prod(dims))
    images = [
        tuple(v + (n - 1 - 2 * (v // s % n)) * s for v in ids)
        for n, s in zip(dims, strides)
        if n > 1
    ]
    for k in range(len(dims) - 1):
        if dims[k] == dims[k + 1] and (thick is None or thick[k] == thick[k + 1]):
            n, s, s2 = dims[k], strides[k], strides[k + 1]
            images.append(tuple(v + (v // s2 % n - v // s % n) * (s - s2) for v in ids))
    return images


def family_images(spec: GridSpec, family: str) -> list[tuple[int, ...]]:
    """Generators of symmetries of the family's hypergraph on ``spec``, as
    permutations of the ids.

    axis_images(spec.dims, spec.thick), and for "K" also the n_k - 1
    transpositions x_k = j <-> x_k = j + 1 of adjacent values on each axis:
    a t_k-subset of an axis's values stays a t_k-subset under any
    permutation of them, so K edges map onto K edges.  One that swaps j and
    j + 1 where a "P" interval ends or starts breaks that interval, so "P"
    gets the axis images only.
    """
    images = axis_images(spec.dims, spec.thick)
    if check_family(family) == "K":
        ids = range(spec.num_vertices)
        for n, s in zip(spec.dims, row_major_strides(spec.dims)):
            for j in range(n - 1):
                images.append(tuple(v + s if v // s % n == j else v - s if v // s % n == j + 1 else v for v in ids))
    return images


def axis_value_sets(n: int, t: int, family: str):
    """The family's t-sets of values on an axis of length n, lexicographic:
    every t-subset for "K", the n - t + 1 intervals for "P"."""
    if check_family(family) == "K":
        yield from itertools.combinations(range(1, n + 1), t)
    else:
        for a in range(1, n - t + 2):
            yield tuple(range(a, a + t))


def enumerate_edges(spec: GridSpec, family: str):
    """Yield every edge of the family exactly once as ``(varying, values, fixed, ids)``.

    ``varying`` holds the 1-based varying axes, ``values[i]`` the value set
    taken along axis ``varying[i]``, ``fixed`` the values of the other axes in
    axis order, and ``ids`` the edge's vertex ids under the codec.  Order is
    fixed so downstream outputs are byte-reproducible: varying axis sets
    lexicographic, then value sets lexicographic, then fixed values row-major.

    The ids come from the codec's row-major strides: each value set's id
    steps are formed once per varying-axis set, the offsets of a choice of
    value sets once per choice, and each edge shifts them by its fixed axes'
    base id.  A row-major product of increasing per-axis values gives
    increasing ids, so ``ids`` is sorted, which is also row-major order
    within the edge.
    """
    check_family(family)
    strides = row_major_strides(spec.dims)
    axes = range(1, spec.d + 1)
    for varying in itertools.combinations(axes, spec.r):
        value_sets = [list(axis_value_sets(spec.dims[k - 1], spec.thick[k - 1], family)) for k in varying]
        step_sets = [
            [[(x - 1) * strides[k - 1] for x in vals] for vals in sets]
            for k, sets in zip(varying, value_sets)
        ]
        fixed_axes = [k for k in axes if k not in varying]
        fixed_values = [range(1, spec.dims[k - 1] + 1) for k in fixed_axes]
        fixed_steps = [[x * strides[k - 1] for x in range(spec.dims[k - 1])] for k in fixed_axes]
        fixed_bases = list(zip(itertools.product(*fixed_values), map(sum, itertools.product(*fixed_steps))))
        for values, steps in zip(itertools.product(*value_sets), itertools.product(*step_sets)):
            offsets = list(map(sum, itertools.product(*steps)))
            for fixed, base in fixed_bases:
                yield varying, values, fixed, tuple([base + o for o in offsets])


def _axis_polynomial(pairs) -> list[int]:
    """Coefficients, constant term first, of the product of b + a*x over the
    ``(b, a)`` pairs: one multiplication per axis, O(d^2) in all."""
    coeffs = [1]
    for b, a in pairs:
        coeffs = [b * low + a * high for low, high in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def count_edges(spec: GridSpec, family: str) -> int:
    """Closed-form edge count; equals the length of enumerate_edges.

    The coefficient of x^r in prod_k (n_k + s_k x), with s_k the family's
    value sets on axis k: C(n_k, t_k) for "K", n_k - t_k + 1 for "P".  Each
    term picks s_k on the r varying axes and n_k fixed values on the rest.
    """
    check_family(family)
    pairs = ((n, math.comb(n, t) if family == "K" else n - t + 1) for n, t in zip(spec.dims, spec.thick))
    return _axis_polynomial(pairs)[spec.r]


def extremal_set(spec: GridSpec) -> list[Vertex]:
    """Vertices with at most r-1 coordinates at or above their axis thickness.

    Returned in row-major order.  This set percolates in both families and is
    a minimum percolating set; the certificate module proves the matching
    lower bound.

    The set is built from its large-axis sets, not by filtering every vertex:
    for each set S of at most r-1 axes, the vertices whose large coordinates
    are exactly those on S form the product of {t_k, ..., n_k} on S and
    {1, ..., t_k - 1} elsewhere.  These products are disjoint and cover the
    set, which is then sorted into row-major order, so the work grows with
    |U|, not |V| (3^30 vertices for one extremal vertex at n=3, t=2, r=1,
    d=30).

    Why it percolates: every "P" edge is a "K" edge, so it suffices to infect
    every vertex under "P", which goes by induction on the coordinate sum.  A
    vertex v outside the set has at least r large coordinates, v_k >= t_k;
    let S be r of them.  The "P" edge that varies each axis k in S over the
    interval {v_k - t_k + 1, ..., v_k}, which lies in [1, n_k], and fixes the
    other axes at v's values holds v.  Each of its other vertices lies
    coordinatewise at or below v and differs from v, so it has a smaller
    coordinate sum: it is in the set or, by induction, already infected.
    Then v is the edge's only uninfected vertex, and the edge infects it.
    """
    small_large = [(range(1, t), range(t, n + 1)) for n, t in zip(spec.dims, spec.thick)]
    return sorted(
        v
        for size in range(spec.r)
        for large in itertools.combinations(range(spec.d), size)
        for v in itertools.product(*(pair[k in large] for k, pair in enumerate(small_large)))
    )


def extremal_size(spec: GridSpec) -> int:
    """Size of extremal_set in closed form.

    Sum over axis subsets S with |S| <= r-1 of
    prod_{k in S} (n_k + 1 - t_k) * prod_{k not in S} (t_k - 1), that is, the
    sum of the coefficients of x^0 .. x^(r-1) in
    prod_k ((t_k - 1) + (n_k + 1 - t_k) x); for homogeneous specs this is
    sum_s C(d,s) (t-1)^(d-s) (n+1-t)^s.
    """
    return sum(_axis_polynomial((t - 1, n + 1 - t) for n, t in zip(spec.dims, spec.thick))[: spec.r])
