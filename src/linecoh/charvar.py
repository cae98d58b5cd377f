"""Character torus scans for first cohomology jump loci, with the built-in
eight-line deleted-B3 arrangement and its known thirteen-component
decomposition.

A torus point assigns a root of unity to every projective line subject to
the product-one constraint; a point of order dividing N is an exponent
vector mod N summing to 0.  h^1 at a nontrivial point is the band kernel
on the chart of ``resband.h1_on_band_chart``, read off that chart's band
table from the point's halves, with no system built (``h1_at_point``).

The zero/one resonant point certificates (``resband.certify_masks``) give
h^1 = 0 at almost every point, so ``torsion_scan`` visits only the points
where they cannot, listed by ``candidate_points`` (which proves that they
are all): the local family of each multiple point (A), and the points at
which every line with q != 1 carries two resonant multiple points (B).
h^1 is the same on an orbit under the Galois units and the arrangement's
projective automorphisms (proved at ``torsion_scan``), so one point set
per class is listed and the answer fills the orbit.  The (B) points come
from the nodes of a depth-first walk over the sets of resonant multiple
points, pruned to the least set of each class (``_frontier``, which proves
that pruning), each node's points a subgroup read off a diagonal form of
a small integer matrix (``_node``) and listed packed (``_span``,
``_fields``).  What the scans keep on an arrangement is one
``_ScanState``.

On deleted B3 at N = 5 the walk has 54 nodes (115 without the pruning)
and lists 10 of them; the scan lists 272 of the 78,124 nontrivial points
(the 172 of three local families and 100 from the walk), keeps 240 and
enters 96 more as family images.  The band route runs 12 times, once per
orbit of the 164 (B) points under the units and the 8 automorphisms (41
Galois orbits), and the fill holds all 164.  The scans of deleted B3 at
orders 2 to 12 give exactly the catalog's nontrivial torsion points of
order dividing N, with h^1 = 2 on C_5678 and at the two order-2 points on
four families, and h^1 = 1 at every other hit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain, compress, islice, repeat, zip_longest
from math import gcd, lcm
from operator import index, itemgetter, mul
from struct import Struct

from .geometry import ProjArrangement
from .localsystem import (
    LocalSystemError,
    check_torsion_order,
    projective_torsion_halves,
    torsion_integers,
)
from .resband import chart_kernel, incidence_table
# bench/selfcheck.py checks that its tracer wraps this import site too
from .resband import h1_via_bands  # noqa: F401
from .scalars import DEFAULT_EPS

DEFAULT_BUDGET = 2_000_000


class BudgetExceededError(RuntimeError):
    """The requested enumeration is larger than the configured budget."""


@dataclass(frozen=True, slots=True)
class TorusPoint:
    """Exponent vector over all projective lines, mod `order`, summing to 0."""

    exponents: tuple
    order: int

    # a slot's descriptor sets it in one call, where the frozen dataclass
    # ``__init__`` goes through ``object.__setattr__`` per field, 1.5 times
    # as long on CPython 3.11; ``torsion_scan`` runs each setter down a
    # column of new records instead, faster again
    def __init__(self, exponents, order):
        _set_exponents(self, exponents)
        _set_order(self, order)


_set_exponents, _set_order = TorusPoint.exponents.__set__, TorusPoint.order.__set__


@dataclass(frozen=True)
class ComponentFamily:
    """A parametrized family of torus points.

    Coordinate i is (-1)^signs[i] * prod_j s_j^powers[i][j] for parameters
    s_j in the unit torus.  Power columns sum to zero and the sign vector
    has even weight, so every produced point satisfies the product-one
    constraint.  Every parameter must be pinned by some coordinate equal to
    s_j on the nose; membership testing relies on that.  Signs and powers
    are integers, read by ``operator.index`` (2.0 is refused) and kept as
    tuples; a sign is read by its parity only, so signs (2, 0, 0) give the
    points of (0, 0, 0).  The hash is that of ``(signs, powers)``:
    integer tuples, so a family hashes alike in every process, and equal
    families (which compare all three fields) hash alike.
    """

    name: str
    signs: tuple
    powers: tuple

    def __post_init__(self):
        try:
            signs = tuple(map(index, self.signs))
            powers = tuple(tuple(map(index, row)) for row in self.powers)
        except TypeError:
            raise ValueError(
                f"{self.name}: signs and powers must be integers"
            ) from None
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "powers", powers)
        if not self.powers:
            raise ValueError(f"{self.name}: no power rows")
        if len(self.signs) != len(self.powers):
            raise ValueError(
                f"{self.name}: {len(self.signs)} signs "
                f"for {len(self.powers)} power rows"
            )
        if len({len(row) for row in self.powers}) > 1:
            raise ValueError(f"{self.name}: power rows of unequal length")
        k = self.nparams
        if sum(self.signs) % 2 != 0:
            raise ValueError(f"{self.name}: sign vector breaks the torus constraint")
        pins = []
        for j in range(k):
            if sum(row[j] for row in self.powers) != 0:
                raise ValueError(f"{self.name}: power column {j} breaks the constraint")
            pin = next(
                (
                    (i, row[j])
                    for i, row in enumerate(self.powers)
                    if abs(row[j]) == 1
                    and all(v == 0 for jj, v in enumerate(row) if jj != j)
                ),
                None,
            )
            if pin is None:
                raise ValueError(f"{self.name}: parameter {j} is not pinned")
            pins.append(pin)
        # (row, +-1) per parameter: the coordinate equal to s_j^(+-1)
        object.__setattr__(self, "_pins", tuple(pins))
        # the coordinates equal to 1 at every parameter
        ones = (
            i
            for i, row in enumerate(self.powers)
            if not (self.signs[i] % 2 or any(row))
        )
        object.__setattr__(self, "_ones", tuple(ones))

    def __hash__(self):
        return hash((self.signs, self.powers))

    @property
    def nparams(self):
        return len(self.powers[0])

    @property
    def nlines(self):
        return len(self.powers)

    def _modulus(self, order):
        """m = ``order``, or lcm(``order``, 2) when a sign is odd.  At a point
        of order dividing ``order`` every parameter is an m-th root of
        unity: it is pinned by a coordinate equal to +-s_j^(+-1).  An order
        below 1 or not an integer (2.0 included, read by ``operator.index``)
        is a ``ValueError``."""
        try:
            order = index(order)
        except TypeError:
            raise ValueError(
                f"torsion order must be an integer, not {order!r}"
            ) from None
        if order < 1:
            raise ValueError(f"torsion order must be >= 1, not {order}")
        return lcm(order, 2) if any(s % 2 for s in self.signs) else order

    def torsion_exponents(self, order):
        """The exponent vectors mod ``order`` of the family's points of order
        dividing ``order``, each once: the parameters run over Z/m
        (``_modulus``), and a point is kept when every exponent mod m is a
        multiple of m / ``order``.  This lists m^nparams parameter tuples in
        ``product`` order by an odometer: a step of j adds power column j to
        one exponent list mod m; a wrap of j to 0 adds it again (m * col = 0)."""
        m = self._modulus(order)
        lift = m // order
        cols = [[row[j] % m for row in self.powers] for j in range(self.nparams)]
        exps, digits = [s % 2 * (m // 2) for s in self.signs], [0] * self.nparams
        while True:
            if lift == 1:
                yield tuple(exps)
            elif not any(e % lift for e in exps):
                yield tuple(e // lift for e in exps)
            for j in reversed(range(len(digits))):
                exps = [(e + c) % m for e, c in zip(exps, cols[j])]
                digits[j] = (digits[j] + 1) % m
                if digits[j]:
                    break
            else:
                return

    def contains(self, point):
        """Exponent-linear solve: is the torus point in the family?  A point
        with q != 1 on a coordinate the family holds at 1 is not; otherwise
        each parameter is read off its pinning coordinate, then every
        coordinate is checked against the parametrization."""
        n = point.order
        m = self._modulus(n)
        if len(point.exponents) != self.nlines or any(
            point.exponents[i] % n for i in self._ones
        ):
            return False
        lift = m // n
        exps = [e * lift % m for e in point.exponents]
        params = [
            sign * (exps[i] - self.signs[i] % 2 * (m // 2)) % m
            for i, sign in self._pins
        ]
        return exps == [
            (s % 2 * (m // 2) + sum(map(mul, row, params))) % m
            for s, row in zip(self.signs, self.powers)
        ]


def deleted_b3():
    """The eight-line projective arrangement (line 8 at infinity) whose jump
    locus decomposes into six triple-point families, one quadruple-point
    family, five three-orbit families, and one translated curve."""
    proj = ProjArrangement(
        [
            (0, 1, 0),  # H1: y = 0
            (0, 1, -1),  # H2: y = z
            (1, 0, 0),  # H3: x = 0
            (1, 0, -1),  # H4: x = z
            (1, -1, 1),  # H5: x - y + z = 0
            (1, -1, 0),  # H6: x = y
            (1, -1, -1),  # H7: x - y - z = 0
            (0, 0, 1),  # H8: z = 0
        ],
        infinity_index=7,
    )

    def local(name, triple):
        powers = [(0, 0)] * 8
        powers[triple[0]] = (1, 0)
        powers[triple[1]] = (0, 1)
        powers[triple[2]] = (-1, -1)
        return ComponentFamily(name=name, signs=(0,) * 8, powers=tuple(powers))

    def braid(name, pairs):
        powers = [(0, 0)] * 8
        cols = ((1, 0), (0, 1), (-1, -1))
        for col, (i, j) in zip(cols, pairs):
            powers[i] = col
            powers[j] = col
        return ComponentFamily(name=name, signs=(0,) * 8, powers=tuple(powers))

    quad = [(0, 0, 0)] * 8
    quad[4], quad[5], quad[6], quad[7] = (1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)
    catalog = (
        local("C_136", (0, 2, 5)),
        local("C_147", (0, 3, 6)),
        local("C_235", (1, 2, 4)),
        local("C_128", (0, 1, 7)),
        local("C_246", (1, 3, 5)),
        local("C_348", (2, 3, 7)),
        ComponentFamily(name="C_5678", signs=(0,) * 8, powers=tuple(quad)),
        braid("C_(14|23|68)", ((0, 3), (1, 2), (5, 7))),
        braid("C_(28|36|45)", ((1, 7), (2, 5), (3, 4))),
        braid("C_(15|26|38)", ((0, 4), (1, 5), (2, 7))),
        braid("C_(18|37|46)", ((0, 7), (2, 6), (3, 5))),
        braid("C_(16|27|48)", ((0, 5), (1, 6), (3, 7))),
        ComponentFamily(
            name="Omega",
            signs=(0, 1, 1, 0, 0, 1, 0, 1),
            powers=((1,), (-1,), (-1,), (1,), (2,), (0,), (-2,), (0,)),
        ),
    )
    return proj, catalog


def h1_at_point(proj, point, backend="cyclotomic", eps=DEFAULT_EPS):
    """h^1 at a nontrivial torus point by the band kernel on the chart of
    ``resband.h1_on_band_chart``: the line at infinity when its q is not
    1, otherwise the first line with q != 1.  The system is that of the
    exponents of the affine lines, the infinity monodromy following from
    them; its halves by projective index come from
    ``projective_torsion_halves`` and go to ``resband.chart_kernel``, so
    no ``LocalSystem`` is built.  A point off the torus of ``proj`` (one
    exponent per line, summing to 0 mod an order >= 1) is a
    ``ValueError``, and so is an exponent or order that is not an integer
    (``torsion_integers``): 1.5 is not truncated to 1.  An order the
    backend cannot take is refused by ``projective_torsion_halves``; each
    check is made once."""
    exps, order = torsion_integers(point.exponents, point.order)
    if len(exps) != proj.n or order < 1 or sum(exps) % order:
        raise ValueError(f"{point} is not a torus point of {proj.n} lines")
    bk, halves = projective_torsion_halves(
        exps, order, proj.infinity_index, backend=backend, eps=eps
    )
    found = chart_kernel(bk, halves, proj)
    if found is None:
        raise ValueError("trivial point: every monodromy equals 1")
    return found[1].dim


# the bounds of ``_ScanState``'s node cache and catalog indexes
_CACHED_NODES = 4096
_KEPT_POINTS = 4096


class _ScanState:
    """What the scans keep on one arrangement, behind its one
    ``_scan_state`` attribute, which only the function ``_scan_state``
    sets.  No entry depends on the backend, and the arrangement's lines
    and the frozen families never change, so a kept entry stays true;
    each store lets a warm scan skip work it would repeat.

    - ``prune``, ``classes`` and ``moves``: the automorphisms as the
      walk's pruning, the local families and the orbit fill read them
      (``_symmetry``), built with the record.
    - ``nodes``: the walk's node ``_node(proj, k, inside)`` under ``(k,
      inside)``, or None for a node the walk prunes (``_pruned``), decided
      before any form is built; kept while fewer than ``_CACHED_NODES``
      are (deleted B3 has 255).  A node does not depend on the order.
    - ``fields``: the layout ``_fields(proj, width)`` under its field
      width, one of the four of ``_field_width``.
    - ``catalogs``: the index ``_catalog_index(families, order)`` under
      ``(order, families)``.  The families are frozen and compared by
      value, so equal catalogs share one index.  An index is kept while
      the kept indexes hold at most ``_KEPT_POINTS`` vectors together
      (deleted B3's at orders 2 to 8 hold 3,447, about 0.65 MB), the
      oldest dropped first.  An index with more, or with none (no
      families, or none with a point of the order), is built on every
      call: an empty one would never be dropped.

    Each store pays on a warm deleted-B3 pass (orders 2 to 4 with the
    catalog, ``b3-scan``'s seed-1 relabelling; lower quartile of 60
    passes, best of five rounds, 2 vCPUs, Python 3.11): 2.7 ms with all
    three, 3.3 times as long with no node kept (``_CACHED_NODES`` = 0),
    1.6 times with ``_fields`` rebuilt per scan, and 1.4 times with no
    catalog index kept (``_KEPT_POINTS`` = 0).
    """

    __slots__ = ("prune", "classes", "moves", "nodes", "fields", "catalogs")

    def __init__(self, proj):
        self.prune, self.classes, self.moves = _symmetry(proj)
        self.nodes, self.fields, self.catalogs = {}, {}, {}

    def node(self, proj, k, inside):
        node = self.nodes.get((k, inside), False)
        if node is False:
            node = None if _pruned(proj, k, inside) else _node(proj, k, inside)
            if len(self.nodes) < _CACHED_NODES:
                self.nodes[k, inside] = node
        return node

    def layout(self, proj, width):
        fields = self.fields.get(width)
        if fields is None:
            fields = self.fields[width] = _fields(proj, width)
        return fields

    def names(self, families, order):
        key = (order, families)
        names = self.catalogs.get(key)
        if names is None:
            names = _catalog_index(families, order)
            if 0 < len(names) <= _KEPT_POINTS:
                kept = self.catalogs
                while sum(map(len, kept.values())) > _KEPT_POINTS - len(names):
                    del kept[next(iter(kept))]  # dicts keep insertion order
                kept[key] = names
        return names


def _scan_state(proj):
    """The ``_ScanState`` of ``proj``, built on first use."""
    if proj._scan_state is None:
        proj._scan_state = _ScanState(proj)
    return proj._scan_state


def _diagonal_form(rows, cols):
    """``(d, S*Q)`` for the integer matrix A of ``rows`` and the matrix S
    whose columns are ``cols``, one per column of A: the nonzero diagonal
    entries d_0 .. d_(r-1) (r the rank, up to sign) and the columns of
    S*Q, Q a unimodular matrix with P*A*Q = diag(d) for some unimodular P;
    the column operations that give Q act on S.  This is the Smith normal
    form without its divisibility chain, which a kernel mod N does not need.

    >>> _diagonal_form([[2, 4], [1, 1]], [[1, 0], [0, 1]])
    ([1, 2], [[1, 0], [-1, 1]])
    """
    a = [list(row) for row in rows]
    cols = [list(col) for col in cols]
    ncols = len(cols)
    d = []
    for t in range(ncols):
        # rows below t are 0 left of column t; zero rows go
        a[t:] = [row for row in a[t:] if any(row)]
        if len(a) == t:
            break
        while True:
            # pivot: the entry of row t of least absolute value, moved to column t
            _, j = min((abs(v), j) for j, v in enumerate(a[t][t:], t) if v)
            for row in a[t:]:
                row[t], row[j] = row[j], row[t]
            cols[t], cols[j] = cols[j], cols[t]
            pivot = a[t][t]
            for i in range(t + 1, len(a)):
                f = a[i][t] // pivot
                if f:
                    a[i] = [x - f * y for x, y in zip(a[i], a[t])]
            # a remainder is smaller than the pivot: it pivots next
            below = [(abs(r[t]), i) for i, r in enumerate(a[t + 1 :], t + 1) if r[t]]
            if below:
                i = min(below)[1]
                a[t], a[i] = a[i], a[t]
                continue
            # the pivot is alone in column t, so a column operation that
            # clears row t changes no other row
            for j in range(t + 1, ncols):
                f = a[t][j] // pivot
                if f:
                    a[t][j] -= f * pivot
                    cols[j] = [x - f * y for x, y in zip(cols[j], cols[t])]
            if not any(a[t][t + 1 :]):
                break
        d.append(abs(pivot))
    return d, cols


def _node(proj, k, inside):
    """``(free, big, sums, divisors, gens)`` for the node of the walk of
    ``_frontier`` that has put the multiple points of ``inside`` (a
    bitmask over ``incidence_table(proj)``) in R and left the other points
    below ``k`` out; the walk reads it through ``_ScanState.node``.

    The node's subgroup W holds V2(R) for every R it can still reach, from
    ``inside`` to ``inside`` plus the points from ``k`` on: exponents 0 on
    the lines meeting fewer than two of those points, the lines of each
    point of ``inside`` and all lines summing to 0.  W mod N is Q*y, Q the
    matrix of the columns ``cols`` and d_i*y_i = 0 mod N for i below
    ``len(d)``: the ``_diagonal_form`` of that system.  Its column
    operations start from each live line's unit vector over all lines
    followed by its incidence with each multiple point of the table, so a
    column carries its exponent sums over the points, which say which
    points are resonant.  Neither d nor the columns are kept as such: the
    node keeps what the walk and the listing read of them, at any order N.

    The walk's tests are read off once:
    ``free`` is the number of columns past ``d`` (y_i over all of Z/N),
    ``big`` holds ``(d_i, its column's point sums)`` for each d_i > 1 (y_i
    over the multiples of N/gcd(d_i, N); d_i = 1 pins y_i to 0), and
    ``sums`` holds per multiple point the gcd of its sums over the free
    columns.  So W mod N has N^free * prod gcd(d_i, N) points, and a point
    is resonant at all of them exactly when N divides its ``sums`` entry
    and gcd(d_i, N) divides its sum on each column of ``big``.

    The listing's generators are the columns ``_span`` can step along,
    those past ``d`` and those with d_i > 1 (one with d_i = 1 would step
    by N), kept as ``gens`` in its sparse form: a ``(field, entry)`` pair
    per nonzero entry (5 to 9 of the 15 fields on deleted B3), the fields
    laid out as in ``_fields`` (a line's unit vector is its field, a
    point's incidence the fields past ``proj.n``).  ``divisors`` holds
    their d_i, 0 past ``d``, so a column steps by N / gcd(d_i, N): 1 past
    ``d``.  So a scan at any order packs each generator from its nonzero
    entries, and no column is rebuilt per span."""
    table = incidence_table(proj)
    reach = inside | (1 << len(table.points)) - (1 << k)
    live = [j for j, on in enumerate(table.on_mask) if (on & reach).bit_count() >= 2]
    rows = [
        [int(j in p) for j in live]
        for q, p in enumerate(table.points)
        if inside >> q & 1
    ]
    start = [
        [int(i == j) for i in range(proj.n)] + [int(j in p) for p in table.points]
        for j in live
    ]
    d, cols = _diagonal_form(rows + [[1] * len(live)], start)
    n = proj.n
    free = cols[len(d) :]
    return (
        len(free),
        tuple((v, col[n:]) for v, col in zip(d, cols) if v > 1),
        tuple(gcd(*[col[n + q] for col in free]) for q in range(len(table.points))),
        tuple(v for v in d if v > 1) + (0,) * len(free),
        tuple(_sparse(col) for v, col in zip_longest(d, cols) if v != 1),
    )


# A node is listed when it holds at most this many points per set of the
# points still undecided.  4 was the fastest of 4, 8, 16 and 32 on scans
# of deleted B3 at orders 2 to 5 with every node cached, timed before the
# walk was pruned to one set per automorphism class; it is kept so that
# the walk and the ``--budget`` counts do not move.
_NODE_COST = 4


def _symmetry(proj):
    """``(prune, classes, moves)``, the scans' view of
    ``proj.automorphisms()``, built with its ``_ScanState``.

    An automorphism sigma takes the multiple point q of
    ``incidence_table(proj)`` to the point on the lines sigma(i), i on q,
    so the automorphisms, a group, act on the points as a group too.
    ``prune[k]`` holds, for the walk's nodes that have decided the points
    below k, each distinct map of those points that some sigma induces
    when it takes them onto themselves, as a tuple (point q to its image),
    the identity left out (``_pruned``): every entry is empty on an
    arrangement whose only automorphism is the identity.

    ``classes`` holds, per class of multiple points under the group, by
    its first point p, ``(gens, depth, images)``: the columns e_j - e_last
    of the local family of p (j over the lines of p but the last) in the
    sparse form of ``_span``, |p| - 2, and one ``itemgetter`` per other
    point p' of the class, e -> e o sigma for one sigma taking the lines
    of p' onto those of p, so it takes the family of p onto that of p'.
    ``moves`` holds e -> e o sigma for every automorphism, the identity
    first, for the band route's orbit fill."""
    table = incidence_table(proj)
    group = proj.automorphisms()
    index = {p: q for q, p in enumerate(table.points)}
    perms = [
        tuple(index[tuple(sorted(sigma[j] for j in p))] for p in table.points)
        for sigma in group
    ]
    prune = tuple(
        tuple(
            sorted(
                {
                    pi[:k]
                    for pi in perms
                    if max(pi[:k], default=0) < k and pi[:k] != tuple(range(k))
                }
            )
        )
        for k in range(len(table.points) + 1)
    )
    classes, seen = [], set()
    for q, (p, depth) in enumerate(zip(table.points, table.depth)):
        if q in seen:
            continue
        images = {}  # the point whose family e -> e o sigma reaches -> sigma
        for sigma in group:
            lines = tuple(i for i, image in enumerate(sigma) if image in p)
            images.setdefault(index[lines], sigma)
        seen.update(images)
        gens = tuple(((j, 1), (p[-1], -1)) for j in p[:-1])
        moves = tuple(itemgetter(*sigma) for r, sigma in images.items() if r != q)
        classes.append((gens, depth, moves))
    return prune, tuple(classes), tuple(itemgetter(*sigma) for sigma in group)


def _pruned(proj, k, inside):
    """Whether the walk prunes its node ``(k, inside)``: some map of
    ``prune[k]`` (``_symmetry``), a sigma taking the points below k onto
    themselves, moves ``inside`` to a set that first differs from it at a
    point of ``inside`` (the lowest set bit of the difference is in
    ``inside``), the test ``_frontier`` proves sound."""
    for pi in _scan_state(proj).prune[k]:
        image = 0
        for q, r in enumerate(pi):
            if inside >> q & 1:
                image |= 1 << r
        diff = inside ^ image
        if inside & diff & -diff:
            return True
    return False


def _frontier(proj, order, budget, spent):
    """The (B) sources of ``candidate_points`` at order N, ``(k, inside,
    outside, node)`` per listed node of a depth-first walk that puts each
    multiple point in R or leaves it out in turn, ``node`` being its
    ``_node(proj, k, inside)``: the points Q*y of the node's W mod N, of
    which those with no resonant point in ``outside`` are the node's.
    The listed nodes' data is held until they are listed; the budget
    bounds how many there are, as each counts one and its points.

    The walk skips sets R that an automorphism maps to a smaller one
    (orderly generation).  Order the sets of multiple points as words of
    bits over the points in table order, a set that lacks the first point
    where two differ being the smaller.  A node is pruned (``_pruned``)
    when some automorphism sigma takes the points below k onto themselves
    and sigma(inside) first differs from ``inside`` at a point of
    ``inside``.  Then every R below the node (R meets the points below k
    in ``inside``) has sigma(R) meeting them in sigma(inside), so sigma(R)
    and R first differ at that point, and sigma(R) is the smaller: R is
    not the least set of its class, and the least set of every class lies
    under no pruned node.  That needs the automorphisms to be a group, so
    that sigma(R) is in the class of R; ``proj.automorphisms()`` is every
    realised permutation once a frame exists and the identity alone
    otherwise, so it is one.  A pruned node builds no form, and is not
    counted.

    A node is dropped when its W mod N is 0, or when a point it left out
    is resonant at every point of it: no R(e) there lies between the
    node's bounds.  Both tests read the node's order-free data (its free
    column count, its d_i > 1 and the gcds of its point sums), a gcd or
    two per node and N.  A node is listed when its W mod N has at most
    ``_NODE_COST`` * 2^(points undecided) points, about the cost of
    walking all its descendants, and always once every point is decided
    (R is ``inside``).  So the walk and the listing cost at most about
    three times the smaller of listing the grid and walking all 2^K sets
    of the K multiple points, and far less where few sets hold points.

    ``spent`` plus the nodes walked and the points listed is held to
    ``budget``; beyond it, ``BudgetExceededError``, before any point is
    listed."""
    npoints = len(incidence_table(proj).points)
    node_at = _scan_state(proj).node
    sources = []
    stack = [(0, 0, 0)]
    while stack:
        k, inside, outside = stack.pop()
        node = node_at(proj, k, inside)
        if node is None:
            continue
        free, big, sums, _, _ = node
        size = order**free
        if big:
            big = [(gcd(v, order), col) for v, col in big]
            for g, _ in big:
                size *= g
        spent += 1
        if size > 1 and not any(
            sums[q] % order == 0 and all(col[q] % g == 0 for g, col in big)
            for q in range(k)
            if outside >> q & 1
        ):
            if k == npoints or size <= _NODE_COST << (npoints - k):
                sources.append((k, inside, outside, node))
                spent += size - 1
            else:
                stack.append((k + 1, inside, outside | 1 << k))
                stack.append((k + 1, inside | 1 << k, outside))
        if spent > budget:
            raise BudgetExceededError(
                f"the order-{order} scan exceeds the budget {budget} "
                "(points listed, nodes walked and catalog parameter tuples)"
            )
    return sources


def _field_width(order):
    """The bits of a packed field at order N: the fewest of 8, 16, 32 and
    64 with N < 2^(width-1), one byte up to N = 127 and two up to
    ``MAX_TORSION_ORDER``, so ``_span``'s fix-up holds.  No backend takes
    N >= 2^63 (``check_torsion_order``), and no field is made for it."""
    for width in (8, 16, 32, 64):
        if not order >> width - 1:
            return width
    raise LocalSystemError(f"torsion order {order} exceeds the bound of every backend")


def _sparse(col):
    """A column in the sparse form of ``_span``: ``(field, entry)`` per
    nonzero entry, in field order."""
    return tuple(compress(enumerate(col), col))


# most points ``_span`` lists at once
_LISTED = 256


def _span(cols, steps, order, width, top):
    """The nonzero points sum_i y_i*cols[i] mod N, y_i over the multiples
    of ``steps[i]`` in Z/N, each once (the columns are independent mod
    N), packed in integers with one ``width``-bit field per entry, in the
    order of ``product`` over y with the last y_i fastest.  A column comes
    in the sparse form of ``_sparse``, a ``(field, entry)`` pair per
    nonzero integer entry, so a generator's packed increment (its step
    times its column) is the sum of its entries, each reduced mod N and
    shifted to its field: 2 terms for a local family's e_j - e_last, not
    one per field.  ``top`` is the integer of the fields' top bits (with
    any more fields above, which stay 0).  The points come in lists of at
    most ``_LISTED``, an iterable of them, so a caller tests a list in one
    comprehension.

    The generators are the y_i with a step below N.  The innermost ones,
    as many as keep their points to at most ``_LISTED``, are listed at
    once as a list I of packed sums (I = [0] when the last alone has
    more).  The outer ones run as a recursive product: ``lists(i, base)``
    gives the list base + I past the last outer generator, and otherwise,
    N/step times, gives ``lists(i + 1, base)`` and adds generator i's
    increment to base.  The first list, base 0, is I less 0.  So each list
    is one comprehension, and the generator holds I, one list and a base
    per outer generator, whatever N and the node's size.
    Every sum's fields are below 2N <= 2^width, and adding 2^(width-1) - N
    sets a field's top bit exactly when it is at least N, so one
    subtraction reduces them all mod N."""
    gens = [
        (sum([step * c % order << width * f for f, c in col]), order // step)
        for col, step in zip(cols, steps)
        if step < order
    ]
    shift = width - 1
    fix = top - order * (top >> shift)
    inner = [0]
    while gens and len(inner) * gens[-1][1] <= _LISTED:
        inc, count = gens.pop()
        multiples = [0]
        for _ in range(count - 1):
            point = multiples[-1] + inc
            multiples.append(point - ((point + fix & top) >> shift) * order)
        inner = [
            (point := m + p) - ((point + fix & top) >> shift) * order
            for m in multiples
            for p in inner
        ]

    def lists(i, base):
        if i < len(gens):
            inc, count = gens[i]
            for _ in range(count):
                yield from lists(i + 1, base)
                base += inc
                base -= ((base + fix & top) >> shift) * order
        elif base:
            yield [
                (point := base + m) - ((point + fix & top) >> shift) * order
                for m in inner
            ]
        else:
            yield inner[1:]

    return lists(0, 0)


# multiple points per chunk of the (B) table of ``_fields``
_CHUNK = 7


def _fields(proj, width):
    """The packed-field layout of ``candidate_points`` on ``proj`` at
    ``width``-bit fields: ``(top, near, points_top, point_tops, nbytes,
    unpack, thin)``.

    A point has a field per line, then one per multiple point.  ``top``
    holds every field's top bit, ``points_top`` and ``point_tops`` those
    of the point fields; adding ``near`` (2^(width-1) - 1 in every field)
    sets a field's top bit exactly when the field is not 0.
    ``unpack(point.to_bytes(nbytes, "little"))`` is the tuple of the line
    fields.  ``thin(resonant)``, for the top bits of a set of resonant
    points, is the top bits of the lines meeting fewer than two of them.

    It reads a table that splits the points into chunks of ``_CHUNK``:
    per chunk, each value of its top bits maps to a count in each line
    field, 1 on the lines meeting one of its points and 2 on those
    meeting two or more.  So a lookup per chunk and a sum give each line
    its count of resonant points, cut off at 2 per chunk; the width
    ``candidate_points`` picks keeps twice the number of chunks below
    2^(width-1), so no count overflows its field, and adding
    2^(width-1) - 2 to every line field sets its top bit exactly when the
    count is at least 2.  Deleted B3 has one chunk of 128 entries, and a
    file with 21 multiple points has three."""
    table = incidence_table(proj)
    n, npoints = proj.n, len(table.points)
    tops = [1 << width * f + width - 1 for f in range(n + npoints)]
    line_tops, point_tops = tops[:n], tops[n:]
    lines_top, points_top = sum(line_tops), sum(point_tops)
    top = lines_top | points_top
    twice = lines_top - 2 * (lines_top >> width - 1)  # 2^(width-1) - 2 per line
    chunks = []
    for first in range(0, npoints, _CHUNK):
        bits = point_tops[first : first + _CHUNK]
        entries = {}
        for value in range(1 << len(bits)):
            key = sum(bit for i, bit in enumerate(bits) if value >> i & 1)
            entries[key] = sum(
                min((on >> first & value).bit_count(), 2) << width * j
                for j, on in enumerate(table.on_mask)
            )
        chunks.append((sum(bits), entries))

    def thin(resonant):
        counts = twice
        for mask, entries in chunks:
            counts += entries[resonant & mask]
        return lines_top & ~counts

    code = {8: "B", 16: "H", 32: "I", 64: "Q"}[width]
    return (
        top,
        top - (top >> width - 1),
        points_top,
        point_tops,
        (n + npoints) * width // 8,
        Struct(f"<{n}{code}").unpack_from,
        thin,
    )


def candidate_points(proj, order, budget=DEFAULT_BUDGET, spent=0):
    """``(exponents, h1)`` for nontrivial torus points of order dividing
    ``order`` at which the certificates do not give h^1 = 0, each once:
    one point set per class under the Galois units and the automorphisms
    of ``proj``.  Every such point is u*(e o sigma) for a listed e, a unit
    u of Z/N and a sigma in ``proj.automorphisms()``, with the same h^1
    (proved at ``torsion_scan``).

    Why these are all of them: let R(e) be the resonant multiple points
    of a nontrivial point e.  A line with q != 1 through no point of R(e)
    certifies 0.  A line with q != 1 through exactly one, p, certifies 0
    unless every line with q != 1 passes through p; then e is supported
    on the lines of p, whose exponents sum to 0 by the torus constraint,
    so e lies in the local family of p (A).  Otherwise every line with
    q != 1 meets at least two points of R(e) (B), and e lies in V2(R(e)):
    exponents 0 on the lines meeting fewer than two points of R(e), the
    lines of each point of R(e) summing to 0, and all lines summing to 0.
    So every point the certificates do not set to 0 is in (A), where they
    give |p| - 2, or in (B), where they decide nothing; the two are
    disjoint.  The certificate gives |p| - 2 at every nontrivial point e
    of the local family of p, so (A) is the whole family and needs no
    mask read: a line h with q != 1 lies on p; p is resonant, as its
    lines hold all of e; any other multiple point on h meets p only in h,
    so its exponent sum is e_h != 0; and every line off p is trivial.  So
    no such point is in (B), and no two families share a nontrivial
    point, as two multiple points share at most one line and a
    nontrivial point supported on one line breaks the torus constraint.
    A (B) point e is listed only from the node of the walk over the
    multiple points whose choices agree with R(e): each node holds V2(R)
    for every R it can still reach, so the nodes it drops hold no such e,
    and the nodes it lists split the sets R between them.  So every
    point is listed at most once.  Both certificates are theorems of the
    paper, and their tests are integer congruences mod N, so the skipped
    points and the family values are exact under either backend.

    ``h1`` is |p| - 2 for the points of (A), and None for those of (B),
    listed from the nodes of ``_frontier``.  The (A) points come first:
    the whole family of the first point p of each class of multiple
    points (``_symmetry``'s ``classes``, in that order), its
    N^(|p| - 1) - 1 nontrivial points one after the other; every other
    family is the image of one of these.  The (B) points come from a walk
    that visits the least set R of resonant points of every class and may
    visit others, so some (B) points of a class may be listed and others
    not.
    ``budget`` bounds ``spent`` (work the caller counts first, such as
    ``torsion_scan``'s catalog parameter tuples) plus the points of every
    local family, the points listed from the walk and the nodes walked.

    Points come packed from ``_span`` in fields of ``_field_width``, a
    field per line, and a (B) point also one per multiple point (its
    exponent sum), laid out by ``_fields``.  They are read in that form:
    adding ``near`` gives the lines with q != 1 and the resonant points of
    a (B) point as masks of top bits.  The (B) test is then one call of
    the ``thin`` of ``_fields``, run over each list of ``_span`` in one
    comprehension: a point is kept when none of its lines with q != 1
    meets fewer than two of its resonant points (and it leaves out no
    point of ``outside``).  A kept point's exponents are its line fields,
    unpacked from its bytes with ``struct``.  A span's generators are the
    sparse columns of its node, handed over by ``_frontier``, or, for a
    local family, of ``_symmetry``; only their steps depend on N."""
    table = incidence_table(proj)
    # a family has N^(|p| - 1) points, zero included
    spent += sum(order ** (depth + 1) - 1 for depth in table.depth)
    nodes = _frontier(proj, order, budget, spent)
    state = _scan_state(proj)
    # a field holds a residue mod N or a line's count in the (B) table
    width = _field_width(max(order, 2 * -(-len(table.points) // _CHUNK)))
    top, near, points_top, point_tops, nbytes, unpack, thin = state.layout(proj, width)
    for gens, depth, _ in state.classes:
        for points in _span(gens, [1] * len(gens), order, width, top):
            packed = map(int.to_bytes, points, repeat(nbytes), repeat("little"))
            yield from zip(map(unpack, packed), repeat(depth))
    for _, _, outside, (_, _, _, divisors, gens) in nodes:
        steps = [order // gcd(v, order) for v in divisors]
        outside = sum(bit for q, bit in enumerate(point_tops) if outside >> q & 1)
        for points in _span(gens, steps, order, width, top):
            kept = [
                point
                for point in points
                if not (
                    (resonant := points_top & ~(nonzero := point + near & top))
                    & outside
                    or nonzero & thin(resonant)
                )
            ]
            packed = map(int.to_bytes, kept, repeat(nbytes), repeat("little"))
            yield from zip(map(unpack, packed), repeat(None))


@dataclass(frozen=True, slots=True)
class ScanHit:
    point: TorusPoint
    h1: int
    families: tuple

    def __init__(self, point, h1, families):  # slot by slot, as ``TorusPoint``
        _set_point(self, point)
        _set_h1(self, h1)
        _set_families(self, families)


_set_point, _set_h1 = ScanHit.point.__set__, ScanHit.h1.__set__
_set_families = ScanHit.families.__set__
# runs an iterator to its end, keeping nothing
_consume = deque(maxlen=0).extend


def _catalog_index(families, order):
    """The index from exponent vectors to the names of the ``families``
    through them, in family order, over their ``torsion_exponents(order)``."""
    names = {}
    for f in families:
        for exps in f.torsion_exponents(order):
            names[exps] = names.get(exps, ()) + (f.name,)
    return names


def torsion_scan(
    proj,
    order,
    budget=DEFAULT_BUDGET,
    catalog=None,
    backend="cyclotomic",
    eps=DEFAULT_EPS,
):
    """All torus points of order dividing `order` with h^1 >= 1.

    Reports hits sorted by the exponents of the non-infinity lines, in
    ``proj.affine_ids()`` order (the infinity exponent follows from them).
    ``catalog`` attaches the names of the families holding each hit, in
    catalog order.  ``backend`` and ``eps`` go to ``h1_at_point``.  An
    order below 1 raises ``ValueError``; order 1 has only the trivial
    character.  ``budget`` bounds the points of the local families, the
    points listed from the walk over the multiple points and its nodes
    (``_frontier``), and the catalog's parameter tuples (the sum of
    m^nparams over its families, m of ``ComponentFamily._modulus``), all
    counted before any point is listed; beyond it,
    ``BudgetExceededError``.  A negative budget is bad input, a
    ``ValueError``, and so is an order that is not an integer
    (``operator.index`` refuses 2.0 as well as 1.5).

    The names come from an index from exponent vectors to the names of
    the families through them (``_catalog_index``), with one lookup per
    hit, built once the walk has held the count to the budget; the
    parameter tuples are charged to the budget on every scan, whether the
    index is kept or not.  A family's entries are its
    ``torsion_exponents``: its parameters run over Z/m, and a point is
    kept when every exponent is a multiple of m/N.  This is exactly the
    point set ``contains`` tests for: every parameter s_j is pinned by a
    coordinate equal to +-s_j^(+-1), so at a point of order dividing N it
    is an m-th root of unity (the sign needs m even).  A family whose
    line count is not ``proj.n`` holds no point of the scan, as in
    ``contains``.

    Only the points of ``candidate_points`` and their images are visited;
    at every other nontrivial point the certificates give h^1 = 0
    (proved there), so skipping it is exact.  h^1 is the same on the
    orbit {u*(e o sigma) mod N : u a unit of Z/N, sigma in
    ``proj.automorphisms()``}, (e o sigma)_i = e_sigma(i).  Conjugation is
    a field automorphism of Q(zeta_N), so h^1(u*e) = h^1(e).  A real
    projective map phi with phi(H_i) = H_sigma(i) is a biholomorphism of
    the complement; it takes the positive meridian of H_i to that of
    H_sigma(i), so the local system of e pulls back to that of e o sigma,
    and h^1(e o sigma) = h^1(e) (the property tests check both).  e o
    sigma still sums to 0.  The orbit keeps (A) and (B), which are read
    off the lines and multiple points whose exponent sums are 0 mod N: a
    unit keeps those sets, and sigma permutes the lines and the multiple
    points, R(e o sigma) being the preimage of R(e).

    So the scan lists one family per class of multiple points and enters
    each other family of the class as its image, at |p| - 2.  The (B)
    points go to ``h1_at_point`` (the band kernel), once per orbit: the
    first listed point of an orbit is decided, and its h^1 set at once on
    every u*(e o sigma) in the ``band`` dict.  The walk lists a point of
    every (B) orbit: R(e) runs over the whole class of R(e) on the orbit
    of e, and the least set of the class lies under no pruned node
    (``_frontier``).  So the ``band`` dict ends up holding every (B)
    point, and only those, and the (B) hits are its entries with h^1 >=
    1; a (B) point the walk does not list is never looked up.  The first
    point comes once the walk has held the count to the budget; only then
    are the order checked against the backend (``check_torsion_order``)
    and the units listed, so a scan the budget stops does no O(N) work,
    and one the backend cannot take lists no more than that point.  A
    scan that lists none, order 1 included, checks the order all the same.
    """
    if budget < 0:
        raise ValueError(f"scan budget must be >= 0, not {budget}")
    try:
        order = index(order)
    except TypeError:
        raise ValueError(f"torsion order must be an integer, not {order!r}") from None
    if order < 1:
        raise ValueError("torsion order must be >= 1")
    if order == 1:
        check_torsion_order(order, backend, eps)
        return []
    families = tuple(f for f in catalog or () if f.nlines == proj.n)
    parameter_tuples = sum(f._modulus(order) ** f.nparams for f in families)
    listed = candidate_points(proj, order, budget, spent=parameter_tuples)
    first = next(listed, None)  # the walk has held the count to the budget
    check_torsion_order(order, backend, eps)
    if first is None:  # no multiple point, so no hit
        return []
    listed = chain((first,), listed)
    state = _scan_state(proj)
    found = {}  # exponents -> h^1 >= 1
    for _, depth, images in state.classes:
        family = list(map(itemgetter(0), islice(listed, order ** (depth + 1) - 1)))
        found.update(zip(family, repeat(depth)))
        for move in images:
            found.update(zip(map(move, family), repeat(depth)))
    units = [u for u in range(2, order) if gcd(u, order) == 1]
    moves = state.moves
    # h^1 of the band route, set at once for every (u*e) o sigma of a
    # decided e, u a unit and sigma an automorphism
    band = {}
    for exps, _ in listed:
        if exps in band:
            continue
        dim = h1_at_point(proj, TorusPoint(exps, order), backend=backend, eps=eps)
        multiples = [exps, *[tuple([u * e % order for e in exps]) for u in units]]
        band.update(zip([move(m) for m in multiples for move in moves], repeat(dim)))
    found.update(compress(band.items(), band.values()))
    names = state.names(families, order)
    # a multiple point has three lines or more, so itemgetter gets two ids
    keys = sorted(found, key=itemgetter(*proj.affine_ids()))
    # the records column by column: each slot setter runs down one column
    # of new records, 0.75 times as long as a constructor call per record
    points = list(map(object.__new__, repeat(TorusPoint, len(keys))))
    hits = list(map(object.__new__, repeat(ScanHit, len(keys))))
    _consume(map(_set_exponents, points, keys))
    _consume(map(_set_order, points, repeat(order)))
    _consume(map(_set_point, hits, points))
    _consume(map(_set_h1, hits, map(found.__getitem__, keys)))
    _consume(map(_set_families, hits, map(names.get, keys, repeat(()))))
    return hits
