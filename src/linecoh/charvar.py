"""Character torus scans for first cohomology jump loci, with the built-in
eight-line deleted-B3 arrangement and its known thirteen-component
decomposition.

A torus point assigns a root of unity to every projective line subject to
the product-one constraint; a point of order dividing N is an exponent
vector mod N summing to 0.  h^1 at a nontrivial point is the band kernel
on the chart of ``resband.h1_on_band_chart`` (infinity when its q is not
1, else the first line with q != 1), read off that chart's band table.

The zero/one resonant point certificates (``resband.certify_masks``) give
h^1 = 0 at almost every point, so ``torsion_scan`` lists only the points
where they cannot (``candidate_points``): the local family of each
multiple point, and the points at which every line with q != 1 carries
two resonant multiple points.  The latter are listed from the nodes of a
depth-first walk that puts each multiple point in the set R of resonant
points or leaves it out (``_frontier``).  A node's points form a subgroup
read off a diagonal form of a small integer matrix (``_diagonal_form``),
cached on the arrangement; a node that cannot hold such a point is
dropped, and one that is cheaper to list than to walk on is listed.  A
nontrivial point of the local family of p takes h^1 = |p| - 2, which the
one resonant point certificate gives there without a mask read, and the
others go to the band route (``h1_at_point``) once per orbit under the
Galois units and the arrangement's projective automorphisms
(``ProjArrangement.automorphisms``).  On deleted B3 at N = 5 the walk has
115 nodes, and the scan lists 504 of the 78,124 nontrivial points.  164
of them are in 41 Galois orbits, which its 8 automorphisms merge into
12, so the band route runs 12 times.  A catalog names each hit with one
lookup in an index of the families' torsion points, merged on each scan
from the tuples each family keeps per order (``ComponentFamily._points``;
the odometer of ``torsion_exponents`` runs once per family and order).
The scans of deleted B3 at orders 2 to 12 give exactly the
catalog's nontrivial torsion points of order dividing N, with h^1 = 2 on
C_5678 and at the two order-2 points on four families, and h^1 = 1 at
every other hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod
from operator import mul

from .geometry import ProjArrangement
from .localsystem import check_torsion_order, make_local_system
from .resband import h1_on_band_chart, incidence_table
# bench/selfcheck.py checks that its tracer wraps this import site too
from .resband import h1_via_bands  # noqa: F401
from .scalars import DEFAULT_EPS

DEFAULT_BUDGET = 2_000_000


class BudgetExceededError(RuntimeError):
    """The requested enumeration is larger than the configured budget."""


@dataclass(frozen=True)
class TorusPoint:
    """Exponent vector over all projective lines, mod `order`, summing to 0."""

    exponents: tuple
    order: int


@dataclass(frozen=True)
class ComponentFamily:
    """A parametrized family of torus points.

    Coordinate i is (-1)^signs[i] * prod_j s_j^powers[i][j] for parameters
    s_j in the unit torus.  Power columns sum to zero and the sign vector
    has even weight, so every produced point satisfies the product-one
    constraint.  Every parameter must be pinned by some coordinate equal to
    s_j on the nose; membership testing relies on that.

    A family keeps its torsion points per order scanned (``_points``), so
    it holds up to m^nparams exponent tuples for each such order, m of
    ``_modulus``: a deleted-B3 catalog holds 424 tuples after scans at
    orders 2 to 4, and about 255k after one at N = 60.  The cache is not
    a field: ``==``, ``hash`` and ``repr`` read only the fields.
    """

    name: str
    signs: tuple
    powers: tuple

    def __post_init__(self):
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
            i for i, row in enumerate(self.powers) if not (self.signs[i] or any(row))
        )
        object.__setattr__(self, "_ones", tuple(ones))
        # order -> tuple(torsion_exponents(order)), filled by ``_points``
        object.__setattr__(self, "_by_order", {})

    @property
    def nparams(self):
        return len(self.powers[0])

    @property
    def nlines(self):
        return len(self.powers)

    def _modulus(self, order):
        """m = ``order``, or lcm(``order``, 2) when a sign is set.  At a point
        of order dividing ``order`` every parameter is an m-th root of
        unity: it is pinned by a coordinate equal to +-s_j^(+-1)."""
        return lcm(order, 2) if any(self.signs) else order

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
        exps, digits = [s * (m // 2) for s in self.signs], [0] * self.nparams
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

    def _points(self, order):
        """``torsion_exponents(order)`` as a tuple, listed on the first call
        for ``order`` and kept for the family's lifetime."""
        points = self._by_order.get(order)
        if points is None:
            points = self._by_order[order] = tuple(self.torsion_exponents(order))
        return points

    def contains(self, point):
        """Exponent-linear solve: is the torus point in the family?  A point
        with q != 1 on a coordinate the family holds at 1 is not; otherwise
        each parameter is read off its pinning coordinate, then every
        coordinate is checked against the parametrization."""
        n = point.order
        if len(point.exponents) != self.nlines or any(
            point.exponents[i] % n for i in self._ones
        ):
            return False
        m = self._modulus(n)
        lift = m // n
        exps = [e * lift % m for e in point.exponents]
        params = [
            sign * (exps[i] - self.signs[i] * (m // 2)) % m for i, sign in self._pins
        ]
        return exps == [
            (s * (m // 2) + sum(map(mul, row, params))) % m
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
    ``h1_on_band_chart``: the line at infinity when its q is not 1,
    otherwise the first line with q != 1.  The system holds the exponents
    of the affine lines; the infinity monodromy follows from them.  A
    point off the torus of ``proj`` (one exponent per line, summing to 0
    mod an order >= 1) is a ``ValueError``."""
    exps, order = point.exponents, point.order
    if len(exps) != proj.n or order < 1 or sum(exps) % order:
        raise ValueError(f"{point} is not a torus point of {proj.n} lines")
    exps = [exps[j] for j in proj.affine_ids()]
    system = make_local_system(exps, order=order, backend=backend, eps=eps)
    found = h1_on_band_chart(system, proj)
    if found is None:
        raise ValueError("trivial point: every monodromy equals 1")
    return found[1].dim


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
    """``(d, cols)`` for the node of the walk of ``_frontier`` that has put
    the multiple points of ``inside`` (a bitmask over
    ``incidence_table(proj)``) in R and left the other points below ``k``
    out.  Cached on ``proj`` while it holds fewer than ``_CACHED_NODES``.

    The node's subgroup W holds V2(R) for every R it can still reach, from
    ``inside`` to ``inside`` plus the points from ``k`` on: exponents 0 on
    the lines meeting fewer than two of those points, the lines of each
    point of ``inside`` and all lines summing to 0.  W mod N is Q*y, Q the
    matrix of the columns ``cols`` and d_i*y_i = 0 mod N for i below
    ``len(d)``: the ``_diagonal_form`` of that system.  Its column
    operations start from each live line's unit vector over all lines
    followed by its incidence with each multiple point of the table, so a
    column carries its exponent sums over the points, which say which
    points are resonant."""
    node = proj._scan_nodes.get((k, inside))
    if node is not None:
        return node
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
    node = _diagonal_form(rows + [[1] * len(live)], start)
    if len(proj._scan_nodes) < _CACHED_NODES:
        proj._scan_nodes[k, inside] = node
    return node


# A walk node costs about as much as listing this many points; 4 is the
# fastest of 4, 8, 16 and 32 on scans of deleted B3 at orders 2 to 5 with
# the nodes cached
_NODE_COST = 4
# nodes kept per arrangement; deleted B3 has 255
_CACHED_NODES = 4096


def _frontier(proj, order, budget, spent):
    """The (B) sources of ``candidate_points`` at order N, ``(k, inside,
    outside, steps)`` per node of a depth-first walk that puts each
    multiple point in R or leaves it out in turn (``_node(proj, k,
    inside)``): the points Q*y of the node's W mod N, y_i over the
    multiples of ``steps[i]`` in Z/N, of which those with no resonant
    point in ``outside`` are the node's.  The columns are not kept, so a
    long walk holds no more than the node cache; ``_node`` builds them
    from ``(k, inside)`` alone, so fetched again they match ``steps``.

    A node is dropped when its W mod N is 0, or when a point it left out
    is resonant at every point of it: no R(e) there lies between the
    node's bounds.  A node is listed when its W mod N has at most
    ``_NODE_COST`` * 2^(points undecided) points, about the cost of
    walking all its descendants, and always once every point is decided
    (R is ``inside``).  So the walk and the listing cost at most about
    three times the smaller of listing the grid and walking all 2^K sets
    of the K multiple points, and far less where few sets hold points.

    ``spent`` plus the nodes walked and the points listed is held to
    ``budget``; beyond it, ``BudgetExceededError``, before any point is
    listed."""
    npoints = len(incidence_table(proj).points)
    n = proj.n
    sources = []
    stack = [(0, 0, 0)]
    while stack:
        k, inside, outside = stack.pop()
        d, cols = _node(proj, k, inside)
        steps = [order // gcd(v, order) for v in d] + [1] * (len(cols) - len(d))
        size = prod(order // step for step in steps)
        spent += 1
        if size > 1 and not any(
            all(col[n + q] * step % order == 0 for col, step in zip(cols, steps))
            for q in range(k)
            if outside >> q & 1
        ):
            if k == npoints or size <= _NODE_COST << (npoints - k):
                sources.append((k, inside, outside, steps))
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


def _span(cols, steps, order, width):
    """The nonzero points sum_i y_i*cols[i] mod N, y_i over the multiples
    of ``steps[i]`` in Z/N, each once (the columns are independent mod
    N), packed in integers with one ``width``-bit field per entry.

    An odometer over y: digit i steps up while the digits after it wrap
    to 0, and a wrap adds its step times its column once more (count *
    step = N), so each point is one packed sum.  Its fields are below 2N
    < 2^width, and adding 2^(width-1) - N sets a field's top bit exactly
    when it is at least N, so one subtraction reduces them all mod N."""
    gens = [(col, step) for col, step in zip(cols, steps) if step < order]
    incs = []
    acc = [0] * len(cols[0])
    for col, step in reversed(gens):
        acc = [(a + step * c) % order for a, c in zip(acc, col)]
        incs.append(sum(v << width * f for f, v in enumerate(acc)))
    incs.reverse()
    top = sum(1 << width * f + width - 1 for f in range(len(acc)))
    fix = top - order * (top >> width - 1)
    ends = [order // step - 1 for _, step in gens]
    digits = [0] * len(gens)
    point = 0
    while True:
        i = len(digits) - 1
        while i >= 0 and digits[i] == ends[i]:
            digits[i] = 0
            i -= 1
        if i < 0:
            return
        digits[i] += 1
        point += incs[i]
        point -= ((point + fix & top) >> width - 1) * order
        yield point


def candidate_points(proj, order, budget=DEFAULT_BUDGET, spent=0):
    """``(exponents, h1)`` for every nontrivial torus point of order
    dividing ``order`` at which the certificates do not give h^1 = 0, each
    once (see ``torsion_scan`` for why these are all of them).

    ``h1`` is |p| - 2 for the points of the local family of a multiple
    point p (A), listed family by family, and None for the points at which
    every line with q != 1 carries at least two resonant multiple points
    (B), listed from the nodes of ``_frontier``.  No family point is in
    (B) and no two families share a point, so each is listed once.
    ``budget`` bounds ``spent`` (work the caller counts first, such as
    ``torsion_scan``'s catalog parameter tuples) plus the points listed
    and the nodes walked.

    Points come packed from ``_span``, a field per line, and a (B) point
    also one per multiple point (its exponent sum).  They are read in that
    form: a field's top bit is set after adding 2^(width-1) - 1 exactly
    when the field is not 0, which gives the lines with q != 1 and the
    resonant points of a (B) point as masks of top bits.  The (B) test is
    then one lookup: a dict, kept for the call, maps each mask of
    resonant points met so far to the mask of the lines meeting fewer
    than two of them, and a point is kept when none of its lines with
    q != 1 is in that mask (and it leaves out no point of ``outside``)."""
    table = incidence_table(proj)
    n = proj.n
    families = []
    for p in table.points:
        cols = [[0] * n for _ in p[1:]]
        for col, j in zip(cols, p):
            col[j], col[p[-1]] = 1, -1
        families.append(cols)
    spent += sum(order ** len(cols) - 1 for cols in families)
    nodes = _frontier(proj, order, budget, spent)
    width = order.bit_length() + 1
    tops = [1 << width * f + width - 1 for f in range(n + len(table.points))]
    line_tops, point_tops = tops[:n], tops[n:]
    top, points_top = sum(tops), sum(point_tops)
    near = top - (top >> width - 1)  # 2^(width-1) - 1 in every field

    def spread(compact, bits):
        return sum(bit for k, bit in enumerate(bits) if compact >> k & 1)

    shifts = [width * j for j in range(n)]
    field = ~(-1 << width)

    def exponents(point):
        return tuple([point >> shift & field for shift in shifts])

    for cols, depth in zip(families, table.depth):
        for point in _span(cols, [1] * len(cols), order, width):
            yield exponents(point), depth
    on_tops = [spread(on, point_tops) for on in table.on_mask]
    # resonant points -> top bits of the lines meeting fewer than two of them
    thin = {}
    for k, inside, outside, steps in nodes:
        outside = spread(outside, point_tops)
        for point in _span(_node(proj, k, inside)[1], steps, order, width):
            nonzero = (point + near) & top
            resonant = points_top & ~nonzero
            if resonant & outside:
                continue
            lines = thin.get(resonant)
            if lines is None:
                lines = thin[resonant] = sum(
                    bit
                    for bit, on in zip(line_tops, on_tops)
                    if (on & resonant).bit_count() < 2
                )
            if not nonzero & lines:
                yield exponents(point), None


@dataclass(frozen=True)
class ScanHit:
    point: TorusPoint
    h1: int
    families: tuple


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
    character.  ``budget`` bounds the points listed, the nodes of the
    walk over the multiple points (``_frontier``) and the catalog's
    parameter tuples (the sum of m^nparams over its families, m of
    ``ComponentFamily._modulus``), all counted before any point is
    listed; beyond it, ``BudgetExceededError``.  A negative budget is bad
    input, a ``ValueError``.

    The names come from an index from exponent vectors to the names of
    the families through them, with one lookup per hit.  Each scan merges
    it anew, once the walk has held the count to the budget, from the
    tuple of ``torsion_exponents`` each family keeps per order
    (``ComponentFamily._points``), so the odometer runs once per family
    and order however often the catalog is scanned; the parameter tuples
    are charged to the budget on every scan all the same.  A family's
    entries are its ``torsion_exponents``: its
    parameters run over Z/m, and a point is kept when every exponent is
    a multiple of m/N.  This is exactly the point set ``contains`` tests
    for: every parameter s_j is pinned by a coordinate equal to
    +-s_j^(+-1), so at a point of order dividing N it is an m-th root of
    unity (the sign needs m even).  A family whose line count is not
    ``proj.n`` holds no point of the scan, as in ``contains``.

    Only the points of ``candidate_points`` are visited; at every other
    nontrivial point the certificates give h^1 = 0, so skipping it is
    exact.  Why: let R(e) be the resonant multiple points of a nontrivial
    point e.  A line with q != 1 through no point of R(e) certifies 0.  A
    line with q != 1 through exactly one, p, certifies 0 unless every line
    with q != 1 passes through p; then e is supported on the lines of p,
    whose exponents sum to 0 by the torus constraint, so e lies in the
    local family of p (A).  Otherwise every line with q != 1 meets at
    least two points of R(e) (B), and e lies in V2(R(e)): exponents 0 on
    the lines meeting fewer than two points of R(e), the lines of each
    point of R(e) summing to 0, and all lines summing to 0.  So every
    point the certificates do not set to 0 is in (A), where they give
    |p| - 2, or in (B), where they decide nothing; the two are disjoint.
    The certificate gives |p| - 2 at every nontrivial point e of the
    local family of p, so (A) is the whole family and needs no mask read:
    a line h with q != 1 lies on p; p is resonant, as its lines hold all
    of e; any other multiple point on h meets p only in h, so its exponent
    sum is e_h != 0; and every line off p is trivial.  So no such point is
    in (B), and no two families share a nontrivial point, as two multiple
    points share at most one line and a nontrivial point supported on one
    line breaks the torus constraint.  A (B) point e is kept only from the
    node of the walk over the multiple points whose choices agree with
    R(e): each node holds V2(R) for every R it can still reach, so the
    nodes it drops hold no such e, and the nodes it lists split the sets R
    between them.  So every point is visited once.

    Both certificates (a line with q != 1 and no resonant multiple point
    gives h^1 = 0; one with exactly one resonant point p gives |p| - 2
    when every line off p is trivial, and 0 otherwise) are theorems of the
    paper, and their tests are integer congruences mod N, so the skipped
    points and the family values are exact under either backend.  The (B)
    points go to ``h1_at_point`` (the band kernel), once per orbit
    {u*(e o sigma) mod N : u a unit of Z/N, sigma in
    ``proj.automorphisms()``}, (e o sigma)_i = e_sigma(i).  h^1 is the same
    on the whole orbit.  Conjugation is a field automorphism of
    Q(zeta_N), so h^1(u*e) = h^1(e).  A real projective map phi with
    phi(H_i) = H_sigma(i) is a biholomorphism of the complement; it takes
    the positive meridian of H_i to that of H_sigma(i), so the local system
    of e pulls back to that of e o sigma, and h^1(e o sigma) = h^1(e) (the
    property tests check both).  e o sigma still sums to 0.  The orbit
    lies in (B), which is read off the lines and multiple points whose
    exponent sums are 0 mod N: a unit keeps those sets, and sigma permutes
    the lines and the multiple points.  So the ``band`` dict holds only
    (B) points, no more entries than the scan lists.  The first point
    comes once the walk has held the count to the budget; only then are
    the order checked against the backend (``check_torsion_order``) and
    the units listed, so a scan the budget stops does no O(N) work, and
    one the backend cannot take lists no point.
    A scan that lists none, order 1 included, checks the order all the same.
    """
    if budget < 0:
        raise ValueError(f"scan budget must be >= 0, not {budget}")
    if order < 1:
        raise ValueError("torsion order must be >= 1")
    if order == 1:
        check_torsion_order(order, backend, eps)
        return []
    families = [f for f in catalog or () if f.nlines == proj.n]
    parameter_tuples = sum(f._modulus(order) ** f.nparams for f in families)
    units = None
    # h^1 of the band route, set at once for every u*(e o sigma) of a
    # decided e, u a unit and sigma an automorphism
    band = {}
    found = []
    for exps, dim in candidate_points(proj, order, budget, spent=parameter_tuples):
        if units is None:
            check_torsion_order(order, backend, eps)
            units = [u for u in range(1, order) if gcd(u, order) == 1]
        if dim is None:
            dim = band.get(exps)
        if dim is None:
            dim = h1_at_point(proj, TorusPoint(exps, order), backend=backend, eps=eps)
            for sigma in proj.automorphisms():
                moved = [exps[s] for s in sigma]
                for u in units:
                    band[tuple([u * e % order for e in moved])] = dim
        if dim >= 1:
            found.append((exps, dim))
    if units is None:  # no point came, but the walk held the budget
        check_torsion_order(order, backend, eps)
    # built once the walk has held the whole count to the budget
    index = {}
    for f in families:
        for exps in f._points(order):
            index[exps] = index.get(exps, ()) + (f.name,)
    inf = proj.infinity_index
    found.sort(key=lambda hit: hit[0][:inf] + hit[0][inf + 1 :])
    return [
        ScanHit(point=TorusPoint(exps, order), h1=dim, families=index.get(exps, ()))
        for exps, dim in found
    ]
