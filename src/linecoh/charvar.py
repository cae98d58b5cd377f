"""Character torus scans and component membership for first cohomology jump
loci, with the built-in eight-line deleted-B3 arrangement and its known
thirteen-component decomposition.

A torus point assigns a root of unity to every projective line subject to
the product-one constraint; scanning enumerates the affine exponents and
derives the infinity exponent.  h^1 at a nontrivial point is computed by
moving some line with q != 1 to infinity and running the band kernel there.

h^1 is constant on the orbits of the units u of Z/N acting on order-N
exponent vectors by e -> u*e mod N (the Galois conjugates of a point), and
so is membership in a catalog family, whose coordinates are monomials with
integer exponents and signs.  ``torsion_scan`` therefore evaluates one
point per orbit, its lexicographically smallest member, and hands its
answer to the whole orbit.  Those members are generated directly: their
first nonzero entry is a divisor d < N of N, and only the units
u = 1 mod N/d can map one to a smaller vector (``_orbit_representatives``).

Each orbit representative goes first to the certificate route
(``certified_h1``): the zero/one resonant point certificates, evaluated
as integer bit operations over the cached incidence table of the
multiple points.  Two masks are read off the exponents, the lines with a
nonzero exponent and the multiple points whose lines' exponents sum to
0 mod N; a line's resonant points are the second mask and its own mask
of points on it.  A scan meets only a few thousand distinct mask pairs
and decides each pair once.  On deleted B3 the certificates decide all
but 41 of the 19,531 representatives at N = 5; only the rest reach the
band route (``h1_at_point``).  The scans of deleted B3 at orders 2 to 8
give exactly the catalog's nontrivial torsion points of order dividing N
(``ComponentFamily.torsion_points``), with h^1 = 2 on C_5678 and at the
two order-2 points on four families, and h^1 = 1 at every other hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, product
from math import gcd, lcm
from operator import itemgetter, mul

from .geometry import ProjArrangement
from .localsystem import make_local_system
from .resband import agreed_h1, h1_via_bands, incidence_table, line_certificates


class BudgetExceededError(RuntimeError):
    """The requested enumeration is larger than the configured budget."""


@dataclass(frozen=True)
class TorusPoint:
    """Exponent vector over all projective lines, mod `order`, summing to 0."""

    exponents: tuple
    order: int

    def is_trivial(self):
        return all(e % self.order == 0 for e in self.exponents)


@dataclass(frozen=True)
class ComponentFamily:
    """A parametrized family of torus points.

    Coordinate i is (-1)^signs[i] * prod_j s_j^powers[i][j] for parameters
    s_j in the unit torus.  Power columns sum to zero and the sign vector
    has even weight, so every produced point satisfies the product-one
    constraint.  Every parameter must be pinned by some coordinate equal to
    s_j on the nose; membership testing relies on that.
    """

    name: str
    signs: tuple
    powers: tuple

    def __post_init__(self):
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

    @property
    def nparams(self):
        return len(self.powers[0])

    @property
    def nlines(self):
        return len(self.powers)

    def point(self, params, order):
        """The torus point at parameters s_j = zeta_order^{params[j]}."""
        if len(params) != self.nparams:
            raise ValueError("wrong number of parameters")
        n = order if not any(self.signs) else lcm(order, 2)
        step = n // order
        exps = []
        for i in range(self.nlines):
            e = self.signs[i] * (n // 2) if self.signs[i] else 0
            e += step * sum(m * t for m, t in zip(self.powers[i], params))
            exps.append(e % n)
        pt = TorusPoint(tuple(exps), n)
        if sum(pt.exponents) % n != 0:
            raise ValueError(f"{self.name}: parametrization violates the constraint")
        return pt

    def torsion_points(self, order):
        """The family's points of order dividing ``order``, as torus points
        of that order.  A parameter equals a coordinate up to sign, so at
        such a point it is a 2N-th root of unity: the parameters run over
        the 2N grid, and points with an odd exponent at order 2N go."""
        two_n = 2 * order
        points = set()
        for params in product(range(two_n), repeat=self.nparams):
            exps = self.point(params, two_n).exponents
            if not any(e % 2 for e in exps):
                points.add(TorusPoint(tuple(e // 2 for e in exps), order))
        return frozenset(points)

    def contains(self, point):
        """Exponent-linear solve: is the torus point in the family?  Each
        parameter is read off its pinning coordinate, then every coordinate
        is checked against the parametrization."""
        n = point.order
        m = n if not any(self.signs) else lcm(n, 2)
        lift = m // n
        half = m // 2
        exps = [e * lift % m for e in point.exponents]
        if len(exps) != self.nlines:
            return False
        signs = self.signs
        params = [
            sign * (exps[i] - signs[i] * half) % m for i, sign in self._pins
        ]
        return all(
            (s * half + sum(map(mul, row, params))) % m == e
            for e, s, row in zip(exps, signs, self.powers)
        )


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


def h1_at_point(proj, point, backend="cyclotomic", eps=1e-9):
    """h^1 at a nontrivial torus point, through the chart of the first line
    with q != 1 (there the infinity monodromy is that q, hence nontrivial)."""
    n = point.order
    pivot = next(
        (j for j in range(proj.n) if point.exponents[j] % n != 0), None
    )
    if pivot is None:
        raise ValueError("trivial point: every monodromy equals 1")
    chart = proj.chart(pivot)
    exps = [point.exponents[old] for old in chart.to_old]
    system = make_local_system(exps, order=n, backend=backend, eps=eps)
    return h1_via_bands(system, chart.arrangement).dim


def certified_h1(table, exponents, order):
    """h^1 at a nontrivial torus point decided by the zero/one resonant
    point certificates alone, or None when no line decides it.

    ``table`` is ``incidence_table(proj)`` and ``exponents`` the exponent
    vector over all projective lines.  A line is trivial when its exponent
    is 0 mod ``order``, and a multiple point is resonant when the exponents
    of its lines sum to 0 mod ``order``; ``line_certificates`` reads both
    as bitmasks.
    """
    masks = _mask_reader(table, order)([e % order for e in exponents])
    return _certify_masks(table, *masks)


def _mask_reader(table, order):
    """The function from exponent vectors reduced mod ``order`` to the
    bitmasks the certificates read: bit j of the first for each line j
    with q != 1 (a nonzero exponent), bit k of the second for each
    multiple point of ``table`` with q = 1 (its lines' exponents sum to 0
    mod ``order``)."""
    line_bits = [1 << j for j in range(len(table.on_mask))]
    point_bits = [1 << k for k in range(len(table.points))]
    point_lines = [itemgetter(*p) for p in table.points]

    def masks(exponents):
        return (
            sum(compress(line_bits, exponents)),
            sum(
                compress(
                    point_bits, [not sum(g(exponents)) % order for g in point_lines]
                )
            ),
        )

    return masks


def _certify_masks(table, nontrivial, resonant):
    """``line_certificates`` and ``agreed_h1`` on the masks of
    ``_mask_reader``."""
    on_mask = table.on_mask
    return agreed_h1(
        line_certificates(table, nontrivial, lambda h: resonant & on_mask[h])
    )


def _unit_maps(order):
    """c -> u*c mod N, as a tuple indexed by c, for each unit u != 1 of
    Z/N."""
    return {
        u: tuple(u * c % order for c in range(order))
        for u in range(2, order)
        if gcd(u, order) == 1
    }


def _orbit_representatives(order, length):
    """The lexicographically smallest member of every orbit {u*c mod N : u
    a unit of Z/N} of nonzero vectors c in (Z/N)^length, each once.

    Every such member has a divisor d < N of N as its first nonzero entry
    (see ``torsion_scan``), so only those vectors are generated, and one
    is kept when no unit u = 1 mod N/d maps its tail to a smaller one.
    """
    maps = _unit_maps(order)
    for d in range(1, order):
        if order % d:
            continue
        # the maps of the units u with u*d = d mod N
        tables = [t for u, t in maps.items() if u % (order // d) == 1]
        for pos in range(length):
            head = (0,) * pos + (d,)
            for tail in product(range(order), repeat=length - pos - 1):
                if not any(tuple(map(t.__getitem__, tail)) < tail for t in tables):
                    yield head + tail


@dataclass(frozen=True)
class ScanHit:
    point: TorusPoint
    h1: int
    families: tuple


def torsion_scan(
    proj, order, budget=2_000_000, catalog=None, backend="cyclotomic", eps=1e-9
):
    """All torus points of order dividing `order` with h^1 >= 1.

    Enumerates exponents of the non-infinity lines (infinity is derived),
    skips the trivial character, and reports hits sorted by the affine
    exponents in ``proj.affine_ids()`` order.  ``catalog`` attaches the
    names of matching families.  ``budget`` bounds the grid, order**(n-1)
    points.  ``backend`` and ``eps`` go to ``h1_at_point``.  An order
    below 1 raises ``ValueError``; order 1 has only the trivial character.

    h^1 is computed only at the lexicographically smallest affine exponent
    vector e of each orbit {u*e mod N : u a unit of Z/N}; a hit's h^1 and
    family names go to every member of its orbit.  Why h^1(u*e) = h^1(e):
    lift u to a unit u' of Z/2N (u' = u for odd u, u + N otherwise).  The
    field automorphism zeta_2N -> zeta_2N^u' maps every band matrix entry
    zeta^s - zeta^-s at half-exponents e onto the entry at u'*e, and it
    preserves the rank.  Multiplying by u keeps the set of lines with
    q = 1, so ``h1_at_point`` moves the same line to infinity, and it keeps
    every resonance test (a half-exponent sum vanishing mod N), so the same
    bands are resonant.  Finally u'*e differs from the canonical
    half-exponents u*e mod N by multiples of N, that is, by square root
    flips h_i -> -h_i, on which h^1 does not depend (``LocalSystem.flipped``).
    Family membership is an exponent-linear condition with integer
    coefficients, so it is kept by the same automorphism.

    The smallest members are generated directly
    (``_orbit_representatives``).  Units keep zero entries, so every
    member of the orbit of e has its first nonzero entry a at the same
    position.  The units act transitively on the residues with a given gcd
    with N, as (Z/N)* maps onto (Z/(N/g))*; the residues with gcd g are the
    multiples of g, and the smallest of them is g itself.  So the smallest
    member starts with d = gcd(a, N), a divisor of N below N, and only
    vectors that start so are generated.  Among those, a unit u with
    u*d != d mod N gives an image whose first nonzero entry is a larger
    residue with gcd d, hence a larger image; only the units u != 1 with
    u*d = d, that is u = 1 mod N/d, can give a smaller one, and they fix
    the entries up to d, so their images of the tail are compared.  For
    prime N no such unit is left, and every vector starting with 1 is a
    representative.

    Each representative is first offered to the certificates of
    ``certified_h1``, on the cached ``incidence_table(proj)``; only the
    points they leave undecided reach ``h1_at_point`` (the band kernel).
    The certificates read two bitmasks off the exponents (``_mask_reader``)
    and nothing else, so each distinct pair of masks is decided once per
    scan and its value reused for every representative with the same
    masks.  This is exact: both certificates (a line with q != 1 and no
    resonant multiple point gives h^1 = 0; one with exactly one resonant
    point p gives |p| - 2 when every line off p is trivial, and 0
    otherwise) are theorems of the paper, and their tests are integer
    congruences mod N, so a certified value is exact under either backend.  Multiplying by a unit u keeps
    every one of those congruences, so a certified value holds on the
    whole orbit, as a band value does.  Certificates from two lines that
    disagree raise ``InvariantError``.
    """
    if order < 1:
        raise ValueError("torsion order must be >= 1")
    if order == 1:
        return []
    affine = proj.affine_ids()
    total = order ** len(affine)
    if total > budget:
        raise BudgetExceededError(
            f"{total} points at order {order} exceeds the budget {budget}"
        )
    inf = proj.infinity_index
    incidence = incidence_table(proj)
    units = _unit_maps(order).values()

    def exponents(combo):
        exps = list(combo)
        exps.insert(inf, -sum(combo) % order)
        return exps

    read_masks = _mask_reader(incidence, order)
    certified = {}  # masks -> certified h^1, filled as the scan meets them
    found = []
    for combo in _orbit_representatives(order, len(affine)):
        exps = exponents(combo)
        masks = read_masks(exps)
        if masks not in certified:
            certified[masks] = _certify_masks(incidence, *masks)
        dim = certified[masks]
        if dim is None:
            dim = h1_at_point(
                proj, TorusPoint(tuple(exps), order), backend=backend, eps=eps
            )
        if dim >= 1:
            names = ()
            if catalog is not None:
                point = TorusPoint(tuple(exps), order)
                names = tuple(f.name for f in catalog if f.contains(point))
            orbit = {combo, *(tuple(map(t.__getitem__, combo)) for t in units)}
            found.extend((member, dim, names) for member in orbit)
    found.sort()
    return [
        ScanHit(
            point=TorusPoint(tuple(exponents(combo)), order), h1=dim, families=names
        )
        for combo, dim, names in found
    ]


@dataclass(frozen=True)
class MembershipRecord:
    params: tuple
    point: TorusPoint
    h1: int


@dataclass(frozen=True)
class MembershipReport:
    family: str
    records: tuple
    supported: bool  # every sampled point has h^1 >= 1


def component_membership(family, samples, proj, order, backend="cyclotomic"):
    """Evaluate h^1 at sampled parameter values of the family.

    ``samples`` is a list of exponent tuples; parameter j takes the value
    zeta_order^{t_j}.  The family is supported when every sample confirms
    h^1 >= 1.
    """
    records = []
    ok = True
    for params in samples:
        point = family.point(tuple(params), order)
        if point.is_trivial():
            raise ValueError("sample hits the trivial character")
        dim = h1_at_point(proj, point, backend=backend)
        records.append(MembershipRecord(params=tuple(params), point=point, h1=dim))
        ok = ok and dim >= 1
    return MembershipReport(family=family.name, records=tuple(records), supported=ok)
