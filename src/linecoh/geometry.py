"""Exact rational geometry of affine and projective line arrangements.

Every line a*x + b*y + c = 0 and projective point is stored in one form,
``canonical_triple``, taken once per row as it enters an ``Arrangement``
or ``ProjArrangement``; it keeps every open half-plane and sign vector.
Chambers are read off the arrangement's edges: each line is cut at its
crossings, ordered by integer keys, and the two sides of every edge are
chambers; the end edges decide boundedness and give the opposite pairing
of band ends.  Intersection points, affine ones included, are canonical
cross products whose incidence comes from the pairs of lines that cross
there, sorted on integer keys scaled by an lcm.  A generic flag is an
affine change of coordinates on the integer rows: its shear height is the
least point height, found by integer cross-multiplication, and the
flagged chambers are the arrangement's chambers transported along it,
not a second enumeration.  The lines separating two chambers are the set
bits of the XOR of their sign bitmasks (``separating_ids``).  Charts move
any member to infinity by an integer adjugate.  ``Fraction`` holds only
the coefficient tokens that are not integers, the flag's axis height and
intercepts, and ``monic`` (the printed ``lines (n):`` coefficients and
the band offsets); an integer token parses to an ``int``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, islice
from math import gcd, lcm
from operator import itemgetter, mul

MAX_LINES = 16


class ArrangementError(ValueError):
    """Malformed or unsupported arrangement input."""


class ArrangementTooLargeError(ArrangementError):
    """More lines than MAX_LINES.  The chambers take quadratic time in the
    lines, but the chamber complex and the torus scans built on them grow
    far faster, so the bound stays."""


class FlagError(ArrangementError):
    """No valid generic flag; requires at least one intersection point."""


def _fraction(token):
    """A coefficient token as an ``int`` ("-3"), a ``Fraction`` of two ints
    ("-3/4") or, for any other form ("0.75", "3e-2"), ``Fraction(token)``.
    A decimal exponent above the interpreter's integer string digit limit
    is refused before anything is computed, as a literal with more digits
    is: "1e999999999" would otherwise ask for a 415 MB numerator.

    >>> _fraction("-3"), _fraction("6/4"), _fraction("2e-1")
    (-3, Fraction(3, 2), Fraction(1, 5))
    """
    num, slash, den = token.partition("/")
    try:
        if (num[1:] if num[:1] in "+-" else num).isdecimal():
            if not slash:
                return int(num)
            if den.isdecimal():
                return Fraction(int(num), int(den))
        elif not slash and _exponent_too_large(token):
            raise ValueError("exponent above the integer digit limit")
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ArrangementError(f"malformed rational {token!r}") from exc


def _exponent_too_large(token):
    """Whether the decimal exponent of ``token`` exceeds
    ``sys.get_int_max_str_digits()`` in magnitude (no limit when that is 0
    or, before Python 3.11, absent)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    _, e, exp = token.lower().rpartition("e")
    digits = exp.lstrip("+-").replace("_", "")
    return bool(limit and e and digits.isdecimal() and int(digits) > limit)


def canonical_triple(a, b, c):
    """The primitive integer multiple of the rational (int or Fraction)
    triple (a, b, c) whose first nonzero entry is positive: the triple over
    that entry times a positive integer, equal for proportional triples.

    >>> canonical_triple(Fraction(1, 2), Fraction(-1, 3), 1)
    (3, -2, 6)
    """
    m = lcm(a.denominator, b.denominator, c.denominator)
    return _primitive(
        a.numerator * (m // a.denominator),
        b.numerator * (m // b.denominator),
        c.numerator * (m // c.denominator),
    )


def _primitive(a, b, c):
    """The integer triple (a, b, c) over its gcd, signed so that its first
    nonzero entry is positive: ``canonical_triple`` of integers."""
    g = gcd(a, b, c)
    if not g:
        raise ArrangementError("all-zero coefficient triple")
    if (a or b or c) < 0:
        g = -g
    return (a // g, b // g, c // g)


def monic(row):
    """The coefficients of the line ``row`` = (a, b, c), (a, b) != (0, 0),
    over the first nonzero one, as Fractions: the direction and offset that
    reports print and bands are ordered by."""
    a, b, c = row
    lead = a or b
    return (Fraction(a, lead), Fraction(b, lead), Fraction(c, lead))


@dataclass(eq=False)
class Chamber:
    """Open region cut out by the arrangement, encoded by its sign vector.

    signs[k] is +1 or -1: the sign of line k's equation on the region.
    ``opposite`` points to the antipodal unbounded chamber (None when
    bounded).
    """

    signs: tuple
    bounded: bool
    opposite: "Chamber | None" = field(default=None, repr=False)
    index: int = -1

    def sign_string(self):
        return "".join("+" if s > 0 else "-" for s in self.signs)


@dataclass(frozen=True)
class IntersectionPoint:
    """Intersection point with its full incidence set: ``coords`` is the
    ``canonical_triple`` (x, y, z) of the point (x/z, y/z), z = 0 at
    infinity."""

    coords: tuple
    incident: frozenset

    @property
    def multiplicity(self):
        return len(self.incident)

    @property
    def is_multiple(self):
        return len(self.incident) >= 3


def _compute_chambers(lines):
    """The chambers of the integer rows ``lines``, sorted by sign vector,
    from the edges.

    On line k = (a, b, c), moving along the direction d = (-b, a) changes
    line j's equation at the rate D = a*b_j - b*a_j; where D != 0, j crosses
    k at the parameter t = <d, crossing> = (c*(a*a_j + b*b_j) -
    c_j*(a**2 + b**2)) / D, with sign -sign(D) before and sign(D) after,
    while a parallel line keeps one sign along k.  The crossings, sorted by
    t scaled to integers by the lcm of the D's (lines through one point
    share t), cut k into edges; the chambers on the two sides of an edge
    have the edge's signs with sign[k] = +1 or -1, and every chamber has an
    edge on its boundary.  A chamber is unbounded exactly when it has an
    unbounded edge, the first or last one on its line.  The opposite of an
    unbounded chamber is the one with the negated sign vector, if that is
    an unbounded chamber; otherwise its recession cone is one ray, parallel
    to its unbounded edges, and the opposite keeps the signs of the lines
    parallel to that ray and flips the rest (the band's other end).
    """
    n = len(lines)
    if n > MAX_LINES:
        raise ArrangementTooLargeError(f"{n} lines exceeds the bound {MAX_LINES}")
    end_line = {}  # sign vector -> a line holding one of its unbounded edges
    inner = set()  # sign vectors seen beside a bounded edge
    for k, (a, b, c) in enumerate(lines):
        signs, crossing = [], []
        for j, (aj, bj, cj) in enumerate(lines):
            d = a * bj - b * aj
            if d:
                signs.append(1 if d < 0 else -1)
                crossing.append((c * (a * aj + b * bj) - cj * (a * a + b * b), d, j))
            elif j == k:
                signs.append(0)
            else:  # parallel: line j at a point of line k
                v = (a * cj - aj * c) * a if a else (b * cj - bj * c) * b
                signs.append(1 if v > 0 else -1)
        scale = lcm(*(d for _, d, _ in crossing))
        through = {}
        for t, d, j in crossing:
            through.setdefault(t * (scale // d), []).append(j)
        last = len(through)
        for e, t in enumerate(sorted(through) + [None]):
            for s in (1, -1):
                signs[k] = s
                key = tuple(signs)
                if e == 0 or e == last:
                    end_line[key] = k
                else:
                    inner.add(key)
            if t is not None:
                for j in through[t]:
                    signs[j] = -signs[j]
    chambers = [
        Chamber(signs=key, bounded=key not in end_line, index=idx)
        for idx, key in enumerate(sorted(inner.union(end_line)))
    ]
    by_signs = {ch.signs: ch for ch in chambers}
    for ch in chambers:
        if ch.bounded:
            continue
        opp = by_signs.get(tuple(-s for s in ch.signs))
        if opp is None or opp.bounded:
            a, b, _ = lines[end_line[ch.signs]]
            target = tuple(
                s if a * bj == b * aj else -s
                for s, (aj, bj, _) in zip(ch.signs, lines)
            )
            opp = by_signs.get(target)
            if opp is None or opp.bounded:
                raise ArrangementError("opposite chamber pairing failed")
        ch.opposite = opp
    return chambers


# the set bits of a byte, low to high, and of the byte above it
_BYTE_BITS = tuple(tuple(k for k in range(8) if b >> k & 1) for b in range(256))
_HIGH_BYTE_BITS = tuple(tuple(k + 8 for k in bits) for bits in _BYTE_BITS)


def separating_ids(chambers, ids):
    """The function (i, j) -> sorted ids of the lines separating chambers
    ``chambers[i]`` and ``chambers[j]``, where ``ids[k]`` is the id of the
    line of sign k: ``range(n)`` for an arrangement, ``order`` for a flag.

    Each chamber's sign vector s is read once as a bitmask over line ids,
    bit ``id`` set where the sign is +1: sum(s_k * 2**ids[k]) is that mask
    twice, less the mask of all lines.  Two chambers are separated exactly
    by the lines where their signs differ, the set bits of the XOR of
    their masks, read off a table per byte in increasing id order (ids are
    below MAX_LINES = 16, so two bytes hold them).
    """
    bits = [1 << i for i in ids]
    full = sum(bits)
    masks = [(sum(map(mul, bits, ch.signs)) + full) >> 1 for ch in chambers]

    def ids(i, j):
        m = masks[i] ^ masks[j]
        return _BYTE_BITS[m & 255] + _HIGH_BYTE_BITS[m >> 8]

    return ids


def _crossings(rows):
    """Distinct crossing points of the pairwise distinct integer line
    triples ``rows``, as (point, incidence) pairs; incidence holds
    positions in ``rows``.

    Each cross product (x, y, z) is normalised by ``canonical_triple``
    (z != 0 for an affine point, z = 0 for the crossing at infinity of
    parallel affine lines), so equal points give equal keys.  Two distinct
    lines meet in exactly one projective point, so the lines through a
    point are those of the pairs whose cross product it is.
    """
    through = {}
    for (i, (a1, b1, c1)), (j, (a2, b2, c2)) in combinations(enumerate(rows), 2):
        key = _primitive(b1 * c2 - c1 * b2, c1 * a2 - a1 * c2, a1 * b2 - b1 * a2)
        on = through.get(key)
        if on is None:
            through[key] = {i, j}
        else:
            on.add(i)
            on.add(j)
    return [(p, frozenset(on)) for p, on in through.items()]


def _sorted_scaled(items):
    """(den, point, incidence) triples sorted by point / den, on the integer
    keys point * (L / den) with L > 0 the lcm of the dens: each key is L
    times the rational point, so the order is exact whatever the signs of
    the dens."""
    scale = lcm(*(den for den, _, _ in items))

    def key(item):
        m = scale // item[0]
        return tuple(v * m for v in item[1])

    return sorted(items, key=key)


def _affine_intersections(lines):
    """Affine intersection points of an arrangement's lines with their
    incidence sets (positions, which are the line ids), sorted by (x/z,
    y/z): the integer crossings (x, y, z) with z != 0, sorted on integer
    keys."""
    pts = _sorted_scaled([(p[2], p, on) for p, on in _crossings(lines) if p[2]])
    return tuple(IntersectionPoint(p, on) for _, p, on in pts)


class Arrangement:
    """A finite list of distinct affine lines a*x + b*y + c = 0, (a, b) !=
    (0, 0), as ``canonical_triple`` rows; a line's id is its position."""

    def __init__(self, coefficients):
        rows = {}  # canonical row -> its first position
        for i, (a, b, c) in enumerate(coefficients):
            if a == 0 and b == 0:
                raise ArrangementError(f"degenerate line 0*x + 0*y + {c} = 0")
            t = canonical_triple(a, b, c)
            if rows.setdefault(t, i) != i:
                raise ArrangementError(f"duplicate line (rows {rows[t]} and {i})")
        if not rows:
            raise ArrangementError("empty arrangement")
        self.lines = tuple(rows)
        self._chambers = None
        self._points = None
        self._flags = {}
        self._bands = None  # resband.bands: one Band per band, built on first use

    @property
    def n(self):
        return len(self.lines)

    def __repr__(self):
        return f"Arrangement({self.n} lines)"

    def chambers(self):
        if self._chambers is None:
            self._chambers = tuple(_compute_chambers(self.lines))
        return self._chambers

    def intersection_points(self):
        if self._points is None:
            self._points = _affine_intersections(self.lines)
        return self._points

    def point_index_sum(self):
        """Sum of (multiplicity - 1) over all affine intersection points."""
        return sum(p.multiplicity - 1 for p in self.intersection_points())

    def flagged(self, variant=0):
        if variant not in self._flags:
            self._flags[variant] = choose_flag(self, variant)
        return self._flags[variant]


# ---------------------------------------------------------------------------
# generic flag


class FlaggedArrangement:
    """An arrangement in flag coordinates.

    Lines are renumbered so their positive x-axis intercepts increase, each
    equation is an integer row normalized to be negative at the origin, and
    every intersection point lies strictly above the x-axis: flagged line
    ``pos`` is original line ``order[pos]``.  ``u_index[p]`` is the chamber
    index of the p-th chamber met along the axis (U_0 at the origin, then
    U_1, ..., U_{n-1}, and finally the chamber opposite U_0): U_0 has flag
    degree 0, the others degree 1, and the chambers ``ch2`` degree 2.
    """

    def __init__(self, order, lines, chambers, u_index, ch2):
        self.order = order
        self.lines = lines
        self.chambers = chambers
        self.u_index = u_index
        self.ch2 = ch2
        self._structure = None

    @property
    def n(self):
        return len(self.order)

    def __repr__(self):
        return f"FlaggedArrangement({self.n} lines, {len(self.chambers)} chambers)"

    @property
    def ch1(self):
        return tuple(self.u_index[1:])


def _mu_candidates(limit):
    """Shear slopes mu = p/q as pairs (p, q), q > 0."""
    yield (0, 1)
    for k in range(1, limit + 1):
        yield from ((k, 1), (-k, 1), (1, k + 1), (-1, k + 1))


def _flag_axis(arrangement, variant):
    """(p, q, ty, heights) of the flag ``variant``: the shear slope mu = p/q,
    the axis height ty, a Fraction one below the least sheared point
    height, and those heights as integer pairs (num, den), den > 0.

    The point (x/z, y/z) of an integer crossing (x, y, z) has the sheared
    height y/z - mu*x/z = (q*y - p*x) / (q*z), compared with the others by
    integer cross-multiplication once its denominator is made positive.
    """
    lines = arrangement.lines
    pts = arrangement.intersection_points()
    if not pts:
        raise FlagError("arrangement has no intersection point")
    # shear (x, y) -> (x, y - mu*x), mu = p/q: afterwards no line may be
    # parallel to the x-axis, i.e. q*a + p*b != 0 for every line.
    shears = (
        (p, q)
        for p, q in _mu_candidates(2 * (len(lines) + variant + 2))
        if all(q * a + p * b for a, b, _ in lines)
    )
    p, q = next(islice(shears, variant, None), (None, None))
    if q is None:
        raise FlagError("shear search exhausted")
    heights = []
    for pt in pts:
        x, y, z = pt.coords
        if z < 0:
            x, y, z = -x, -y, -z
        heights.append((q * y - p * x, q * z))
    low, den = heights[0]
    for hn, hd in heights:
        if hn * den < low * hd:
            low, den = hn, hd
    # the axis y' = 0 lies one below the lowest sheared point
    return p, q, Fraction(low - den, den), heights


def choose_flag(arrangement, variant=0):
    """Realize a generic flag and classify the chambers by flag degree.

    The flag is the change of coordinates x' = x - tx, y' = y - mu*x - ty
    (a shear, then a shift), with mu = p/q from a fixed candidate list and
    tx, ty one below the least axis intercept and the least sheared point
    height.  Flagged line ``pos`` is the integer row of the original line
    ``k = order[pos]`` rewritten in the new coordinates, scaled by a
    positive integer and multiplied by -1 where that makes it negative at
    the origin: its equation takes, at the image of a point, a positive
    multiple of the value of line k's equation at the point, up to that
    sign.  So the map sends the chamber with sign vector s onto the chamber
    with sign vector (+-s[order[pos]])_pos, one to one.  An affine
    bijection keeps recession cones up to a linear isomorphism (bounded
    chambers stay bounded), parallelism and antipodes, and the opposite
    pairing is defined by those alone, so the transported chambers,
    re-sorted by their new sign vectors, carry exactly the ``bounded``
    fields, indices and opposite links that a fresh enumeration of the
    flagged lines would give.  The chambers of ``arrangement`` are
    enumerated once and reused; the transported ones are new objects, as
    their indices and signs depend on the variant.
    """
    lines = arrangement.lines
    n = len(lines)
    p, q, ty, heights = _flag_axis(arrangement, variant)
    # each row times q * ty.denominator > 0: (a + mu*b, b, c + b*ty)
    dy, ny = ty.denominator, ty.numerator
    shifted = [
        (dy * (q * a + p * b), dy * q * b, q * (dy * c + ny * b)) for a, b, c in lines
    ]
    intercepts = [Fraction(-c, a) for a, _, c in shifted]
    tx = min(intercepts) - 1
    dx, nx = tx.denominator, tx.numerator
    order = tuple(sorted(range(n), key=intercepts.__getitem__))
    flip_signs = []
    flagged_lines = []
    for k in order:
        # times tx.denominator > 0: (a, b, c + a*tx)
        a, b, c = shifted[k]
        a, b, c = dx * a, dx * b, dx * c + nx * a
        sign = -1 if c > 0 else 1
        flip_signs.append(sign)
        flagged_lines.append((sign * a, sign * b, sign * c))
    sorted_intercepts = [intercepts[k] - tx for k in order]
    # verify the flag conditions outright
    if any(a == 0 for a, _, _ in flagged_lines):
        raise FlagError("a line is parallel to the flag axis")
    if any(hn * dy <= ny * hd for hn, hd in heights):
        raise FlagError("an intersection point is not above the flag axis")
    if any(
        x2 <= x1 for x1, x2 in zip(sorted_intercepts, sorted_intercepts[1:])
    ) or sorted_intercepts[0] <= 0:
        raise FlagError("axis intercepts are not strictly increasing and positive")
    if any(c >= 0 for _, _, c in flagged_lines):
        raise FlagError("origin is not in every negative half-plane")

    # transport the chambers along the flag map (proof in the docstring)
    reorder = itemgetter(*order)  # n >= 2 lines: a tuple
    moved = {
        ch: Chamber(
            signs=tuple(map(mul, reorder(ch.signs), flip_signs)),
            bounded=ch.bounded,
        )
        for ch in arrangement.chambers()
    }
    for ch, image in moved.items():
        if ch.opposite is not None:
            image.opposite = moved[ch.opposite]
    chs = sorted(moved.values(), key=lambda ch: ch.signs)
    for idx, ch in enumerate(chs):
        ch.index = idx
    by_signs = {ch.signs: ch for ch in chs}
    u_index = []
    for p in range(n + 1):
        target = tuple(1 if k < p else -1 for k in range(n))
        ch = by_signs.get(target)
        if ch is None:
            raise FlagError("expected axis chamber is infeasible")
        u_index.append(ch.index)
    u_set = set(u_index)
    ch2 = tuple(ch.index for ch in chs if ch.index not in u_set)
    fa = FlaggedArrangement(
        order=order,
        lines=tuple(flagged_lines),
        chambers=tuple(chs),
        u_index=tuple(u_index),
        ch2=ch2,
    )
    # chamber count bookkeeping: |ch^2| must equal sum over points of (mult-1)
    expected = arrangement.point_index_sum()
    if len(ch2) != expected:
        raise FlagError(
            f"flag classification mismatch: |ch2| = {len(ch2)}, expected {expected}"
        )
    return fa


# ---------------------------------------------------------------------------
# projective arrangements


class ProjArrangement:
    """Projective line arrangement: ``canonical_triple`` rows plus a
    designated line at infinity (always one of the members)."""

    def __init__(self, triples, infinity_index):
        rows = {}  # canonical row -> its first position
        for i, (a, b, c) in enumerate(triples):
            t = canonical_triple(a, b, c)
            if rows.setdefault(t, i) != i:
                raise ArrangementError(
                    f"projectively equal lines (rows {rows[t]} and {i})"
                )
        if not 0 <= infinity_index < len(rows):
            raise ArrangementError("infinity index out of range")
        self.lines = tuple(rows)
        self.infinity_index = infinity_index
        self._points = None
        self._charts = {}
        self._incidence = None  # resband.IncidenceTable, built on first use
        self._scan_nodes = {}  # charvar's scan walk nodes, kept as scans meet them

    @property
    def n(self):
        return len(self.lines)

    def __repr__(self):
        return f"ProjArrangement({self.n} lines, infinity={self.infinity_index})"

    def affine_position(self, j):
        """Position of projective line j in the affine (non-infinity) list."""
        if j == self.infinity_index:
            raise ValueError("the infinity line has no affine position")
        return j if j < self.infinity_index else j - 1

    def affine_ids(self):
        return tuple(j for j in range(self.n) if j != self.infinity_index)

    def intersections(self):
        if self._points is None:
            self._points = _proj_intersections(self.lines)
        return self._points

    def multiple_points(self):
        return tuple(p for p in self.intersections() if p.is_multiple)

    def chart(self, h):
        """Cached affine chart with line h at infinity."""
        if h not in self._charts:
            self._charts[h] = move_to_infinity(self, h)
        return self._charts[h]


def _proj_intersections(triples):
    """Intersection points of the ``canonical_triple`` rows ``triples``
    with their incidence sets, in the same form (``_crossings``), sorted
    by the point over its first nonzero entry, on integer keys scaled by
    the lcm of those entries."""
    pts = _sorted_scaled(
        [(p[0] or p[1] or p[2], p, inc) for p, inc in _crossings(triples)]
    )
    return tuple(IntersectionPoint(p, inc) for _, p, inc in pts)


def cone(arrangement):
    """Projective closure: the affine lines plus the line at infinity z = 0.

    The cone puts z = 0 at infinity, so its infinity chart is
    ``arrangement`` itself, the identity change of coordinates; handing it
    over keeps the arrangement's cached chambers and flags.
    """
    n = arrangement.n
    proj = ProjArrangement([*arrangement.lines, (0, 0, 1)], infinity_index=n)
    proj._charts[n] = Chart(arrangement, tuple(range(n)), n)
    return proj


@dataclass(frozen=True)
class Chart:
    """Affine picture of a projective arrangement after a coordinate change
    sending one member to infinity."""

    arrangement: Arrangement
    to_old: tuple  # affine position -> line index in the source
    moved: int


def _adjugate(rows):
    """The adjugate det(T) * T^-1 of an invertible integer 3x3 matrix."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    if a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) == 0:
        raise ArrangementError("singular projective change of coordinates")
    return (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )


def move_to_infinity(proj, h):
    """Integer projective change putting line h at infinity.

    Line h's row, completed by two unit rows, is an invertible T; in the
    coordinates T . (x, y, z) line h is z = 0 and a row l becomes l T^-1,
    a nonzero multiple of the integer row l adj(T), which has the same
    ``canonical_triple``.  Every line, the infinity line included, takes
    this path; only the row 0 0 1 gives T = I.

    Returns the affine forms of the remaining lines (in their original
    relative order) together with the position -> old-index correspondence.
    """
    if not 0 <= h < proj.n:
        raise ArrangementError("line index out of range")
    keep = [k for k in range(proj.n) if k != h]
    hrow = proj.lines[h]
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for (i, j), piv in (((0, 1), hrow[2]), ((0, 2), -hrow[1]), ((1, 2), hrow[0])):
        if piv != 0:
            t = (units[i], units[j], hrow)
            break
    adj = _adjugate(t)
    coeffs = [
        tuple(sum(row[r] * adj[r][c] for r in range(3)) for c in range(3))
        for row in (proj.lines[k] for k in keep)
    ]
    return Chart(Arrangement(coeffs), tuple(keep), moved=h)


# ---------------------------------------------------------------------------
# parsing


def parse_arrangement(text):
    """Parse the plain text arrangement format.

    Affine: one line per row, three rationals "a b c" for a*x + b*y + c = 0.
    Projective: rows "P a b c" for a*x + b*y + c*z = 0 plus a header
    "infinity: k" (1-based row number of the line at infinity, any row).
    "#" starts a comment.
    """
    rows = []
    projective = False
    infinity = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        src = raw.split("#", 1)[0].strip()
        if not src:
            continue
        if src.lower().startswith("infinity:"):
            try:
                infinity = int(src.split(":", 1)[1])
            except ValueError as exc:
                raise ArrangementError(f"bad infinity header on line {lineno}") from exc
            projective = True
            continue
        tokens = src.split()
        if tokens and tokens[0].upper() == "P":
            projective = True
            tokens = tokens[1:]
        if len(tokens) != 3:
            raise ArrangementError(f"expected three coefficients on line {lineno}")
        rows.append(tuple(_fraction(t) for t in tokens))
    if not rows:
        raise ArrangementError("no lines in input")
    if projective:
        if infinity is None:
            raise ArrangementError('projective input needs an "infinity: k" header')
        if not 1 <= infinity <= len(rows):
            raise ArrangementError("infinity header out of range")
        return ProjArrangement(rows, infinity - 1)
    return Arrangement(rows)
