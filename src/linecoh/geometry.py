"""Exact rational geometry of affine and projective line arrangements.

Lines carry Fraction coefficients of a*x + b*y + c = 0.  The exact kernels
run on integers: each line is scaled once by a positive rational to a
coprime integer triple (``_int_triple``), which keeps every open half-plane
and so every sign vector.  Chambers are read off the arrangement's edges:
each line is cut at its crossings, ordered by integer keys, and the two
sides of every edge are chambers; the end edges decide boundedness and
give the opposite pairing of band ends.  Affine and projective
intersection points are integer cross products keyed by their primitive
multiple, with integer incidence tests, sorted on integer keys scaled by
an lcm.  A generic flag is realized by an explicit rational change of
coordinates; it is affine, so the flagged chambers are the arrangement's
chambers transported along it, not a second enumeration.  Projective
arrangements support coning and moving any member to infinity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

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
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ArrangementError(f"malformed rational {token!r}") from exc


def canonical_triple(a, b, c):
    """Scale (a, b, c) so its first nonzero entry equals 1."""
    for lead in (a, b, c):
        if lead:
            return (a / lead, b / lead, c / lead)
    raise ArrangementError("all-zero coefficient triple")


@dataclass(frozen=True)
class Line:
    """The line a*x + b*y + c = 0 with (a, b) != (0, 0)."""

    a: Fraction
    b: Fraction
    c: Fraction
    id: int

    @classmethod
    def canonical(cls, a, b, c, id):
        a, b, c = Fraction(a), Fraction(b), Fraction(c)
        if a == 0 and b == 0:
            raise ArrangementError(f"degenerate line 0*x + 0*y + {c} = 0")
        return cls(*canonical_triple(a, b, c), id)

    def triple(self):
        return (self.a, self.b, self.c)


@dataclass(eq=False)
class Chamber:
    """Open region cut out by the arrangement, encoded by its sign vector.

    signs[k] is +1 or -1: the sign of line k's equation on the region.
    ``opposite`` points to the antipodal unbounded chamber (None when
    bounded); ``flag_degree`` is filled in by the flag classification.
    """

    signs: tuple
    bounded: bool
    opposite: "Chamber | None" = field(default=None, repr=False)
    flag_degree: int | None = None
    index: int = -1

    def sign_string(self):
        return "".join("+" if s > 0 else "-" for s in self.signs)


@dataclass(frozen=True)
class AffinePoint:
    x: Fraction
    y: Fraction
    incident: frozenset

    @property
    def multiplicity(self):
        return len(self.incident)


@dataclass(frozen=True)
class IntersectionPoint:
    """Projective intersection point with its full incidence set."""

    coords: tuple
    incident: frozenset

    @property
    def multiplicity(self):
        return len(self.incident)

    @property
    def is_multiple(self):
        return len(self.incident) >= 3


def _int_triple(a, b, c):
    """Scale a rational triple by a positive rational to coprime integers.

    Multiplies by the lcm of the denominators, then divides by the gcd of
    the numerators.  The scale is positive, so every open half-plane
    a*x + b*y + c > 0, and hence every sign vector, is unchanged.

    >>> _int_triple(Fraction(1, 2), Fraction(-1, 3), 1)
    (3, -2, 6)
    """
    m = lcm(a.denominator, b.denominator, c.denominator)
    t = tuple(v.numerator * (m // v.denominator) for v in (a, b, c))
    g = gcd(*t)
    if g > 1:
        t = tuple(v // g for v in t)
    return t


def _compute_chambers(lines):
    """The chambers of ``lines``, sorted by sign vector, from the edges.

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
    rows = [_int_triple(ln.a, ln.b, ln.c) for ln in lines]
    end_line = {}  # sign vector -> a line holding one of its unbounded edges
    inner = set()  # sign vectors seen beside a bounded edge
    for k, (a, b, c) in enumerate(rows):
        signs, crossing = [], []
        for j, (aj, bj, cj) in enumerate(rows):
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
            a, b, _ = rows[end_line[ch.signs]]
            target = tuple(
                s if a * bj == b * aj else -s
                for s, (aj, bj, _) in zip(ch.signs, rows)
            )
            opp = by_signs.get(target)
            if opp is None or opp.bounded:
                raise ArrangementError("opposite chamber pairing failed")
        ch.opposite = opp
    return chambers


def sep(c1, c2, lines):
    """Ids of the lines separating two chambers of the same arrangement."""
    return frozenset(
        lines[k].id for k in range(len(lines)) if c1.signs[k] != c2.signs[k]
    )


def _crossings(rows):
    """Distinct crossing points of the integer line triples ``rows``, as
    (point, incidence) pairs; incidence holds positions in ``rows``.

    Each cross product (x, y, z) is keyed by its primitive multiple whose
    last nonzero entry is positive (z > 0 for an affine point, z = 0 for
    the crossing at infinity of parallel affine lines), so equal points
    give equal keys, and incidence is an integer dot product.
    """
    keys = set()
    for (a1, b1, c1), (a2, b2, c2) in combinations(rows, 2):
        p = (b1 * c2 - c1 * b2, c1 * a2 - a1 * c2, a1 * b2 - b1 * a2)
        g = gcd(*p)
        if next(v for v in reversed(p) if v) < 0:
            g = -g
        keys.add(tuple(v // g for v in p))
    return [
        (
            (x, y, z),
            frozenset(
                k for k, (a, b, c) in enumerate(rows) if a * x + b * y + c * z == 0
            ),
        )
        for x, y, z in keys
    ]


def _sorted_scaled(items):
    """(den, point, incidence) triples sorted by point / den, on the integer
    keys point * (L / den) with L the lcm of the dens: a positive common
    scale, so the order is exact."""
    scale = lcm(*(den for den, _, _ in items))

    def key(item):
        m = scale // item[0]
        return tuple(v * m for v in item[1])

    return sorted(items, key=key)


def _affine_intersections(lines):
    """Affine intersection points with their incidence sets (line ids),
    sorted by (x, y); integer crossings (x, y, z) with z > 0, sorted on
    integer keys, then one Fraction pair per point."""
    rows = [_int_triple(ln.a, ln.b, ln.c) for ln in lines]
    pts = _sorted_scaled([(p[2], p, on) for p, on in _crossings(rows) if p[2]])
    return tuple(
        AffinePoint(Fraction(x, z), Fraction(y, z), frozenset(lines[k].id for k in on))
        for z, (x, y, _), on in pts
    )


class Arrangement:
    """A finite list of distinct affine lines; ids equal list positions."""

    def __init__(self, coefficients):
        lines = []
        seen = {}
        for i, (a, b, c) in enumerate(coefficients):
            ln = Line.canonical(a, b, c, id=i)
            key = ln.triple()
            if key in seen:
                raise ArrangementError(f"duplicate line (rows {seen[key]} and {i})")
            seen[key] = i
            lines.append(ln)
        if not lines:
            raise ArrangementError("empty arrangement")
        self.lines = tuple(lines)
        self._chambers = None
        self._points = None
        self._flags = {}
        self._bands = None  # resband.BandStructure, built on first use

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


@dataclass(frozen=True)
class FlagFrame:
    """The renumbering and sign normalization of the lines induced by the
    flag's coordinate change (see ``choose_flag``)."""

    order: tuple  # flag position -> original line id
    sign_flips: tuple  # per flag position


class FlaggedArrangement:
    """An arrangement in flag coordinates.

    Lines are renumbered so their positive x-axis intercepts increase, each
    equation is normalized to be negative at the origin, and every
    intersection point lies strictly above the x-axis.  Chambers carry flag
    degrees; ``u_index[p]`` is the chamber index of the p-th chamber met
    along the axis (U_0 at the origin, then U_1, ..., U_{n-1}, and finally
    the chamber opposite U_0).
    """

    def __init__(self, frame, lines, chambers, u_index, ch2, intercepts):
        self.frame = frame
        self.lines = lines
        self.chambers = chambers
        self.u_index = u_index
        self.ch2 = ch2
        self.intercepts = intercepts
        self._structure = None

    @property
    def n(self):
        return len(self.lines)

    def __repr__(self):
        return f"FlaggedArrangement({self.n} lines, {len(self.chambers)} chambers)"

    @property
    def ch0(self):
        return (self.u_index[0],)

    @property
    def ch1(self):
        return tuple(self.u_index[1:])


def _mu_candidates(limit):
    yield Fraction(0)
    k = 1
    while k <= limit:
        yield Fraction(k)
        yield Fraction(-k)
        yield Fraction(1, k + 1)
        yield Fraction(-1, k + 1)
        k += 1


def choose_flag(arrangement, variant=0):
    """Realize a generic flag and classify the chambers by flag degree.

    The flag is the change of coordinates x' = x - tx, y' = y - mu*x - ty
    (a shear, then a shift).  Flagged line ``pos`` is the original line
    ``k = order[pos]`` rewritten in the new coordinates, multiplied by -1
    when ``sign_flips[pos]``: its equation takes, at the image of a point,
    the value of line k's equation at the point, up to that sign.  So the
    map sends the chamber with sign vector s onto the chamber with sign
    vector (+-s[order[pos]])_pos, one to one.  An affine bijection keeps
    recession cones up to a linear isomorphism (bounded chambers stay
    bounded), parallelism and antipodes, and the opposite pairing is
    defined by those alone, so the transported chambers, re-sorted by
    their new sign vectors, carry exactly the ``bounded`` fields, indices and
    opposite links that a fresh enumeration of the flagged lines would
    give.  The chambers of ``arrangement`` are enumerated once and reused;
    the transported ones are new objects, as ``flag_degree`` depends on
    the variant.
    """
    lines = arrangement.lines
    pts = arrangement.intersection_points()
    if not pts:
        raise FlagError("arrangement has no intersection point")
    n = len(lines)
    # shear (x, y) -> (x, y - mu*x): afterwards no line may be parallel to
    # the x-axis, i.e. a + mu*b != 0 for every line.
    mu = None
    skip = variant
    for cand in _mu_candidates(2 * (n + variant + 2)):
        if all(ln.a + cand * ln.b != 0 for ln in lines):
            if skip == 0:
                mu = cand
                break
            skip -= 1
    if mu is None:
        raise FlagError("shear search exhausted")
    sheared = [(ln.a + mu * ln.b, ln.b, ln.c) for ln in lines]
    spts = [(p.x, p.y - mu * p.x) for p in pts]
    ty = min(v for _, v in spts) - 1
    shifted = [(a, b, c + b * ty) for a, b, c in sheared]
    intercepts = [-c / a for a, b, c in shifted]
    tx = min(intercepts) - 1
    placed = [(a, b, c + a * tx) for a, b, c in shifted]
    intercepts = [x - tx for x in intercepts]
    order = sorted(range(n), key=lambda k: intercepts[k])
    flags = []
    flagged_lines = []
    for pos, k in enumerate(order):
        a, b, c = placed[k]
        flip = c > 0
        if flip:
            a, b, c = -a, -b, -c
        flags.append(flip)
        flagged_lines.append(Line(a, b, c, id=lines[k].id))
    sorted_intercepts = [intercepts[k] for k in order]
    # verify the flag conditions outright
    if any(ln.a == 0 for ln in flagged_lines):
        raise FlagError("a line is parallel to the flag axis")
    if any(v - ty <= 0 for _, v in spts):
        raise FlagError("an intersection point is not above the flag axis")
    if any(
        x2 <= x1 for x1, x2 in zip(sorted_intercepts, sorted_intercepts[1:])
    ) or sorted_intercepts[0] <= 0:
        raise FlagError("axis intercepts are not strictly increasing and positive")
    if any(ln.c >= 0 for ln in flagged_lines):
        raise FlagError("origin is not in every negative half-plane")

    frame = FlagFrame(
        order=tuple(lines[k].id for k in order),
        sign_flips=tuple(flags),
    )
    # transport the chambers along the flag map (proof in the docstring)
    moved = {
        ch: Chamber(
            signs=tuple(
                -ch.signs[k] if flip else ch.signs[k] for k, flip in zip(order, flags)
            ),
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
    for ch in chs:
        if ch.index == u_index[0]:
            ch.flag_degree = 0
        elif ch.index in u_set:
            ch.flag_degree = 1
        else:
            ch.flag_degree = 2
    fa = FlaggedArrangement(
        frame=frame,
        lines=tuple(flagged_lines),
        chambers=tuple(chs),
        u_index=tuple(u_index),
        ch2=ch2,
        intercepts=tuple(sorted_intercepts),
    )
    # chamber count bookkeeping: |ch^2| must equal sum over points of (mult-1)
    expected = sum(p.multiplicity - 1 for p in pts)
    if len(ch2) != expected:
        raise FlagError(
            f"flag classification mismatch: |ch2| = {len(ch2)}, expected {expected}"
        )
    return fa


# ---------------------------------------------------------------------------
# projective arrangements


class ProjArrangement:
    """Projective line arrangement: canonical triples plus a designated line
    at infinity (always one of the members)."""

    def __init__(self, triples, infinity_index):
        canon = []
        seen = {}
        for i, (a, b, c) in enumerate(triples):
            t = canonical_triple(Fraction(a), Fraction(b), Fraction(c))
            if t in seen:
                raise ArrangementError(
                    f"projectively equal lines (rows {seen[t]} and {i})"
                )
            seen[t] = i
            canon.append(t)
        if not 0 <= infinity_index < len(canon):
            raise ArrangementError("infinity index out of range")
        self.lines = tuple(canon)
        self.infinity_index = infinity_index
        self._points = None
        self._charts = {}
        self._incidence = None  # resband.IncidenceTable, built on first use

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
    """Intersection points of projective lines with their incidence sets,
    sorted by canonical coordinates (first nonzero entry 1).

    Works on primitive integer triples (``_crossings``), sorted on integer
    keys scaled by the lcm of their first nonzero entries, and builds the
    canonical Fraction coordinates once per distinct point, after sorting.
    """
    rows = [_int_triple(*t) for t in triples]
    pts = _sorted_scaled(
        [(next(v for v in p if v), p, inc) for p, inc in _crossings(rows)]
    )
    return tuple(
        IntersectionPoint(tuple(Fraction(v, lead) for v in p), inc)
        for lead, p, inc in pts
    )


def cone(arrangement):
    """Projective closure: the affine lines plus the line at infinity z = 0.

    The cone puts z = 0 at infinity, so its infinity chart is
    ``arrangement`` itself, the identity change of coordinates; handing it
    over keeps the arrangement's cached chambers and flags.
    """
    n = arrangement.n
    triples = [ln.triple() for ln in arrangement.lines]
    triples.append((Fraction(0), Fraction(0), Fraction(1)))
    proj = ProjArrangement(triples, infinity_index=n)
    proj._charts[n] = Chart(arrangement, tuple(range(n)), n)
    return proj


@dataclass(frozen=True)
class Chart:
    """Affine picture of a projective arrangement after a coordinate change
    sending one member to infinity."""

    arrangement: Arrangement
    to_old: tuple  # affine position -> line index in the source
    moved: int


def _mat3_inverse(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if det == 0:
        raise ArrangementError("singular projective change of coordinates")
    adj = (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )
    return tuple(tuple(x / det for x in row) for row in adj)


def move_to_infinity(proj, h):
    """Rational projective change putting line h at infinity.

    Line h's row, completed by two unit rows, is an invertible T; in the
    coordinates T . (x, y, z) line h is z = 0 and a row l becomes l T^-1.
    Every line, the infinity line included, takes this path; only the row
    0 0 1 gives T = I.

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
    tinv = _mat3_inverse(t)
    coeffs = []
    for k in keep:
        row = proj.lines[k]
        new = tuple(sum(row[r] * tinv[r][c] for r in range(3)) for c in range(3))
        if new[0] == 0 and new[1] == 0:
            raise ArrangementError("coordinate change degenerated a line")
        coeffs.append(new)
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
