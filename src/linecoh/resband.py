"""Bands between consecutive parallel lines and the rank of their standing
wave matrix, which gives first cohomology, plus the combinatorial
certificates that decide or bound h^1 without any linear algebra.

For monodromies whose product over all lines (infinity included) differs
from 1 at infinity, h^1 equals the number of linear relations among the
standing waves of the resonant bands; that number is computed here.
Each band is one ``Band`` record: its chambers, its parallel class and
the separating sets of its wave.  The lines separating a band's two ends
are exactly those not parallel to it, so ``resonant_bands`` is the one
resonance rule.  An arrangement keeps one ``BandTable``, the one store of
band structure, under its own ids (line k is k, infinity n): its bands,
per band its resonance ids, and per set of resonant bands it has met the
layout of their wave matrix (its rows and each column's ids), made once
and kept.  One core, ``_band_kernel``, reads a table under half
monodromies in that order.  ``h1_via_bands`` reads an arrangement's
table; ``h1_on_band_chart``, the one chart rule (infinity when its q is
not 1, else the first line with q != 1), reads the table of
``proj.chart(h).arrangement`` under ``LocalSystem.projective_halves`` put
in chart order, so it builds no chart system.  The infinity chart of
``cone(arrangement)`` is the arrangement itself, so the two read one
table.  ``chart_kernel`` is that rule on halves given by projective
index, as ``charvar.h1_at_point`` reads them off a torus point.

On the exact backend of order M = 2N the wave matrix is ranked over F_p,
never over Z[zeta]: an entry zeta^s - zeta^(-s), s the half exponent of
its separating ids, maps to omega^s - omega^(-s) mod p for primes p = 1
(mod M) below 2^62 and omega a primitive M-th root of unity mod p.  A
norm bound keeps the rank exact (``scalars.weight_rank`` proves it); on
deleted B3 up to order 12 one or two primes always suffice.

The certificate routines cover the cases where a line with q != 1 sees zero
or one resonant multiple point, and the sharp pair upper bound.  They
read only two bitmasks over one cached incidence table per projective
arrangement: the lines with q != 1 and the multiple points with q = 1.
For a system, ``vanishing_certificates`` computes both once from
``LocalSystem.projective_halves`` and the table, and one rule
(``certify_masks``) turns them into h^1, in a ``CertificateReport`` that
also feeds ``sharp_pairs``.  The torus scan reads no masks per point:
``charvar.candidate_points`` reads the same two sets off packed exponent
sums and lists only the points where that rule cannot give 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, compress

from .geometry import Arrangement, InvariantError, monic, separating_ids
from .scalars import weight_rank


class TheoremInapplicableError(ValueError):
    """The band kernel computes h^1 only when the infinity monodromy is
    nontrivial; ``h1_on_band_chart`` moves a line with q != 1 to infinity
    first, and with every q = 1 only the chamber complex applies."""


@dataclass(frozen=True)
class Band:
    """One band, the strip between two consecutive parallel lines, as the
    one record the band route reads.

    ``u1``/``u2`` are the chamber indices of the two unbounded ends (u1 has
    the lexicographically smaller sign vector).  A strip that no line
    crosses (every line parallel, a pencil) is one unbounded chamber, its
    own opposite, so u1 = u2; its standing wave is then zero, and h^1 =
    n - 1 for n parallel lines.  ``inner`` lists all chambers inside the
    strip; ``parallel_ids`` is the full parallel class of the boundary
    direction, whose point at infinity the band converges to.  Every other
    line crosses the strip, so Sep(U_1, U_2) is exactly the lines not in
    ``parallel_ids``.  ``waves`` pairs each chamber of ``inner`` with the
    sorted ids of Sep(U_1, chamber).
    """

    lower: int
    upper: int
    u1: int
    u2: int
    inner: tuple
    parallel_ids: frozenset
    waves: tuple = field(repr=False)


def bands(arrangement):
    """All bands of a (position-indexed) arrangement, sorted by direction
    and position along the normal: those of its ``BandTable``, built once
    and kept on the arrangement."""
    return _table(arrangement).bands


def _bands(arrangement):
    """The ``Band`` records of ``bands``, built afresh."""
    chs = arrangement.chambers()
    sep = separating_ids(chs, range(arrangement.n))
    groups = {}  # monic direction -> [(monic offset, line position)]
    for k, row in enumerate(arrangement.lines):
        a, b, c = monic(row)
        groups.setdefault((a, b), []).append((c, k))
    out = []
    for key in sorted(groups):
        cls = [k for _, k in sorted(groups[key], key=lambda t: t[0], reverse=True)]
        if len(cls) < 2:
            continue
        class_ids = frozenset(cls)
        for low, up in zip(cls, cls[1:]):
            inner = tuple(
                ch.index for ch in chs if ch.signs[low] > 0 and ch.signs[up] < 0
            )
            ends = sorted(
                (i for i in inner if not chs[i].bounded),
                key=lambda i: chs[i].signs,
            )
            if len(ends) == 1 and chs[ends[0]].opposite is chs[ends[0]]:
                ends *= 2  # a strip no line crosses: both of its ends
            if len(ends) != 2:
                raise InvariantError("band does not have exactly two unbounded ends")
            u1, u2 = ends
            if chs[u1].opposite is not chs[u2]:
                raise InvariantError("band ends are not opposite chambers")
            waves = tuple((ci, sep(u1, ci)) for ci in inner)
            out.append(Band(low, up, u1, u2, inner, class_ids, waves))
    return tuple(out)


# resonant-band layouts one band table keeps; a deleted-B3 chart has at
# most 16 (four bands)
_KEPT_LAYOUTS = 1024


class BandTable:
    """The bands of an ``Arrangement`` as the band route reads them, under
    its own ids (line k is k, infinity is n): ``bands`` in ``bands``
    order, and per band its ``resonance`` ids, the parallel class and
    infinity.

    ``layout(key)``, for a tuple of one flag per band (is it resonant?),
    is ``(bands, templates)``: the resonant bands and, per band, its
    column of the wave matrix as ids, a row per chamber the resonant
    bands meet (in index order) holding that chamber's wave ids, or ()
    where the band does not meet it.  A layout is made on first use and
    kept, up to ``_KEPT_LAYOUTS`` a table, so a call reads its rows and
    positions instead of building them."""

    __slots__ = ("bands", "resonance", "_layouts")

    def __init__(self, arrangement):
        self.bands = _bands(arrangement)
        infinity = arrangement.n
        self.resonance = tuple((*band.parallel_ids, infinity) for band in self.bands)
        self._layouts = {}

    def layout(self, key):
        layout = self._layouts.get(key)
        if layout is not None:
            return layout
        res = tuple(compress(self.bands, key))
        rows = sorted(set().union(*[band.inner for band in res]))
        pos = {ci: r for r, ci in enumerate(rows)}
        templates = []
        for band in res:
            template = [()] * len(rows)
            for ci, ids in band.waves:
                template[pos[ci]] = ids
            templates.append(template)
        layout = res, templates
        if len(self._layouts) < _KEPT_LAYOUTS:
            self._layouts[key] = layout
        return layout


def _table(arrangement):
    """The ``BandTable`` of ``arrangement``, the one band-structure store,
    built on first use and kept on it; a flagged or projective arrangement
    is refused."""
    if not isinstance(arrangement, Arrangement):
        raise ValueError(
            "bands need a position-indexed Arrangement, "
            f"not a {type(arrangement).__name__}"
        )
    if arrangement._band_table is None:
        arrangement._band_table = BandTable(arrangement)
    return arrangement._band_table


def _affine_table(system, arrangement):
    """``(halves, table)``: the system's halves, infinity last, and the
    arrangement's ``BandTable``."""
    system.check_size(arrangement.n)
    return [*system.halves, system.half_inf], _table(arrangement)


def _resonant(bk, halves, table):
    """The ``BandTable.layout`` of the bands of ``table`` whose resonance
    ids have product of q equal to 1, ``halves`` the half monodromies by
    id."""
    prods = bk.half_prods(halves, table.resonance)
    return table.layout(tuple(map(bk.square_is_one, prods)))


def resonant_bands(system, arrangement):
    """The bands, in ``bands`` order, whose point at infinity is resonant:
    the product of q over the band's ``parallel_ids`` and the line at
    infinity is 1.  This is the one resonance rule of the band route; it
    equals the vanishing of the weight between the band's two ends, as
    Sep(U_1, U_2) is the lines not in ``parallel_ids``.  The system must
    have one monodromy per line."""
    return _resonant(system.backend, *_affine_table(system, arrangement))[0]


@dataclass(frozen=True, slots=True)
class BandKernel:
    """h^1 by the band route: the dimension of the kernel of the standing
    wave matrix, whose columns are the resonant ``bands``."""

    dim: int
    bands: tuple  # the resonant bands, in matrix column order


def _band_kernel(bk, halves, table):
    """The ``BandKernel`` of a ``BandTable`` under ``halves``, by id, with
    q != 1 at infinity: the resonant bands minus the rank of their wave
    matrix (a column per band, a row per chamber they meet, in index order;
    an entry is the half monodromy of its wave ids), which
    ``scalars.weight_rank`` ranks over F_p on the exact backend.  The
    resonant bands' rows and each column's ids come from the table's kept
    ``layout``, so a call reads one ``half_prods`` per band and column."""
    resonant, templates = _resonant(bk, halves, table)
    dim = 0
    if templates:
        columns = [bk.half_prods(halves, template) for template in templates]
        dim = len(columns) - weight_rank(bk, columns)
    return BandKernel(dim, resonant)


def h1_on_band_chart(system, proj):
    """``(h, kernel)`` by the band route's one chart rule, or None when
    every q is 1: h is the line at infinity when its q is not 1, otherwise
    the first line with q != 1, and kernel the ``BandKernel`` of
    ``system`` (on ``proj``'s infinity chart) on ``proj.chart(h)``: the
    ``chart_kernel`` of its ``projective_halves``."""
    return chart_kernel(system.backend, system.projective_halves(proj), proj)


def chart_kernel(bk, halves, proj):
    """``h1_on_band_chart`` on the half monodromies of every line of
    ``proj`` by projective index, over backend ``bk``: the chart's own
    ``BandTable`` read under the halves in chart order, its lines
    (``Chart.to_old``) then h at infinity."""
    lines = (proj.infinity_index, *range(proj.n))
    h = next((j for j in lines if not bk.square_is_one(halves[j])), None)
    if h is None:
        return None
    chart = proj.chart(h)
    # a list: ``half_prods`` indexes a list faster than a tuple
    halves = [*map(halves.__getitem__, chart.to_old), halves[h]]
    return h, _band_kernel(bk, halves, _table(chart.arrangement))


def h1_via_bands(system, arrangement):
    """First cohomology from linear relations among standing waves, the
    ``_band_kernel`` of ``system`` on ``arrangement``; it needs a nontrivial
    infinity monodromy and raises ``TheoremInapplicableError`` otherwise."""
    halves, table = _affine_table(system, arrangement)
    if system.backend.square_is_one(system.half_inf):
        raise TheoremInapplicableError(
            "infinity monodromy is trivial; move a non-resonant line to "
            "infinity or use the chamber complex"
        )
    return _band_kernel(system.backend, halves, table)


# ---------------------------------------------------------------------------
# combinatorial certificates


@dataclass(frozen=True)
class IncidenceTable:
    """The multiple points of a projective arrangement, in
    ``proj.multiple_points()`` order, as sorted tuples of incident lines;
    per line the bitmask ``on_mask`` of the points on it (bit k for
    position k); per point the bitmask ``off_mask`` of the lines missing
    it (bit j for line j) and its depth, (lines through it) - 2."""

    points: tuple
    on_mask: tuple
    off_mask: tuple
    depth: tuple


def incidence_table(proj):
    """The cached ``IncidenceTable`` of a projective arrangement."""
    if proj._incidence is not None:
        return proj._incidence
    points = tuple(tuple(sorted(p.incident)) for p in proj.multiple_points())
    every_line = (1 << proj.n) - 1
    proj._incidence = IncidenceTable(
        points=points,
        on_mask=tuple(
            sum(1 << k for k, p in enumerate(points) if h in p) for h in range(proj.n)
        ),
        off_mask=tuple(every_line ^ sum(1 << j for j in p) for p in points),
        depth=tuple(len(p) - 2 for p in points),
    )
    return proj._incidence


def certify_masks(table, nontrivial, resonant):
    """``(rows, h1)``: the zero/one resonant point certificates on the
    masks of a ``CertificateReport`` (lines with q != 1, multiple points
    of ``table`` with q = 1) and the h^1 they certify, None when no row
    does.

    One row ``(h, h1, k)`` per line h with q != 1, in line order: no
    resonant point on h gives ``(h, 0, None)``; exactly one, at position
    k, gives h1 = (lines through it) - 2 when every line missing it is
    trivial and 0 otherwise; two or more give ``(h, None, None)``.  On a
    consistent table the rows cannot disagree (a line certifying
    |p| - 2 > 0 puts every line with q != 1 through p); if they do,
    ``InvariantError``.
    """
    off_mask, depth = table.off_mask, table.depth
    rows = []
    for h, on in enumerate(table.on_mask):
        if not nontrivial >> h & 1:
            continue
        r = resonant & on
        if not r:
            rows.append((h, 0, None))
        elif r & (r - 1):
            rows.append((h, None, None))
        else:
            k = r.bit_length() - 1
            rows.append((h, 0 if nontrivial & off_mask[k] else depth[k], k))
    dims = {h1 for _, h1, _ in rows if h1 is not None}
    if len(dims) > 1:
        raise InvariantError(f"contradictory certificates: {sorted(dims)}")
    return rows, (dims.pop() if dims else None)


@dataclass(frozen=True)
class CertificateReport:
    """One read of a system's resonance on a projective arrangement: two
    masks (``nontrivial``, bit j for each line j with q != 1;
    ``resonant``, bit k for each multiple point with q = 1, k its position
    in ``incidence_table(proj).points``), the ``certify_masks`` rows
    ``(h, h1, k)`` and the h^1 they certify, None when no row does."""

    nontrivial: int
    resonant: int
    rows: tuple
    h1: int | None


def vanishing_certificates(system, proj):
    """The ``CertificateReport`` of ``system`` on ``proj``, its masks read
    off one ``LocalSystem.projective_halves`` call and ``incidence_table``;
    ``sharp_pairs`` and ``linecoh certify`` read that report, not the
    system."""
    table = incidence_table(proj)
    halves = system.projective_halves(proj)
    bk = system.backend
    nontrivial = sum(1 << j for j, h in enumerate(halves) if not bk.square_is_one(h))
    resonant = sum(
        1 << k
        for k, s in enumerate(bk.half_prods(halves, table.points))
        if bk.square_is_one(s)
    )
    rows, dim = certify_masks(table, nontrivial, resonant)
    return CertificateReport(nontrivial, resonant, tuple(rows), dim)


@dataclass(frozen=True)
class SharpPair:
    """Two lines with q != 1 bounding a region without further intersection
    points.  Under the hypothesis that every line with q != 1 carries at
    least two resonant multiple points, h^1 <= 1; and h^1 = 0 outright when
    the crossing point of the pair is a plain double point or non-resonant.
    """

    pair: tuple
    hypothesis_holds: bool
    bound: int | None


def sharp_pairs(proj, report):
    """Sharp pairs of ``proj`` under the system of ``report``, its
    ``CertificateReport`` (see ``SharpPair``).

    A pair is sharp when the crossings of the other lines all lie in one
    of the two region pairs cut out by it, i.e. the product of the pair's
    signs is the same at each of them.  Points and lines are stored as
    ``canonical_triple`` rows, so the side of every line with q != 1 at
    every point is taken once from an integer dot product of the stored
    rows; the pair loop compares those table entries.  Resonance comes
    from the report's masks; ``incidence_table`` says which multiple
    points lie on a line.
    """
    points = proj.intersections()
    on_mask = incidence_table(proj).on_mask
    nontrivial, resonant = report.nontrivial, report.resonant
    nonres = [h for h in range(proj.n) if nontrivial >> h & 1]
    hypothesis = all((resonant & on_mask[h]).bit_count() >= 2 for h in nonres)
    coords = [p.coords for p in points]
    side = {}
    for h in nonres:
        a, b, c = proj.lines[h]
        side[h] = [
            (v > 0) - (v < 0) for v in (a * x + b * y + c * z for x, y, z in coords)
        ]
    out = []
    for h1, h2 in combinations(nonres, 2):
        regions = set()
        sharp = True
        side1, side2 = side[h1], side[h2]
        for i, p in enumerate(points):
            if len(p.incident - {h1, h2}) < 2:
                continue  # not a crossing of the other lines
            s1, s2 = side1[i], side2[i]
            if s1 == 0 or s2 == 0:
                continue  # on the pair itself
            regions.add(s1 == s2)
            if len(regions) == 2:
                sharp = False
                break
        if not sharp:
            continue
        # a plain double point crossing is in no row of the table
        forces_zero = not resonant & on_mask[h1] & on_mask[h2]
        bound = (0 if forces_zero else 1) if hypothesis else None
        out.append(
            SharpPair(pair=(h1, h2), hypothesis_holds=hypothesis, bound=bound)
        )
    return tuple(out)
