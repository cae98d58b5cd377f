"""Bands between consecutive parallel lines, standing waves, and the kernel
computation of first cohomology, plus the combinatorial certificates that
decide or bound h^1 without any linear algebra.

For monodromies whose product over all lines (infinity included) differs
from 1 at infinity, h^1 equals the number of linear relations among the
standing waves of the resonant bands; that number is computed here.
Each band is one ``Band`` record, cached per arrangement by ``bands``:
its chambers, its parallel class and the separating sets of its wave.
The lines separating a band's two ends are exactly those not parallel to
it, so ``resonant_bands`` is the one resonance rule, and
``LocalSystem.half_ids`` turns a record's separating sets into the half
monodromies whose weights are its wave coefficients.
``h1_on_band_chart`` is the one place that picks the chart for it: the
line at infinity when its monodromy is not 1, otherwise the first line
with q != 1.

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
``LocalSystem.resonance_masks`` fills them from the resonance tests and
the torus scan from exponent congruences, and one rule
(``certify_masks``) turns either pair into h^1.  For a system,
``vanishing_certificates`` reads them once into a ``CertificateReport``
that also feeds ``sharp_pairs``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import combinations

from .geometry import Arrangement, monic, separating_ids
from .scalars import weight_rank


class TheoremInapplicableError(ValueError):
    """The band kernel computes h^1 only when the infinity monodromy is
    nontrivial; ``h1_on_band_chart`` moves a line with q != 1 to infinity
    first, and with every q = 1 only the chamber complex applies."""


class InvariantError(RuntimeError):
    """Two internal computations that must agree did not: a defect of the
    program (or of the floating tolerance), never of the input."""


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


@dataclass(frozen=True)
class StandingWave:
    band: Band
    coefficients: dict  # chamber index -> backend element


def bands(arrangement):
    """All bands of a (position-indexed) arrangement, sorted by direction
    and position along the normal; built once and kept on the arrangement.
    """
    if not isinstance(arrangement, Arrangement):
        raise ValueError("bands need a position-indexed arrangement, not a flagged one")
    if arrangement._bands is not None:
        return arrangement._bands
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
                raise ValueError("band does not have exactly two unbounded ends")
            u1, u2 = ends
            if chs[u1].opposite is not chs[u2]:
                raise ValueError("band ends are not opposite chambers")
            waves = tuple((ci, sep(u1, ci)) for ci in inner)
            out.append(Band(low, up, u1, u2, inner, class_ids, waves))
    arrangement._bands = tuple(out)
    return arrangement._bands


def resonant_bands(system, arrangement):
    """The bands, in ``bands`` order, whose point at infinity is resonant:
    the product of q over the band's ``parallel_ids`` and the line at
    infinity is 1.  This is the one resonance rule of the band route; it
    equals the vanishing of the weight between the band's two ends, as
    Sep(U_1, U_2) is the lines not in ``parallel_ids``.  The system must
    have one monodromy per line."""
    system.check_size(arrangement.n)
    return tuple(
        band
        for band in bands(arrangement)
        if system.prod_is_one(band.parallel_ids, with_infinity=True)
    )


def standing_wave(system, arrangement, band, end=1):
    """The chamber combination Delta(U_end, C) . [C] over chambers C in the
    band, for end 1 or 2. Meaningful for resonant bands; computable (with a
    warning) always."""
    if end not in (1, 2):
        raise ValueError(f"band end must be 1 or 2, not {end!r}")
    if band not in bands(arrangement):
        raise ValueError("band does not belong to this arrangement")
    if band not in resonant_bands(system, arrangement):
        warnings.warn("standing wave of a non-resonant band", stacklevel=2)
    waves = band.waves
    if end == 2:
        # Sep(U_2, C) = Sep(U_1, C) symmetric difference Sep(U_1, U_2), and
        # Sep(U_1, U_2) is the lines not in parallel_ids
        par = band.parallel_ids
        waves = [
            (ci, [j for j in range(arrangement.n) if (j in ids) == (j in par)])
            for ci, ids in waves
        ]
    return StandingWave(
        band=band, coefficients={ci: system.delta_ids(ids) for ci, ids in waves}
    )


@dataclass(frozen=True)
class BandKernel:
    """h^1 by the band route: the dimension of the kernel of the standing
    wave matrix, whose columns are the resonant ``bands``."""

    dim: int
    bands: tuple  # the resonant bands, in matrix column order


def h1_on_band_chart(system, proj):
    """``(h, kernel)`` by the band route's one chart rule, or None when
    every q is 1: h is the line at infinity when its q is not 1, otherwise
    the first line with q != 1, and kernel the ``BandKernel`` of
    ``system`` (on ``proj``'s infinity chart) moved to ``proj.chart(h)``.
    """
    lines = (proj.infinity_index, *range(proj.n))
    h = next((j for j in lines if not system.q_is_one_at(proj, j)), None)
    if h is None:
        return None
    return h, h1_via_bands(system.on_chart(proj, h), proj.chart(h).arrangement)


def h1_via_bands(system, arrangement):
    """First cohomology from linear relations among standing waves: the
    number of resonant bands minus the rank of their wave matrix, whose
    columns are the resonant bands' waves and whose rows are the chambers
    those waves meet, in index order.

    The rank is ``scalars.weight_rank`` of the waves' half monodromies:
    over F_p on the exact backend, exact by the norm bound proved there;
    the floating backend eliminates the matrix itself.

    Requires a nontrivial infinity monodromy; raises otherwise.
    """
    res = resonant_bands(system, arrangement)
    if system.infinity_is_one():
        raise TheoremInapplicableError(
            "infinity monodromy is trivial; move a non-resonant line to "
            "infinity or use the chamber complex"
        )
    bk = system.backend
    if not res:
        return BandKernel(dim=0, bands=())
    rows = sorted(set().union(*[band.inner for band in res]))
    pos = {ci: r for r, ci in enumerate(rows)}
    one = bk.half_prod(())  # the half monodromy 1, of weight 0
    half = system.half_ids
    columns = []
    for band in res:
        col = [one] * len(rows)
        for ci, ids in band.waves:
            col[pos[ci]] = half(ids)
        columns.append(tuple(col))
    return BandKernel(dim=len(res) - weight_rank(bk, columns), bands=res)


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
    masks of ``LocalSystem.resonance_masks`` (lines with q != 1, multiple
    points of ``table`` with q = 1) and the h^1 they certify, None when
    no row does.

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
    """One read of a system's resonance on a projective arrangement: the
    masks of ``LocalSystem.resonance_masks`` (``nontrivial``, bit j for
    each line j with q != 1; ``resonant``, bit k for each multiple point
    with q = 1), the ``certify_masks`` rows ``(h, h1, k)`` and the h^1
    they certify, None when no row does."""

    nontrivial: int
    resonant: int
    rows: tuple
    h1: int | None


def vanishing_certificates(system, proj):
    """The ``CertificateReport`` of ``system`` on ``proj``, from one
    ``resonance_masks`` read; ``sharp_pairs`` and ``linecoh certify``
    read that report, not the system."""
    nontrivial, resonant = system.resonance_masks(proj)
    rows, dim = certify_masks(incidence_table(proj), nontrivial, resonant)
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
