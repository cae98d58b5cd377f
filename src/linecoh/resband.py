"""Bands between consecutive parallel lines, standing waves, and the kernel
computation of first cohomology, plus the combinatorial certificates that
decide or bound h^1 without any linear algebra.

For monodromies whose product over all lines (infinity included) differs
from 1 at infinity, h^1 equals the number of linear relations among the
standing waves of the resonant bands; that kernel is computed here.
``h1_on_band_chart`` is the one place that picks the chart for it: the
line at infinity when its monodromy is not 1, otherwise the first line
with q != 1.  The certificate routines cover the cases where a line with
q != 1 sees zero or one resonant multiple point, and the sharp pair upper
bound.  They read only two bitmasks over one cached incidence table per
projective arrangement: the lines with q != 1 and the multiple points
with q = 1.  ``LocalSystem.resonance_masks`` fills them from the
resonance tests and the torus scan from exponent congruences, and one
rule (``certify_masks``) turns either pair into h^1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

from .geometry import Arrangement, _int_triple, sep
from .scalars import Matrix, kernel_basis, kernel_dimension


class TheoremInapplicableError(ValueError):
    """The band kernel computes h^1 only when the infinity monodromy is
    nontrivial; ``h1_on_band_chart`` moves a line with q != 1 to infinity
    first, and with every q = 1 only the chamber complex applies."""


class InvariantError(RuntimeError):
    """Two internal computations that must agree did not: a defect of the
    program (or of the floating tolerance), never of the input."""


@dataclass(frozen=True)
class Band:
    """Strip between two consecutive parallel lines.

    ``u1``/``u2`` are the chamber indices of the two unbounded ends (u1 has
    the lexicographically smaller sign vector).  A strip that no line
    crosses (every line parallel, a pencil) is one unbounded chamber, its
    own opposite, so u1 = u2; its standing wave is then zero, and h^1 =
    n - 1 for n parallel lines.  ``inner`` lists all chambers inside the
    strip; ``parallel_ids`` is the full parallel class of the boundary
    direction, whose point at infinity the band converges to.
    """

    lower: int
    upper: int
    u1: int
    u2: int
    inner: tuple
    parallel_ids: frozenset


@dataclass(frozen=True)
class StandingWave:
    band: Band
    coefficients: dict  # chamber index -> backend element


@dataclass(frozen=True)
class BandStructure:
    """Local-system-independent skeleton of the bands of one arrangement.

    Per band, in ``bands`` order: ``sep_ends`` holds the ids separating its
    two unbounded ends and ``wave_seps`` pairs each chamber of the band with
    the ids of Sep(U_1, chamber).
    """

    bands: tuple
    sep_ends: tuple
    wave_seps: tuple

    def is_resonant(self, system, k):
        """Resonance of the band's point at infinity: the product of q over
        its parallel class and the line at infinity is 1.  This equals the
        vanishing of the weight between the band's ends, as sep(U_1, U_2)
        is the set of lines not parallel to the band."""
        return system.prod_is_one(self.bands[k].parallel_ids, with_infinity=True)

    def resonant(self, system):
        """Positions of the resonant bands."""
        return [k for k in range(len(self.bands)) if self.is_resonant(system, k)]


def band_structure(arrangement):
    """The cached ``BandStructure`` of a (position-indexed) arrangement."""
    if not isinstance(arrangement, Arrangement):
        raise ValueError("bands need a position-indexed arrangement, not a flagged one")
    if arrangement._bands is not None:
        return arrangement._bands
    lines = arrangement.lines
    chs = arrangement.chambers()
    groups = {}
    for ln in lines:
        groups.setdefault((ln.a, ln.b), []).append(ln)
    bands, sep_ends, wave_seps = [], [], []
    for key in sorted(groups):
        cls = sorted(groups[key], key=lambda ln: ln.c, reverse=True)
        if len(cls) < 2:
            continue
        class_ids = frozenset(ln.id for ln in cls)
        for low, up in zip(cls, cls[1:]):
            inner = tuple(
                ch.index
                for ch in chs
                if ch.signs[low.id] > 0 and ch.signs[up.id] < 0
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
            bands.append(
                Band(
                    lower=low.id,
                    upper=up.id,
                    u1=u1,
                    u2=u2,
                    inner=inner,
                    parallel_ids=class_ids,
                )
            )
            sep_ends.append(tuple(sorted(sep(chs[u1], chs[u2], lines))))
            wave_seps.append(
                tuple(
                    (ci, tuple(sorted(sep(chs[u1], chs[ci], lines)))) for ci in inner
                )
            )
    arrangement._bands = BandStructure(
        bands=tuple(bands), sep_ends=tuple(sep_ends), wave_seps=tuple(wave_seps)
    )
    return arrangement._bands


def bands(arrangement):
    """All bands, sorted by direction and position along the normal."""
    return band_structure(arrangement).bands


def resonant_bands(system, arrangement):
    structure = band_structure(arrangement)
    return tuple(structure.bands[k] for k in structure.resonant(system))


def standing_wave(system, arrangement, band, end=1):
    """The chamber combination Delta(U_end, C) . [C] over chambers C in the
    band. Meaningful for resonant bands; computable (with a warning) always."""
    structure = band_structure(arrangement)
    try:
        k = structure.bands.index(band)
    except ValueError:
        raise ValueError("band does not belong to this arrangement") from None
    if not structure.is_resonant(system, k):
        warnings.warn("standing wave of a non-resonant band", stacklevel=2)
    if end == 1:
        seps = structure.wave_seps[k]
    else:
        # Sep(U_2, C) = Sep(U_1, C) symmetric difference Sep(U_1, U_2)
        ends = set(structure.sep_ends[k])
        seps = [
            (ci, sorted(ends.symmetric_difference(ids)))
            for ci, ids in structure.wave_seps[k]
        ]
    coeffs = {ci: system.delta_ids(ids) for ci, ids in seps}
    return StandingWave(band=structure.bands[k], coefficients=coeffs)


@dataclass(frozen=True)
class BandKernel:
    """h^1 together with the standing wave matrix whose kernel it counts."""

    dim: int
    bands: tuple  # the resonant bands, in matrix column order
    matrix: Matrix | None = field(default=None, repr=False, compare=False)

    @cached_property
    def kernel(self):
        """Kernel basis vectors, coefficients per band; eliminated on first
        access, since the dimension alone needs only the rank."""
        if self.matrix is None:
            return ()
        return tuple(tuple(vec) for vec in kernel_basis(self.matrix))


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
    number of resonant bands minus the rank of their wave matrix.

    Requires a nontrivial infinity monodromy; raises otherwise.
    """
    if system.infinity_is_one():
        raise TheoremInapplicableError(
            "infinity monodromy is trivial; move a non-resonant line to "
            "infinity or use the chamber complex"
        )
    structure = band_structure(arrangement)
    res = structure.resonant(system)
    if not res:
        return BandKernel(dim=0, bands=())
    row_ids = sorted({ci for k in res for ci, _ in structure.wave_seps[k]})
    row_pos = {ci: r for r, ci in enumerate(row_ids)}
    bk = system.backend
    rows = [[bk.zero] * len(res) for _ in row_ids]
    for col, k in enumerate(res):
        for ci, ids in structure.wave_seps[k]:
            rows[row_pos[ci]][col] = system.delta_ids(ids)
    mat = Matrix(bk, rows, ncols=len(res))
    return BandKernel(
        dim=kernel_dimension(mat),
        bands=tuple(structure.bands[k] for k in res),
        matrix=mat,
    )


# ---------------------------------------------------------------------------
# combinatorial certificates


@dataclass(frozen=True)
class Certificate:
    """Conclusion drawn from one line with nontrivial monodromy.

    kind "no_resonant_point": no resonant multiple point on the line, so
    h^1 = 0.  kind "unique_resonant_point": exactly one, so h^1 equals
    (number of lines through it) - 2 when every line missing the point has
    trivial monodromy, and 0 otherwise.
    """

    line: int
    kind: str
    h1: int | None
    point: object = None
    off_lines_trivial: bool | None = None


@dataclass(frozen=True)
class CertificateReport:
    certificates: tuple
    h1: int | None  # resolved dimension, when some certificate applies


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


def vanishing_certificates(system, proj):
    """Scan every line with q != 1 for the zero/one resonant point
    certificates (``certify_masks``) on the resonance masks of
    ``system``."""
    multiple = proj.multiple_points()
    table = incidence_table(proj)
    nontrivial, resonant = system.resonance_masks(proj)
    rows, dim = certify_masks(table, nontrivial, resonant)
    certs = []
    for h, h1, k in rows:
        if h1 is None:
            certs.append(Certificate(line=h, kind="none", h1=None))
        elif k is None:
            certs.append(Certificate(line=h, kind="no_resonant_point", h1=0))
        else:
            certs.append(
                Certificate(
                    line=h,
                    kind="unique_resonant_point",
                    h1=h1,
                    point=multiple[k],
                    off_lines_trivial=not (nontrivial & table.off_mask[k]),
                )
            )
    return CertificateReport(certificates=tuple(certs), h1=dim)


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


def sharp_pairs(system, proj):
    """Sharp pairs of ``proj`` under ``system`` (see ``SharpPair``).

    A pair is sharp when the crossings of the other lines all lie in one
    of the two region pairs cut out by it, i.e. the product of the pair's
    signs is the same at each of them.  Each point's canonical coordinates
    and each line are scaled by positive rationals to integers
    (``_int_triple``), which keeps every sign, and the side of every line
    with q != 1 at every point is taken once from an integer dot product;
    the pair loop compares those table entries.  Resonance comes from the
    masks of ``LocalSystem.resonance_masks``; ``incidence_table`` says
    which multiple points lie on a line.
    """
    points = proj.intersections()
    on_mask = incidence_table(proj).on_mask
    nontrivial, resonant = system.resonance_masks(proj)
    nonres = [h for h in range(proj.n) if nontrivial >> h & 1]
    hypothesis = all((resonant & on_mask[h]).bit_count() >= 2 for h in nonres)
    coords = [_int_triple(*p.coords) for p in points]
    side = {}
    for h in nonres:
        a, b, c = _int_triple(*proj.lines[h])
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
