"""Independent brute-force oracles and reference formulas used only by the
tests.

Chambers are found by exact sample points: between (and beyond) every pair
of consecutive candidate x-coordinates (intersection and vertical-line
abscissas) and, per sampled column, candidate y-values between consecutive
line crossings.  Every chamber contains such a sample point and no sample
point lies on a line, so the set of observed sign vectors is exactly the
set of chambers.  ``chambers`` is the reference for boundedness and the
opposite pairing: a sign-vector search with a Fourier-Motzkin test per
node and recession rays.
"""

import cmath
from fractions import Fraction
from itertools import chain, combinations, compress, permutations, product
from math import gcd, lcm
from operator import itemgetter, mul

from linecoh.charvar import _LISTED, ScanHit, TorusPoint, _diagonal_form, h1_at_point
from linecoh.geometry import IntersectionPoint, canonical_triple
from linecoh.localsystem import LocalSystem
from linecoh.resband import SharpPair, certify_masks, incidence_table, resonant_bands
from linecoh.scalars import Matrix


def evaluate(line, x, y):
    """Value of the equation of the line (a, b, c) at (x, y)."""
    a, b, c = line
    return a * x + b * y + c


def direction_key(line):
    """Canonical normal direction; equal keys <=> parallel lines."""
    a, b, _ = line
    return canonical_triple(a, b, 0)[:2]


def transpose(mat):
    return Matrix(
        mat.backend,
        [[mat.rows[i][j] for i in range(mat.nrows)] for j in range(mat.ncols)],
        ncols=mat.nrows,
    )


def weight(bk, halves, ids):
    """prod h_i - prod h_i^(-1) over the affine line ids, summed here, not
    through ``half_prods`` or a table: zeta^s - zeta^(-s) for s the sum of
    the half exponents (reduced or not) on the cyclotomic backend, v - 1/v
    for v the product of the half values on the floating one."""
    picked = [halves[i] for i in ids]
    if bk.kind == "cyclotomic":
        s = sum(picked)
        return bk.sub(bk.root(s), bk.root(-s))
    v = 1 + 0j
    for h in picked:
        v *= h
    return v - 1 / v


def delta(system, ids, c1, c2):
    """Connection weight between two chambers (weight of the separating
    set), ``ids[k]`` the id of the line of sign k."""
    return weight(system.backend, system.halves, sep(c1, c2, ids))


def standing_wave(system, arrangement, band, end=1):
    """The standing wave of ``band`` seen from its end ``end`` (1 or 2): per
    chamber C of the band, its index -> Delta(Sep(U_end, C)), from ``sep``,
    not from the band's stored waves."""
    chs = arrangement.chambers()
    u = chs[band.u1 if end == 1 else band.u2]
    ids = range(arrangement.n)
    return {ci: delta(system, ids, u, chs[ci]) for ci in band.inner}


def wave_matrix(system, arrangement):
    """The standing wave matrix over the system's backend (over Z[zeta] on
    the exact one): a column per resonant band, in ``resonant_bands``
    order, a row per chamber of those bands, in index order, and the entry
    of ``standing_wave``."""
    waves = [
        standing_wave(system, arrangement, band)
        for band in resonant_bands(system, arrangement)
    ]
    rows = sorted({ci for wave in waves for ci in wave})
    zero = system.backend.zero
    return Matrix(
        system.backend,
        [[wave.get(ci, zero) for wave in waves] for ci in rows],
        ncols=len(waves),
    )


def eq(bk, u, v):
    """Are the backend elements u and v equal (under ``bk.is_zero``)?"""
    return bk.is_zero(bk.sub(u, v))


def half_neg(bk, h):
    """The half monodromy -h: the exponent h + M/2 mod M on the cyclotomic
    backend of order M, the value -h on the floating one."""
    return (h + bk.order // 2) % bk.order if bk.kind == "cyclotomic" else -h


def flipped(system, ids=None):
    """The same monodromies with h_i replaced by -h_i for the lines
    ``ids`` (all lines by default)."""
    which = set(range(system.n) if ids is None else ids)
    bk = system.backend
    return LocalSystem(
        bk, (half_neg(bk, h) if i in which else h for i, h in enumerate(system.halves))
    )


def _half_element(bk, h):
    """The field element of the half monodromy h: zeta^h on the cyclotomic
    backend, which stores the exponent, h itself on the floating one."""
    return bk.root(h) if bk.kind == "cyclotomic" else h


def half(system, i):
    """The square root h_i of line i's monodromy as a backend element."""
    return _half_element(system.backend, system.halves[i])


def infinity_is_one(system):
    """Is the system's infinity monodromy 1?"""
    return system.backend.square_is_one(system.half_inf)


def prod_is_one(system, ids, with_infinity=False):
    """Does prod of q_i over the given affine lines (optionally times the
    infinity monodromy) equal 1?"""
    h = system.backend.half_prod([system.halves[i] for i in ids])
    if with_infinity:
        h = system.backend.half_prod((h, system.half_inf))
    return system.backend.square_is_one(h)


def on_chart(system, proj, h):
    """The same monodromies on the affine lines of ``proj.chart(h)``, a
    system of its own, for any h: each chart line, in ``chart.to_old``
    order, takes the half monodromy of the projective line it comes from,
    and the chart's infinity half is recomputed as the inverse product of
    those.  The reference for the band route's chart tables, which read
    the projective halves in place."""
    halves = system.projective_halves(proj)
    return LocalSystem(system.backend, (halves[j] for j in proj.chart(h).to_old))


def monodromy(system, i):
    return system.backend.mul(half(system, i), half(system, i))


def half_infinity(system):
    return _half_element(system.backend, system.half_inf)


def monodromy_infinity(system):
    return system.backend.mul(half_infinity(system), half_infinity(system))


def to_complex(bk, u):
    """The complex value of an element of the cyclotomic backend ``bk``."""
    return sum(
        float(c) * cmath.exp(2j * cmath.pi * k / bk.order) for k, c in enumerate(u) if c
    )


def torsion_weight(bk, exponents, ids):
    """zeta^s - zeta^(-s) for s the sum of the half exponents over ``ids``,
    on the cyclotomic backend ``bk`` of order 2N."""
    s = sum(exponents[i] for i in ids) % bk.order
    return bk.sub(bk.root(s), bk.root(-s))


def _candidates(values):
    vals = sorted(set(values))
    out = [vals[0] - 1]
    for u, v in zip(vals, vals[1:]):
        out.append((u + v) / 2)
    out.append(vals[-1] + 1)
    return out


def sample_points(lines):
    xs = set()
    for (a1, b1, c1), (a2, b2, c2) in combinations(lines, 2):
        det = a1 * b2 - a2 * b1
        if det:
            xs.add(Fraction(c2 * b1 - c1 * b2, det))
    for a, b, c in lines:
        if b == 0:
            xs.add(Fraction(-c, a))
    if not xs:
        xs = {Fraction(0)}
    pts = []
    for x0 in _candidates(xs):
        ys = {-(a * x0 + c) / b for a, b, c in lines if b != 0}
        if not ys:
            ys = {Fraction(0)}
        for y0 in _candidates(ys):
            pts.append((x0, y0))
    return pts


def chamber_sign_vectors(lines):
    sigs = set()
    for x0, y0 in sample_points(lines):
        vals = [evaluate(ln, x0, y0) for ln in lines]
        assert all(v != 0 for v in vals), "sample point fell on a line"
        sigs.add(tuple(1 if v > 0 else -1 for v in vals))
    return sigs


def _strictly_feasible(rows):
    """Is the open set {a*x + b*y + c > 0 for all rows} nonempty?

    Integer Fourier-Motzkin elimination: ``rows`` are integer triples.  A
    row (al, bl, cl) with al > 0 bounds x from below, a row (au, bu, cu)
    with au < 0 from above, and each such pair gives the y-row
    |au|*(lower) + al*(upper), in which x cancels.  That is the rational
    elimination step times al*|au| > 0, so the test is exact.
    """
    lows, ups, ycons = [], [], []
    for row in rows:
        a = row[0]
        if a > 0:
            lows.append(row)
        elif a < 0:
            ups.append(row)
        else:
            ycons.append(row[1:])
    for al, bl, cl in lows:
        for au, bu, cu in ups:
            ycons.append((al * bu - au * bl, al * cu - au * cl))
    # y > lnum/lden and y < unum/uden, denominators positive
    lnum = lden = unum = uden = None
    for alpha, beta in ycons:
        if alpha > 0:
            if lden is None or -beta * lden > lnum * alpha:
                lnum, lden = -beta, alpha
        elif alpha < 0:
            if uden is None or beta * uden < unum * -alpha:
                unum, uden = beta, -alpha
        elif beta <= 0:
            return False
    return lden is None or uden is None or lnum * uden < unum * lden


def _sign_vectors(rows):
    """All feasible sign vectors of the integer triples ``rows``, by
    depth-first prefix pruning with a feasibility test at every node."""
    found, cons, signs = [], [], []

    def rec(k):
        if k == len(rows):
            found.append(tuple(signs))
            return
        a, b, c = rows[k]
        for s, row in ((1, (a, b, c)), (-1, (-a, -b, -c))):
            cons.append(row)
            signs.append(s)
            if _strictly_feasible(cons):
                rec(k + 1)
            cons.pop()
            signs.pop()

    rec(0)
    return sorted(found)


def _recession_rays(normals, signs):
    """Directions d with sign_k * <normal_k, d> >= 0 for all k, among the
    candidate rays parallel to some line (primitive integer normals)."""
    rays = []
    for a, b in normals:
        for d in ((-b, a), (b, -a)):
            dx, dy = d
            if d not in rays and all(
                s * (na * dx + nb * dy) >= 0 for s, (na, nb) in zip(signs, normals)
            ):
                rays.append(d)
    return rays


def chambers(lines):
    """(signs, bounded, index, index of the opposite or None) per chamber,
    sorted by sign vector: sign vectors by a depth-first search with a
    Fourier-Motzkin test per node, boundedness from the recession rays, and
    the opposite of a chamber the negated sign vector when that is an
    unbounded chamber, else (a band end, one recession ray) the sign vector
    with the signs of the lines not parallel to the ray flipped."""
    normals = [(a // gcd(a, b), b // gcd(a, b)) for a, b, _ in lines]
    vectors = _sign_vectors(lines)
    rays = {s: _recession_rays(normals, s) for s in vectors}
    index = {s: i for i, s in enumerate(vectors)}
    out = []
    for s in vectors:
        opp = None
        if rays[s]:
            opp = tuple(-v for v in s)
            if not rays.get(opp):
                dx, dy = rays[s][0]
                opp = tuple(
                    v if a * dx + b * dy == 0 else -v for v, (a, b) in zip(s, normals)
                )
            assert rays.get(opp), "opposite chamber pairing failed"
        out.append((s, not rays[s], index[s], None if opp is None else index[opp]))
    return out


def chamber_count_formula(arrangement):
    """1 + n + sum over intersection points of (multiplicity - 1)."""
    return 1 + arrangement.n + arrangement.point_index_sum()


def bounded_count_formula(arrangement):
    """sum(multiplicity - 1) - n + 1, valid once some two lines cross."""
    return arrangement.point_index_sum() - arrangement.n + 1


def _affine_coords(lines):
    """The affine intersection points (x, y) of ``lines`` as Fraction pairs,
    sorted."""
    coords = set()
    for (a1, b1, c1), (a2, b2, c2) in combinations(lines, 2):
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue
        x = Fraction(c2 * b1 - c1 * b2, det)
        y = Fraction(c1 * a2 - c2 * a1, det)
        coords.add((x, y))
    return sorted(coords)


def affine_points(lines):
    """Affine intersection points in Fraction arithmetic, sorted by (x, y),
    with incidence by evaluating every line, each given by the
    ``canonical_triple`` of (x, y, 1)."""
    return tuple(
        IntersectionPoint(
            canonical_triple(x, y, 1),
            frozenset(k for k, ln in enumerate(lines) if evaluate(ln, x, y) == 0),
        )
        for x, y in _affine_coords(lines)
    )


def flag_height(lines, p, q):
    """The flag's axis height for the shear slope p/q, in Fraction
    arithmetic: one below the least y - x*p/q over the affine points."""
    return min(y - x * p / q for x, y in _affine_coords(lines)) - 1


def sep(c1, c2, ids):
    """Ids of the lines separating two chambers of the same arrangement,
    ``ids[k]`` the id of the line of sign k."""
    return frozenset(i for i, s1, s2 in zip(ids, c1.signs, c2.signs) if s1 != s2)


def _dot(triple, coords):
    return sum(u * v for u, v in zip(triple, coords))


def sharp_pairs(proj, exponents, order):
    """Sharp pairs with every side taken from a Fraction dot product of the
    pair's lines against every point, at the torsion point with
    ``exponents`` mod ``order`` over the projective lines: a line has
    q != 1 when its exponent is nonzero, and a point q = 1 when its lines'
    exponents sum to 0."""
    points = proj.intersections()

    def resonant(p):
        return not sum(exponents[j] for j in p.incident) % order

    nonres = [h for h in range(proj.n) if exponents[h] % order]
    hypothesis = all(
        sum(1 for p in points if p.is_multiple and h in p.incident and resonant(p))
        >= 2
        for h in nonres
    )
    out = []
    for h1, h2 in combinations(nonres, 2):
        regions = set()
        for p in points:
            if len(p.incident - {h1, h2}) < 2:
                continue
            s1 = _dot(proj.lines[h1], p.coords)
            s2 = _dot(proj.lines[h2], p.coords)
            if s1 != 0 and s2 != 0:
                regions.add((s1 > 0) == (s2 > 0))
        if len(regions) == 2:
            continue
        crossing = next(p for p in points if {h1, h2} <= p.incident)
        forces_zero = crossing.incident == frozenset((h1, h2)) or not resonant(crossing)
        bound = (0 if forces_zero else 1) if hypothesis else None
        out.append(SharpPair(pair=(h1, h2), hypothesis_holds=hypothesis, bound=bound))
    return tuple(out)


def line_certificates(proj, exponents, order):
    """The zero/one resonant point certificates line by line, from the
    incidence sets of ``proj.multiple_points()`` and exponent sums: per
    line h with a nonzero exponent, in line order, ``(h, h1, point)`` with
    the resonant points on h listed afresh; none gives h1 = 0, exactly one
    p gives |p| - 2 when every line off p has exponent 0 and 0 otherwise
    (``point`` is p), two or more give ``(h, None, None)``."""
    trivial = [e % order == 0 for e in exponents]
    rows = []
    for h in range(proj.n):
        if trivial[h]:
            continue
        found = [
            p
            for p in proj.multiple_points()
            if h in p.incident and sum(exponents[j] for j in p.incident) % order == 0
        ]
        if not found:
            rows.append((h, 0, None))
        elif len(found) == 1:
            (p,) = found
            off = [j for j in range(proj.n) if j not in p.incident]
            depth = len(p.incident) - 2
            rows.append((h, depth if all(trivial[j] for j in off) else 0, p))
        else:
            rows.append((h, None, None))
    return rows


def certified_h1(table, exponents, order):
    """h^1 at a nontrivial torus point decided by the zero/one resonant
    point certificates alone, or None when no line decides it.

    ``table`` is ``incidence_table(proj)`` and ``exponents`` the exponent
    vector over all projective lines.  A line is trivial when its exponent
    is 0 mod ``order``, and a multiple point is resonant when the exponents
    of its lines sum to 0 mod ``order``; ``certify_masks`` reads both as
    bitmasks.
    """
    masks = mask_reader(table, order)([e % order for e in exponents])
    return certify_masks(table, *masks)[1]


def mask_reader(table, order):
    """The function from exponent vectors reduced mod ``order`` to the
    two bitmasks of a ``CertificateReport``, read off congruences rather
    than the half monodromies ``vanishing_certificates`` tests: bit j of
    the first for each line j with q != 1 (a nonzero exponent), bit k of
    the second for each multiple point of ``table`` with q = 1 (its
    lines' exponents sum to 0 mod ``order``)."""
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


def _scan_point(proj, order, combo):
    """The torus point with affine exponents ``combo`` (infinity derived)."""
    exps = list(combo)
    exps.insert(proj.infinity_index, -sum(combo) % order)
    return TorusPoint(tuple(exps), order)


def family_point(family, params, order):
    """The torus point of ``family`` at parameters s_j = zeta_N^params[j],
    N = ``order``: coordinate i is (-1)^signs[i] * prod_j
    s_j^powers[i][j], an exponent mod m = N, or lcm(N, 2) when a sign is
    odd."""
    if len(params) != family.nparams:
        raise ValueError("wrong number of parameters")
    m = lcm(order, 2) if any(s % 2 for s in family.signs) else order
    exps = tuple(
        (sign % 2 * m // 2 + m // order * sum(map(mul, row, params))) % m
        for sign, row in zip(family.signs, family.powers)
    )
    return TorusPoint(exps, m)


def torsion_exponents(family, order):
    """Reference for the odometer of ``ComponentFamily.torsion_exponents``:
    every tuple of parameter exponents mod m (``_modulus``) from
    ``product``, each coordinate (signs[i] mod 2) * m/2 + sum_j
    powers[i][j] * params[j] mod m computed afresh, kept when every
    coordinate is a multiple of m / ``order``."""
    m = family._modulus(order)
    lift = m // order
    out = []
    for params in product(range(m), repeat=family.nparams):
        exps = [
            (sign % 2 * (m // 2) + sum(map(mul, row, params))) % m
            for sign, row in zip(family.signs, family.powers)
        ]
        if not any(e % lift for e in exps):
            out.append(tuple(e // lift for e in exps))
    return out


def family_torsion_points(family, order):
    """Reference for ``ComponentFamily.torsion_exponents``: a parameter
    equals a coordinate up to sign and inversion, so at a point of order
    dividing N it is a 2N-th root of unity; the parameters run over the
    2N grid, and points with an odd exponent at order 2N go."""
    two_n = 2 * order
    points = set()
    for params in product(range(two_n), repeat=family.nparams):
        exps = family_point(family, params, two_n).exponents
        if not any(e % 2 for e in exps):
            points.add(TorusPoint(tuple(e // 2 for e in exps), order))
    return frozenset(points)


def _names(catalog, point):
    if catalog is None:
        return ()
    return tuple(f.name for f in catalog if f.contains(point))


def grid_scan(proj, order, catalog=None):
    """Reference scan: h^1 by the band kernel and family names at every
    nontrivial point of the grid of affine exponents."""
    hits = []
    for combo in product(range(order), repeat=proj.n - 1):
        if not any(combo):
            continue
        point = _scan_point(proj, order, combo)
        dim = h1_at_point(proj, point)
        if dim >= 1:
            hits.append(ScanHit(point=point, h1=dim, families=_names(catalog, point)))
    return hits


def unit_maps(order):
    """c -> u*c mod N, as a tuple indexed by c, for each unit u != 1 of
    Z/N."""
    return {
        u: tuple(u * c % order for c in range(order))
        for u in range(2, order)
        if gcd(u, order) == 1
    }


def orbit_representatives(order, length):
    """The lexicographically smallest member of every orbit {u*c mod N : u
    a unit of Z/N} of nonzero vectors c in (Z/N)^length, each once.

    Units keep zero entries and act transitively on the residues with a
    given gcd with N, so the smallest member starts with a divisor d < N
    of N.  Only those vectors are generated, and one is kept when no unit
    u = 1 mod N/d (the units that fix d) maps its tail to a smaller one.
    """
    maps = unit_maps(order)
    for d in range(1, order):
        if order % d:
            continue
        tables = [t for u, t in maps.items() if u % (order // d) == 1]
        for pos in range(length):
            head = (0,) * pos + (d,)
            for tail in product(range(order), repeat=length - pos - 1):
                if not any(tuple(map(t.__getitem__, tail)) < tail for t in tables):
                    yield head + tail


def orbit_scan(proj, order, catalog=None, backend="cyclotomic", eps=1e-9):
    """Reference scan over the whole grid: one Galois-orbit representative
    {u*e mod N : u a unit of Z/N} at a time, decided by the certificates
    (one ``certify_masks`` call per distinct mask pair) or else by the
    band kernel, its answer handed to the whole orbit.  h^1 and family
    membership are Galois invariant (the property tests check the first)."""
    if order == 1:
        return []
    table = incidence_table(proj)
    read_masks = mask_reader(table, order)
    units = unit_maps(order).values()
    certified = {}
    found = []
    for combo in orbit_representatives(order, proj.n - 1):
        point = _scan_point(proj, order, combo)
        masks = read_masks(point.exponents)
        if masks not in certified:
            certified[masks] = certify_masks(table, *masks)[1]
        dim = certified[masks]
        if dim is None:
            dim = h1_at_point(proj, point, backend=backend, eps=eps)
        if dim >= 1:
            names = _names(catalog, point)
            orbit = {combo, *(tuple(map(t.__getitem__, combo)) for t in units)}
            found.extend((member, dim, names) for member in orbit)
    found.sort()
    return [
        ScanHit(point=_scan_point(proj, order, combo), h1=dim, families=names)
        for combo, dim, names in found
    ]


def orbit_closure(proj, order, listing):
    """The closure of a ``candidate_points`` listing under the units and
    the automorphisms: exponents -> h1 for every u*(e o sigma) mod N, u a
    unit of Z/N and sigma in ``proj.automorphisms()``, of every listed
    ``(e, h1)``, (e o sigma)_i = e_sigma(i).  A point that two listed
    points reach with different values is an ``AssertionError``: the
    values of a listing are constant on its orbits."""
    units = [u for u in range(1, order) if gcd(u, order) == 1]
    closure = {}
    for exps, dim in listing:
        for sigma in proj.automorphisms():
            moved = [exps[s] for s in sigma]
            for u in units:
                image = tuple(u * e % order for e in moved)
                assert closure.setdefault(image, dim) == dim, image
    return closure


def point_permutations(proj):
    """Per automorphism sigma, the permutation of the multiple points of
    ``incidence_table(proj)`` it induces: point q to the point on the
    lines sigma(i), i on q."""
    points = incidence_table(proj).points
    index = {p: q for q, p in enumerate(points)}
    return [
        tuple(index[tuple(sorted(sigma[j] for j in p))] for p in points)
        for sigma in proj.automorphisms()
    ]


def is_class_least(perms, resonant, npoints):
    """Whether the set of multiple points ``resonant`` (a bitmask) is the
    least of its class under the point permutations ``perms``, sets read
    as words of bits over the points in table order, 0 before 1."""
    word = [resonant >> q & 1 for q in range(npoints)]
    for pi in perms:
        image = [0] * npoints
        for q in range(npoints):
            if word[q]:
                image[pi[q]] = 1
        if image < word:
            return False
    return True


def _coordinates(rows, v):
    """The x with x_0*rows[0] + x_1*rows[1] + x_2*rows[2] = v, by Fraction
    elimination, or None when the three rows are dependent (as lines,
    concurrent)."""
    m = [[Fraction(r[k]) for r in rows] + [Fraction(v[k])] for k in range(3)]
    for c in range(3):
        pivot = next((i for i in range(c, 3) if m[i][c]), None)
        if pivot is None:
            return None
        m[c], m[pivot] = m[pivot], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for i in range(3):
            if i != c:
                m[i] = [x - m[i][c] * y for x, y in zip(m[i], m[c])]
    return [row[3] for row in m]


def projective_automorphisms(proj):
    """Reference for ``ProjArrangement.automorphisms``: every permutation
    sigma of the lines is tried, none pruned by line type, and kept when a
    projective map takes each line l to line sigma(l).

    The frame is the first four lines in index order of which no three are
    concurrent; with none, the identity alone, as in the library.  A map is
    fixed by the images g of the frame lines f: with a and b the
    coordinates of f_3 and g_3 in the rows of the other three, all nonzero,
    it takes the line of coordinates x to the row sum_i x_i*(b_i/a_i)*g_i
    (up to scale), whose ``canonical_triple`` must be line sigma(l) for
    every l.  The images are worked out once per frame image g."""
    lines = proj.lines
    n = len(lines)
    frame = next(
        (
            quad
            for quad in combinations(range(n), 4)
            if all(
                _coordinates([lines[i] for i in tri], (0, 0, 0)) is not None
                for tri in combinations(quad, 3)
            )
        ),
        None,
    )
    if frame is None:
        return [tuple(range(n))]
    base = [lines[f] for f in frame[:3]]
    a = _coordinates(base, lines[frame[3]])
    coords = [_coordinates(base, line) for line in lines]
    maps = {}
    found = []
    for sigma in permutations(range(n)):
        g = tuple(sigma[f] for f in frame)
        if g not in maps:
            rows = [lines[j] for j in g[:3]]
            b = None
            if _coordinates(rows, (0, 0, 0)) is not None:
                b = _coordinates(rows, lines[g[3]])
            maps[g] = None
            if b is not None and all(b):
                mu = [bi / ai for ai, bi in zip(a, b)]
                maps[g] = [
                    canonical_triple(
                        *(
                            sum(x * m * row[k] for x, m, row in zip(x_l, mu, rows))
                            for k in range(3)
                        )
                    )
                    for x_l in coords
                ]
        images = maps[g]
        if images is not None and all(
            image == lines[s] for image, s in zip(images, sigma)
        ):
            found.append(sigma)
    return found


def node_columns(proj, k, inside):
    """``(d, cols)``, the dense ``_diagonal_form`` of the walk node
    ``charvar._node(proj, k, inside)`` reads its data off: each live
    line's unit vector over all lines followed by its incidence with each
    multiple point, under the rows of the points of ``inside`` and the
    all-ones row."""
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
    return _diagonal_form(rows + [[1] * len(live)], start)


def pack(fields, width):
    """The fields as one integer, ``width`` bits each, the first lowest."""
    return sum(v << width * f for f, v in enumerate(fields))


def span(cols, steps, order, width, top=None):
    """Reference for ``charvar._span``: the same odometer over dense
    columns, each generator packed from all of its fields by ``pack``, its
    points one after the other."""
    gens = [(col, step) for col, step in zip(cols, steps) if step < order]
    if not gens:
        return iter(())
    if top is None:
        top = pack([1 << width - 1] * len(cols[0]), width)
    shift = width - 1
    fix = top - order * (top >> shift)
    inner = [0]
    while gens:
        col, step = gens[-1]
        count = order // step
        if len(inner) * count > _LISTED:
            break
        gens.pop()
        inc = pack([step * c % order for c in col], width)
        multiples = [0]
        for _ in range(count - 1):
            point = multiples[-1] + inc
            multiples.append(point - ((point + fix & top) >> shift) * order)
        inner = [
            (point := m + p) - ((point + fix & top) >> shift) * order
            for m in multiples
            for p in inner
        ]
    incs = []
    acc = [0] * len(cols[0])
    for col, step in reversed(gens):
        acc = [(a + step * c) % order for a, c in zip(acc, col)]
        incs.append(pack(acc, width))
    incs.reverse()
    ends = [order // step - 1 for _, step in gens]

    def lists():
        yield inner[1:]
        digits = [0] * len(gens)
        base = 0
        while True:
            i = len(digits) - 1
            while i >= 0 and digits[i] == ends[i]:
                digits[i] = 0
                i -= 1
            if i < 0:
                return
            digits[i] += 1
            base += incs[i]
            base -= ((base + fix & top) >> shift) * order
            yield [
                (point := base + m) - ((point + fix & top) >> shift) * order
                for m in inner
            ]

    return chain.from_iterable(lists())
