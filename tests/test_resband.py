import dataclasses
import random
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import brute
import corpus
from linecoh import LocalSystem, cone, make_local_system, resband, scalars
from linecoh.charvar import candidate_points
from linecoh.geometry import separating_ids
from linecoh.mincomplex import cohomology_dims, complex_structure
from linecoh.resband import (
    TheoremInapplicableError,
    bands,
    h1_on_band_chart,
    h1_via_bands,
    incidence_table,
    resonant_bands,
    sharp_pairs,
    vanishing_certificates,
)
from linecoh.scalars import (
    CyclotomicBackend,
    rank,
    weight_matrix,
    weight_rank,
    weight_table,
)
from strategies import arrangements, pencils


def test_bands_figure_five_lines():
    arr = corpus.figure_five_lines()
    bs = bands(arr)
    assert [(b.lower, b.upper) for b in bs] == [(1, 2), (2, 3)]
    for b in bs:
        chs = arr.chambers()
        assert not chs[b.u1].bounded and not chs[b.u2].bounded
        assert chs[b.u1].signs < chs[b.u2].signs
        assert chs[b.u1].opposite is chs[b.u2]
        assert len(b.inner) == 3
        assert b.parallel_ids == frozenset({1, 2, 3})


def test_bands_deleted_b3_chart():
    proj, _ = corpus.b3()
    arr = proj.chart(7).arrangement
    bs = bands(arr)
    assert len(bs) == 4
    classes = sorted(tuple(sorted(b.parallel_ids)) for b in bs)
    assert classes == [(0, 1), (2, 3), (4, 5, 6), (4, 5, 6)]


def test_no_bands_without_parallels():
    assert bands(corpus.triangle()) == ()


def test_bands_refuse_a_flagged_arrangement():
    arr = corpus.figure_five_lines()
    with pytest.raises(ValueError, match="not a FlaggedArrangement$"):
        bands(arr.flagged())


def test_bands_refuse_a_projective_arrangement():
    proj = cone(corpus.figure_five_lines())
    with pytest.raises(ValueError, match="not a ProjArrangement$"):
        bands(proj)


def test_resonance_iff_crossing_product_one():
    arr = corpus.figure_five_lines()
    # the two bands are resonant exactly when q1*q5 = 1
    resonant_cases = [
        make_local_system([0, 1, 3, 2, 0], order=4),
        make_local_system([1, 2, 0, 0, 3], order=4),
    ]
    for system in resonant_cases:
        assert len(resonant_bands(system, arr)) == 2
    off = make_local_system([1, 0, 0, 0, 1], order=4)  # q1*q5 = -1
    assert resonant_bands(off, arr) == ()
    trivial = make_local_system([0] * 5, order=1)
    assert len(resonant_bands(trivial, arr)) == 2


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pencils(), st.integers(2, 6), st.data())
def test_pencil_h1_is_lines_minus_two(arr, order, data):
    """n parallel lines: the complement is C x (C minus n points), so a
    nontrivial system has h1 = n - 1, two less than the projective lines.
    Each strip is one chamber, both ends of its band, with a zero wave."""
    exps = data.draw(
        st.lists(st.integers(0, order - 1), min_size=arr.n, max_size=arr.n).filter(
            lambda e: sum(e) % order  # nontrivial at infinity
        )
    )
    proj = cone(arr)
    assert len(bands(arr)) == arr.n - 1
    assert all(b.u1 == b.u2 for b in bands(arr))
    for backend in ("cyclotomic", "complex"):
        system = make_local_system(exps, order=order, backend=backend)
        assert h1_via_bands(system, arr).dim == proj.n - 2
        assert vanishing_certificates(system, proj).h1 == proj.n - 2


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.data())
def test_band_resonance_equals_end_weight_vanishing(seed, order, data):
    """A band's point at infinity is resonant exactly when the weight
    between its two ends vanishes: sep(U_1, U_2) is the set of lines not
    parallel to the band and q over every line, infinity included, is 1."""
    rng = random.Random(seed)
    arr = corpus.random_arrangement(rng, 4, 7)
    exps = data.draw(
        st.lists(st.integers(0, order - 1), min_size=arr.n, max_size=arr.n)
    )
    sep = separating_ids(arr.chambers(), range(arr.n))
    for backend in ("cyclotomic", "complex"):
        system = make_local_system(exps, order=order, backend=backend)
        for b in bands(arr):
            by_point = brute.prod_is_one(system, b.parallel_ids, with_infinity=True)
            assert brute.prod_is_one(system, sep(b.u1, b.u2)) == by_point


def test_resonant_bands_all_four_at_order_two():
    proj, _ = corpus.b3()
    arr = proj.chart(7).arrangement
    qplus = make_local_system([0, 1, 1, 0, 0, 1, 0], order=2)
    assert len(resonant_bands(qplus, arr)) == 4


def test_qplus_wave_values():
    # three waves concentrate 2i on one chamber, the fourth spreads 2i
    # over three chambers (up to a global sign per wave)
    proj, _ = corpus.b3()
    arr = proj.chart(7).arrangement
    system = make_local_system([0, 1, 1, 0, 0, 1, 0], order=2)
    bk = system.backend
    two_i = bk.add(bk.root(1), bk.root(1))
    supports = []
    for band in resonant_bands(system, arr):
        wave = brute.standing_wave(system, arr, band)
        nonzero = {c: v for c, v in wave.items() if not bk.is_zero(v)}
        values = set()
        for v in nonzero.values():
            assert brute.eq(bk, v, two_i) or brute.eq(bk, v, bk.neg(two_i))
            values.add(brute.eq(bk, v, two_i))
        assert len(values) == 1  # constant across the wave
        supports.append(frozenset(nonzero))
    sizes = sorted(len(s) for s in supports)
    assert sizes == [1, 1, 1, 3]
    singles = {s for s in supports if len(s) == 1}
    assert len(singles) == 1  # the three one-chamber waves coincide


def test_standing_wave_supported_on_bounded_chamber():
    arr = corpus.figure_five_lines()
    # q1*q5 = 1 keeps the band resonant; q1 != 1 keeps the wave nonzero
    system = make_local_system([1, 1, 3, 2, 3], order=4)
    bk = system.backend
    band = bands(arr)[0]
    wave = brute.standing_wave(system, arr, band)
    chs = arr.chambers()
    nonzero = {c for c, v in wave.items() if not bk.is_zero(v)}
    bounded = [c for c in band.inner if chs[c].bounded]
    assert nonzero == set(bounded)
    coeff = wave[bounded[0]]
    delta1 = brute.weight(bk, system.halves, (0,))
    assert brute.eq(bk, coeff, delta1) or brute.eq(bk, coeff, bk.neg(delta1))


def test_standing_wave_opposite_end_is_signed_multiple():
    proj, _ = corpus.b3()
    arr = proj.chart(7).arrangement
    rng = random.Random(19)
    checked = 0
    while checked < 12:
        order = rng.randrange(2, 5)
        system = make_local_system(corpus.random_exponents(rng, 7, order), order=order)
        bk = system.backend
        for band in resonant_bands(system, arr):
            w1 = brute.standing_wave(system, arr, band, end=1)
            w2 = brute.standing_wave(system, arr, band, end=2)
            # epsilon is the square root of the product over the lines
            # through the band's point at infinity, which is +-1 here
            s = sum(system.halves[i] for i in band.parallel_ids)
            s -= sum(system.halves)
            eps = bk.root(s)
            assert brute.eq(bk, eps, bk.one) or brute.eq(bk, eps, bk.neg(bk.one))
            for c in band.inner:
                assert brute.eq(bk, w1[c], bk.neg(bk.mul(eps, w2[c])))
            checked += 1


SIZE_MISMATCH_ENTRIES = {
    "h1_via_bands": h1_via_bands,
    "cohomology_dims": lambda system, arr: cohomology_dims(system, arr.flagged()),
    "vanishing_certificates": lambda system, arr: vanishing_certificates(
        system, cone(arr)
    ),
    "h1_on_band_chart": lambda system, arr: h1_on_band_chart(system, cone(arr)),
    "resonant_bands": resonant_bands,
}


@pytest.mark.parametrize("size", [4, 6])
@pytest.mark.parametrize("entry", sorted(SIZE_MISMATCH_ENTRIES))
def test_system_size_mismatch_rejected_everywhere(entry, size):
    # with five lines this system has h^1 = 2; one line fewer or more must
    # be refused, not read as a prefix of the lines or past their end
    arr = corpus.figure_five_lines()
    system = make_local_system([0, 1, 3, 2, 0, 1][:size], order=4)
    assert not brute.infinity_is_one(system)
    with pytest.raises(ValueError, match="size does not match the arrangement"):
        SIZE_MISMATCH_ENTRIES[entry](system, arr)


def test_h1_requires_nontrivial_infinity():
    arr = corpus.figure_five_lines()
    system = make_local_system([0] * 5, order=1)
    with pytest.raises(TheoremInapplicableError):
        h1_via_bands(system, arr)


def test_h1_zero_without_resonant_bands():
    arr = corpus.figure_five_lines()
    system = make_local_system([1, 0, 0, 0, 1], order=4)
    result = h1_via_bands(system, arr)
    assert result.dim == 0 and result.bands == ()


def test_h1_figure_five_lines():
    arr = corpus.figure_five_lines()
    system = make_local_system([0, 1, 3, 2, 0], order=4)
    assert h1_via_bands(system, arr).dim == 2


def test_h1_matches_oracle_randomly():
    rng = random.Random(55)
    arr = corpus.figure_five_lines()
    for _ in range(40):
        order = rng.randrange(2, 6)
        system = make_local_system(corpus.random_exponents(rng, 5, order), order=order)
        if brute.infinity_is_one(system):
            continue
        assert h1_via_bands(system, arr).dim == cohomology_dims(system, arr)[1]


# ---------------------------------------------------------------------------
# the band route's rank over F_p


@lru_cache(maxsize=None)
def _b3_band_points(order):
    """The affine exponents of the nontrivial points of deleted B3 of
    order dividing ``order`` that the certificates leave to the band
    route: the orbit closure of the scan's listing."""
    proj, _ = corpus.b3()
    listed = brute.orbit_closure(proj, order, candidate_points(proj, order))
    return [
        tuple(exps[j] for j in proj.affine_ids())
        for exps, dim in listed.items()
        if dim is None
    ]


@st.composite
def band_route_cases(draw, orders=st.integers(2, 12)):
    """``(proj, exponents, order)``: deleted B3 at a point the certificates
    leave to the band route, or the cone of a random arrangement whose
    lines meet somewhere (the oracle's flag needs a point) at a random
    nontrivial point."""
    order = draw(orders)
    if draw(st.booleans()):
        proj, _ = corpus.b3()
        return proj, draw(st.sampled_from(_b3_band_points(order))), order
    arr = draw(
        arrangements(6, min_lines=3).filter(lambda a: a.intersection_points())
    )
    exps = draw(
        st.lists(st.integers(0, order - 1), min_size=arr.n, max_size=arr.n).filter(any)
    )
    return cone(arr), tuple(exps), order


def _exact_band_h1(system, proj):
    """The kernel dimension of the exact Z[zeta] wave matrix of ``brute``
    on the chart of ``h1_on_band_chart``, and the chamber-complex h1."""
    h, _ = h1_on_band_chart(system, proj)
    mat = brute.wave_matrix(brute.on_chart(system, proj, h), proj.chart(h).arrangement)
    oracle = cohomology_dims(system, proj.chart(proj.infinity_index).arrangement)[1]
    return mat.ncols - rank(mat), oracle


def test_modular_band_h1_equals_exact_wave_kernel(monkeypatch):
    """h1 of the band route, ranked over F_p, equals the kernel dimension of
    the exact wave matrix and the oracle's h1; deleted B3 at orders 8, 10
    and 12 has points whose norm bound needs a second prime (about one in
    ten of its band route points there, such as the explicit examples)."""
    primes_used = []
    reduction = CyclotomicBackend.reduction

    def counted(bk, i):
        primes_used[-1] = max(primes_used[-1], i + 1)
        return reduction(bk, i)

    monkeypatch.setattr(CyclotomicBackend, "reduction", counted)

    b3, _ = corpus.b3()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(band_route_cases())
    @example((b3, (0, 4, 4, 0, 0, 4, 0), 8))
    @example((b3, (1, 5, 5, 1, 2, 6, 10), 12))
    def check(case):
        proj, exps, order = case
        system = make_local_system(exps, order=order)
        primes_used.append(0)
        _, kernel = h1_on_band_chart(system, proj)
        exact, oracle = _exact_band_h1(system, proj)
        assert kernel.dim == exact == oracle

    check()
    assert sum(used >= 2 for used in primes_used) > 0


def _chart_halves(halves, proj, h):
    """The projective ``halves`` in the order of ``proj.chart(h)``'s band
    table: its lines, then h at infinity."""
    return (*[halves[j] for j in proj.chart(h).to_old], halves[h])


@pytest.mark.parametrize("backend", ["cyclotomic", "complex"])
def test_chart_tables_equal_the_chart_systems(backend):
    """On every chart h with q_h != 1, the band route on a fresh band table
    of the chart arrangement, read off the projective halves in chart
    order, gives the ``BandKernel`` (dimension and resonant bands) of
    ``h1_via_bands`` on the chart system ``brute.on_chart`` builds;
    ``h1_on_band_chart`` keeps that table on the chart arrangement for the
    h it picks.  On the exact backend the dimension is also the
    chamber-complex h1."""
    dims = set()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(band_route_cases())
    def check(case):
        proj, exps, order = case
        system = make_local_system(exps, order=order, backend=backend)
        halves = system.projective_halves(proj)
        oracle = None
        if backend == "cyclotomic":
            affine = proj.chart(proj.infinity_index).arrangement
            oracle = cohomology_dims(system, affine)[1]
        tables = {}
        for h in range(proj.n):
            if system.backend.square_is_one(halves[h]):
                continue
            tables[h] = resband.BandTable(proj.chart(h).arrangement)
            in_chart = _chart_halves(halves, proj, h)
            kernel = resband._band_kernel(system.backend, in_chart, tables[h])
            chart_system = brute.on_chart(system, proj, h)
            assert kernel == h1_via_bands(chart_system, proj.chart(h).arrangement)
            assert oracle is None or kernel.dim == oracle
            dims.add(kernel.dim)
        h, kernel = h1_on_band_chart(system, proj)
        kept = proj.chart(h).arrangement._band_table
        assert kept.bands == tables[h].bands
        assert kept.lists == tables[h].lists
        in_chart = _chart_halves(halves, proj, h)
        assert kernel == resband._band_kernel(system.backend, in_chart, tables[h])

    check()
    assert {0, 1, 2} <= dims


@pytest.mark.parametrize("backend", ["cyclotomic", "complex"])
def test_band_tables_keep_layouts_up_to_their_bound(backend, monkeypatch):
    # a table keeps the layout of each set of resonant bands it meets, up
    # to ``_KEPT_LAYOUTS``; past the bound a layout is made per call, and
    # the kernel is the same either way.  Each kernel record equals,
    # hashes and prints as ``BandKernel(dim, bands)`` and refuses
    # assignment
    proj, _ = corpus.b3()
    rng = random.Random(11)
    kernels = []
    for _ in range(300):
        order = rng.randrange(2, 7)
        exps = [rng.randrange(order) for _ in range(7)]
        system = make_local_system(exps, order=order, backend=backend)
        found = h1_on_band_chart(system, proj)
        if found is not None:
            kernels.append((system, *found))
    monkeypatch.setattr(resband, "_KEPT_LAYOUTS", 1)
    fresh = {}
    for system, h, kernel in kernels:
        if h not in fresh:
            fresh[h] = resband.BandTable(proj.chart(h).arrangement)
        halves = _chart_halves(system.projective_halves(proj), proj, h)
        assert resband._band_kernel(system.backend, halves, fresh[h]) == kernel
        built = resband.BandKernel(kernel.dim, kernel.bands)
        assert type(kernel) is resband.BandKernel
        assert kernel == built and hash(kernel) == hash(built)
        assert repr(kernel) == repr(built)
        with pytest.raises(dataclasses.FrozenInstanceError):
            kernel.dim = 0
    assert all(len(table._layouts) == 1 for table in fresh.values())
    assert {kernel.dim for _, _, kernel in kernels} >= {0, 1, 2}
    assert len({len(kernel.bands) for _, _, kernel in kernels}) >= 3


def test_one_band_table_per_arrangement():
    """An affine arrangement keeps one ``BandTable``: ``h1_via_bands`` on
    it and ``h1_on_band_chart`` on its cone, whose infinity chart it is,
    read the same table and give equal kernels.  With trivial infinity the
    chart of the first line with q != 1 is read, and its table is the one
    kept on that chart's arrangement."""
    arr = corpus.figure_five_lines()
    proj = cone(arr)
    system = make_local_system([0, 1, 3, 2, 0], order=4)
    kernel = h1_via_bands(system, arr)
    table = arr._band_table
    assert table is not None and bands(arr) is table.bands
    assert h1_on_band_chart(system, proj) == (proj.infinity_index, kernel)
    assert arr._band_table is table and kernel.dim == 2

    trivial = make_local_system([1, 3, 0, 0, 0], order=4)
    assert brute.infinity_is_one(trivial)
    h, kernel = h1_on_band_chart(trivial, proj)
    chart = proj.chart(h)
    assert h == 0 and chart.arrangement is not arr
    assert arr._band_table is table
    kept = chart.arrangement._band_table
    assert kept is not None and bands(chart.arrangement) is kept.bands
    chart_system = brute.on_chart(trivial, proj, h)
    assert kernel == h1_via_bands(chart_system, chart.arrangement)
    assert chart.arrangement._band_table is kept
    assert cohomology_dims(trivial, arr)[1] == kernel.dim


class _HalvesOnly(CyclotomicBackend):
    """The exact backend's half arithmetic mod ``order`` alone, without
    the power and weight tables an order in the thousands makes large."""

    def __init__(self, order):
        self.order = order


def test_band_table_sums_past_the_packed_bound():
    """A read of a ``BandTable`` is the sums of its id lists mod M, read
    after read, also at an order M past 2 ``MAX_TORSION_ORDER``: at M =
    5600, halves M - 1 put 67,188 in the field of a wave of 12 ids, past
    16 bits, though the last field (11 ids) keeps its carry.  Such a read
    leaves the table unpacked, and one at M = 2000 packs it.  The chamber
    complex's table reads the same way: its d0 ends in all 16 lines,
    89,584 at M = 5600."""
    arr = corpus.sixteen_lines()
    table = resband.BandTable(arr)
    assert max(map(len, table.lists)) == 12 and len(table.lists[-1]) == 11
    structure = complex_structure(arr.flagged())
    cx_table = structure.table
    assert cx_table.lists == (*structure.d0, *(ids for *_, ids in structure.d1))
    assert len(cx_table.lists[len(structure.d0) - 1]) == 16
    rng = random.Random(5)
    for table, nids in ((table, 17), (cx_table, 16)):
        for m in (5600, 5600, 2000, 2000):
            for halves in ([m - 1] * nids, [rng.randrange(m) for _ in range(nids)]):
                expected = [sum(halves[i] for i in ids) % m for ids in table.lists]
                assert table.sums(_HalvesOnly(m), halves) == expected
            assert (table._packed is None) == (m != 2000)


# the primes = 1 (mod 12) below 110, for order 6: one of them divides the
# norm of 4 + sqrt(3), a minor of weights 2i sin(pi s / 6)
SMALL_PRIMES = (13, 37, 61, 73, 97, 109)


def _small_prime_backend(primes):
    """``CyclotomicBackend(12)`` with its prime table patched to ``primes``
    (then, past them, the usual primes below 2^62)."""
    bk = CyclotomicBackend(12)
    bk._reductions = [(p, weight_table(12, p)) for p in primes]
    return bk


@pytest.fixture
def ranks_mod_p(monkeypatch):
    """The ranks over F_p that ``weight_rank`` computes, in call order."""
    ranks = []
    rank_mod = scalars._rank_mod

    def recorded(p, vectors):
        ranks.append(rank_mod(p, vectors))
        return ranks[-1]

    monkeypatch.setattr(scalars, "_rank_mod", recorded)
    return ranks


# columns of half exponents mod 12, 1 to 4 rows and columns
WEIGHT_COLUMNS = st.integers(1, 4).flatmap(
    lambda nrows: st.lists(
        st.lists(st.integers(0, 11), min_size=nrows, max_size=nrows),
        min_size=1,
        max_size=4,
    )
)


@pytest.mark.parametrize("primes", [SMALL_PRIMES, SMALL_PRIMES[::-1]])
def test_small_primes_drop_ranks_but_not_the_rank(primes, ranks_mod_p):
    """With the prime table patched to small primes, the rank of a weight
    matrix mod some prime falls below its rank over Q(zeta); the maximum
    over the primes whose product passes the norm bound is still exact.
    The explicit examples drop mod 13: a 2 x 2 minor, and the same pair
    of columns with their negatives and two zero rows, a rank-2 matrix
    whose bound (k = 4) needs all six primes, 13 last in falling order."""
    bk = _small_prime_backend(primes)
    drops = 0

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(WEIGHT_COLUMNS)
    @example([[1, 3], [3, 8]])
    @example([[1, 3, 0, 0], [3, 8, 0, 0], [7, 9, 0, 0], [9, 2, 0, 0]])
    def check(columns):
        nonlocal drops
        exact = rank(weight_matrix(bk, columns))
        ranks_mod_p.clear()
        assert weight_rank(bk, columns) == exact
        drops += any(r < exact for r in ranks_mod_p)

    check()
    assert drops > 0


@pytest.mark.parametrize("primes", [SMALL_PRIMES, SMALL_PRIMES[::-1]])
def test_small_primes_keep_band_h1_exact(primes):
    """The band route on the patched backend still gives the exact h1.
    (Its wave matrices showed no drop mod these primes: their minors seem
    to have norms divisible only by primes dividing 2N.)"""
    bk = _small_prime_backend(primes)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(band_route_cases(orders=st.just(6)))
    def check(case):
        proj, exps, order = case
        system = make_local_system(exps, order=order)
        _, kernel = h1_on_band_chart(LocalSystem(bk, system.halves), proj)
        exact, oracle = _exact_band_h1(system, proj)
        assert kernel.dim == exact == oracle

    check()


def test_zero_columns_need_no_prime():
    """A column whose half exponents are all 0 or M/2 is zero, so k counts
    only the other columns: all-zero columns give rank 0 without a prime,
    and zero columns beside nonzero ones leave the rank alone."""
    bk = CyclotomicBackend(2000)
    assert weight_rank(bk, [(0, 1000, 0), (1000, 1000, 0)]) == 0
    assert weight_rank(bk, [(0,), (1000,)]) == 0
    assert bk._reductions == []
    assert weight_rank(bk, [(0, 1000, 0), (1, 2, 3), (1000, 0, 0)]) == 1


def test_fig1_order_1000_band_route_needs_no_prime(monkeypatch):
    """The fig1 system of order 1000 whose wave matrix is two zero columns:
    h1 = 2, as the chamber complex says, with no prime drawn."""
    monkeypatch.setattr(CyclotomicBackend, "reduction", None)
    arr = corpus.figure_five_lines()
    system = make_local_system([0, 250, 750, 500, 0], order=1000)
    assert h1_via_bands(system, arr).dim == 2


# ---------------------------------------------------------------------------
# certificates


def test_certificate_no_resonant_point():
    proj, _ = corpus.b3()
    # q on fifth line nontrivial, both its multiple points non-resonant
    system = make_local_system([1, 0, 0, 0, 1, 0, 0], order=5)
    report = vanishing_certificates(system, proj)
    assert report.h1 == 0
    assert (4, 0, None) in report.rows  # no resonant point on the fifth line
    assert cohomology_dims(system, proj.chart(7).arrangement)[1] == 0


def test_certificate_unique_point_dimension_two():
    proj, _ = corpus.b3()
    # quadruple point resonant, first four lines trivial
    system = make_local_system([0, 0, 0, 0, 1, 1, 1], order=5)
    report = vanishing_certificates(system, proj)
    assert report.h1 == 2
    table = incidence_table(proj)
    ((h1, k),) = [(h1, k) for h, h1, k in report.rows if h == 4]
    assert h1 == 2 and table.points[k] == (4, 5, 6, 7)  # unique resonant point
    assert not report.nontrivial & table.off_mask[k]  # lines off it trivial
    chart = proj.chart(4)
    exps = [[0, 0, 0, 0, 1, 1, 1][o] if o != 7 else 2 for o in chart.to_old]
    moved = make_local_system(exps, order=5)
    assert cohomology_dims(moved, chart.arrangement)[1] == 2


def test_certificate_unique_point_not_all_trivial():
    proj, _ = corpus.b3()
    # same resonant point but a line missing it is nontrivial
    system = make_local_system([1, 0, 0, 0, 1, 1, 1], order=5)
    report = vanishing_certificates(system, proj)
    assert report.h1 == 0


def test_certificate_triple_point_dimension_one():
    proj, _ = corpus.b3()
    # q2*q3*q5 = 1 with all lines off that point trivial
    system = make_local_system([0, 1, 1, 0, 3, 0, 0], order=5)
    report = vanishing_certificates(system, proj)
    assert report.h1 == 1


def test_certificates_never_contradict_oracle():
    proj, _ = corpus.b3()
    chart = proj.chart(7)
    rng = random.Random(71)
    seen = 0
    for _ in range(120):
        order = rng.randrange(2, 5)
        exps = corpus.random_exponents(rng, 7, order)
        system = make_local_system(exps, order=order)
        report = vanishing_certificates(system, proj)
        if report.h1 is None:
            continue
        seen += 1
        assert cohomology_dims(system, chart.arrangement)[1] == report.h1
    assert seen > 20


def test_unique_resonant_point_gives_disjoint_wave_supports():
    proj, _ = corpus.b3()
    chart = proj.chart(4)
    exps = [[0, 0, 0, 0, 1, 1, 1, 2][o] for o in chart.to_old]
    system = make_local_system(exps, order=5)
    res = resonant_bands(system, chart.arrangement)
    assert len(res) == 2
    supports = [set(b.inner) for b in res]
    assert supports[0].isdisjoint(supports[1])
    assert h1_via_bands(system, chart.arrangement).dim == 2


# ---------------------------------------------------------------------------
# sharp pairs


def test_sharp_pair_first_vertical_and_infinity():
    fig2 = corpus.sharp_pair_arrangement()
    proj = cone(fig2)
    system = make_local_system([1] + [0] * 10, order=3)
    pairs = sharp_pairs(proj, vanishing_certificates(system, proj))
    assert [sp.pair for sp in pairs] == [(0, 11)]


def test_two_lines_sharp_trivially():
    proj = cone(corpus.triangle())
    system = make_local_system([1, 1, 1], order=3)
    pairs = sharp_pairs(proj, vanishing_certificates(system, proj))
    assert pairs  # every pair of nontrivial lines bounds an empty region


def test_sharp_pair_bound_attained():
    fig2 = corpus.sharp_pair_arrangement()
    proj = cone(fig2)
    system = make_local_system([1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1], order=2)
    pairs = sharp_pairs(proj, vanishing_certificates(system, proj))
    match = [sp for sp in pairs if sp.hypothesis_holds and sp.bound is not None]
    assert match and all(sp.bound == 1 for sp in match)
    assert cohomology_dims(system, fig2)[1] == 1


def test_sharp_pair_forced_zero():
    fig2 = corpus.sharp_pair_arrangement()
    proj = cone(fig2)
    system = make_local_system([0, 0, 1, 0, 1, 1, 1, 1, 1, 0, 1], order=2)
    pairs = sharp_pairs(proj, vanishing_certificates(system, proj))
    zero = [sp for sp in pairs if sp.bound == 0]
    assert any(sp.pair == (7, 8) for sp in zero)
    assert cohomology_dims(system, fig2)[1] == 0


def test_no_sharp_pairs_when_h1_is_two():
    proj, _ = corpus.b3()
    qplus = make_local_system([0, 1, 1, 0, 0, 1, 0], order=2)
    assert sharp_pairs(proj, vanishing_certificates(qplus, proj)) == ()
