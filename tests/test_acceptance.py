"""Acceptance suite: one test per numbered criterion.

Each test prints an ``ACCEPTANCE <k> PASS`` line (visible with ``pytest -s``)
and enforces its stated runtime budget where one exists.
"""

import random
import time
from itertools import product

import pytest

import brute
import corpus
from linecoh import LocalSystem, cone, h1_at_point, make_local_system, torsion_scan
from linecoh.charvar import TorusPoint, candidate_points
from linecoh.mincomplex import build_complex, cohomology_dims
from linecoh.resband import (
    h1_on_band_chart,
    h1_via_bands,
    resonant_bands,
    sharp_pairs,
    vanishing_certificates,
)
from linecoh.scalars import Matrix, matmul, rank

QPLUS = (0, 1, 1, 0, 0, 1, 0)
QMINUS = (1, 0, 0, 1, 0, 1, 0)
CAP = 5000

_FIG1 = corpus.figure_five_lines()
_RANDOM = None
_ORACLE_CACHE = None


def _announce(num, text):
    print(f"\nACCEPTANCE {num} PASS: {text}")


def _random_corpus():
    global _RANDOM
    if _RANDOM is None:
        rng = random.Random(987)
        _RANDOM = [
            ("random5", corpus.random_arrangement(rng, nmin=5, nmax=5)),
            ("random6", corpus.random_arrangement(rng, nmin=6, nmax=6)),
        ]
    return _RANDOM


def _oracle_corpus():
    proj, _ = corpus.b3()
    out = [("figure5", _FIG1)]
    for h in (4, 7, 5, 2):
        out.append((f"b3_chart_H{h + 1}", proj.chart(h).arrangement))
    out.extend(_random_corpus())
    return out


def _eligible_systems(n):
    """Torsion systems with N in {2,3,4} and nontrivial infinity monodromy,
    in deterministic order, capped per arrangement."""
    count = 0
    for order in (2, 3, 4):
        for exps in product(range(order), repeat=n):
            if sum(exps) % order == 0:
                continue
            yield order, exps
            count += 1
            if count >= CAP:
                return


def _oracle_results():
    global _ORACLE_CACHE
    if _ORACLE_CACHE is None:
        t0 = time.monotonic()
        results = {}
        for name, arr in _oracle_corpus():
            for order, exps in _eligible_systems(arr.n):
                system = make_local_system(exps, order=order)
                band = h1_via_bands(system, arr).dim
                oracle = cohomology_dims(system, arr)[1]
                assert band == oracle, (name, order, exps, band, oracle)
                results[(name, order, exps)] = band
        _ORACLE_CACHE = (results, time.monotonic() - t0)
    return _ORACLE_CACHE


def test_criterion_1_cochain_property():
    t0 = time.monotonic()
    rng = random.Random(20260810)
    for _ in range(200):
        arr = corpus.random_arrangement(rng, nmin=3, nmax=6)
        order = rng.randrange(1, 7)
        system = make_local_system(
            corpus.random_exponents(rng, arr.n, order), order=order
        )
        assert build_complex(system, arr).cochain_ok()
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    _announce(1, f"d1*d0 = 0 for 200 random pairs in {elapsed:.1f}s")


def test_criterion_2_betti_and_flag_invariants():
    checked = []
    for name, arr in _oracle_corpus():
        fl = arr.flagged()
        expected2 = arr.point_index_sum()
        assert len(fl.u_index[:1]) == 1
        assert len(fl.ch1) == arr.n
        assert len(fl.ch2) == expected2
        trivial = make_local_system([0] * arr.n, order=1)
        assert cohomology_dims(trivial, arr) == (1, arr.n, expected2)
        checked.append(name)
    _announce(2, f"flag partition and trivial dims on {', '.join(checked)}")


def test_criterion_3_oracle_equivalence():
    results, elapsed = _oracle_results()
    assert elapsed < 600
    _announce(
        3,
        f"band kernel = chamber complex h1 on {len(results)} systems "
        f"in {elapsed:.1f}s",
    )


def _criterion4_dims(backend="cyclotomic", flip=False):
    dims = {}
    for exps in product(range(4), repeat=5):
        if sum(exps) % 4 == 0:
            continue  # trivial infinity monodromy
        system = make_local_system(exps, order=4, backend=backend)
        if flip:
            system = brute.flipped(system)
        dims[exps] = h1_via_bands(system, _FIG1).dim
    return dims


def _check_criterion4(dims):
    assert len(dims) == 768
    for exps, dim in dims.items():
        expected = 2 if exps[0] % 4 == 0 and exps[4] % 4 == 0 else 0
        assert dim == expected, (exps, dim, expected)


def test_criterion_4_five_line_regression():
    dims = _criterion4_dims()
    _check_criterion4(dims)
    _announce(4, "h1 = 2 exactly when the two slanted lines are trivial "
                 "(768 order-4 systems)")


def _wave_groups(system, arr):
    """Group resonant bands whose standing waves agree up to a global sign,
    recording each member's sign relative to the group representative."""
    bk = system.backend
    groups = []
    for band in resonant_bands(system, arr):
        wave = brute.standing_wave(system, arr, band)
        support = {c: v for c, v in wave.items() if not bk.is_zero(v)}
        placed = False
        for ref, members in groups:
            if set(ref) != set(support):
                continue
            if all(brute.eq(bk, ref[c], support[c]) for c in ref):
                members.append((band, 1))
                placed = True
                break
            if all(brute.eq(bk, ref[c], bk.neg(support[c])) for c in ref):
                members.append((band, -1))
                placed = True
                break
        if not placed:
            groups.append((support, [(band, 1)]))
    return [g[1] for g in groups]


def _criterion5_case(exps, backend="cyclotomic", flip=False):
    proj, _ = corpus.b3()
    arr = proj.chart(7).arrangement
    system = make_local_system(exps, order=2, backend=backend)
    if flip:
        system = brute.flipped(system)
    result = h1_via_bands(system, arr)
    assert result.dim == 2
    assert cohomology_dims(system, arr)[1] == 2
    groups = sorted(_wave_groups(system, arr), key=len)
    assert [len(g) for g in groups] == [1, 3]
    triple = groups[1]
    bk = system.backend
    cols = {band: k for k, band in enumerate(result.bands)}
    # the kernel is spanned by the pairwise relations among the three bands
    # with proportional waves: s_u e_u - s_v e_v kills s_u w_u = s_v w_v
    waves = brute.wave_matrix(system, arr)
    target = []
    for (u, su), (v, sv) in zip(triple, triple[1:]):
        vec = [bk.zero] * len(result.bands)
        vec[cols[u]] = bk.one if su > 0 else bk.neg(bk.one)
        vec[cols[v]] = bk.neg(bk.one) if sv > 0 else bk.one
        assert matmul(waves, Matrix(bk, [[x] for x in vec])).is_zero()
        target.append(vec)
    assert rank(Matrix(bk, target)) == waves.ncols - rank(waves) == result.dim


def test_criterion_5_deleted_b3_regression():
    for exps in (QPLUS, QMINUS):
        _criterion5_case(exps)
    _announce(5, "h1 = 2 at both order-2 points; kernels span the "
                 "differences of the three equal standing waves")


def test_criterion_6_full_reproduction():
    t0 = time.monotonic()
    proj, catalog = corpus.b3()
    hits = torsion_scan(proj, 2, catalog=catalog)
    hit_keys = {h.point.exponents for h in hits}
    member_keys = set()
    for combo in product(range(2), repeat=7):
        if not any(combo):
            continue
        exps = (*combo, (-sum(combo)) % 2)
        pt = TorusPoint(exps, 2)
        if any(f.contains(pt) for f in catalog):
            member_keys.add(exps)
    assert hit_keys == member_keys
    assert all(h.families for h in hits)

    samples = {
        1: [(1,), (2,), (3,)],
        2: [(1, 1), (1, 2), (2, 1)],
        3: [(1, 1, 1), (1, 2, 3), (2, 1, 4)],
    }
    for fam in catalog:
        for params in samples[fam.nparams]:
            point = brute.family_point(fam, params, 5)
            assert h1_at_point(proj, point) >= 1, fam.name

    cases = [
        ([1, 0, 0, 0, 1, 0, 0], 0),  # no resonant point on the pivot line
        ([0, 0, 0, 0, 1, 1, 1], 2),  # unique resonant quadruple point
        ([0, 1, 1, 0, 3, 0, 0], 1),  # unique resonant triple point
    ]
    for exps, expected in cases:
        system = make_local_system(exps, order=5)
        report = vanishing_certificates(system, proj)
        assert report.h1 == expected
        assert cohomology_dims(system, proj.chart(7).arrangement)[1] == expected
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    _announce(
        6,
        f"order-2 scan = catalog points ({len(hit_keys)}), 13 families "
        f"supported, three case certificates, in {elapsed:.1f}s",
    )


def test_criterion_7_square_root_convention_independence():
    results, _ = _oracle_results()
    arrs = dict(_oracle_corpus())
    for (name, order, exps), dim in results.items():
        system = brute.flipped(make_local_system(exps, order=order))
        assert h1_via_bands(system, arrs[name]).dim == dim
    _check_criterion4(_criterion4_dims(flip=True))
    for exps in (QPLUS, QMINUS):
        _criterion5_case(exps, flip=True)
    _announce(7, f"flipped square roots reproduce all {len(results)} corpus "
                 "dimensions and the two regressions")


def _sixteen_line_case(halves, resonant, dim):
    """The exact band route at the bounds of its packed sums: 16 lines,
    order 1000, halves up to 1999, and the same halves unreduced (2000
    less on odd lines, 4000 more on even ones) in a ``LocalSystem``.
    Each gives the floating backend's resonant bands and h1, by
    ``h1_via_bands`` and on the cone's chart, and the floating chamber
    complex agrees.  The exact systems read one table several times, the
    first read packing it."""
    arr = corpus.sixteen_lines()
    floating = make_local_system(halves, order=1000, backend="complex")
    exact = make_local_system(halves, order=1000)
    unreduced = LocalSystem(
        exact.backend,
        [h - 2000 if i % 2 else h + 4000 for i, h in enumerate(halves)],
    )
    bands = resonant_bands(floating, arr)
    assert len(bands) == resonant
    assert cohomology_dims(floating, arr)[1] == dim
    for system in (floating, exact, unreduced):
        assert resonant_bands(system, arr) == bands
        assert h1_via_bands(system, arr).dim == dim
        assert h1_on_band_chart(system, cone(arr))[1].dim == dim


def test_criterion_8_backend_agreement():
    _check_criterion4(_criterion4_dims(backend="complex"))
    for exps in (QPLUS, QMINUS):
        _criterion5_case(exps, backend="complex")
    for case in corpus.SIXTEEN_LINE_SYSTEMS:
        _sixteen_line_case(*case)
    _announce(
        8,
        "floating backend (eps = 1e-9) matches both regressions and three "
        "order-1000 systems on 16 lines",
    )


def test_criterion_9_sharp_pair_bound():
    t0 = time.monotonic()
    fig2 = corpus.sharp_pair_arrangement()
    proj = cone(fig2)
    inf = proj.infinity_index
    # the systems at which every line with q != 1 carries at least two
    # resonant points and the pair (line 0, infinity) has q != 1: the
    # scan's (B) points with those two lines nontrivial, the orbit closure
    # of its listing under the units and the automorphisms; order-2
    # systems sit inside the order-4 grid
    survivors = [
        (order, exps[:inf] + exps[inf + 1 :])
        for order in (3, 4)
        for exps, certified in brute.orbit_closure(
            proj, order, candidate_points(proj, order)
        ).items()
        if certified is None and exps[0] and exps[inf]
    ]
    assert len(survivors) == 4354
    # the order-3 survivors again, read off every grid point by the
    # incidence sets of the multiple points alone
    points = [p.incident for p in proj.multiple_points()]
    at_three = []
    for affine in product(range(3), repeat=fig2.n):
        exps = affine[:inf] + (-sum(affine) % 3,) + affine[inf:]
        if not (exps[0] and exps[inf]):
            continue
        resonant = [p for p in points if not sum(exps[j] for j in p) % 3]
        if all(
            not exps[h] or sum(h in p for p in resonant) >= 2 for h in range(proj.n)
        ):
            at_three.append(affine)
    assert at_three == sorted(exps for order, exps in survivors if order == 3)
    for order, exps in survivors:
        system = make_local_system(exps, order=order)
        assert cohomology_dims(system, fig2)[1] <= 1, (order, exps)
    # the configured pair is indeed reported sharp with the <=1 bound
    order, exps = survivors[0]
    system = make_local_system(exps, order=order)
    report = vanishing_certificates(system, proj)
    reported = {sp.pair: sp for sp in sharp_pairs(proj, report)}
    assert (0, inf) in reported
    assert reported[(0, inf)].hypothesis_holds
    assert reported[(0, inf)].bound is not None

    # h1 >= 2 never coexists with a sharp pair satisfying the two-resonant-
    # points hypothesis (pairs through a single resonant pencil point may
    # be sharp, but there the hypothesis fails and the bound says nothing)
    b3, catalog = corpus.b3()
    two_dim = 0
    for hit in torsion_scan(b3, 2, catalog=catalog):
        if hit.h1 >= 2:
            two_dim += 1
            loaded = make_local_system(hit.point.exponents[:7], order=2)
            report = vanishing_certificates(loaded, b3)
            assert all(
                not sp.hypothesis_holds for sp in sharp_pairs(b3, report)
            ), hit.point.exponents
    assert two_dim
    _announce(
        9,
        f"oracle h1 <= 1 on {len(survivors)} hypothesis-satisfying systems; "
        f"no qualifying sharp pair at any of the {two_dim} two-dimensional "
        f"scan hits, in {time.monotonic() - t0:.1f}s",
    )
