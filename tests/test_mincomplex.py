import random

import pytest

import brute
import corpus
from linecoh import LocalSystem, bands, make_local_system
from linecoh.mincomplex import (
    build_complex,
    cohomology_dims,
    complex_structure,
)
from linecoh.scalars import ComplexBackend, CyclotomicBackend, rank


def test_d0_structure_five_lines():
    fl = corpus.figure_five_lines().flagged()
    structure = complex_structure(fl)
    assert structure.d0 == ((0,), (0, 1), (0, 1, 2), (0, 1, 2, 3), (0, 1, 2, 3, 4))


def _figure_row_labels(arr):
    """Identify the six degree-2 chambers of the five-line figure: the
    opposites of U_1..U_4 and the bounded chambers of the two bands.
    ``band.inner`` holds arrangement chamber indices; they index the
    flagged chambers too because this flag keeps the line order and every
    sign, which is checked first."""
    fl = arr.flagged()
    chs = fl.chambers
    assert fl.order == tuple(range(arr.n))
    assert [ch.signs for ch in chs] == [ch.signs for ch in arr.chambers()]
    labels = {}
    for p in range(1, 5):
        labels[f"U{p}v"] = chs[fl.u_index[p]].opposite.index
    for band in bands(arr):
        inner_bounded = [i for i in band.inner if chs[i].bounded]
        assert len(inner_bounded) == 1
        key = "C1" if band.lower == 1 else "C2"
        labels[key] = inner_bounded[0]
    return labels


EXPECTED_D1 = {
    ("U1v", 0): (1, (0, 1, 2, 3, 4)),
    ("U2v", 0): (1, (0, 1, 4)),
    ("U3v", 0): (1, (0, 1, 2, 4)),
    ("C1", 0): (1, (0, 1)),
    ("U2v", 1): (-1, (0, 4)),
    ("C1", 1): (-1, (0,)),
    ("U3v", 2): (-1, (0, 4)),
    ("C2", 2): (-1, (4,)),
    ("U2v", 3): (1, (0, 2, 3, 4)),
    ("U3v", 3): (1, (0, 3, 4)),
    ("U4v", 3): (1, (0, 1, 2, 3, 4)),
    ("C2", 3): (1, (3, 4)),
    ("U1v", 4): (-1, (0,)),
    ("U2v", 4): (-1, (0, 2, 3)),
    ("U3v", 4): (-1, (0, 3)),
    ("U4v", 4): (-1, (0, 1, 2, 3)),
    ("C2", 4): (-1, (3,)),
}


def test_d1_structure_matches_reference_matrix():
    arr = corpus.figure_five_lines()
    structure = complex_structure(arr.flagged())
    labels = _figure_row_labels(arr)
    row_of = {idx: structure.basis2.index(idx) for idx in labels.values()}
    name_of_row = {row_of[idx]: name for name, idx in labels.items()}
    got = {
        (name_of_row[row], col): (sign, ids)
        for row, col, sign, ids in structure.d1
    }
    assert got == EXPECTED_D1


def _assert_brute_entries(system, arr, halves):
    """Every entry of ``build_complex(system, arr)`` is brute's weight of
    its separating set under ``halves`` (the halves the system was given,
    reduced or not), signed in d1, and d1 is zero elsewhere."""
    bk = system.backend
    cx = build_complex(system, arr)
    structure = cx.structure
    assert len(cx.d0.rows) == len(structure.d0)
    for (value,), ids in zip(cx.d0.rows, structure.d0):
        assert brute.eq(bk, value, brute.weight(bk, halves, ids))
    expected = [[bk.zero] * structure.n for _ in structure.basis2]
    for row, col, sign, ids in structure.d1:
        weight = brute.weight(bk, halves, ids)
        expected[row][col] = bk.neg(weight) if sign < 0 else weight
    assert len(cx.d1.rows) == len(expected)
    for got, want in zip(cx.d1.rows, expected):
        assert all(map(brute.eq, [bk] * len(got), got, want))


@pytest.mark.parametrize("backend", ["cyclotomic", "complex"])
def test_entries_are_brute_weights(backend):
    rng = random.Random(8)
    proj, _ = corpus.b3()
    for arr in (corpus.figure_five_lines(), proj.chart(7).arrangement):
        for order in (1, 2, 3, 5, 12):
            exps = corpus.random_exponents(rng, arr.n, order)
            system = make_local_system(exps, order=order, backend=backend)
            _assert_brute_entries(system, arr, system.halves)


def test_entries_of_halves_given_unreduced():
    # a LocalSystem reduces exact halves once, when it is built; the
    # table's packed read of the complex needs them in [0, M)
    arr = corpus.figure_five_lines()
    bk = CyclotomicBackend(8)
    for halves in ((-1, 9, 17, -15, 3), (-7, -8, 8, 23, -33)):
        system = LocalSystem(bk, halves)
        assert system.halves == tuple(h % 8 for h in halves)
        _assert_brute_entries(system, arr, halves)
    values = (-1j, 2 + 0j, 0.5j, 1 + 1j, -1 + 0j)
    _assert_brute_entries(LocalSystem(ComplexBackend(), values), arr, values)


def test_sixteen_line_entries_at_order_1000():
    # 16 lines at order 1000: every packed field sums up to 16 halves of
    # up to 1999, as given and with 2000 less on odd lines, 4000 more on
    # even ones
    arr = corpus.sixteen_lines()
    for halves, _, _ in corpus.SIXTEEN_LINE_SYSTEMS:
        floating = make_local_system(halves, order=1000, backend="complex")
        exact = make_local_system(halves, order=1000)
        unreduced = [h - 2000 if i % 2 else h + 4000 for i, h in enumerate(halves)]
        _assert_brute_entries(floating, arr, floating.halves)
        _assert_brute_entries(exact, arr, halves)
        _assert_brute_entries(LocalSystem(exact.backend, unreduced), arr, unreduced)


def test_trivial_system_zero_differentials():
    arr = corpus.figure_five_lines()
    system = make_local_system([0] * 5, order=1)
    fl = arr.flagged()
    cx = build_complex(system, fl)
    assert cx.d0.is_zero()
    assert cx.d1.is_zero()
    assert cohomology_dims(system, arr) == (1, 5, 6)


def test_cochain_condition_random():
    rng = random.Random(42)
    for _ in range(20):
        arr = corpus.random_arrangement(rng)
        order = rng.randrange(1, 7)
        system = make_local_system(
            corpus.random_exponents(rng, arr.n, order), order=order
        )
        assert build_complex(system, arr).cochain_ok()


def test_h1_two_when_outer_lines_trivial():
    arr = corpus.figure_five_lines()
    system = make_local_system([0, 1, 3, 2, 0], order=4)
    assert not brute.infinity_is_one(system)
    assert cohomology_dims(system, arr) == (0, 2, 4)


def test_deleted_b3_qplus_qminus():
    proj, _ = corpus.b3()
    arr = proj.chart(7).arrangement
    qplus = make_local_system([0, 1, 1, 0, 0, 1, 0], order=2)
    qminus = make_local_system([1, 0, 0, 1, 0, 1, 0], order=2)
    assert cohomology_dims(qplus, arr)[1] == 2
    assert cohomology_dims(qminus, arr)[1] == 2


def test_euler_characteristic_constant():
    rng = random.Random(77)
    for _ in range(8):
        arr = corpus.random_arrangement(rng)
        chi = 1 - arr.n + arr.point_index_sum()
        for _ in range(4):
            order = rng.randrange(1, 6)
            system = make_local_system(
                corpus.random_exponents(rng, arr.n, order), order=order
            )
            h0, h1, h2 = cohomology_dims(system, arr)
            assert h0 - h1 + h2 == chi
            assert min(h0, h1, h2) >= 0


def test_d0_last_entry_is_infinity_weight():
    # the coefficient on the all-positive chamber equals the weight of the
    # full line set, i.e. +-(h_inf - 1/h_inf)
    rng = random.Random(6)
    arr = corpus.figure_five_lines()
    fl = arr.flagged()
    for _ in range(15):
        order = rng.randrange(1, 7)
        system = make_local_system(corpus.random_exponents(rng, 5, order), order=order)
        bk = system.backend
        entry = build_complex(system, fl).d0.rows[arr.n - 1][0]
        k = -sum(system.halves)
        hinf = brute.half_infinity(system)
        expected = bk.sub(hinf, bk.root(-k))
        assert brute.eq(bk, entry, expected) or brute.eq(bk, entry, bk.neg(expected))


def test_nontrivial_infinity_kills_h0():
    rng = random.Random(123)
    arr = corpus.figure_five_lines()
    for _ in range(20):
        order = rng.randrange(2, 7)
        system = make_local_system(corpus.random_exponents(rng, 5, order), order=order)
        h0 = cohomology_dims(system, arr)[0]
        if brute.infinity_is_one(system):
            continue
        assert h0 == 0
        assert rank(build_complex(system, arr).d0) == 1


def test_flag_independence_of_dimensions():
    rng = random.Random(4)
    proj, _ = corpus.b3()
    arr = proj.chart(7).arrangement
    for _ in range(6):
        order = rng.randrange(2, 5)
        system = make_local_system(corpus.random_exponents(rng, 7, order), order=order)
        d0 = cohomology_dims(system, arr.flagged(0))
        d1 = cohomology_dims(system, arr.flagged(1))
        d2 = cohomology_dims(system, arr.flagged(2))
        assert d0 == d1 == d2


def test_system_size_mismatch_rejected():
    arr = corpus.figure_five_lines()
    system = make_local_system([0, 1], order=2)
    with pytest.raises(ValueError, match="match"):
        cohomology_dims(system, arr)
