import random

import pytest

import brute
import corpus
from linecoh import bands, make_local_system
from linecoh.mincomplex import (
    build_complex,
    cohomology_dims,
    complex_structure,
)
from linecoh.scalars import rank


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
    assert not system.infinity_is_one()
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
        entry = build_complex(system, fl).d0.entry(arr.n - 1, 0)
        k = -sum(system.halves)
        hinf = brute.half_infinity(system)
        expected = bk.sub(hinf, bk.root(-k))
        assert bk.eq(entry, expected) or bk.eq(entry, bk.neg(expected))


def test_nontrivial_infinity_kills_h0():
    rng = random.Random(123)
    arr = corpus.figure_five_lines()
    for _ in range(20):
        order = rng.randrange(2, 7)
        system = make_local_system(corpus.random_exponents(rng, 5, order), order=order)
        h0 = cohomology_dims(system, arr)[0]
        if system.infinity_is_one():
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
