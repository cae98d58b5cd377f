import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
import corpus
from linecoh import make_local_system
from linecoh.mincomplex import build_complex
from linecoh.resband import h1_via_bands
from linecoh.scalars import (
    ComplexBackend,
    CyclotomicBackend,
    Matrix,
    cyclotomic_polynomial,
    kernel_basis,
    matmul,
    rank,
)


def test_cyclotomic_polynomial_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


@pytest.mark.parametrize("order", list(range(1, 13)) + [20, 40])
def test_primitive_root(order):
    bk = CyclotomicBackend(order)
    assert bk.root(order) == bk.one
    for d in range(1, order):
        if order % d == 0:
            assert not brute.eq(bk, bk.root(d), bk.one)


def test_field_arithmetic():
    bk = CyclotomicBackend(8)
    rng = random.Random(5)
    for _ in range(30):
        a, b, c = (bk.root(rng.randrange(8)) for _ in range(3))
        left = bk.mul(bk.add(a, b), c)
        right = bk.add(bk.mul(a, c), bk.mul(b, c))
        assert brute.eq(bk, left, right)
    assert brute.eq(bk, bk.root(4), bk.neg(bk.one))


def test_rank_trivial_cases():
    bk = CyclotomicBackend(4)
    zero = Matrix(bk, [[bk.zero] * 5 for _ in range(3)])
    assert rank(zero) == 0
    eye = Matrix(bk, [[bk.one if i == j else bk.zero for j in range(4)] for i in range(4)])
    assert rank(eye) == 4
    assert kernel_basis(eye) == []
    single = Matrix(bk, [[bk.zero]])
    assert len(kernel_basis(single)) == 1


def _random_root_matrix(bk, rng, m, n):
    rows = []
    for _ in range(m):
        row = []
        for _ in range(n):
            a, b = rng.randrange(bk.order), rng.randrange(bk.order)
            row.append(bk.sub(bk.root(a), bk.root(b)))
        rows.append(row)
    return Matrix(bk, rows)


def test_rank_transpose_and_permutations():
    rng = random.Random(11)
    bk = CyclotomicBackend(8)
    for _ in range(10):
        mat = _random_root_matrix(bk, rng, rng.randrange(2, 6), rng.randrange(2, 6))
        r = rank(mat)
        assert r == rank(brute.transpose(mat))
        rows = list(mat.rows)
        rng.shuffle(rows)
        cols = list(range(mat.ncols))
        rng.shuffle(cols)
        shuffled = Matrix(bk, [[row[c] for c in cols] for row in rows])
        assert rank(shuffled) == r


def test_rank_backend_agreement():
    rng = random.Random(23)
    bk = CyclotomicBackend(12)
    nk = ComplexBackend(1e-9)
    for _ in range(10):
        mat = _random_root_matrix(bk, rng, rng.randrange(2, 6), rng.randrange(2, 6))
        num = Matrix(nk, [[brute.to_complex(bk, e) for e in row] for row in mat.rows])
        assert rank(mat) == rank(num)


def test_rank_with_fraction_entries():
    bk = CyclotomicBackend(4)
    row = [bk.root(1), bk.one]
    mat = Matrix(bk, [row, [bk.add(e, e) for e in row]])
    assert rank(mat) == 1  # second row is twice the first


def test_kernel_vectors_annihilate():
    rng = random.Random(31)
    bk = CyclotomicBackend(6)
    mats = [_random_root_matrix(bk, rng, 4, 5) for _ in range(10)]
    # pivots above the relative threshold but below the absolute eps
    mats.append(Matrix(ComplexBackend(1e-9), [[9e-10, 0], [0, 9e-10]]))
    for mat in mats:
        basis = kernel_basis(mat)
        assert len(basis) == mat.ncols - rank(mat)
        for vec in basis:
            image = matmul(mat, Matrix(mat.backend, [[v] for v in vec]))
            assert image.is_zero()


def test_complex_rank_threshold():
    nk = ComplexBackend(1e-9)
    mat = Matrix(nk, [[1.0, 1.0], [1.0, 1.0 + 1e-12]])
    assert rank(mat) == 1
    mat2 = Matrix(nk, [[1.0, 1.0], [1.0, 1.0 + 1e-3]])
    assert rank(mat2) == 2


def test_rank_matches_band_computation():
    # five-line figure at monodromy -1 on every line: the degree-1
    # differential must have rank = (basis size) - h1 - rank d0
    arr = corpus.figure_five_lines()
    system = make_local_system([1] * 5, order=2)
    cx = build_complex(system, arr)
    assert not brute.infinity_is_one(system)
    h1 = h1_via_bands(system, arr).dim
    assert rank(cx.d0) == 1
    assert rank(cx.d1) == arr.n - h1 - 1
    num = make_local_system([1] * 5, order=2, backend="complex")
    cxn = build_complex(num, arr)
    assert rank(cxn.d1) == rank(cx.d1)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(2, 8), st.data())
def test_half_monodromy_operations_agree_across_backends(order, data):
    """The cyclotomic half monodromies (exponents mod 2N) and the complex
    ones (unit values) give the same weights and square tests."""
    exps = data.draw(
        st.lists(st.integers(-3 * order, 3 * order), min_size=1, max_size=8)
    )
    ids = sorted(data.draw(st.sets(st.integers(0, len(exps) - 1))))
    exact = make_local_system(exps, order=order)
    floating = make_local_system(exps, order=order, backend="complex")
    cyc, cpx = exact.backend, floating.backend
    s = cyc.half_prod(exact.halves[i] for i in ids)
    v = cpx.half_prod(floating.halves[i] for i in ids)
    assert abs(brute.to_complex(cyc, cyc.weight(s)) - cpx.weight(v)) < 1e-9
    assert cyc.square_is_one(s) == cpx.square_is_one(v)
    for bk, h in ((cyc, s), (cpx, v)):
        assert brute.eq(bk, bk.weight(brute.half_neg(bk, h)), bk.neg(bk.weight(h)))
    assert cyc.weight(s) == brute.torsion_weight(cyc, exps, ids)
