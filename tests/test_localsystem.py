import random

import pytest

import brute
import corpus
from linecoh import make_local_system, resonance_report
from linecoh.localsystem import LocalSystemError
from linecoh.mincomplex import cohomology_dims
from linecoh.resband import h1_via_bands
from linecoh.scalars import CyclotomicBackend


def test_trivial_system():
    system = make_local_system([0] * 5, order=1)
    assert all(system.prod_is_one((i,)) for i in range(5))
    assert system.infinity_is_one()


def test_canonical_square_roots_for_order_two():
    # monodromies (1,-1,-1,1,1,-1,1): square roots are fourth roots of unity
    system = make_local_system([0, 1, 1, 0, 0, 1, 0], order=2)
    bk = system.backend
    assert isinstance(bk, CyclotomicBackend) and bk.order == 4
    assert brute.half(system, 1) == bk.root(1)
    assert brute.monodromy(system, 1) == bk.root(2)
    # product over the cone (with the derived infinity factor) is one
    assert system.prod_is_one(range(7), with_infinity=True)
    assert bk.eq(brute.monodromy_infinity(system), bk.neg(bk.one))


def test_infinity_forced_inverse_product():
    rng = random.Random(17)
    for _ in range(20):
        order = rng.randrange(2, 7)
        exps = corpus.random_exponents(rng, 6, order)
        system = make_local_system(exps, order=order)
        bk = system.backend
        prod = bk.one
        for i in range(6):
            prod = bk.mul(prod, brute.monodromy(system, i))
        assert bk.is_one(bk.mul(prod, brute.monodromy_infinity(system)))


def test_q_point_examples():
    proj, _ = corpus.b3()
    quad = next(
        p for p in proj.multiple_points() if p.incident == frozenset({4, 5, 6, 7})
    )
    # q5 q6 q7 q8 = 1 makes the quadruple point resonant
    system = make_local_system([0, 0, 0, 0, 1, 1, 1], order=5)
    assert system.q_point_is_one(proj, quad)
    assert not system.prod_is_one((1, 2, 4))  # q2 q3 q5 = zeta_5
    trivial = make_local_system([0] * 7, order=1)
    assert all(trivial.q_point_is_one(proj, p) for p in proj.intersections())


def test_delta_basics():
    arr = corpus.figure_five_lines()
    fl = arr.flagged()
    chs = fl.chambers
    system = make_local_system([0, 1, 3, 2, 0], order=4)
    bk = system.backend
    u0 = chs[fl.u_index[0]]
    u1 = chs[fl.u_index[1]]
    assert bk.is_zero(brute.delta(system, fl.lines, u0, u0))
    expected = bk.sub(brute.half(system, 0), bk.root(-system.halves[0]))
    assert bk.eq(brute.delta(system, fl.lines, u0, u1), expected)
    assert bk.eq(
        brute.delta(system, fl.lines, u0, u1),
        brute.delta(system, fl.lines, u1, u0),
    )


def test_delta_zero_iff_product_one():
    arr = corpus.figure_five_lines()
    fl = arr.flagged()
    chs = fl.chambers
    rng = random.Random(8)
    for _ in range(60):
        order = rng.randrange(1, 7)
        system = make_local_system(corpus.random_exponents(rng, 5, order), order=order)
        a, b = chs[rng.randrange(len(chs))], chs[rng.randrange(len(chs))]
        ids = [k for k in range(5) if a.signs[k] != b.signs[k]]
        assert system.backend.is_zero(
            brute.delta(system, fl.lines, a, b)
        ) == system.prod_is_one(ids)


def test_resonance_report_unique_point_on_fifth_line():
    proj, _ = corpus.b3()
    # q5678 = 1, all other products generic
    system = make_local_system([0, 0, 0, 0, 1, 2, 4], order=7)
    report = resonance_report(system, proj)
    on_h5 = {p.incident for p in report.resonant_points if 4 in p.incident}
    assert on_h5 == {frozenset({4, 5, 6, 7})}


def test_resonance_report_trivial_and_qplus():
    proj, _ = corpus.b3()
    trivial = make_local_system([0] * 7, order=1)
    report = resonance_report(trivial, proj)
    assert report.resonant_lines == frozenset(range(8))
    assert len(report.resonant_points) == len(proj.multiple_points())
    qplus = make_local_system([0, 1, 1, 0, 0, 1, 0], order=2)
    report = resonance_report(qplus, proj)
    at_infinity = {
        p.incident for p in report.resonant_points if 7 in p.incident
    }
    # exactly the three band directions of the standard affine picture
    assert at_infinity == {
        frozenset({0, 1, 7}),
        frozenset({2, 3, 7}),
        frozenset({4, 5, 6, 7}),
    }


def test_flip_changes_delta_sign_only():
    arr = corpus.figure_five_lines()
    fl = arr.flagged()
    chs = fl.chambers
    system = make_local_system([0, 1, 3, 2, 0], order=4)
    flipped = system.flipped()
    bk = system.backend
    rng = random.Random(12)
    for _ in range(30):
        a, b = chs[rng.randrange(len(chs))], chs[rng.randrange(len(chs))]
        d1 = brute.delta(system, fl.lines, a, b)
        d2 = brute.delta(flipped, fl.lines, a, b)
        assert bk.eq(d1, d2) or bk.eq(d1, bk.neg(d2))


def test_flip_preserves_dimensions():
    arr = corpus.figure_five_lines()
    rng = random.Random(14)
    for _ in range(10):
        order = rng.randrange(2, 6)
        system = make_local_system(corpus.random_exponents(rng, 5, order), order=order)
        flipped = system.flipped()
        assert cohomology_dims(system, arr) == cohomology_dims(flipped, arr)
        if not system.infinity_is_one():
            assert (
                h1_via_bands(system, arr).dim == h1_via_bands(flipped, arr).dim
            )


def test_complex_mode_principal_root():
    system = make_local_system(values=[-1 + 0j, 2 + 0j])
    assert abs(brute.half(system, 0) - 1j) < 1e-12
    assert abs(brute.monodromy(system, 1) - 2) < 1e-12
    assert abs(brute.monodromy_infinity(system) + 0.5) < 1e-12


def test_zero_monodromy_rejected():
    with pytest.raises(LocalSystemError, match="zero monodromy"):
        make_local_system(values=[1 + 0j, 0j])
    # nor a non-finite one: nan and inf would pass the zero test
    for bad in ("nan", "inf", "-inf", "nanj"):
        with pytest.raises(LocalSystemError, match="finite"):
            make_local_system(values=[complex(bad), 1 + 0j])
    with pytest.raises(LocalSystemError):
        make_local_system([0, 1], order=None)
