import random

import pytest

import brute
import corpus
from linecoh import make_local_system
from linecoh.localsystem import LocalSystemError
from linecoh.mincomplex import cohomology_dims
from linecoh.resband import h1_via_bands, vanishing_certificates
from linecoh.scalars import EPS_FLOOR, CyclotomicBackend


def test_trivial_system():
    system = make_local_system([0] * 5, order=1)
    assert all(brute.prod_is_one(system, (i,)) for i in range(5))
    assert brute.infinity_is_one(system)


def test_canonical_square_roots_for_order_two():
    # monodromies (1,-1,-1,1,1,-1,1): square roots are fourth roots of unity
    system = make_local_system([0, 1, 1, 0, 0, 1, 0], order=2)
    bk = system.backend
    assert isinstance(bk, CyclotomicBackend) and bk.order == 4
    assert brute.half(system, 1) == bk.root(1)
    assert brute.monodromy(system, 1) == bk.root(2)
    # product over the cone (with the derived infinity factor) is one
    assert brute.prod_is_one(system, range(7), with_infinity=True)
    assert brute.eq(bk, brute.monodromy_infinity(system), bk.neg(bk.one))


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
        assert brute.eq(bk, bk.mul(prod, brute.monodromy_infinity(system)), bk.one)


def test_q_point_examples():
    proj, _ = corpus.b3()
    quad = next(
        p for p in proj.multiple_points() if p.incident == frozenset({4, 5, 6, 7})
    )
    # q5 q6 q7 q8 = 1 makes the quadruple point resonant
    system = make_local_system([0, 0, 0, 0, 1, 1, 1], order=5)
    report = vanishing_certificates(system, proj)
    assert report.resonant >> proj.multiple_points().index(quad) & 1
    assert not brute.prod_is_one(system, (1, 2, 4))  # q2 q3 q5 = zeta_5
    trivial = vanishing_certificates(make_local_system([0] * 7, order=1), proj)
    every_point = (1 << len(proj.multiple_points())) - 1
    assert (trivial.nontrivial, trivial.resonant) == (0, every_point)


def test_delta_basics():
    arr = corpus.figure_five_lines()
    fl = arr.flagged()
    chs = fl.chambers
    system = make_local_system([0, 1, 3, 2, 0], order=4)
    bk = system.backend
    u0 = chs[fl.u_index[0]]
    u1 = chs[fl.u_index[1]]
    assert bk.is_zero(brute.delta(system, fl.order, u0, u0))
    expected = bk.sub(brute.half(system, 0), bk.root(-system.halves[0]))
    assert brute.eq(bk, brute.delta(system, fl.order, u0, u1), expected)
    assert brute.eq(
        bk,
        brute.delta(system, fl.order, u0, u1),
        brute.delta(system, fl.order, u1, u0),
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
            brute.delta(system, fl.order, a, b)
        ) == brute.prod_is_one(system, ids)


def _resonant_points(system, proj):
    """Incidence sets of the multiple points with q = 1, read off the
    resonant mask of the system's certificate report."""
    points = vanishing_certificates(system, proj).resonant
    return [p.incident for k, p in enumerate(proj.multiple_points()) if points >> k & 1]


def test_resonance_report_unique_point_on_fifth_line():
    proj, _ = corpus.b3()
    # q5678 = 1, all other products generic
    system = make_local_system([0, 0, 0, 0, 1, 2, 4], order=7)
    on_h5 = {p for p in _resonant_points(system, proj) if 4 in p}
    assert on_h5 == {frozenset({4, 5, 6, 7})}


def test_resonance_report_trivial_and_qplus():
    proj, _ = corpus.b3()
    trivial = make_local_system([0] * 7, order=1)
    assert vanishing_certificates(trivial, proj).nontrivial == 0  # q = 1 on all 8
    assert len(_resonant_points(trivial, proj)) == len(proj.multiple_points())
    qplus = make_local_system([0, 1, 1, 0, 0, 1, 0], order=2)
    at_infinity = {p for p in _resonant_points(qplus, proj) if 7 in p}
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
    flipped = brute.flipped(system)
    bk = system.backend
    rng = random.Random(12)
    for _ in range(30):
        a, b = chs[rng.randrange(len(chs))], chs[rng.randrange(len(chs))]
        d1 = brute.delta(system, fl.order, a, b)
        d2 = brute.delta(flipped, fl.order, a, b)
        assert brute.eq(bk, d1, d2) or brute.eq(bk, d1, bk.neg(d2))


def test_flip_preserves_dimensions():
    arr = corpus.figure_five_lines()
    rng = random.Random(14)
    for _ in range(10):
        order = rng.randrange(2, 6)
        system = make_local_system(corpus.random_exponents(rng, 5, order), order=order)
        flipped = brute.flipped(system)
        assert cohomology_dims(system, arr) == cohomology_dims(flipped, arr)
        if not brute.infinity_is_one(system):
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


def test_floating_modulus_rule():
    # (n + 1) * 2^-52 * prod max(|q_i|, 1/|q_i|) against eps: five lines
    # with |q| up to 3 stay inside even the floor, 1e80 does not
    make_local_system(values=[3, 1 / 3, -1, 2, 3], eps=EPS_FLOOR)
    with pytest.raises(LocalSystemError, match="too far from 1"):
        make_local_system(values=[1e80, 1e80, 1e80, 1, 1])
    # a small modulus counts as its inverse: 1e-4 passes at the default
    # eps, not at the floor
    make_local_system(values=[1e-4, 1, 1])
    with pytest.raises(LocalSystemError, match="too far from 1"):
        make_local_system(values=[1e-4, 1, 1], eps=EPS_FLOOR)


@pytest.mark.parametrize(
    "exponents, order",
    [((0.5, 1.7, 2), 3), ((0, 1, 2), 3.0), ((0, 1.0, 2), 3), (("1", 0, 2), 3)],
    ids=["fractional", "float_order", "integral_float", "string"],
)
@pytest.mark.parametrize("backend", ["cyclotomic", "complex"])
def test_torsion_systems_refuse_non_integers(exponents, order, backend):
    # (0.5, 1.7, 2) was truncated into the system of (0, 1, 2); an exponent
    # or order that ``operator.index`` refuses is refused, 2.0 included
    with pytest.raises(LocalSystemError, match="must be integers"):
        make_local_system(exponents, order=order, backend=backend)
    assert make_local_system((True, 1, 2), order=3).halves == (1, 1, 2)
