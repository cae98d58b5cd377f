"""Rank-one local systems with fixed square roots of the monodromies.

A system assigns a nonzero monodromy q_i to each affine line; the monodromy
at infinity is forced to (prod q_i)^(-1).  All chamber weights are written
in terms of chosen square roots h_i with h_i^2 = q_i, so the h_i are what
gets stored, and the scalar backend owns their representation (its
``half_*`` operations, ``square_is_one`` and ``weight``): a system is a
backend and one half monodromy per line, with a single code path for
either backend.  Torsion systems (q_i = zeta_N^{e_i}) canonically take
h_i = zeta_{2N}^{e_i}, stored as exponents mod 2N on the exact cyclotomic
backend or as complex values on the floating one; arbitrary nonzero
complex monodromies use principal square roots.  A system reduces exact
halves mod M when it is built, whatever it is given, so every reader
(the packed ``scalars.HalfProdTable`` reads of the band route and the
chamber complex among them) takes them as they are.

Only ``projective_halves`` knows which half belongs to which line of a
projective arrangement, infinity included; the band chart rule, the band
kernel on that chart (through its own band tables) and the certificate
masks of ``resband`` all read it, so no system is rebuilt on another
chart.  ``projective_torsion_halves`` gives the same
halves for the exponents of a torus point without building the system.

Computed cohomology dimensions are independent of the square root choices;
the tests exercise that independence with ``brute.flipped``.
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import lru_cache
from operator import index

from .scalars import DEFAULT_EPS, MAX_TORSION_ORDER, ComplexBackend, CyclotomicBackend


class LocalSystemError(ValueError):
    """Invalid local system data."""


class LocalSystem:
    """Monodromy data for the affine lines 0..n-1 of one arrangement:
    ``halves[i]`` is the backend's half monodromy h_i, an exponent reduced
    mod M on the exact backend of order M (a half given negative or >= M
    is reduced here, once), and ``half_inf`` is (prod h_i)^(-1), squaring
    to the forced infinity monodromy."""

    def __init__(self, backend, halves):
        self.backend = backend
        if backend.kind == "cyclotomic":
            halves = (h % backend.order for h in halves)
        self.halves = tuple(halves)
        self.half_inf = backend.half_inv(backend.half_prod(self.halves))

    @property
    def n(self):
        return len(self.halves)

    def __repr__(self):
        return f"LocalSystem({self.backend!r}, halves={self.halves})"

    def check_size(self, n):
        """Refuse an arrangement whose n affine lines are not this system's."""
        if len(self.halves) != n:
            raise LocalSystemError("local system size does not match the arrangement")

    def projective_halves(self, proj):
        """The half monodromy of every line of ``proj``, by projective
        index: the affine halves in order, with ``half_inf`` inserted at
        ``proj.infinity_index``."""
        self.check_size(proj.n - 1)
        inf = proj.infinity_index
        return (*self.halves[:inf], self.half_inf, *self.halves[inf:])


@lru_cache(maxsize=64)
def _cyclotomic_backend(order):
    """One backend per field, shared by every system of that order: its
    power table is built once and its weight table fills up across them."""
    return CyclotomicBackend(order)


def make_local_system(
    exponents=None, order=None, values=None, backend="cyclotomic", eps=DEFAULT_EPS
):
    """Build a local system.

    Torsion mode: ``exponents`` and ``order`` N, integers (a float such as
    2.0 is refused, see ``torsion_integers``), give
    q_i = zeta_N^{e_i} with the canonical square root zeta_{2N}^{e_i};
    ``backend`` selects exact cyclotomic arithmetic, for N up to
    ``MAX_TORSION_ORDER``, or floating complex, for N with
    2 sin(pi/N) > eps: a nontrivial N-th root of unity is that far from
    1, and a nonzero weight h - h^(-1), h a 2N-th root, from 0.
    Complex mode: ``values`` lists nonzero finite complex monodromies
    directly and square roots are principal; values with (n + 1) * 2^-52 *
    prod max(|q_i|, 1/|q_i|) > eps, whose products of two weights could
    round by more than eps (see ``scalars``), are refused.
    """
    if values is not None:
        if exponents is not None or order is not None:
            raise LocalSystemError("give either exponents+order or values")
        field = ComplexBackend(eps)
        vals = [complex(v) for v in values]
        if not all(map(cmath.isfinite, vals)):
            raise LocalSystemError("monodromy values must be finite")
        if any(map(field.is_zero, vals)):
            raise LocalSystemError("zero monodromy value")
        rounding = (len(vals) + 1) * sys.float_info.epsilon * math.prod(
            max(abs(v), 1 / abs(v)) for v in vals
        )
        if rounding > eps:
            raise LocalSystemError(
                "monodromy moduli too far from 1 for the floating backend at "
                f"eps {eps!r}: products of weights can round by {rounding:.3g}"
            )
        return LocalSystem(field, map(cmath.sqrt, vals))
    if order is None or exponents is None:
        raise LocalSystemError("torsion mode needs exponents and an order")
    exps, order = torsion_integers(exponents, order)
    if order < 1:
        raise LocalSystemError("torsion order must be >= 1")
    return LocalSystem(*torsion_halves(exps, order, backend, eps))


def torsion_integers(exponents, order):
    """The exponents as a list of ints and the order as an int, each read
    by ``operator.index``: a float or a string, 2.0 included, is a
    ``LocalSystemError``, never truncated to another point."""
    try:
        return list(map(index, exponents)), index(order)
    except TypeError:
        raise LocalSystemError("torsion exponents and order must be integers") from None


def torsion_halves(exps, order, backend="cyclotomic", eps=DEFAULT_EPS):
    """``(field, halves)`` of the torsion system of ``make_local_system``:
    the backend and the list of canonical half monodromies zeta_2N^(e_i)
    of the integer exponents ``exps`` at the integer order N >= 1, which
    is refused when ``backend`` cannot take it."""
    check_torsion_order(order, backend, eps)
    two_n = 2 * order
    if backend == "cyclotomic":
        return _cyclotomic_backend(two_n), [e % two_n for e in exps]
    return ComplexBackend(eps), [cmath.exp(2j * cmath.pi * e / two_n) for e in exps]


def projective_torsion_halves(exps, order, inf, backend="cyclotomic", eps=DEFAULT_EPS):
    """``(field, halves)``: ``torsion_halves`` of the integer exponents of
    every projective line at the integer order N >= 1, the line at
    infinity at index ``inf``, whose half at ``inf`` is then (the product
    of the others)^(-1).  These are the ``projective_halves`` of the
    torsion system of the affine exponents, read without building it or
    splicing its halves."""
    bk, halves = torsion_halves(exps, order, backend, eps)
    halves[inf] = bk.half_prod(())  # 1, so the product below skips it
    halves[inf] = bk.half_inv(bk.half_prod(halves))
    return bk, halves


def check_torsion_order(order, backend="cyclotomic", eps=DEFAULT_EPS):
    """Refuse, with ``LocalSystemError``, a torsion order N >= 1 that
    ``backend`` cannot take (see ``make_local_system``): one above
    ``MAX_TORSION_ORDER`` on the cyclotomic backend, or one with
    2 sin(pi/N) <= eps on the floating one, once ``ComplexBackend`` has
    checked ``eps``; and an unknown backend."""
    if backend == "cyclotomic":
        if order > MAX_TORSION_ORDER:
            raise LocalSystemError(
                f"torsion order {order} exceeds the bound {MAX_TORSION_ORDER} "
                "of the cyclotomic backend"
            )
    elif backend == "complex":
        ComplexBackend(eps)
        # 1 / order takes an int of any size; pi / order makes it a float
        if order >= 2 and 2 * math.sin(math.pi * (1 / order)) <= eps:
            raise LocalSystemError(
                f"torsion order {order} is too large for the floating backend "
                f"at eps {eps!r}: its roots of unity other than 1 can lie "
                "within eps of 1"
            )
    else:
        raise LocalSystemError(f"unknown backend {backend!r}")
