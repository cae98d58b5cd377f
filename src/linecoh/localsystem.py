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
complex monodromies use principal square roots.

Computed cohomology dimensions are independent of the square root choices;
``flipped()`` exists so that independence can be exercised.
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import lru_cache

from .scalars import DEFAULT_EPS, MAX_TORSION_ORDER, ComplexBackend, CyclotomicBackend


class LocalSystemError(ValueError):
    """Invalid local system data."""


class LocalSystem:
    """Monodromy data for the affine lines 0..n-1 of one arrangement:
    ``halves[i]`` is the backend's half monodromy h_i, and ``half_inf`` is
    (prod h_i)^(-1), squaring to the forced infinity monodromy."""

    def __init__(self, backend, halves):
        self.backend = backend
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

    # -- products and resonance tests ---------------------------------------

    def infinity_is_one(self):
        return self.backend.square_is_one(self.half_inf)

    def _half_prod(self, ids):
        halves = self.halves
        return self.backend.half_prod(halves[i] for i in ids)

    def prod_is_one(self, ids, with_infinity=False):
        """Does prod of q_i over the given affine lines (optionally times
        the infinity monodromy) equal 1?"""
        h = self._half_prod(ids)
        if with_infinity:
            h = self.backend.half_prod((h, self.half_inf))
        return self.backend.square_is_one(h)

    def delta_ids(self, ids):
        """prod h_i - prod h_i^(-1) over a set of affine line ids."""
        return self.backend.weight(self._half_prod(ids))

    # -- coned arrangement helpers ------------------------------------------

    def _half_at(self, proj, j):
        """Half monodromy of projective line j (``half_inf`` at infinity)."""
        if j == proj.infinity_index:
            return self.half_inf
        return self.halves[proj.affine_position(j)]

    def q_is_one_at(self, proj, j):
        self.check_size(proj.n - 1)
        return self.backend.square_is_one(self._half_at(proj, j))

    def resonance_masks(self, proj):
        """The two bitmasks the resonant point certificates read: bit j of
        the first for each projective line j with q != 1, bit k of the
        second for each multiple point with q = 1, k its position in
        ``proj.multiple_points()``."""
        self.check_size(proj.n - 1)
        bk = self.backend
        halves = [self._half_at(proj, j) for j in range(proj.n)]
        lines = sum(1 << j for j, h in enumerate(halves) if not bk.square_is_one(h))
        points = sum(
            1 << k
            for k, p in enumerate(proj.multiple_points())
            if bk.square_is_one(bk.half_prod(halves[j] for j in p.incident))
        )
        return lines, points

    # -- convention changes ---------------------------------------------------

    def on_chart(self, proj, h):
        """The same monodromies on the affine lines of ``proj.chart(h)``,
        for any h: each chart line, in ``chart.to_old`` order, takes the
        half monodromy of the projective line it comes from."""
        self.check_size(proj.n - 1)
        return LocalSystem(
            self.backend,
            (self._half_at(proj, old) for old in proj.chart(h).to_old),
        )

    def flipped(self, ids=None):
        """Same monodromies with h_i replaced by -h_i (all lines by default)."""
        which = set(range(self.n) if ids is None else ids)
        neg = self.backend.half_neg
        return LocalSystem(
            self.backend,
            (neg(h) if i in which else h for i, h in enumerate(self.halves)),
        )


@lru_cache(maxsize=64)
def _cyclotomic_backend(order):
    """One backend per field, shared by every system of that order: its
    power table is built once and its weight table fills up across them."""
    return CyclotomicBackend(order)


def make_local_system(
    exponents=None, order=None, values=None, backend="cyclotomic", eps=DEFAULT_EPS
):
    """Build a local system.

    Torsion mode: ``exponents`` (integers) and ``order`` N give
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
    if order < 1:
        raise LocalSystemError("torsion order must be >= 1")
    two_n = 2 * order
    exps = [int(e) for e in exponents]
    if backend == "cyclotomic":
        if order > MAX_TORSION_ORDER:
            raise LocalSystemError(
                f"torsion order {order} exceeds the bound {MAX_TORSION_ORDER} "
                "of the cyclotomic backend"
            )
        return LocalSystem(_cyclotomic_backend(two_n), (e % two_n for e in exps))
    if backend == "complex":
        field = ComplexBackend(eps)
        # 1 / order takes an int of any size; pi / order makes it a float
        if order >= 2 and 2 * math.sin(math.pi * (1 / order)) <= eps:
            raise LocalSystemError(
                f"torsion order {order} is too large for the floating backend "
                f"at eps {eps!r}: its roots of unity other than 1 can lie "
                "within eps of 1"
            )
        halves = (cmath.exp(2j * cmath.pi * e / two_n) for e in exps)
        return LocalSystem(field, halves)
    raise LocalSystemError(f"unknown backend {backend!r}")

