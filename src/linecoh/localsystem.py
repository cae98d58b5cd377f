"""Rank-one local systems with fixed square roots of the monodromies.

A system assigns a nonzero monodromy q_i to each affine line; the monodromy
at infinity is forced to (prod q_i)^(-1).  All chamber weights are written
in terms of chosen square roots h_i with h_i^2 = q_i, so the h_i are what
gets stored.  Torsion systems (q_i = zeta_N^{e_i}) canonically take
h_i = zeta_{2N}^{e_i} on the exact cyclotomic backend; the same exponents
can be evaluated on the floating backend, and arbitrary nonzero complex
monodromies use principal square roots.

Computed cohomology dimensions are independent of the square root choices;
``flipped()`` exists so that independence can be exercised.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache

from .scalars import ComplexBackend, CyclotomicBackend


class LocalSystemError(ValueError):
    """Invalid local system data."""


class LocalSystem:
    """Monodromy data for the affine lines 0..n-1 of one arrangement."""

    def __init__(self, backend, half_exponents=None, half_values=None, order=None):
        self.backend = backend
        self.order = order
        if half_exponents is not None:
            self.mode = "torsion"
            self.two_n = 2 * order
            self.half_exponents = tuple(e % self.two_n for e in half_exponents)
            self._delta_cache = {}
        else:
            self.mode = "complex"
            self.half_values = tuple(half_values)

    @property
    def n(self):
        if self.mode == "torsion":
            return len(self.half_exponents)
        return len(self.half_values)

    def __repr__(self):
        if self.mode == "torsion":
            return f"LocalSystem(order={self.order}, exponents={self.half_exponents})"
        return f"LocalSystem(complex, n={self.n})"

    # -- basic scalars ------------------------------------------------------

    def half(self, i):
        if self.mode == "torsion":
            return self.backend.root(self.half_exponents[i])
        return self.half_values[i]

    def monodromy(self, i):
        if self.mode == "torsion":
            return self.backend.root(2 * self.half_exponents[i])
        v = self.half_values[i]
        return v * v

    def half_infinity(self):
        """(prod h_i)^(-1), squaring to the forced infinity monodromy."""
        if self.mode == "torsion":
            return self.backend.root(-sum(self.half_exponents))
        prod = 1 + 0j
        for v in self.half_values:
            prod *= v
        return 1 / prod

    def monodromy_infinity(self):
        if self.mode == "torsion":
            return self.backend.root(-2 * sum(self.half_exponents))
        h = self.half_infinity()
        return h * h

    def infinity_is_one(self):
        return self.prod_is_one(range(self.n))

    # -- products and resonance tests ---------------------------------------

    def prod_is_one(self, ids, with_infinity=False):
        """Does prod of q_i over the given affine lines (optionally times
        the infinity monodromy) equal 1?"""
        if self.mode == "torsion":
            s = sum(self.half_exponents[i] for i in ids)
            if with_infinity:
                s -= sum(self.half_exponents)
            return s % self.order == 0
        prod = 1 + 0j
        for i in ids:
            prod *= self.monodromy(i)
        if with_infinity:
            prod *= self.monodromy_infinity()
        return self.backend.is_one(prod)

    def delta_ids(self, ids):
        """prod h_i - prod h_i^(-1) over a set of affine line ids."""
        if self.mode == "torsion":
            s = sum(self.half_exponents[i] for i in ids) % self.two_n
            val = self._delta_cache.get(s)
            if val is None:
                bk = self.backend
                val = bk.sub(bk.root(s), bk.root(-s))
                self._delta_cache[s] = val
            return val
        prod = 1 + 0j
        for i in ids:
            prod *= self.half_values[i]
        return prod - 1 / prod

    def delta(self, lines, c1, c2):
        """Connection weight between two chambers of the arrangement whose
        line list is given (weight of the separating set)."""
        ids = [
            lines[k].id for k in range(len(lines)) if c1.signs[k] != c2.signs[k]
        ]
        return self.delta_ids(ids)

    # -- coned arrangement helpers ------------------------------------------

    def q_is_one_at(self, proj, j):
        if j == proj.infinity_index:
            return self.infinity_is_one()
        return self.prod_is_one((proj.affine_position(j),))

    def q_point_is_one(self, proj, point):
        affine = [
            proj.affine_position(j)
            for j in point.incident
            if j != proj.infinity_index
        ]
        with_inf = len(affine) != len(point.incident)
        return self.prod_is_one(affine, with_infinity=with_inf)

    # -- convention changes ---------------------------------------------------

    def on_chart(self, proj, h):
        """The same monodromies on the affine lines of ``proj.chart(h)``.

        The system lives on the affine lines of ``proj`` (its infinity chart);
        line h moves to infinity and the old infinity line takes the square
        root ``half_infinity()``.  Line order follows ``chart.to_old``.
        """
        if h == proj.infinity_index:
            return self
        if self.mode == "torsion":
            halves = self.half_exponents + (-sum(self.half_exponents),)
        else:
            halves = self.half_values + (self.half_infinity(),)
        inf = proj.infinity_index
        moved = tuple(
            halves[-1] if old == inf else halves[proj.affine_position(old)]
            for old in proj.chart(h).to_old
        )
        if self.mode == "torsion":
            return LocalSystem(self.backend, half_exponents=moved, order=self.order)
        return LocalSystem(self.backend, half_values=moved)

    def flipped(self, ids=None):
        """Same monodromies with h_i replaced by -h_i (all lines by default)."""
        which = set(range(self.n) if ids is None else ids)
        if self.mode == "torsion":
            exps = tuple(
                e + self.order if i in which else e
                for i, e in enumerate(self.half_exponents)
            )
            return LocalSystem(self.backend, half_exponents=exps, order=self.order)
        vals = tuple(
            -v if i in which else v for i, v in enumerate(self.half_values)
        )
        return LocalSystem(self.backend, half_values=vals)


@lru_cache(maxsize=64)
def _cyclotomic_backend(order):
    """One backend per field, shared by every system of that order: it is
    immutable after ``__init__``, so its power table is built once."""
    return CyclotomicBackend(order)


def make_local_system(exponents=None, order=None, values=None, backend="cyclotomic", eps=1e-9):
    """Build a local system.

    Torsion mode: ``exponents`` (integers) and ``order`` N give
    q_i = zeta_N^{e_i} with the canonical square root zeta_{2N}^{e_i};
    ``backend`` selects exact cyclotomic arithmetic or floating complex.
    Complex mode: ``values`` lists nonzero complex monodromies directly and
    square roots are principal.
    """
    if values is not None:
        if exponents is not None or order is not None:
            raise LocalSystemError("give either exponents+order or values")
        vals = [complex(v) for v in values]
        if any(abs(v) <= eps for v in vals):
            raise LocalSystemError("zero monodromy value")
        halves = tuple(cmath.sqrt(v) for v in vals)
        return LocalSystem(ComplexBackend(eps), half_values=halves)
    if order is None or exponents is None:
        raise LocalSystemError("torsion mode needs exponents and an order")
    if order < 1:
        raise LocalSystemError("torsion order must be >= 1")
    exps = [int(e) for e in exponents]
    if backend == "cyclotomic":
        return LocalSystem(
            _cyclotomic_backend(2 * order), half_exponents=exps, order=order
        )
    if backend == "complex":
        bk = ComplexBackend(eps)
        halves = tuple(bk.unit_root(e, 2 * order) for e in exps)
        return LocalSystem(bk, half_values=halves)
    raise LocalSystemError(f"unknown backend {backend!r}")


@dataclass(frozen=True)
class ResonanceReport:
    """Lines with q_H = 1 and multiple points with q_X = 1 in the coned
    arrangement."""

    resonant_lines: frozenset
    resonant_points: tuple


def resonance_report(system, proj):
    lines = frozenset(
        j for j in range(proj.n) if system.q_is_one_at(proj, j)
    )
    points = tuple(
        p for p in proj.multiple_points() if system.q_point_is_one(proj, p)
    )
    return ResonanceReport(resonant_lines=lines, resonant_points=points)
