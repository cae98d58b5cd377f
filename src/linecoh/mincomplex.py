"""The chamber cochain complex computing local system cohomology.

Once a flag is chosen, degree-0/1/2 cochains have bases U_0; U_1, ...,
U_{n-1}, U_0^op; and the degree-2 chambers.  Both differentials have
entries +-(prod h - prod h^{-1}) over separating sets that depend only on
the arrangement, so the combinatorial structure is computed once per flag,
with one ``scalars.HalfProdTable`` over every separating set, and
evaluated per local system from one read of it (``_evaluate``).  The
resulting (h^0, h^1, h^2) is the reference oracle for the faster band
computation; ``format_entry`` prints an evaluated entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .geometry import FlaggedArrangement, InvariantError, separating_ids
from .scalars import HalfProdTable, Matrix, matmul, rank


@dataclass(frozen=True)
class ComplexStructure:
    """Local-system-independent skeleton of the two differentials.

    d0 lists over basis-1 positions the separating ids of its entries,
    all of sign +1.  d1 holds (row, col, sign, separating ids) for its
    nonzero entries; rows run over the degree-2 chambers in sign vector
    order.  ``table`` is the ``HalfProdTable`` of every separating set,
    d0's then d1's in that order, so one read evaluates both.
    """

    d0: tuple
    d1: tuple
    basis2: tuple
    table: HalfProdTable = field(repr=False, compare=False)

    @property
    def n(self):
        return len(self.d0)


def complex_structure(flagged):
    if flagged._structure is not None:
        return flagged._structure
    n = flagged.n
    chs = flagged.chambers
    u = flagged.u_index
    sep = separating_ids(chs, flagged.order)
    basis1 = list(u[1:])  # chamber indices of U_1, ..., U_{n-1}, U_0^op
    basis2 = tuple(sorted(flagged.ch2, key=lambda i: chs[i].signs))
    d0 = tuple(sep(u[0], ci) for ci in basis1)
    entries = []
    for row, c2 in enumerate(basis2):
        cham = chs[c2]
        for col in range(n - 1):
            p = col + 1  # column of U_p
            sp, sq = cham.signs[p - 1], cham.signs[p]
            if sp > 0 and sq < 0:
                sign = -1
            elif sp < 0 and sq > 0:
                sign = 1
            else:
                continue
            entries.append((row, col, sign, sep(u[p], c2)))
        if cham.signs[n - 1] > 0:
            entries.append((row, n - 1, -1, sep(u[n], c2)))
    table = HalfProdTable((*d0, *(ids for *_, ids in entries)))
    flagged._structure = ComplexStructure(d0, tuple(entries), basis2, table)
    return flagged._structure


def _evaluate(system, structure):
    """``(d0, d1)`` of ``system``: every entry's weight from one read of
    the structure's table, d1's entries signed."""
    bk = system.backend
    weights = list(map(bk.weight, structure.table.sums(bk, system.halves)))
    n = structure.n
    d0 = Matrix(bk, [[w] for w in weights[:n]], ncols=1)
    rows = [[bk.zero] * n for _ in structure.basis2]
    for (row, col, sign, _), w in zip(structure.d1, weights[n:]):
        rows[row][col] = bk.neg(w) if sign < 0 else w
    return d0, Matrix(bk, rows, ncols=n)


@dataclass(frozen=True)
class TwistedComplex:
    """Evaluated cochain complex for one local system."""

    structure: ComplexStructure
    d0: Matrix
    d1: Matrix

    def cochain_ok(self):
        """Exact check that d1 . d0 = 0."""
        return matmul(self.d1, self.d0).is_zero()

    def dims(self):
        """(h^0, h^1, h^2) from the two ranks; a negative one (ranks that
        floating rounding has made inconsistent) is an ``InvariantError``."""
        n = self.structure.n
        r0 = rank(self.d0)
        r1 = rank(self.d1)
        dims = (1 - r0, (n - r1) - r0, len(self.structure.basis2) - r1)
        if min(dims) < 0:
            raise InvariantError(f"negative dimension: h0 h1 h2 = {dims}")
        return dims


def build_complex(system, arrangement):
    """The ``TwistedComplex`` of ``system`` on an arrangement's default
    flag, or on the given ``FlaggedArrangement``; the system must have one
    monodromy per line."""
    system.check_size(arrangement.n)
    flagged = (
        arrangement
        if isinstance(arrangement, FlaggedArrangement)
        else arrangement.flagged()
    )
    structure = complex_structure(flagged)
    return TwistedComplex(structure, *_evaluate(system, structure))


def cohomology_dims(system, arrangement):
    """(h^0, h^1, h^2) of the arrangement complement with the given
    monodromies, via the chamber complex (``build_complex``)."""
    return build_complex(system, arrangement).dims()


def format_entry(bk, sign, ids, value):
    """One matrix entry ``value`` of a ``TwistedComplex`` over ``bk``, of
    ``sign`` and separating ``ids``: symbolically over the cyclotomic
    backend (D{ids} is the weight of the separating set, 1-based in
    reports), as ``bk.format(value)`` over the floating one."""
    if bk.kind != "cyclotomic":
        return bk.format(value)
    if not ids:
        return "0"
    label = "".join(str(i + 1) for i in ids) if len(ids) <= 9 else ",".join(
        str(i + 1) for i in ids
    )
    return f"-D({label})" if sign < 0 else f"D({label})"
