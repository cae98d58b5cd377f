"""Scalar field backends and exact rank/kernel linear algebra.

Two interchangeable backends feed every cohomology computation:

* ``CyclotomicBackend(M)`` -- exact arithmetic in Q(zeta_M).  An element is
  a coefficient tuple of length phi(M), coding a polynomial in zeta_M
  reduced modulo the M-th cyclotomic polynomial.  Coefficients are Python
  ints, so an element lies in Z[zeta_M]; zero testing is exact.
* ``ComplexBackend(eps)`` -- plain complex floats with one tolerance
  rule: a value is zero exactly when its modulus is at most ``eps``
  (``DEFAULT_EPS`` = 1e-9 unless given), a finite number >=
  ``EPS_FLOOR`` = 1e-12 (any other ``eps`` raises ``ValueError``).
  Rounding leaves exact zeros near 1e-15, so a smaller ``eps`` misses
  zeros: the order-3 deleted-B3 scan finds 74 or 120 hits at 1e-16 or
  1e-15, not 114, and matches at orders 2-6 from 3e-15 up.  ``is_zero``,
  the resonance tests and the echelon pivot choice all use it, and no
  threshold is relative to the size of the matrix entries.  So the
  entries must be small enough for their rounding to stay below ``eps``:
  a weight h - 1/h, h a product of half monodromies h_i (the infinity
  one included), has modulus at most W = prod max(|h_i|, 1/|h_i|), the
  cochain check and the elimination multiply two weights, and
  ``make_local_system`` refuses complex monodromies q_i = h_i^2 with
  (n + 1) * 2^-52 * W^2 > eps, W^2 = prod max(|q_i|, 1/|q_i|).

Both backends offer the field operations ``add``, ``sub``, ``neg``,
``mul`` and ``is_zero``, which the chamber complex and ``rank`` use, and
own the representation of a half monodromy, a square root h of a
monodromy q = h^2, through the same four operations: ``half_prod``
(product of an iterable), ``half_inv``, ``square_is_one`` (is h^2 = 1?)
and ``weight`` (h - h^(-1)); ``half_prods`` is ``half_prod`` over many
lists of ids into one tuple of halves, in one call.  ``HalfProdTable``,
the one read of separating sets that the band route and the chamber
complex share, reads ``half_prods`` of its lists packed on the exact
backend, with ``half_prods`` itself as the definition and the fallback.

* Over ``CyclotomicBackend(M)``, M even, h = zeta_M^s is the exponent s
  mod M: products add exponents, the inverse is -s, and h^2 = 1 exactly
  when 2s = 0 mod M.  ``weight(s)`` is memoised per backend, filled on
  first use.
* Over ``ComplexBackend``, h is the complex value itself and
  ``square_is_one(h)`` is ``is_one(h * h)``, the absolute ``eps`` rule.

Each backend has one row echelon routine, shared by ``rank`` and
``kernel_basis``.  Over the cyclotomic backend both are fraction-free:
elimination and back-substitution multiply by pivots instead of dividing,
and strip integer content, so entries stay in Z[zeta] without blowup.
The band route ranks its matrices of weights with ``weight_rank``
instead, over F_p for primes p = 1 (mod M) below 2^62 (proven prime by
deterministic Miller-Rabin) on the cyclotomic backend, each backend
keeping its primes and their weight tables once found; the chamber
complex keeps the exact ``rank``.
"""

from __future__ import annotations

import bisect
import math
from functools import lru_cache
from operator import mul
from struct import Struct


def _poly_div_exact(num, den):
    """Divide integer polynomials (dense, constant term first); den monic."""
    num = list(num)
    dden = len(den) - 1
    quot = [0] * (len(num) - dden)
    for k in range(len(num) - 1, dden - 1, -1):
        coeff = num[k]
        if coeff:
            quot[k - dden] = coeff
            for j in range(dden + 1):
                num[k - dden + j] -= coeff * den[j]
    if any(num):
        raise ArithmeticError("nonzero remainder in exact polynomial division")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(order):
    """The order-th cyclotomic polynomial as a tuple of int coefficients.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    """
    if order < 1:
        raise ValueError("order must be a positive integer")
    poly = [-1] + [0] * (order - 1) + [1]
    for d in range(1, order):
        if order % d == 0:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


class CyclotomicBackend:
    """Exact arithmetic in the cyclotomic field Q(zeta_order)."""

    kind = "cyclotomic"

    def __init__(self, order):
        self.order = order
        self.modulus = cyclotomic_polynomial(order)
        d = len(self.modulus) - 1
        self.degree = d
        self.zero = (0,) * d
        self.one = (1,) + (0,) * (d - 1)
        self._pow = None  # the table of ``_powers``, once built
        self._weights = {}
        # (p, weight table mod p) for the primes p = 1 (mod order) below
        # 2^62, largest first, and per size k the norm bound of its minors
        self._reductions = []
        self._prime_search = primes_one_mod(order)
        self._norm_bounds = {}

    def __repr__(self):
        return f"CyclotomicBackend({self.order})"

    def _powers(self):
        """x^k reduced modulo the cyclotomic polynomial, for 0 <= k < top,
        built on first use and kept in ``_pow``: only Z[zeta] arithmetic
        (``root``, ``mul``, ``weight``, the chamber complex) reads it,
        never the band route, the certificates or the scans, and it holds
        M * phi(M) integers, M = ``order``.  A plain attribute set in
        ``__init__`` keeps ``mul``'s lookups fast, which a
        ``functools.cached_property`` did not."""
        if self._pow is not None:
            return self._pow
        d = self.degree
        top = max(self.order, 2 * d - 1)
        pows = [list(self.one)]
        for _ in range(1, top):
            prev = pows[-1]
            cur = [0] + prev[: d - 1]
            lead = prev[d - 1]
            if lead:
                for j in range(d):
                    cur[j] -= lead * self.modulus[j]
            pows.append(cur)
        self._pow = [tuple(p) for p in pows]
        return self._pow

    def root(self, k):
        """zeta_order ** k as a backend element."""
        return self._powers()[k % self.order]

    # -- half monodromies h = zeta_order ** s, stored as s mod order -------

    def half_prod(self, halves):
        return sum(halves) % self.order

    def half_prods(self, halves, id_lists):
        """``half_prod`` of ``halves[i]`` over each list of ids, in one call."""
        half, order = halves.__getitem__, self.order
        return [sum(map(half, ids)) % order for ids in id_lists]

    def half_inv(self, s):
        return -s % self.order

    def square_is_one(self, s):
        return 2 * s % self.order == 0

    def weight(self, s):
        """zeta^s - zeta^(-s), memoised: the table is filled on first use,
        so an order no system asks about costs no memory."""
        val = self._weights.get(s)
        if val is None:
            val = self._weights[s] = self.sub(self.root(s), self.root(-s))
        return val

    # -- reductions mod p, for weight_rank ----------------------------------

    def reduction(self, i):
        """``(p, table)``: the i-th prime p = 1 (mod order) below 2^62,
        largest first, and ``table[s]`` = omega^s - omega^(-s) mod p for a
        primitive order-th root of unity omega mod p, the image of
        ``weight(s)`` under zeta -> omega.  Found on first use and kept."""
        while len(self._reductions) <= i:
            p = next(self._prime_search)
            self._reductions.append((p, weight_table(self.order, p)))
        return self._reductions[i]

    def norm_bound(self, k):
        """(4k)^(k phi / 2), rounded down, phi = ``degree``: the bound on
        |N(m)| for a nonzero minor m of size at most k of a matrix of
        weights (see ``weight_rank``)."""
        bound = self._norm_bounds.get(k)
        if bound is None:
            bound = self._norm_bounds[k] = math.isqrt((4 * k) ** (k * self.degree))
        return bound

    def add(self, u, v):
        return tuple(a + b for a, b in zip(u, v))

    def sub(self, u, v):
        return tuple(a - b for a, b in zip(u, v))

    def neg(self, u):
        return tuple(-a for a in u)

    def mul(self, u, v):
        d = self.degree
        conv = [0] * (2 * d - 1)
        for i, ui in enumerate(u):
            if ui:
                for j, vj in enumerate(v):
                    if vj:
                        conv[i + j] += ui * vj
        out = conv[:d]
        pows = self._pow or self._powers()
        for k in range(d, 2 * d - 1):
            ck = conv[k]
            if ck:
                pw = pows[k]
                for j in range(d):
                    if pw[j]:
                        out[j] += ck * pw[j]
        return tuple(out)

    def is_zero(self, u):
        return not any(u)


# the primes of weight_rank lie below this, so two residues multiply to
# at most 124 bits
PRIME_BOUND = 1 << 62
# Miller-Rabin with these bases (the first 12 primes) is exact below
# 3.18e23 > 2^64
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin primality for 0 <= n < 2^64.

    >>> [n for n in range(30) if is_prime(n)]
    [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    >>> is_prime((1 << 61) - 1), is_prime((1 << 62) - 1)
    (True, False)
    """
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_one_mod(m):
    """The primes p = 1 (mod m) below ``PRIME_BOUND``, largest first."""
    for p in range((PRIME_BOUND - 2) // m * m + 1, 1, -m):
        if is_prime(p):
            yield p


def weight_table(m, p):
    """``table[s]`` = omega^s - omega^(-s) mod p for 0 <= s < m, omega the
    first primitive m-th root of unity mod p found among g^((p-1)/m),
    g = 2, 3, ...; p a prime = 1 (mod m) below 2^64."""
    if (p - 1) % m or not is_prime(p):
        raise ValueError(f"{p} is not a prime = 1 (mod {m})")
    factors = {q for q in range(2, m + 1) if m % q == 0 and is_prime(q)}
    for g in range(2, p):
        omega = pow(g, (p - 1) // m, p)
        if all(pow(omega, m // q, p) != 1 for q in factors):
            break
    pows = [1] * m
    for s in range(1, m):
        pows[s] = pows[s - 1] * omega % p
    return [(pows[s] - pows[-s % m]) % p for s in range(m)]


DEFAULT_EPS = 1e-9
EPS_FLOOR = 1e-12  # about 300 times the rounding errors of the zero tests
# the largest torsion order N of the exact backend: a system of order N
# works in CyclotomicBackend(2N), whose power table, built only by the
# chamber complex, holds 2N * phi(2N) integers, up to 2N^2 (about 30 MB
# at N = 1000, and 3 GB at N = 10007)
MAX_TORSION_ORDER = 1000


class ComplexBackend:
    """Floating point complex numbers with an absolute zero tolerance
    ``eps``, a finite number >= ``EPS_FLOOR``."""

    kind = "complex"

    def __init__(self, eps=DEFAULT_EPS):
        if not 0 <= eps < math.inf:
            raise ValueError(f"eps must be finite and >= 0, not {eps!r}")
        if eps < EPS_FLOOR:
            raise ValueError(f"eps {eps!r} is below the rounding floor {EPS_FLOOR!r}")
        self.eps = eps
        self.zero = 0j
        self.one = 1 + 0j

    def __repr__(self):
        return f"ComplexBackend(eps={self.eps!r})"

    # -- half monodromies, stored as complex values -------------------------

    def half_prod(self, halves):
        prod = 1 + 0j
        for v in halves:
            prod *= v
        return prod

    def half_prods(self, halves, id_lists):
        half, prod = halves.__getitem__, self.half_prod
        return [prod(map(half, ids)) for ids in id_lists]

    def half_inv(self, v):
        return 1 / v

    def square_is_one(self, v):
        return self.is_one(v * v)

    def weight(self, v):
        return v - 1 / v

    def add(self, u, v):
        return u + v

    def sub(self, u, v):
        return u - v

    def neg(self, u):
        return -u

    def mul(self, u, v):
        return u * v

    def is_zero(self, u):
        return abs(u) <= self.eps

    def is_one(self, u):
        return abs(u - 1) <= self.eps

    def format(self, u):
        return format(u, ".6g")


# a packed field of a ``HalfProdTable`` is 16 bits; it holds a sum of
# reduced halves, one per id, so 17 * 1999 = 33,983 at most for any
# system ``localsystem.make_local_system`` builds
_FIELD_BYTES, _FIELD_CODE = 2, "H"
_FIELD_MAX = (1 << 8 * _FIELD_BYTES) - 1


class HalfProdTable:
    """Id lists read as half products, the one read of separating sets:
    ``sums(bk, halves)`` is ``bk.half_prods(halves, lists)``.

    ``half_prods`` is the definition, and the floating backend reads it.
    On the exact backend, with ``halves`` reduced mod M (as a
    ``LocalSystem`` keeps them), the first read packs the lists into one
    integer per id, a field of ``_FIELD_BYTES`` bytes per list holding the
    times the id occurs in it.  A read is then one multiply-add per id and
    one ``struct`` unpack.  A read whose sums could pass ``_FIELD_MAX``
    (len(halves) * (M - 1) above it, an order M past 2
    ``MAX_TORSION_ORDER`` built without ``make_local_system``) sums the
    lists instead."""

    __slots__ = ("lists", "_packed")

    def __init__(self, lists):
        self.lists = tuple(lists)
        self._packed = None  # (per_id, nbytes, unpack) once packed

    def sums(self, bk, halves):
        """``bk.half_prods(halves, self.lists)``, reduced mod M on the exact
        backend."""
        if bk.kind != "cyclotomic" or len(halves) * (bk.order - 1) > _FIELD_MAX:
            return bk.half_prods(halves, self.lists)
        per_id, nbytes, unpack = self._packed or self._pack(len(halves))
        total = sum(map(mul, halves, per_id)).to_bytes(nbytes, "little")
        m = bk.order
        return [s % m for s in unpack(total)]

    def _pack(self, nids):
        per_id = [0] * nids
        for f, ids in enumerate(self.lists):
            one = 1 << 8 * _FIELD_BYTES * f
            for i in ids:
                per_id[i] += one
        count = len(self.lists)
        unpack = Struct(f"<{count}{_FIELD_CODE}").unpack
        self._packed = per_id, count * _FIELD_BYTES, unpack
        return self._packed


class Matrix:
    """Rectangular matrix over one scalar backend."""

    def __init__(self, backend, rows, ncols=None):
        self.backend = backend
        self.rows = [list(r) for r in rows]
        if self.rows:
            self.ncols = len(self.rows[0])
            if any(len(r) != self.ncols for r in self.rows):
                raise ValueError("ragged matrix")
        else:
            self.ncols = 0 if ncols is None else ncols
        self.nrows = len(self.rows)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.backend.kind})"

    def is_zero(self):
        bz = self.backend.is_zero
        return all(bz(e) for row in self.rows for e in row)


def matmul(a, b):
    if a.ncols != b.nrows:
        raise ValueError("shape mismatch")
    bk = a.backend
    out = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            acc = bk.zero
            for k in range(a.ncols):
                acc = bk.add(acc, bk.mul(a.rows[i][k], b.rows[k][j]))
            row.append(acc)
        out.append(row)
    return Matrix(bk, out, ncols=b.ncols)


def _echelon_cyclotomic(mat):
    """Fraction-free row echelon form over Z[zeta]; division never needed.

    Row updates are multiply-and-subtract (rank preserving since pivots are
    nonzero in an integral domain); rowwise integer content is stripped to
    keep coefficients small.  Returns the rows and the pivot columns.
    """
    bk = mat.backend
    rows = [list(r) for r in mat.rows]
    m, n = len(rows), mat.ncols
    mul, sub = bk.mul, bk.sub
    pivots = []
    for col in range(n):
        r = len(pivots)
        piv = None
        for i in range(r, m):
            if any(rows[i][col]):
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        p = prow[col]
        for i in range(r + 1, m):
            ri = rows[i]
            f = ri[col]
            if not any(f):
                continue
            g = 0
            for k in range(col, n):
                t = sub(mul(p, ri[k]), mul(f, prow[k]))
                ri[k] = t
                for c in t:
                    if c:
                        g = math.gcd(g, c)
            if g > 1:
                for k in range(col, n):
                    ri[k] = tuple(c // g for c in ri[k])
        pivots.append(col)
    return rows, pivots


def _echelon_complex(mat):
    """Row echelon form with partial pivoting; a pivot must exceed ``eps``
    in modulus, the rule of ``ComplexBackend.is_zero``.  Returns the rows
    and pivot columns."""
    eps = mat.backend.eps
    rows = [[complex(e) for e in row] for row in mat.rows]
    m, n = len(rows), mat.ncols
    pivots = []
    for col in range(n):
        r = len(pivots)
        piv, best = None, eps
        for i in range(r, m):
            a = abs(rows[i][col])
            if a > best:
                piv, best = i, a
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        pval = prow[col]
        for i in range(r + 1, m):
            f = rows[i][col] / pval
            if f:
                ri = rows[i]
                for k in range(col, n):
                    ri[k] -= f * prow[k]
        pivots.append(col)
    return rows, pivots


def _echelon(mat):
    if mat.backend.kind == "cyclotomic":
        return _echelon_cyclotomic(mat)
    return _echelon_complex(mat)


def rank(mat):
    """Rank of the matrix over its backend field."""
    return len(_echelon(mat)[1])


def weight_matrix(bk, columns):
    """The matrix whose column j holds the weights h - h^(-1) of the half
    monodromies ``columns[j]``, one per row."""
    weight = bk.weight
    return Matrix(
        bk, [[weight(h) for h in row] for row in zip(*columns)], ncols=len(columns)
    )


def _rank_mod(p, vectors):
    """Rank over F_p of a list of equally long residue lists, by
    fraction-free elimination: v -> d*v - c*b for a basis vector b with
    pivot entry d and c the entry of v there, which keeps the span."""
    basis = []  # (pivot position, vector)
    for v in vectors:
        for piv, b in basis:
            c = v[piv]
            if c:
                d = b[piv]
                v = [(x * d - c * y) % p for x, y in zip(v, b)]
        for piv, x in enumerate(v):
            if x:
                basis.append((piv, v))
                break
    return len(basis)


def weight_rank(bk, columns):
    """Rank of ``weight_matrix(bk, columns)``, a nonempty matrix.

    Over ``ComplexBackend`` that is ``rank`` of the matrix.  Over
    ``CyclotomicBackend(M)`` the matrix is never built.  A column is zero
    exactly when each of its half exponents s has 2s = 0 (mod M), so
    k = min(rows, nonzero columns) bounds the rank before any prime, and
    k = 0 gives rank 0 at once.  Otherwise the entry of half exponent s
    maps to ``table[s]`` mod p for the primes of ``bk.reduction(i)``, and
    the rank is the largest r of the ranks over F_p of the first primes
    whose product exceeds B = ``bk.norm_bound(k)`` = (4k)^(k phi(M)/2);
    the first prime with rank k ends the search.

    That r is the rank over Q(zeta_M).  zeta -> omega is a ring map
    Z[zeta] -> F_p whose kernel is a prime P of norm p, so no rank mod p
    exceeds the true one.  Every entry zeta^s - zeta^(-s) has modulus at
    most 2 under every embedding, so by Hadamard's inequality a nonzero
    minor m of size at most k has 0 < |N(m)| <= B.  A rank above r would
    give a nonzero (r+1)-minor lying in every P_i, so prod p_i > B would
    divide N(m), which is impossible.
    """
    if bk.kind != "cyclotomic":
        return rank(weight_matrix(bk, columns))
    nrows = len(columns[0])
    # the half exponents of weight 0: 0, and M/2 when M is even
    half = bk.order // 2 if bk.order % 2 == 0 else None
    columns = [col for col in columns if col.count(0) + col.count(half) < nrows]
    k = min(len(columns), nrows)
    if not k:
        return 0
    bound = bk.norm_bound(k)
    best, covered, i = 0, 1, 0
    while covered <= bound:
        p, table = bk.reduction(i)
        image = table.__getitem__
        r = _rank_mod(p, [list(map(image, col)) for col in columns])
        if r == k:
            return k
        best = max(best, r)
        covered *= p
        i += 1
    return best


def _strip_content(bk, vec, support):
    """Divide the entries of ``vec`` at ``support`` by their integer content
    (cyclotomic) or by their largest modulus (complex)."""
    if bk.kind == "cyclotomic":
        g = math.gcd(*(c for k in support for c in vec[k]))
        if g > 1:
            for k in support:
                vec[k] = tuple(c // g for c in vec[k])
    else:
        top = max(abs(vec[k]) for k in support)
        for k in support:
            vec[k] /= top


def kernel_basis(mat):
    """Basis of the right kernel, one coefficient list per basis vector.

    One vector per non-pivot column ``free`` of the echelon form, found by
    back-substitution that scales the partial vector by each pivot instead
    of dividing by it.  Over the cyclotomic backend each vector therefore
    lies in Z[zeta]^n with integer content 1; it is not normalized to 1 at
    ``free``.  No library route calls it; ``bench/spans.py`` still traces
    it by name.
    """
    bk = mat.backend
    mul, add = bk.mul, bk.add
    rows, pivots = _echelon(mat)
    basis = []
    for free in range(mat.ncols):
        if free in pivots:
            continue
        vec = [bk.zero] * mat.ncols
        vec[free] = bk.one
        support = [free]
        # rows pivoting right of ``free`` see only zero entries of vec
        for i in range(bisect.bisect(pivots, free) - 1, -1, -1):
            row, pc = rows[i], pivots[i]
            acc = bk.zero
            for k in support:
                acc = add(acc, mul(row[k], vec[k]))
            p = row[pc]
            for k in support:
                vec[k] = mul(p, vec[k])
            vec[pc] = bk.neg(acc)
            support.append(pc)
            _strip_content(bk, vec, support)
        basis.append(vec)
    return basis
