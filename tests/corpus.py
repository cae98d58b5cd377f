"""Shared fixture arrangements and deterministic random generators."""

from fractions import Fraction
from pathlib import Path

from linecoh import Arrangement, ProjArrangement, cone, deleted_b3, parse_arrangement
from linecoh.charvar import ComponentFamily
from linecoh.geometry import canonical_triple

_B3 = None
_B3_MOVED = None
# new line i is built-in line B3_PERMUTATION[i]; infinity (H8) moves to index 2
B3_PERMUTATION = (3, 0, 7, 5, 1, 6, 2, 4)


def b3():
    """Shared deleted-B3 instance so chart/chamber caches persist."""
    global _B3
    if _B3 is None:
        _B3 = deleted_b3()
    return _B3


def relabel(proj, catalog, perm=B3_PERMUTATION):
    """``proj`` and ``catalog`` renumbered so that new line i is old line
    ``perm[i]``; new instances, sharing no cache with the old ones."""
    moved = ProjArrangement(
        [proj.lines[old] for old in perm],
        infinity_index=perm.index(proj.infinity_index),
    )
    families = tuple(
        ComponentFamily(
            name=fam.name,
            signs=tuple(fam.signs[old] for old in perm),
            powers=tuple(fam.powers[old] for old in perm),
        )
        for fam in catalog
    )
    return moved, families


def b3_relabelled():
    """Deleted B3 and its catalog renumbered by ``B3_PERMUTATION``, so the
    line at infinity is not the last one (shared, like ``b3``)."""
    global _B3_MOVED
    if _B3_MOVED is None:
        _B3_MOVED = relabel(*b3())
    return _B3_MOVED


def a3():
    """The cone of the A3 (braid) arrangement of ``golden/a3.txt``: six
    lines, four triple points and 24 projective automorphisms."""
    text = (Path(__file__).parent / "golden" / "a3.txt").read_text()
    return cone(parse_arrangement(text))


def figure_five_lines():
    """Five lines: a slope-1/4 line, three verticals, a slope -1/4 line.

    One triple point where the two slanted lines cross on the middle
    vertical; the flag construction keeps the input numbering.
    """
    return Arrangement(
        [(1, -4, -1), (1, 0, -2), (1, 0, -3), (1, 0, -4), (1, 4, -5)]
    )


def triangle():
    return Arrangement([(1, 0, 0), (0, 1, 0), (1, 1, -1)])


def sharp_pair_arrangement():
    """Eleven affine lines (verticals, horizontals, two slopes of diagonals)
    with no intersection left of the first vertical: after coning, that
    vertical and the line at infinity form a sharp pair."""
    return Arrangement(
        [
            (1, 0, -140),
            (1, 0, -180),
            (1, 0, -220),
            (1, 0, -260),
            (0, 1, -45),
            (0, 1, -75),
            (0, 1, -105),
            (3, -4, -240),
            (3, -4, -360),
            (3, 4, -840),
            (3, 4, -960),
        ]
    )


# lines x = a, y = b, x - y = c and x + y = c through the points of a small
# grid: their subsets, coned, have many multiple points and so many strata
GRID_LINES = [
    *((1, 0, -a) for a in range(3)),
    *((0, 1, -b) for b in range(3)),
    *((1, -1, -c) for c in (-1, 0, 1)),
    *((1, 1, -c) for c in (1, 2, 3)),
]


def random_arrangement(rng, nmin=3, nmax=6):
    n = rng.randrange(nmin, nmax + 1)
    triples = []
    seen = set()
    while len(triples) < n:
        a = rng.randrange(-3, 4)
        b = rng.randrange(-3, 4)
        if a == 0 and b == 0:
            continue
        c = Fraction(rng.randrange(-4, 5), rng.choice((1, 1, 2)))
        key = canonical_triple(Fraction(a), Fraction(b), c)
        if key in seen:
            continue
        seen.add(key)
        triples.append((a, b, c))
    # not all parallel: otherwise there is no intersection to hang a flag on
    dirs = {canonical_triple(Fraction(a), Fraction(b), 0)[:2] for a, b, _ in triples}
    if len(dirs) == 1:
        a, b, _ = triples[0]
        triples[-1] = (Fraction(-b), Fraction(a), Fraction(0))
    return Arrangement(triples)


def random_exponents(rng, n, order):
    return [rng.randrange(order) for _ in range(n)]
