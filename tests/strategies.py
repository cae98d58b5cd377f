"""Hypothesis strategies shared by the property tests."""

from fractions import Fraction

from hypothesis import strategies as st

from linecoh import Arrangement
from linecoh.geometry import canonical_triple

BIG = 10**12 + 1
COEFFS = st.sampled_from(
    [
        Fraction(0),
        Fraction(1),
        Fraction(-1),
        Fraction(2),
        Fraction(-3),
        Fraction(1, 7),
        Fraction(-5, 7),
        Fraction(BIG),
        Fraction(-BIG, 7),
        Fraction(1, BIG),
        Fraction(7, BIG),
    ]
)


@st.composite
def arrangements(draw, max_lines=7, min_lines=1):
    """Distinct lines built one at a time: a free line, a line parallel to
    an earlier one, or a line through the crossing of two earlier ones."""
    rows, keys = [], set()
    for _ in range(draw(st.integers(min_lines, max_lines))):
        kind = draw(st.sampled_from(["free", "parallel", "concurrent"]))
        a, b, c = draw(COEFFS), draw(COEFFS), draw(COEFFS)
        if kind == "parallel" and rows:
            pa, pb, _ = draw(st.sampled_from(rows))
            k = draw(COEFFS.filter(bool))
            a, b = k * pa, k * pb
        elif kind == "concurrent" and len(rows) >= 2:
            (a1, b1, c1), (a2, b2, c2) = draw(
                st.lists(st.sampled_from(rows), min_size=2, max_size=2, unique=True)
            )
            det = a1 * b2 - a2 * b1
            if det:
                x0 = (c2 * b1 - c1 * b2) / det
                y0 = (c1 * a2 - c2 * a1) / det
                c = -(a * x0 + b * y0)
        if a == 0 and b == 0:
            continue
        key = canonical_triple(a, b, c)
        if key not in keys:
            keys.add(key)
            rows.append((a, b, c))
    if not rows:
        rows.append((Fraction(1), Fraction(0), Fraction(0)))
    return Arrangement(rows)


@st.composite
def pencils(draw, max_lines=6):
    """All-parallel arrangements: multiples of one normal with distinct
    offsets, i.e. projective pencils through a point at infinity."""
    a, b = draw(st.tuples(COEFFS, COEFFS).filter(any))
    rows, keys = [], set()
    for _ in range(draw(st.integers(1, max_lines))):
        k, c = draw(COEFFS.filter(bool)), draw(COEFFS)
        key = canonical_triple(k * a, k * b, c)
        if key not in keys:
            keys.add(key)
            rows.append((k * a, k * b, c))
    return Arrangement(rows)
