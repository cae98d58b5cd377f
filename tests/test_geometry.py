import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

import brute
import corpus
from brute import sep
from linecoh import (
    Arrangement,
    ArrangementError,
    ProjArrangement,
    cone,
    move_to_infinity,
    parse_arrangement,
)
from linecoh.geometry import (
    MAX_LINES,
    ArrangementTooLargeError,
    FlagError,
    canonical_triple,
    choose_flag,
)
from strategies import arrangements

B3_TEXT = """
0 1 0
0 1 -1
1 0 0
1 0 -1
1 -1 1
1 -1 0
1 -1 -1
"""


def test_parse_b3_affine_rows():
    arr = parse_arrangement(B3_TEXT)
    assert isinstance(arr, Arrangement)
    assert arr.n == 7
    proj, _ = corpus.b3()
    chart = proj.chart(proj.infinity_index)
    assert arr.lines == chart.arrangement.lines
    # coning the affine rows reproduces the projective arrangement,
    # with z = 0 appended as the line at infinity
    assert cone(arr).lines == proj.lines
    assert cone(arr).infinity_index == 7


def test_parse_comments_and_fractions():
    arr = parse_arrangement("# heading\n1/2 0 -3/4  # vertical\n0 2 1\n")
    assert arr.n == 2
    assert arr.lines[0] == (2, 0, -3)


def test_parse_single_line_rejected_downstream():
    arr = parse_arrangement("1 0 0\n")
    assert arr.n == 1
    with pytest.raises(FlagError):
        choose_flag(arr)


def test_parse_duplicate_line():
    with pytest.raises(ArrangementError, match="duplicate"):
        parse_arrangement("2 0 0\n1 0 0\n")


def test_repeated_infinity_header_is_refused():
    # the second header used to win silently, putting line 3 at infinity
    text = "infinity: 2\nP 1 0 0\nP 0 1 0\nP 0 0 1\ninfinity: 3\n"
    message = "repeated infinity header on lines 1 and 5"
    with pytest.raises(ArrangementError, match=message):
        parse_arrangement(text)


def test_parse_degenerate_row():
    with pytest.raises(ArrangementError, match="degenerate"):
        parse_arrangement("0 0 3\n1 0 0\n")


def test_parse_malformed_rational():
    with pytest.raises(ArrangementError, match="malformed"):
        parse_arrangement("1 0 spam\n")


def test_parse_projective():
    proj = parse_arrangement("infinity: 3\nP 0 1 0\nP 1 0 0\nP 0 0 1\n")
    assert isinstance(proj, ProjArrangement)
    assert proj.infinity_index == 2
    with pytest.raises(ArrangementError, match="infinity"):
        parse_arrangement("P 1 0 0\nP 0 1 0\n")


def test_cone_two_lines():
    proj = cone(Arrangement([(0, 1, 0), (1, 0, 0)]))
    assert proj.lines == ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    assert proj.infinity_index == 2


def test_cone_parallel_pair_meets_at_infinity():
    proj = cone(Arrangement([(0, 1, 0), (0, 1, -1)]))
    pts = proj.intersections()
    assert len(pts) == 1
    assert pts[0].coords == (1, 0, 0)
    assert pts[0].incident == frozenset({0, 1, 2})


def test_two_lines_one_point():
    proj = cone(Arrangement([(0, 1, 0), (1, 0, 0)]))
    affine = [p for p in proj.intersections() if 2 not in p.incident]
    assert len(affine) == 1 and affine[0].multiplicity == 2


def test_figure_five_lines_intersections():
    arr = corpus.figure_five_lines()
    pts = arr.intersection_points()
    mults = sorted(p.multiplicity for p in pts)
    assert mults == [2, 2, 2, 2, 3]
    triple = next(p for p in pts if p.multiplicity == 3)
    assert triple.incident == frozenset({0, 2, 4})
    doubles = {p.incident for p in pts if p.multiplicity == 2}
    assert doubles == {
        frozenset({0, 1}),
        frozenset({0, 3}),
        frozenset({1, 4}),
        frozenset({3, 4}),
    }
    # at infinity the three verticals meet the infinity line in one point
    coned = cone(arr)
    inf_pts = [p for p in coned.intersections() if coned.infinity_index in p.incident]
    assert sorted(p.multiplicity for p in inf_pts) == [2, 2, 4]


def test_deleted_b3_points_on_infinity():
    proj, _ = corpus.b3()
    on_inf = [p for p in proj.multiple_points() if proj.infinity_index in p.incident]
    names = {p.incident for p in on_inf}
    assert names == {
        frozenset({0, 1, 7}),
        frozenset({2, 3, 7}),
        frozenset({4, 5, 6, 7}),
    }


def test_figure_five_lines_chambers():
    arr = corpus.figure_five_lines()
    chs = arr.chambers()
    assert len(chs) == 12
    assert sum(c.bounded for c in chs) == 2


def test_one_line_two_chambers():
    arr = Arrangement([(1, 0, 0)])
    chs = arr.chambers()
    assert len(chs) == 2
    assert not any(c.bounded for c in chs)
    assert chs[0].opposite is chs[1] and chs[1].opposite is chs[0]


def test_triangle_chambers():
    arr = corpus.triangle()
    chs = arr.chambers()
    assert {c.signs for c in chs} == brute.chamber_sign_vectors(arr.lines)
    assert len(chs) == 7
    assert sum(c.bounded for c in chs) == 1


def test_chambers_against_bruteforce():
    rng = random.Random(20260810)
    for _ in range(25):
        arr = corpus.random_arrangement(rng)
        chs = arr.chambers()
        assert {c.signs for c in chs} == brute.chamber_sign_vectors(arr.lines)
        assert len(chs) == brute.chamber_count_formula(arr)
        assert sum(c.bounded for c in chs) == brute.bounded_count_formula(arr)


def test_opposite_involution_and_direction():
    rng = random.Random(7)
    for _ in range(15):
        arr = corpus.random_arrangement(rng)
        lines = arr.lines
        for ch in arr.chambers():
            if ch.bounded:
                assert ch.opposite is None
                continue
            opp = ch.opposite
            assert opp is not None and not opp.bounded
            assert opp.opposite is ch
            # lines not separating the pair are all parallel to each other
            untouched = [
                lines[k] for k in range(arr.n) if ch.signs[k] == opp.signs[k]
            ]
            keys = {brute.direction_key(ln) for ln in untouched}
            assert len(keys) <= 1


def test_sep_properties():
    arr = corpus.figure_five_lines()
    fl = arr.flagged()
    chs = fl.chambers
    u0 = chs[fl.u_index[0]]
    u0v = chs[fl.u_index[arr.n]]
    assert sep(u0, u0v, fl.order) == frozenset(range(5))
    assert sep(u0, u0, fl.order) == frozenset()
    for p in range(1, 5):
        up = chs[fl.u_index[p]]
        assert sep(u0, up, fl.order) == frozenset(range(p))
    rng = random.Random(3)
    for _ in range(40):
        a, b, c = (chs[rng.randrange(len(chs))] for _ in range(3))
        assert sep(a, c, fl.order) <= sep(a, b, fl.order) | sep(b, c, fl.order)
        assert sep(a, b, fl.order) == sep(b, a, fl.order)


def test_flag_partition_sizes():
    rng = random.Random(99)
    cases = [corpus.figure_five_lines(), corpus.triangle()]
    cases += [corpus.random_arrangement(rng) for _ in range(10)]
    for arr in cases:
        fl = arr.flagged()
        assert len(fl.u_index[:1]) == 1
        assert len(fl.ch1) == arr.n
        assert len(fl.ch2) == arr.point_index_sum()
        total = {fl.u_index[0]} | set(fl.ch1) | set(fl.ch2)
        assert len(total) == len(fl.chambers)
        u0 = fl.chambers[fl.u_index[0]]
        assert u0.signs == (-1,) * arr.n
        assert fl.chambers[fl.u_index[arr.n]].signs == (1,) * arr.n
        for p in range(1, arr.n):
            expected = tuple(1 if k < p else -1 for k in range(arr.n))
            assert fl.chambers[fl.u_index[p]].signs == expected


def test_flag_keeps_input_numbering_for_figure():
    fl = corpus.figure_five_lines().flagged()
    assert fl.order == (0, 1, 2, 3, 4)
    intercepts = [Fraction(-c, a) for a, _, c in fl.lines]
    assert 0 < intercepts[0]
    assert all(x1 < x2 for x1, x2 in zip(intercepts, intercepts[1:]))


def test_flag_variants_are_valid_flags():
    arr = corpus.figure_five_lines()
    f0, f1 = arr.flagged(0), arr.flagged(1)
    assert f0.order != f1.order
    for fl in (f0, f1):
        assert len(fl.ch2) == arr.point_index_sum()


def test_generic_two_lines_flag():
    arr = Arrangement([(1, 0, 0), (0, 1, 0)])
    fl = arr.flagged()
    assert (len(fl.u_index[:1]), len(fl.ch1), len(fl.ch2)) == (1, 2, 1)


def test_too_many_lines():
    coeffs = [(1, 1, -k) for k in range(MAX_LINES + 1)]
    with pytest.raises(ArrangementTooLargeError):
        Arrangement(coeffs).chambers()


def test_move_to_infinity_identity():
    proj, _ = corpus.b3()
    chart = move_to_infinity(proj, proj.infinity_index)
    assert chart.to_old == (0, 1, 2, 3, 4, 5, 6)
    assert chart.arrangement.lines == proj.lines[:7]


def _mapped_incidences(proj, chart, h):
    """Incidence sets of the source, rewritten in the numbering of the
    cone of ``chart``, which puts line h at infinity."""
    new_of_old = {old: pos for pos, old in enumerate(chart.to_old)}
    new_of_old[h] = len(chart.to_old)  # the new infinity line
    return {
        frozenset(new_of_old[j] for j in p.incident)
        for p in proj.intersections()
    }


def _assert_lattice_preserved(proj, h):
    chart = proj.chart(h)
    recone = cone(chart.arrangement)
    assert {p.incident for p in recone.intersections()} == _mapped_incidences(
        proj, chart, h
    )


@pytest.mark.parametrize("h", [0, 2, 4, 7])
def test_move_to_infinity_preserves_lattice(h):
    proj, _ = corpus.b3()
    _assert_lattice_preserved(proj, h)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(arrangements())
def test_move_to_infinity_preserves_lattice_on_random_cones(arr):
    # the adjugate chart path for every line of a random cone
    proj = cone(arr)
    for h in range(proj.n):
        _assert_lattice_preserved(proj, h)


def test_chart_h5_parallel_classes():
    proj, _ = corpus.b3()
    chart = proj.chart(4)  # fifth line at infinity
    groups = {}
    for k, ln in enumerate(chart.arrangement.lines):
        groups.setdefault(brute.direction_key(ln), []).append(chart.to_old[k])
    classes = sorted(sorted(v) for v in groups.values() if len(v) > 1)
    assert classes == [[1, 2], [5, 6, 7]]


def test_charts_share_degree_two_count():
    # in each of the four affine pictures the degree-2 chamber count is 12
    proj, _ = corpus.b3()
    for h in (4, 7, 5, 2):
        assert proj.chart(h).arrangement.point_index_sum() == 12


def _relabelled(proj, perm):
    """``proj`` with new line i the old line perm[i]."""
    return ProjArrangement(
        [proj.lines[old] for old in perm],
        infinity_index=perm.index(proj.infinity_index),
    )


def _assert_group(group, n):
    # the identity first, closed under composition and inverse
    assert group[0] == tuple(range(n))
    members = set(group)
    assert len(members) == len(group)
    for s in group:
        assert tuple(sorted(range(n), key=s.__getitem__)) in members
        for t in group:
            assert tuple(s[i] for i in t) in members


def _assert_keeps_multiple_points(proj, group):
    # each sigma carries the multiple points onto multiple points
    points = {p.incident for p in proj.multiple_points()}
    for sigma in group:
        assert {frozenset(sigma[i] for i in p) for p in points} == points


@pytest.mark.parametrize(
    "name, size",
    [("b3", 8), ("b3_relabelled", 8), ("b3_reversed", 8), ("a3", 24)],
)
def test_automorphisms_equal_the_reference(name, size):
    proj = {
        "b3": lambda: corpus.b3()[0],
        "b3_relabelled": lambda: corpus.b3_relabelled()[0],
        "b3_reversed": lambda: _relabelled(corpus.b3()[0], tuple(range(7, -1, -1))),
        "a3": corpus.a3,
    }[name]()
    group = proj.automorphisms()
    assert len(group) == size
    assert group == tuple(brute.projective_automorphisms(proj))
    _assert_group(group, proj.n)
    _assert_keeps_multiple_points(proj, group)


def test_automorphisms_of_a_generic_cone_are_the_identity():
    # no multiple point, so every permutation keeps the intersection
    # lattice and every line has one type; only the projective check
    # tells them apart
    rng = random.Random(5)
    rows = [tuple(rng.randrange(-60, 61) for _ in range(3)) for _ in range(6)]
    proj = cone(Arrangement(rows))
    assert proj.n == 7 and not proj.multiple_points()
    assert proj.automorphisms() == ((0, 1, 2, 3, 4, 5, 6),)
    assert brute.projective_automorphisms(proj) == [(0, 1, 2, 3, 4, 5, 6)]


@pytest.mark.parametrize(
    "rows",
    [
        [(1, 0, 0), (0, 1, 0)],  # three lines
        [(1, 0, 0), (1, 0, -1), (1, 0, -2)],  # a pencil of four
        [(1, 0, 0), (1, 0, -1), (1, 0, -2), (0, 1, 0)],  # a near-pencil
    ],
)
def test_automorphisms_without_a_frame_are_the_identity(rows):
    proj = cone(Arrangement(rows))
    assert proj.automorphisms() == (tuple(range(proj.n)),)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(arrangements(max_lines=5, min_lines=3))
def test_automorphisms_equal_the_reference_on_random_cones(arr):
    proj = cone(arr)
    group = proj.automorphisms()
    assert group == tuple(brute.projective_automorphisms(proj))
    _assert_group(group, proj.n)
    _assert_keeps_multiple_points(proj, group)


def test_canonical_triple():
    assert canonical_triple(Fraction(2), Fraction(4), Fraction(-2)) == (
        1,
        2,
        -1,
    )
    assert canonical_triple(Fraction(0), Fraction(-3), Fraction(6)) == (0, 1, -2)
