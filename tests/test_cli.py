import contextlib
import dataclasses
import io
import re
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linecoh import charvar, cli, geometry, mincomplex, resband
from linecoh.cli import main
from linecoh.localsystem import LocalSystem

FIG1 = "1 -4 -1\n1 0 -2\n1 0 -3\n1 0 -4\n1 4 -5\n"
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "fig1.txt"
    path.write_text(FIG1)
    return str(path)


def test_h1_command(fig1_file, capsys):
    code = main(
        [
            "h1",
            "--arrangement",
            fig1_file,
            "--local-system",
            "torsion 4; 0 1 3 2 0",
            "--check",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "h1 = 2" in out
    assert "h0 h1 h2 = 0 2 4" in out


def test_h1_relabels_when_infinity_trivial(capsys):
    # the projective file lists the same lines after its infinity row, so
    # the moved line is named by its file row
    for name, moved in (("fig1.txt", "H2"), ("fig1_proj.txt", "H3")):
        code = main(
            [
                "h1",
                "--arrangement",
                str(GOLDEN / name),
                "--local-system",
                "torsion 4; 0 1 3 0 0",
                "--check",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert f"relabeling {moved} to infinity" in out
        assert "h1 = 2" in out
        assert "h0 h1 h2 = 0 2 4" in out


def test_h1_reads_projective_rows_on_any_infinity_line(capsys):
    # the same four lines with x and z swapped: x = 0 at infinity in one
    # file and z = 0 in the other, so both give the same reports
    spec = "torsion 2; 1 0 0"
    reports = {}
    for command in (("h1", "--check"), ("certify",)):
        for name in ("proj_x_at_infinity.txt", "proj_z_at_infinity.txt"):
            argv = [*command, "--arrangement", str(GOLDEN / name)]
            assert main(argv + ["--local-system", spec]) == 0
            reports.setdefault(command, []).append(capsys.readouterr().out)
    for x_out, z_out in reports.values():
        assert x_out == z_out
    assert reports[("h1", "--check")][0] == (
        "resonant bands: 0\nh1 = 0\nchamber complex check: h0 h1 h2 = 0 0 0\n"
    )
    assert "certified h1: 0\n" in reports[("certify",)][0]


def test_h1_complex_backend(fig1_file, capsys):
    code = main(
        [
            "h1",
            "--arrangement",
            fig1_file,
            "--local-system",
            "torsion 4; 0 1 3 2 0",
            "--backend",
            "complex",
        ]
    )
    assert code == 0
    assert "h1 = 2" in capsys.readouterr().out


def test_chambers_command(fig1_file, capsys):
    assert main(["chambers", "--arrangement", fig1_file]) == 0
    out = capsys.readouterr().out
    assert "counts by degree: 1 5 6" in out


def test_complex_command_symbolic(fig1_file, capsys):
    code = main(
        [
            "complex",
            "--arrangement",
            fig1_file,
            "--local-system",
            "torsion 2; 1 1 1 1 1",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "D(12345)" in out
    assert "cochain check d1*d0 = 0: ok" in out


def test_certify_command(tmp_path, capsys):
    path = tmp_path / "b3.txt"
    path.write_text(
        "0 1 0\n0 1 -1\n1 0 0\n1 0 -1\n1 -1 1\n1 -1 0\n1 -1 -1\n"
    )
    code = main(
        [
            "certify",
            "--arrangement",
            str(path),
            "--local-system",
            "torsion 5; 0 0 0 0 1 1 1",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "unique resonant point 5678 -> h1 = 2" in out


def test_scan_command_deterministic(fig1_file, capsys):
    args = ["scan", "--arrangement", fig1_file, "--order", "2"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.startswith("scan order=2")


def test_scan_eps_reaches_local_systems(monkeypatch, capsys):
    # the two order-2 deleted-B3 points with h1 = 2 are left to the band
    # kernel, so the scan builds their half monodromies with the given eps
    seen = []
    real = charvar.projective_torsion_halves

    def spy(*args, **kwargs):
        seen.append(kwargs.get("eps"))
        return real(*args, **kwargs)

    monkeypatch.setattr(charvar, "projective_torsion_halves", spy)
    argv = [
        "scan", "--arrangement", str(GOLDEN / "b3del.txt"), "--order", "2",
        "--backend", "complex", "--eps", "1e-6",
    ]
    assert main(argv) == 0
    assert "hits=36" in capsys.readouterr().out
    assert seen and set(seen) == {1e-6}


def test_b3_command(capsys):
    assert main(["b3", "--order", "2"]) == 0
    out = capsys.readouterr().out
    assert "catalog (13 families)" in out
    assert "hits outside the catalog: 0" in out
    assert "e=(0,1,1,0,0,1,0,1) h1=2" in out
    assert "e=(1,0,0,1,0,1,0,1) h1=2" in out


def test_error_exit_codes(tmp_path, capsys):
    bad = tmp_path / "dup.txt"
    bad.write_text("1 0 0\n2 0 0\n")
    assert main(["chambers", "--arrangement", str(bad)]) == 2
    fig = tmp_path / "one.txt"
    fig.write_text("1 0 0\n0 1 0\n")
    # coned, three lines in general position: no multiple point, so the
    # certificates give h1 = 0 everywhere and the scan lists no point
    scan = ["scan", "--arrangement", str(fig), "--order", "6", "--budget", "10"]
    assert main(scan) == 0
    assert capsys.readouterr().out.startswith("scan order=6 lines=3 hits=0\n")
    # coned, a pencil of three lines: its local family has 35 nonzero
    # points at order 6
    pencil = tmp_path / "pencil.txt"
    pencil.write_text("1 0 0\n1 0 -1\n")
    scan[2] = str(pencil)
    assert main(scan) == 3
    assert "order-6 scan exceeds the budget 10" in capsys.readouterr().err
    assert (
        main(
            [
                "h1",
                "--arrangement",
                str(fig),
                "--local-system",
                "torsion 2; 1",
            ]
        )
        == 2
    )


BOUND = "exceeds the bound 1000 of the cyclotomic backend"


# a spec value that cannot be read, or a torsion order beyond the exact
# backend's bound, exits 2 with a message naming the field or the bound
@pytest.mark.parametrize(
    "spec, message",
    [
        ("torsion x; 1 1 1 1 1", "torsion order must be an integer, not 'x'"),
        (
            "torsion 3; 1 1 1.5 1 1",
            "torsion exponents must be integers, not '1.5'",
        ),
        (
            "complex; 1+2j 1 1 1 x",
            "complex monodromies must be complex literals, not 'x'",
        ),
        ("torsion 1001; 0 1 3 0 0", f"torsion order 1001 {BOUND}"),
        (
            "torsion 99999999999999999999; 0 1 3 0 0",
            f"torsion order 99999999999999999999 {BOUND}",
        ),
    ],
)
def test_non_integer_torsion_spec_exits_2(spec, message, capsys):
    argv = ["h1", "--arrangement", str(GOLDEN / "fig1.txt"), "--local-system", spec]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_floating_backend_takes_any_torsion_order(capsys):
    argv = ["h1", "--arrangement", str(GOLDEN / "fig1.txt"), "--backend", "complex"]
    assert main(argv + ["--local-system", "torsion 1001; 0 1 3 0 0"]) == 0
    assert capsys.readouterr().out == "resonant bands: 2\nh1 = 2\n"


def test_floating_backend_refuses_orders_it_cannot_tell_from_one(capsys):
    # 2 sin(pi/N) <= eps: a nontrivial N-th root of unity would read as 1
    # and the system as trivial
    argv = ["h1", "--arrangement", str(GOLDEN / "fig1.txt"), "--backend", "complex"]
    spec = "torsion 99999999999999999999; 0 1 3 0 0"
    assert main(argv + ["--local-system", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: torsion order 99999999999999999999 is too large for the floating "
        "backend at eps 1e-09: its roots of unity other than 1 can lie within eps "
        "of 1\n"
    )


# the cone of x = 0, y = 0, x = y, x = 1 and y = 1 (A3): its four local
# families hold about 4 million points at order 1001
A3 = "1 0 0\n0 1 0\n1 -1 0\n1 0 -1\n0 1 -1\n"


@pytest.mark.parametrize(
    "options, message",
    [
        (["--order", "1001"], f"torsion order 1001 {BOUND}"),
        (
            ["--order", "13", "--backend", "complex", "--eps", "0.5"],
            "torsion order 13 is too large for the floating backend at eps 0.5",
        ),
    ],
)
def test_scan_refuses_an_order_its_backend_cannot_take_at_the_first_point(
    tmp_path, monkeypatch, capsys, options, message
):
    # refused once the walk yields its first point, not after listing the
    # families on the way to the band route
    path = tmp_path / "a3.txt"
    path.write_text(A3)
    listed = []
    real = charvar.candidate_points

    def counting(*args, **kwargs):
        for item in real(*args, **kwargs):
            listed.append(item)
            yield item

    monkeypatch.setattr(charvar, "candidate_points", counting)
    argv = ["scan", "--arrangement", str(path), "--budget", "50000000", *options]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert len(listed) == 1


# three lines in general position: their cone has no multiple point, so a
# scan on it lists no point
GENERIC = "1 0 0\n0 1 0\n1 1 -1\n"
BAD_EPS = "eps must be finite and >= 0"


@pytest.mark.parametrize(
    "options, message",
    [
        (["--order", "1001"], f"torsion order 1001 {BOUND}"),
        (["--order", "3", "--backend", "complex", "--eps", "-1"], BAD_EPS),
        (["--order", "1", "--backend", "complex", "--eps", "-1"], BAD_EPS),
    ],
)
def test_scan_that_lists_no_point_still_checks_its_order(
    tmp_path, capsys, options, message
):
    path = tmp_path / "generic.txt"
    path.write_text(GENERIC)
    assert main(["scan", "--arrangement", str(path), *options]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


def test_h1_check_mismatch_exits_4(monkeypatch, capsys):
    # two computations that must agree and do not: exit 4, not bad input
    real = resband._band_kernel

    def off_by_one(bk, halves, table):
        kernel = real(bk, halves, table)
        return dataclasses.replace(kernel, dim=kernel.dim + 1)

    monkeypatch.setattr(resband, "_band_kernel", off_by_one)
    argv = ["h1", "--arrangement", str(GOLDEN / "fig1.txt"), "--check"]
    assert main(argv + ["--local-system", "torsion 4; 0 1 3 2 0"]) == 4
    out = capsys.readouterr().out
    assert "h1 = 3\n" in out
    assert out.endswith("MISMATCH between band kernel and chamber complex\n")


def test_certify_reads_the_resonance_once(monkeypatch, capsys):
    # the certificates, the sharp pairs and the printed resonant lines all
    # come from one certificate report
    calls = []
    real = LocalSystem.projective_halves

    def counting(self, proj):
        calls.append(proj)
        return real(self, proj)

    monkeypatch.setattr(LocalSystem, "projective_halves", counting)
    argv = ["certify", "--arrangement", str(GOLDEN / "b3del.txt")]
    assert main(argv + ["--local-system", "torsion 5; 0 0 0 0 1 1 1"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "certify_b3.out").read_text()
    assert len(calls) == 1


# the interpreter's integer string digit limit: 4300 by default, 0 (none)
# before Python 3.11 and 3.10.7
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
beyond_limit = pytest.mark.skipif(
    not 0 < DIGIT_LIMIT < 5000, reason="needs an integer digit limit below 5000"
)


@pytest.mark.parametrize(
    "token, code",
    # an exponent above the digit limit is refused, as a literal with more
    # digits is, before 10**5000 is computed
    [
        pytest.param("1" * 5001, 2, marks=beyond_limit),
        pytest.param("1e5000", 2, marks=beyond_limit),
        pytest.param("1e-5000", 2, marks=beyond_limit),
        ("1e10", 0),
        ("1e-10", 0),
    ],
)
def test_exponent_above_digit_limit_exits_2(token, code, tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text(f"{token} 0 0\n0 1 0\n")
    assert main(["chambers", "--arrangement", str(path)]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.err == f"error: malformed rational {token!r}\n"
    else:
        assert captured.out.startswith("lines (2):\n  H1: 1*x + 0*y + 0 = 0\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--arrangement", str(GOLDEN / "fig1.txt"), "--order", "-2"],
        ["b3", "--order", "0"],
    ],
)
def test_scan_orders_below_one_exit_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: torsion order must be >= 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--arrangement", str(GOLDEN / "fig1.txt"), "--order", "2"],
        ["b3", "--order", "2"],
    ],
)
def test_negative_budget_exits_2(argv, capsys):
    # a negative budget is bad input, not a scan that exceeds it (exit 3)
    assert main([*argv, "--budget", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: scan budget must be >= 0, not -1\n"


@pytest.mark.parametrize("eps", ["-1", "nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize(
    "spec, backend",
    [
        ("complex; 0.9999999991 -1 1 1 1", "cyclotomic"),
        ("torsion 4; 0 1 3 0 0", "complex"),
    ],
)
def test_bad_eps_exits_2(spec, backend, eps, capsys):
    # unchecked, a negative eps lets a zero pivot into the elimination, nan
    # makes no entry zero and inf makes every monodromy trivial
    argv = [
        "h1", "--arrangement", str(GOLDEN / "fig1.txt"), "--local-system", spec,
        "--backend", backend, "--check", f"--eps={eps}",
    ]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: eps must be finite and >= 0, not ")


@pytest.mark.parametrize("eps", ["0", "1e-16", "1e-13"])
def test_eps_below_floor_exits_2(eps, capsys):
    # below 1e-12 rounding decides the zero tests: this scan printed 74
    # hits at eps 0 and 1e-16 and 120 at 1e-15, where the exact backend
    # finds 114
    argv = [
        "scan", "--arrangement", str(GOLDEN / "b3del.txt"), "--order", "3",
        "--backend", "complex", f"--eps={eps}",
    ]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    floor = f"error: eps {float(eps)!r} is below the rounding floor 1e-12\n"
    assert captured.err == floor


def test_eps_at_floor_matches_exact_scan(capsys):
    argv = ["scan", "--arrangement", str(GOLDEN / "b3del.txt"), "--order", "3"]
    assert main(argv) == 0
    exact = capsys.readouterr().out
    assert main([*argv, "--backend", "complex", "--eps=1e-12"]) == 0
    assert capsys.readouterr().out == exact
    assert exact.startswith("scan order=3 lines=8 hits=114\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_monodromy_exits_2(value, capsys):
    # nan and inf pass the zero test; unchecked, the band kernel and the
    # chamber complex disagree on them
    argv = [
        "h1", "--arrangement", str(GOLDEN / "fig1.txt"),
        "--local-system", f"complex; {value} 1 1 1 1", "--check",
    ]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: monodromy values must be finite\n"


# tokens a user may pass where numbers are expected
HOSTILE = ["nan", "inf", "-inf", "-1", "1e400", "1+2j", ""]


@st.composite
def monodromy_tokens(draw):
    """Five monodromy tokens, valid for either kind of spec, with at most
    one replaced by a hostile one."""
    valid = st.sampled_from(["1", "2", "3", "-1"])
    values = draw(st.lists(valid, min_size=5, max_size=5))
    spoil = draw(st.none() | st.tuples(st.integers(0, 4), st.sampled_from(HOSTILE)))
    if spoil is not None:
        values[spoil[0]] = spoil[1]
    return values


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    command=st.sampled_from([("h1", "--check"), ("certify",), ("complex",)]),
    kind=st.sampled_from(
        [
            "torsion 2", "torsion 3", "torsion 0", "torsion -3", "torsion x",
            "complex", "",
        ]
    ),
    values=monodromy_tokens(),
    backend=st.sampled_from(["cyclotomic", "complex"]),
    eps=st.sampled_from(HOSTILE) | st.just("1e-9"),
)
def test_main_exits_0_or_2_on_hostile_numbers(command, kind, values, backend, eps):
    """``main`` returns 0 or 2 and never raises; argparse leaves an --eps
    that is no float by ``SystemExit(2)``, the console script's exit 2.
    Every exit 2 prints an ``error:`` line."""
    argv = [
        *command, "--arrangement", str(GOLDEN / "fig1.txt"),
        "--local-system", f"{kind}; {' '.join(values)}",
        "--backend", backend, f"--eps={eps}",
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert "error:" in err.getvalue(), out.getvalue()


def test_h1_on_pencil(tmp_path, capsys):
    # two parallel lines: the strip between them is one chamber, both ends
    # of its band, and h1 = 1 on C x (C minus two points)
    path = tmp_path / "pencil.txt"
    path.write_text("1 0 0\n1 0 -1\n")
    argv = ["h1", "--arrangement", str(path), "--local-system", "torsion 2; 1 0"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "resonant bands: 1\nh1 = 1\n"
    # the chamber complex is built on a flag, which needs a crossing
    assert main(argv + ["--check"]) == 2
    assert capsys.readouterr().err == "error: arrangement has no intersection point\n"


def test_unwritable_out_exits_2(fig1_file, tmp_path, capsys):
    out = tmp_path / "missing" / "r.out"
    spec = "torsion 3; 1 1 1 0 0"
    argv = ["h1", "--arrangement", fig1_file, "--local-system", spec]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}")
    assert "Traceback" not in err
    assert not out.exists()


def test_invariant_failures_exit_4(fig1_file, monkeypatch, capsys):
    # H1, H3 and H5 nontrivial and only the triple point 135 resonant; a
    # table that hides 135 from H3 lets H1 certify h1 = 1 and H3, seeing
    # no resonant point, h1 = 0
    real = resband.incidence_table

    def hiding(proj):
        table = real(proj)
        on_mask = list(table.on_mask)
        on_mask[2] &= ~(1 << table.points.index((0, 2, 4)))
        return dataclasses.replace(table, on_mask=tuple(on_mask))

    monkeypatch.setattr(resband, "incidence_table", hiding)
    spec = "torsion 4; 1 0 1 0 2"
    code = main(["certify", "--arrangement", fig1_file, "--local-system", spec])
    assert code == 4
    assert "error: contradictory certificates: [0, 1]" in capsys.readouterr().err


def test_broken_flag_exits_4(fig1_file, monkeypatch, capsys):
    # an axis height above the lowest point breaks a flag condition that
    # holds by construction: a defect, not bad input
    real = geometry._flag_axis

    def raised(arrangement, variant):
        p, q, ty, heights = real(arrangement, variant)
        return p, q, ty + 2, heights

    monkeypatch.setattr(geometry, "_flag_axis", raised)
    spec = "torsion 4; 0 1 3 2 0"
    code = main(["h1", "--arrangement", fig1_file, "--local-system", spec, "--check"])
    assert code == 4
    err = capsys.readouterr().err
    assert err == "error: an intersection point is not above the flag axis\n"


@pytest.mark.parametrize("command", ["h1", "complex", "certify"])
def test_huge_complex_monodromies_exit_2(fig1_file, command, capsys):
    # weights up to 1e120 round by far more than eps: the oracle printed
    # h0 h1 h2 = 0 -1 1, and h1 --check a mismatch
    spec = "complex; 1e80 1e80 1e80 1 1"
    code = main([command, "--arrangement", fig1_file, "--local-system", spec])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: monodromy moduli too far from 1")


def test_failed_cochain_check_exits_4(fig1_file, monkeypatch, capsys):
    monkeypatch.setattr(mincomplex.TwistedComplex, "cochain_ok", lambda self: False)
    spec = "torsion 2; 1 1 1 1 1"
    code = main(["complex", "--arrangement", fig1_file, "--local-system", spec])
    assert code == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: cochain check d1*d0 = 0 failed\n"


def test_negative_dimension_exits_4(fig1_file, monkeypatch, capsys):
    # a rank above the basis size stands for ranks that rounding made
    # inconsistent
    monkeypatch.setattr(mincomplex, "rank", lambda mat: mat.ncols + 1)
    spec = "torsion 4; 0 1 3 2 0"
    argv = ["h1", "--arrangement", fig1_file, "--local-system", spec, "--check"]
    assert main(argv) == 4
    assert capsys.readouterr().err.startswith("error: negative dimension: h0 h1 h2")


def test_h1_complex_near_eps_band_resonance(capsys):
    # the product of q over a band's ends and over its point at infinity
    # are equal, but round to opposite sides of eps; band resonance is
    # decided by the point at infinity alone, so this valid input succeeds
    spec = (
        "complex; 1.000000001 2.221350010084271 0.9555528629604855 "
        "1.6890136982116495 1"
    )
    code = main(
        [
            "h1",
            "--arrangement",
            str(GOLDEN / "fig1.txt"),
            "--local-system",
            spec,
            "--check",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0, captured.err
    band = int(re.search(r"^h1 = (\d+)$", captured.out, re.M).group(1))
    dims = re.search(r"h0 h1 h2 = (\d+) (\d+) (\d+)", captured.out).groups()
    assert band == int(dims[1])


def test_output_file(fig1_file, tmp_path, capsys):
    out_path = tmp_path / "report.txt"
    code = main(
        [
            "h1",
            "--arrangement",
            fig1_file,
            "--local-system",
            "torsion 4; 0 1 3 2 0",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    assert "h1 = 2" in out_path.read_text()
    assert capsys.readouterr().out == ""


GOLDEN_CASES = {
    "chambers_fig1": ["chambers", "--arrangement", "fig1.txt"],
    "chambers_b3": ["chambers", "--arrangement", "b3del.txt"],
    "chambers_fig1_proj": ["chambers", "--arrangement", "fig1_proj.txt"],
    "complex_fig1_symbolic": [
        "complex", "--arrangement", "fig1.txt",
        "--local-system", "torsion 2; 1 1 1 1 1",
    ],
    "complex_fig1_numeric": [
        "complex", "--arrangement", "fig1.txt",
        "--local-system", "torsion 4; 0 1 3 2 0", "--backend", "complex",
    ],
    "h1_fig1_direct": [
        "h1", "--arrangement", "fig1.txt",
        "--local-system", "torsion 4; 0 1 3 2 0", "--check",
    ],
    "h1_fig1_relabel": [
        "h1", "--arrangement", "fig1.txt",
        "--local-system", "torsion 4; 0 1 3 0 0", "--check",
    ],
    "h1_fig1_relabel_complex": [
        "h1", "--arrangement", "fig1.txt",
        "--local-system", "complex; 1 -1 -1 1 1", "--check",
    ],
    # every band entry is below eps = 1e-9, so the band kernel must see zeros
    "h1_fig1_complex_below_eps": [
        "h1", "--arrangement", "fig1.txt",
        "--local-system", "complex; 0.9999999991 -1 1 1 1", "--check",
    ],
    "h1_fig1_relabel_float": [
        "h1", "--arrangement", "fig1.txt",
        "--local-system", "torsion 4; 0 1 3 0 0", "--backend", "complex", "--check",
    ],
    "h1_fig1_proj_relabel": [
        "h1", "--arrangement", "fig1_proj.txt",
        "--local-system", "torsion 4; 0 1 3 0 0", "--check",
    ],
    "h1_fig1_trivial": [
        "h1", "--arrangement", "fig1.txt",
        "--local-system", "torsion 4; 0 0 0 0 0", "--check",
    ],
    "h1_b3_direct": [
        "h1", "--arrangement", "b3del.txt",
        "--local-system", "torsion 5; 0 0 0 0 1 1 1", "--check",
    ],
    "certify_b3": [
        "certify", "--arrangement", "b3del.txt",
        "--local-system", "torsion 5; 0 0 0 0 1 1 1",
    ],
    "certify_fig1": [
        "certify", "--arrangement", "fig1.txt",
        "--local-system", "torsion 4; 0 1 3 2 0",
    ],
    # the floating resonance tests of the certificates, on the -1 values of
    # a complex system and on order-5 roots of unity
    "certify_fig1_complex": [
        "certify", "--arrangement", "fig1.txt",
        "--local-system", "complex; 1 -1 -1 1 1",
    ],
    "certify_b3_float": [
        "certify", "--arrangement", "b3del.txt",
        "--local-system", "torsion 5; 0 0 0 0 1 1 1", "--backend", "complex",
    ],
    "certify_fig1_proj": [
        "certify", "--arrangement", "fig1_proj.txt",
        "--local-system", "torsion 4; 0 1 3 2 0",
    ],
    # reordered, sign-flipped flag: the transported chambers must match
    "chambers_flag8": ["chambers", "--arrangement", "flag8.txt"],
    "complex_flag8_symbolic": [
        "complex", "--arrangement", "flag8.txt",
        "--local-system", "torsion 3; 0 1 1 1 1 0 0 0",
    ],
    "certify_flag8": [
        "certify", "--arrangement", "flag8.txt",
        "--local-system", "torsion 2; 0 1 1 1 1 1 0 0",
    ],
    "scan_fig1": ["scan", "--arrangement", "fig1.txt", "--order", "2"],
    "scan_b3": ["scan", "--arrangement", "b3del.txt", "--order", "2"],
    # the coned grid file: 13 multiple points and 24 automorphisms
    "scan_grid12_3": ["scan", "--arrangement", "grid12.txt", "--order", "3"],
    "b3": ["b3", "--order", "2"],
    # a full scan report: 226 hits, each with its h1 and family names
    "b3_4": ["b3", "--order", "4"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_report(name, tmp_path, monkeypatch):
    """Reports stay byte-identical to the checked-in ``golden/<name>.out``.
    The argv is well formed, so ``cli._read_exact`` reads it alone: both
    argparse parser builders are patched to raise."""

    def refuse(*args):
        raise AssertionError("argparse parser built for well-formed argv")

    monkeypatch.setattr(cli, "_subcommand_parser", refuse)
    monkeypatch.setattr(cli, "_build_parser", refuse)
    monkeypatch.chdir(GOLDEN)
    out = tmp_path / "report.txt"
    assert main(GOLDEN_CASES[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.out").read_bytes()


# argv -> exit code; help goes to stdout (golden/<name>.out), usage errors
# to stderr (golden/<name>.err), and the other stream stays empty
SURFACE_CASES = {
    "usage_none": ([], 2),
    "usage_bogus": (["bogus"], 2),
    "help": (["--help"], 0),
    "usage_h1_missing": (["h1"], 2),
    "help_h1": (["h1", "--help"], 0),
    "help_b3": (["b3", "--help"], 0),
    "help_certify": (["certify", "--help"], 0),
    "help_scan": (["scan", "--help"], 0),
    "help_chambers": (["chambers", "--help"], 0),
    "usage_complex_missing": (["complex"], 2),
    # leftover arguments after a known subcommand: the top-level usage
    "usage_h1_unrecognized": (
        [
            "h1", "--arrangement", "tests/golden/fig1.txt",
            "--local-system", "x", "--bogus",
        ],
        2,
    ),
}


@pytest.mark.parametrize("name", sorted(SURFACE_CASES))
def test_cli_surface_golden(name, monkeypatch, capsys):
    """Usage, help and argument errors stay byte-identical."""
    argv, expected = SURFACE_CASES[name]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == expected
    if code == 0:
        shown, silent, suffix = captured.out, captured.err, ".out"
    else:
        shown, silent, suffix = captured.err, captured.out, ".err"
    assert shown.encode() == (GOLDEN / f"{name}{suffix}").read_bytes()
    assert silent == ""


# argv pieces for the exact reader: flags with their abbreviations, values
# argparse reads as options, negative numbers, bad numbers or bad choices,
# and tokens that are never an exact option
READER_FLAGS = [
    "--arrangement", "--local-system", "--order", "--budget", "--backend",
    "--eps", "--out", "--check", "--arr", "--che", "--ord",
]
# tokens the reader always leaves to argparse, before any "="
NEVER_EXACT = {"--arr", "--che", "--ord", "--", "-h", "--help"}
READER_VALUES = [
    "fig1.txt", "2", "cyclotomic", "complex", "1e-9", "torsion 2; 1 0", "",
    "-1", "-x", "nan", "abc", "bogus", "-1 2", "a=b",
]
READER_LONE = ["--", "-h", "--help", "--check=x", "--check=", "fig1.txt"]
# well-formed values of every valued option, two or more so that repeats
# can differ
READER_GOOD = {
    "--arrangement": ["fig1.txt", "a=b", ""],
    "--local-system": ["torsion 2; 1 0", "abc"],
    "--order": ["2", "3"],
    "--budget": ["5", "0"],
    "--backend": ["complex", "cyclotomic"],
    "--eps": ["1e-9", "nan", "0.5"],
    "--out": ["report.txt", "bogus"],
}


@st.composite
def subcommand_argv(draw):
    """A subcommand row and the tokens after its name: its required
    options with good values, then more of its own options with good
    values and up to two pieces drawn from the pools above, in any
    order."""
    row = draw(st.sampled_from(cli._SUBCOMMANDS))
    options = row[3]

    def good(opt):
        if opt.type is bool:
            return st.just([opt.flag])
        value = st.sampled_from(READER_GOOD[opt.flag])
        return value.map(lambda v: [opt.flag, v]) | value.map(
            lambda v: [f"{opt.flag}={v}"]
        )

    pieces = [draw(good(opt)) for opt in options if opt.required]
    pieces += draw(st.lists(st.sampled_from(options).flatmap(good), max_size=4))
    flag = st.sampled_from(READER_FLAGS)
    value = st.sampled_from(READER_VALUES)
    hostile = st.one_of(
        st.tuples(flag, value).map(list),
        st.tuples(flag, value).map(lambda fv: ["=".join(fv)]),
        flag.map(lambda f: [f]),
        st.sampled_from(READER_LONE).map(lambda t: [t]),
    )
    pieces += draw(st.lists(hostile, max_size=2))
    pieces = draw(st.permutations(pieces))
    return row, [token for piece in pieces for token in piece]


def _plain(args):
    """``vars(args)`` with nan made comparable."""
    return {k: "nan" if v != v else v for k, v in vars(args).items()}


def _row(name, *tokens):
    return next(row for row in cli._SUBCOMMANDS if row[0] == name), list(tokens)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(drawn=subcommand_argv())
# one near miss per rule of the reader, whatever the draws
@example(drawn=_row("chambers", "--arrangement", "f", "--out", "-x"))
@example(drawn=_row("b3", "--order", "2", "--order", "3"))
@example(drawn=_row("h1", "--arrangement", "f", "--local-system", "s", "--check="))
@example(drawn=_row("b3", "--backend", "bogus"))
@example(drawn=_row("scan", "--arr", "f", "--order", "2"))
def test_exact_reader_agrees_with_argparse(drawn):
    """Whenever ``_read_exact`` returns a namespace, the subcommand's
    argparse parser reads the same tokens to an equal one with nothing
    left over; abbreviations, help and "--" always go to argparse."""
    row, tokens = drawn
    args = cli._read_exact(*row, tokens)
    if any(token.partition("=")[0] in NEVER_EXACT for token in tokens):
        assert args is None, tokens
    if args is None:
        return
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            parsed, extra = cli._subcommand_parser(*row).parse_known_args(tokens)
        except SystemExit:
            pytest.fail(f"argparse refused {tokens!r}: {err.getvalue()}")
    assert extra == []
    assert _plain(args) == _plain(parsed)
