import contextlib
import dataclasses
import io
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linecoh import charvar, resband
from linecoh.cli import main
from linecoh.localsystem import make_local_system

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
    # kernel, so the scan builds local systems, with the given eps
    seen = []

    def spy(*args, **kwargs):
        seen.append(kwargs.get("eps"))
        return make_local_system(*args, **kwargs)

    monkeypatch.setattr(charvar, "make_local_system", spy)
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
    assert (
        main(
            [
                "scan",
                "--arrangement",
                str(fig),
                "--order",
                "6",
                "--budget",
                "10",
            ]
        )
        == 3
    )
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
    "b3": ["b3", "--order", "2"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_report(name, tmp_path, monkeypatch):
    """Reports stay byte-identical to the checked-in ``golden/<name>.out``."""
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
