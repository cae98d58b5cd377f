"""Command line front end.

Subcommands: chambers, complex, h1, certify, scan, b3, each with its
options as rows of ``_SUBCOMMANDS``, which argparse and ``_read_exact``
both read.  ``main`` reads argv of exact long flags with values that do
not start with "-" by ``_read_exact`` alone and builds no parser; on the
``cli-check`` benchmark that raised cold ``h1 --check``/``certify`` query
pairs from a median 182 to 218 per second (ten alternating 30 s runs on 2
vCPUs, Python 3.11).  It also beats one argparse parser built once per
process and kept: 216 against 205 pairs per second, about 5%, faster in
6 of 6 alternating 8 s pairs.  Any other argv (help, an abbreviation, "--", a
bad value, a missing option, an unknown subcommand) goes to the full
argparse parser, which prints the help or the usage error.
Reports are deterministic (byte-identical across runs for the same
inputs).  ``scan`` and ``b3`` list only the torus points the
certificates cannot set to h1 = 0 (``charvar.torsion_scan``); their
``--budget`` bounds the points listed and the nodes of the walk over the
multiple points, and for ``b3`` the parameter tuples of the catalog
index, all counted before any point is listed, not the N^(n-1) grid;
a negative ``--budget`` is bad input.  Exit codes: 0 success, 2
precondition failure (bad input, or an unreadable arrangement file or
unwritable ``--out`` path), 3 enumeration
budget exceeded, 4 internal invariant broken (two computations that must
agree did not, a failed cochain check d1*d0 = 0, a negative dimension or
a broken chamber, flag or band invariant);
with floating arithmetic, an ``--eps`` that is not a finite number >=
1e-12 is bad input, and so is a torsion order above
``scalars.MAX_TORSION_ORDER`` = 1000 with exact arithmetic, or one with
2 sin(pi/N) <= eps (about 6.3e9 at the default eps 1e-9) with floating,
or complex monodromies whose products of two weights can round by more
than eps, (n + 1) * 2^-52 * prod max(|q_i|, 1/|q_i|) > eps.
"""

from __future__ import annotations

import argparse
import sys
from typing import NamedTuple

from . import charvar, mincomplex, resband
from .geometry import ProjArrangement, cone, monic, parse_arrangement
from .localsystem import LocalSystemError, make_local_system
from .scalars import DEFAULT_EPS


class _CliError(ValueError):
    pass


def _load(path):
    """(arr, proj) from an affine or projective file: the projective
    arrangement (the cone of affine input) and its infinity chart."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = parse_arrangement(fh.read())
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc
    proj = obj if isinstance(obj, ProjArrangement) else cone(obj)
    return proj.chart(proj.infinity_index).arrangement, proj


def _number(kind, token, what):
    try:
        return kind(token)
    except ValueError:
        raise LocalSystemError(f"{what}, not {token!r}") from None


def _parse_system(spec, n, backend, eps):
    head, _, rest = spec.partition(";")
    head = head.split()
    if not head:
        raise LocalSystemError('local system spec must start with "torsion" or "complex"')
    if head[0] == "torsion":
        grammar, size = 'torsion spec is "torsion N; e1 ... en"', 2
    elif head[0] == "complex":
        grammar, size = 'complex spec is "complex; q1 ... qn"', 1
    else:
        raise LocalSystemError(f"unknown local system kind {head[0]!r}")
    if len(head) != size or ";" in rest:
        raise LocalSystemError(grammar)
    values = rest.split()
    if len(values) != n:
        raise LocalSystemError(
            f"local system lists {len(values)} monodromies for {n} lines"
        )
    if size == 1:
        what = "complex monodromies must be complex literals"
        return make_local_system(
            values=[_number(complex, v, what) for v in values], eps=eps
        )
    order = _number(int, head[1], "torsion order must be an integer")
    exps = [_number(int, v, "torsion exponents must be integers") for v in values]
    return make_local_system(exps, order=order, backend=backend, eps=eps)


def _emit(out, text):
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _CliError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _sign_header(arr):
    return [
        f"lines ({arr.n}):",
        *(
            "  H{}: {}*x + {}*y + {} = 0".format(k + 1, *monic(row))
            for k, row in enumerate(arr.lines)
        ),
    ]


def cmd_chambers(args):
    arr, _ = _load(args.arrangement)
    rows = _sign_header(arr)
    flagged = arr.flagged()
    rows.append(f"flag line order: {' '.join(f'H{i + 1}' for i in flagged.order)}")
    rows.append("chambers (signs in flag order):")
    degree = dict.fromkeys(flagged.u_index, 1)  # degree 2 off the axis
    degree[flagged.u_index[0]] = 0
    for ch in flagged.chambers:
        opp = ch.opposite.sign_string() if ch.opposite is not None else "-"
        rows.append(
            f"  {ch.sign_string()}  bounded={'y' if ch.bounded else 'n'}"
            f"  degree={degree.get(ch.index, 2)}  opposite={opp}"
        )
    rows.append(f"counts by degree: 1 {len(flagged.ch1)} {len(flagged.ch2)}")
    _emit(args.out, "\n".join(rows) + "\n")
    return 0


def cmd_complex(args):
    arr, _ = _load(args.arrangement)
    system = _parse_system(args.local_system, arr.n, args.backend, args.eps)
    flagged = arr.flagged()
    cx = mincomplex.build_complex(system, flagged)
    structure, bk = cx.structure, system.backend
    rows = _sign_header(arr)
    rows.append("d0 (column over U_1 ... U_0^op):")
    for ids, (value,) in zip(structure.d0, cx.d0.rows):
        rows.append("  " + mincomplex.format_entry(bk, 1, ids, value))
    rows.append("d1 (rows = degree-2 chambers):")
    cells = [["0"] * flagged.n for _ in structure.basis2]
    for r, c, sign, ids in structure.d1:
        cells[r][c] = mincomplex.format_entry(bk, sign, ids, cx.d1.rows[r][c])
    for ci, line in zip(structure.basis2, cells):
        rows.append(f"  {flagged.chambers[ci].sign_string()}: " + "  ".join(line))
    if not cx.cochain_ok():
        raise resband.InvariantError("cochain check d1*d0 = 0 failed")
    rows.append("cochain check d1*d0 = 0: ok")
    h0, h1, h2 = cx.dims()
    rows.append(f"h0 h1 h2 = {h0} {h1} {h2}")
    _emit(args.out, "\n".join(rows) + "\n")
    return 0


def cmd_h1(args):
    arr, proj = _load(args.arrangement)
    system = _parse_system(args.local_system, arr.n, args.backend, args.eps)
    found = resband.h1_on_band_chart(system, proj)
    if found is None:
        h1 = mincomplex.cohomology_dims(system, arr)[1]
        _emit(
            args.out,
            "infinity monodromy and all line monodromies are trivial; "
            f"falling back to the chamber complex\nh1 = {h1}\n",
        )
        return 0
    h, result = found
    rows = []
    if h != proj.infinity_index:
        rows.append(f"infinity monodromy is trivial; relabeling H{h + 1} to infinity")
    rows.append(f"resonant bands: {len(result.bands)}")
    rows.append(f"h1 = {result.dim}")
    if args.check:
        h0, h1, h2 = mincomplex.cohomology_dims(system, arr)
        rows.append(f"chamber complex check: h0 h1 h2 = {h0} {h1} {h2}")
        if h1 != result.dim:
            rows.append("MISMATCH between band kernel and chamber complex")
            _emit(args.out, "\n".join(rows) + "\n")
            return 4
    _emit(args.out, "\n".join(rows) + "\n")
    return 0


def cmd_certify(args):
    arr, proj = _load(args.arrangement)
    system = _parse_system(args.local_system, arr.n, args.backend, args.eps)
    report = resband.vanishing_certificates(system, proj)
    resonant = [f"H{j + 1}" for j in range(proj.n) if not report.nontrivial >> j & 1]
    rows = [f"resonant lines: {' '.join(resonant) or 'none'}"]
    points = resband.incidence_table(proj).points
    for h, h1, k in report.rows:
        if h1 is None:
            rows.append(f"H{h + 1}: no certificate")
        elif k is None:
            rows.append(f"H{h + 1}: no resonant multiple point -> h1 = 0")
        else:
            names = "".join(str(j + 1) for j in points[k])
            rows.append(f"H{h + 1}: unique resonant point {names} -> h1 = {h1}")
    rows.append(
        f"certified h1: {report.h1 if report.h1 is not None else 'undetermined'}"
    )
    pairs = resband.sharp_pairs(proj, report)
    if pairs:
        for sp in pairs:
            i, j = sp.pair
            claim = (
                "no bound (hypothesis fails)"
                if sp.bound is None
                else f"h1 <= {sp.bound}"
            )
            rows.append(f"sharp pair (H{i + 1}, H{j + 1}): {claim}")
    else:
        rows.append("sharp pairs: none")
    _emit(args.out, "\n".join(rows) + "\n")
    return 0


def cmd_scan(args):
    _, proj = _load(args.arrangement)
    hits = charvar.torsion_scan(
        proj, args.order, budget=args.budget, backend=args.backend, eps=args.eps
    )
    rows = [f"scan order={args.order} lines={proj.n} hits={len(hits)}"]
    rows.append("trivial character: skipped (h1 equals the first Betti number)")
    for hit in hits:
        exps = ",".join(str(e) for e in hit.point.exponents)
        rows.append(f"hit e=({exps}) N={hit.point.order} h1={hit.h1}")
    _emit(args.out, "\n".join(rows) + "\n")
    return 0


def cmd_b3(args):
    proj, catalog = charvar.deleted_b3()
    rows = ["deleted B3 arrangement (8 lines, H8 at infinity)"]
    rows.append("multiple points per line:")
    table = resband.incidence_table(proj)
    for h in range(proj.n):
        pts = ["".join(str(j + 1) for j in p) for p in table.points if h in p]
        rows.append(f"  H{h + 1}: {' '.join(pts)}")
    rows.append(f"catalog ({len(catalog)} families):")
    for fam in catalog:
        rows.append(f"  {fam.name} ({fam.nparams} parameters)")
    hits = charvar.torsion_scan(
        proj, args.order, budget=args.budget, catalog=catalog, backend=args.backend
    )
    rows.append(f"order-{args.order} scan: {len(hits)} hits")
    unmatched = 0
    for hit in hits:
        exps = ",".join(str(e) for e in hit.point.exponents)
        fams = " ".join(hit.families) if hit.families else "UNMATCHED"
        if not hit.families:
            unmatched += 1
        rows.append(f"  e=({exps}) h1={hit.h1} in {fams}")
    rows.append(f"hits outside the catalog: {unmatched}")
    _emit(args.out, "\n".join(rows) + "\n")
    return 0


class _Option(NamedTuple):
    """One option of a subcommand, read by argparse and by ``_read_exact``;
    ``type`` bool marks a ``store_true`` flag."""

    flag: str
    type: type
    default: object = None
    required: bool = False
    choices: tuple = None
    help: str = None


_ARRANGEMENT = _Option("--arrangement", str, required=True, help="arrangement file")
_SYSTEM = _Option(
    "--local-system",
    str,
    required=True,
    help='"torsion N; e1 ... en" or "complex; q1 ... qn"',
)
_ORDER = _Option("--order", int, required=True)
_BUDGET = _Option("--budget", int, charvar.DEFAULT_BUDGET)
_BACKEND = _Option("--backend", str, "cyclotomic", choices=("cyclotomic", "complex"))
_EPS = _Option("--eps", float, DEFAULT_EPS)
_OUT = _Option("--out", str)
_CHECK = _Option("--check", bool, False, help="cross-check with the complex")

# (name, help, handler, options), in usage order
_SUBCOMMANDS = (
    (
        "chambers",
        "chambers and flag classification",
        cmd_chambers,
        (_ARRANGEMENT, _OUT),
    ),
    (
        "complex",
        "print the twisted chamber complex",
        cmd_complex,
        (_ARRANGEMENT, _SYSTEM, _BACKEND, _EPS, _OUT),
    ),
    (
        "h1",
        "first cohomology via resonant bands",
        cmd_h1,
        (_ARRANGEMENT, _SYSTEM, _BACKEND, _EPS, _OUT, _CHECK),
    ),
    (
        "certify",
        "combinatorial certificates and sharp pairs",
        cmd_certify,
        (_ARRANGEMENT, _SYSTEM, _BACKEND, _EPS, _OUT),
    ),
    (
        "scan",
        "torsion points with h1 >= 1",
        cmd_scan,
        (_ARRANGEMENT, _ORDER, _BUDGET, _BACKEND, _EPS, _OUT),
    ),
    (
        "b3",
        "deleted B3 catalog verification table",
        cmd_b3,
        (_Option("--order", int, 2), _BUDGET, _BACKEND, _OUT),
    ),
)


def _build_parser():
    """The argument parser with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="linecoh",
        description="Local system cohomology of real line arrangements",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, func, options in _SUBCOMMANDS:
        command = sub.add_parser(name, help=summary)
        for opt in options:
            if opt.type is bool:
                command.add_argument(opt.flag, action="store_true", help=opt.help)
            else:
                command.add_argument(
                    opt.flag,
                    type=opt.type,
                    default=opt.default,
                    required=opt.required,
                    choices=opt.choices,
                    help=opt.help,
                )
        command.set_defaults(func=func)
    return parser


def _read_exact(name, summary, func, options, tokens):
    """The namespace the full parser reads from ``name`` and ``tokens``,
    less its ``command`` entry, or None unless every token is an exact
    long flag of a valued option, with its value next or after "=", or an
    exact ``store_true`` flag without "=".  A value must not start with
    "-": so argparse takes it as the option's argument, never as a flag or
    "--".  Values are converted and checked as argparse does, and a
    repeated option keeps its last value.  Abbreviations, help, "--",
    positionals, bad values and missing required options give None, and
    argparse then prints the help or the error."""
    by_flag = {opt.flag: opt for opt in options}
    values = {}
    tokens = iter(tokens)
    for token in tokens:
        flag, joined, value = token.partition("=")
        opt = by_flag.get(flag)
        if opt is None:
            return None
        if opt.type is bool:
            if joined:
                return None
            values[flag] = True
            continue
        if not joined:
            value = next(tokens, "-")  # a missing value is refused
        if value.startswith("-"):
            return None
        try:
            value = opt.type(value)
        except (TypeError, ValueError):
            return None
        if opt.choices is not None and value not in opt.choices:
            return None
        values[flag] = value
    args = argparse.Namespace(func=func)
    for opt in options:
        if opt.required and opt.flag not in values:
            return None
        dest = opt.flag[2:].replace("-", "_")
        setattr(args, dest, values.get(opt.flag, opt.default))
    return args


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    row = next((row for row in _SUBCOMMANDS if argv and row[0] == argv[0]), None)
    args = None if row is None else _read_exact(*row, argv[1:])
    if args is None:
        args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except charvar.BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except resband.InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
