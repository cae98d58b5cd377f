"""Self-check of the benchmark's own code.

    python3 bench/selfcheck.py

Checks that the same seed gives byte-identical inputs, that another seed
renumbers deleted B3 but keeps its hit counts, that the answer checks
count a fabricated wrong answer, and an exception, as a failed op, and that
the tracer wraps every import site, puts the originals back and reports a
removed name as missing.  Exits 0 when every check holds.
"""

import contextlib
import sys
import tempfile

from run import WORK, import_library

import_library()

import spans  # noqa: E402  (needs the library on the path)
import workloads  # noqa: E402
from linecoh import charvar, mincomplex, resband  # noqa: E402

FAILURES = []


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


@contextlib.contextmanager
def replaced(module, name, func):
    original = getattr(module, name)
    setattr(module, name, func)
    try:
        yield
    finally:
        setattr(module, name, original)


def raising(*args, **kwargs):
    raise RuntimeError("fabricated failure")


def main():
    for name in workloads.WORKLOADS:
        for seed in (0, 7):
            same = workloads.input_bytes(name, seed) == workloads.input_bytes(name, seed)
            check(same, f"{name}: seed {seed} gives byte-identical inputs")
        differ = workloads.input_bytes(name, 1) != workloads.input_bytes(name, 2)
        check(differ, f"{name}: seeds 1 and 2 give different inputs")

    check(workloads.b3_permutation(0) == tuple(range(8)), "b3-scan: seed 0 keeps the numbering")
    perms = {seed: workloads.b3_permutation(seed) for seed in (1, 2)}
    check(perms[1] != perms[2], "b3-scan: seeds 1 and 2 renumber differently")
    for seed in (1, 2):
        proj, catalog = workloads.relabelled_b3(seed)
        for order, expected in workloads.B3_HITS:
            hits = charvar.torsion_scan(proj, order, catalog=catalog)
            check(
                len(hits) == expected and workloads.wrong_scan_points(hits, expected) == 0,
                f"b3-scan: seed {seed} order {order} gives {expected} catalogued hits",
            )

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        scan = workloads.B3Scan(1, workdir)
        scan.setup()
        real = charvar.torsion_scan
        with replaced(charvar, "torsion_scan", lambda *a, **k: real(*a, **k)[1:]):
            check(scan.run_op(0)[1] == 3, "b3-scan: one hit dropped per order fails 3 points")
        with replaced(charvar, "torsion_scan", raising):
            attempted, failed = scan.run_op(0)
            check(failed == attempted, "b3-scan: a raising scan fails all its points")

        sweep = workloads.OracleSweep(1, workdir)
        sweep.setup()
        check(sweep.run_op(5) == (1, 0), "oracle-sweep: a true answer passes")
        real_dims = mincomplex.cohomology_dims

        def wrong_dims(*args, **kwargs):
            h0, h1, h2 = real_dims(*args, **kwargs)
            return h0, h1 + 1, h2

        with replaced(mincomplex, "cohomology_dims", wrong_dims):
            check(sweep.run_op(5) == (1, 1), "oracle-sweep: a wrong oracle h1 fails the op")
        with replaced(resband, "h1_via_bands", raising):
            check(sweep.run_op(5) == (1, 1), "oracle-sweep: an exception fails the op")

        queries = workloads.CliCheck(1, workdir)
        queries.setup()
        check(queries.run_op(3) == (1, 0), "cli-check: a true answer passes")
        with replaced(mincomplex, "cohomology_dims", wrong_dims):
            check(queries.run_op(3) == (1, 1), "cli-check: a band/oracle mismatch fails the op")
        with replaced(resband, "sharp_pairs", raising):
            check(queries.run_op(3) == (1, 1), "cli-check: an exception fails the op")

    original = resband.h1_via_bands
    tracer = spans.Tracer()
    with replaced(spans, "TARGETS", spans.TARGETS + (("gone", "linecoh.charvar", "no_such"),)):
        tracer.install()
        wrapped = charvar.h1_via_bands is not original and resband.h1_via_bands is not original
        tracer.uninstall()
    check(wrapped, "trace: h1_via_bands is wrapped at both import sites")
    check(
        charvar.h1_via_bands is original and resband.h1_via_bands is original,
        "trace: uninstall restores the originals",
    )
    check(tracer.missing == ["linecoh.charvar.no_such"], "trace: a removed name is reported missing")

    good = "resonant bands: 1\nh1 = 1\nchamber complex check: h0 h1 h2 = 0 1 2\n"
    check(workloads.cli_pair_ok(0, good, 0, "certified h1: 1\n"), "cli-check: agreeing reports pass")
    check(
        workloads.cli_pair_ok(0, good, 0, "certified h1: undetermined\n"),
        "cli-check: an undetermined certificate passes",
    )
    check(
        not workloads.cli_pair_ok(0, good, 0, "certified h1: 0\n"),
        "cli-check: a certified h1 other than the oracle's fails",
    )
    check(not workloads.cli_pair_ok(2, good, 0, "certified h1: 1\n"), "cli-check: exit code 2 fails")

    if FAILURES:
        print(f"selfcheck: {len(FAILURES)} check(s) failed")
        return 1
    print("selfcheck: all checks hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
