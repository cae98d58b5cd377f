"""Spans around the calls one linecoh layer makes into another.

``Tracer.install`` replaces each traced function at every module attribute
that holds it (the defining module and each module that imported it), so a
call through any import site is recorded; ``uninstall`` puts the originals
back.  A span holds its name, start, end, parent span and op id.  Spans are
kept in memory and written out once, by ``dump``, when the run ends.  A
traced name that the library no longer defines is listed in ``missing``
instead of failing the run.
"""

import json
import sys
from time import perf_counter

# (span name, defining module, attribute path)
TARGETS = (
    ("scalars.rank", "linecoh.scalars", "rank"),
    ("scalars.kernel", "linecoh.scalars", "kernel_basis"),
    ("resband.h1", "linecoh.resband", "h1_via_bands"),
    ("resband.certify", "linecoh.resband", "vanishing_certificates"),
    ("resband.sharp_pairs", "linecoh.resband", "sharp_pairs"),
    ("mincomplex.structure", "linecoh.mincomplex", "complex_structure"),
    ("mincomplex.dims", "linecoh.mincomplex", "cohomology_dims"),
    ("localsystem.make", "linecoh.localsystem", "make_local_system"),
    ("geometry.parse", "linecoh.geometry", "parse_arrangement"),
    ("geometry.chambers", "linecoh.geometry", "_compute_chambers"),
    ("geometry.flag", "linecoh.geometry", "choose_flag"),
    ("geometry.chart", "linecoh.geometry", "move_to_infinity"),
    ("geometry.cone", "linecoh.geometry", "cone"),
    ("geometry.cone", "linecoh.geometry", "_proj_intersections"),
    ("charvar.scan", "linecoh.charvar", "torsion_scan"),
    ("charvar.point", "linecoh.charvar", "h1_at_point"),
    ("charvar.contains", "linecoh.charvar", "ComponentFamily.contains"),
    ("cli.main", "linecoh.cli", "main"),
)


def _add(counts, key, n=1):
    counts[key] = counts.get(key, 0) + n


def _count_matrix(calls):
    def count(counts, args, result):
        _add(counts, calls)
        _add(counts, "scalars.entries", args[0].nrows * args[0].ncols)

    return count


def _count_h1(counts, args, result):
    _add(counts, "resband.h1_calls")
    _add(counts, "resband.resonant_bands", len(result.bands))
    _add(counts, "resband.linalg_calls", 1 if result.bands else 0)


def _count_certify(counts, args, result):
    _add(counts, "resband.certify_calls")
    _add(counts, "resband.certified_calls", 0 if result.h1 is None else 1)


def _count_chambers(counts, args, result):
    _add(counts, "geometry.chambers_calls")
    _add(counts, "geometry.chambers_total", len(result))


def _count_scan(counts, args, result):
    proj, order = args[0], args[1]
    _add(counts, "charvar.points", order ** (proj.n - 1) - 1)
    _add(counts, "charvar.hits", len(result))


COUNTERS = {
    "scalars.rank": _count_matrix("scalars.rank_calls"),
    "scalars.kernel": _count_matrix("scalars.kernel_calls"),
    "resband.h1": _count_h1,
    "resband.certify": _count_certify,
    "mincomplex.structure": lambda c, a, r: _add(c, "mincomplex.d1_entries", len(r.d1)),
    "mincomplex.dims": lambda c, a, r: _add(c, "mincomplex.dims_calls"),
    "localsystem.make": lambda c, a, r: _add(c, "localsystem.make_calls"),
    "geometry.chambers": _count_chambers,
    "charvar.scan": _count_scan,
    "charvar.contains": lambda c, a, r: _add(c, "charvar.contains_calls"),
    "cli.main": lambda c, a, r: _add(c, "cli.calls"),
}


def _resolve(module_name, path):
    """(owner, attribute, object) for a dotted attribute path, or None."""
    owner = sys.modules.get(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None or attr not in vars(owner):
        return None
    return owner, attr, vars(owner)[attr]


class Tracer:
    def __init__(self):
        self.names = []
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.op = []
        self.op_id = -1
        self.counts = {}
        self.missing = []
        self._stack = [-1]
        self._patches = []

    def _wrap(self, span, func):
        if span not in self.names:
            self.names.append(span)
        name_id = self.names.index(span)
        count = COUNTERS.get(span)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1])
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def install(self):
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "linecoh" or name.startswith("linecoh.")
        ]
        self.missing = []
        for span, module_name, path in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            owner, attr, original = found
            traced = self._wrap(span, original)
            if "." in path:  # a method: patch the class only
                sites = [(owner, attr)]
            else:
                sites = [
                    (mod, name)
                    for mod in modules
                    for name, value in vars(mod).items()
                    if value is original
                ]
            for site, name in sites:
                self._patches.append((site, name, original))
                setattr(site, name, traced)

    def uninstall(self):
        for site, name, original in reversed(self._patches):
            setattr(site, name, original)
        self._patches = []

    def _seconds(self, seconds):
        """Per span: (duration, duration minus its child spans' durations),
        with ``seconds(start, end)`` giving a duration."""
        dur = [seconds(start, end) for start, end in zip(self.start, self.end)]
        own = list(dur)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= dur[idx]
        return dur, own

    def times(self, seconds):
        """Inclusive and self seconds summed per span name."""
        incl = {name: 0.0 for name in self.names}
        own = dict(incl)
        for idx, (dur, secs) in enumerate(zip(*self._seconds(seconds))):
            span = self.names[self.name[idx]]
            incl[span] += dur
            own[span] += secs
        return incl, own

    def self_seconds_under(self, span, parent_prefix, seconds):
        """Self seconds of ``span`` spans whose parent span's name starts
        with ``parent_prefix``."""
        total = 0.0
        for idx, secs in enumerate(self._seconds(seconds)[1]):
            parent = self.parent[idx]
            if (
                self.names[self.name[idx]] == span
                and parent >= 0
                and self.names[self.name[parent]].startswith(parent_prefix)
            ):
                total += secs
        return total

    def layer_metrics(self, cycles, overhead_ratio, seconds):
        """Per-layer metrics per traced cycle; ratios are over all cycles."""
        incl, own = self.times(seconds)
        c = self.counts

        def s(*spans):
            return sum(own.get(span, 0.0) for span in spans) / cycles

        def n(key):
            return c.get(key, 0) / cycles

        def ratio(num, den):
            return c.get(num, 0) / c[den] if c.get(den) else 0.0

        return {
            "scalars.kernel_s": s("scalars.kernel"),
            "scalars.kernel_calls": n("scalars.kernel_calls"),
            "scalars.rank_s": s("scalars.rank"),
            "scalars.rank_calls": n("scalars.rank_calls"),
            "scalars.entries": n("scalars.entries"),
            "resband.h1_s": s("resband.h1"),
            "resband.h1_calls": n("resband.h1_calls"),
            "resband.linalg_ratio": ratio("resband.linalg_calls", "resband.h1_calls"),
            "resband.resonant_bands": n("resband.resonant_bands"),
            "resband.certify_s": s("resband.certify"),
            "resband.sharp_pairs_s": s("resband.sharp_pairs"),
            "resband.certified_ratio": ratio(
                "resband.certified_calls", "resband.certify_calls"
            ),
            "mincomplex.structure_s": s("mincomplex.structure"),
            "mincomplex.evaluate_s": s("mincomplex.dims"),
            "mincomplex.dims_calls": n("mincomplex.dims_calls"),
            "mincomplex.d1_entries": n("mincomplex.d1_entries"),
            "localsystem.make_s": s("localsystem.make"),
            "localsystem.make_calls": n("localsystem.make_calls"),
            "geometry.parse_s": s("geometry.parse"),
            "geometry.chambers_s": s("geometry.chambers"),
            "geometry.flag_s": s("geometry.flag"),
            "geometry.chart_s": s("geometry.chart"),
            "geometry.cone_s": s("geometry.cone"),
            "geometry.chambers_calls": n("geometry.chambers_calls"),
            "geometry.chambers_total": n("geometry.chambers_total"),
            "charvar.scan_s": incl.get("charvar.scan", 0.0) / cycles,
            "charvar.self_s": s("charvar.scan", "charvar.point", "charvar.contains"),
            "charvar.contains_s": s("charvar.contains"),
            "charvar.contains_calls": n("charvar.contains_calls"),
            "charvar.points": n("charvar.points"),
            "charvar.hits": n("charvar.hits"),
            "charvar.hit_ratio": ratio("charvar.hits", "charvar.points"),
            "cli.self_s": s("cli.main"),
            "cli.calls": n("cli.calls"),
            "trace.overhead_ratio": overhead_ratio,
        }

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "missing": self.missing,
                    "counts": self.counts,
                    "columns": ["name", "start", "end", "parent", "op"],
                    "spans": list(
                        zip(self.name, self.start, self.end, self.parent, self.op)
                    ),
                },
                fh,
            )
