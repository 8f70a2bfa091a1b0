"""Outside-in tracing of weylorb for the benchmark's traced run.

`Tracer.install()` replaces each timed public function or method with a
wrapper that records a span (name, start, end, parent, repetition) around
the call.  A module-level function is replaced under every name a weylorb
module has bound it to (`weylorb.stringy.smith_normal_form` as well as
`weylorb.intlinalg.smith_normal_form`), so calls from inside the package are
seen too.  `uninstall()` puts the originals back; `installed_wrappers()` finds
any wrapper left behind, which the untraced run checks for.

Spans stay in memory and are written out once, when the run ends.  A span's
self time is its duration minus the time covered by its child spans.  Spans
are timed with the run's clock, which leaves out the reference samples taken
during them, and the metrics calibrate them like the run's wall times: each
repetition's times are multiplied by the speed factor measured for it (see
run.py).  Some wrappers also derive counts from the call's arguments and
result; every count is taken outside the package, from public attributes
only.
"""

import functools
import importlib
import pkgutil
import statistics
import time
import weakref

import weylorb

# per-layer metrics, in report order: name -> (unit, how it is derived)
#   self:  median over traced repetitions of the summed self time of a span
#   calls: number of spans in the first traced repetition
#   count: counter of the first traced repetition
#   ratio: quotient of two counters of the first traced repetition
#   pctl:  percentile of the span's duration over all traced repetitions
METRICS = {
    "rootdata.conjugacy_classes.s": ("s", "self"),
    "rootdata.centralizer.s": ("s", "self"),
    "rootdata.enumerate_group.s": ("s", "self"),
    "rootdata.group_order": ("count", "count"),
    "rootdata.classes": ("count", "count"),
    "stringy.stringy_hodge.s": ("s", "self"),
    "stringy.fixed_locus.s": ("s", "self"),
    "stringy.stringy_euler_commuting_pairs.s": ("s", "self"),
    "stringy.wreath_closed_form.s": ("s", "self"),
    "stringy.sectors": ("count", "count"),
    "stringy.centralizer_elements": ("count", "count"),
    "intlinalg.smith_normal_form.calls": ("count", "calls"),
    "intlinalg.smith_normal_form.s": ("s", "self"),
    "intlinalg.det_i_plus_t.calls": ("count", "calls"),
    "intlinalg.det_i_plus_t.s": ("s", "self"),
    "intlinalg.rational_rank.calls": ("count", "calls"),
    "intlinalg.rational_rank.s": ("s", "self"),
    "intlinalg.rational_nullspace.calls": ("count", "calls"),
    "intlinalg.rational_nullspace.s": ("s", "self"),
    "intlinalg.solve_exact.calls": ("count", "calls"),
    "intlinalg.solve_exact.s": ("s", "self"),
    "hodgepoly.goettsche.s": ("s", "self"),
    "hodgepoly.sym_power.calls": ("count", "calls"),
    "hodgepoly.sym_power.s": ("s", "self"),
    "torsion.stabilizer.calls": ("count", "calls"),
    "torsion.stabilizer.s": ("s", "self"),
    "torsion.stabilizer.ms_p50": ("ms", "pctl"),
    "torsion.stabilizer.ms_p99": ("ms", "pctl"),
    "torsion.apply.calls": ("count", "count"),
    "torsion.orbit_points": ("count", "count"),
    "torsion.schreier_generators": ("count", "count"),
    "torsion.find_minus_one_points.s": ("s", "self"),
    "torsion.scan.codes": ("count", "count"),
    "torsion.scan.hit_ratio": ("ratio", "ratio"),
    "torsion.propagate.s": ("s", "self"),
    "torsion.propagate.attempts": ("count", "count"),
    "torsion.propagate.useful_ratio": ("ratio", "ratio"),
    "hilbmatrix.pair_from_ideal.s": ("s", "self"),
    "hilbmatrix.is_cyclic.s": ("s", "self"),
    "hilbmatrix.symplectic_exists.s": ("s", "self"),
    "hilbmatrix.module_isomorphic.s": ("s", "self"),
    "hilbmatrix.pair_dim": ("count", "count"),
}
RATIOS = {
    "torsion.scan.hit_ratio": ("torsion.scan.points", "torsion.scan.codes"),
    "torsion.propagate.useful_ratio": (
        "torsion.propagate.successes",
        "torsion.propagate.attempts",
    ),
}

_MARK = "_perfbench_span"


def _rank(source):
    """Rank of a WeylGroup, LatticeAction or RootDatum argument."""
    group = getattr(source, "group", source)
    if hasattr(group, "generators"):
        return len(group.generators[0])
    return source.rank


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index, repetition]
        # per repetition: self times, span counts, counters, inclusive
        # durations by span name, and the speed factor that calibrates them
        self.repetitions = []
        self._stack = []  # [span index, time covered by children]
        self._sites = []  # (owner, attribute, original)
        self._seen_groups = weakref.WeakSet()

    # -- recording ---------------------------------------------------------

    def begin_repetition(self, k):
        self.repetitions.append(
            {"k": k, "self": {}, "calls": {}, "counts": {}, "durations": {}, "scale": 1.0}
        )
        self._seen_groups = weakref.WeakSet()

    def end_repetition(self, scale):
        self.repetitions[-1]["scale"] = scale

    def count(self, name, n=1):
        counts = self.repetitions[-1]["counts"]
        counts[name] = counts.get(name, 0) + n

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        rep = self.repetitions[-1]
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append([name, 0.0, 0.0, parent, rep["k"]])
        self._stack.append([index, 0.0])
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            _, children = self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.spans[index][1:3] = [start, end]
            rep["self"][name] = rep["self"].get(name, 0.0) + duration - children
            rep["calls"][name] = rep["calls"].get(name, 0) + 1
            rep["durations"].setdefault(name, []).append(duration)

    # -- installation ------------------------------------------------------

    def _targets(self):
        """(owner, attribute, span name or None, result hook) to replace."""
        from weylorb import hilbmatrix, hodgepoly, intlinalg, rootdata, stringy, torsion

        def classes(args, result):
            if args[0] not in self._seen_groups:
                self._seen_groups.add(args[0])
                self.count("rootdata.classes", len(result))

        def sectors(args, result):
            cc = type(args[0].group).conjugacy_classes
            cc = getattr(cc, "__wrapped__", cc)
            done = cc(args[0].group)
            self.count("stringy.sectors", len(done))
            self.count("stringy.centralizer_elements", sum(len(c) for _, _, c in done))

        def stabilizer(args, result):
            self.count("torsion.orbit_points", result.orbit_size)
            self.count("torsion.schreier_generators", len(result.generators))

        def scan(args, result):
            self.count("torsion.scan.codes", 1 << (4 * _rank(args[0])))
            self.count("torsion.scan.points", len(result))

        def propagate(args, result):
            self.count("torsion.propagate.attempts", result.attempts)
            self.count("torsion.propagate.successes")

        def counter(name, of):
            return lambda args, result: self.count(name, of(result))

        return [
            (rootdata.WeylGroup, "conjugacy_classes", "rootdata.conjugacy_classes", classes),
            (rootdata.WeylGroup, "centralizer", "rootdata.centralizer", None),
            (rootdata, "enumerate_group", "rootdata.enumerate_group",
             counter("rootdata.group_order", lambda g: g.order)),
            (stringy, "stringy_hodge", "stringy.stringy_hodge", sectors),
            (stringy, "fixed_locus", "stringy.fixed_locus", None),
            (stringy, "stringy_euler_commuting_pairs",
             "stringy.stringy_euler_commuting_pairs", None),
            (stringy, "stringy_hodge_wreath_closed_form", "stringy.wreath_closed_form", None),
            (intlinalg, "smith_normal_form", "intlinalg.smith_normal_form", None),
            (intlinalg, "det_i_plus_t", "intlinalg.det_i_plus_t", None),
            (intlinalg, "rational_rank", "intlinalg.rational_rank", None),
            (intlinalg, "rational_nullspace", "intlinalg.rational_nullspace", None),
            (intlinalg, "solve_exact", "intlinalg.solve_exact", None),
            (hodgepoly, "goettsche", "hodgepoly.goettsche", None),
            (hodgepoly, "sym_power", "hodgepoly.sym_power", None),
            (torsion, "stabilizer", "torsion.stabilizer", stabilizer),
            # apply runs once per orbit point and Schreier edge: count only
            (torsion.TorsionPoint, "apply", None, None),
            (torsion, "find_minus_one_points", "torsion.find_minus_one_points", scan),
            (torsion, "propagate", "torsion.propagate", propagate),
            (hilbmatrix, "pair_from_ideal", "hilbmatrix.pair_from_ideal",
             counter("hilbmatrix.pair_dim", lambda p: p.dim)),
            (hilbmatrix, "is_cyclic", "hilbmatrix.is_cyclic", None),
            (hilbmatrix, "symplectic_exists", "hilbmatrix.symplectic_exists", None),
            (hilbmatrix, "module_isomorphic", "hilbmatrix.module_isomorphic", None),
        ]

    def _wrap(self, fn, name, hook):
        tracer = self
        if name is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer.count("torsion.apply.calls")
                return fn(*args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = tracer.call(name, fn, *args, **kwargs)
                if hook is not None:
                    hook(args, result)
                return result
        setattr(wrapper, _MARK, name or "torsion.apply")
        return wrapper

    def install(self):
        modules = _package_modules()
        for owner, attr, name, hook in self._targets():
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, hook)
            if isinstance(owner, type):
                owners = [owner]
            else:
                owners = [m for m in modules if getattr(m, attr, None) is original]
            for target in owners:
                self._sites.append((target, attr, original))
                setattr(target, attr, wrapper)

    def uninstall(self):
        while self._sites:
            owner, attr, original = self._sites.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Every per-layer metric, as {name: (value, unit)}.

        A layer the workload never calls reports 0.
        """
        first = self.repetitions[0]
        out = {}
        for metric, (unit, kind) in METRICS.items():
            span = metric.rsplit(".", 1)[0]
            if kind == "self":
                value = statistics.median(
                    rep["self"].get(span, 0.0) * rep["scale"] for rep in self.repetitions
                )
            elif kind == "calls":
                value = first["calls"].get(span, 0)
            elif kind == "count":
                value = first["counts"].get(metric, 0)
            elif kind == "ratio":
                num, den = RATIOS[metric]
                d = first["counts"].get(den, 0)
                value = first["counts"].get(num, 0) / d if d else 0.0
            else:
                q = 50 if metric.endswith("p50") else 99
                durations = [
                    d * rep["scale"]
                    for rep in self.repetitions
                    for d in rep["durations"].get(span, ())
                ]
                value = 1000 * percentile(durations, q)
            out[metric] = (value, unit)
        return out

    def dump(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p, "repetition": k}
            for n, s, e, p, k in self.spans
        ]


def percentile(values, q):
    """The q-th percentile (inclusive method); 0.0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _package_modules():
    mods = [weylorb]
    for info in pkgutil.iter_modules(weylorb.__path__):
        mods.append(importlib.import_module(f"weylorb.{info.name}"))
    return mods


def installed_wrappers():
    """Names of every tracing wrapper currently reachable in weylorb."""
    found = []
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, _MARK):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for meth, fn in vars(value).items():
                    if hasattr(fn, _MARK):
                        found.append(f"{mod.__name__}.{attr}.{meth}")
    return found
