"""Benchmark of weylorb: time to a verified result on four exact workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; weylorb is imported from ./src.
One caller in one thread runs the workload's fixed job list again and again
(a closed loop: a job starts when the previous one returns) for about S
seconds, checking every output against an oracle or a golden.  Inputs come
from the seed alone and are made before each repetition, outside its timing.

Machine speed on a shared host drifts by up to 2x within minutes, so job
times are calibrated.  A fixed pure-Python reference loop is timed before and
after each repetition, and every REFERENCE_EVERY seconds during it: SIGALRM
interrupts the running job between two bytecodes, and the handler times the
loop.  Time spent in the handler is left out of every job and span time.  The
repetition's job time is scaled by REFERENCE_SECONDS / (mean reference time),
so a reported second is a second on a machine where the reference loop takes
REFERENCE_SECONDS.  Raw times and speed factors are printed and kept in
perfbench/out/ next to the calibrated ones.

--trace 0 reports the end-to-end metrics: wall_s, the median calibrated time
of one job list, from the first job call to the last verified result;
setup_s, the median wall time of a fresh interpreter importing weylorb,
sampled SETUP_SAMPLES times spread over the run and calibrated by the run's
mean reference time; and peak_rss_mb.  --trace 1
runs one discarded warm-up repetition, then pairs of repetitions on the same
inputs, the first untraced and the second with the outside-in wrappers of
spans.py installed.  It reports the per-layer metrics of the traced
repetitions and trace.overhead_ratio, the median over pairs of traced over
untraced calibrated time.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when every job passed its
check, 1 when some job failed (fail_ratio > 0), and 2, with no JSON line,
when weylorb or the goldens cannot be loaded.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
GOLDENS = os.path.join(HERE, "goldens.json")
# fresh-interpreter imports per run, taken between and after the
# repetitions; their time is not counted against --seconds
SETUP_SAMPLES = 10
REFERENCE_SECONDS = 0.05
# seconds between two reference samples taken during a repetition
REFERENCE_EVERY = 0.5


def reference_work():
    """Fixed work whose time tracks the speed the machine has right now.

    Fraction Gauss-Jordan elimination and a tuple-keyed closure of small
    integer matrices: the kinds of work weylorb spends its time on, written
    here so that no change to the program can move it.
    """
    n = 8
    rows = [
        [Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4) for j in range(n)]
        + [Fraction(int(i == j)) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            continue
        rows[col], rows[piv] = rows[piv], rows[col]
        p = rows[col][col]
        rows[col] = [x / p for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                c = rows[r][col]
                rows[r] = [x - c * y for x, y in zip(rows[r], rows[col])]
    gens = [((0, 1, 0), (0, 0, 1), (1, 0, 0)), ((0, -1, 0), (1, 0, 0), (0, 0, 1))]
    seen = {((1, 0, 0), (0, 1, 0), (0, 0, 1))}
    frontier = list(seen)
    for _ in range(40):
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple(
                    tuple(sum(a * b for a, b in zip(row, col)) % 5 for col in zip(*x))
                    for row in g
                )
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt or list(seen)[:8]
    return rows, len(seen)


def reference_time():
    """Time of three runs of reference_work, with the cyclic GC paused.

    Otherwise a sample taken after a job pays for collecting the job's
    garbage, and measures the job's heap instead of the machine.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(3):
            reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedMeter:
    """Reference samples taken before, during and after a repetition.

    Inside the `with` block a wall-clock timer raises SIGALRM every
    REFERENCE_EVERY seconds; Python runs the handler in this thread between
    two bytecodes of whatever job is running, and the handler times the
    reference loop.  clock() leaves out the time spent in the handler, so
    jobs and spans timed with it are timed as if the handler never ran.
    """

    def __init__(self):
        self.paused = 0.0
        self.samples = []
        self._busy = False

    def clock(self):
        return time.perf_counter() - self.paused

    def _sample(self, signum=None, frame=None):
        if self._busy:  # a slow sample outlasted the timer period
            return
        self._busy = True
        start = time.perf_counter()
        try:
            self.samples.append(reference_time())
        finally:
            self.paused += time.perf_counter() - start
            self._busy = False

    def __enter__(self):
        self.samples = []
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY, REFERENCE_EVERY)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        return False

    def reference(self):
        return statistics.mean(self.samples)


def calibrated(seconds, reference):
    return seconds * REFERENCE_SECONDS / reference


def _die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_weylorb():
    sys.path.insert(0, SRC)
    try:
        import weylorb
    except ImportError as exc:
        _die(f"cannot import weylorb from {SRC}: {exc}")
    if not os.path.abspath(weylorb.__file__).startswith(SRC + os.sep):
        _die(f"weylorb was imported from {weylorb.__file__}, not from {SRC}")


class SetupMeter:
    """Wall times of fresh interpreters that import weylorb.

    Samples are spread over the run, so that one slow or fast stretch of the
    machine does not decide the median.  The median is calibrated by the mean
    of every reference sample of the run: one reference sample taken next to
    each import is too short to follow the machine, and scaling by it widened
    the spread of 126 imports from 0.13 to 0.21.
    """

    def __init__(self):
        self.samples = []

    def take_until(self, share):
        """Take samples until `share` of SETUP_SAMPLES have been taken."""
        code = f"import sys; sys.path.insert(0, {SRC!r}); import weylorb"
        while len(self.samples) < round(share * SETUP_SAMPLES):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
            self.samples.append(time.perf_counter() - start)


def _git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest():
    """SHA-256 over src/, which names the code measured where git cannot."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def run_metadata():
    import numpy
    import sympy

    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


class Loop:
    """Closed-loop repetitions of one workload's job list."""

    def __init__(self, workload, goldens, seed):
        self.workload, self.goldens, self.seed = workload, goldens, seed
        self.attempted = self.failed = 0
        self.reported = 0
        self.meter = SpeedMeter()

    def repetition(self, k, tracer=None):
        """Run the job list once on inputs k; returns (raw, reference) times.

        raw is the summed time of the jobs, each timed from its call to its
        verified result; reference is the mean reference time measured
        around and during them.
        """
        from sympy.core.cache import clear_cache
        from workloads import CheckFailed, make_inputs, make_jobs

        inputs = make_inputs(self.workload, self.goldens, self.seed, k)
        jobs = make_jobs(self.workload, self.goldens, inputs)
        # each repetition starts as a CLI run does: sympy's global memo
        # cache empty and no garbage left over from the repetition before
        clear_cache()
        gc.collect()
        if tracer is not None:
            tracer.begin_repetition(k)
        raw = 0.0
        with self.meter:
            for name, job in jobs:
                self.attempted += 1
                start = self.meter.clock()
                try:
                    if tracer is None:
                        job()
                    else:
                        tracer.call(f"job.{self.workload}", job)
                except CheckFailed as exc:
                    self._fail(k, name, f"wrong answer: {exc}")
                except Exception:  # a job that raises is a failed job
                    self._fail(k, name, traceback.format_exc())
                raw += self.meter.clock() - start
        reference = self.meter.reference()
        if tracer is not None:
            tracer.end_repetition(REFERENCE_SECONDS / reference)
        return raw, reference

    def _fail(self, k, name, detail):
        self.failed += 1
        if self.reported < 5:
            self.reported += 1
            print(f"FAILED {self.workload} repetition {k} job {name}: {detail}",
                  file=sys.stderr)

    def phase(self, budget, between):
        """Repeat until the next job list would end after `budget` seconds.

        Before each repetition, and once after the last, between(share) is
        called with the share of the budget used so far; the time it takes
        is not counted against the budget.
        """
        samples = []
        used = longest = 0.0
        while True:
            between(used / budget)
            start = time.perf_counter()
            samples.append(self.repetition(len(samples)))
            took = time.perf_counter() - start
            used, longest = used + took, max(longest, took)
            if used + longest > budget:
                between(1.0)
                return samples

    def pairs(self, budget, tracer):
        """Untraced and traced repetitions in pairs, on the same inputs.

        A discarded warm-up repetition comes first, so that first-call costs
        fall on neither half of a pair.  Pairs repeat until the next would
        end after `budget` seconds, counted from the warm-up; there is always
        at least one.
        """
        import spans

        start = time.perf_counter()
        self.repetition(0)
        pairs = []
        longest = 0.0
        while True:
            begin = time.perf_counter()
            k = len(pairs)
            leftover = spans.installed_wrappers()
            if leftover:
                _die(f"tracing wrappers installed in an untraced repetition: {leftover}")
            untraced = self.repetition(k)
            tracer.install()
            try:
                traced = self.repetition(k, tracer)
            finally:
                tracer.uninstall()
            pairs.append((untraced, traced))
            now = time.perf_counter()
            longest = max(longest, now - begin)
            if now - start + longest > budget:
                return pairs


def summary(samples):
    """Median calibrated, median raw and median speed factor of samples."""
    return (
        statistics.median(calibrated(raw, ref) for raw, ref in samples),
        statistics.median(raw for raw, _ in samples),
        statistics.median(REFERENCE_SECONDS / ref for _, ref in samples),
    )


def _line(name, value, unit, note=""):
    print(f"  {name:<42} {value:>14.6g} {unit:<6} {note}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_weylorb()
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _die(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    try:
        with open(GOLDENS) as fh:
            goldens = json.load(fh)
    except (OSError, ValueError) as exc:
        _die(f"cannot read goldens {GOLDENS}: {exc}")

    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **run_metadata(), "loadavg_start": os.getloadavg()}
    leftover = spans.installed_wrappers()
    if leftover:
        _die(f"tracing wrappers installed in the untraced run: {leftover}")

    loop = Loop(args.workload, goldens, args.seed)
    # notes: metric -> the (raw, reference) samples behind it
    if args.trace == 0:
        setup = SetupMeter()
        wall = loop.phase(args.seconds, setup.take_until)
        reference = statistics.mean(ref for _, ref in wall)
        metrics = {
            "wall_s": (summary(wall)[0], "s"),
            "setup_s": (calibrated(statistics.median(setup.samples), reference), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        notes = {"wall_s": wall, "setup_s": [(s, reference) for s in setup.samples]}
        record = {"wall_s_samples": wall, "setup_s_samples": setup.samples}
    else:
        tracer = spans.Tracer(clock=loop.meter.clock)
        pairs = loop.pairs(args.seconds, tracer)
        leftover = spans.installed_wrappers()
        if leftover:
            _die(f"tracing wrappers left installed: {leftover}")
        metrics = tracer.metrics()
        metrics["trace.overhead_ratio"] = (statistics.median(
            calibrated(*traced) / calibrated(*untraced) for untraced, traced in pairs
        ), "ratio")
        traced = [t for _, t in pairs]
        notes = {"trace.overhead_ratio": traced}
        record = {"untraced_wall_s_samples": [u for u, _ in pairs],
                  "traced_wall_s_samples": traced, "spans": tracer.dump()}

    meta["loadavg_end"] = os.getloadavg()
    fail_ratio = loop.failed / loop.attempted
    print(f"perfbench {args.workload}: seed {args.seed}, trace {args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in metrics.items():
        note = ""
        if name in notes:
            _, raw, speed = summary(notes[name])
            note = f"(raw {raw:.4g} s, speed factor {speed:.3f}, n={len(notes[name])})"
        _line(name, value, unit, note)
    _line("fail_ratio", fail_ratio, "ratio", f"({loop.failed} of {loop.attempted} jobs)")

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"meta": meta, "fail_ratio": fail_ratio,
                   "metrics": {k: v for k, (v, _) in metrics.items()}, **record}, fh)

    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if loop.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
