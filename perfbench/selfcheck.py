"""Checks that the benchmark itself can fail, and that its inputs are fixed.

    python3 perfbench/selfcheck.py

Run from the repository root; takes about two minutes.  It checks that
  1. make_inputs gives byte-identical inputs for a seed in two processes
     with different hash seeds;
  2. installing the tracer puts wrappers in place and uninstalling removes
     every one, so the untraced run's own check can see a leftover;
  3. in a copy of perfbench/ and src/ whose goldens.json is corrupted, every
     workload reports fail_ratio > 0 and exits non-zero;
  4. in a directory holding only BENCHMARK.json and perfbench/, where src/
     is missing, run.py exits non-zero without printing a result.
The copies are made under perfbench/out/ and removed afterwards.  Exits 0
when every check holds.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

INPUT_DIGEST = """
import hashlib, json, sys
sys.path[:0] = [{src!r}, {here!r}]
from workloads import make_inputs
goldens = json.load(open({goldens!r}))
blob = json.dumps([make_inputs(w, goldens, 7, k) for w in {workloads!r} for k in range(5)])
print(hashlib.sha256(blob.encode()).hexdigest())
"""


def check_inputs_fixed():
    code = INPUT_DIGEST.format(
        src=os.path.join(ROOT, "src"), here=HERE,
        goldens=os.path.join(HERE, "goldens.json"), workloads=WORKLOADS,
    )
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        digests.add(proc.stdout.strip())
    return len(digests) == 1, f"input digests {sorted(digests)}"


def check_tracer_uninstalls():
    tracer = spans.Tracer()
    tracer.install()
    try:
        installed = spans.installed_wrappers()
    finally:
        tracer.uninstall()
    left = spans.installed_wrappers()
    return bool(installed) and not left, f"{len(installed)} installed, left {left}"


def corrupt(goldens):
    bad = json.loads(json.dumps(goldens))
    bad["stringy"]["B_4"]["hodge"][0]["h"] += 1
    bad["torsion_scan"]["points"] += 1
    bad["propagate"]["orbit_size"] += 1
    bad["matrix_lab"]["symplectic"] = {
        k: not v for k, v in bad["matrix_lab"]["symplectic"].items()
    }
    return bad


def _run(workload, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _copy_tree(name, with_src):
    """A fresh tree under out/ with BENCHMARK.json, perfbench/ and maybe src/."""
    tree = os.path.join(OUT, name)
    shutil.rmtree(tree, ignore_errors=True)
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, os.path.join(tree, "perfbench"), ignore=skip)
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(tree, "src"), ignore=skip)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tree)
    return tree


def check_corrupt_goldens(tree, workload):
    proc = _run(workload, tree)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    ok = proc.returncode != 0 and result["failed"] > 0 and not result["correct"]
    return ok, f"exit {proc.returncode}, failed {result['failed']} of {result['attempted']}"


def check_bare_directory():
    bare = _copy_tree("bare", with_src=False)
    proc = _run("stringy", bare)
    shutil.rmtree(bare)
    ok = proc.returncode != 0 and not proc.stdout.strip()
    return ok, f"exit {proc.returncode}, stdout {proc.stdout.strip()[:80]!r}"


def main():
    with open(os.path.join(HERE, "goldens.json")) as fh:
        goldens = json.load(fh)
    tree = _copy_tree("corrupt", with_src=True)
    with open(os.path.join(tree, "perfbench", "goldens.json"), "w") as fh:
        json.dump(corrupt(goldens), fh)
    checks = [("inputs fixed by the seed", check_inputs_fixed),
              ("tracer uninstalls cleanly", check_tracer_uninstalls)]
    checks += [(f"corrupt goldens fail {w}", lambda w=w: check_corrupt_goldens(tree, w))
               for w in WORKLOADS]
    checks.append(("bare directory fails", check_bare_directory))
    failed = 0
    try:
        for name, check in checks:
            ok, detail = check()
            failed += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}", flush=True)
    finally:
        shutil.rmtree(tree)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
