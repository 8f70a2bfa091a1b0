"""The benchmark's tracer wraps weylorb functions by name; every name must exist."""

import importlib.util
import json
import os

from weylorb import torsion
from weylorb.rootdata import build_root_datum

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"
)


def _load(name):
    path = os.path.join(PERFBENCH, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_spans():
    return _load("spans")


def test_tracer_installs_and_uninstalls():
    # a renamed library function fails here instead of in a traced run
    spans = _load_spans()
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert spans.installed_wrappers()
    finally:
        tracer.uninstall()
    assert spans.installed_wrappers() == []


def test_torsion_hooks_read_the_reports():
    # the stabilizer and scan hooks read StabilizerReport fields and the
    # scan's argument; a report change that breaks them fails here, not
    # only in a traced run
    spans = _load_spans()
    tracer = spans.Tracer()
    datum = build_root_datum("G", 2)
    try:
        tracer.install()
        tracer.begin_repetition(0)
        # through the module, whose attributes the tracer replaced
        torsion.find_minus_one_points(datum)
        torsion.stabilizer(datum, torsion.TorsionPoint.zero(2))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    for name in ("torsion.schreier_generators", "torsion.orbit_points", "torsion.scan.codes"):
        assert metrics[name][0] > 0, name


def test_a_matrix_lab_job_is_seen_by_the_rational_spans():
    # hilbmatrix calls rational_rank and rational_nullspace through the
    # names it bound at import, which the tracer replaces.  The first job is
    # lambda = (2, 2, 1, 1, 1), of odd size 7: the two ranks [x | y] and
    # [x ; y] of the pair, taken once by is_cyclic and handed to its dual
    # swapped, the skew system of symplectic_exists (no rank: the size is
    # odd), and no system for module_isomorphic, as the ranks [x | y] of
    # pair and dual differ
    spans, workloads = _load_spans(), _load("workloads")
    with open(os.path.join(PERFBENCH, "goldens.json")) as fh:
        goldens = json.load(fh)
    inputs = workloads.make_inputs("matrix-lab", goldens, 1, 0)
    _, job = workloads.make_jobs("matrix-lab", goldens, inputs)[0]
    tracer = spans.Tracer()
    try:
        tracer.install()
        tracer.begin_repetition(0)
        job()
    finally:
        tracer.uninstall()
    calls = tracer.repetitions[0]["calls"]
    assert calls["intlinalg.rational_rank"] == 2
    assert calls["intlinalg.rational_nullspace"] == 1
