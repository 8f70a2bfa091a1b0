"""The benchmark's tracer wraps weylorb functions by name; every name must exist."""

import importlib.util
import os

from weylorb import torsion
from weylorb.rootdata import build_root_datum

SPANS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench",
    "spans.py",
)


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


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
