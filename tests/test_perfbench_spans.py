"""The benchmark's tracer wraps weylorb functions by name; every name must exist."""

import importlib.util
import os

SPANS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench",
    "spans.py",
)


def test_tracer_installs_and_uninstalls():
    # a renamed library function fails here instead of in a traced run
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert spans.installed_wrappers()
    finally:
        tracer.uninstall()
    assert spans.installed_wrappers() == []
