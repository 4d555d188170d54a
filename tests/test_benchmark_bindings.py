"""The benchmark's tracer wraps sclab functions under every module name
that binds them. A refactor that removes or renames one of those names
breaks the benchmark; this test catches it in the ordinary suite."""

import importlib.util
from pathlib import Path

import sclab.contract

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_cleanly():
    tracer = load_tracer()
    original = sclab.contract.contractibility_verdict
    t = tracer.Tracer()
    try:
        tracer.install(t)
        assert sclab.contract.contractibility_verdict is not original
    finally:
        t.uninstall()
    assert sclab.contract.contractibility_verdict is original
