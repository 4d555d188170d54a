"""The benchmark's tracer wraps sclab functions under every module name
that binds them. A refactor that removes or renames one of those names
breaks the benchmark; this test catches it in the ordinary suite."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import sclab.cli
import sclab.contract

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "benchmark" / "tracer.py"


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


def test_kept_bindings_are_live(tmp_path):
    """A traced S5 run at 2 enumerates one lattice and spends time in the
    span the tracer names lattice.quotient, so the in-lattice p-core of a
    quotient is still reached through collections.p_core_of_group. The edge
    checkers, verdicts and nerve homology are reached through the names the
    tracer patches in sclab.tables, so a dispatch table that captured a
    function object at import would leave these at 0. The tracer counts
    len(...members) of each CollectionContext._build result, so those must
    add up to the report's collection sizes."""
    tracer = load_tracer()
    t = tracer.Tracer()
    try:
        tracer.install(t)
        assert sclab.cli.main(["verify", "--group", "builtin:S5", "--prime",
                               "2", "--report", str(tmp_path / "r.json")]) == 0
    finally:
        t.uninstall()
    metrics = t.harvest(0)
    report = json.loads((tmp_path / "r.json").read_bytes())
    assert metrics["collections.members"] == sum(
        report["collections"].values())
    assert metrics["lattice.enumerate_calls"] == 1
    assert metrics["lattice.quotient_s"] > 0
    for name in ("equivalence.inclusion_s", "equivalence.scan_s",
                 "contract.verdicts", "homology.calls", "tables.table31_s"):
        assert metrics[name] > 0, name


def test_benchmark_self_tests_pass():
    """The benchmark's own self-tests: traced and untraced reports are
    byte-equal, every benchmark plan matches its fingerprint, and the
    fingerprints survive relabelling the points. They write only under
    the ignored benchmark/.work directory."""
    proc = subprocess.run([sys.executable, "benchmark/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
