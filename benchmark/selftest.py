"""Self-tests of the benchmark itself.

Usage: python3 benchmark/selftest.py

They import sclab from the ``src`` tree beside this directory and write
only under ``benchmark/.work/selftest``. The first test runs every seed-0
plan twice, so the whole file takes about a minute.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from fingerprint import check, fingerprint, load_reference  # noqa: E402
from run import END_TO_END, WORK, per_layer_units  # noqa: E402
from tracer import Tracer, install, self_times  # noqa: E402
from workloads import (WORKLOADS, group_text, plan_key,  # noqa: E402
                       write_group_files)

from sclab.cli import main  # noqa: E402
from sclab.group import parse_group_text  # noqa: E402

TMP = WORK / "selftest"


def report_bytes(group_file: Path, prime: int) -> bytes:
    buf = io.BytesIO()
    stdout = io.TextIOWrapper(buf)
    saved, sys.stdout = sys.stdout, stdout
    try:
        rc = main(["verify", "--group", str(group_file), "--prime", str(prime),
                   "--suite", "all"])
        stdout.flush()
    finally:
        sys.stdout = saved
    payload = buf.getvalue()
    stdout.detach()
    if rc != 0:
        raise AssertionError(f"sclab verify exited {rc}")
    return payload


def seed0_plans():
    """(key, group file, prime) for every distinct plan of every workload."""
    seen = {}
    for workload in WORKLOADS.values():
        paths = write_group_files(workload, 0, TMP / "seed0")
        for group, prime in workload.plans:
            seen.setdefault(plan_key(group, prime), (paths[group], prime))
    return [(key, path, prime) for key, (path, prime) in seen.items()]


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        shutil.rmtree(TMP, ignore_errors=True)
        TMP.mkdir(parents=True)
        cls.reference = load_reference()

    def test_traced_and_untraced_reports_are_identical(self):
        plans = seed0_plans()
        untraced = {key: report_bytes(path, p) for key, path, p in plans}
        tracer = Tracer()
        install(tracer)
        try:
            traced = {key: report_bytes(path, p) for key, path, p in plans}
        finally:
            tracer.uninstall()
        self.assertGreater(len(tracer.spans), len(plans))
        for key, _, _ in plans:
            with self.subTest(plan=key):
                self.assertEqual(untraced[key], traced[key])
                self.assertIsNone(check(untraced[key], self.reference[key]))

    def test_relabelled_group_keeps_order_and_fingerprint(self):
        for group, prime in (("D8", 2), ("Q8", 2), ("SL23", 3),
                             ("d8xz2.grp", 2)):
            key = plan_key(group, prime)
            base = parse_group_text(group_text(group, 0))
            for seed in (1, 5):
                with self.subTest(plan=key, seed=seed):
                    text = group_text(group, seed)
                    self.assertNotEqual(text, group_text(group, 0))
                    self.assertEqual(text, group_text(group, seed))
                    self.assertEqual(parse_group_text(text).order, base.order)
                    path = TMP / f"relabelled-{seed}.grp"
                    path.write_text(text)
                    self.assertIsNone(check(report_bytes(path, prime),
                                            self.reference[key]))

    def test_fingerprint_rejects_an_altered_report(self):
        path = TMP / "d8.grp"
        path.write_text(group_text("D8", 0))
        payload = report_bytes(path, 2)
        expected = self.reference[plan_key("D8", 2)]
        self.assertIsNone(check(payload, expected))

        def altered(edit):
            report = json.loads(payload)
            edit(report)
            return json.dumps(report).encode()

        def flip_status(r):
            r["suites"]["table31"]["edges"][0]["status"] = "MISMATCH"

        def grow_collection(r):
            r["collections"]["tilde-S"] += 1

        def change_betti(r):
            r["suites"]["table31"]["edges"][0]["detail"]["h1_homology"][
                "left"]["reduced_betti"] = [0, 1]

        def break_chain(r):
            r["suites"]["inclusions"]["chains"][0]["holds"] = False

        for edit in (flip_status, grow_collection, change_betti, break_chain):
            with self.subTest(edit=edit.__name__):
                self.assertIsNotNone(check(altered(edit), expected))
        self.assertIsNotNone(check(b"not json", expected))
        self.assertEqual(fingerprint(json.loads(payload)), expected)

    def test_self_times_and_untraced_gaps_add_up_to_traced_wall(self):
        path = TMP / "d12.grp"
        path.write_text(group_text("D12", 0))
        tracer = Tracer()
        install(tracer)
        try:
            root = tracer.begin("plan")
            report_bytes(path, 2)
            tracer.end(root)
        finally:
            tracer.uninstall()
        spans = tracer.spans
        own = self_times(spans)
        wall = root[4] - root[3]
        self.assertAlmostEqual(sum(own), wall, delta=1e-9 * len(spans))
        self.assertTrue(all(t > -1e-9 for t in own))
        names = {span[2] for span in spans}
        for name in ("group.load", "group.tables", "lattice.enumerate",
                     "collections.build", "poset.order_complex", "homology",
                     "contract.verdict", "equivalence.inclusion",
                     "equivalence.scan", "tables.table31", "tables.table44",
                     "tables.chains", "report.emit"):
            self.assertIn(name, names)
        metrics = tracer.harvest(0)
        self.assertAlmostEqual(metrics["trace.wall_s"], wall, delta=1e-12)
        self.assertGreater(metrics["homology.calls"], 0)
        self.assertGreater(metrics["lattice.closure_calls"], 0)

    def test_benchmark_json_names_the_printed_metrics(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         per_layer_units())
        self.assertEqual({w["name"]: w["why"] for w in bench["workloads"]},
                         {w.name: w.why for w in WORKLOADS.values()})

    def test_fails_without_the_source_tree(self):
        bare = TMP / "bare"
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "s5-p3",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
