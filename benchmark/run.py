"""The sclab benchmark: time to a verified report, per workload.

Usage:
    python3 benchmark/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from any directory; the benchmark imports sclab from the ``src`` tree
beside this directory and writes only under ``benchmark/.work``.

One workload run starts child processes one after another (a closed loop
with one client, each child single-threaded). With ``--trace 0`` children
that only set up are started until set-up has been measured often enough
(see SETUP_MIN_REPEATS); one more child then also runs plans for
``--seconds``. With ``--trace 1`` one untraced and one traced child each
measure for half of ``--seconds`` and the per-layer metrics come from the
traced one. Every report is checked against the recorded fingerprint of its
plan. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

sys.path.insert(0, str(SRC))
from fingerprint import load_reference  # noqa: E402
from tracer import COUNTS, INCLUSIVE_TIMES, SELF_TIMES  # noqa: E402
from workloads import WORKLOADS, plan_key, write_group_files  # noqa: E402

# set-up is repeated at least SETUP_MIN_REPEATS times and until the set-ups
# add up to SETUP_MIN_S, so a cheap set-up gets a steadier median
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 20
# a run must end within 180 s; children still running then are killed and
# their unfinished plan counts as failed
RUN_LIMIT_S = 170.0

END_TO_END = {"verify_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "setup_s": "s"}


def per_layer_units() -> dict:
    """Unit of each per-layer metric, in the order BENCHMARK.json lists them."""
    units = {m: "s" for m in (*SELF_TIMES.values(), *INCLUSIVE_TIMES.values())}
    units.update({m: "count" for m in COUNTS})
    units["report.bytes"] = "B"
    units.update({"cache.hit_ratio": "1", "homology.distinct": "count",
                  "homology.unique_ratio": "1",
                  "homology.max_simplices": "count",
                  "lattice.enumerate_share": "1", "homology.share": "1",
                  "trace.wall_s": "s", "trace.untraced_s": "s",
                  "trace.overhead_ratio": "1"})
    return units


class ChildRun:
    """One child process and the events it wrote."""

    def __init__(self, workload, plans, *, measure, seconds, trace, tag,
                 deadline):
        self.events: list = []
        self.timed_out = False
        job_path = WORK / f"{tag}.job.json"
        out_path = WORK / f"{tag}.events.jsonl"
        log_path = WORK / f"{tag}.log"
        cache = WORK / f"{tag}.cache"
        argv_extra = ["--cache", str(cache)] if workload.warm else []
        job = {"src": str(SRC), "warm": workload.warm, "measure": measure,
               "seconds": seconds, "trace": trace,
               "trace_file": str(WORK / f"{tag}.trace.jsonl") if trace else None,
               "plans": [{"key": key, "fingerprint": fp,
                          "argv": ["verify", "--group", path,
                                   "--prime", str(p), "--suite", "all",
                                   *argv_extra]}
                         for key, path, p, fp in plans]}
        job_path.write_text(json.dumps(job))
        env = {k: v for k, v in os.environ.items()
               if k not in ("SCLAB_CACHE", "PYTHONPATH")}
        env["PYTHONHASHSEED"] = "0"
        with open(log_path, "w") as log:
            spawned_at = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(job_path),
                 str(out_path), repr(spawned_at)],
                stdin=subprocess.DEVNULL, stdout=log, stderr=log, env=env,
                cwd=ROOT)
            timer = threading.Timer(max(0.0, deadline - perf_counter()),
                                    self._kill, (proc,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.returncode = proc.returncode
        self.rss_mb = usage.ru_maxrss / 1024.0
        if out_path.exists():
            self.events = [json.loads(line) for line in
                           out_path.read_text().splitlines() if line.strip()]
        self.log = log_path

    def _kill(self, proc):
        self.timed_out = True
        proc.kill()

    def of(self, kind: str, **match) -> list:
        return [e for e in self.events if e["event"] == kind
                and all(e.get(k) == v for k, v in match.items())]

    @property
    def setup_s(self):
        ready = self.of("ready")
        return ready[0]["setup"] if ready else None

    def failures(self) -> list:
        """(key, reason) of every failed plan, unfinished ones included."""
        out = [(e["key"], e["problem"]) for e in self.of("plan")
               if e["problem"]]
        started = len(self.of("start"))
        if started > len(self.of("plan")):
            out.append((self.of("start")[-1]["key"],
                        "timed out" if self.timed_out else "child died"))
        elif self.returncode != 0 and not out:
            out.append(("<child>", f"child exited {self.returncode}"))
        return out

    def attempted(self) -> int:
        return len(self.of("start"))

    def samples(self) -> list:
        """(wall, cpu) per measured sample; a sample is one pass of plans."""
        by_sample: dict = {}
        for e in self.of("plan", phase="measure"):
            wall, cpu = by_sample.get(e["sample"], (0.0, 0.0))
            by_sample[e["sample"]] = (wall + e["wall"], cpu + e["cpu"])
        return [by_sample[k] for k in sorted(by_sample)]

    def shas(self) -> dict:
        out: dict = {}
        for e in self.of("plan"):
            out.setdefault(e["key"], set()).add(e["sha256"])
        return out


def prepare(workload, seed: int) -> list:
    reference = load_reference()
    paths = write_group_files(workload, seed, WORK / "groups")
    return [(plan_key(g, p), str(paths[g]), p, reference[plan_key(g, p)])
            for g, p in workload.plans]


def collect(workload, plans, children) -> dict:
    """Failures and attempted plans of one workload run. Reports of one plan
    must be byte-identical across samples and children, traced or not."""
    failures = [f for c in children for f in c.failures()]
    merged: dict = {}
    for child in children:
        for key, shas in child.shas().items():
            merged.setdefault(key, set()).update(shas)
    failures += [(key, f"{len(shas)} different report bytes")
                 for key, shas in sorted(merged.items()) if len(shas) > 1]
    return {"workload": workload.name, "plans": plans, "children": children,
            "failures": failures,
            "attempted": sum(c.attempted() for c in children)}


def measure(workload, seed: int, seconds: float) -> dict:
    plans = prepare(workload, seed)
    deadline = perf_counter() + RUN_LIMIT_S
    children: list = []

    def start(measure: bool) -> ChildRun:
        child = ChildRun(workload, plans, measure=measure, seconds=seconds,
                         trace=False, tag=f"{workload.name}-{len(children)}",
                         deadline=deadline)
        children.append(child)
        return child

    while len(children) < SETUP_MAX_REPEATS - 1:
        if start(measure=False).setup_s is None:
            break
        setups = [c.setup_s for c in children]
        if (len(setups) + 1 >= SETUP_MIN_REPEATS
                and sum(setups) >= SETUP_MIN_S):
            break
    start(measure=True)
    result = collect(workload, plans, children)
    result["samples"] = samples = children[-1].samples()
    setups = [c.setup_s for c in children]
    if samples and None not in setups:
        result["metrics"] = {
            "verify_s": statistics.median(w for w, _ in samples),
            "cpu_s": statistics.median(c for _, c in samples),
            "peak_rss_mb": children[-1].rss_mb,
            "setup_s": statistics.median(setups),
        }
    return result


def measure_traced(workload, seed: int, seconds: float) -> dict:
    plans = prepare(workload, seed)
    deadline = perf_counter() + RUN_LIMIT_S
    untraced, traced = (
        ChildRun(workload, plans, measure=True, seconds=seconds / 2,
                 trace=trace, tag=f"{workload.name}-{tag}", deadline=deadline)
        for trace, tag in ((False, "untraced"), (True, "traced")))
    result = collect(workload, plans, [untraced, traced])
    result["samples"] = untraced.samples()
    layers = [e["metrics"] for e in traced.of("layers", phase="measure")]
    if layers and result["samples"]:
        metrics = {name: statistics.median(s[name] for s in layers)
                   for name in layers[0]}
        setup = [e["metrics"] for e in traced.of("layers", phase="setup")]
        # warm samples never store; the store happens in the set-up pass
        metrics["cache.store_s"] = (setup[0]["cache.store_s"] if setup
                                    else 0.0)
        metrics["trace.overhead_ratio"] = (
            metrics["trace.wall_s"]
            / statistics.median(w for w, _ in result["samples"]))
        result["metrics"] = metrics
    return result


def describe(result: dict, trace: bool) -> None:
    """Human-readable lines for one workload run."""
    name = result["workload"]
    attempted = max(1, result["attempted"])
    failed = len(result["failures"])
    print(f"== {name}: {attempted} plans attempted, {failed} failed, "
          f"failed_ratio {failed / attempted:.4f} (1)")
    for (key, reason), n in sorted(Counter(result["failures"]).items()):
        print(f"   FAILED {key}: {reason} (x{n})")
    failed_keys = {key for key, _ in result["failures"]}
    for key, _, _, _ in result["plans"]:
        shas = sorted(result["children"][-1].shas().get(key, ()))
        print(f"   plan {key}: fingerprint ok={key not in failed_keys}"
              f" sha256={','.join(shas)}")
    walls = [w for w, _ in result["samples"]]
    if len(walls) > 1:
        q1, q2, q3 = statistics.quantiles(walls, n=4)
        print(f"   verify_s median {q2:.4f} s (quartiles {q1:.4f}, {q3:.4f};"
              f" n={len(walls)})")
    elif walls:
        print(f"   verify_s {walls[0]:.4f} s (n=1)")
    units = per_layer_units() if trace else END_TO_END
    for metric, value in result.get("metrics", {}).items():
        print(f"   {metric} = {value:.6g} {units[metric]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sclab" / "cli.py").is_file():
        print(f"benchmark: no sclab source tree at {SRC}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        measure_one = measure_traced if args.trace else measure
        result = measure_one(WORKLOADS[name], args.seed, args.seconds)
        describe(result, bool(args.trace))
        if "metrics" not in result:
            child = result["children"][-1]
            sys.stderr.write(child.log.read_text()[-4000:])
            print(f"benchmark: {name} produced no measurement",
                  file=sys.stderr)
            return 1
        results.append(result)

    units = per_layer_units() if args.trace else END_TO_END
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "."
        for metric, value in result["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    failed = sum(len(r["failures"]) for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": max(1, sum(r["attempted"] for r in results)),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
