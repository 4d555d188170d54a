"""One benchmark child: set up, then run plans in a closed loop.

Usage: python3 child.py JOB.json OUT.jsonl SPAWNED_AT

SPAWNED_AT is the parent's ``time.perf_counter()`` just before it started
this process; on Linux both read the same system-wide monotonic clock.

The job names the plans, the source tree to import sclab from, the
measuring budget and whether to trace. Set-up is interpreter start plus
``import sclab.cli`` and, for a warm workload, one cold pass that fills the
lattice cache. Every plan goes through ``sclab.cli.main(["verify", ...])``
with its report captured in memory. The child appends one JSON line per
event to OUT, so a parent that has to kill it still reads what finished.
"""

from __future__ import annotations

import hashlib
import io
import json
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

from fingerprint import check


class Child:
    def __init__(self, job: dict, out, main, tracer):
        self.job = job
        self.out = out
        self.main = main
        self.tracer = tracer

    def emit(self, **event) -> None:
        self.out.write(json.dumps(event) + "\n")
        self.out.flush()

    def run_plan(self, plan: dict, phase: str, sample: int) -> float:
        """Run one plan, check its report and emit it; returns wall time."""
        self.emit(event="start", key=plan["key"])
        buf = io.BytesIO()
        stdout = io.TextIOWrapper(buf)
        saved = sys.stdout
        sys.stdout = stdout
        span = self.tracer.begin("plan") if self.tracer else None
        t0 = perf_counter()
        c0 = process_time()
        try:
            rc = self.main(plan["argv"])
            stdout.flush()
        except Exception:      # a crash of one plan is a failed plan
            traceback.print_exc()
            rc = None
        finally:
            c1 = process_time()
            t1 = perf_counter()
            if span is not None:
                self.tracer.end(span)
            sys.stdout = saved
        payload = buf.getvalue()
        stdout.detach()
        if rc != 0:
            problem = f"exit status {rc}"
        else:
            problem = check(payload, plan["fingerprint"])
        self.emit(event="plan", key=plan["key"], phase=phase, sample=sample,
                  wall=t1 - t0, cpu=c1 - c0, problem=problem,
                  sha256=hashlib.sha256(payload).hexdigest())
        return t1 - t0

    def run_pass(self, phase: str, sample: int) -> float:
        first = len(self.tracer.spans) if self.tracer else 0
        wall = sum(self.run_plan(plan, phase, sample)
                   for plan in self.job["plans"])
        if self.tracer:
            self.emit(event="layers", phase=phase,
                      metrics=self.tracer.harvest(first))
        return wall

    def run(self, spawned_at: float) -> None:
        if self.job["warm"]:
            self.run_pass("setup", 0)
        ready = perf_counter()
        self.emit(event="ready", setup=ready - spawned_at)
        if not self.job["measure"]:
            return
        deadline = ready + self.job["seconds"]
        walls = []
        while True:
            walls.append(self.run_pass("measure", len(walls)))
            # start another sample only if a typical one still fits
            if perf_counter() + statistics.median(walls) > deadline:
                break


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, job["src"])
    import sclab.cli
    src = Path(job["src"]).resolve()
    if src not in Path(sclab.cli.__file__).resolve().parents:
        print(f"sclab was imported from {sclab.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    tracer = None
    if job["trace"]:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    with open(sys.argv[2], "a", encoding="utf-8") as out:
        Child(job, out, sclab.cli.main, tracer).run(float(sys.argv[3]))
    if tracer is not None and job.get("trace_file"):
        tracer.write_jsonl(job["trace_file"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
