"""Time the inputs at the edge of what the engine finishes.

Runs `python -m sclab.cli verify --group tests/data/NAME.grp --prime 2`
for S4 x S4, D8 x D8, Z2^5, Z2^6 and S6 x Z2, one child process each, and
prints the wall time, the exit code, the child's peak resident set size,
and the size and SHA-256 of the report. Pytest does not collect this
file; run it by hand:

    python tests/frontier.py [NAME ...]

NAME is a group file in tests/data without its suffix; the default runs
all five.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"
GROUPS = ("s4xs4", "d8xd8", "z2_5", "z2_6", "s6xz2")
PRIME = 2


def run_one(name: str, workdir: Path) -> tuple[float, int, float, bytes]:
    """Wall time, exit code, peak RSS in MB and report bytes of one run."""
    report = workdir / f"{name}.json"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "sclab.cli", "verify",
             "--group", str(DATA / f"{name}.grp"), "--prime", str(PRIME),
             "--report", str(report)],
            env=env, stdout=subprocess.DEVNULL, stderr=err)
        # wait4 gives this child's own resource usage
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        if proc.returncode:
            sys.stderr.write(err.read().decode(errors="replace"))
    payload = report.read_bytes() if report.exists() else b""
    # ru_maxrss is in kilobytes on Linux
    return wall, proc.returncode, usage.ru_maxrss / 1024, payload


def main(names) -> int:
    print(f"{'input':<8} {'p':>2} {'wall_s':>8} {'exit':>4} {'rss_mb':>7} "
          f"{'bytes':>10}  sha256")
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            wall, code, rss, payload = run_one(name, Path(tmp))
            digest = hashlib.sha256(payload).hexdigest() if payload else "-"
            print(f"{name:<8} {PRIME:>2} {wall:>8.2f} {code:>4} {rss:>7.0f} "
                  f"{len(payload):>10}  {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or GROUPS))
