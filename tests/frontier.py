"""Time the inputs at the edge of what the engine finishes.

Runs `python -m sclab.cli verify --group tests/data/NAME.grp --prime 2`
for S4 x S4, D8 x D8 and Z2^5, one child process each, and prints the wall
time, the exit code, and the size and SHA-256 of the report. Pytest does
not collect this file; run it by hand:

    python tests/frontier.py [NAME ...]

NAME is a group file in tests/data without its suffix; the default runs
all three.
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
GROUPS = ("s4xs4", "d8xd8", "z2_5")
PRIME = 2


def run_one(name: str, workdir: Path) -> tuple[float, int, bytes]:
    report = workdir / f"{name}.json"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "sclab.cli", "verify",
         "--group", str(DATA / f"{name}.grp"), "--prime", str(PRIME),
         "--report", str(report)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    wall = time.perf_counter() - start
    if proc.returncode and proc.stderr:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
    return wall, proc.returncode, report.read_bytes() if report.exists() else b""


def main(names) -> int:
    print(f"{'input':<8} {'p':>2} {'wall_s':>8} {'exit':>4} "
          f"{'bytes':>10}  sha256")
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            wall, code, payload = run_one(name, Path(tmp))
            digest = hashlib.sha256(payload).hexdigest() if payload else "-"
            print(f"{name:<8} {PRIME:>2} {wall:>8.2f} {code:>4} "
                  f"{len(payload):>10}  {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or GROUPS))
