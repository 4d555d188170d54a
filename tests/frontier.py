"""Time the inputs at the edge of what the engine finishes.

Runs `python -m sclab.cli verify --group tests/data/NAME.grp --prime 2`
for S4 x S4, D8 x D8, Z2^5, Z2^6 and S6 x Z2, one child process each, and
prints the wall time, the exit code, the child's peak resident set size,
and the size and SHA-256 of the report. A first "startup" row times a
child that only runs `import sclab.cli`, the floor under every run; no
pin covers it. Pytest does not collect this file; run it by hand:

    python tests/frontier.py [--check] [NAME ...]

NAME is a group file in tests/data without its suffix; the default runs
all five. With --check the script exits 1 unless every report's SHA-256
equals its pin in PINS, the bytes of the sclab-report/5 format. The pins
were made by docs/report_4_to_5.py from the sclab-report/4 bytes pinned
before, and the engine writes exactly those bytes.
"""

from __future__ import annotations

import argparse
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
PINS = {
    "s4xs4": "d981ced677c5f09513ce6962349d65970080e396328328e709b260c03762edf4",
    "d8xd8": "5ed1de8c3276c1beb276e8696045ae3b90ce94d91a57f4135115d9d820eae09b",
    "z2_5": "9579811c95a92cf04d416a34e7303a70d23ea2502d7838f679e8d54fd2b1db8e",
    "z2_6": "c0e2c1ea7b788113b4cae68b65da0866067255a3c27ccf1b1f8541f5ed4ad074",
    "s6xz2": "6ae52fd96296a27f367f1675c827c064cfee3e7035d9f7e21d5b013d614b3b34",
}


def run_child(args) -> tuple[float, int, float]:
    """Wall time, exit code and peak RSS in MB of `python ARGS` in a child."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        # wait4 gives this child's own resource usage
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        if proc.returncode:
            sys.stderr.write(err.read().decode(errors="replace"))
    # ru_maxrss is in kilobytes on Linux
    return wall, proc.returncode, usage.ru_maxrss / 1024


def run_one(name: str, workdir: Path) -> tuple[float, int, float, bytes]:
    """Wall time, exit code, peak RSS in MB and report bytes of one run."""
    report = workdir / f"{name}.json"
    wall, code, rss = run_child(
        ["-m", "sclab.cli", "verify", "--group", str(DATA / f"{name}.grp"),
         "--prime", str(PRIME), "--report", str(report)])
    payload = report.read_bytes() if report.exists() else b""
    return wall, code, rss, payload


def main(argv) -> int:
    parser = argparse.ArgumentParser(description="Time the frontier inputs.")
    parser.add_argument("names", nargs="*", default=GROUPS, metavar="NAME")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless each report's sha256 is its pin")
    args = parser.parse_args(argv)
    print(f"{'input':<8} {'p':>2} {'wall_s':>8} {'exit':>4} {'rss_mb':>7} "
          f"{'bytes':>10}  sha256")
    wall, code, rss = run_child(["-c", "import sclab.cli"])
    print(f"{'startup':<8} {'-':>2} {wall:>8.2f} {code:>4} {rss:>7.0f} "
          f"{'-':>10}  -", flush=True)
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.names:
            wall, code, rss, payload = run_one(name, Path(tmp))
            digest = hashlib.sha256(payload).hexdigest() if payload else "-"
            print(f"{name:<8} {PRIME:>2} {wall:>8.2f} {code:>4} {rss:>7.0f} "
                  f"{len(payload):>10}  {digest}", flush=True)
            if digest != PINS.get(name):
                differ.append(name)
    if args.check and differ:
        print(f"sha256 differs from the pin: {', '.join(differ)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
