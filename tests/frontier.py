"""Time the inputs at the edge of what the engine finishes.

Runs `python -m sclab.cli verify --group tests/data/NAME.grp --prime 2`
for S4 x S4, D8 x D8, Z2^5, Z2^6 and S6 x Z2, one child process each, and
prints the wall time, the exit code, the child's peak resident set size,
the size of the report, the number of scan rows in its evidence and the
report's SHA-256. A first "startup" row times a
child that only runs `import sclab.cli`, the floor under every run; no
pin covers it. Pytest does not collect this file; run it by hand:

    python tests/frontier.py [--check] [NAME ...]

NAME is a group file in tests/data without its suffix; the default runs
all five. With --check the script exits 1 unless every report's SHA-256
equals its pin in PINS.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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
# the bytes of the sclab-report/7 format, made by docs/report_6_to_7.py from
# the sclab-report/6 bytes pinned before; the engine writes exactly those
PINS = {
    "s4xs4": "0861e21a3d685d5882666318b6839737e419320c8026a5969f1e578279f86504",
    "d8xd8": "5f6f9c928f2dffc2a9d2e8e5381f865482fd00f65f15b9b076817899e4b61d75",
    "z2_5": "96cc6d58d89fb41d401d32ca724e5db7d9b47ac5f79242eb0ab3c53c7cd7e29f",
    "z2_6": "231a8dc33b1f28bed39826e01e2ff8882031fe5eec1a7619f45ef590beb9a2ff",
    "s6xz2": "070e811398452dd86d66a100063b0d93d27c5517e2c2184f9b93859f57fdfbb7",
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


def scan_rows(payload: bytes) -> int:
    """The per-subgroup rows of every scan in the report's evidence."""
    return sum(len(entry["per_subgroup"])
               for entry in json.loads(payload)["evidence"]
               if isinstance(entry, dict) and "per_subgroup" in entry)


def main(argv) -> int:
    parser = argparse.ArgumentParser(description="Time the frontier inputs.")
    parser.add_argument("names", nargs="*", default=GROUPS, metavar="NAME")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless each report's sha256 is its pin")
    args = parser.parse_args(argv)
    print(f"{'input':<8} {'p':>2} {'wall_s':>8} {'exit':>4} {'rss_mb':>7} "
          f"{'bytes':>10} {'rows':>6}  sha256")
    wall, code, rss = run_child(["-c", "import sclab.cli"])
    print(f"{'startup':<8} {'-':>2} {wall:>8.2f} {code:>4} {rss:>7.0f} "
          f"{'-':>10} {'-':>6}  -", flush=True)
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.names:
            wall, code, rss, payload = run_one(name, Path(tmp))
            digest = hashlib.sha256(payload).hexdigest() if payload else "-"
            rows = scan_rows(payload) if payload else "-"
            print(f"{name:<8} {PRIME:>2} {wall:>8.2f} {code:>4} {rss:>7.0f} "
                  f"{len(payload):>10} {rows:>6}  {digest}", flush=True)
            if digest != PINS.get(name):
                differ.append(name)
    if args.check and differ:
        print(f"sha256 differs from the pin: {', '.join(differ)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
