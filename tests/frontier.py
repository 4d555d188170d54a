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
equals its pin in PINS, the bytes of the sclab-report/4 format.
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
    "s4xs4": "c4e31c28bcefea2fe5ff42fb41c0bef6457391004e80512c276b3860269a7d54",
    "d8xd8": "91da6137c7cd9254e2578547b2f670b47d773f386ff8b3b6f5e3b655a54b3dd5",
    "z2_5": "4c0b1c0fc08f9cc800ae45b76951f4e0214c52eff672400381367cba545553bd",
    "z2_6": "ee1388c77ded128dccc5e6c44edeb2827a7bf3f0b94f13a8053e6e8375ff1f2c",
    "s6xz2": "e37090a793d21c07e1352a4bd186d430c692ee9234ebdf951d4c6a534bcc513e",
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
