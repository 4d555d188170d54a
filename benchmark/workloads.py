"""Benchmark workloads and the seeded group files they read.

Each workload is a list of (group, prime) plans. A group is a builtin name,
exported through its generators, or a hand-written file under ``groups/``.
The seed relabels every group's points by a seeded permutation (seed 0 is
the identity), so the program only ever sees generated group files and the
same seed always gives the same files.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
GROUP_DIR = HERE / "groups"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    plans: tuple          # ((group, prime), ...)
    # warm: one sample is a whole pass over the plans, reading a lattice
    # cache that set-up fills with one cold pass; otherwise each workload
    # has one plan and a sample is that plan
    warm: bool = False


# every builtin suite group at each prime dividing its order, as the tests
# sweep them, less (S5, 2), which is a workload of its own
SUITE_WARM_PLANS = (
    ("D8", 2), ("Q8", 2), ("Zn:2", 2), ("Zn:3", 3), ("Zn:5", 5),
    ("S3", 2), ("S3", 3), ("S4", 2), ("S4", 3), ("A4", 2), ("A4", 3),
    ("D12", 2), ("D12", 3), ("SL23", 2), ("SL23", 3),
    ("A5", 2), ("A5", 3), ("A5", 5), ("S5", 3), ("S5", 5),
)

WORKLOADS = {w.name: w for w in (
    Workload("s5-p2", "S5 at p = 2, the headline case: lattice enumeration "
             "and homology each take about half the time",
             (("S5", 2),)),
    Workload("s5-p3", "S5 at p = 3: lattice enumeration is nearly all the "
             "time and homology almost none",
             (("S5", 3),)),
    Workload("d8xz2-p2", "D8 x Z2 at p = 2: homology on the largest complexes "
             "the engine finishes is nearly all the time, the lattice is tiny",
             (("d8xz2.grp", 2),)),
    Workload("suite-warm", "the 20 small builtin plans with a warm lattice "
             "cache: many small complexes, cache reads and report emission",
             SUITE_WARM_PLANS, warm=True),
)}


def plan_key(group: str, prime: int) -> str:
    return f"{group}:{prime}"


def _builtin_text(name: str) -> str:
    from sclab.group import builtin_group
    group = builtin_group(name)
    lines = [f"degree {group.degree}"]
    lines += [f"gen {g.cycle_string()}" for g in group.generators]
    return "\n".join(lines) + "\n"


def _degree(text: str) -> int:
    match = re.search(r"^\s*degree\s+(\d+)", text, re.MULTILINE)
    if match is None:
        raise ValueError("group text has no degree line")
    return int(match.group(1))


def relabel(text: str, sigma: list) -> str:
    """Apply the point map i -> sigma[i] to every point of the gen lines."""
    out = []
    for line in text.splitlines():
        if line.lstrip().startswith("gen"):
            line = re.sub(r"\d+", lambda m: str(sigma[int(m.group())]), line)
        out.append(line)
    return "\n".join(out) + "\n"


def group_text(group: str, seed: int) -> str:
    """The group file for ``group`` with its points relabelled by ``seed``."""
    if group.endswith(".grp"):
        text = (GROUP_DIR / group).read_text()
    else:
        text = _builtin_text(group)
    sigma = list(range(_degree(text)))
    if seed:
        random.Random(f"{seed}/{group}").shuffle(sigma)
    return relabel(text, sigma)


def write_group_files(workload: Workload, seed: int, out_dir: Path) -> dict:
    """Write each group of the workload once; returns group -> file path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for group, _ in workload.plans:
        if group not in paths:
            path = out_dir / (group.replace(":", "-").removesuffix(".grp")
                              + ".grp")
            path.write_text(group_text(group, seed))
            paths[group] = path
    return paths
