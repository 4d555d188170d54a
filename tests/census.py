"""A census of a host group's subgroups, each verified as a group of its own.

For each conjugacy class of subgroups of the host, the representative's
`generating_set` is written as a group file, and `sclab.run` verifies it
at each prime p dividing its order. Every plan must:

- exit 0 under --strict: no MISMATCH and no INCONCLUSIVE;
- meet Hall's count: the reduced Euler characteristic of the beat cores
  of S, A and B equals Hall's sum over the elementary abelian
  p-subgroups (`_naive.hall_euler_characteristic`), and |H|_p divides
  it (Brown);
- have S contractible when O_p(H) is nontrivial (Quillen).

The census also counts the method of every contractibility verdict that
its reports cite, the two sides of each `both-contractible` scan row
included. The order cap of every enumeration and plan is the host's order,
or the default cap when that is larger, so a host above the default cap
runs whole. Pytest does not collect this file; the S5 census runs in
`tests/test_literature.py`. Run it by hand:

    python tests/census.py [GROUP ...]

GROUP is a group file or builtin:NAME; the default runs S6, S4 x S4 and
S7 from tests/data. The script prints one line per host, then each
failure, and exits 1 if any plan fails.
"""

from __future__ import annotations

import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

if __name__ == "__main__":  # run by hand: the package lives in src
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import _naive as naive
from sclab.collections import collection_context
from sclab.contract import CONTRACTIBLE, beat_core, contractibility_verdict
from sclab.group import load_group
from sclab.lattice import DEFAULT_ORDER_CAP, enumerate_subgroups
from sclab.poset import order_complex
from sclab.runner import VerificationPlan, exit_status, run

DATA = Path(__file__).resolve().parent / "data"
HOSTS = tuple(str(DATA / f"{name}.grp") for name in ("s6", "s4xs4", "s7"))


class Census(NamedTuple):
    plans: int
    failures: list    # (group file name, p, what failed)
    methods: Counter  # verdict method -> the verdicts the reports cite


def count_verdict_methods(value, counts: Counter) -> None:
    """Add the method of each contractibility verdict in a report's JSON:
    a verdict is the one kind of object that says whether it is
    equivariant, and a `both-contractible` scan row keeps the methods of
    its two verdicts in its detail."""
    if isinstance(value, dict):
        if "equivariant" in value:
            counts[value["method"]] += 1
        if value.get("method") == "both-contractible":
            counts.update((value["detail"]["left"], value["detail"]["right"]))
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            count_verdict_methods(item, counts)


def check_lattice(lattice, p: int) -> list[str]:
    """What the group of lattice fails at p of Hall's count and Quillen's
    O_p criterion."""
    failed = []
    hall = naive.hall_euler_characteristic(
        lattice.group, map(lattice.members, range(len(lattice))), p)
    if hall % naive.p_part(lattice.group.order, p):
        failed.append(f"|H|_p does not divide Hall's count {hall}")
    ctx = collection_context(lattice, p)
    for kind in ("S", "A", "B"):
        chi = order_complex(beat_core(ctx.collection(kind))).euler_characteristic() - 1
        if chi != hall:
            failed.append(f"{kind} has reduced Euler characteristic {chi}, "
                          f"Hall's count is {hall}")
    if (lattice.p_core(lattice.full, p) != lattice.trivial
            and contractibility_verdict(ctx.collection("S")).status != CONTRACTIBLE):
        failed.append("O_p is nontrivial but S is not shown contractible")
    return failed


def check_plan(path: Path, p: int, methods: Counter,
               max_order: int) -> list[str]:
    """What the plan (path, p) under the order cap max_order fails of the
    strict exit status."""
    report = run(VerificationPlan(str(path), p, max_order=max_order))
    count_verdict_methods(report, methods)
    status = exit_status(report, strict=True)
    return [f"exit status {status}"] if status else []


def census(host: str) -> Census:
    """Verify one representative of each class of nontrivial subgroups of
    host at each prime dividing its order."""
    group = load_group(host)
    cap = max(group.order, DEFAULT_ORDER_CAP)
    lattice = enumerate_subgroups(group, max_order=cap)
    # each representative's group file, made before any plan runs so
    # that the host's tables are let go: each plan builds its own
    files = {f"H{rep}.grp": f"degree {group.degree}\n" + "".join(
        f"gen {group.element_string(x)}\n" for x in lattice.generating_set(rep))
        for rep in lattice.class_representatives() if lattice.sizes[rep] > 1}
    del group, lattice
    plans, failures, methods = 0, [], Counter()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            path = Path(tmp) / name
            path.write_text(text)
            sub = enumerate_subgroups(load_group(str(path)), max_order=cap)
            order = sub.group.order
            primes = [p for p in range(2, order + 1)
                      if not order % p and all(p % d for d in range(2, p))]
            found = {p: check_lattice(sub, p) for p in primes}
            # each plan builds a lattice of its own, so let this one go
            del sub
            for p in primes:
                plans += 1
                failures += [(name, p, what) for what in check_plan(
                    path, p, methods, cap) + found[p]]
    return Census(plans, failures, methods)


def main() -> int:
    failed = False
    for host in sys.argv[1:] or HOSTS:
        start = time.perf_counter()
        result = census(host)
        print(f"{Path(host).name}: {result.plans} plans, "
              f"{len(result.failures)} failures, "
              f"{time.perf_counter() - start:.1f} s, verdict methods "
              f"{dict(sorted(result.methods.items()))}")
        for name, p, what in result.failures:
            print(f"  {name} at {p}: {what}")
        failed |= bool(result.failures)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
