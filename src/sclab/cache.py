"""Disk cache for enumerated subgroup lattices.

One JSON file per group, named by the content hash of the group's element
table. A file is only trusted when its format version and its stored hash
match, and its stored bitsets are distinct subgroups, stored with their
whole conjugacy classes; anything else falls through to re-enumeration.
A file from which whole classes were deleted still passes: telling it
apart would cost as much as enumerating the lattice again.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .errors import CapExceeded
from .group import PermutationGroup
from .lattice import DEFAULT_ORDER_CAP, SubgroupLattice, enumerate_subgroups

CACHE_FORMAT = 1
ENV_VAR = "SCLAB_CACHE"


def cache_dir_from_env() -> Path | None:
    value = os.environ.get(ENV_VAR)
    return Path(value) if value else None


def _cache_path(cache_dir: Path, group: PermutationGroup) -> Path:
    return cache_dir / f"lattice-{group.content_hash}.json"


def load_lattice(cache_dir: Path, group: PermutationGroup) -> SubgroupLattice | None:
    path = _cache_path(cache_dir, group)
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if (not isinstance(payload, dict) or payload.get("format") != CACHE_FORMAT
            or payload.get("group_hash") != group.content_hash
            or not isinstance(payload.get("subgroups"), list)):
        return None
    try:
        bitsets = [int(b, 16) for b in payload["subgroups"]]
    except (TypeError, ValueError):
        return None
    full = (1 << group.order) - 1
    if (1 not in bitsets or full not in bitsets
            or not all(1 <= b <= full for b in bitsets)
            or len(set(bitsets)) < len(bitsets)):
        return None
    stored, checked, classes = set(bitsets), set(), []
    for b in bitsets:
        if b in checked:
            continue
        if group.closure_bitset(b) != b:
            return None
        cls = group.subgroup_class(b)  # conjugates of a subgroup are ones too
        if not stored.issuperset(cls[0]):
            return None
        checked.update(cls[0])
        classes.append(cls)
    return SubgroupLattice(group, classes)


def store_lattice(cache_dir: Path, lattice: SubgroupLattice) -> Path:
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = _cache_path(cache_dir, lattice.group)
    payload = {
        "format": CACHE_FORMAT,
        "group_hash": lattice.group.content_hash,
        "subgroups": [format(bits, "x") for bits in lattice.bitsets],
    }
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload))
    tmp.replace(path)
    return path


def lattice_for(group: PermutationGroup, *, cache_dir: Path | None = None,
                max_order: int = DEFAULT_ORDER_CAP) -> SubgroupLattice:
    """Enumerate the subgroup lattice, round-tripping through the cache
    directory when one is given."""
    if group.order > max_order:
        raise CapExceeded(f"group order {group.order} exceeds the cap {max_order}")
    if cache_dir is not None:
        cached = load_lattice(cache_dir, group)
        if cached is not None:
            return cached
    lattice = enumerate_subgroups(group, max_order=max_order)
    if cache_dir is not None:
        store_lattice(cache_dir, lattice)
    return lattice
