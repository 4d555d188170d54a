"""Plan execution, report assembly, summaries, and the lattice cache."""

import json

import pytest

import sclab.runner

from sclab.cache import (
    CACHE_FORMAT,
    cache_dir_from_env,
    lattice_for,
    load_lattice,
    store_lattice,
)
from sclab.collections import KINDS
from sclab.errors import CapExceeded
from sclab.group import builtin_group
from sclab.lattice import enumerate_subgroups
from sclab.report import report_to_json_bytes
from sclab.runner import (
    NOT_CHECKED,
    REPORT_FORMAT,
    SUITES,
    VerificationPlan,
    exit_status,
    run,
    summarize,
)

D8_COLLECTION_SIZES = {
    "A": 7, "S": 9, "B": 1, "Ce": 4, "Bcen": 1, "D": 1, "E": 1,
    "tilde-A": 3, "tilde-S": 5, "tilde-B": 1,
    "hat-A": 3, "hat-S": 5, "hat-B": 1,
}


@pytest.fixture(scope="module")
def d8_report():
    return run(VerificationPlan("builtin:D8", 2))


# ---------------------------------------------------------------- planning


def test_plan_validation():
    with pytest.raises(ValueError):
        VerificationPlan("builtin:D8", 2, "everything").validate()
    with pytest.raises(ValueError):
        VerificationPlan("builtin:D8", 1).validate()
    with pytest.raises(ValueError, match="not a prime"):
        VerificationPlan("builtin:D8", 4).validate()
    VerificationPlan("builtin:D8", 2).validate()


def test_plan_to_json_carries_the_knobs():
    plan = VerificationPlan("builtin:S4", 3, "table31",
                            max_order=100, max_simplices=5000, strict=True)
    js = plan.to_json()
    assert js == {"group": "builtin:S4", "prime": 3, "suite": "table31",
                  "max_order": 100, "max_simplices": 5000, "strict": True}


# ------------------------------------------------------------- the report


def test_report_top_level_structure(d8_report):
    report = d8_report
    assert report["format"] == REPORT_FORMAT
    assert report["plan"]["group"] == "builtin:D8"
    assert set(report["suites"]) == set(SUITES) - {"all"}
    assert report["not_checked"] == list(NOT_CHECKED)


def test_report_group_section(d8_report):
    section = d8_report["group"]
    assert section["name"] == "D8"
    assert section["degree"] == 4
    assert section["order"] == 8
    assert len(section["generators"]) == 2
    assert isinstance(section["hash"], str) and len(section["hash"]) >= 16


def test_report_lattice_and_collections(d8_report):
    assert d8_report["lattice"] == {"subgroups": 10, "conjugacy_classes": 8}
    assert set(d8_report["collections"]) == set(KINDS)
    assert d8_report["collections"] == D8_COLLECTION_SIZES


def test_report_summary_is_clean_on_d8(d8_report):
    summary = d8_report["summary"]
    # 17 + 12 table edges plus 7 reproduced counterexample edges
    assert summary["edges"] == 36
    assert summary["by_status"]["CERTIFIED"] == 19
    assert summary["by_status"]["HOMOLOGY-CONSISTENT"] == 17
    assert summary["by_status"]["MISMATCH"] == 0
    assert summary["by_status"]["INCONCLUSIVE"] == 0
    assert summary["by_status"]["SKIPPED"] == 0
    assert summary["chain_violations"] == 0
    assert not summary["mismatch_found"]
    assert not summary["inconclusive_found"]
    assert exit_status(d8_report) == 0
    assert exit_status(d8_report, strict=True) == 0


def test_counterexample_suite_applies_only_to_d8(d8_report):
    section = d8_report["suites"]["counterexamples"]
    assert section["applicable"]
    assert len(section["edges"]) == 7
    assert "note" not in section

    q8 = run(VerificationPlan("builtin:Q8", 2, "counterexamples"))
    section = q8["suites"]["counterexamples"]
    assert not section["applicable"]
    assert section["edges"] == []
    assert "note" in section
    # an empty suite is still a valid, clean report
    assert q8["summary"]["edges"] == 0
    assert exit_status(q8) == 0


def test_conditions_section(d8_report):
    section = d8_report["suites"]["conditions"]
    assert set(section["reports"]) == {"M", "Cl", "Ch"}
    assert all(r["holds"] for r in section["reports"].values())
    coincide = section["radical_collections_coincide"]
    assert coincide["equal"] is True

    d12 = run(VerificationPlan("builtin:D12", 2, "conditions"))
    section = d12["suites"]["conditions"]
    assert not section["reports"]["Ch"]["holds"]
    assert section["reports"]["Ch"]["witnesses"]
    assert section["radical_collections_coincide"] is None


def test_single_suite_runs_only_that_suite():
    report = run(VerificationPlan("builtin:D8", 2, "table44"))
    assert set(report["suites"]) == {"table44"}
    assert len(report["suites"]["table44"]["edges"]) == 12


def test_inclusions_suite_reports_every_chain_pair():
    report = run(VerificationPlan("builtin:D8", 2, "inclusions"))
    assert set(report["suites"]) == {"inclusions"}
    assert report["plan"]["suite"] == "inclusions"
    assert len(report["suites"]["inclusions"]["chains"]) == 11


def test_reports_are_deterministic():
    a = run(VerificationPlan("builtin:D8", 2))
    b = run(VerificationPlan("builtin:D8", 2))
    assert report_to_json_bytes(a) == report_to_json_bytes(b)


# ------------------------------------------------------- summary mechanics


def _fake_report(statuses, holds=(True,)):
    return {
        "suites": {
            "table31": {"edges": [{"status": s} for s in statuses]},
            "inclusions": {"chains": [{"holds": h} for h in holds]},
        },
    }


def test_summarize_counts_and_flags():
    summary = summarize(_fake_report(["CERTIFIED", "MISMATCH", "SKIPPED"]))
    assert summary["edges"] == 3
    assert summary["by_status"]["MISMATCH"] == 1
    assert summary["mismatch_found"]
    assert not summary["inconclusive_found"]


def test_chain_violations_count_as_mismatch():
    summary = summarize(_fake_report(["CERTIFIED"], holds=(True, False)))
    assert summary["chain_violations"] == 1
    assert summary["mismatch_found"]


def test_exit_status_ladder():
    def report_with(**kw):
        summary = {"mismatch_found": False, "inconclusive_found": False}
        summary.update(kw)
        return {"summary": summary}

    assert exit_status(report_with()) == 0
    assert exit_status(report_with(mismatch_found=True)) == 1
    assert exit_status(report_with(inconclusive_found=True)) == 0
    assert exit_status(report_with(inconclusive_found=True), strict=True) == 2
    assert exit_status(report_with(mismatch_found=True,
                                   inconclusive_found=True), strict=True) == 1


# ------------------------------------------------------------------ cache


def test_cache_round_trip(tmp_path):
    group = builtin_group("D8")
    first = lattice_for(group, cache_dir=tmp_path)
    path = tmp_path / f"lattice-{group.content_hash}.json"
    assert path.exists()
    payload = json.loads(path.read_text())
    assert payload["format"] == CACHE_FORMAT
    assert len(payload["subgroups"]) == 10

    second = lattice_for(group, cache_dir=tmp_path)
    assert second.bitsets == first.bitsets


def test_cache_ignores_corruption(tmp_path):
    group = builtin_group("D8")
    path = tmp_path / f"lattice-{group.content_hash}.json"
    tmp_path.mkdir(exist_ok=True)
    path.write_text("not json at all {")
    assert load_lattice(tmp_path, group) is None
    # a corrupted file never breaks the run, it just forces re-enumeration
    lattice = lattice_for(group, cache_dir=tmp_path)
    assert len(lattice) == 10


def test_cache_rejects_wrong_hash_or_format(tmp_path):
    group = builtin_group("D8")
    lattice = enumerate_subgroups(group)
    path = store_lattice(tmp_path, lattice)

    payload = json.loads(path.read_text())
    payload["group_hash"] = "0" * len(payload["group_hash"])
    path.write_text(json.dumps(payload))
    assert load_lattice(tmp_path, group) is None

    payload = json.loads(path.read_text())
    payload["group_hash"] = group.content_hash
    payload["format"] = 99
    path.write_text(json.dumps(payload))
    assert load_lattice(tmp_path, group) is None


def test_cache_rejects_incomplete_lattices(tmp_path):
    group = builtin_group("D8")
    lattice = enumerate_subgroups(group)
    path = store_lattice(tmp_path, lattice)
    payload = json.loads(path.read_text())
    payload["subgroups"] = payload["subgroups"][1:]  # drop the trivial subgroup
    path.write_text(json.dumps(payload))
    assert load_lattice(tmp_path, group) is None


def test_cache_rejects_a_repeated_subgroup(tmp_path):
    group = builtin_group("S4")
    fresh = enumerate_subgroups(group)
    path = store_lattice(tmp_path, fresh)
    payload = json.loads(path.read_text())
    payload["subgroups"].append(payload["subgroups"][3])
    path.write_text(json.dumps(payload))
    assert load_lattice(tmp_path, group) is None
    lattice = lattice_for(group, cache_dir=tmp_path)
    assert len(lattice) == 30 and len(lattice.class_masks) == 11
    assert lattice.bitsets == fresh.bitsets


def test_cache_rejects_a_non_subgroup_bitset(tmp_path):
    group = builtin_group("D8")
    fresh = enumerate_subgroups(group)
    path = store_lattice(tmp_path, fresh)
    payload = json.loads(path.read_text())
    # the identity and an element of order 4 do not form a subgroup
    x = group.element_orders.index(4)
    payload["subgroups"][1] = format(1 | 1 << x, "x")
    path.write_text(json.dumps(payload))
    assert payload["group_hash"] == group.content_hash
    assert load_lattice(tmp_path, group) is None
    lattice = lattice_for(group, cache_dir=tmp_path)
    assert lattice.bitsets == fresh.bitsets


def test_cache_rejects_a_partial_class(tmp_path):
    # S4 has six subgroups generated by a transposition; a file holding
    # five of them is re-enumerated, and the report is the fresh one
    group = builtin_group("S4")
    fresh = enumerate_subgroups(group)
    path = store_lattice(tmp_path, fresh)
    payload = json.loads(path.read_text())
    transposition = next(
        r for r, n in enumerate(fresh.sizes) if n == 2
        and fresh.generator_string(r).count("(") == 1)
    payload["subgroups"].remove(format(fresh.bitsets[transposition], "x"))
    path.write_text(json.dumps(payload))
    assert load_lattice(tmp_path, group) is None
    cached = run(VerificationPlan("builtin:S4", 2, cache_dir=tmp_path))
    assert report_to_json_bytes(cached) == report_to_json_bytes(
        run(VerificationPlan("builtin:S4", 2)))


def test_each_subgroup_class_is_computed_once(tmp_path, monkeypatch):
    # S5 has 19 classes of subgroups; the enumerator computes all but the
    # trivial one, a cache load all 19 for its partial-class check, and
    # the lattice takes its orbits and its generator action from the
    # classes and moves either hands it, without conjugating them again
    group = builtin_group("S5")
    calls = []
    compute = group.subgroup_class
    monkeypatch.setattr(group, "subgroup_class",
                        lambda bits: calls.append(bits) or compute(bits))
    fresh = enumerate_subgroups(group)
    assert len(fresh.class_masks) == 19 and len(calls) == 18
    store_lattice(tmp_path, fresh)
    calls.clear()
    cached = load_lattice(tmp_path, group)
    assert cached.class_masks == fresh.class_masks and len(calls) == 19
    assert cached.generator_action == fresh.generator_action


def test_s5_normalizers_are_computed_once_per_class(monkeypatch):
    # a run of S5 at 2 asks for the normalizers of its 75 nontrivial
    # 2-subgroups, which fall into 6 classes; each class costs one
    # normalizer_bitset call, and the rest are carried along the action
    lattice = enumerate_subgroups(builtin_group("S5"))
    computed, asked = [], set()
    compute, ask = lattice.group.normalizer_bitset, lattice.normalizer
    monkeypatch.setattr(lattice.group, "normalizer_bitset", lambda bits, gens:
                        computed.append(bits) or compute(bits, gens))
    monkeypatch.setattr(lattice, "normalizer",
                        lambda h: asked.add(h) or ask(h))
    monkeypatch.setattr(sclab.runner, "lattice_for",
                        lambda group, **knobs: lattice)
    report = run(VerificationPlan("builtin:S5", 2))
    classes = {lattice.class_of[i] for i in asked}
    assert (len(computed), len(classes), len(asked)) == (6, 6, 75)
    assert exit_status(report) == 0


def test_cached_run_reports_match(tmp_path):
    plain = run(VerificationPlan("builtin:D8", 2, "table31"))
    warm = run(VerificationPlan("builtin:D8", 2, "table31", cache_dir=tmp_path))
    cached = run(VerificationPlan("builtin:D8", 2, "table31", cache_dir=tmp_path))
    assert report_to_json_bytes(plain) == report_to_json_bytes(warm)
    assert report_to_json_bytes(warm) == report_to_json_bytes(cached)


def test_order_cap_checked_before_cache(tmp_path):
    group = builtin_group("S4")
    with pytest.raises(CapExceeded):
        lattice_for(group, cache_dir=tmp_path, max_order=10)
    # nothing may be written for a refused group
    assert list(tmp_path.glob("*.json")) == []


def test_cache_dir_from_env(monkeypatch):
    monkeypatch.delenv("SCLAB_CACHE", raising=False)
    assert cache_dir_from_env() is None
    monkeypatch.setenv("SCLAB_CACHE", "/tmp/somewhere")
    assert str(cache_dir_from_env()) == "/tmp/somewhere"
