"""Command line behavior: exit codes, output formats, report files.

The golden file pins the exact bytes of a small JSON report; any change
to report content or serialization order must be deliberate enough to
regenerate it. It, the SHA-256 pins below and the frontier pins were last
replaced by `docs/report_6_to_7.py` applied to the sclab-report/6 bytes
they pinned before, which keeps one scan row per conjugacy class; the new
code writes exactly those bytes. The markdown pins were replaced by the
markdown of those rewritten reports, rendered from their JSON. The /5 and
/6 golden files are kept beside the /7 one, and the /5 file's evidence
inlined again gives the /4 bytes in GOLDEN_REPORT_4_SHA256.
"""

import ast
import gc
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import sclab
import sclab.cli
import sclab.runner
from sclab.cli import (
    EXIT_CAP,
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_PARSE,
    EXIT_UNKNOWN_BUILTIN,
    EXIT_USAGE,
    build_parser,
    main,
)
from sclab.contract import contractibility_verdict

from _suite import inline_evidence, relation_poset
from frontier import PINS
from test_contract import DUNCE_FACETS, TRIANGLE_RIM, face_poset

GOLDEN = Path(__file__).parent / "golden"
DATA = Path(__file__).parent / "data"

# SHA-256 of the report of `sclab verify --group tests/data/z2_4.grp
# --prime 2`, recorded while order queries were still pairwise, then
# carried to sclab-report/3, /4, /5, /6 and /7 by the converters of each
# format change. Its core certificates list every beat point in removal order, so
# any change in which beat point is removed first changes these bytes.
Z2_4_P2_SHA256 = (
    "7e897986718bf2bf62fa5d85c0b00ae85be36cbe63d30430eeeac924ce18f9fe")

# SHA-256 of the report of `sclab verify --group tests/data/psl27.grp
# --prime 2`, recorded while normalizers and centralizers were still found
# by conjugating with every element, then carried to sclab-report/3, /4,
# /5, /6 and /7 by the converters of each format change. PSL(2,7) is non-abelian
# with six element classes and fifteen subgroup classes, so its
# normalizers and centralizers differ from subgroup to subgroup, unlike
# those of Z2^4.
PSL27_P2_SHA256 = (
    "5296daa2963d8c07cb10ee174ddabc11bc16aa98af06dbd8221e8f5303ac0a99")

# SHA-256 of the report of `sclab verify --group tests/data/a4wrz2.grp
# --prime 2`, recorded as sclab-report/5 while E0 and E1 were still sets
# of element indices closed by re-scanning every pair, then carried to /6
# and /7 by docs/report_5_to_6.py and docs/report_6_to_7.py. A4 wr Z2 is
# the first input here on which E1 is larger than E0 and the Cl condition
# fails, so its tilde and hat collections differ.
A4WRZ2_P2_SHA256 = (
    "dcb97896fbd7805b8f346ce5d831aa5042ef3fc21b2156cb9646cfd05a0aca57")

# SHA-256 of the report of `sclab verify --group tests/data/d8xz2.grp
# --prime 2`, recorded while retractions were still checked position by
# position as explicit maps, then carried to sclab-report/3, which
# checked each recorded pair against q v H or q ^ C_G(H), and to /4, /5,
# /6 and /7 by the converters of each format change. Its scans certify
# 70 rows by retraction, one per class (94 while every subgroup had one).
D8XZ2_P2_SHA256 = (
    "15f10271de0b4a4f987404e87cf4110957e13af5aa2ad1f02503420296326b45")

# the sclab-report/4 bytes of the golden file
GOLDEN_REPORT_4_SHA256 = (
    "3e0009114108409daff829464d43ea65f139545d2ffb7467b0314c6c87668948")


def verify(*extra):
    return main(["verify", *extra])


def sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def as_report_4(payload: bytes) -> bytes:
    """The sclab-report/4 bytes of the run whose /5 report is payload."""
    report = inline_evidence(json.loads(payload))
    return (json.dumps(report, sort_keys=True, separators=(",", ":"))
            + "\n").encode()


def assert_golden(actual: bytes) -> None:
    """Compare parsed first, so a failure shows a structural diff of the
    one-line report; then the bytes themselves."""
    golden = (GOLDEN / "d8_table31.json").read_bytes()
    assert json.loads(actual) == json.loads(golden)
    assert actual == golden


def test_clean_run_writes_json_to_stdout(capfdbinary):
    rc = verify("--group", "builtin:D8", "--prime", "2", "--suite", "table31")
    assert rc == 0
    out = capfdbinary.readouterr().out
    assert out.endswith(b"\n")
    report = json.loads(out)
    assert report["format"] == "sclab-report/7"
    assert report["group"]["name"] == "D8"


def test_markdown_format(capfdbinary):
    rc = verify("--group", "builtin:D8", "--prime", "2",
                "--suite", "table31", "--format", "markdown")
    assert rc == 0
    out = capfdbinary.readouterr().out
    assert out.startswith(b"# Collection comparison report")
    assert b"## table31" in out
    assert b"## Not checked" in out
    assert b"| EO: E / tilde-A |" in out


# SHA-256 of `sclab verify --group builtin:<name> --prime 2 --format
# markdown` (suite `all`), recorded while the writer still wrote each table
# line by line, and replaced by the markdown of the sclab-report/7 reports
# that docs/report_6_to_7.py made, read back from their JSON. The reports have every section: D8 its
# reproduced counterexamples, S4 no counterexamples but dashed edges citing
# a second Sylow group.
MARKDOWN_SHA256 = {
    "D8": "d38e049ce9ad41e2aa99414a1b30c67d42f0cf15894980b9f159d1575817cb43",
    "S4": "92ceccd87fb60da6d3eeb03da4520438f2d5943fd5c8c1f651b16d21d164a7fe",
}


@pytest.mark.parametrize("name", sorted(MARKDOWN_SHA256))
def test_markdown_bytes_are_pinned(name, capfdbinary):
    assert verify("--group", f"builtin:{name}", "--prime", "2",
                  "--format", "markdown") == 0
    assert sha256(capfdbinary.readouterr().out) == MARKDOWN_SHA256[name]


# SHA-256 of `sclab verify --group tests/data/a4wrz2.grp --prime 2 --format
# markdown`, the one pinned input whose Cl condition fails: its conditions
# table writes the element witness as the product it exhibits. Replaced as
# MARKDOWN_SHA256 was.
A4WRZ2_P2_MARKDOWN_SHA256 = (
    "20a1b486ccdb2ae38015ef86e36151a8ace7a46e1d7ad421a0987432339c8b00")


def test_markdown_writes_an_element_witness_as_its_product(capfdbinary):
    assert verify("--group", str(DATA / "a4wrz2.grp"), "--prime", "2",
                  "--format", "markdown") == 0
    out = capfdbinary.readouterr().out
    assert ("| Cl | False | (0 1)(2 3)(4 5)(6 7) · (0 1)(2 3)(4 6)(5 7)"
            " = (4 7)(5 6) |\n").encode() in out
    assert sha256(out) == A4WRZ2_P2_MARKDOWN_SHA256


def test_report_flag_writes_file(tmp_path, capfd):
    target = tmp_path / "out.json"
    rc = verify("--group", "builtin:D8", "--prime", "2",
                "--suite", "inclusions", "--report", str(target))
    assert rc == 0
    captured = capfd.readouterr()
    assert captured.out == ""
    assert "report written to" in captured.err
    assert json.loads(target.read_text())["plan"]["suite"] == "inclusions"


def test_json_output_is_byte_deterministic(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for target in (first, second):
        rc = verify("--group", "builtin:D8", "--prime", "2",
                    "--suite", "table44", "--report", str(target))
        assert rc == 0
    assert first.read_bytes() == second.read_bytes()


def test_golden_d8_table31_inlines_to_its_report_4_bytes():
    golden = (GOLDEN / "d8_table31_report5.json").read_bytes()
    assert sha256(as_report_4(golden)) == GOLDEN_REPORT_4_SHA256


def test_golden_d8_table31(tmp_path, capfd):
    target = tmp_path / "d8.json"
    rc = verify("--group", "builtin:D8", "--prime", "2",
                "--suite", "table31", "--report", str(target))
    capfd.readouterr()
    assert rc == 0
    assert_golden(target.read_bytes())


def test_reports_do_not_depend_on_the_group_file_directory(tmp_path):
    source = tmp_path / "square.grp"
    source.write_text("degree 4\ngen (0 1 2 3)\ngen (1 3)\n")
    reports = []
    for place in ("one", "two/deeper"):
        copy = tmp_path / place / "square.grp"
        copy.parent.mkdir(parents=True)
        shutil.copy(source, copy)
        target = tmp_path / place / "report.json"
        assert verify("--group", str(copy), "--prime", "2",
                      "--report", str(target)) == 0
        reports.append(target.read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["plan"]["group"] == "square.grp"


def test_cache_flag_populates_directory(tmp_path, capfdbinary):
    cache = tmp_path / "cache"
    rc = verify("--group", "builtin:D8", "--prime", "2",
                "--suite", "inclusions", "--cache", str(cache))
    capfdbinary.readouterr()
    assert rc == 0
    assert list(cache.glob("lattice-*.json"))


def _malformed_s3_cache(tmp_path, edit):
    """A cache directory whose S3 lattice file is rewritten by edit(payload),
    next to fresh.json, the report of the run that stored it."""
    cache = tmp_path / "cache"
    assert verify("--group", "builtin:S3", "--prime", "2", "--cache",
                  str(cache), "--report", str(tmp_path / "fresh.json")) == 0
    (path,) = cache.glob("lattice-*.json")
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    return cache


def _rerun_gives_fresh_bytes(tmp_path, cache):
    # in a child with a timeout, so that a loader that loops fails the test
    # instead of hanging the suite
    proc = _run_module("-m", "sclab.cli", "verify", "--group", "builtin:S3",
                       "--prime", "2", "--cache", str(cache), "--report",
                       str(tmp_path / "cached.json"), timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    assert ((tmp_path / "cached.json").read_bytes()
            == (tmp_path / "fresh.json").read_bytes())


def test_cache_file_that_is_not_an_object_is_re_enumerated(tmp_path):
    _rerun_gives_fresh_bytes(
        tmp_path, _malformed_s3_cache(tmp_path, lambda payload: []))


def test_cache_bitset_past_the_group_order_is_re_enumerated(tmp_path):
    # S3 has six elements, so bit 6 names none of them
    _rerun_gives_fresh_bytes(tmp_path, _malformed_s3_cache(
        tmp_path, lambda payload: payload | {
            "subgroups": payload["subgroups"] + [format(1 | 1 << 6, "x")]}))


def test_cache_negative_bitset_is_re_enumerated(tmp_path):
    # a negative mask has infinitely many set bits
    _rerun_gives_fresh_bytes(tmp_path, _malformed_s3_cache(
        tmp_path, lambda payload: payload | {
            "subgroups": payload["subgroups"] + ["-3"]}))


def test_non_prime_rejected(capfd):
    rc = verify("--group", "builtin:D8", "--prime", "4")
    assert rc == EXIT_USAGE
    assert "not a prime" in capfd.readouterr().err


def test_prime_must_divide_the_order(capfd):
    rc = verify("--group", "builtin:D8", "--prime", "7")
    assert rc == EXIT_USAGE
    assert "divide" in capfd.readouterr().err


def test_a_composite_p_above_the_order_cap_is_not_called_a_prime(capfd):
    # 25 exceeds the cap, so it is not trial divided and never shown prime
    rc = verify("--group", "builtin:D8", "--prime", "25", "--max-order", "10")
    assert rc == EXIT_USAGE
    err = capfd.readouterr().err
    assert "25 does not divide the group order 8" in err
    assert "prime" not in err


def test_a_prime_above_the_order_cap_is_not_trial_divided(tmp_path):
    # 2^61 - 1 is prime, and trial division up to its square root takes
    # minutes; such a p divides no group order under the cap, and the run
    # stops before it enumerates (and caches) a lattice
    proc = _run_module("-m", "sclab.cli", "verify", "--group", "builtin:S3",
                       "--prime", str(2 ** 61 - 1), "--cache", str(tmp_path),
                       timeout=10)
    assert proc.returncode == EXIT_USAGE
    assert b"does not divide" in proc.stderr
    assert not any(tmp_path.iterdir())


def test_usage_errors(capfd):
    assert main([]) == EXIT_USAGE
    assert main(["verify"]) == EXIT_USAGE
    assert verify("--group", "builtin:D8", "--prime", "2",
                  "--suite", "everything") == EXIT_USAGE
    capfd.readouterr()


def test_help_exits_clean(capfd):
    assert main(["--help"]) == 0
    assert "verify" in capfd.readouterr().out


def test_unknown_builtin(capfd):
    rc = verify("--group", "builtin:E8", "--prime", "2")
    assert rc == EXIT_UNKNOWN_BUILTIN
    # the error names what would have worked
    assert "D8" in capfd.readouterr().err


def test_group_file_parse_error(tmp_path, capfd):
    bad = tmp_path / "bad.grp"
    bad.write_text("degree 4\ngen (0 1\n")
    rc = verify("--group", str(bad), "--prime", "2")
    assert rc == EXIT_PARSE
    err = capfd.readouterr().err
    # positions render as path:line:column
    assert "bad.grp:2:" in err


def test_order_cap(capfd):
    rc = verify("--group", "builtin:S5", "--prime", "2", "--max-order", "10")
    assert rc == EXIT_CAP
    assert "cap" in capfd.readouterr().err


def test_simplex_cap(capfd):
    rc = verify("--group", "builtin:D8", "--prime", "2",
                "--suite", "table31", "--max-simplices", "1")
    assert rc == EXIT_CAP
    capfd.readouterr()


@pytest.mark.parametrize("flag,cap,value", [
    ("--max-order", "max_order", "-3"),
    ("--max-simplices", "max_simplices", "-1"),
])
def test_negative_caps_are_usage_errors(flag, cap, value, capfd):
    rc = verify("--group", "builtin:S3", "--prime", "2", flag, value)
    assert rc == EXIT_USAGE
    assert f"{cap} must be at least 0, got {value}" in capfd.readouterr().err


def test_zero_simplex_cap_is_legal(capfd):
    # the inclusion chains build no complex, so a cap of 0 is reachable
    assert verify("--group", "builtin:S3", "--prime", "2", "--suite",
                  "inclusions", "--max-simplices", "0") == 0
    capfd.readouterr()


def test_simplex_cap_bounds_the_nerve_of_the_core(tmp_path, capfd):
    # the tilde-S nerve of S5 at 2 has more than 100 simplices, but its
    # beat-point core has 5 points, and homology is taken on the core
    reports = {}
    for cap in ("100", "500000"):
        path = tmp_path / f"{cap}.json"
        assert verify("--group", "builtin:S5", "--prime", "2",
                      "--max-simplices", cap, "--report", str(path)) == 0
        reports[cap] = json.loads(path.read_bytes())
    assert reports["100"]["plan"].pop("max_simplices") == 100
    assert reports["500000"]["plan"].pop("max_simplices") == 500000
    assert reports["100"] == reports["500000"]
    capfd.readouterr()


def test_main_reuses_one_parser_without_carrying_options(monkeypatch,
                                                          capfdbinary):
    plans = []
    monkeypatch.setattr(sclab.cli, "run",
                        lambda plan: plans.append(plan) or sclab.runner.run(plan))
    assert verify("--group", "builtin:Zn:2", "--prime", "2", "--suite",
                  "inclusions", "--strict", "--max-simplices", "7") == 0
    assert verify("--group", "builtin:Zn:2", "--prime", "2") == 0
    assert sclab.cli._parser() is sclab.cli._parser()
    assert (plans[0].suite, plans[0].strict, plans[0].max_simplices) == (
        "inclusions", True, 7)
    assert (plans[1].suite, plans[1].strict, plans[1].max_simplices) == (
        "all", False, 500000)
    capfdbinary.readouterr()


def test_missing_group_file(tmp_path, capfd):
    rc = verify("--group", str(tmp_path / "nope.grp"), "--prime", "2")
    assert rc == EXIT_IO
    capfd.readouterr()


def test_unwritable_report_path(tmp_path, capfd):
    rc = verify("--group", "builtin:D8", "--prime", "2",
                "--suite", "inclusions",
                "--report", str(tmp_path / "no-such-dir" / "x.json"))
    assert rc == EXIT_IO
    assert "cannot write report" in capfd.readouterr().err


def test_parser_defaults():
    args = build_parser().parse_args(
        ["verify", "--group", "builtin:D8", "--prime", "2"])
    assert args.suite == "all"
    assert args.format == "json"
    assert args.cache is None
    assert not args.strict


def _run_module(*flags_and_args, timeout=None):
    # the child finds the package where this process found it
    src = Path(sclab.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, *flags_and_args],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        timeout=timeout)


def test_module_entry_point():
    proc = _run_module("-m", "sclab.cli", "verify", "--group", "builtin:D8",
                       "--prime", "2", "--suite", "inclusions")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["summary"]["chain_violations"] == 0


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # both weigh on the start-up of every run
    proc = _run_module("-c", "import sys, sclab.cli; print(sorted("
                       "{'dataclasses', 'inspect'} & sys.modules.keys()))")
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.strip() == b"[]"


def test_golden_d8_table31_under_optimize():
    proc = _run_module("-O", "-m", "sclab.cli", "verify", "--group",
                       "builtin:D8", "--prime", "2", "--suite", "table31")
    assert proc.returncode == 0, proc.stderr.decode()
    assert_golden(proc.stdout)


def test_z2_4_report_is_pinned(tmp_path):
    report = tmp_path / "z2_4.json"
    assert verify("--group", str(DATA / "z2_4.grp"), "--prime", "2",
                  "--report", str(report)) == 0
    assert sha256(report.read_bytes()) == Z2_4_P2_SHA256


def test_psl27_report_is_pinned(tmp_path):
    report = tmp_path / "psl27.json"
    assert verify("--group", str(DATA / "psl27.grp"), "--prime", "2",
                  "--report", str(report)) == 0
    assert sha256(report.read_bytes()) == PSL27_P2_SHA256


def test_a4wrz2_report_is_pinned(tmp_path):
    report = tmp_path / "a4wrz2.json"
    assert verify("--group", str(DATA / "a4wrz2.grp"), "--prime", "2",
                  "--report", str(report)) == 0
    assert sha256(report.read_bytes()) == A4WRZ2_P2_SHA256


def test_d8xz2_report_is_pinned(tmp_path):
    report = tmp_path / "d8xz2.json"
    assert verify("--group", str(DATA / "d8xz2.grp"), "--prime", "2",
                  "--report", str(report)) == 0
    assert sha256(report.read_bytes()) == D8XZ2_P2_SHA256


@pytest.mark.parametrize("name", ["d8xd8", "z2_5"])
def test_large_reports_match_the_frontier_pins(tmp_path, name):
    # 0.24-0.36 MB reports, 0.75 MB as sclab-report/4, where edges share
    # the most evidence; the pins are the ones tests/frontier.py checks
    report = tmp_path / f"{name}.json"
    assert verify("--group", str(DATA / f"{name}.grp"), "--prime", "2",
                  "--report", str(report)) == 0
    assert sha256(report.read_bytes()) == PINS[name]


def _raises_assertion_error(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_package_has_no_assert_statements():
    # python -O strips assert statements, and with them any check they make;
    # an internal fault raises InternalInconsistency, not AssertionError
    package = Path(sclab.__file__).resolve().parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)
             or isinstance(node, ast.Raise) and node.exc is not None
             and _raises_assertion_error(node)]
    assert found == []


def test_verdict_methods_match_the_report_schema():
    # the method strings a Verdict can carry are exactly those the Verdict
    # block of docs/REPORT_SCHEMA.md lists
    package = Path(sclab.__file__).resolve().parent
    used = {ast.literal_eval(node.args[1])
            for path in sorted(package.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "Verdict"}
    schema = (Path(__file__).parent.parent / "docs"
              / "REPORT_SCHEMA.md").read_text()
    block = schema.split("\nVerdict ", 1)[1].split("```")[1]
    methods = block.split('"method":', 1)[1].split('"equivariant":', 1)[0]
    assert used == set(re.findall(r'"([^"]+)"', methods))


def _certificates(value):
    if isinstance(value, dict):
        if isinstance(value.get("certificate"), dict):
            yield value["certificate"]
        for v in value.values():
            yield from _certificates(v)
    elif isinstance(value, list):
        for v in value:
            yield from _certificates(v)


def _schema_certificate_keys() -> dict:
    """kind -> the keys of the docs/REPORT_SCHEMA.md block that starts with
    that certificate kind."""
    schema = (Path(__file__).parent.parent / "docs"
              / "REPORT_SCHEMA.md").read_text()
    blocks = {}
    for block in schema.split("```")[1::2]:
        kind = re.match(r'\s*\{"kind": "([a-z]+)"', block)
        if kind:
            blocks[kind[1]] = set(re.findall(r'"([a-z0-9_]+)":', block))
    return blocks


def test_certificate_keys_match_the_report_schema(capfdbinary):
    # each certificate kind in a D8 report has exactly the keys of the
    # schema block of that kind
    assert verify("--group", "builtin:D8", "--prime", "2") == 0
    report = json.loads(capfdbinary.readouterr().out)
    blocks = _schema_certificate_keys()
    keys = {}
    for cert in _certificates(report):
        keys.setdefault(cert["kind"], set()).add(frozenset(cert))
    assert set(keys) == {"core", "retraction"}
    for kind, found in keys.items():
        assert found == {frozenset(blocks[kind])}, kind


def test_homology_certificate_keys_match_the_report_schema():
    # no builtin report holds a homology certificate: the core settles
    # every poset there; the circle, two points and the dunce hat reach
    # each verdict that carries one
    two_points = relation_poset(("x", "y"), lambda a, b: a == b)
    verdicts = [contractibility_verdict(poset).to_json() for poset in
                (TRIANGLE_RIM, two_points, face_poset(DUNCE_FACETS))]
    assert [v["method"] for v in verdicts] == ["homology", "disconnected",
                                               "pi1"]
    assert [v["certificate"]["pi1_trivial"] for v in verdicts] == [
        None, None, True]
    keys = _schema_certificate_keys()["homology"]
    assert all(set(v["certificate"]) == keys for v in verdicts)


def test_a_finished_run_frees_its_group_without_the_collector(monkeypatch,
                                                              tmp_path):
    # a reference cycle would keep the group, its tables and its lattice
    # alive until a full garbage-collector pass
    groups = []
    load = sclab.runner.load_group

    def spy(*args, **kwargs):
        group = load(*args, **kwargs)
        groups.append(weakref.ref(group))
        return group

    monkeypatch.setattr("sclab.runner.load_group", spy)
    gc.disable()
    try:
        assert verify("--group", "builtin:S4", "--prime", "2",
                      "--report", str(tmp_path / "r.json")) == 0
        assert len(groups) == 1 and groups[0]() is None
    finally:
        gc.enable()


def test_exit_code_constants_are_distinct():
    codes = {EXIT_USAGE, EXIT_PARSE, EXIT_UNKNOWN_BUILTIN, EXIT_CAP,
             EXIT_IO, EXIT_INTERNAL}
    assert len(codes) == 6
    assert not codes & {0, 1, 2}


@pytest.mark.parametrize("fault", [AssertionError("forced"),
                                   ValueError("forced")])
def test_internal_faults_exit_internal(monkeypatch, capfd, fault):
    def broken_run(plan):
        raise fault

    monkeypatch.setattr("sclab.cli.run", broken_run)
    rc = verify("--group", "builtin:D8", "--prime", "2")
    assert rc == EXIT_INTERNAL
    assert "internal error" in capfd.readouterr().err
