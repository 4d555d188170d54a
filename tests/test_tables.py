"""Edge checks for the two comparison tables, chains, and counterexamples.

The dihedral group of order 8 exercises the dotted counterexamples; the
symmetric group on 4 letters has three Sylow 2-subgroups and so drives
the second-Sylow consistency check on dashed edges.
"""

import itertools
from pathlib import Path

import pytest

from sclab.cli import EXIT_INTERNAL, main
from sclab.collections import CollectionContext, collection_context
from sclab.contract import verify_certificate
from sclab.equivalence import (
    CERTIFIED,
    HOMOLOGY_CONSISTENT,
    MISMATCH,
    PASS,
    FixedPointScan,
    InclusionResult,
    _lattice_retraction,
    fixed_point_equivalence_scan,
    verify_inclusion_equivalence,
)
from sclab.errors import InternalInconsistency, SizeCap
from sclab.group import builtin_group, load_group, positions
from sclab.homology import HomologyProfile, homology
from sclab.lattice import enumerate_subgroups
from sclab.poset import DEFAULT_SIMPLEX_CAP
from sclab.report import CITED, cite_evidence
from sclab.runner import VerificationPlan, run
from sclab.tables import (
    SKIPPED,
    TABLE31,
    TABLE31_EDGES,
    TABLE44,
    TABLE44_EDGES,
    _check_edge,
    _cut,
    _d8_subgroup,
    _keep,
    _expectation_holds,
    _squash,
    counterexample_edges,
    is_dihedral8,
    table_edges,
    verify_counterexamples,
    verify_inclusion_chains,
    verify_table_edges,
)

from _suite import SUITE, lattice_of, relation_poset

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def d8():
    return enumerate_subgroups(builtin_group("D8"))


@pytest.fixture(scope="module")
def s4():
    return enumerate_subgroups(builtin_group("S4"))


# --------------------------------------------------------------- the grids


def test_edge_literals_are_wellformed():
    for spec in TABLE31_EDGES + TABLE44_EDGES:
        assert spec.style in ("solid", "dashed", "dotted")
        assert 1 <= len(spec.kinds) <= 2
        # vertical edges (one kind) sit between rows
        if len(spec.kinds) == 1:
            assert "|" in spec.row
        if spec.counterexample:
            assert spec.style == "dotted"
    assert len(TABLE31_EDGES) == 17
    assert len(TABLE44_EDGES) == 12


def test_edge_id_format():
    spec = TABLE31_EDGES[0]
    assert spec.edge_id == "table31:EO:E--tilde-A"
    vertical = next(s for s in TABLE31_EDGES if len(s.kinds) == 1)
    assert vertical.edge_id.count("--") == 0


def test_table_edges_lookup():
    assert table_edges(TABLE31) is TABLE31_EDGES
    assert table_edges(TABLE44) is TABLE44_EDGES
    with pytest.raises(ValueError):
        table_edges("table99")


def test_full_grid_on_dihedral_8(d8):
    for table, expect_certified in ((TABLE31, 11), (TABLE44, 8)):
        results = verify_table_edges(d8, 2, table)
        assert [r.spec for r in results] == list(table_edges(table))
        by_status = {}
        for r in results:
            by_status.setdefault(r.status, []).append(r)
        assert len(by_status.get(CERTIFIED, [])) == expect_certified
        solid_or_dashed = [r for r in results if r.spec.style != "dotted"]
        assert all(r.status == CERTIFIED for r in solid_or_dashed)
        dotted = [r for r in results if r.spec.style == "dotted"]
        assert all(r.status == HOMOLOGY_CONSISTENT for r in dotted)


def test_each_nerve_homology_is_computed_once_per_run(monkeypatch):
    # a fresh lattice: the shared fixtures' contexts already hold profiles
    lat = enumerate_subgroups(builtin_group("S4"))
    ctx = collection_context(lat, 2)
    computed = []

    def counting_homology(complex_):
        computed.append(complex_.size())
        return homology(complex_)

    monkeypatch.setattr("sclab.tables.homology", counting_homology)
    verify_table_edges(lat, 2, TABLE31)
    verify_table_edges(lat, 2, TABLE44)
    verify_counterexamples(lat, 2)
    kinds = {k for spec in TABLE31_EDGES + TABLE44_EDGES for k in spec.kinds}
    nerves = {ctx.collection(k).mask for k in kinds}
    assert len(kinds) == 7
    assert len(computed) == len(nerves) == 4

    # a profile computed under one cap does not stand in for a smaller one
    with pytest.raises(SizeCap):
        verify_table_edges(lat, 2, TABLE31, max_simplices=max(computed) - 1)


def test_a_certified_edge_whose_nerves_differ_is_an_engine_fault(
        monkeypatch):
    # every nerve gets a homology of its own, so the first CERTIFIED solid
    # edge, a proof that its two nerves are homotopy equivalent, finds them
    # different: the engine contradicts itself, which is no MISMATCH
    lat = enumerate_subgroups(builtin_group("D8"))
    calls = itertools.count(1)
    monkeypatch.setattr("sclab.tables.homology", lambda complex_:
                        HomologyProfile((next(calls),), (), 0))
    with pytest.raises(InternalInconsistency, match="certified but its"):
        verify_table_edges(lat, 2, TABLE31)
    # a run stops with the internal-error code, not the MISMATCH one
    assert main(["verify", "--group", "builtin:D8", "--prime", "2",
                 "--suite", TABLE31]) == EXIT_INTERNAL


def test_one_fiber_check_per_centralizer(monkeypatch):
    # S5 at p = 2: 19 classes of subgroups, 12 distinct centralizers, and 8
    # distinct pairs of lower sets below them; the Table 4.4 spec has the
    # same collections and reuses every check of the Table 3.1 spec
    lat = enumerate_subgroups(builtin_group("S5"))
    ctx = collection_context(lat, 2)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return verify_inclusion_equivalence(*args, **kwargs)

    monkeypatch.setattr("sclab.tables.verify_inclusion_equivalence", counting)
    specs = [s for s in TABLE31_EDGES + TABLE44_EDGES
             if s.checker == "fibers-by-centralizer"]
    assert len(specs) == 2
    centralizers = {lat.centralizer(h) for h in lat.class_representatives()}
    assert len(centralizers) == 12
    for spec in specs:
        left, right = map(ctx.collection, spec.kinds)
        pairs = {(left.below(c).mask, right.below(c).mask)
                 for c in centralizers}
        result = _check_edge(ctx, spec, DEFAULT_SIMPLEX_CAP)
        rows = result.detail["per_centralizer"]
        assert len(rows) == len(lat.class_masks) == 19
        assert [r["subgroup"] for r in rows] == list(
            lat.class_representatives())
    assert len(pairs) == 8
    assert len(calls) == 8
    assert {(sub.mask, ambient.mask) for sub, ambient, _ in calls} == pairs


def test_d8_reproduces_every_documented_counterexample(d8):
    results = verify_counterexamples(d8, 2)
    assert len(results) == len(counterexample_edges())
    for r in results:
        cx = r.detail["counterexample"]
        assert cx["reproduced"], r.spec.edge_id
        assert cx["subgroup_token"] in ("V4", "Z4")
        # reproduced counterexamples do not downgrade the dotted verdict
        assert r.status == HOMOLOGY_CONSISTENT


def test_counterexamples_only_apply_to_dihedral_8(s4):
    assert verify_counterexamples(s4, 2) == []


def test_gated_edges_record_what_held(d8):
    results = verify_table_edges(d8, 2, TABLE44)
    prune = next(r for r in results if r.spec.checker == "prune")
    assert prune.spec.conditions == ("Cl", "Ch", "M")
    assert prune.detail["holding"] == ["Cl", "Ch", "M"]
    assert set(prune.detail["conditions"]) == {"Cl", "Ch", "M"}
    # a gated dashed edge that runs records its conditions, not what held
    dashed = [r for r in results if r.spec.style == "dashed"]
    assert dashed
    for r in dashed:
        assert r.status == CERTIFIED
        assert set(r.detail["conditions"]) == set(r.spec.conditions)
        assert "holding" not in r.detail


def test_gating_with_partial_conditions():
    # local characteristic fails here, so only the other two can gate
    lat = enumerate_subgroups(builtin_group("D12"))
    results = verify_table_edges(lat, 2, TABLE44)
    prune = next(r for r in results if r.spec.checker == "prune")
    assert prune.detail["holding"] == ["Cl", "M"]
    assert prune.status == CERTIFIED
    assert not prune.detail["conditions"]["Ch"]["holds"]


def test_retractions_name_the_cut():
    """Every dashed-scan row certified by a retraction, on every suite
    plan, names the side and subgroup of the row's cut at its subgroup:
    q -> q v h on the EO side, q -> q ^ C_G(h) on the EA side. A row that
    the scan grades past the retraction is one where that cut's
    retraction leaves the avatar."""
    sides = set()
    for name, p in SUITE:
        lat = lattice_of(name)
        ctx = collection_context(lat, p)
        for table in (TABLE31, TABLE44):
            for r in verify_table_edges(lat, p, table):
                if r.spec.style != "dashed" or r.status == SKIPPED:
                    continue
                poset = ctx.collection(r.spec.kinds[0])
                for row in r.detail["scan"]["per_subgroup"]:
                    h = row["subgroup"]
                    side, k = _cut(lat, r.spec.row, h)
                    tag = (name, p, r.spec.edge_id, h)
                    if row["method"] == "retraction":
                        assert row["certificate"] == {
                            "kind": "retraction", "side": side,
                            "subgroup": k}, tag
                        sides.add(side)
                    elif row["method"] not in ("equal", "emptiness"):
                        right = poset.fixed_points(h)
                        left = _keep(poset, side, k)
                        image = _lattice_retraction(right, left.mask, side, k)
                        assert image is None, tag
    assert sides == {">=", "<="}


# test-data inputs at each prime the class-agreement test checks
CLASS_PLANS = (("d8xz2", 2), ("a4wrz2", 2), ("a4wrz2", 3), ("psl27", 2),
               ("psl27", 3))


@pytest.mark.parametrize("name,p", [*SUITE, *CLASS_PLANS])
def test_one_scan_row_per_class_decides_every_subgroup(name, p):
    """A dashed scan keeps one row per conjugacy class, at the lowest
    subgroup of the first Sylow group in it. Scanning every subgroup of
    that Sylow group, each member of a class gives the order, status,
    method and detail of the row kept for its class."""
    lat = (lattice_of(name) if (name, p) in SUITE else
           enumerate_subgroups(load_group(str(DATA / f"{name}.grp"))))
    ctx = collection_context(lat, p)
    sylow = lat.sylow(p)[0]
    every = list(positions(lat.order.down[sylow] | 1 << sylow))
    scanned = 0
    for spec in TABLE31_EDGES + TABLE44_EDGES:
        if spec.style != "dashed":
            continue
        result = _check_edge(ctx, spec, DEFAULT_SIMPLEX_CAP)
        if result.status == SKIPPED:
            continue
        kept = {lat.class_of[row["subgroup"]]: row
                for row in result.detail["scan"]["per_subgroup"]}
        poset = ctx.collection(spec.kinds[0])
        cut = lambda h: _cut(lat, spec.row, h)
        full = fixed_point_equivalence_scan(
            lat, every, lambda h: _keep(poset, *cut(h)), poset.fixed_points,
            retraction=cut)
        assert len(kept) == len(result.detail["scan"]["per_subgroup"])
        assert set(kept) == {lat.class_of[h] for h in every}
        for c in full.per_subgroup:
            row = kept[lat.class_of[c.subgroup]]
            assert row["subgroup"] <= c.subgroup
            assert (c.order, c.status, c.method, c.detail) == (
                row["order"], row["status"], row["method"], row["detail"]), (
                name, p, spec.edge_id, c.subgroup)
        scanned += len(full.per_subgroup)
    assert scanned


def test_second_sylow_spot_check_fires(s4):
    results = verify_table_edges(s4, 2, TABLE31)
    dashed = [r for r in results if r.spec.style == "dashed"]
    assert dashed
    for r in dashed:
        spot = r.detail["second_sylow"]
        assert spot == {"subgroup": s4.sylow(2)[1],
                        "status": r.detail["scan"]["status"]}


def test_single_sylow_groups_skip_the_spot_check(d8):
    results = verify_table_edges(d8, 2, TABLE31)
    dashed = [r for r in results if r.spec.style == "dashed"]
    assert dashed
    assert all("second_sylow" not in r.detail for r in dashed)


def test_edge_result_to_json(d8):
    results = verify_table_edges(d8, 2, TABLE44)
    js = results[0].to_json()
    assert js["edge"] == results[0].spec.edge_id
    assert js["table"] == TABLE44
    assert js["status"] == results[0].status
    assert isinstance(js["kinds"], list)
    assert isinstance(js["conditions"], list)


def test_a_second_sylow_that_disagrees_is_an_engine_fault(s4):
    """Conjugate Sylow groups give the same rows, so a context that
    remembers an empty scan for the second one must stop the edge as an
    internal inconsistency, not grade it MISMATCH."""
    ctx = CollectionContext(s4, 2)
    spec = next(s for s in TABLE31_EDGES if s.checker == "eo-scan")
    second = s4.sylow(2)[1]
    poset = ctx.collection(spec.kinds[0])
    ctx.memo[spec.checker, poset.mask, second, DEFAULT_SIMPLEX_CAP] = (
        FixedPointScan(()))
    with pytest.raises(InternalInconsistency, match="two conjugate Sylow"):
        _check_edge(ctx, spec, DEFAULT_SIMPLEX_CAP)


def test_a_run_whose_second_sylow_disagrees_exits_internal(monkeypatch,
                                                           tmp_path, capfd):
    # the scan of every Sylow group but the first comes back empty
    def disagreeing(lattice, subgroups, left_of, right_of, **kw):
        sylow = max(subgroups, key=lattice.sizes.__getitem__)
        if sylow != lattice.sylow(2)[0]:
            return FixedPointScan(())
        return fixed_point_equivalence_scan(lattice, subgroups, left_of,
                                            right_of, **kw)

    monkeypatch.setattr("sclab.tables.fixed_point_equivalence_scan",
                        disagreeing)
    target = tmp_path / "s4.json"
    assert main(["verify", "--group", "builtin:S4", "--prime", "2",
                 "--report", str(target)]) == EXIT_INTERNAL
    assert "internal error" in capfd.readouterr().err
    assert not target.exists()


def test_a_counterexample_not_reproduced_is_a_mismatch(d8):
    """The documented counterexamples all reproduce; an edge expecting
    the opposite at V4 must grade MISMATCH and show what it observed."""
    spec = TABLE31_EDGES[0]._replace(counterexample=("V4", "point", "empty"))
    result = _check_edge(collection_context(d8, 2), spec, DEFAULT_SIMPLEX_CAP)
    assert result.status == MISMATCH
    assert result.detail["h1_homology"]["agree"]
    assert result.detail["counterexample"] == {
        "subgroup": _d8_subgroup(d8, "V4"), "subgroup_token": "V4",
        "expected": {"left": "point", "right": "empty"},
        "observed": {"left": {"size": 0}, "right": {"size": 1}},
        "reproduced": False}


# ------------------------------------------------------- skipped machinery


class RefusingContext:
    """Wraps a real context but reports every condition as failing."""

    def __init__(self, real):
        self._real = real
        self.lattice = real.lattice
        self.p = real.p
        self.memo = real.memo

    def condition(self, name):
        return {"condition": name, "holds": False,
                "witnesses": [{"forced": True}], "detail": "forced failure"}

    def collection(self, kind):
        return self._real.collection(kind)


def test_solid_edges_skip_when_no_condition_holds(d8):
    ctx = RefusingContext(collection_context(d8, 2))
    specs = table_edges(TABLE44)
    gated = [s for s in specs if s.style == "solid" and s.conditions]
    assert gated
    for spec in gated:
        result = _check_edge(ctx, spec, 10_000)
        assert result.status == SKIPPED
        assert result.detail["note"] == "no gating condition holds"
        for name in spec.conditions:
            report = result.detail["conditions"][name]
            assert report["holds"] is False
            assert report["witnesses"] == [{"forced": True}]


def test_dashed_edges_skip_when_no_condition_holds(d8):
    ctx = RefusingContext(collection_context(d8, 2))
    specs = table_edges(TABLE44)
    gated = [s for s in specs if s.style == "dashed"]
    assert gated
    for spec in gated:
        result = _check_edge(ctx, spec, 10_000)
        assert result.status == SKIPPED
        assert "scan" not in result.detail
        assert "holding" not in result.detail


def test_ungated_edges_never_skip(d8):
    # an edge without condition tags must run even if every condition fails
    ctx = RefusingContext(collection_context(d8, 2))
    specs = table_edges(TABLE31)
    free = next(s for s in specs if s.checker == "prune" and not s.conditions)
    result = _check_edge(ctx, free, 10_000)
    assert result.status == CERTIFIED


def test_only_hypothesis_tagged_edges_can_skip(d8):
    # the skip branch is reachable exactly where conditions are declared
    for table in (TABLE31, TABLE44):
        for r in verify_table_edges(d8, 2, table):
            if not r.spec.conditions:
                assert r.status != SKIPPED


# ------------------------------------------------------ pruning certificates


def test_pruning_certifies_without_local_characteristic():
    """The hat pruning hypothesis certifies without any paper-shaped map,
    also where local characteristic fails (D12, S4), with and without
    equivariance and with core certificates that replay."""
    for name in ("D8", "D12", "S4"):
        lat = enumerate_subgroups(builtin_group(name))
        ctx = collection_context(lat, 2)
        sub = ctx.collection("hat-B")
        ambient = ctx.collection("hat-S")
        for equivariant in (False, True):
            res = verify_inclusion_equivalence(sub, ambient, "upper",
                                               equivariant=equivariant)
            assert res.outcome == PASS, (name, equivariant)
            for y, stab, verdict in res.per_element:
                assert verdict.method == "core", (name, equivariant, y)
                assert verify_certificate(ambient.above(y, strict=True),
                                          verdict, equivariant_under=stab)


# the test-data inputs whose full runs tier-1 already makes at p = 2
DATA_PLANS = ("d8xz2", "a4wrz2", "z2_4", "psl27", "d8xd8", "z2_5")


@pytest.mark.parametrize("name,p", [*SUITE, *((n, 2) for n in DATA_PLANS)])
def test_each_pruning_pair_runs_one_upper_check(name, p):
    """The EO and C pruning edges of a pair cite one upper check, run with
    equivariance demanded. The EO edge claims no equivariance, and grades
    as the plain check of that pair would: the same elements with the
    same statuses, and the squashed outcome of the plain check."""
    lat = (lattice_of(name) if name not in DATA_PLANS else
           enumerate_subgroups(load_group(str(DATA / f"{name}.grp"))))
    ctx = collection_context(lat, p)
    prunes = [_check_edge(ctx, spec, DEFAULT_SIMPLEX_CAP)
              for spec in TABLE31_EDGES + TABLE44_EDGES
              if spec.checker == "prune"]
    assert [r.spec.row for r in prunes] == ["EO", "C"] * 2
    for eo, c in zip(prunes[::2], prunes[1::2]):
        assert eo.spec.kinds == c.spec.kinds
        if eo.status == SKIPPED:
            assert c.status == SKIPPED
            continue
        shared = eo.detail["inclusion"]
        assert c.detail["inclusion"] is shared
        assert shared["mode"] == "upper"
        assert all(stab is not None for _, stab, _ in shared["per_element"])
        sub, ambient = map(ctx.collection, eo.spec.kinds[::-1])
        plain = verify_inclusion_equivalence(sub, ambient, "upper",
                                             equivariant=False)
        assert eo.status == _squash(plain.outcome), (name, eo.spec.edge_id)
        assert [(y, v.status) for y, _, v in plain.per_element] == [
            (y, v["status"]) for y, _, v in shared["per_element"]]


# ----------------------------------------------------------- small helpers


def test_dihedral_8_recognizer():
    assert is_dihedral8(builtin_group("D8"))
    assert not is_dihedral8(builtin_group("Q8"))
    assert not is_dihedral8(builtin_group("Zn:8"))
    assert not is_dihedral8(builtin_group("S4"))


def test_d8_subgroup_tokens(d8):
    v4 = _d8_subgroup(d8, "V4")
    z4 = _d8_subgroup(d8, "Z4")
    assert d8.sizes[v4] == d8.sizes[z4] == 4
    assert d8.is_elementary_abelian(v4, 2)
    assert not d8.is_elementary_abelian(z4, 2)


def test_expectation_tokens(d8):
    chain = relation_poset((1, 2), lambda a, b: a <= b)
    point = relation_poset((1,), lambda a, b: True)
    empty = relation_poset((), lambda a, b: True)
    assert _expectation_holds(empty, "empty", 100)[0]
    assert not _expectation_holds(point, "empty", 100)[0]
    assert _expectation_holds(point, "point", 100)[0]
    ok, observed = _expectation_holds(chain, "edge", 100)
    assert ok and observed["counts"] == [2, 1]
    ok, observed = _expectation_holds(chain, "contractible", 100)
    assert ok and observed["verdict"] == "CONTRACTIBLE"
    with pytest.raises(ValueError):
        _expectation_holds(point, "tetrahedron", 100)


# ------------------------------------------------------------------ chains


def test_inclusion_chains_hold_everywhere(d8, s4):
    for lat, p in ((d8, 2), (s4, 2), (s4, 3)):
        rows = verify_inclusion_chains(lat, p)
        assert len(rows) == 11
        for row in rows:
            assert row["holds"], row
            assert row["violations"] == []


def test_chain_rows_name_their_pairs(d8):
    rows = verify_inclusion_chains(d8, 2)
    pairs = {(row["smaller"], row["larger"]) for row in rows}
    assert ("D", "Bcen") in pairs
    assert ("hat-S", "tilde-S") in pairs
    assert ("E", "tilde-A") in pairs


# ----------------------------------------------------------- the run memo


def test_each_edge_check_runs_once_per_run(monkeypatch):
    """A full S5 run at 2 checks each inclusion and scans each (checker,
    poset, Sylow) once: Table 4.4 has Table 3.1's collections, the EO and C
    pruning edges of a pair share one upper check, and the second-Sylow
    spot checks repeat scans as well."""
    inclusions, scans = [], []

    def counting_inclusion(sub, ambient, mode, **kw):
        inclusions.append((sub.mask, ambient.mask, mode,
                           kw.get("equivariant"), kw["max_simplices"]))
        return verify_inclusion_equivalence(sub, ambient, mode, **kw)

    def counting_scan(lattice, subgroups, left_of, right_of, **kw):
        # the trivial subgroup fixes the whole poset; the Sylow group is
        # the largest one scanned; the side of the retraction names the row
        trivial = min(subgroups, key=lattice.sizes.__getitem__)
        sylow = max(subgroups, key=lattice.sizes.__getitem__)
        scans.append((kw["retraction"](trivial)[0],
                      right_of(trivial).mask, sylow,
                      kw["max_simplices"]))
        return fixed_point_equivalence_scan(lattice, subgroups, left_of,
                                            right_of, **kw)

    monkeypatch.setattr("sclab.tables.verify_inclusion_equivalence",
                        counting_inclusion)
    monkeypatch.setattr("sclab.tables.fixed_point_equivalence_scan",
                        counting_scan)
    report = run(VerificationPlan("builtin:S5", 2))
    assert report["summary"]["by_status"]["MISMATCH"] == 0
    assert len(inclusions) == len(set(inclusions)) == 12
    assert len(scans) == len(set(scans)) == 10


def test_each_piece_of_evidence_is_built_once(monkeypatch):
    """A full S5 run at 2 builds the JSON of each cited check once, and
    every edge that cites a check holds that one object, inline or through
    the report's evidence list; the checks read only inside the tables
    (fibers per centralizer, the second Sylow's scan) build none."""
    contexts, built = [], []

    def holding_context(lattice, p):
        contexts.append(collection_context(lattice, p))
        return contexts[-1]

    for cls in (InclusionResult, FixedPointScan, HomologyProfile):
        def counting(self, to_json=cls.to_json):
            built.append(self)
            return to_json(self)
        monkeypatch.setattr(cls, "to_json", counting)
    monkeypatch.setattr("sclab.tables.collection_context", holding_context)
    report = run(VerificationPlan("builtin:S5", 2))

    (memo,) = {id(ctx.memo): ctx.memo for ctx in contexts}.values()
    cited = [value for key, value in memo.items() if key[0] == "json"]
    results = [value for key, value in memo.items() if key[0] != "json"]
    assert cited
    for result in results:
        assert sum(b is result for b in built) <= 1
    assert sum(any(b is r for r in results) for b in built) == len(cited)

    citations = []
    for section in report["suites"].values():
        for edge in section.get("edges", ()):
            detail = edge["detail"]
            citations += [report["evidence"][detail[k]]
                          for k in ("inclusion", "scan") if k in detail]
            citations += [detail[k][side] for k in ("homology", "h1_homology")
                          if k in detail for side in ("left", "right")]
    assert all(any(c is e for e in cited) for c in citations)
    assert len({id(c) for c in citations}) == len(cited) < len(citations)


def test_a_report_leaves_the_edge_results_as_they_were():
    """Numbering a report's evidence rewrites the JSON of each edge, not the
    detail of the result it was built from."""
    results = verify_table_edges(lattice_of("D8"), 2, TABLE31)
    assert cite_evidence({TABLE31: {"edges": [r.to_json() for r in results]}})
    cited = [r.detail[key] for r in results for key in CITED
             if key in r.detail]
    assert cited and all(isinstance(v, (dict, list)) for v in cited)
