import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings

import esakia
from esakia import cli
from esakia.algebra import UPSET_CAP
from esakia.cli import VERIFY_ALGEBRA_CAP, run_command
from esakia.constructions import gallery, staged_topology
from esakia.documents import (
    digest,
    emit_poset,
    export_dot,
    parse_lattice,
    parse_poset,
    poset_to_document,
    topology_to_document,
)
from esakia.errors import (
    ConstructionCheckFailure,
    CycleError,
    NonHasseEdge,
    NotALattice,
    ParseError,
)
from esakia.posets import FinitePoset, has_enough_gaps, is_well_ordered, order_open_masks
from esakia.topology import PUBLIC_SUBBASE_CAP, generate_base

from conftest import posets

THEOREM_FIXED = ["enough-gaps", "well-ordered-finite", "order-open-family-is-powerset",
                 "interval-complements-order-open", "order-subcover-covers"]


class TestPosetDocuments:
    def test_parse_two_chain(self):
        p = parse_poset('{"elements":["r","a"],"covers":[["r","a"]]}')
        assert p.n == 2 and p.covers == frozenset({(0, 1)}) and p.labels == ("r", "a")

    def test_cycle_error(self):
        with pytest.raises(CycleError):
            parse_poset('{"elements":["r","a"],"covers":[["r","a"],["a","r"]]}')

    def test_non_hasse_edge(self):
        doc = {"elements": ["a", "b", "c"],
               "covers": [["a", "b"], ["b", "c"], ["a", "c"]]}
        with pytest.raises(NonHasseEdge):
            parse_poset(json.dumps(doc))

    @pytest.mark.parametrize("text", [
        "not json",
        '{"elements": "r"}',
        '{"elements": ["r"], "covers": [["r"]]}',
        '{"elements": ["r"], "covers": [["r", "q"]]}',
        '{"elements": ["r", "r"], "covers": []}',
        '{"elements": ["r"], "covers": [], "kind": "widget"}',
    ])
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_poset(text)

    @given(posets())
    @settings(max_examples=50, deadline=None)
    def test_round_trip_identity(self, p):
        assert parse_poset(emit_poset(p)) == p


class TestLatticeDocuments:
    def test_tables(self):
        lat = parse_lattice('{"meet": [[0,0],[0,1]], "join": [[0,1],[1,1]]}')
        assert lat.n == 2

    def test_join_irreducible_shorthand(self):
        doc = {"join_irreducibles": {"elements": ["a", "b"], "covers": []}}
        lat = parse_lattice(json.dumps(doc))
        assert lat.n == 4  # upsets of the 2-antichain

    def test_missing_tables(self):
        with pytest.raises(ParseError):
            parse_lattice('{"meet": [[0]]}')

    def test_boolean_table_entries(self):
        with pytest.raises(ParseError):
            parse_lattice('{"meet": [[false]], "join": [[0]]}')

    @pytest.mark.parametrize("entry", [1, -1, 2**63, 10**23, -(2**64)])
    def test_entries_out_of_range(self, entry):
        # checked on the Python ints: entries past int64 never reach numpy
        with pytest.raises(NotALattice) as err:
            parse_lattice(json.dumps({"meet": [[entry]], "join": [[0]]}))
        assert (err.value.axiom, err.value.witness) == ("range", ())


class TestTopologyDocuments:
    def test_round_trip(self, zoo):
        st = staged_topology(zoo["chain2"])
        doc = json.loads(json.dumps(topology_to_document(st.final)))
        t = generate_base([frozenset(s) for s in doc["subbase"]], doc["carrier_size"])
        assert set(t.subbase) == set(st.final.subbase)


class TestDot:
    def test_deterministic_golden(self, zoo):
        out = export_dot(zoo["chain2"])
        assert out == 'digraph poset {\n  rankdir=BT;\n  "a";\n  "r";\n  "r" -> "a";\n}\n'

    def test_single_node(self, zoo):
        assert '"0";' in export_dot(zoo["one"])

    def test_figure2_shape_renders(self):
        out = export_dot(gallery("figure2", 2))
        assert out.count("->") == 4
        assert '"inf" -> "x";' in out

    def test_topology_annotation(self, zoo):
        st = staged_topology(zoo["chain2"])
        out = export_dot(zoo["chain2"], st.final)
        assert "subbase" in out


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestCli:
    def test_check_recognizers(self, tmp_path, zoo):
        path = write(tmp_path, "v.json", emit_poset(zoo["vee"]))
        report, code = run_command(["check", path])
        assert code == 0
        assert report.data["recognizers"] == {
            "tree": True, "forest": True, "root_system": False, "well_ordered": True}

    def test_spectrum_roundtrip(self, tmp_path):
        text = '{"meet": [[0,0,0],[0,1,1],[0,1,2]], "join": [[0,1,2],[1,1,2],[2,2,2]]}'
        path = write(tmp_path, "lat.json", text)
        report, code = run_command(["spectrum", path])
        assert code == 0
        assert len(report.data["spectrum"]["elements"]) == 2

    def test_dual_emits_tables(self, tmp_path, zoo):
        path = write(tmp_path, "c2.json", emit_poset(zoo["chain2"]))
        report, code = run_command(["dual", path])
        assert code == 0 and len(report.data["lattice"]["meet"]) == 3

    def test_topologize_tree(self, tmp_path, zoo):
        path = write(tmp_path, "c2.json", emit_poset(zoo["chain2"]))
        report, code = run_command(["topologize", "--kind", "tree", path])
        assert code == 0
        names = {v.name: v.passed for v in report.verdicts}
        assert names["discrete"] and names["esakia"]

    def test_topologize_root_system(self, tmp_path, zoo):
        path = write(tmp_path, "lam.json", emit_poset(zoo["lam"]))
        report, code = run_command(["topologize", path])
        assert code == 0 and report.ok

    def test_topologize_rejects_neither(self, tmp_path):
        # 2x2 diamond with doubled middle: neither tree nor root system
        p = FinitePoset(4, frozenset({(0, 1), (0, 2), (1, 3), (2, 3)}))
        path = write(tmp_path, "d.json", emit_poset(p))
        report, code = run_command(["topologize", path])
        assert code == 1 and not report.ok

    def test_verify_ok(self, tmp_path, zoo):
        path = write(tmp_path, "v.json", emit_poset(zoo["vee"]))
        report, code = run_command(["verify", path])
        assert code == 0 and report.ok
        assert "skipped" not in report.data

    @pytest.mark.parametrize("name", ["one", "anti2", "vee", "broom"])
    def test_verify_reports_theorem_fixed_verdicts_as_constants(self, tmp_path, zoo, name):
        # the constant verdicts stand for theorems on finite carriers; the
        # functions that still compute them agree on each input
        p = zoo[name]
        report, code = run_command(["verify", write(tmp_path, "p.json", emit_poset(p))])
        assert code == 0
        fixed = [(v.name, v.passed) for v in report.verdicts if v.name in THEOREM_FIXED]
        assert fixed == [(n, True) for n in THEOREM_FIXED]
        assert has_enough_gaps(p).holds and is_well_ordered(p)
        assert order_open_masks(p) == frozenset(range(1 << p.n))

    def test_check_reports_theorem_fixed_verdicts_as_constants(self, tmp_path, zoo):
        report, code = run_command(["check", write(tmp_path, "b.json", emit_poset(zoo["broom"]))])
        assert code == 0
        assert [(v.name, v.passed) for v in report.verdicts] == [
            ("document-valid", True), ("enough-gaps", True)]
        assert report.data["recognizers"]["well_ordered"] is True

    def test_subcover_golden(self, tmp_path, zoo):
        ppath = write(tmp_path, "c2.json", emit_poset(zoo["chain2"]))
        cpath = write(tmp_path, "cov.json", json.dumps({"sets": [[0], [1]]}))
        report, code = run_command(["subcover", "--cover", cpath, ppath])
        assert code == 0
        assert report.data["selected_sets"] == [[0], [1]]

    def test_subcover_not_a_cover_exits_one(self, tmp_path, zoo):
        ppath = write(tmp_path, "c2.json", emit_poset(zoo["chain2"]))
        cpath = write(tmp_path, "cov.json", json.dumps({"sets": [[0]]}))
        report, code = run_command(["subcover", "--cover", cpath, ppath])
        assert code == 1
        assert any("NotACover" in v.detail for v in report.verdicts if not v.passed)

    @pytest.mark.parametrize("cover", [
        {"indices": 5}, {"indices": [True]}, {"indices": [0.0]}, {"indices": [9]},
        {"sets": [5]}, {"sets": 5}, {"sets": [[True]]}, {"sets": [["0"]]}, {"other": []}])
    def test_subcover_bad_cover_document_exits_two(self, tmp_path, zoo, cover):
        ppath = write(tmp_path, "c2.json", emit_poset(zoo["chain2"]))
        cpath = write(tmp_path, "cov.json", json.dumps(cover))
        report, code = run_command(["subcover", "--cover", cpath, ppath])
        assert code == 2
        assert report.verdicts[0].name == "input-readable"
        assert report.verdicts[0].detail.startswith("ParseError")

    def test_subcover_indices_golden(self, tmp_path, zoo):
        ppath = write(tmp_path, "c2.json", emit_poset(zoo["chain2"]))
        cpath = write(tmp_path, "cov.json", json.dumps({"sets": [[0], [1]]}))
        by_sets, _ = run_command(["subcover", "--cover", cpath, ppath])
        cover = by_sets.data["selected_indices"]
        cpath = write(tmp_path, "idx.json", json.dumps({"indices": cover}))
        report, code = run_command(["subcover", "--cover", cpath, ppath])
        assert code == 0 and report.data["selected_sets"] == [[0], [1]]

    def test_parse_error_exits_two(self, tmp_path):
        path = write(tmp_path, "bad.json", "{nope")
        _, code = run_command(["check", path])
        assert code == 2

    def test_missing_file_exits_two(self):
        report, code = run_command(["check", "/definitely/not/here.json"])
        assert code == 2 and report.input_digest == ""

    def test_non_utf8_file_exits_two(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"elements": ["\u00e9"], "covers": []}'.encode("latin-1"))
        report, code = run_command(["check", str(path)])
        assert code == 2 and report.input_digest == ""
        assert report.verdicts[0].name == "input-readable"
        assert "UnicodeDecodeError" in report.verdicts[0].detail

    def test_lattice_entry_past_int64_exits_one(self, tmp_path):
        path = write(tmp_path, "big.json", '{"meet": [[100000000000000000000000]], "join": [[0]]}')
        report, code = run_command(["spectrum", path])
        assert code == 1 and "NotALattice: range" in report.verdicts[0].detail

    def test_antichain_at_the_upset_cap_keeps_its_spectrum(self, tmp_path):
        # 1024 upsets, all admitted; the SHA-256 pins the report that the
        # upset algebra's lattice gives
        assert 1 << 10 <= UPSET_CAP
        doc = {"join_irreducibles": poset_to_document(FinitePoset(10, frozenset()))}
        report, code = run_command(["spectrum", write(tmp_path, "a10.json", json.dumps(doc))])
        assert code == 0
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == \
            "cc8a8ded9647fce6fc36b36274dbb096ca1e0729d03fe4a86094cd343f536919"

    @pytest.mark.parametrize("n", [14, 30])
    def test_antichain_past_the_upset_cap_is_refused_fast(self, tmp_path, n):
        p = FinitePoset(n, frozenset())
        docs_by_command = {
            "spectrum": json.dumps({"join_irreducibles": poset_to_document(p)}),
            "dual": emit_poset(p)}
        for command, text in docs_by_command.items():
            path = write(tmp_path, f"{command}.json", text)
            start = time.perf_counter()
            report, code = run_command([command, path])
            assert time.perf_counter() - start < 1.0
            assert code == 1 and report.verdicts[0].detail == \
                f"NotALattice: carrier-cap fails at ({UPSET_CAP + 1}, {UPSET_CAP})"

    def test_usage_error_exits_two(self):
        _, code = run_command(["frobnicate"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["fuzz", "--size", "0"], ["fuzz", "--count", "-1"], ["fuzz", "--size", "x"],
        ["gallery", "figure1", "0"], ["gallery", "figure2", "-3"]])
    def test_out_of_range_sizes_are_usage_errors(self, tmp_path, argv):
        report, code = run_command(argv + (["--quarantine", str(tmp_path)]
                                           if argv[0] == "fuzz" else []))
        assert code == 2
        assert report.command == "usage" and not report.ok

    def test_smallest_sizes_are_accepted(self, tmp_path):
        report, code = run_command(["fuzz", "--size", "1", "--count", "0",
                                    "--quarantine", str(tmp_path / "q")])
        assert code == 0 and report.data["count"] == 0
        _, code = run_command(["gallery", "figure1", "1"])
        assert code == 0

    def test_gallery(self):
        report, code = run_command(["gallery", "figure1", "2"])
        assert code == 0 and report.data["recognizers"]["tree"]

    def test_gallery_unknown_exits_one(self):
        report, code = run_command(["gallery", "figure7", "2"])
        assert code == 1
        assert report.input_digest == "figure7(2)"  # the success path's digest

    def test_error_report_keeps_file_digest(self, tmp_path):
        text = '{"elements":["r","a"],"covers":[["r","a"],["a","r"]]}'
        path = write(tmp_path, "cyclic.json", text)
        report, code = run_command(["verify", path])
        assert code == 2 and report.input_digest == digest(text)
        assert report.verdicts[0].name == "input-readable"

    def test_verify_reports_order_open_past_sixteen_points(self, tmp_path):
        # an N shape beside 13 isolated points: neither a tree nor a root system
        p = FinitePoset(17, frozenset({(0, 2), (1, 2), (1, 3)}))
        report, code = run_command(["verify", write(tmp_path, "n17.json", emit_poset(p))])
        assert code == 0
        verdicts = {v.name: v.passed for v in report.verdicts}
        for name in ("order-open-family-is-powerset", "interval-complements-order-open",
                     "order-subcover-covers"):
            assert verdicts[name]
        assert "double-dual-poset-canonical" not in verdicts

    def test_verify_skips_root_suite_past_the_subbase_cap(self, tmp_path):
        # the 12-point fan has 22 distinct subbase sets
        path = write(tmp_path, "fan.json", emit_poset(gallery("figure2", 9)))
        report, code = run_command(["verify", path])
        assert code == 0 and report.ok
        assert not any(v.name.startswith("root-") for v in report.verdicts)
        assert report.data["skipped"] == [
            {"suite": "duality", "cap": VERIFY_ALGEBRA_CAP,
             "detail": f"carriers above {VERIFY_ALGEBRA_CAP} points"},
            {"suite": "root", "cap": PUBLIC_SUBBASE_CAP,
             "detail": "22 subbase sets exceed the cap of 20"}]

    def test_verify_fails_root_suite_on_other_construction_errors(self, tmp_path, zoo,
                                                                   monkeypatch):
        def broken(p):
            raise ConstructionCheckFailure("root-system topology failed the Esakia checks")

        monkeypatch.setattr(cli.cons, "root_topology_check", broken)
        path = write(tmp_path, "lam.json", emit_poset(zoo["lam"]))
        report, code = run_command(["verify", path])
        assert code == 1
        failed = [v for v in report.verdicts if not v.passed]
        assert [(v.name, v.detail) for v in failed] == [
            ("root-topology-esakia", "root-system topology failed the Esakia checks")]
        assert "skipped" not in report.data

    def test_verify_skips_only_the_duality_suite_past_sixteen_points(self, tmp_path):
        p = FinitePoset(17, frozenset({(0, 2), (1, 2), (1, 3)}))
        report, code = run_command(["verify", write(tmp_path, "n17.json", emit_poset(p))])
        assert code == 0
        assert report.data["skipped"] == [
            {"suite": "duality", "cap": VERIFY_ALGEBRA_CAP,
             "detail": f"carriers above {VERIFY_ALGEBRA_CAP} points"}]

    def test_verify_round_trip_at_769_upsets(self, tmp_path):
        # the 11-point fan: 769 upsets, under the upset cap
        path = write(tmp_path, "fan.json", emit_poset(gallery("figure2", 8)))
        report, code = run_command(["verify", path])
        assert code == 0
        assert {v.name: v.passed for v in report.verdicts}["root-spectrum-roundtrip"]
        assert [s["suite"] for s in report.data["skipped"]] == ["duality"]

    @pytest.mark.parametrize("n", [11, 16])
    def test_verify_skips_the_round_trip_past_the_upset_cap(self, tmp_path, n):
        # an n-point antichain is a root system of n singleton components:
        # n subbase sets, under the subbase cap, but 2^n upsets
        path = write(tmp_path, "anti.json", emit_poset(FinitePoset(n, frozenset())))
        report, code = run_command(["verify", path])
        assert code == 0
        verdicts = {v.name: v.passed for v in report.verdicts}
        assert verdicts["root-topology-esakia"] and verdicts["root-topology-discrete"]
        assert "root-spectrum-roundtrip" not in verdicts
        assert report.data["skipped"][-1] == {
            "suite": "root-spectrum-roundtrip", "cap": UPSET_CAP,
            "detail": f"carrier-cap fails at ({UPSET_CAP + 1}, {UPSET_CAP})"}

    def test_module_entry_point(self):
        src = str(Path(esakia.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run(
            [sys.executable, "-m", "esakia.cli", "gallery", "figure2", "3"],
            capture_output=True, text=True, env=env, timeout=60)
        assert out.returncode == 0
        assert json.loads(out.stdout)["command"] == "gallery"

    def test_export_dot_with_topology(self, tmp_path, zoo):
        path = write(tmp_path, "c2.json", emit_poset(zoo["chain2"]))
        report, code = run_command(["export-dot", "--with-topology", path])
        assert code == 0 and "subbase" in report.data["dot"]

    def test_fuzz_reproducible_and_quarantine_free(self, tmp_path):
        q = str(tmp_path / "quarantine")
        r1, c1 = run_command(["fuzz", "--seed", "5", "--count", "9",
                              "--quarantine", q])
        r2, c2 = run_command(["fuzz", "--seed", "5", "--count", "9",
                              "--quarantine", q])
        assert c1 == c2 == 0
        assert r1.to_json() == r2.to_json()
        assert not os.path.exists(q)

    def test_fuzz_env_seed(self, tmp_path, monkeypatch):
        q = str(tmp_path / "q")
        monkeypatch.setenv("ESAKIA_SEED", "77")
        r1, _ = run_command(["fuzz", "--count", "3", "--quarantine", q])
        monkeypatch.setenv("ESAKIA_SEED", "78")
        r2, _ = run_command(["fuzz", "--count", "3", "--quarantine", q])
        assert r1.data["seed"] == 77 and r2.data["seed"] == 78
        assert r1.to_json() != r2.to_json()

    def test_report_json_shape(self, tmp_path, zoo):
        path = write(tmp_path, "one.json", emit_poset(zoo["one"]))
        report, _ = run_command(["check", path])
        payload = json.loads(report.to_json())
        assert set(payload) == {"command", "data", "input_digest", "ok",
                                "timings", "verdicts"}
