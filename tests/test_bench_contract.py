"""The benchmark's traced path runs against the current program: the names
it reads (`t.base`, `st.final.base`, `base_entries`, `OversizeSubbase`) and
the counters it records must survive any change to the program, or the
traced benchmark breaks."""

import sys
from pathlib import Path

import pytest

from esakia import documents
from esakia.errors import OversizeSubbase

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracing import Tracer  # noqa: E402
from workloads import RootSystems, VerifyTrees  # noqa: E402


def traced_item(work, text: str, meta: dict) -> Tracer:
    tr = Tracer()
    tr.call("item", work.item, tr, text, meta)
    return tr


def test_root_systems_accepted_item():
    work = RootSystems(0, 0)
    text, meta = work.draw()
    assert documents.parse_poset(text).n <= 11
    tr = traced_item(work, text, meta)
    assert tr.counters["topology.base_sets"] > 0
    assert tr.counters["constructions.root_subbase.sets"] > 0


def test_root_systems_refused_fan():
    work = RootSystems(0, 0)
    text = documents.emit_poset(work.make("fan", 12, 0))
    tr = Tracer()
    with pytest.raises(OversizeSubbase):
        tr.call("item", work.item, tr, text, {"slot": "fan-12", "seed": 0})
    assert tr.counters["constructions.root_topology_check.failed.OversizeSubbase"] == 1


def test_verify_trees_nine_point_item():
    work = VerifyTrees(0, 0)
    text, meta = work.draw()
    assert meta["slot"].startswith("bushy-9")
    tr = traced_item(work, text, meta)
    assert tr.counters["topology.base_sets"] > 0
    assert tr.counters["constructions.staged_topology.base_sets"] > 0
