"""Toolkit document formats: poset/lattice/topology JSON, DOT export, and
run reports."""

import hashlib
import json
from dataclasses import dataclass, field

from .algebra import FiniteLattice, check_upset_cap, lattice_of_sets, validate_lattice
from .errors import ParseError
from .posets import FinitePoset, upsets_of
from .topology import FiniteTopology


def poset_to_document(p: FinitePoset, kind: str | None = None) -> dict:
    doc = {
        "elements": list(p.labels),
        "covers": sorted([p.labels[lo], p.labels[hi]] for lo, hi in p.covers),
    }
    if kind is not None:
        doc["kind"] = kind
    return doc


def emit_poset(p: FinitePoset, kind: str | None = None) -> str:
    return json.dumps(poset_to_document(p, kind), indent=2, sort_keys=True) + "\n"


def _load_json(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    return doc


def _int_list(v) -> bool:
    """v is a JSON array of integers (booleans excluded)."""
    return isinstance(v, list) and all(type(i) is int for i in v)


def parse_poset(text: str) -> FinitePoset:
    """Parse a poset document; cover cycles and redundant edges are rejected
    by the poset constructor (CycleError / NonHasseEdge)."""
    doc = _load_json(text)
    elements = doc.get("elements")
    covers = doc.get("covers")
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise ParseError("'elements' must be a list of strings")
    if len(set(elements)) != len(elements):
        raise ParseError("element labels must be unique")
    if not isinstance(covers, list):
        raise ParseError("'covers' must be a list of [lower, upper] pairs")
    index = {lab: i for i, lab in enumerate(elements)}
    pairs = set()
    for c in covers:
        if not (isinstance(c, list) and len(c) == 2 and all(isinstance(x, str) for x in c)):
            raise ParseError(f"bad cover entry {c!r}")
        if c[0] not in index or c[1] not in index:
            raise ParseError(f"cover {c!r} references an undeclared label")
        pairs.add((index[c[0]], index[c[1]]))
    kind = doc.get("kind")
    if kind not in (None, "tree", "forest", "root_system"):
        raise ParseError(f"unknown kind {kind!r}")
    return FinitePoset(len(elements), frozenset(pairs), tuple(elements))


def topology_to_document(t: FiniteTopology) -> dict:
    return {
        "carrier_size": t.carrier_size,
        "subbase": [sorted(s) for s in t.subbase],
    }


def lattice_to_document(lat: FiniteLattice) -> dict:
    return {"meet": lat.meet_array.tolist(), "join": lat.join_array.tolist()}


def parse_lattice(text: str) -> FiniteLattice:
    """Lattice from meet/join tables or from the poset of its join
    irreducibles (the lattice then being that poset's upsets, refused past
    algebra.UPSET_CAP of them)."""
    doc = _load_json(text)
    if "join_irreducibles" in doc:
        p = parse_poset(json.dumps(doc["join_irreducibles"]))
        check_upset_cap(p)
        return lattice_of_sets(upsets_of(p))
    meet, join = doc.get("meet"), doc.get("join")
    ok = all(isinstance(tbl, list) and all(map(_int_list, tbl))
             for tbl in (meet, join) if tbl is not None)
    if meet is None or join is None or not ok:
        raise ParseError("lattice document needs 'meet' and 'join' tables "
                         "or a 'join_irreducibles' poset")
    return validate_lattice(meet, join)


def export_dot(p: FinitePoset, t: FiniteTopology | None = None) -> str:
    """Deterministic DOT digraph: nodes and cover edges sorted by label,
    drawn bottom-to-top; subbase sets annotated as a graph label."""
    lines = ["digraph poset {", "  rankdir=BT;"]
    if t is not None:
        ann = json.dumps([sorted(s) for s in t.subbase])
        lines.append(f'  label="subbase: {ann}";')
    for lab in sorted(p.labels):
        lines.append(f'  "{lab}";')
    for lo, hi in sorted((p.labels[a], p.labels[b]) for a, b in p.covers):
        lines.append(f'  "{lo}" -> "{hi}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Verdict:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class Report:
    command: str
    input_digest: str
    verdicts: list[Verdict] = field(default_factory=list)
    data: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def add(self, name: str, passed: bool, detail: str = ""):
        self.verdicts.append(Verdict(name, bool(passed), detail))

    def to_json(self) -> str:
        return json.dumps({
            "command": self.command,
            "input_digest": self.input_digest,
            "ok": self.ok,
            "verdicts": [{"name": v.name, "passed": v.passed, "detail": v.detail}
                         for v in self.verdicts],
            "data": self.data,
            "timings": self.timings,
        }, indent=2, sort_keys=True) + "\n"
