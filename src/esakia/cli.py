"""Command-line surface: check, spectrum, dual, topologize, subcover,
verify, fuzz, gallery, export-dot.

Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 usage or parse error.
The ESAKIA_SEED environment variable overrides the default fuzz seed.
"""

import argparse
import os
import random
import sys
import time
from pathlib import Path

from . import constructions as cons
from . import documents as docs
from ._bits import points_of
from .algebra import check_upset_cap, lattice_of_sets, spectrum, upset_algebra
from .duality import double_dual_lattice, double_dual_poset, horn_verify, poset_isomorphism
from .errors import EsakiaError, NonHasseEdge, CycleError, OversizeSubbase, ParseError
from .posets import (
    ORDER_OPEN_CAP,
    FinitePoset,
    has_enough_gaps,
    heights,
    interval_complement_order_open,
    is_forest,
    is_root_system,
    is_tree,
    is_well_ordered,
    order_dual,
    order_open_masks,
    order_subcover,
    upsets_of,
)
from .topology import (PUBLIC_SUBBASE_CAP, clopen_upsets, esakia_check, is_discrete,
                       priestley_check)
from .generators import random_poset, random_root_system, random_tree

VERIFY_ALGEBRA_CAP = 10


def _int_from(low: int):
    """argparse type: an integer of at least low."""
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"{text} is below {low}")
        return int(text)
    return integer


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="esakia", exit_on_error=False)
    sub = ap.add_subparsers(dest="command", required=True)

    def with_file(name, **kw):
        sp = sub.add_parser(name, exit_on_error=False, **kw)
        sp.add_argument("file", help="input document path")
        return sp

    with_file("check", help="structural recognizers and enough-gaps witnesses")
    with_file("spectrum", help="lattice document -> poset of prime filters")
    with_file("dual", help="poset document -> upset algebra document")
    tp = with_file("topologize", help="build and verify the Esakia topology")
    tp.add_argument("--kind", choices=["tree", "root_system", "auto"], default="auto")
    sc = with_file("subcover", help="run the finite-subcover engine on a cover")
    sc.add_argument("--cover", required=True, help="cover document path")
    with_file("verify", help="full property suite on one input")
    fz = sub.add_parser("fuzz", exit_on_error=False, help="seeded batch over generators")
    fz.add_argument("--seed", type=int, default=None)
    fz.add_argument("--count", type=_int_from(0), default=20)
    fz.add_argument("--size", type=_int_from(1), default=6)
    fz.add_argument("--quarantine", default="quarantine")
    ga = sub.add_parser("gallery", exit_on_error=False, help="emit a gallery poset")
    ga.add_argument("name")
    ga.add_argument("n", type=_int_from(1))
    dot = with_file("export-dot", help="DOT rendering of a poset document")
    dot.add_argument("--with-topology", action="store_true",
                     help="annotate with the generated subbase")
    return ap


# -- shared property suite ---------------------------------------------------

def _skip(report: docs.Report, suite: str, cap: int, detail: str | None = None):
    report.data.setdefault("skipped", []).append(
        {"suite": suite, "cap": cap, "detail": detail or f"carriers above {cap} points"})


def _suite_order_open(p: FinitePoset, report: docs.Report, rng: random.Random):
    if p.n > ORDER_OPEN_CAP:
        _skip(report, "order-open", ORDER_OPEN_CAP)
        return
    masks = sorted(order_open_masks(p))
    report.add("order-open-family-is-powerset", len(masks) == 1 << p.n)
    if p.n <= 5:
        pairs = [(y, z) for y in range(1 << p.n) for z in range(1 << p.n)]
    else:
        pairs = [(rng.randrange(1 << p.n), rng.randrange(1 << p.n)) for _ in range(64)]
    ok = all(interval_complement_order_open(p, points_of(y), points_of(z)) for y, z in pairs)
    report.add("interval-complements-order-open", ok)
    cover = [points_of(m) for m in rng.sample(masks, min(6, len(masks)))]
    cover.append(frozenset(range(p.n)))
    chosen = order_subcover(p, cover)
    union = frozenset().union(*chosen)
    report.add("order-subcover-covers", union == frozenset(range(p.n)))


def _suite_duality(p: FinitePoset, report: docs.Report):
    if p.n > VERIFY_ALGEBRA_CAP:
        _skip(report, "duality", VERIFY_ALGEBRA_CAP)
        return
    try:
        double_dual_poset(p)
        report.add("double-dual-poset-canonical", True)
    except EsakiaError as e:
        report.add("double-dual-poset-canonical", False, str(e))
    try:
        double_dual_lattice(upset_algebra(p))
        report.add("double-dual-lattice-gamma", True)
    except EsakiaError as e:
        report.add("double-dual-lattice-gamma", False, str(e))
    try:
        horn_verify(p)
        report.add("godel-iff-root-system", True)
    except EsakiaError as e:
        report.add("godel-iff-root-system", False, str(e))


def _suite_root(p: FinitePoset, report: docs.Report):
    try:
        topo = cons.root_topology_check(p)
    except OversizeSubbase as e:
        _skip(report, "root", PUBLIC_SUBBASE_CAP, str(e))
        return
    except EsakiaError as e:
        report.add("root-topology-esakia", False, str(e))
        return
    report.add("root-topology-esakia", True)
    report.add("root-topology-discrete", is_discrete(topo))
    lat = lattice_of_sets(clopen_upsets(p, topo))
    iso = poset_isomorphism(spectrum(lat), p)
    report.add("root-spectrum-roundtrip", iso is not None)


def _suite_tree(p: FinitePoset, report: docs.Report, rng: random.Random):
    st = cons.staged_topology(p)
    report.add("staged-discrete", is_discrete(st.final))
    report.add("staged-priestley", priestley_check(p, st.final).holds)
    report.add("staged-esakia", esakia_check(p, st.final))
    promo_ok = all(cons.promoted_open_in_subbase(st, beta, alpha, points_of(m))
                   for alpha in range(1, st.height + 1) for beta in range(alpha)
                   for m in sorted(st.opens_masks(beta)))
    report.add("staged-open-promotion", promo_ok)
    prof = st.profile
    climb_ok = True
    for x in range(p.n):
        c = cons.climb(st, x)
        vals = c.values
        for k in range(len(vals) - 1):
            climb_ok = climb_ok and p.leq(vals[k], vals[k + 1])
        for k, alpha in enumerate(range(c.start_level, st.height + 1)):
            m = prof.le_mask(alpha)
            f = vals[k]
            climb_ok = climb_ok and not (p.up_masks[f] & m & ~(1 << f))
            if alpha > c.start_level:
                climb_ok = climb_ok and f not in st.s_sets.get(alpha, frozenset())
    report.add("climb-laws", climb_ok)
    wit_ok = True
    if p.n <= 6:
        for x in range(p.n):
            for alpha in range(max(1, prof.heights[x]), st.height + 1):
                fx = st.climb_value(x, alpha)
                for idx, e in enumerate(st.subbase_entries(alpha)):
                    if e.mask >> fx & 1:
                        try:
                            cons.cone_witness(st, x, alpha, idx)
                        except EsakiaError:
                            wit_ok = False
    report.add("cone-witnesses", wit_ok)
    if st.height >= 1:
        engine_ok = True
        entries = st.subbase_entries(st.height)
        full_idx = next(i for i, e in enumerate(entries) if e.mask == p.full)
        for _ in range(5):
            k = rng.randrange(1, min(6, len(entries)) + 1)
            cov = sorted(rng.sample(range(len(entries)), k))
            union = 0
            for i in cov:
                union |= entries[i].mask
            if union != p.full:
                cov.append(full_idx)
            try:
                cons.extract_subcover(st, cov)
            except EsakiaError:
                engine_ok = False
        report.add("cover-engine", engine_ok)
    sep_ok = True
    for x in range(p.n):
        for y in range(p.n):
            if x != y and not p.leq(x, y):
                try:
                    cons.separation_witness(st, x, y)
                except EsakiaError:
                    sep_ok = False
    report.add("separation-witnesses", sep_ok)
    report.add("downsets-stay-open", cons.downset_open_check(st))


def property_suite(p: FinitePoset, report: docs.Report, seed: int = 0):
    rng = random.Random(f"suite:{seed}")
    gaps = has_enough_gaps(p)
    report.add("enough-gaps", gaps.holds)
    report.add("dual-involution", order_dual(order_dual(p)) == p)
    report.add("well-ordered-finite", is_well_ordered(p))
    _suite_order_open(p, report, rng)
    _suite_duality(p, report)
    if is_root_system(p):
        _suite_root(p, report)
    if is_tree(p):
        _suite_tree(p, report, rng)


# -- subcommands ---------------------------------------------------------------

def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def cmd_check(args) -> docs.Report:
    text = _read(args.file)
    report = docs.Report("check", docs.digest(text))
    p = docs.parse_poset(text)
    report.add("document-valid", True)
    report.add("enough-gaps", has_enough_gaps(p).holds)
    report.data["recognizers"] = {
        "tree": is_tree(p),
        "forest": is_forest(p),
        "root_system": is_root_system(p),
        "well_ordered": is_well_ordered(p),
    }
    if is_forest(p):
        prof = heights(p)
        report.data["heights"] = list(prof.heights)
        report.data["max_height"] = prof.max_height
    return report


def cmd_spectrum(args) -> docs.Report:
    text = _read(args.file)
    report = docs.Report("spectrum", docs.digest(text))
    lat = docs.parse_lattice(text)
    report.add("lattice-valid", True)
    report.data["spectrum"] = docs.poset_to_document(spectrum(lat))
    return report


def cmd_dual(args) -> docs.Report:
    text = _read(args.file)
    report = docs.Report("dual", docs.digest(text))
    p = docs.parse_poset(text)
    check_upset_cap(p)
    h = upset_algebra(p)
    report.add("document-valid", True)
    report.data["lattice"] = docs.lattice_to_document(h.lattice)
    report.data["elements"] = [sorted(u) for u in upsets_of(p)]
    report.data["implies"] = [list(r) for r in h.implies]
    return report


def cmd_topologize(args) -> docs.Report:
    text = _read(args.file)
    report = docs.Report("topologize", docs.digest(text))
    p = docs.parse_poset(text)
    kind = args.kind
    if kind == "auto":
        kind = "tree" if is_tree(p) else "root_system" if is_root_system(p) else None
    if kind is None:
        report.add("input-topologizable", False, "neither a tree nor a root system")
        return report
    if kind == "tree":
        st = cons.staged_topology(p)
        topo = st.final
        report.data["v_modes"] = {str(a): m for a, m in st.v_modes.items()}
        report.data["levels"] = {
            str(a): {
                "subbase": [sorted(s) for s in st.subbase_sets(a)],
                "covered": sorted(st.p_sets.get(a, frozenset())),
                "isolated": sorted(st.s_sets.get(a, frozenset())),
            }
            for a in st.levels()}
        report.data["plus_choice"] = {str(k): v for k, v in sorted(st.plus_choice.items())}
        report.add("staged-levels-built", True)
    else:
        topo = cons.root_topology_check(p)
        report.add("root-subbase-built", True)
    report.add("discrete", is_discrete(topo))
    report.add("priestley", priestley_check(p, topo).holds)
    report.add("esakia", esakia_check(p, topo))
    report.data["topology"] = docs.topology_to_document(topo)
    return report


def cmd_subcover(args) -> docs.Report:
    text = _read(args.file)
    cover_text = _read(args.cover)
    report = docs.Report("subcover", docs.digest(text + cover_text))
    p = docs.parse_poset(text)
    st = cons.staged_topology(p)
    doc = docs._load_json(cover_text)
    entries = st.subbase_entries(st.height)
    if "indices" in doc:
        cover = doc["indices"]
        if not (docs._int_list(cover) and all(0 <= i < len(entries) for i in cover)):
            raise ParseError("cover indices must be a list of integers in range")
    elif "sets" in doc:
        if not (isinstance(doc["sets"], list) and all(map(docs._int_list, doc["sets"]))):
            raise ParseError("'sets' must be a list of integer lists")
        by_points = {e.points: i for i, e in enumerate(entries)}
        cover = []
        for s in doc["sets"]:
            key = frozenset(s)
            if key not in by_points:
                report.add("cover-members-known", False, f"{sorted(key)} is not a subbase set")
                return report
            cover.append(by_points[key])
        report.add("cover-members-known", True)
    else:
        raise ParseError("cover document needs 'indices' or 'sets'")
    try:
        run = cons.run_cover_engine(st, cover)
    except EsakiaError as e:
        report.add("finite-subcover-extracted", False, f"{type(e).__name__}: {e}")
        return report
    report.add("finite-subcover-extracted", True)
    report.add("selection-within-cover", set(run.selected) <= set(cover))
    report.data["selected_indices"] = list(run.selected)
    report.data["selected_sets"] = [sorted(entries[i].points) for i in run.selected]
    report.data["frontier_trace"] = [
        {"round": s.alpha, "frontier": sorted(s.frontier), "selected": list(s.selected)}
        for s in run.states]
    report.data["witnesses"] = {
        str(x): {"v": d.witness.v, "ys": sorted(d.witness.ys), "zs": sorted(d.witness.zs)}
        for x, d in sorted(run.point_data.items())}
    return report


def cmd_verify(args) -> docs.Report:
    text = _read(args.file)
    report = docs.Report("verify", docs.digest(text))
    p = docs.parse_poset(text)
    t0 = time.perf_counter()
    property_suite(p, report)
    report.timings["suite_seconds"] = round(time.perf_counter() - t0, 6)
    return report


def _fuzz_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int(os.environ.get("ESAKIA_SEED", "0"))


def cmd_fuzz(args) -> docs.Report:
    seed = _fuzz_seed(args)
    report = docs.Report("fuzz", f"seed={seed}")
    rng = random.Random(f"fuzz:{seed}")
    qdir = Path(args.quarantine)
    results = []
    for k in range(args.count):
        kind = ("poset", "tree", "root_system")[k % 3]
        n = rng.randrange(1, args.size + 1)
        inst_seed = rng.randrange(1 << 30)
        if kind == "poset":
            p = random_poset(inst_seed, n, 0.35)
        elif kind == "tree":
            p = random_tree(inst_seed, n)
        else:
            p = random_root_system(inst_seed, n)
        text = docs.emit_poset(p)
        sub = docs.Report("verify", docs.digest(text))
        property_suite(p, sub, seed=inst_seed)
        if not sub.ok:
            qdir.mkdir(parents=True, exist_ok=True)
            (qdir / f"{sub.input_digest}.json").write_text(text)
        results.append((sub.input_digest, kind, n, sub.ok,
                        [v.name for v in sub.verdicts if not v.passed]))
    results.sort()
    for dig, kind, n, ok, failed in results:
        report.add(dig, ok, f"{kind} n={n}" + (f" failed={failed}" if failed else ""))
    report.data["count"] = args.count
    report.data["seed"] = seed
    return report


def cmd_gallery(args) -> docs.Report:
    report = docs.Report("gallery", f"{args.name}({args.n})")
    p = cons.gallery(args.name, args.n)
    report.add("generated", True)
    report.data["poset"] = docs.poset_to_document(p)
    report.data["recognizers"] = {"tree": is_tree(p), "root_system": is_root_system(p)}
    return report


def cmd_export_dot(args) -> docs.Report:
    text = _read(args.file)
    report = docs.Report("export-dot", docs.digest(text))
    p = docs.parse_poset(text)
    topo = None
    if args.with_topology:
        if is_tree(p):
            topo = cons.staged_topology(p).final
        elif is_root_system(p):
            topo = cons.root_topology_check(p)
    report.add("document-valid", True)
    report.data["dot"] = docs.export_dot(p, topo)
    return report


_HANDLERS = {
    "check": cmd_check,
    "spectrum": cmd_spectrum,
    "dual": cmd_dual,
    "topologize": cmd_topologize,
    "subcover": cmd_subcover,
    "verify": cmd_verify,
    "fuzz": cmd_fuzz,
    "gallery": cmd_gallery,
    "export-dot": cmd_export_dot,
}


def _input_digest(args) -> str:
    """The digest the command's report carries on success, for error
    reports: the digest of the input file(s) as read, the gallery call or
    the fuzz seed; empty when an input file cannot be read or decoded."""
    if args.command == "gallery":
        return f"{args.name}({args.n})"
    if args.command == "fuzz":
        return f"seed={_fuzz_seed(args)}"
    paths = [args.file] + ([args.cover] if args.command == "subcover" else [])
    try:
        return docs.digest("".join(_read(path) for path in paths))
    except (OSError, UnicodeDecodeError):
        return ""


def run_command(argv: list[str]) -> tuple[docs.Report, int]:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except (argparse.ArgumentError, SystemExit) as e:
        report = docs.Report("usage", "")
        report.add("usage", False, str(e))
        return report, 2
    try:
        report = _HANDLERS[args.command](args)
    except (ParseError, CycleError, NonHasseEdge, OSError, UnicodeDecodeError) as e:
        report = docs.Report(args.command, _input_digest(args))
        report.add("input-readable", False, f"{type(e).__name__}: {e}")
        return report, 2
    except EsakiaError as e:
        report = docs.Report(args.command, _input_digest(args))
        report.add(args.command, False, f"{type(e).__name__}: {e}")
        return report, 1
    return report, 0 if report.ok else 1


def main() -> None:
    report, code = run_command(sys.argv[1:])
    sys.stdout.write(report.to_json())
    raise SystemExit(code)


if __name__ == "__main__":
    main()
