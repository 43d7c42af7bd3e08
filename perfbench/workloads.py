"""The three benchmark workloads: seeded input streams, one item each, and
the checks on every item's output.

Each item starts from a poset document, parses it, makes the public calls
that the matching ``esakia`` command makes, and ends with
``Report.to_json``.  Every call into the program goes through ``tr.call``
so that a traced run records one span per call.  An error type listed in a
workload's ``refusals`` escaping an item is a refusal the caller counts.
A verdict that does not pass raises ``WrongOutput``; it, and every other
error, aborts the run.
"""

import random
from time import perf_counter

from esakia import algebra, constructions, documents, duality, generators, posets, topology
from esakia.errors import OversizeSubbase

# A000112: isomorphism classes of n-element posets, n = 1..7.
POSET_CLASSES = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318, 7: 2045}
# A000081(n + 1): rooted forests on n points, i.e. root systems (order duals
# of forests) up to isomorphism -- the classes whose upset algebra is Gödel.
ROOT_SYSTEM_CLASSES = {1: 1, 2: 2, 3: 4, 4: 9, 5: 20, 6: 48, 7: 115}


class WrongOutput(Exception):
    """An item's output is wrong: the run must not report a result."""


def _points(mask: int) -> frozenset[int]:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def _mask(points) -> int:
    return sum(1 << i for i in points)


def _check(report: documents.Report):
    bad = [v.name for v in report.verdicts if not v.passed]
    if bad:
        raise WrongOutput(f"{report.command} {report.input_digest}: failed {bad}")


def _relabel(p: posets.FinitePoset, rng: random.Random) -> posets.FinitePoset:
    """An isomorphic copy with element indices permuted (labels travel)."""
    perm = rng.sample(range(p.n), p.n)
    labels = [""] * p.n
    for i, lab in enumerate(p.labels):
        labels[perm[i]] = lab
    covers = frozenset((perm[lo], perm[hi]) for lo, hi in p.covers)
    return posets.FinitePoset(p.n, covers, tuple(labels))


def level_profile(p: posets.FinitePoset) -> tuple[int, ...]:
    """Number of points on each level of a tree, from the root up."""
    return tuple(m.bit_count() for m in posets.heights(p).level_masks)


def deep_tree(seed: int, n: int) -> posets.FinitePoset:
    """A tree of height n // 2: a spine 0 < 1 < ... < n // 2, every further
    point attached above a uniformly chosen earlier point."""
    rng = random.Random(f"deep:{seed}:{n}")
    h = n // 2
    covers = {(i, i + 1) for i in range(h)}
    covers.update((rng.randrange(i), i) for i in range(h + 1, n))
    return posets.FinitePoset(n, frozenset(covers))


class Workload:
    """A seeded stream of distinct poset documents and the item run on each.

    ``slots`` is the stratified cycle of (kind, n, level profile or None)
    the stream repeats, so a run's mix of shapes and sizes does not depend
    on the seed; the seed picks the instance drawn for every slot.
    ``phases`` holds the (start, end) perf_counter intervals of the
    workload's own work outside items (the class enumeration), which counts
    as measured time.  ``refusals`` are the error types the program may
    raise on a valid input of this workload, documented limits; any other
    error is a defect.
    """

    name = ""
    slots: tuple = ()
    refusals: tuple = ()

    def __init__(self, seed: int, pass_no: int):
        self.rng = random.Random(f"{self.name}:{seed}:{pass_no}")
        self.seen: set[str] = set()
        self.phases: list[tuple[float, float]] = []

    def make(self, kind: str, n: int, inst: int) -> posets.FinitePoset:
        raise NotImplementedError

    def profile(self, p: posets.FinitePoset) -> tuple[int, ...]:
        return level_profile(p)

    def draw(self) -> tuple[str, dict]:
        """The next input for the current slot, distinct from all before.

        A slot is (kind, n, profile); with a level profile, instances are
        drawn until one has exactly that many points on each level."""
        kind, n, profile = self.slots[len(self.seen) % len(self.slots)]
        for _ in range(100_000):
            inst = self.rng.randrange(1 << 30)
            p = self.make(kind, n, inst)
            if profile is not None and self.profile(p) != profile:
                continue
            text = documents.emit_poset(p)
            if text not in self.seen:
                self.seen.add(text)
                slot = f"{kind}-{n}" + ("" if profile is None else f"-{''.join(map(str, profile))}")
                return text, {"slot": slot, "seed": inst}
        raise RuntimeError(f"no fresh {kind} input for slot {n} {profile}")

    def setup(self, tr) -> list:
        """The first input; the rest are drawn between items, outside their
        timing."""
        return [self.draw()]

    def stream(self, tr, first: list):
        yield from first
        while True:
            yield self.draw()

    def finish(self):
        """Checks over a whole pass, run when the stream is exhausted."""


# -- verify-trees --------------------------------------------------------------

# The tree mix follows the generators' own distribution of level profiles
# (points per level, root first), which sets most of an item's cost:
# profiles of one size differ by up to 10x, instances of one profile by
# well under 2x.  For each kind and size, the profiles of the trees the
# generator draws with fixed reference seeds form the slots, so a profile
# appears about as often as the generator produces it, and every run
# verifies the same mix.  The run's seed draws a fresh tree of the slot's
# kind and size until one has the slot's profile.  Sizes are not equally
# weighted: an 11-point item costs about three times a 10-point one and a
# 12-point item 1-3 s, so a round of the cycle holds one tree of each kind
# with 9 and 10 points, every second round one with 11, and a cycle of 16
# rounds two 12-point trees, or a run of --seconds would hold too few items.
TREE_ROUNDS = 16
TREE_EVERY = {9: 1, 10: 1, 11: 2}  # one tree of this size every k rounds
BIG_TREE_AT = (10, 51)  # positions of the 12-point slots in the cycle


def _tree_slots() -> tuple:
    gens = {"bushy": generators.random_tree, "deep": deep_tree}
    slots = [(kind, n, level_profile(gens[kind](r // every, n)))
             for r in range(TREE_ROUNDS) for n, every in TREE_EVERY.items() if r % every == 0
             for kind in gens]
    for at, kind in zip(BIG_TREE_AT, gens):
        slots.insert(at, (kind, 12, level_profile(gens[kind](0, 12))))
    return tuple(slots)


class VerifyTrees(Workload):
    """The path of ``esakia verify`` / ``fuzz`` on a tree: bushy trees from
    ``random_tree`` and deep ones of height about n / 2, 9 to 12 points."""

    name = "verify-trees"
    slots = _tree_slots()

    def make(self, kind, n, inst):
        return generators.random_tree(inst, n) if kind == "bushy" else deep_tree(inst, n)

    def item(self, tr, text: str, meta: dict) -> documents.Report:
        c = tr.call
        p = c("documents.parse_poset", documents.parse_poset, text)
        report = documents.Report("verify", documents.digest(text))
        rng = random.Random(f"suite:{meta['seed']}")
        report.add("enough-gaps", c("posets.has_enough_gaps", posets.has_enough_gaps, p).holds)
        dual = c("posets.order_dual", posets.order_dual, p)
        report.add("dual-involution", c("posets.order_dual", posets.order_dual, dual) == p)
        report.add("well-ordered-finite", c("posets.is_well_ordered", posets.is_well_ordered, p))
        root = c("posets.is_root_system", posets.is_root_system, p)
        if p.n <= 12:
            _order_open_suite(tr, p, report, rng)
        if p.n <= 10:
            _duality_suite(tr, p, report, root)
        if root:
            _root_suite(tr, p, report)
        _tree_suite(tr, p, report, rng)
        _check(report)
        c("documents.report_json", report.to_json)
        return report


def _order_open_suite(tr, p, report, rng):
    c = tr.call
    masks = sorted(c("posets.order_open_masks", posets.order_open_masks, p))
    report.add("order-open-family-is-powerset", len(masks) == 1 << p.n)
    pairs = [(rng.randrange(1 << p.n), rng.randrange(1 << p.n)) for _ in range(64)]
    ok = all(c("posets.interval_complement_order_open",
               posets.interval_complement_order_open, p,
               _points(y), _points(z))
             for y, z in pairs)
    report.add("interval-complements-order-open", ok)
    cover = [_points(m) for m in rng.sample(masks, min(6, len(masks)))]
    cover.append(frozenset(range(p.n)))
    chosen = c("posets.order_subcover", posets.order_subcover, p, cover)
    report.add("order-subcover-covers", frozenset().union(*chosen) == frozenset(range(p.n)))


def _is_bijection(forward, backward, n: int) -> bool:
    return (sorted(forward) == list(range(n))
            and all(backward[v] == i for i, v in enumerate(forward)))


def _duality_suite(tr, p, report, root: bool) -> bool:
    """Both double duals and the Gödel/root-system correspondence; returns
    whether the upset algebra is Gödel."""
    c = tr.call
    iso = c("duality.double_dual_poset", duality.double_dual_poset, p)
    report.add("double-dual-poset-canonical", _is_bijection(iso.forward, iso.backward, p.n))
    h = c("algebra.upset_algebra", algebra.upset_algebra, p)
    if tr.enabled:
        tr.count("algebra.upset_algebra.elements", h.n)
    gamma = c("duality.double_dual_lattice", duality.double_dual_lattice, h)
    report.add("double-dual-lattice-gamma", _is_bijection(gamma.forward, gamma.backward, h.n))
    godel = c("duality.horn_verify", duality.horn_verify, p)
    report.add("godel-iff-root-system", godel == root)
    return godel


def _root_suite(tr, p, report):
    """``esakia topologize`` on a root system, then the spectrum round trip."""
    c = tr.call
    t = c("constructions.root_topology_check", constructions.root_topology_check, p)
    report.add("root-topology-discrete", c("topology.is_discrete", topology.is_discrete, t))
    report.add("root-topology-priestley",
               c("topology.priestley_check", topology.priestley_check, p, t).holds)
    report.add("root-topology-esakia", c("topology.esakia_check", topology.esakia_check, p, t))
    clopens = c("topology.clopen_upsets", topology.clopen_upsets, p, t)
    lat = c("algebra.lattice_of_sets", algebra.lattice_of_sets, clopens)
    sp = c("algebra.spectrum", algebra.spectrum, lat)
    iso = c("duality.poset_isomorphism", duality.poset_isomorphism, sp, p)
    report.add("root-spectrum-roundtrip", iso is not None)
    if tr.enabled:
        tr.count("constructions.root_subbase.sets", len(t.subbase))
        tr.count("topology.base_sets", len(t.base))
        tr.count("topology.clopen_upsets.count", len(clopens))


def _tree_suite(tr, p, report, rng):
    c = tr.call
    st = c("constructions.staged_topology", constructions.staged_topology, p)
    if tr.enabled:
        _count_staged(tr, st)
    final = st.final
    report.add("staged-discrete", c("topology.is_discrete", topology.is_discrete, final))
    report.add("staged-priestley",
               c("topology.priestley_check", topology.priestley_check, p, final).holds)
    report.add("staged-esakia", c("topology.esakia_check", topology.esakia_check, p, final))
    promo_ok = True
    for alpha in range(1, st.height + 1):
        for beta in range(alpha):
            opens = st.opens_masks(beta)
            if opens is None:
                continue
            for m in sorted(opens):
                promo_ok = promo_ok and c(
                    "constructions.promoted_open_in_subbase",
                    constructions.promoted_open_in_subbase, st, beta, alpha, _points(m))
    report.add("staged-open-promotion", promo_ok)
    prof = st.profile
    climb_ok = True
    for x in range(p.n):
        vals = c("constructions.climb", constructions.climb, st, x).values
        start = prof.heights[x]
        for k in range(len(vals) - 1):
            climb_ok = climb_ok and p.leq(vals[k], vals[k + 1])
        for k, alpha in enumerate(range(start, st.height + 1)):
            f = vals[k]
            climb_ok = climb_ok and not (p.up_masks[f] & prof.le_mask(alpha) & ~(1 << f))
            if alpha > start:
                climb_ok = climb_ok and f not in st.s_sets.get(alpha, frozenset())
    report.add("climb-laws", climb_ok)
    if st.height >= 1:
        entries = st.subbase_entries(st.height)
        full_idx = next(i for i, e in enumerate(entries) if e.mask == p.full)
        engine_ok = True
        for _ in range(5):
            k = rng.randrange(1, min(6, len(entries)) + 1)
            cov = sorted(rng.sample(range(len(entries)), k))
            union = 0
            for i in cov:
                union |= entries[i].mask
            if union != p.full:
                cov.append(full_idx)
            run = c("constructions.run_cover_engine", constructions.run_cover_engine, st, cov)
            union = 0
            for i in run.selected:
                union |= entries[i].mask
            engine_ok = engine_ok and set(run.selected) <= set(cov) and union == p.full
        report.add("cover-engine", engine_ok)
    sep_ok = True
    for x in range(p.n):
        for y in range(p.n):
            if x != y and not p.leq(x, y):
                w = c("constructions.separation_witness", constructions.separation_witness,
                      st, x, y)
                sep_ok = sep_ok and x in w and y not in w and p.is_upset_mask(_mask(w))
    report.add("separation-witnesses", sep_ok)
    report.add("downsets-stay-open",
               c("constructions.downset_open_check", constructions.downset_open_check, st))


def _count_staged(tr, st):
    """Size counters read off the returned StagedTopology, summed over levels."""
    generated = distinct = 0
    for alpha in st.levels():
        entries = st.subbase_entries(alpha)
        distinct += len(entries)
        generated += sum(len(e.sources) for e in entries)
        tr.count("constructions.staged_topology.base_sets", len(st.base_entries(alpha)))
        opens = st.opens_masks(alpha)
        tr.count("constructions.staged_topology.open_sets", 0 if opens is None else len(opens))
    tr.count("constructions.staged_topology.subbase_sets", distinct)
    tr.count("constructions.staged_topology.generated", generated)
    tr.count("constructions.staged_topology.restricted_levels",
             sum(mode == "restricted" for mode in st.v_modes.values()))
    tr.count("topology.base_sets", len(st.final.base))


# -- root-systems --------------------------------------------------------------

class RootSystems(Workload):
    """``esakia topologize`` on a root system plus the spectrum round trip."""

    name = "root-systems"
    refusals = (OversizeSubbase,)
    # Slots of random root systems fix the level profile of the order dual
    # (a forest; the first entry counts its roots), which fixes the subbase
    # size 2 (n - roots) + roots: at most 20 sets for 8 to 11 points, so the
    # cap admits them, and over 20 for 12 to 15 points, so it refuses them.
    # Fans (figure 2) are fixed shapes: 8 to 11 points pass, 12 to 14 are
    # refused.  Twelve of every thirteen items pass; the thirteenth rotates
    # through the heavy 11-point fan and the refused sizes.  Refusals count
    # as +inf latency, so they stay under a tenth of the items to leave p90
    # finite.  Without fixed profiles a rare many-rooted 14-point system
    # passes the cap and builds a 200 MB clopen lattice, so the run's time
    # and peak memory would depend on the seed.
    slots = tuple(
        (kind, n, profile and tuple(profile))
        for big in (("fan", 12, None), ("random", 12, (3, 5, 3, 1)), ("fan", 11, None),
                    ("random", 13, (3, 5, 4, 1)), ("fan", 13, None),
                    ("random", 14, (4, 6, 3, 1)), ("fan", 14, None),
                    ("random", 15, (4, 6, 4, 1)))
        for kind, n, profile in (
            ("random", 10, (4, 4, 2)), ("random", 11, (4, 5, 2)), ("random", 9, (4, 4, 1)),
            ("fan", 8, None), ("random", 10, (3, 5, 2)), ("random", 11, (3, 4, 3, 1)),
            ("random", 8, (3, 4, 1)), ("fan", 9, None), ("random", 10, (4, 4, 2)),
            ("random", 11, (4, 5, 2)), ("random", 9, (3, 4, 2)), ("fan", 10, None), big))

    def make(self, kind, n, inst):
        if kind == "random":
            return generators.random_root_system(inst, n)
        return _relabel(constructions.gallery("figure2", n - 3), random.Random(inst))

    def profile(self, p):
        return level_profile(posets.order_dual(p))

    def item(self, tr, text: str, meta: dict) -> documents.Report:
        p = tr.call("documents.parse_poset", documents.parse_poset, text)
        report = documents.Report("topologize", documents.digest(text))
        _root_suite(tr, p, report)
        _check(report)
        tr.call("documents.report_json", report.to_json)
        return report


# -- class-sweep ---------------------------------------------------------------

def _enumerate(n: int) -> list:
    return list(generators.enumerate_posets(n))  # a generator: drain it in the span


class ClassSweep(Workload):
    """Every isomorphism class of n-element posets, n = 1..7, through both
    double duals and the Gödel/root-system correspondence.

    The enumeration runs inside the measured window with cold caches: it is
    the sweep's own work.  Each class is then relabelled by the seed and
    emitted as a document; the seed also shuffles the item order.
    """

    name = "class-sweep"

    def setup(self, tr) -> list:
        return []

    def stream(self, tr, first: list):
        t0 = perf_counter()
        classes = {}
        for n in POSET_CLASSES:
            classes[n] = tr.call("generators.enumerate_posets", _enumerate, n)
        self.phases.append((t0, perf_counter()))
        for n, reps in classes.items():
            if len(reps) != POSET_CLASSES[n]:
                raise WrongOutput(f"{len(reps)} classes of {n}-element posets, "
                                  f"expected {POSET_CLASSES[n]}")
        if tr.enabled:
            tr.count("generators.enumerate_posets.classes", sum(map(len, classes.values())))
        items = []
        for n, reps in classes.items():
            for p in reps:
                text = documents.emit_poset(_relabel(p, self.rng))
                if text in self.seen:
                    raise WrongOutput("two classes share a document")
                self.seen.add(text)
                items.append((text, {"slot": f"class-{n}"}))
        self.rng.shuffle(items)
        self.godel = dict.fromkeys(POSET_CLASSES, 0)
        self.roots = dict.fromkeys(POSET_CLASSES, 0)
        yield from items

    def item(self, tr, text: str, meta: dict) -> documents.Report:
        c = tr.call
        p = c("documents.parse_poset", documents.parse_poset, text)
        report = documents.Report("sweep", documents.digest(text))
        root = c("posets.is_root_system", posets.is_root_system, p)
        self.godel[p.n] += _duality_suite(tr, p, report, root)
        self.roots[p.n] += root
        _check(report)
        c("documents.report_json", report.to_json)
        return report

    def finish(self):
        for n in POSET_CLASSES:
            if not self.godel[n] == self.roots[n] == ROOT_SYSTEM_CLASSES[n]:
                raise WrongOutput(f"n={n}: {self.godel[n]} Gödel classes, {self.roots[n]} "
                                  f"root systems, expected {ROOT_SYSTEM_CLASSES[n]}")


WORKLOADS = {w.name: w for w in (VerifyTrees, RootSystems, ClassSweep)}
