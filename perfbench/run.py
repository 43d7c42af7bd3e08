"""esakia benchmark: one workload, one run, every metric by name.

    python3 perfbench/run.py --workload verify-trees --seed 1 --seconds 32 --trace 0

Run from the root of a checkout; ``esakia`` is imported from its ``src/``.
Every pass of a workload runs in a fresh single-threaded process with
pinned thread counts and hash seed, so no cache survives from one pass to
the next.  Item times are in reference seconds: wall seconds rescaled by
the machine's speed, probed between items (``speed.py``); the ``wall``
entry of the ``detail`` line gives the same figures unscaled.  Set-up is
measured in extra set-up-only processes, each rescaled by a paired
reference process.

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of one traced cycle of the
workload's inputs, run after one untraced cycle of the same inputs, which
gives the tracing overhead.
The last line of standard output is the result as one JSON object.  The
exit code is 0 when every output was correct, 1 when one was wrong, 2 when
the run could not start or held too few items.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import KERNEL_REF_S
from worker import MIN_ITEMS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("verify-trees", "root-systems", "class-sweep")
SETUP_PROBES = 6
# Set-up is mostly interpreter start and imports, whose speed on a shared
# machine drifts by up to 2x over minutes and does not follow the item
# kernel of speed.py.  Each set-up probe is paired with a run of this
# command, which does the same kind of work and none of the program's, and
# set-up is reported where this command takes SETUP_REF_S.
SETUP_REF_CMD = (sys.executable, "-c", "import numpy")
SETUP_REF_S = 0.15
# Workloads whose pass is a finite stream, run whole.
SWEEPS = {"class-sweep"}
# Workloads with refusals run a fixed number of whole cycles of their input
# slots, one cycle per this many of --seconds, not a timed window.  Which
# slots the program refuses is fixed by the slot, not by the seed, so every
# run then attempts and refuses the same number of items on any machine.
CYCLE_S = {"root-systems": 5.3}
PASS_TIMEOUT_S = 150
# Seed held back for confirming a claimed gain; never used while tuning.
HOLDOUT_SEED = 7919
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

END_TO_END = {  # name -> unit
    "items_per_s": "1/s", "p50_s": "s", "p90_s": "s", "ok_share": "ratio",
    "setup_s": "s", "peak_rss_mb": "MB",
}
# Per-layer metrics.  "<span>.self_s" and "<span>.calls" are per attempted
# item, as are counters read off returned objects; names in PER_PASS are
# per pass.  A layer the workload never calls reads 0.
PER_LAYER = {
    "posets.order_open_masks.self_s": "s/item",
    "posets.order_open_masks.calls": "calls/item",
    "posets.order_open_masks.cache_entries": "count",
    "posets.interval_complement_order_open.self_s": "s/item",
    "posets.order_subcover.self_s": "s/item",
    "posets.has_enough_gaps.self_s": "s/item",
    "constructions.staged_topology.self_s": "s/item",
    "constructions.staged_topology.subbase_sets": "count/item",
    "constructions.staged_topology.base_sets": "count/item",
    "constructions.staged_topology.open_sets": "count/item",
    "constructions.staged_topology.restricted_levels": "count/item",
    "constructions.staged_topology.dedup_ratio": "ratio",
    "constructions.promoted_open_in_subbase.self_s": "s/item",
    "constructions.promoted_open_in_subbase.calls": "calls/item",
    "constructions.separation_witness.self_s": "s/item",
    "constructions.run_cover_engine.self_s": "s/item",
    "constructions.downset_open_check.self_s": "s/item",
    "constructions.climb.self_s": "s/item",
    "constructions.root_topology_check.self_s": "s/item",
    "constructions.root_topology_check.failed.OversizeSubbase": "ratio",
    "constructions.root_subbase.sets": "count/item",
    "topology.is_discrete.self_s": "s/item",
    "topology.priestley_check.self_s": "s/item",
    "topology.esakia_check.self_s": "s/item",
    "topology.clopen_upsets.self_s": "s/item",
    "topology.clopen_upsets.count": "count/item",
    "topology.base_sets": "count/item",
    "algebra.upset_algebra.self_s": "s/item",
    "algebra.upset_algebra.elements": "count/item",
    "algebra.lattice_of_sets.self_s": "s/item",
    "algebra.spectrum.self_s": "s/item",
    "duality.double_dual_poset.self_s": "s/item",
    "duality.double_dual_lattice.self_s": "s/item",
    "duality.horn_verify.self_s": "s/item",
    "duality.poset_isomorphism.self_s": "s/item",
    "duality.canonical_key.cache_entries": "count",
    "generators.enumerate_posets.self_s": "s/pass",
    "generators.enumerate_posets.classes": "count/pass",
    "documents.parse_poset.self_s": "s/item",
    "documents.report_json.self_s": "s/item",
    "trace.unspanned_share": "ratio",
    "trace.overhead": "ratio",
}
PER_PASS = {"posets.order_open_masks.cache_entries", "duality.canonical_key.cache_entries",
            "generators.enumerate_posets.self_s", "generators.enumerate_posets.classes"}


class RunFailed(Exception):
    def __init__(self, message: str, wrong: bool):
        super().__init__(message)
        self.wrong = wrong


def spawn(args, trace: int = 0, pass_no: int = 0, *extra: str) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--pass-no", str(pass_no), "--trace", str(trace), *extra]
    env = {**os.environ, **PINNED_ENV}
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{args.workload} pass {pass_no} overran its time", wrong=False)
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1]) if proc.returncode in (0, 3) and lines else {}
    if proc.returncode == 3:
        raise RunFailed(f"wrong output: {out.get('wrong')}", wrong=True)
    if proc.returncode == 2:
        raise RunFailed(f"{args.workload} pass {pass_no} could not start", wrong=False)
    if proc.returncode != 0:
        raise RunFailed(f"{args.workload} pass {pass_no} exited with {proc.returncode}",
                        wrong=True)
    return out


def reference_start() -> float:
    t0 = time.monotonic()
    subprocess.run(SETUP_REF_CMD, env={**os.environ, **PINNED_ENV}, cwd=ROOT, check=True,
                   timeout=60)
    return time.monotonic() - t0


def run_passes(args) -> list[dict]:
    """A workload with an endless input stream runs one pass of
    ``--seconds``, or of whole cycles sized from it (``CYCLE_S``).  The
    class sweep runs whole sweeps, each in a fresh process, while the last
    one's time fits once more in ``--seconds``."""
    if args.workload in CYCLE_S:
        cycles = max(1, round(args.seconds / CYCLE_S[args.workload]))
        return [spawn(args, 0, 0, "--cycles", str(cycles))]
    if args.workload not in SWEEPS:
        return [spawn(args, 0, 0, "--seconds", str(args.seconds))]
    passes: list[dict] = []
    used = 0.0
    while not passes or used + passes[-1]["window_s"] <= args.seconds:
        passes.append(spawn(args, 0, len(passes)))
        used += passes[-1]["window_s"]
    return passes


def weights(p: dict) -> list[float]:
    """Item weights that make every slot of the workload's input cycle
    count once, however many times the pass ran it: a pass of --seconds
    ends part way through a cycle, at a point that moves with the
    machine's speed, and a 12-point tree costs as much as ten small ones.
    A sweep's items all count once."""
    n = len(p["durations"])
    k = p["cycle_len"] or n
    runs = [n // k + (pos < n % k) for pos in range(k)]
    return [1 / runs[i % k] for i in range(n)]


def percentile(pairs: list[tuple[float, float]], q: float) -> float:
    """Weighted nearest-rank percentile of (value, weight) pairs."""
    pairs = sorted(pairs)
    total = sum(w for _, w in pairs)
    acc = 0.0
    for value, w in pairs:
        acc += w
        if acc >= q * total * (1 - 1e-9):
            return value
    return pairs[-1][0]


def end_to_end(passes: list[dict], setup_samples: list[float],
               clock: str = "") -> tuple[dict, int, int]:
    """The end-to-end metrics, in reference seconds, or in wall seconds
    with ``clock="wall_"``."""
    lat, attempted, failed, ok_w, work_s = [], 0, 0, 0.0, 0.0
    for p in passes:
        refused = set(p["refused"])
        own = p[f"{clock}durations"]
        for i, (d, w) in enumerate(zip(own, weights(p))):
            lat.append((math.inf if i in refused else d, w))
            ok_w += 0 if i in refused else w
            work_s += w * d
        attempted += len(own)
        failed += len(refused)
        work_s += p[f"phase_{clock}s"]
    if attempted < MIN_ITEMS:
        raise RunFailed(f"{attempted} items in the run, fewer than {MIN_ITEMS}", wrong=False)
    vals = {
        "items_per_s": ok_w / work_s,
        "p50_s": percentile(lat, 0.5),  # a refused item is slower than every verified one
        "p90_s": percentile(lat, 0.9),
        "ok_share": ok_w / sum(w for _, w in lat),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
    }
    # JSON has no infinity: a percentile landing on a refused item is
    # reported as the largest double.
    vals = {k: (sys.float_info.max if v == math.inf else v) for k, v in vals.items()}
    return vals, attempted, failed


def strata(passes: list[dict]) -> dict:
    """Per slot (kind-size and, for trees, the level profile): items,
    refusals and the median latency of the verified ones."""
    by: dict[str, list] = {}
    for p in passes:
        refused = set(p["refused"])
        for i, (key, d) in enumerate(zip(p["strata"], p["durations"])):
            acc = by.setdefault(key, [0, []])
            if i in refused:
                acc[0] += 1
            else:
                acc[1].append(d)
    return {k: {"refused": r, "verified": len(v), "p50_s": statistics.median(v) if v else None}
            for k, (r, v) in sorted(by.items())}


def per_layer(traced: dict, untraced: dict) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass; span times are rescaled to
    reference seconds by the pass's overall speed."""
    speed = traced["speed"]
    spans = {name: [s["calls"], s["total_s"] * speed, s["self_s"] * speed]
             for name, s in traced["trace"]["spans"].items()}
    counters = traced["trace"]["counters"]
    items = max(len(traced["durations"]), 1)
    vals = {}
    for name in PER_LAYER:
        base, _, stat = name.rpartition(".")
        if stat == "cache_entries":
            v = traced["cache_entries"].get(base, 0)
        elif stat == "self_s":
            v = spans.get(base, [0, 0.0, 0.0])[2]
        elif stat == "calls":
            v = spans.get(base, [0, 0.0, 0.0])[0]
        else:
            v = counters.get(name, 0.0)
        vals[name] = v if name in PER_PASS else v / items
    generated = counters.get("constructions.staged_topology.generated", 0.0)
    vals["constructions.staged_topology.dedup_ratio"] = (
        counters.get("constructions.staged_topology.subbase_sets", 0.0) / generated
        if generated else 0.0)
    item = spans.get("item", [0, 0.0, 0.0])
    vals["trace.unspanned_share"] = item[2] / item[1] if item[1] else 0.0
    # Both passes ran the same cycle of inputs.
    vals["trace.overhead"] = sum(traced["durations"]) / sum(untraced["durations"]) - 1
    return vals, {"spans": spans, "counters": counters}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "esakia" / "__init__.py").is_file():
        print(f"perfbench: no esakia sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    attempted = failed = 0
    try:
        if args.trace:
            cycle = () if args.workload in SWEEPS else ("--cycles", "1")
            untraced, traced = (spawn(args, trace, 0, *cycle) for trace in (0, 1))
            metrics, detail = per_layer(traced, untraced)
            units = PER_LAYER
            passes = [traced]
            attempted, failed = len(traced["durations"]), len(traced["refused"])
        else:
            setup = [spawn(args, 0, 0, "--setup-only")["setup_s"] / reference_start()
                     for _ in range(SETUP_PROBES)]
            passes = run_passes(args)
            metrics, attempted, failed = end_to_end(passes, [SETUP_REF_S * r for r in setup])
            wall, _, _ = end_to_end(passes, [p["setup_s"] for p in passes], "wall_")
            detail = {"setup_ratios": setup, "wall": wall, "strata": strata(passes)}
            units = END_TO_END
    except RunFailed as e:
        print(f"perfbench: {e}", file=sys.stderr)
        if not e.wrong:
            return 2
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1

    errors: dict[str, int] = {}
    for p in passes:
        for k, v in p["errors"].items():
            errors[k] = errors.get(k, 0) + v
    provenance = {
        "workload": args.workload, "seed": args.seed, "holdout_seed": HOLDOUT_SEED,
        "seconds": args.seconds, "trace": args.trace, "passes": len(passes),
        **passes[0]["versions"], "nproc": os.cpu_count(),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "commit": commit(), "source_digest": source_digest(), "env": PINNED_ENV,
        "kernel_ref_s": KERNEL_REF_S,
        "kernel_median_s": [statistics.median(p["kernel_s"]) for p in passes],
    }
    print("provenance " + json.dumps(provenance))
    print("detail " + json.dumps({
        "attempted": attempted, "failed": failed, "errors_by_type": errors,
        "cache_entries": [p["cache_entries"] for p in passes],
        "distinct_inputs": [p["distinct_inputs"] for p in passes], **detail}))
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
