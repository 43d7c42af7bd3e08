"""One pass of a workload in a fresh process.

Imports ``esakia`` from the checkout's ``src/``, generates the first input,
then runs items in a closed loop (one client, the next item starts when the
previous one returns) until the stream ends, ``--cycles`` whole cycles of
its slots have run, or ``--seconds`` have passed and it holds at least
``MIN_ITEMS`` items.  Between items it probes the machine's speed
(``speed.py``).  Prints one JSON object with the per-item timings, in wall
seconds and in reference seconds; ``run.py`` turns the passes of a run
into metrics.

Exit codes: 0 done, 2 ``esakia`` not importable from ``src/``, 3 an output
was wrong or the program raised an error that is not a documented refusal.
"""

import argparse
import json
import math
import resource
import sys
import time
from collections import Counter
from pathlib import Path

from speed import Speedometer

ROOT = Path(__file__).resolve().parent.parent
# A timed pass runs past --seconds until it holds this many items, so that
# p90 has ten items beyond it on a slow machine too.
MIN_ITEMS = 100


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-no", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=math.inf)
    ap.add_argument("--cycles", type=int, default=0,
                    help="stop after this many cycles of the workload's input slots")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before the spawn")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import esakia
    if Path(esakia.__file__).resolve().parent != ROOT / "src" / "esakia":
        print(f"perfbench: imported esakia from {esakia.__file__}, not src/", file=sys.stderr)
        return 2
    import numpy
    from esakia import duality, posets
    from esakia.errors import EsakiaError
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS, WrongOutput

    tr = Tracer() if args.trace else NullTracer()
    work = WORKLOADS[args.workload](args.seed, args.pass_no)
    first = work.setup(tr)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    spans: list[tuple[float, float]] = []
    strata: list[str] = []
    refused: list[int] = []
    errors: Counter = Counter()
    limit = args.cycles * len(work.slots) if args.cycles and work.slots else -1
    speed = Speedometer()
    speed.probe()
    start = time.perf_counter()
    deadline = start + args.seconds
    try:
        for text, meta in work.stream(tr, first):
            if len(spans) == limit or (time.perf_counter() >= deadline
                                       and len(spans) >= MIN_ITEMS):
                break
            speed.maybe_probe()
            t0 = time.perf_counter()
            try:
                tr.call("item", work.item, tr, text, meta)
            except work.refusals as e:
                refused.append(len(spans))
                errors[type(e).__name__] += 1
            spans.append((t0, time.perf_counter()))
            strata.append(meta["slot"])
        else:
            work.finish()
    except (WrongOutput, EsakiaError) as e:
        print(json.dumps({"wrong": f"{type(e).__name__}: {e}"}))
        return 3
    window_s = time.perf_counter() - start
    speed.probe()

    def ref(intervals):
        return [(t1 - t0) * speed.scale(t0, t1) for t0, t1 in intervals]

    caches = {}
    for module, name in ((duality, "canonical_key"), (posets, "order_open_masks")):
        info = getattr(getattr(module, name, None), "cache_info", None)
        if info is not None:
            caches[f"{module.__name__.removeprefix('esakia.')}.{name}"] = info().currsize
    print(json.dumps({
        "setup_s": setup_s,
        "window_s": window_s,
        "durations": ref(spans),
        "wall_durations": [t1 - t0 for t0, t1 in spans],
        "phase_s": sum(ref(work.phases)),
        "phase_wall_s": sum(t1 - t0 for t0, t1 in work.phases),
        "speed": speed.overall(),
        "kernel_s": speed.took,
        "strata": strata,
        "cycle_len": len(work.slots),
        "refused": refused,
        "errors": dict(errors),
        "distinct_inputs": len(work.seen),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cache_entries": caches,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__},
        "trace": tr.summary(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
