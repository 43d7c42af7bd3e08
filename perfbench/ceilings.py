"""Size ceilings: for each path, the largest input it finishes within a
fixed per-item budget, and what stopped it at the next size (a typed error
or the budget).  Informational: no run of the benchmark compares these.

    python3 perfbench/ceilings.py

Paths: the verify-trees item on bushy and on deep trees, the root-systems
item on random root systems, and ``canonical_key`` on an antichain.  Sizes
grow by one point from a small start until the first failure.
"""

import json
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUDGET_S = 5.0  # per item
SEED = 0


class OverBudget(Exception):
    pass


def _alarm(signum, frame):
    raise OverBudget


def probe(fn, start: int, stop: int, budget: float) -> dict:
    from esakia.errors import EsakiaError

    seconds = {}
    failure = None
    for n in range(start, stop + 1):
        signal.setitimer(signal.ITIMER_REAL, budget)
        t0 = time.perf_counter()
        try:
            fn(n)
        except OverBudget:
            failure = {"n": n, "error": f"over {budget} s"}
        except EsakiaError as e:
            failure = {"n": n, "error": type(e).__name__}
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if failure:
            break
        seconds[n] = time.perf_counter() - t0
    return {"ceiling_n": max(seconds, default=None), "first_failure": failure,
            "seconds": seconds}


def main() -> int:
    if not (ROOT / "src" / "esakia" / "__init__.py").is_file():
        print(f"perfbench: no esakia sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from esakia import documents, duality, generators, posets
    from tracing import NullTracer
    from workloads import RootSystems, VerifyTrees, deep_tree

    trees, roots, tr = VerifyTrees(SEED, 0), RootSystems(SEED, 0), NullTracer()

    def verify(p):
        trees.item(tr, documents.emit_poset(p), {"seed": SEED})

    paths = {
        "bushy-tree": (lambda n: verify(generators.random_tree(SEED, n)), 8),
        "deep-tree": (lambda n: verify(deep_tree(SEED, n)), 8),
        "root-system": (lambda n: roots.item(
            tr, documents.emit_poset(generators.random_root_system(SEED, n)), {}), 6),
        "antichain-canonical-key": (
            lambda n: duality.canonical_key(posets.FinitePoset(n, frozenset())), 4),
    }
    signal.signal(signal.SIGALRM, _alarm)
    for name, (fn, start) in paths.items():
        res = probe(fn, start, 64, BUDGET_S)
        print(json.dumps({"path": name, "budget_s": BUDGET_S, "seed": SEED, **res}),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
