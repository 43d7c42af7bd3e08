"""Span and counter recording around the benchmark's calls into esakia.

Spans are aggregated in memory as they close: per span name, the number of
calls, the total seconds and the self seconds (duration minus the time of
the spans opened inside it), plus a ``<name>.failed.<ErrorType>`` counter
for every call that raised.  Nothing is recorded inside the program; every
span wraps one call the benchmark itself makes.
"""

from collections import defaultdict
from time import perf_counter


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = defaultdict(float)
        self._child = [0.0]  # per open span: seconds covered by its children

    def call(self, name: str, fn, *args):
        self._child.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args)
        except Exception as e:
            self.counters[f"{name}.failed.{type(e).__name__}"] += 1
            raise
        finally:
            dur = perf_counter() - t0
            child = self._child.pop()
            self._child[-1] += dur
            s = self.spans.get(name)
            if s is None:
                s = self.spans[name] = [0, 0.0, 0.0]
            s[0] += 1
            s[1] += dur
            s[2] += dur - child

    def count(self, name: str, value: float = 1):
        self.counters[name] += value

    def summary(self) -> dict:
        return {"spans": {k: {"calls": c, "total_s": t, "self_s": s}
                          for k, (c, t, s) in sorted(self.spans.items())},
                "counters": dict(sorted(self.counters.items()))}


class NullTracer:
    """Untraced runs: calls go straight through and counters are dropped."""

    enabled = False

    def call(self, name: str, fn, *args):
        return fn(*args)

    def count(self, name: str, value: float = 1):
        pass

    def summary(self) -> dict:
        return {"spans": {}, "counters": {}}
