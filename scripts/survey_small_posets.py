#!/usr/bin/env python3
"""Sweep every isomorphism class of posets up to a given size through the
CLI property suite (the checks behind ``esakia verify``) and print, per size,
the class count and how many classes passed each verdict out of those it
ran on.  Exits 1 if any verdict fails on any class.

Usage: python scripts/survey_small_posets.py [--max-n 6]
"""

import argparse
import time

from esakia.cli import property_suite
from esakia.documents import Report
from esakia.generators import enumerate_posets


def survey(n: int) -> tuple[int, dict[str, list[int]]]:
    """Class count and, per verdict name, [classes passed, classes run]."""
    classes = list(enumerate_posets(n))
    tally: dict[str, list[int]] = {}
    for p in classes:
        report = Report("verify", "")
        property_suite(p, report)
        for v in report.verdicts:
            row = tally.setdefault(v.name, [0, 0])
            row[0] += v.passed
            row[1] += 1
    return len(classes), tally


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-n", type=int, default=6)
    args = ap.parse_args()
    sizes = range(1, args.max_n + 1)
    results, seconds = {}, {}
    for n in sizes:
        t0 = time.perf_counter()
        results[n] = survey(n)
        seconds[n] = f"{time.perf_counter() - t0:.2f}"
    names = list(dict.fromkeys(name for n in sizes for name in results[n][1]))
    width = max(map(len, names))

    def line(label, cells):
        print(f"{label:<{width}}" + "".join(f"{c:>10}" for c in cells))

    line("n", sizes)
    line("classes", (results[n][0] for n in sizes))
    failed = False
    for name in names:
        counts = [results[n][1].get(name, (0, 0)) for n in sizes]
        failed = failed or any(passed < run for passed, run in counts)
        line(name, (f"{passed}/{run}" for passed, run in counts))
    line("seconds", (seconds[n] for n in sizes))
    raise SystemExit(1 if failed else 0)


if __name__ == "__main__":
    main()
