#!/usr/bin/env python3
"""Alternating benchmark pairs of two source checkouts, for judging a claimed gain.

Usage:

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --seed N --seconds S --pairs K

PARENT and CHANGE are checkouts of the repository, each run as it stands.
Each pair runs ``perfbench/run.py --workload W --seed N --seconds S --trace 0``
once in each checkout, the parent first in odd pairs and the change first in
even ones, and reads the result object on the last line of its output.  For
every end-to-end metric of the parent's ``BENCHMARK.json`` it prints each
pair, each side's median and quartiles, and how many pairs the change won
(ties count for neither side).  A gain meets the rule when the change wins at
least nine tenths of the pairs and the medians differ by more than the
distance between the parent's quartiles.  Each metric then gets a verdict
against its ``bound``: ``regression`` when the change's median is worse than
the parent's by more than the bound, a fraction of the parent's median;
``unresolved`` when it is not, but either side's quartile spread, a fraction
of its own median, is wider than the bound, unless every run of the change
beats every run of the parent; ``no regression`` otherwise.  This script runs
the benchmark as a program and imports nothing from the package.  It exits 1
when a run fails or reads ``correct: false`` or a failed job.

A bytecode cache under a checkout's ``src/reebkit`` is read in place of its
source when the timestamps allow, so a checkout that holds one is refused,
with exit 1, before any run; each run is a child with
``PYTHONDONTWRITEBYTECODE=1``, so no run writes one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--pairs", required=True, type=int)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for side in (args.parent, args.change):
        if not (side / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py under {side}")
    return args


def run_once(checkout: Path, args) -> dict:
    """The result object of one benchmark run in ``checkout``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed",
         str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: exit {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(name: str, unit: str, better: str, bound: float, pairs: list) -> list[str]:
    """The report lines of one metric over all pairs of (parent, change, side run first)."""
    sign = 1.0 if better == "higher" else -1.0
    lines = [f"{name} ({unit}, {better} is better)"]
    for i, (old, new, first) in enumerate(pairs, 1):
        lines.append(f"  pair {i}: parent {old:.6g}  change {new:.6g}  ({first} first)")
    olds, news = [p[0] for p in pairs], [p[1] for p in pairs]
    wins = sum(sign * (new - old) > 0 for old, new, _ in pairs)
    spread = quartiles(olds)[1] - quartiles(olds)[0]
    gain = sign * (statistics.median(news) - statistics.median(olds))
    spreads = []  # each side's quartile spread as a fraction of its median
    for side, values in (("parent", olds), ("change", news)):
        q1, q3 = quartiles(values)
        spreads.append((q3 - q1) / statistics.median(values))
        lines.append(f"  {side}: median {statistics.median(values):.6g}, "
                     f"quartiles {q1:.6g} / {q3:.6g}")
    meets = wins >= 0.9 * len(pairs) and gain > spread
    lines.append(f"  change wins {wins}/{len(pairs)}; median gain {gain:.6g} against the "
                 f"parent's quartile spread {spread:.6g}: "
                 f"{'meets' if meets else 'does not meet'} the gain rule")
    rel = statistics.median(news) / statistics.median(olds) - 1.0
    if -sign * rel > bound:
        verdict = "regression"
    elif max(spreads) > bound and min(sign * v for v in news) <= max(sign * v for v in olds):
        verdict = "unresolved"
    else:
        verdict = "no regression"
    lines.append(f"  change median {rel:+.1%} against the parent's; quartile spreads "
                 f"{spreads[0]:.1%} / {spreads[1]:.1%} against the bound {bound:.1%}: {verdict}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    for side in (args.parent, args.change):
        cache = side / "src" / "reebkit" / "__pycache__"
        if cache.exists():
            print(f"{cache}: a bytecode cache in a checkout can stand in for its source; "
                  "remove it", file=sys.stderr)
            return 1
    metrics = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    values: dict[str, list[tuple[float, float, str]]] = {m["name"]: [] for m in metrics}
    ok = True
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        results = {side: run_once(getattr(args, side), args) for side in order}
        for side, res in results.items():
            print(f"pair {i + 1} {side}: correct {res['correct']}, "
                  f"{res['failed']} of {res['attempted']} failed", flush=True)
            ok &= res["correct"] and res["failed"] == 0
        for name, pairs in values.items():
            pairs.append((results["parent"]["metrics"][name]["value"],
                          results["change"]["metrics"][name]["value"], order[0]))
    for m in metrics:
        print("\n".join(summarize(m["name"], m["unit"], m["better"], m["bound"],
                                   values[m["name"]])))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
