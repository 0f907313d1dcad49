#!/usr/bin/env python3
"""Compare benchmark results of two commits.

    python3 bench/compare.py OLD_OUT_DIR NEW_OUT_DIR

Each directory holds the bench/out/*.json files that bench/run.py wrote in
a checkout of one commit.  For every workload and end-to-end metric it
prints each side's median and quartiles over the seeds run, the change of
the median, and a verdict against the metric's bound in BENCHMARK.json:
"worse" when the new median is worse by more than the bound, "unresolved"
when the old side's own spread is wider than the bound.  For seeds run on
both sides it also counts queries whose rendered output (rows and row
order) differs.  Traced results are summarised by their per-layer medians.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
RESULT_NAME = re.compile(r".+-seed\d+-trace[01]\.json")


def load(out_dir: Path) -> dict:
    """{(workload, trace): {seed: result}}"""
    runs: dict = {}
    for path in sorted(out_dir.glob("*-seed*-trace*.json")):
        if not RESULT_NAME.fullmatch(path.name):  # graph files of a running benchmark
            continue
        result = json.loads(path.read_text(encoding="utf-8"))
        runs.setdefault((result["workload"], result["trace"]), {})[result["seed"]] = result
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(old: dict, new: dict, spec: dict) -> list[str]:
    lines = []
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for key in sorted(set(old) & set(new)):
        workload, trace = key
        o_runs, n_runs = old[key], new[key]
        names = bounds if trace == 0 else [m["name"] for m in spec["per_layer"]]
        lines.append(f"{workload} trace {trace}: {len(o_runs)} old runs, {len(n_runs)} new runs")
        for name in names:
            o_vals = [r["metrics"][name]["value"] for r in o_runs.values() if name in r["metrics"]]
            n_vals = [r["metrics"][name]["value"] for r in n_runs.values() if name in r["metrics"]]
            if not o_vals or not n_vals:
                continue
            oq, nq = quartiles(o_vals), quartiles(n_vals)
            change = (nq[1] - oq[1]) / oq[1] if oq[1] else float("nan")
            verdict = ""
            if trace == 0:
                metric = bounds[name]
                worse = change if metric["better"] == "lower" else -change
                spread = (oq[2] - oq[0]) / oq[1] if oq[1] else float("inf")
                if spread > metric["bound"]:
                    verdict = "unresolved"
                elif worse > metric["bound"]:
                    verdict = "worse"
                elif worse < -spread:
                    verdict = "better"
                else:
                    verdict = "same"
            lines.append(
                f"  {name:<36} old {oq[1]:12.4f} [{oq[0]:.4f}, {oq[2]:.4f}]"
                f"  new {nq[1]:12.4f} [{nq[0]:.4f}, {nq[2]:.4f}]  {change:+8.1%}  {verdict}"
            )
        differing = checked = 0
        for seed in sorted(set(o_runs) & set(n_runs)):
            o_dig, n_dig = o_runs[seed]["ordered_digests"], n_runs[seed]["ordered_digests"]
            for text in set(o_dig) & set(n_dig):
                checked += 1
                differing += o_dig[text] != n_dig[text]
        if checked:
            lines.append(f"  rendered output differs for {differing} of {checked} queries")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    old, new = (load(Path(a)) for a in argv)
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    print("\n".join(compare(old, new, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
