"""Steadiness check: run one or more workloads k times, each with its own
seed, and print every metric's median, quartiles and quartile spread
(q3 - q1) / median against the bound BENCHMARK.json fixes.

    python3 bench/steady.py                          # all workloads, k = 10
    python3 bench/steady.py --workload analysis -k 5
    python3 bench/steady.py --compare ../parent      # alternate two checkouts

With --compare, each seed runs in both checkouts, the order alternating
from one seed to the next, and the table adds the other checkout's
median, the change of medians and the number of seeds the other checkout
won. Seeds run from 1 to k, each for the run_seconds of BENCHMARK.json.
--save writes the collected numbers as JSON: per metric its median,
quartiles, spread and values, or with -k 1 and no --compare its one
value. Metrics that read 0 on every run (layers the workload does not
run) are left out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed in {root}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("-k", type=int, default=10, help="runs (seeds) per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", type=Path, help="root of a second checkout")
    parser.add_argument("--save", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    saved = {}
    for workload in args.workload or names:
        runs = {"this": [], "other": []}
        for seed in range(1, args.k + 1):
            sides = ["this", "other"] if args.compare else ["this"]
            if seed % 2 == 0:
                sides.reverse()
            for side in sides:
                root = ROOT if side == "this" else args.compare.resolve()
                runs[side].append(run_once(root, workload, seed, spec["run_seconds"], args.trace))
        failed = sum(r["failed"] for r in runs["this"])
        attempted = sum(r["attempted"] for r in runs["this"])
        print(f"{workload}: {args.k} runs, seeds 1..{args.k}, "
              f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} operations)")
        head = (f"  {'metric':<44} {'unit':<7} {'median':>11} {'q1':>11} {'q3':>11} "
                f"{'spread':>7} {'bound':>6}")
        print(head + ("  other_median  change  other_won" if args.compare else ""))
        table = {}
        for name, first in runs["this"][0]["metrics"].items():
            vals = [r["metrics"][name]["value"] for r in runs["this"]]
            if not any(vals):
                continue  # a layer this workload does not run
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None else (" ok" if spread <= bound / 3 else
                                              " OVER/3" if spread <= bound else " OVER")
            line = (f"  {name:<44} {first['unit']:<7} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                    f"{spread:>7.3f} {bound if bound is not None else '-':>6}{flag}")
            table[name] = (vals[0] if args.k == 1 and not args.compare else
                           {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals})
            if args.compare:
                other = [r["metrics"][name]["value"] for r in runs["other"]]
                omed = statistics.median(other)
                sign = 1 if better[name] == "higher" else -1
                won = sum(sign * (o - v) > 0 for o, v in zip(other, vals))
                change = (omed - med) / med if med else 0.0
                line += f"  {omed:>12.5g} {change:>+7.3f} {won:>4}/{args.k}"
                table[name]["other_values"] = other
            print(line)
        saved[workload] = {"fail_ratio": failed / attempted, "metrics": table}
    if args.save:
        args.save.write_text(json.dumps(saved, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
