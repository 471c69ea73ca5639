#!/usr/bin/env python3
"""Compare a parent checkout and a change checkout on the perfbench workloads.

    python3 perfbench/compare.py --parent DIR --change DIR [--pairs 10]
        [--seed-base 1000] [--out results.jsonl]

Both checkouts must carry identical benchmark files (BENCHMARK.json and
perfbench/); copy them into the parent first when the change edits them.
For every workload of BENCHMARK.json the script runs --pairs parent/change
pairs, one seed per pair shared by both sides, alternating which side runs
first, and prints one row per end-to-end metric:

  improved    the change wins at least 9 of 10 pairs (ties count for
              neither) and the gap between the medians exceeds the parent's
              quartile spread
  regression  the change median is worse than the parent median by more
              than the metric's bound in BENCHMARK.json
  unresolved  the parent's own spread (IQR / median) exceeds the bound and
              not every change run beats every parent run
  ok          otherwise

Exit code 1 when any row is a regression.
"""

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402


def bench_digest(root):
    """Hash of every benchmark file of a checkout."""
    h = hashlib.sha256()
    files = [root / "BENCHMARK.json"] + sorted(
        p for p in (root / "perfbench").iterdir()
        if p.is_file() and p.suffix in (".py", ".cpp", ".txt", ".json"))
    for path in files:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_side(root, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: {workload} seed {seed} failed "
                           f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def rows(spec, workload, parent_runs, change_runs):
    """One comparison row per end-to-end metric of BENCHMARK.json."""
    out = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent = [run[name] for run in parent_runs]
        change = [run[name] for run in change_runs]
        rule = stats.pair_rule(parent, change, metric["better"])
        out.append({
            "workload": workload,
            "metric": name,
            "unit": metric["unit"],
            "parent": stats.quartiles(parent),
            "change": stats.quartiles(change),
            "wins": rule["wins"],
            "pairs": rule["pairs"],
            "bound": metric["bound"],
            "verdict": stats.verdict(parent, change, metric["bound"],
                                     metric["better"]),
        })
    return out


def print_row(row):
    p_q1, p_med, p_q3 = row["parent"]
    c_q1, c_med, c_q3 = row["change"]
    print(f"{row['workload']:<20} {row['metric']:<15} "
          f"parent {p_med:.6g} [{p_q1:.6g}, {p_q3:.6g}]  "
          f"change {c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}] {row['unit']}  "
          f"wins {row['wins']}/{row['pairs']}  bound {row['bound']}  "
          f"{row['verdict']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 10:
        print("compare: the pair rule needs at least 10 pairs", file=sys.stderr)
        return 2
    if bench_digest(args.parent) != bench_digest(args.change):
        print("compare: the checkouts carry different benchmark files",
              file=sys.stderr)
        return 2
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    regression = False
    log = args.out.open("w") if args.out else None
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                seed = args.seed_base + i
                order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
                for side in order:
                    root = args.parent if side == "parent" else args.change
                    values = run_side(root, workload, seed, spec["run_seconds"])
                    runs[side].append(values)
                    if log:
                        log.write(json.dumps({"workload": workload, "side": side,
                                              "seed": seed, "metrics": values})
                                  + "\n")
            for row in rows(spec, workload, runs["parent"], runs["change"]):
                print_row(row)
                regression |= row["verdict"] == "regression"
    finally:
        if log:
            log.close()
    return 1 if regression else 0


if __name__ == "__main__":
    sys.exit(main())
