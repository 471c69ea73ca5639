#!/usr/bin/env python3
"""perfbench: the swhkm benchmark, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call builds the ledger binary
(the swhkm library from src/ plus perfbench/ledger.cpp, Release) under
.bench_build/perfbench; later calls rebuild incrementally.

--trace 0 times complete fit calls for --seconds and reports the end-to-end
metrics; --trace 1 runs a fixed set of fits (untraced, telemetry-armed, and a
RecoveryDriver / run_plan pair) plus replays of each layer's public calls and
reports the per-layer metrics. Both modes check every fit bit-for-bit against
serial Lloyd. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The metric names, units and workloads are those of BENCHMARK.json. The exit
code is nonzero when the build fails, the ledger fails, or any fit failed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

BUILD_DIR = ROOT / ".bench_build" / "perfbench"
LEDGER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configure (once) and build the ledger; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("library sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "ledger"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))
    return BUILD_DIR / "ledger"


def run_ledger(exe, args):
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(BUILD_DIR / "scratch")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=LEDGER_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError("ledger timed out") from e
    if proc.returncode != 0:
        raise BenchError(f"ledger exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("ledger printed nothing")
    return json.loads(lines[-1])


def report(spec_metrics, values, raw, trace):
    """Print the ledger table; returns the metrics object for the JSON line."""
    out = {}
    mode = "per-layer (traced run)" if trace else "end-to-end (untraced run)"
    print(f"== perfbench {raw['workload']} seed {raw['seed']}: {mode}")
    if not trace:
        n = len(raw["solve_s"])
        tail = stats.tail_percentile(raw["solve_s"])
        tail_text = ("no percentile has 10 samples beyond it" if tail is None
                     else f"p{tail[0]} {tail[1]:.6g} s")
        print(f"   solve_s: median of {n} fits; {tail_text}; "
              f"setup_s: median of {len(raw['setup_s'])} set-up calls")
    for spec in spec_metrics:
        name, unit = spec["name"], spec["unit"]
        value = values.get(name)
        print(f"   {name:<28} {stats.fmt(value, unit)}")
        if value is None:
            raise BenchError(f"metric {name} is undefined on this workload")
        out[name] = {"value": value, "unit": unit}
    failed, attempted = raw["failed"], raw["attempted"]
    print(f"   {'fits_failed':<28} {failed}/{attempted} "
          f"(share {stats.fmt(stats.ratio(failed, attempted))})")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError(f"unknown workload {args.workload}")
        exe = build()
        raw = run_ledger(exe, args)
        if args.trace:
            metrics = report(spec["per_layer"], stats.per_layer(raw), raw, 1)
        else:
            metrics = report(spec["end_to_end"], stats.end_to_end(raw), raw, 0)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    failed = raw["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": raw["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
