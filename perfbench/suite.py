"""Run every workload untraced and traced, and print all metrics with units.

    python3 perfbench/suite.py [--seed N] [--seconds S]

Runs every workload named in BENCHMARK.json, each in its own process
(run.py), so peak RSS is per workload. The tracing overhead of a
workload is its traced op_s_p50 minus its untraced op_s_p50, from the
same seed. Exits non-zero when any run fails an output check or exits
non-zero.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_one(workload: str, seed: int, seconds: float, trace: int):
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    completed = subprocess.run(command, cwd=HERE.parent, capture_output=True, text=True)
    sys.stderr.write(completed.stderr)
    lines = completed.stdout.splitlines()
    if completed.returncode not in (0, 1) or len(lines) < 2:
        return completed.returncode, None, None
    summary = json.loads(lines[-2].removeprefix("# summary "))
    return completed.returncode, summary, json.loads(lines[-1])


def main(argv=None) -> int:
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    args = parser.parse_args(argv)

    ok = True
    for workload in names:
        print(f"== {workload} (seed {args.seed}, {args.seconds:g} s)")
        untraced = run_one(workload, args.seed, args.seconds, 0)
        traced = run_one(workload, args.seed, args.seconds, 1)
        for label, (code, summary, result) in (("untraced", untraced), ("traced", traced)):
            if result is None:
                print(f"   {label} run exited {code} without a result")
                ok = False
                continue
            ok = ok and code == 0 and result["correct"]
            for name, metric in result["metrics"].items():
                print(f"   {name:34s} {metric['value']:.6g} {metric['unit']}")
        if untraced[1] is None:
            continue
        summary = untraced[1]
        tail = summary["op_s_tail"]
        if tail is None:
            print(f"   {'op_s_tail':34s} undefined ({summary['ops']} ops)")
        else:
            print(f"   {'op_s_tail':34s} {tail['value_s']:.6g} s "
                  f"(p{tail['percentile']:g}, {tail['ops_beyond']} of {tail['ops']} ops beyond)")
        print(f"   {'failed_frac':34s} {summary['failed_frac']:.6g} ({summary['ops']} ops)")
        if traced[1] is not None:
            overhead = traced[1]["op_s_p50"] - summary["op_s_p50"]
            print(f"   {'trace.overhead_s':34s} {overhead:.6g} s "
                  f"({overhead / summary['op_s_p50']:+.2%} of untraced op_s_p50)")
        print("   env " + json.dumps(summary["env"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
