"""Every workload in one command, and a smoke check of the benchmark itself.

    python3 perfbench/report.py [--seed 1] [--seconds 2]

For each workload that BENCHMARK.json declares, runs its command once with
--trace 0 and once with --trace 1, one run after another, and prints every
metric by name with its unit, plus each run's failed share (failed calls
over attempted calls). After a traced run it also prints the self time of
every traced layer, including those that only some workloads exercise,
from the run's record under .perfbench_out/. Exits non-zero if a run fails
or reports a wrong output or a failed call, or if the metrics a run prints
differ in name or unit from the ones BENCHMARK.json declares for that kind
of run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def print_layer_self_times(workload: str, seed: int) -> None:
    record = ROOT / ".perfbench_out" / f"run-{workload}-seed{seed}-trace1.json"
    traced = [c for c in json.loads(record.read_text())["worker"]["calls"] if c["traced"] and not c["error"]]
    print("  self time per layer, median over traced calls:")
    for layer in traced[0]["layers"]:
        print(f"    {layer + '.self_s':26s} {statistics.median(c['layers'][layer][2] for c in traced):>16.6g} s")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=2, help="seconds per run (a smoke check needs few)")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        trace: {m["name"]: m["unit"] for m in spec[key]}
        for trace, key in ((0, "end_to_end"), (1, "per_layer"))
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            share = result["failed"] / result["attempted"]
            print(f"{workload:11s} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed_share={share:g}")
            for name, m in result["metrics"].items():
                print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")
            if trace:
                print_layer_self_times(workload, args.seed)
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            if emitted != declared[trace]:
                problems.append(f"{workload} trace {trace}: emitted {emitted}, declared {declared[trace]}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: correct={result['correct']} failed={result['failed']}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
