"""Run one workload of the tskfuzzy benchmark and print its metrics.

    python3 perfbench/run.py --workload small-rule --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory, and every file the run writes goes under .perfbench_out/.
All work runs in fresh worker interpreters started one after another, with
the BLAS thread count pinned.

--trace 0 prints the end-to-end metrics: a warm-up and SETUP_PROBES pairs
of set-up probes, then one worker that repeats the measured call, tracing
off.
--trace 1 prints the per-layer metrics from a worker that alternates
untraced and traced calls on the same inputs.

On a shared machine the same code runs up to twice as slowly when the
neighbours are busy, and their load drifts over minutes. So every measured
call and set-up alternates with the same work done by a frozen reference
copy of the package (reference/tskfuzzy_ref), and each end-to-end time is
reported in seconds of the machine the benchmark was defined on: the median,
over the run's pairs, of the program's time over the reference copy's time,
times the reference copy's time on that machine (Workload.ref_call_s and
Workload.ref_setup_s). The raw medians are printed beside them.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records the
environment and the raw timings.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark's own directory free of caches

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
OUT = ROOT / ".perfbench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1  # the load is one single-threaded process
SETUP_PROBES = 7  # pairs of one program and one reference set-up
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = {
    "wall_s": "s",
    "iters_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "final_test_rmse": "rmse",
}
FIELD_UNITS = {"calls": "count", "rows": "count", "self_s": "s"}
LAYER_FIELDS = (
    ("masks.sample", ("calls", "self_s")),
    ("model.eval_forward", ("calls", "rows", "self_s")),
    ("model.grad_forward", ("rows", "self_s")),
    ("loss.gradients", ("calls", "self_s")),
    ("model.loss_forward", ("rows", "self_s")),
    ("loss.loss", ("calls", "self_s")),
    ("model.unflatten", ("calls", "self_s")),
    ("optim.step", ("calls", "self_s")),
    ("data.sample_batch", ("calls", "self_s")),
    ("trainer.rmse", ("self_s",)),
    ("trainer.loop", ("self_s",)),
    # Layers only suite-cli exercises: their self time would read exactly 0
    # on every run of the other workloads, so only their counts are metrics;
    # report.py prints every layer's self time from the run's JSON record.
    ("trainer.suite", ("calls",)),
    ("trainer.write", ("calls",)),
    ("data.load_csv", ("calls",)),
    ("data.preprocess", ("calls",)),
    ("ridge.fit", ("calls",)),
    ("cli.run_experiment", ("calls",)),
)
PER_LAYER = {
    **{f"{layer}.{f}": FIELD_UNITS[f] for layer, fields in LAYER_FIELDS for f in fields},
    "model.forward_peak_mb": "MB",
    "trace.overhead_s": "s",
}


class WorkerFailed(Exception):
    pass


def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(start: float, *args: str) -> dict:
    """Run one worker to completion and return its JSON result."""
    # No bytecode caches: every set-up compiles both package copies, the
    # same way in every checkout.
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    timeout = max(DEADLINE_S - (time.perf_counter() - start), 1.0)
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker {' '.join(args)} did not end within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {' '.join(args)} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def faster_half(items: list, key=float) -> list:
    return sorted(items, key=key)[: (len(items) + 1) // 2]


def end_to_end(setup: list, res: dict, workload) -> tuple[dict, dict]:
    """The end-to-end metrics, in seconds of the reference machine, and the
    raw medians they come from."""
    ok = [c for c in res["calls"] if not c["error"]]
    paired = [c for c in ok if "ref_s" in c]
    first_per_dataset = {}
    for c in ok:
        first_per_dataset.setdefault(c["k"], c["final_test_rmse"])
    raw = {
        "pairs": len(paired),
        "setup_pairs": len(setup),
        "wall_s": statistics.median(c["wall_s"] for c in paired),
        "ref_call_s": statistics.median(c["ref_s"] for c in paired),
        "setup_s": statistics.median(p for p, _ in setup),
        "ref_setup_s": statistics.median(r for _, r in setup),
    }
    wall_s = statistics.median(c["wall_s"] / c["ref_s"] for c in paired) * workload.ref_call_s
    metrics = {
        "wall_s": wall_s,
        "iters_per_s": paired[0]["iterations"] / wall_s,
        "setup_s": statistics.median(p / r for p, r in setup) * workload.ref_setup_s,
        "peak_rss_mb": res["peak_rss_mb"],
        "final_test_rmse": statistics.fmean(first_per_dataset.values()),
    }
    return metrics, raw


def per_layer(res: dict) -> dict:
    ok = [c for c in res["calls"] if not c["error"]]
    traced = [c for c in ok if c["traced"]]
    untraced = [c for c in ok if not c["traced"]]
    metrics = {}
    for layer, fields in LAYER_FIELDS:
        for f in fields:
            i = ("calls", "rows", "self_s").index(f)
            metrics[f"{layer}.{f}"] = statistics.median(
                c["layers"].get(layer, [0, 0, 0.0])[i] for c in traced
            )
    metrics["model.forward_peak_mb"] = res["forward_peak_mb"]
    metrics["trace.overhead_s"] = statistics.median(
        faster_half([c["wall_s"] for c in traced])
    ) - statistics.median(faster_half([c["wall_s"] for c in untraced]))
    return metrics


def main() -> int:
    p = argparse.ArgumentParser(description="Run one tskfuzzy benchmark workload.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (SRC / "tskfuzzy" / "__init__.py").is_file():
        print(f"error: no tskfuzzy package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.append(str(REFERENCE_DIR))
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    start = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    wl.write_inputs(OUT, workload, args.seed)
    common = ("--workload", workload.name, "--seed", str(args.seed))
    try:
        if args.trace:
            res = spawn(start, *common, "--mode", "trace",
                        "--budget", str(args.seconds - (time.perf_counter() - start)))
            setup = []
        else:
            for ref in ((), ("--reference",)):  # warm-up: bytecode and page cache
                spawn(start, *common, "--mode", "setup", *ref)
            setup = []
            for i in range(SETUP_PROBES):
                probe = (*common, "--mode", "setup", "--dataset", str(i % workload.datasets))
                order = ((), ("--reference",)) if i % 2 == 0 else (("--reference",), ())
                times = {r: spawn(start, *probe, *r)["setup_s"] for r in order}
                setup.append((times[()], times[("--reference",)]))
            res = spawn(start, *common, "--mode", "measure",
                        "--budget", str(args.seconds - (time.perf_counter() - start)))
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    calls = res["calls"]
    failed = [c for c in calls if c["error"]]
    for c in failed:
        print(f"failed call: {c['error']}", file=sys.stderr)
    ok = [c for c in calls if not c["error"]]
    if not ({c["traced"] for c in ok} == {False, True} if args.trace else any("ref_s" in c for c in ok)):
        print("error: no successful call to measure", file=sys.stderr)
        return 1
    if args.trace:
        metrics, raw, units = per_layer(res), {}, PER_LAYER
    else:
        (metrics, raw), units = end_to_end(setup, res, workload), END_TO_END

    env = dict(res["env"], git_sha=git_sha(), nproc=NPROC, blas_threads=BLAS_THREADS,
               workload=workload.name, seed=args.seed, trace=args.trace)
    (OUT / f"run-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "raw": raw, "setup_probes": setup, "worker": res}, indent=1),
        encoding="utf-8",
    )
    print(json.dumps({"env": env, "raw": raw}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
