"""One fresh interpreter of the tskfuzzy benchmark.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE [--budget S] [--reference]

Modes:
  setup    time the set-up once: import tskfuzzy, data generation or CSV
           load, split, fit_preprocessor and apply_preprocessor. With
           --reference, the same set-up done by the frozen reference copy
           (tskfuzzy_ref) instead.
  measure  set up and run the measured call once per dataset with tracing
           off (the warm-up round, after which the peak RSS is read); then
           run pairs of one measured call and the same call made by the
           reference copy (alternating which goes first) until --budget
           seconds have passed since start.
  trace    set up, then run pairs of one untraced and one traced call on the
           same inputs (alternating which goes first) until the budget is
           spent; the traced spans are written out at the end.

Every measured call's outputs are checked, and every call on a dataset
must repeat the first call's history bit for bit. The last line of
standard output is one JSON object.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
sys.path.insert(0, str(SRC))
sys.path.append(str(REFERENCE_DIR))

# The timed set-up starts with importing the package copy it is done with.
SETUP_PACKAGE = "tskfuzzy_ref" if "--reference" in sys.argv else "tskfuzzy"
importlib.import_module(SETUP_PACKAGE)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads as wl  # noqa: E402

OUT = ROOT / ".perfbench_out"
MIN_PAIRS = 2


def call_once(workload, seed, inputs, pkg, tracer=None) -> dict:
    """Run the measured call once, time it, and check what it produced."""
    if workload.kind == "cli":
        out = wl.fresh_dir(OUT / "runs" / workload.name)
        fn, args = wl.run_cli, (workload, seed, inputs, out, pkg)
    else:
        fn, args = wl.run_train, (workload, seed, inputs, pkg)
    record = {"k": inputs.k, "traced": tracer is not None,
              "iterations": workload.iterations_per_call(), "error": None}
    t = time.perf_counter()
    try:
        result = tracer.traced(fn, *args) if tracer else fn(*args)
        record["wall_s"] = time.perf_counter() - t
        if workload.kind == "cli":
            outcome = wl.check_cli(workload, out, result)
        else:
            outcome = wl.check_train(workload, inputs, result, pkg)
    except Exception as exc:  # a failed call is counted and the run goes on
        record.setdefault("wall_s", time.perf_counter() - t)
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
    record["final_test_rmse"] = outcome.final_test_rmse
    record["digest"] = outcome.digest
    return record


def time_reference(workload, seed, inputs, ref) -> float:
    """Wall time of the measured call made by the reference copy."""
    out = wl.fresh_dir(OUT / "runs" / f"{workload.name}-reference") if workload.kind == "cli" else None
    t = time.perf_counter()
    if out is None:
        wl.run_train(workload, seed, inputs, ref)
    elif wl.run_cli(workload, seed, inputs, out, ref) != 0:
        raise RuntimeError("the reference copy's cli.main failed")
    return time.perf_counter() - t


def check_repeats(calls: list) -> None:
    """Every call on a dataset must reproduce the first call's history."""
    first = {}
    for c in calls:
        if c["error"]:
            continue
        ref = first.setdefault(c["k"], c)
        if c["digest"] != ref["digest"]:
            kind = "traced" if c["traced"] != ref["traced"] else "repeated"
            c["error"] = f"{kind} call on dataset {c['k']} changed the history"


def forward_peak_mb(workload, inputs, pkg) -> float:
    """tracemalloc peak of one full-train-set forward."""
    model = pkg.top.init_model_from_data(inputs.train.X, workload.mfs_per_input)
    tracemalloc.start()
    try:
        pkg.top.predict(model, inputs.train.X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    p.add_argument("--dataset", type=int, default=0, help="dataset index for --mode setup")
    p.add_argument("--budget", type=float, default=0.0, help="seconds, counted from start")
    p.add_argument("--reference", action="store_true", help="set up with the reference copy")
    args = p.parse_args()
    if args.reference and args.mode != "setup":
        p.error("--reference applies to --mode setup only")
    pkg = wl.Package(SETUP_PACKAGE)
    where = (REFERENCE_DIR if args.reference else SRC) / SETUP_PACKAGE
    if Path(pkg.top.__file__).resolve().parent != where:
        print(f"imported {SETUP_PACKAGE} from {pkg.top.__file__}, not from {where}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    first = wl.prepare(OUT, workload, args.seed, args.dataset if args.mode == "setup" else 0, pkg)
    setup_s = time.perf_counter() - T0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    datasets = [first] + [wl.prepare(OUT, workload, args.seed, k, pkg) for k in range(1, workload.datasets)]
    deadline = T0 + args.budget
    calls = []
    result = {"setup_s": setup_s, "env": environment()}
    if args.mode == "measure":
        for inputs in datasets:
            calls.append(call_once(workload, args.seed, inputs, pkg))
        result["peak_rss_mb"] = peak_rss_mb()  # the program's, before the reference copy runs
        ref = wl.Package(wl.REFERENCE)
        ref_datasets = [wl.prepare(OUT, workload, args.seed, k, ref) for k in range(workload.datasets)]
        time_reference(workload, args.seed, ref_datasets[0], ref)  # warm-up
        pair = 0
        while pair < MIN_PAIRS or time.perf_counter() < deadline:
            k = pair % len(datasets)
            if pair % 2:
                ref_s = time_reference(workload, args.seed, ref_datasets[k], ref)
                call = call_once(workload, args.seed, datasets[k], pkg)
            else:
                call = call_once(workload, args.seed, datasets[k], pkg)
                ref_s = time_reference(workload, args.seed, ref_datasets[k], ref)
            call["ref_s"] = ref_s
            calls.append(call)
            pair += 1
    else:
        from tracer import Tracer

        tracer = Tracer()
        pair = 0
        while pair < MIN_PAIRS or time.perf_counter() < deadline:
            inputs = datasets[pair % len(datasets)]
            for traced in ((False, True) if pair % 2 == 0 else (True, False)):
                calls.append(call_once(workload, args.seed, inputs, pkg, tracer if traced else None))
            pair += 1
        for c, group in zip((c for c in calls if c["traced"]), range(len(tracer.calls))):
            c["layers"] = tracer.summarize(group)
        result["forward_peak_mb"] = forward_peak_mb(workload, first, pkg)
        tracer.write_spans(OUT / f"spans-{workload.name}.csv")
    check_repeats(calls)
    result["calls"] = calls
    result.setdefault("peak_rss_mb", peak_rss_mb())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
