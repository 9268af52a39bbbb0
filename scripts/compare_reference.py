"""Check that training is bit-identical to the package of another source tree.

Trains every stock algorithm of the command line with the package in
src/ and with a reference on the same data, split and seed, and compares
every per-iteration history curve and the final parameters bit for bit
(ridge: the fitted weights and bias). The data is the synthetic problem cut
to each width M of WIDTHS, its first M columns. The reference is the
package in the src/ of the tree given by --against, such as a parent
commit unpacked with `git archive`, imported under the name
tskfuzzy_against. For each array that differs it prints the largest
relative difference and, for a history curve, the first iteration whose
relative difference exceeds 1e-12.

It compares the public entry points predict, loss, gradients and
firing_levels bit for bit on seeded random models and rows, with no mask
and with a mask of each drop variant, since train() calls the private
kernels and so never goes through them, and predict of one model on
rows enough for three unequal EVAL_BLOCK blocks.

It then runs each package's command line three ways on the same inputs:
the suite of every stock algorithm over two repeats (--iterations each) on
a CSV of the synthetic problem widened to 8 columns so that PCA runs, a
ridge-only run on that CSV, and a gradient check of 5 trials. It compares
the exit status and every file written, byte for byte, except the seconds
column of summary.csv, which is a wall-clock time.

    mkdir -p /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent
    python3 scripts/compare_reference.py --against /tmp/parent --mfs 2 3 4 --iterations 100
    python3 scripts/compare_reference.py --against /tmp/parent --mfs 2 --iterations 500

Exits non-zero if any algorithm or command line differs.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import itertools
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import tskfuzzy  # noqa: E402
import tskfuzzy.cli  # noqa: E402

CURVES = ("train_rmse", "test_rmse", "loss", "mean_lr", "min_lr", "max_lr")
# Inputs M of each problem: all five synthetic columns, then the first four,
# three, two and one, so that rounding which depends on M is compared at every
# split of predict's Kronecker factors (at M <= 3 one of them is a view of the
# per-input softmax, and inherits its memory order)
WIDTHS = (5, 4, 3, 2, 1)


def load_tree(tree: Path):
    """The package in tree/src/tskfuzzy, with its cli module, imported as
    tskfuzzy_against so that it loads beside this tree's tskfuzzy."""
    pkg_dir = tree / "src" / "tskfuzzy"
    if not (pkg_dir / "__init__.py").is_file():
        raise SystemExit(f"{tree} has no src/tskfuzzy package")
    spec = importlib.util.spec_from_file_location(
        "tskfuzzy_against", pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)]
    )
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = pkg
    spec.loader.exec_module(pkg)
    importlib.import_module("tskfuzzy_against.cli")
    return pkg


def prepared(pkg, rows: int, seed: int, width: int):
    data = pkg.make_synthetic(rows, seed=seed)
    data = pkg.Dataset(data.X[:, :width], data.y)
    tr, te = pkg.split(data, 0.7, np.random.default_rng(seed))
    pre = pkg.fit_preprocessor(tr)
    return pkg.apply_preprocessor(pre, tr), pkg.apply_preprocessor(pre, te)


def run(pkg, name: str, overrides: dict, rows: int, seed: int, width: int) -> dict:
    """Every array one algorithm produces, keyed by a readable name."""
    cfg = pkg.cli.algorithm_config(name, overrides)
    tr, te = prepared(pkg, rows, seed, width)
    if isinstance(cfg, pkg.RidgeConfig):
        lin = pkg.ridge_fit(tr.X, tr.y, cfg.lam)
        return {"weights": lin.weights, "bias": np.array([lin.bias])}
    model, hist = pkg.train(cfg, tr, te)
    out = {c: getattr(hist, c) for c in CURVES}
    out["theta"] = pkg.flatten(model)
    return out


def seeded_model(pkg, m: int, mm: int, rng):
    """A pkg.TskModel of m inputs and mm MFs each, drawn from rng: normal
    centers and consequents, sigmas uniform in [0.5, 2)."""
    grid = pkg.RuleGrid(m, mm)
    return pkg.TskModel(
        grid, rng.standard_normal((m, mm)), rng.uniform(0.5, 2.0, (m, mm)),
        rng.standard_normal((grid.num_rules, m + 1)),
    )


def public_outputs(pkg, seed: int) -> dict:
    """Every public entry point's output on seeded random models, five of
    each of M = 1 to 5 inputs and Mm = 2 or 3 MFs, and on 12 rows, keyed by a
    readable name: predict of the rows and of the first as a 1-D row, and
    loss, gradients and firing_levels of the first two rows with no mask
    and with a mask of each drop variant (keeping at least one rule per
    DropRule row, as the masked loss requires); and predict of one model
    at M=5, Mm=4 (R=1024) on 2,500 rows, which it evaluates in three
    blocks of 834, 833 and 833 rows."""
    rng = np.random.default_rng((seed, 5, 4))
    model = seeded_model(pkg, 5, 4, rng)
    X = 2.0 * rng.standard_normal((2500, 5))
    out = {"M=5 Mm=4 predict of 2500 rows": pkg.predict(model, X)}
    for m, mm, k in itertools.product(range(1, 6), (2, 3), range(5)):
        rng = np.random.default_rng((seed, m, mm, k))
        model = seeded_model(pkg, m, mm, rng)
        X, y = 2.0 * rng.standard_normal((12, m)), rng.standard_normal(12)
        name = f"M={m} Mm={mm} #{k}"
        out[f"{name} predict"] = pkg.predict(model, X)
        out[f"{name} predict of one row"] = np.array(pkg.predict(model, X[0]))
        for variant in ("none", "rule", "mf", "membership"):
            masks = None
            if variant != "none":
                keep = rng.random((len(X), *pkg.masks.keep_shape(variant, model.grid))) <= 0.5
                if variant == "rule":
                    keep[np.arange(len(X)), rng.integers(0, model.num_rules, len(X))] = True
                masks = pkg.DropMask(variant, keep)
            key = f"{name} {variant}"
            out[f"{key} loss"] = np.array(pkg.loss(model, X, y, 0.05, masks))
            out[f"{key} gradients"] = pkg.gradients(model, X, y, 0.05, masks)
            for i in range(2):
                mask = None if masks is None else pkg.DropMask(variant, masks.keep[i])
                out[f"{key} firing_levels of row {i}"] = pkg.firing_levels(model, X[i], mask)
    return out


def describe(key: str, new: np.ndarray, ref: np.ndarray) -> str:
    """key with its largest relative difference and, for a history curve,
    the first iteration (from 1) whose relative difference exceeds 1e-12."""
    rel = np.abs(new - ref) / np.maximum(np.abs(ref), np.finfo(float).tiny)
    text = f"{key} (max rel {rel.max():.1e}"
    if key in CURVES:
        above = np.flatnonzero(rel > 1e-12)
        text += f", > 1e-12 from iteration {above[0] + 1}" if above.size else ", all <= 1e-12"
    return text + ")"


def command_lines(csv: Path, iterations: int, seed: int) -> dict:
    """The compared command lines, by name; each gets its own --out."""
    data = ["--data", str(csv), "--target", "y", "--repeats", "2", "--seed", str(seed)]
    return {
        "suite": [*data, "--algos", ",".join(tskfuzzy.cli.ALGORITHMS),
                  "--set", f"iterations={iterations}"],
        "RR-only": [*data, "--algos", "RR"],
        "grad-check": ["--grad-check", "--set", "trials=5", "--seed", str(seed)],
    }


def write_widened_csv(path: Path, rows: int, seed: int) -> None:
    """The synthetic problem plus three noisy copies of x1..x3, so that the
    8 input columns go through PCA down to 5."""
    data = tskfuzzy.make_synthetic(rows, seed=seed)
    noise = np.random.default_rng(seed).standard_normal((rows, 3))
    table = np.column_stack([data.X, data.X[:, :3] + 0.1 * noise, data.y])
    header = ",".join([f"x{j + 1}" for j in range(8)] + ["y"])
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header, comments="")


def cli_output(pkg, argv: list, out: Path) -> dict:
    """Run pkg's cli.main with --out out; returns its exit status and the
    text of every file it wrote, summary.csv without its seconds column."""
    with contextlib.redirect_stdout(io.StringIO()):
        written = {"exit status": str(pkg.cli.main([*argv, "--out", str(out)]))}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        text = path.read_text(encoding="utf-8")
        if path.name == "summary.csv":
            text = "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())
        written[str(path.relative_to(out))] = text
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mfs", type=int, nargs="+", default=[2, 3, 4])
    parser.add_argument("--iterations", type=int, default=100)
    parser.add_argument("--rows", type=int, default=1500)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--against",
        type=Path,
        required=True,
        metavar="TREE",
        help="root of a source tree whose src/tskfuzzy is the reference",
    )
    args = parser.parse_args(argv)
    reference = load_tree(args.against.resolve())

    failures = 0
    for width, mm in itertools.product(WIDTHS, args.mfs):
        overrides = {"mfs_per_input": mm, "iterations": args.iterations, "seed": args.seed}
        for name in tskfuzzy.cli.ALGORITHMS:
            t0 = time.perf_counter()
            new = run(tskfuzzy, name, overrides, args.rows, args.seed, width)
            t1 = time.perf_counter()
            ref = run(reference, name, overrides, args.rows, args.seed, width)
            t2 = time.perf_counter()
            differ = [k for k in ref if not np.array_equal(new[k], ref[k])]
            failures += bool(differ)
            verdict = "identical" if not differ else "DIFFERS in " + ", ".join(
                describe(k, new[k], ref[k]) for k in differ
            )
            print(
                f"M={width} Mm={mm} {name:<20} {verdict}  "
                f"({t1 - t0:.2f} s vs reference {t2 - t1:.2f} s)",
                flush=True,
            )

    t0 = time.perf_counter()
    new = public_outputs(tskfuzzy, args.seed)
    t1 = time.perf_counter()
    ref = public_outputs(reference, args.seed)
    t2 = time.perf_counter()
    differ = [k for k in ref if not np.array_equal(new[k], ref[k])]
    failures += bool(differ)
    verdict = f"{len(ref)} outputs identical"
    if differ:  # the first three, as one change may touch every output
        verdict = f"DIFFERS in {len(differ)} of {len(ref)} outputs, such as " + ", ".join(
            describe(k, new[k], ref[k]) for k in differ[:3]
        )
    print(f"public entry points {verdict}  ({t1 - t0:.2f} s vs reference {t2 - t1:.2f} s)",
          flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_widened_csv(tmp / "data.csv", args.rows, args.seed)
        for label, cmd in command_lines(tmp / "data.csv", args.iterations, args.seed).items():
            t0 = time.perf_counter()
            new = cli_output(tskfuzzy, cmd, tmp / "new" / label)
            t1 = time.perf_counter()
            ref = cli_output(reference, cmd, tmp / "ref" / label)
            t2 = time.perf_counter()
            differ = sorted(k for k in new.keys() | ref.keys() if new.get(k) != ref.get(k))
            failures += bool(differ)
            verdict = "identical" if not differ else "DIFFERS in " + ", ".join(differ)
            print(
                f"cli {label:<16} {len(ref) - 1} files {verdict}  "
                f"({t1 - t0:.2f} s vs reference {t2 - t1:.2f} s)",
                flush=True,
            )
    print("all identical" if not failures else f"{failures} runs differ")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
