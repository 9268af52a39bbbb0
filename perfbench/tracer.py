"""Span tracer that times the package's layers from outside the package.

install() swaps the module globals through which tskfuzzy.trainer,
tskfuzzy.loss and tskfuzzy.cli call into the other modules (plus the
trainer and cli entry points themselves) for timing wrappers; uninstall()
puts the originals back. The package is not changed. A boundary that no
longer exists is skipped, so its layer reports zero calls.

Each wrapped call records a span (layer, parent span, start, end, rows) in
flat lists kept in memory; summarize() turns the spans of one traced call
into per-layer calls, rows and self time (the span's duration minus the
durations of its child spans), and write_spans() writes them all out once
the measuring is over.
"""

from __future__ import annotations

import importlib
import time
from pathlib import Path

# The package namespace rebinds the name `loss` to the function, so look the
# modules up by their full names.
cli, loss, trainer = (importlib.import_module(f"tskfuzzy.{m}") for m in ("cli", "loss", "trainer"))

# (module, global name, layer, index of the positional argument holding the
# input rows, or None when the layer has no row count)
BOUNDARIES = (
    (trainer, "train", "trainer.loop", None),
    (trainer, "rmse", "trainer.rmse", None),
    (trainer, "sample_batch", "data.sample_batch", None),
    (trainer, "split", "data.preprocess", None),
    (trainer, "fit_preprocessor", "data.preprocess", None),
    (trainer, "apply_preprocessor", "data.preprocess", None),
    (trainer, "sample_rule_mask", "masks.sample", None),
    (trainer, "sample_mf_mask", "masks.sample", None),
    (trainer, "sample_membership_mask", "masks.sample", None),
    (trainer, "init_model_from_data", "model.init", None),
    (trainer, "flatten", "model.flatten", None),
    (trainer, "unflatten", "model.unflatten", None),
    (trainer, "predict", "model.eval_forward", 1),
    (trainer, "gradients", "loss.gradients", None),
    (trainer, "loss", "loss.loss", None),
    (trainer, "adabound_step", "optim.step", None),
    (trainer, "sgd_step", "optim.step", None),
    (trainer, "jang_update_lr", "optim.schedule", None),
    (trainer, "bound_l", "optim.schedule", None),
    (trainer, "bound_u", "optim.schedule", None),
    (trainer, "ridge_fit", "ridge.fit", None),
    (trainer, "ridge_predict", "ridge.predict", None),
    (loss, "_forward", "model.grad_forward", 1),
    (loss, "predict", "model.loss_forward", 1),
    (loss, "flatten", "model.flatten", None),
    (loss, "unflatten", "model.unflatten", None),
    (cli, "main", "cli.main", None),
    (cli, "run_experiment", "cli.run_experiment", None),
    (cli, "load_csv", "data.load_csv", None),
    (cli, "make_synthetic", "data.make_synthetic", None),
    (cli, "run_suite", "trainer.suite", None),
    (cli, "write_history_csv", "trainer.write", None),
    (cli, "percent_improvement", "trainer.write", None),
    (cli, "gradients", "loss.gradients", None),
    (cli, "finite_diff_grad", "loss.finite_diff", None),
)
LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in BOUNDARIES))


def _row_count(args, index) -> int:
    if index is None or index >= len(args):
        return 0
    return args[index].shape[0] if getattr(args[index], "ndim", 1) == 2 else 1


class Tracer:
    def __init__(self):
        self.layer = []
        self.parent = []
        self.start = []
        self.end = []
        self.rows = []
        self.calls = []  # (first span, end span) of each traced call
        self._stack = [-1]
        self._saved = []

    def _wrap(self, fn, layer_id: int, rows_arg):
        layer, parent, start, end, rows, stack = (
            self.layer, self.parent, self.start, self.end, self.rows, self._stack
        )
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            sid = len(start)
            layer.append(layer_id)
            parent.append(stack[-1])
            rows.append(_row_count(args, rows_arg))
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[sid] = t0
                end[sid] = t1

        return wrapped

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, name, layer, rows_arg in BOUNDARIES:
            fn = getattr(module, name, None)
            if fn is None:
                continue
            self._saved.append((module, name, fn))
            setattr(module, name, self._wrap(fn, LAYERS.index(layer), rows_arg))

    def uninstall(self) -> None:
        while self._saved:
            module, name, fn = self._saved.pop()
            setattr(module, name, fn)

    def traced(self, fn, *args):
        """Call fn(*args) with every boundary wrapped; the call's spans form
        one group for summarize()."""
        first = len(self.start)
        self.install()
        try:
            return fn(*args)
        finally:
            self.uninstall()
            self.calls.append((first, len(self.start)))

    def summarize(self, call: int) -> dict:
        """{layer: [calls, rows, self_s]} over the spans of one traced call."""
        lo, hi = self.calls[call]
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += self.end[i] - self.start[i]
        out = {layer: [0, 0, 0.0] for layer in LAYERS}
        for i in range(lo, hi):
            agg = out[LAYERS[self.layer[i]]]
            agg[0] += 1
            agg[1] += self.rows[i]
            agg[2] += self.end[i] - self.start[i] - child[i - lo]
        return out

    def write_spans(self, path: Path) -> None:
        """One CSV row per span; times in seconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        lines = ["call,span,parent,layer,start_s,end_s,rows"]
        for call, (lo, hi) in enumerate(self.calls):
            for i in range(lo, hi):
                lines.append(
                    f"{call},{i},{self.parent[i]},{LAYERS[self.layer[i]]},"
                    f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},{self.rows[i]}"
                )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
