"""Model-level behavior: Gaussian grades, grid structure, inference,
initialization, parameter layout, and checkpoint round trips."""

import itertools
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tskfuzzy import (
    SIGMA_MIN,
    Dataset,
    DropMask,
    RuleGrid,
    TrainConfig,
    TskModel,
    finite_diff_grad,
    firing_levels,
    flatten,
    gradients,
    init_model,
    load_model,
    loss,
    make_synthetic,
    param_count,
    predict,
    rule_outputs,
    save_model,
    train,
    trainer,
    unflatten,
)
from tskfuzzy.errors import ConstantFeature, DimensionMismatch, LengthMismatch, ParseError
from tskfuzzy.masks import KEEP_AXES, keep_shape, sample_masks
from tskfuzzy import model as model_module
from tskfuzzy.model import (
    EVAL_BLOCK,
    MAX_INPUTS,
    SIGMA_TINY,
    _forward,
    _log_firing,
    _log_grades,
)


def forward(model, X, variant=None, keep=None):
    """_forward of the rows X, with the log-grades and scratch it takes
    from its caller built here: (norm_firing, pred)."""
    scratch = np.empty(2 * X.shape[0] * model.num_rules)
    return _forward(model, X, variant, keep, _log_grades(model, X), scratch)


def random_model(num_inputs, mfs_per_input, rng):
    grid = RuleGrid(num_inputs, mfs_per_input)
    return TskModel(
        grid,
        rng.standard_normal((num_inputs, mfs_per_input)),
        rng.uniform(0.5, 2.0, (num_inputs, mfs_per_input)),
        rng.standard_normal((grid.num_rules, num_inputs + 1)),
    )


class TestRuleGrid:
    def test_full_grid(self):
        grid = RuleGrid(3, 2)
        assert grid.num_rules == 8
        combos = {tuple(row) for row in grid.antecedents}
        assert len(combos) == 8  # every combination exactly once

    @pytest.mark.parametrize("m, mm", [(1, 1), (1, 3), (3, 3), (5, 2), (5, 4), (6, 1)])
    def test_order_matches_itertools_product(self, m, mm):
        grid = RuleGrid(m, mm)
        want = np.array(list(itertools.product(range(mm), repeat=m)), dtype=np.intp)
        assert grid.antecedents.dtype == np.intp
        np.testing.assert_array_equal(grid.antecedents, want)

    def test_rules_using_partitions_rules(self):
        grid = RuleGrid(3, 2)
        for m in range(3):
            seen = []
            for i in range(2):
                members = grid.rules_using(m, i)
                assert members.size == 2 ** (3 - 1)
                seen.extend(members.tolist())
            assert sorted(seen) == list(range(grid.num_rules))

    def test_more_inputs_than_numpy_axes_refused(self):
        """np.indices holds M + 1 axes and numpy allows 64, so 63 inputs
        build and 64 are refused by name."""
        assert RuleGrid(MAX_INPUTS, 1).antecedents.shape == (1, MAX_INPUTS)
        with pytest.raises(ValueError, match=r"^a rule grid has at most 63 inputs, got M=64$"):
            RuleGrid(64, 1)

    def test_huge_input_count_refused_quickly(self):
        """M = 10**8 is refused before the M-long shape tuple (800 MB) is
        built, in a fresh interpreter that must finish within 10 s."""
        script = (
            "from tskfuzzy import RuleGrid\n"
            "try:\n"
            "    RuleGrid(10**8, 1)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=10
        )
        assert done.stdout == "a rule grid has at most 63 inputs, got M=100000000\n", done


class TestTskModel:
    @pytest.mark.parametrize(
        "centers, sigmas, consequents, message",
        [(np.zeros((1, 2)), np.ones((2, 2)), np.zeros((4, 3)), r"centers/sigmas .* \(2, 2\)"),
         (np.zeros((2, 2)), np.ones((2, 3)), np.zeros((4, 3)), r"centers/sigmas .* \(2, 2\)"),
         (np.zeros((2, 2)), np.ones((2, 2)), np.zeros((4, 2)), r"consequents .* \(4, 3\)"),
         (np.zeros((2, 2)), [[1.0, 0.0], [1.0, 1.0]], np.zeros((4, 3)), "sigmas must be positive"),
         (np.zeros((2, 2)), [[1.0, 1.0], [-1.0, 1.0]], np.zeros((4, 3)), "sigmas must be positive"),
         (np.zeros((2, 2)), [[1.0, 1.0], [1.0, np.nan]], np.zeros((4, 3)),
          "sigmas must be positive"),
         ([[0.0, np.nan], [0.0, 0.0]], np.ones((2, 2)), np.zeros((4, 3)), "centers must be finite"),
         (np.zeros((2, 2)), [[1.0, np.inf], [1.0, 1.0]], np.zeros((4, 3)), "sigmas must be finite"),
         (np.zeros((2, 2)), np.ones((2, 2)), np.full((4, 3), -np.inf),
          "consequents must be finite"),
         (np.zeros((2, 2)), np.ones((2, 2)), [[0.0] * 3] * 3 + [[0.0, 0.0, np.nan]],
          "consequents must be finite")],
        ids=["centers", "sigmas", "consequents", "zero sigma", "negative sigma", "nan sigma",
             "nan center", "infinite sigma", "infinite consequents", "nan consequent"],
    )
    def test_bad_parameters_rejected(self, centers, sigmas, consequents, message):
        with pytest.raises(ValueError, match=message):
            TskModel(RuleGrid(2, 2), centers, sigmas, consequents)


class TestFiringLevels:
    def test_one_at_rule_centers(self):
        rng = np.random.default_rng(0)
        model = random_model(2, 2, rng)
        # place x exactly at the MFs of rule 0
        a = model.grid.antecedents[0]
        x = np.array([model.centers[m, a[m]] for m in range(2)])
        f = firing_levels(model, x)
        assert f[0] == 1.0
        assert np.all(f > 0) and np.all(f <= 1.0)

    def test_rule_mask_zeroes_dropped(self):
        rng = np.random.default_rng(1)
        model = random_model(2, 2, rng)
        x = rng.standard_normal(2)
        keep = np.array([False, True, True, True])
        masked = firing_levels(model, x, DropMask("rule", keep))
        unmasked = firing_levels(model, x)
        assert masked[0] == 0.0
        assert np.array_equal(masked[1:], unmasked[1:])

    def test_mf_mask_substitutes_one(self):
        """Dropping one shared MF replaces its grade by 1 in every rule
        using it; verified against brute-force enumeration of the grid."""
        grades = np.array([[0.5, 0.2], [0.8, 0.1]])  # input x MF
        centers = np.sqrt(-2.0 * np.log(grades))  # grade at x = 0 with sigma 1
        grid = RuleGrid(2, 2)
        model = TskModel(grid, centers, np.ones((2, 2)), np.zeros((4, 3)))
        keep = np.array([[False, True], [True, True]])  # drop MF (m=0, i=0)
        f = firing_levels(model, np.zeros(2), DropMask("mf", keep))
        expected = np.empty(4)
        for r, a in enumerate(grid.antecedents):
            val = 1.0
            for m in range(2):
                val *= 1.0 if not keep[m, a[m]] else grades[m, a[m]]
            expected[r] = val
        np.testing.assert_allclose(f, expected, rtol=1e-15)
        assert abs(f[0] - 0.8) < 1e-15  # rule (0, 0) keeps only its second factor

    def test_membership_mask_touches_one_rule(self):
        rng = np.random.default_rng(2)
        model = random_model(2, 2, rng)
        x = rng.standard_normal(2)
        keep = np.ones((4, 2), dtype=bool)
        keep[0, 0] = False
        masked = firing_levels(model, x, DropMask("membership", keep))
        unmasked = firing_levels(model, x)
        assert masked[0] != unmasked[0]
        assert np.array_equal(masked[1:], unmasked[1:])

    def test_all_slots_dropped_gives_one(self):
        rng = np.random.default_rng(3)
        model = random_model(2, 2, rng)
        keep = np.ones((4, 2), dtype=bool)
        keep[2] = False  # empty product for rule 2
        f = firing_levels(model, rng.standard_normal(2), DropMask("membership", keep))
        assert f[2] == 1.0


def slot_log_firing(model, X, variant, keep):
    """Per-slot log-domain reference: every rule's M log-grades gathered as
    [N, R, M] slots (0 where dropped), and their sums in input order (-inf
    for a dropped rule)."""
    A = model.grid.antecedents
    rows = np.arange(model.num_inputs)
    log_mu = -((X[:, :, None] - model.centers) ** 2) / (2.0 * model.sigmas**2)
    slot = log_mu[:, rows, A]
    if variant == "mf":
        slot = np.where(keep[:, rows, A], slot, 0.0)
    elif variant == "membership":
        slot = np.where(keep, slot, 0.0)
    log_f = np.zeros(slot.shape[:2])
    for m in rows:
        log_f = log_f + slot[:, :, m]
    if variant == "rule":
        log_f = np.where(keep, log_f, -np.inf)
    return slot, log_f


def slot_forward(model, X, variant, keep, log_f=None):
    """Reference softmax, shifted by the row maximum, and row dot with
    (1, x), of the per-slot log firing levels or of log_f when given."""
    if log_f is None:
        log_f = slot_log_firing(model, X, variant, keep)[1]
    norm = np.exp(log_f - log_f.max(axis=1, keepdims=True))
    norm = norm / norm.sum(axis=1, keepdims=True)
    out = norm @ model.consequents
    pred = out[:, 0] + (out[:, 1:] * X).sum(axis=1)
    return norm, pred


FORWARD_CASES = dict(
    m=st.integers(1, 6),
    mm=st.integers(1, 4),
    n=st.integers(1, 6),
    variant=st.sampled_from([None, *KEEP_AXES]),
    far=st.floats(0.0, 60.0),
    seed=st.integers(0, 2**32 - 1),
)


def forward_case(m, mm, n, variant, far, seed, sigma=None):
    """A random model (every sigma set to `sigma` if given), n rows with row
    0 pushed `far` widths out, and stacked masks of the variant; rule masks
    keep at least one rule per row, as the softmax of an all-dropped row is
    undefined."""
    rng = np.random.default_rng(seed)
    model = random_model(m, mm, rng)
    if sigma is not None:
        model.sigmas[:] = sigma
    X = rng.standard_normal((n, m))
    X[0] = model.centers[:, 0] + far * model.sigmas[:, 0] * rng.choice([-1.0, 1.0], m)
    keep = None
    if variant is not None:
        keep = rng.random((n, *keep_shape(variant, model.grid))) <= 0.5
    if variant == "rule":
        keep[np.arange(n), rng.integers(0, model.num_rules, n)] = True
    return model, X, keep


class TestTensorProductForward:
    @settings(max_examples=150, deadline=None)
    @given(**FORWARD_CASES)
    def test_matches_slot_sum_and_its_softmax(self, m, mm, n, variant, far, seed):
        """Log firing levels equal the per-slot sums in input order up to
        the order of the M additions: within 2 (M - 1) eps sum_m |slot| per
        entry, with the same -inf entries, and exactly at M = 1. Under
        DropRule and DropMembership, normalized firing and predictions equal
        the reference softmax and row dot of _log_firing's own output bit
        for bit, also on rows pushed `far` widths out, where every grade
        underflows; the per-input softmax of the other two is
        test_per_input_softmax_matches_slot_softmax."""
        model, X, keep = forward_case(m, mm, n, variant, far, seed)
        slot, want = slot_log_firing(model, X, variant, keep)
        log_f = _log_firing(model, _log_grades(model, X), variant, keep)
        dropped = np.isneginf(want)
        np.testing.assert_array_equal(np.isneginf(log_f), dropped)
        tol = 2 * (m - 1) * np.finfo(float).eps * np.abs(slot).sum(axis=2)
        assert np.all(np.abs(log_f[~dropped] - want[~dropped]) <= tol[~dropped])
        if variant in ("rule", "membership"):
            got_norm, got_pred = forward(model, X, variant, keep)
            norm, pred = slot_forward(model, X, variant, keep, log_f)
            np.testing.assert_array_equal(got_norm, norm)
            np.testing.assert_array_equal(got_pred, pred)

    @settings(max_examples=150, deadline=None)
    @given(
        **dict(FORWARD_CASES, far=FORWARD_CASES["far"] | st.sampled_from([1e150, 1e160, 1e300])),
        at_floor=st.booleans(),
    )
    def test_rows_sum_to_one_and_pred_within_kept_outputs(
        self, m, mm, n, variant, far, seed, at_floor
    ):
        """Also on rows `far` widths out and with every sigma at the floor,
        where every grade underflows, and on rows so far out that squared
        distances overflow."""
        model, X, keep = forward_case(m, mm, n, variant, far, seed, SIGMA_MIN if at_floor else None)
        kept = keep if variant == "rule" else np.ones((n, model.num_rules), dtype=bool)
        with np.errstate(over="ignore"):  # as the public entry points hold it
            norm, pred = forward(model, X, variant, keep)
        np.testing.assert_allclose(norm.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.all(norm[~kept] == 0.0)
        out = rule_outputs(model, X)
        design = np.column_stack([np.ones(n), X])
        tol = 1e-12 * (np.abs(design) @ np.abs(model.consequents).T).max(axis=1)
        assert np.all(pred >= np.where(kept, out, np.inf).min(axis=1) - tol)
        assert np.all(pred <= np.where(kept, out, -np.inf).max(axis=1) + tol)


class TestPredict:
    @settings(max_examples=150, deadline=None)
    @given(
        **dict(FORWARD_CASES, variant=st.sampled_from([None, "mf"])), at_floor=st.booleans()
    )
    def test_per_input_softmax_matches_slot_softmax(self, m, mm, n, variant, far, seed, at_floor):
        """predict() multiplies one softmax per input over its log-grades,
        contracting Kronecker factors with the consequents; the training
        forward, unmasked or under DropMF (whose dropped MFs have log-grade
        0), takes the same softmaxes and forms their [N, R] Kronecker
        product; the reference sums each rule's M slots and normalizes the
        [N, R] row. All start from the same log-grades, so they differ by
        rounding alone. Counted in roundings u = eps/2 of S, the row's
        largest |(1, x)| @ |b_r|, with a sum of n terms charged log2 n
        relative to its absolute sum, and p a rule's normalized firing
        (sum_r p |log p| <= log R):
        - Reference: a rule's slots sum in absolute value to at most
          L + |log p|, L being that of the row's dominant rule (up to 1e9
          with every sigma at the floor). The M - 1 additions, the shift and
          the exp put its weight off by (M - 1) L + M |log p| + 1, the row
          sum repeats that on average, and the divide, the dot over R and the
          row dot with (1, x) follow: 2 (M - 1) L + 2M log R + 2 log2 R + M + 5.
        - predict: an input's shifted log-grade d has |d| <= |log q| for its
          softmax q, so the shift, the exp, the sum (at most 2 Mm: Mm - 1
          additions and terms off by |d| e^d <= 1/e) and the divide put q off
          by |log q| + 2 Mm + 2. The M products that form p b_r (Kronecker
          factors, a @ C, the einsum) add M, sum_m |log q_m| = |log p|, and
          the dots over Ra and Rb rules add log2 Ra + log2 Rb = log2 R:
          log R + M (2 Mm + 3) + log2 R + M + 1.
        - Forward: the same softmaxes; the M - 1 Kronecker products and
          p_r b_r are again M products, and the dot over R rules adds
          log2 R, so its count is predict's.
        Either path and the reference together stay within 2 (M - 1) L +
        (2M + 1) log R + 3 log2 R + 2M Mm + 5M + 6, which is below the limit
        4 (M (L + Mm + log R) + log2 R + M + 2) u term by term, as
        M <= 2M Mm."""
        sigma = SIGMA_MIN if at_floor else None
        model, X, keep = forward_case(m, mm, n, variant, far, seed, sigma)
        slot, log_f = slot_log_firing(model, X, variant, keep)
        want = slot_forward(model, X, variant, keep, log_f)[1]
        L = np.abs(slot).sum(axis=2).min(axis=1)
        R = model.num_rules
        scale = (np.abs(np.column_stack([np.ones(n), X])) @ np.abs(model.consequents).T).max(axis=1)
        tol = 2 * np.finfo(float).eps * (m * (L + mm + np.log(R)) + np.log2(R) + m + 2) * scale
        got = [forward(model, X, variant, keep)[1]]
        if variant is None:
            got.append(predict(model, X))
        for pred in got:
            assert np.all(np.abs(pred - want) <= tol)

    def test_peak_memory_below_one_firing_matrix(self):
        """predict contracts the per-input grades with the consequents, so at
        R=1024 rules and 1050 rows it allocates less at its peak than one
        [N, R] float64 array (8.6 MB) would take."""
        rng = np.random.default_rng(8)
        model = random_model(5, 4, rng)
        X = rng.standard_normal((1050, 5))
        predict(model, X)
        tracemalloc.start()
        try:
            predict(model, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.shape[0] * model.num_rules * X.itemsize

    def test_peak_memory_is_bounded_in_rows(self):
        """predict works through its rows in blocks of EVAL_BLOCK // R rows,
        so four blocks' worth of rows peak no higher than about one block."""
        rng = np.random.default_rng(10)
        model = random_model(5, 4, rng)
        block = EVAL_BLOCK // model.num_rules
        X = rng.standard_normal((4 * block, 5))
        peaks = []
        for rows in (X[:block], X):
            predict(model, rows)
            tracemalloc.start()
            try:
                predict(model, rows)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks

    def test_peak_memory_grows_by_at_most_two_floats_per_row(self):
        """Each block computes its own log-grades, so past the outputs (one
        float per row) predict's peak does not grow with the rows: ten
        times the rows at R=1024 add at most 16 bytes per row. An
        [M, Mm, N] log-grade array of all rows would add 160."""
        rng = np.random.default_rng(13)
        model = random_model(5, 4, rng)
        X = rng.standard_normal((40_960, 5))
        peaks = []
        for rows in (X[:4096], X):
            predict(model, rows)
            tracemalloc.start()
            try:
                predict(model, rows)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 16 * (X.shape[0] - 4096), peaks

    @pytest.mark.parametrize("m, mm, n", [(5, 4, 2500), (3, 3, 700)])
    def test_blocks_agree_with_the_training_forward(self, monkeypatch, m, mm, n):
        """2500 rows at R=1024 are three blocks; at R=27 a small EVAL_BLOCK
        makes 700 rows 19 blocks of 36 or 37. The two paths round apart, so
        the limit is relative to the largest output."""
        rng = np.random.default_rng(11)
        model = random_model(m, mm, rng)
        X = rng.standard_normal((n, m))
        if model.num_rules < 1024:
            monkeypatch.setattr(model_module, "EVAL_BLOCK", 1000)
        want = forward(model, X)[1]
        np.testing.assert_allclose(predict(model, X), want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_one_row_is_never_split(self, monkeypatch):
        """With a block budget below R, every row is its own block, and a
        single row, 1-D or not, is one block; a 1-D row gives a float."""
        rng = np.random.default_rng(12)
        model = random_model(3, 2, rng)
        X = rng.standard_normal((5, 3))
        want = forward(model, X)[1]
        monkeypatch.setattr(model_module, "EVAL_BLOCK", 1)
        blocks = []
        real = model_module._predict_rows

        def counting(model, rows, *args):
            blocks.append(rows.shape[0])
            return real(model, rows, *args)

        monkeypatch.setattr(model_module, "_predict_rows", counting)
        single = predict(model, X[0])
        assert type(single) is float and blocks == [1]
        assert predict(model, X[:1]).shape == (1,) and blocks == [1, 1]
        np.testing.assert_allclose(predict(model, X), want, rtol=1e-12)
        assert blocks == [1] * 7
        assert single == pytest.approx(want[0], rel=1e-12)

    def test_droprule_gradient_peak_memory(self, monkeypatch):
        """The training counterpart: a DropRule gradient on 64 rows at R=1024
        and keep 0.5 holds the normalized firing and one shared scratch
        [64, R] buffer, so its peak stays below 2.5 such float64 arrays. The
        same bound holds for what train() itself allocates between drawing a
        batch's mask and the end of the gradient kernel: the batch rows, the
        mask resolution, and anything it would hold across the kernel."""
        rng = np.random.default_rng(9)
        model = random_model(5, 4, rng)
        X = rng.standard_normal((64, 5))
        y = rng.standard_normal(64)
        limit = 2.5 * X.shape[0] * model.num_rules * X.itemsize
        masks = sample_masks("rule", model.grid, 64, 0.5, rng)
        gradients(model, X, y, 0.05, masks)
        tracemalloc.start()
        try:
            gradients(model, X, y, 0.05, masks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit

        base, peaks = [], []
        draw, kernel = trainer.draw_masks, trainer._gradients

        def drawn(*args):
            for out in draw(*args):
                tracemalloc.reset_peak()
                base.append(tracemalloc.get_traced_memory()[0])
                yield out

        def measured(*args):
            out = kernel(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - base[-1])
            return out

        monkeypatch.setattr(trainer, "draw_masks", drawn)
        monkeypatch.setattr(trainer, "_gradients", measured)
        data = make_synthetic(110, seed=3)
        tr, te = Dataset(data.X[:100], data.y[:100]), Dataset(data.X[100:], data.y[100:])
        tracemalloc.start()
        try:
            train(TrainConfig(mfs_per_input=4, iterations=3), tr, te)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 3 and max(peaks) < limit, peaks

    def test_single_rule_returns_its_output(self):
        grid = RuleGrid(1, 1)
        model = TskModel(grid, [[0.2]], [[1.3]], [[0.3, 1.7]])
        for x in (-2.0, 0.0, 1.5):
            assert predict(model, [x]) == 0.3 + 1.7 * x

    def test_equal_consequents_ignore_firing(self):
        rng = np.random.default_rng(4)
        model = random_model(2, 2, rng)
        model.consequents[:] = np.array([1.0, 2.0, -0.5])
        for _ in range(5):
            x = rng.standard_normal(2)
            want = 1.0 + 2.0 * x[0] - 0.5 * x[1]
            assert abs(predict(model, x) - want) < 1e-12 * max(1.0, abs(want))

    def test_symmetric_two_mf_average(self):
        # equal firing on consequents 0 and 1 averages to exactly 0.5
        grid = RuleGrid(1, 2)
        model = TskModel(grid, [[-1.0, 1.0]], [[1.0, 1.0]], [[0.0, 0.0], [1.0, 0.0]])
        f = firing_levels(model, [0.0])
        assert abs(f[0] - math.exp(-0.5)) < 1e-15 and f[0] == f[1]
        assert abs(predict(model, [0.0]) - 0.5) < 1e-15

    def test_underflow_weights_dominant_rule(self):
        grid = RuleGrid(1, 2)
        model = TskModel(
            grid, [[0.0, 1.0]], [[SIGMA_MIN, SIGMA_MIN]], [[4.0, 0.0], [8.0, 0.0]]
        )
        x = np.array([1e3])  # every grade underflows to exactly zero
        assert np.all(firing_levels(model, x) == 0.0)
        assert predict(model, x) == 8.0  # the rule of the nearer MF takes all weight

    def test_overflowing_distance_stays_finite(self):
        grid = RuleGrid(1, 2)
        model = TskModel(grid, [[0.0, 1.0]], [[1.0, 1.0]], [[4.0, 0.0], [8.0, 0.0]])
        assert predict(model, [1e160]) == 6.0  # both squared distances overflow: a tie
        grid = RuleGrid(2, 2)
        consequents = [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [3.0, 0.0, 0.0], [4.0, 0.0, 0.0]]
        model = TskModel(grid, [[0.0, 1.0], [0.0, 1.0]], [[1e-4, 1.0], [1.0, 1.0]], consequents)
        # only input 0's narrow MF overflows, so its wide MF takes all of input
        # 0's weight; input 1 keeps its own softmax over log-grades 0 and -0.5
        assert predict(model, [2e152, 0.0]) == 3 + 1 / (1 + math.exp(0.5))
        # loss() runs the same forward, so it sees that prediction exactly
        assert loss(model, [[2e152, 0.0]], [3 + 1 / (1 + math.exp(0.5))]) == 0.0

    def test_overflowing_distance_has_finite_gradient(self):
        """The gradient of what the forward computes: a log-grade held at its
        floor is constant, so its MF gets 0, and no RuntimeWarning is raised
        (pytest turns one into an error)."""
        model = TskModel(RuleGrid(1, 2), [[0.0, 1.0]], [[1.0, 1.0]], [[4.0, 0.0], [8.0, 0.0]])
        X = [[1e160]]
        np.testing.assert_array_equal(gradients(model, X, [6.0], 0.0), 0.0)
        g = gradients(model, X, [0.0], 0.0)  # residual 6 on each rule's half
        np.testing.assert_array_equal(g[:4], finite_diff_grad(model, X, [0.0])[:4])
        np.testing.assert_array_equal(g[:4], 0.0)
        np.testing.assert_allclose(g[4:], [3.0, 3e160, 3.0, 3e160], rtol=1e-15)

    def test_sigma_whose_cube_underflows_is_rejected(self):
        """The forward divides by 2 sigma^2 and the gradient by sigma^3. From
        SIGMA_TINY up neither is 0, so both forwards and the gradient are
        defined (pytest turns a RuntimeWarning into an error); below it the
        model does not construct."""
        grid = RuleGrid(1, 2)
        consequents = [[4.0, 0.0], [8.0, 0.0]]
        with pytest.raises(ValueError, match="smallest sigma 1e-200"):
            TskModel(grid, [[0.0, 1.0]], [[1e-200, 1.0]], consequents)
        model = TskModel(grid, [[0.0, 1.0]], [[SIGMA_TINY, 1.0]], consequents)
        X = np.array([[0.0], [SIGMA_TINY], [0.5], [1e160]])
        assert np.all(np.isfinite(predict(model, X)))
        with np.errstate(over="ignore"):  # as the public entry points hold it
            assert np.all(np.isfinite(forward(model, X)[1]))
        assert np.all(np.isfinite(gradients(model, X, np.zeros(4), 0.05)))

    @pytest.mark.parametrize("width", [1, 3])
    def test_rows_of_the_wrong_width_are_rejected(self, width):
        """A row of width M - 1 or M + 1 would broadcast against the [Mm, M]
        parameters or fail deep inside numpy; every entry point that takes
        rows raises DimensionMismatch instead, as rule_outputs does for a
        scalar or an array of more than two axes. Zero rows of width M are
        an empty batch."""
        grid = RuleGrid(2, 2)
        model = TskModel(grid, [[0, 1], [0, 1]], [[1, 1], [1, 1]], np.arange(12.0).reshape(4, 3))
        X, y = np.full((3, width), 0.5), np.zeros(3)
        rule_masks = DropMask("rule", np.tile(np.arange(4) > 0, (3, 1)))
        calls = [
            lambda: predict(model, X),
            lambda: predict(model, X[0]),
            lambda: loss(model, X, y),
            lambda: gradients(model, X, y),
            lambda: gradients(model, X, y, masks=rule_masks),
            lambda: firing_levels(model, X[0]),
            lambda: rule_outputs(model, X),
            lambda: rule_outputs(model, X[0]),
            lambda: rule_outputs(model, np.zeros((2, 3, 2))),  # would broadcast to [2, 3, R]
            lambda: rule_outputs(model, 0.5),
        ]
        for call in calls:
            with pytest.raises(DimensionMismatch, match="width 2"):
                call()
        assert predict(model, np.empty((0, 2))).shape == (0,)

    def test_scale_invariant_weighting(self):
        rng = np.random.default_rng(5)
        model = random_model(3, 2, rng)
        x = rng.standard_normal(3)
        f = firing_levels(model, x)
        out = rule_outputs(model, x)
        for c in (3.7, 0.004, 250.0):
            scaled = (c * f) @ out / (c * f).sum()
            assert abs(scaled - predict(model, x)) < 1e-12 * max(1.0, abs(scaled))

    def test_normalized_firing_sums_to_one(self):
        rng = np.random.default_rng(6)
        model = random_model(2, 3, rng)
        for _ in range(10):
            f = firing_levels(model, rng.standard_normal(2))
            assert abs(f.sum() / f.sum() - 1.0) == 0.0
            assert abs((f / f.sum()).sum() - 1.0) < 1e-12


class TestInitModel:
    def test_two_mf_centers_at_extremes(self):
        model = init_model([0.0], [10.0], [3.0], 2)
        np.testing.assert_array_equal(model.centers, [[0.0, 10.0]])
        np.testing.assert_array_equal(model.sigmas, [[3.0, 3.0]])

    def test_three_mf_centers_evenly_spaced(self):
        model = init_model([0.0], [10.0], [3.0], 3)
        np.testing.assert_array_equal(model.centers, [[0.0, 5.0, 10.0]])

    def test_consequents_start_at_zero(self):
        model = init_model([0.0, -1.0], [1.0, 4.0], [0.5, 2.0], 2)
        assert model.consequents.shape == (4, 3)
        assert np.all(model.consequents == 0.0)

    def test_rejects_constant_feature(self):
        with pytest.raises(ConstantFeature):
            init_model([1.0, 2.0], [1.0, 3.0], [0.5, 0.5], 2)

    @pytest.mark.parametrize(
        "mins, maxs, stds, error, message",
        [([[0.0]], [[1.0]], [[0.5]], ValueError, "1-D arrays of equal length"),
         ([0.0, 0.0], [1.0], [0.5], ValueError, "1-D arrays of equal length"),
         ([0.0], [1.0], [0.5, 0.5], ValueError, "1-D arrays of equal length"),
         ([0.0, 0.0], [1.0, 1.0], [0.5, 0.0], ConstantFeature, "positive standard deviation"),
         ([0.0], [1.0], [-0.5], ConstantFeature, "positive standard deviation"),
         ([0.0], [np.inf], [1.0], ValueError, "maxs must be finite"),
         ([np.nan, 0.0], [1.0, 1.0], [1.0, 1.0], ValueError, "mins must be finite"),
         ([0.0], [1.0], [np.inf], ValueError, "stds must be finite")],
        ids=["2-d", "short maxs", "long stds", "zero std", "negative std", "infinite max",
             "nan min", "infinite std"],
    )
    def test_bad_statistics_rejected(self, mins, maxs, stds, error, message):
        with pytest.raises(error, match=message):
            init_model(mins, maxs, stds, 2)


class TestParamCount:
    def test_reference_grids(self):
        assert param_count(5, 2) == 212
        assert param_count(4, 2) == 96
        assert param_count(1, 1) == 4

    def test_matches_flatten_length(self):
        rng = np.random.default_rng(7)
        for m, mm in [(1, 2), (2, 2), (3, 2), (2, 3), (1, 1)]:
            model = random_model(m, mm, rng)
            assert flatten(model).size == param_count(m, mm)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            param_count(50, 3)

    @pytest.mark.parametrize("m, mm", [(0, 2), (2, 0), (-3, 1)])
    def test_counts_below_one_rejected(self, m, mm):
        with pytest.raises(ValueError, match="must both be >= 1"):
            param_count(m, mm)

    def test_large_grid_refused_before_the_power(self):
        """From M = 64 on, (M + 1) * 2**M alone passes int64."""
        with pytest.raises(OverflowError, match="M=64, Mm=2"):
            param_count(64, 2)
        assert param_count(10**9, 1) == 3 * 10**9 + 1


class TestFlatten:
    def test_round_trip_identity(self):
        rng = np.random.default_rng(8)
        model = random_model(2, 3, rng)
        back = unflatten(flatten(model), 2, 3)
        np.testing.assert_array_equal(back.centers, model.centers)
        np.testing.assert_array_equal(back.sigmas, model.sigmas)
        np.testing.assert_array_equal(back.consequents, model.consequents)

    def test_bias_offsets(self):
        rng = np.random.default_rng(9)
        m, mm = 2, 2
        model = random_model(m, mm, rng)
        vec = flatten(model)
        for r in range(model.num_rules):
            assert vec[2 * m * mm + r * (m + 1)] == model.consequents[r, 0]

    def test_wrong_length_rejected(self):
        with pytest.raises(LengthMismatch):
            unflatten(np.zeros(11), 2, 2)

    @given(
        m=st.integers(1, 4),
        mm=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(1e-300, 1e300),
    )
    def test_round_trip_any_grid(self, m, mm, seed, scale):
        values = scale * np.random.default_rng(seed).standard_normal(param_count(m, mm))
        n_mf = m * mm
        values[n_mf : 2 * n_mf] = np.abs(values[n_mf : 2 * n_mf]) + SIGMA_MIN
        back = unflatten(values, m, mm)
        assert back.num_inputs == m and back.mfs_per_input == mm
        np.testing.assert_array_equal(flatten(back), values)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        model = random_model(3, 2, rng)
        path = tmp_path / "model.txt"
        save_model(model, path)
        back = load_model(path)
        assert back.num_inputs == 3 and back.mfs_per_input == 2
        np.testing.assert_array_equal(flatten(back), flatten(model))

    @settings(deadline=None)
    @given(
        m=st.integers(1, 4),
        mm=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(1e-300, 1e300),
    )
    def test_round_trip_any_grid(self, m, mm, seed, scale):
        rng = np.random.default_rng(seed)
        model = random_model(m, mm, rng)
        model.consequents *= scale
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.txt"
            save_model(model, path)
            back = load_model(path)
        assert back.num_inputs == m and back.mfs_per_input == mm
        np.testing.assert_array_equal(flatten(back), flatten(model))

    def test_header_format(self, tmp_path):
        model = init_model([0.0], [1.0], [0.5], 2)
        path = tmp_path / "model.txt"
        save_model(model, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "M=1" and lines[1] == "Mm=2"
        assert len(lines) == 2 + param_count(1, 2)

    @pytest.mark.parametrize("text", ["", "M=1\n", "\n  \nM=1\n\n"])
    def test_file_of_fewer_than_two_lines_rejected(self, tmp_path, text):
        path = tmp_path / "model.txt"
        path.write_text(text)
        with pytest.raises(ParseError, match=r"model\.txt: checkpoint must start with 'M=<int>'"):
            load_model(path)

    def test_truncated_file_rejected(self, tmp_path):
        model = init_model([0.0], [1.0], [0.5], 2)
        path = tmp_path / "model.txt"
        save_model(model, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(LengthMismatch):
            load_model(path)

    @pytest.mark.parametrize(
        "header, line",
        [(["M=100000000", "Mm=3"], 1), (["M=" + "7" * 5000, "Mm=2"], 1),
         (["M=1", "Mm=" + "7" * 5000], 2)],
    )
    def test_huge_header_refused_quickly(self, tmp_path, header, line):
        """A parameter count of 3**100000000 takes minutes to compute, and
        int() refuses more than 4300 digits; each is a ParseError naming the
        line, in a fresh interpreter that must finish within 10 s."""
        path = tmp_path / "model.txt"
        path.write_text("\n".join([*header, "0.5"]) + "\n")
        script = (
            "import sys\n"
            "from tskfuzzy import load_model\n"
            "try:\n"
            "    load_model(sys.argv[1])\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__, exc)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            env=env, capture_output=True, text=True, timeout=10,
        )
        assert re.match(rf"ParseError .*model\.txt, line {line}: ", done.stdout), done

    def test_more_inputs_than_a_grid_holds_name_line_one(self, tmp_path):
        """At Mm=1 any M has a small parameter count (2M + M + 1 values), so
        the header check itself refuses M above MAX_INPUTS, before RuleGrid
        would, also when the file holds every value that count asks for."""
        M = 100
        assert M > MAX_INPUTS and param_count(M, 1) == 301
        path = tmp_path / "model.txt"
        values = ["0.0"] * M + ["1.0"] * M + ["0.0"] * (M + 1)
        path.write_text("\n".join([f"M={M}", "Mm=1", *values]) + "\n")
        message = rf"model\.txt, line 1: a rule grid has at most {MAX_INPUTS} inputs, got M={M}"
        with pytest.raises(ParseError, match=message):
            load_model(path)

    # a 1-input, 2-MF checkpoint: M=, Mm=, 2 centers, 2 sigmas, 2 x 2 consequents
    @pytest.mark.parametrize(
        "line, text",
        [(1, "M=x"), (1, "Mm=1"), (2, "Mm=2.5"), (3, "foo"), (3, "nan"), (6, "-inf"),
         (10, "1e999"), (1, "M=0"), (2, "Mm=0"), (1, "M=99"), (5, "-1.0"), (6, "1e-200")],
    )
    def test_bad_line_raises_parse_error_naming_it(self, tmp_path, line, text):
        model = init_model([0.0], [1.0], [0.5], 2)
        path = tmp_path / "model.txt"
        save_model(model, path)
        lines = path.read_text().splitlines()
        lines[line - 1] = text
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=rf"model\.txt, line {line}: .*'{re.escape(text)}'"):
            load_model(path)
