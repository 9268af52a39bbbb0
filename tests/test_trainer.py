"""Training-loop behavior: metrics, bit-exact reductions between
configurations, determinism, divergence, and the repeated-experiment suite."""

import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tskfuzzy import (
    SIGMA_MIN,
    Dataset,
    RuleGrid,
    JangLrState,
    MomentState,
    RidgeConfig,
    TrainConfig,
    adabound_step,
    apply_preprocessor,
    bound_l,
    bound_u,
    fit_preprocessor,
    flatten,
    gradients,
    init_model,
    init_model_from_data,
    jang_update_lr,
    loss,
    make_synthetic,
    percent_improvement,
    predict,
    ridge_fit,
    ridge_predict,
    rmse,
    run_suite,
    sample_batch,
    sample_masks,
    sgd_step,
    split,
    train,
    trainer,
    unflatten,
)
from tskfuzzy import model as model_module
from tskfuzzy.errors import (
    DimensionMismatch,
    Diverged,
    EmptyDataset,
    EmptyTrainingSet,
    GridTooLarge,
    LengthMismatch,
    TooSmall,
    ZeroBaseline,
)


@pytest.fixture(scope="module")
def small_splits():
    data = make_synthetic(300, seed=5)
    tr, te = split(data, 0.7, np.random.default_rng(0))
    pre = fit_preprocessor(tr)
    return apply_preprocessor(pre, tr), apply_preprocessor(pre, te)


def quick(**kw):
    base = dict(iterations=40, batch_size=16, seed=123)
    base.update(kw)
    return TrainConfig(**base)


def assert_histories_identical(a, b):
    np.testing.assert_array_equal(a.train_rmse, b.train_rmse)
    np.testing.assert_array_equal(a.test_rmse, b.test_rmse)
    np.testing.assert_array_equal(a.loss, b.loss)
    np.testing.assert_array_equal(a.mean_lr, b.mean_lr)


class TestRmse:
    def test_perfect_predictor(self):
        model = init_model([0.0], [1.0], [0.5], 2)
        d = Dataset(np.array([[0.2], [0.8]]), np.zeros(2))
        assert rmse(model, d) == 0.0

    def test_constant_zero_predictor(self):
        model = init_model([0.0], [1.0], [0.5], 2)
        d = Dataset(np.array([[0.2], [0.8]]), np.array([3.0, -3.0]))
        assert rmse(model, d) == 3.0

    def test_hand_residuals(self):
        model = init_model([0.0], [1.0], [0.5], 2)
        d = Dataset(np.array([[0.1], [0.4], [0.6], [0.9]]), np.array([1.0, 2.0, 2.0, 1.0]))
        assert abs(rmse(model, d) - 1.5811388300841898) < 1e-15  # sqrt(10/4)

    def test_empty(self):
        model = init_model([0.0], [1.0], [0.5], 2)
        with pytest.raises(EmptyDataset):
            rmse(model, Dataset(np.empty((0, 1)), np.empty(0)))


class TestPercentImprovement:
    def test_equal_curves_zero(self):
        np.testing.assert_array_equal(percent_improvement([2.0, 2.0], [2.0, 2.0]), [0.0, 0.0])

    def test_quarter_better(self):
        np.testing.assert_allclose(percent_improvement([2.0], [1.5]), [25.0])

    def test_degradation_is_negative(self):
        assert percent_improvement([2.0], [2.5])[0] < 0

    def test_zero_baseline(self):
        with pytest.raises(ZeroBaseline):
            percent_improvement([0.0, 1.0], [1.0, 1.0])

    def test_curves_of_different_shapes(self):
        with pytest.raises(LengthMismatch, match=r"\(2,\) vs \(3,\)"):
            percent_improvement([1.0, 2.0], [1.0, 2.0, 3.0])


class TestTrain:
    def test_zero_iterations_returns_init(self, small_splits):
        tr, te = small_splits
        model, hist = train(quick(iterations=0), tr, te)
        assert np.all(model.consequents == 0.0)
        assert np.all(predict(model, te.X) == 0.0)
        assert len(hist.test_rmse) == 0
        # fresh init predicts zero, so its error is the RMS of centered targets
        assert abs(rmse(model, te) - np.sqrt(np.mean(te.y**2))) < 1e-12

    def test_empty_training_set(self, small_splits):
        _, te = small_splits
        with pytest.raises(EmptyTrainingSet):
            train(quick(), Dataset(np.empty((0, 5)), np.empty(0)), te)

    def test_single_row_training_set(self, small_splits):
        """One row has no sample standard deviation to set the MF widths:
        refused by name, before numpy would warn of no degrees of freedom."""
        tr, te = small_splits
        with pytest.raises(TooSmall, match="at least 2 training rows, got 1"):
            train(quick(), Dataset(tr.X[:1], tr.y[:1]), te)

    def test_history_lengths_and_finiteness(self, small_splits):
        tr, te = small_splits
        _, hist = train(quick(), tr, te)
        for curve in (hist.train_rmse, hist.test_rmse, hist.loss, hist.mean_lr):
            assert len(curve) == 40
            assert np.all(np.isfinite(curve))

    def test_deterministic_given_seed(self, small_splits):
        tr, te = small_splits
        _, h1 = train(quick(), tr, te)
        _, h2 = train(quick(), tr, te)
        assert_histories_identical(h1, h2)

    def test_all_keep_rule_drop_equals_no_drop(self, small_splits):
        """Keep probability 1 consumes the mask stream but changes nothing:
        the history is bit-identical to a maskless run on the same seed."""
        tr, te = small_splits
        _, h_rule = train(quick(drop_variant="rule", keep_prob=1.0, lam=0.0), tr, te)
        _, h_none = train(quick(drop_variant="none", lam=0.0), tr, te)
        assert_histories_identical(h_rule, h_none)

    @pytest.mark.parametrize("variant", ["rule", "mf", "membership"])
    def test_all_keep_mask_equals_no_drop(self, variant):
        """A batch mask that keeps everything takes the unmasked path, so
        every history curve and the final model are bit-identical to the
        maskless run, whatever the variant and grid."""
        data = make_synthetic(400, seed=3)
        tr, te = split(data, 0.7, np.random.default_rng(0))
        pre = fit_preprocessor(tr)
        tr, te = apply_preprocessor(pre, tr), apply_preprocessor(pre, te)
        for mm in (2, 3):
            cfg = TrainConfig(mfs_per_input=mm, iterations=80, batch_size=32, seed=99, lam=0.0)
            keep_all = dataclasses.replace(cfg, drop_variant=variant, keep_prob=1.0)
            m_drop, h_drop = train(keep_all, tr, te)
            m_none, h_none = train(dataclasses.replace(cfg, drop_variant="none"), tr, te)
            assert_histories_identical(h_drop, h_none)
            np.testing.assert_array_equal(h_drop.min_lr, h_none.min_lr)
            np.testing.assert_array_equal(h_drop.max_lr, h_none.max_lr)
            np.testing.assert_array_equal(flatten(m_drop), flatten(m_none))

    def test_all_keep_reduction_with_jang(self, small_splits):
        tr, te = small_splits
        _, h_rd = train(quick(drop_variant="rule", keep_prob=1.0, lr_scheme="jang"), tr, te)
        _, h_r = train(quick(drop_variant="none", lr_scheme="jang"), tr, te)
        assert_histories_identical(h_rd, h_r)

    def test_zero_lambda_reduction(self, small_splits):
        tr, te = small_splits
        _, h_r0 = train(quick(lam=0.0, drop_variant="none", lr_scheme="jang"), tr, te)
        _, h_plain = train(
            dataclasses.replace(quick(lam=0.0, drop_variant="none", lr_scheme="jang")), tr, te
        )
        assert_histories_identical(h_r0, h_plain)

    def test_adabound_rates_within_bounds(self, small_splits):
        tr, te = small_splits
        cfg = quick()
        _, hist = train(cfg, tr, te)
        assert hist.min_lr is not None
        from tskfuzzy import bound_l, bound_u

        for k in range(1, 41):
            assert hist.min_lr[k - 1] >= bound_l(k, cfg.beta2, cfg.alpha_final) - 1e-15
            assert hist.max_lr[k - 1] <= bound_u(k, cfg.beta2, cfg.alpha_final) + 1e-15

    def test_batch_larger_than_dataset_clamped(self):
        data = make_synthetic(40, seed=9)
        tr, te = split(data, 0.7, np.random.default_rng(0))
        pre = fit_preprocessor(tr)
        trp, tep = apply_preprocessor(pre, tr), apply_preprocessor(pre, te)
        _, hist = train(TrainConfig(iterations=5, batch_size=1000, seed=0), trp, tep)
        assert np.all(np.isfinite(hist.loss))

    def test_sigma_floor_holds(self, small_splits):
        from tskfuzzy import SIGMA_MIN

        tr, te = small_splits
        model, _ = train(quick(iterations=80, alpha=0.5, lr_scheme="jang"), tr, te)
        assert np.all(model.sigmas >= SIGMA_MIN)

    def test_descends_on_noiseless_linear_target(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((400, 3))
        y = X @ np.array([1.0, -2.0, 0.5])
        data = Dataset(X, y)
        tr, te = split(data, 0.7, np.random.default_rng(1))
        pre = fit_preprocessor(tr)
        trp, tep = apply_preprocessor(pre, tr), apply_preprocessor(pre, te)
        _, hist = train(TrainConfig(seed=2), trp, tep)
        assert hist.train_rmse[-1] < hist.train_rmse[0]

    @pytest.mark.parametrize("scheme", ["jang", "adabound"])
    def test_batch_loss_is_unmasked_loss_before_the_step(self, small_splits, scheme):
        """loss[k] is loss() of the model after k iterations on batch k,
        though the trainer takes it from its last train-set evaluation, on
        every batch of 20 training seeds."""
        tr, te = small_splits
        for seed in range(20):
            cfg = quick(lr_scheme=scheme, iterations=6, seed=seed)
            _, hist = train(cfg, tr, te)
            batch_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0])
            for k in range(cfg.iterations):
                idx = sample_batch(tr, cfg.batch_size, batch_rng)
                model_k, _ = train(dataclasses.replace(cfg, iterations=k), tr, te)
                assert hist.loss[k] == loss(model_k, tr.X[idx], tr.y[idx], cfg.lam), (seed, k)

    @pytest.mark.parametrize("keep_prob", [-1.0, 0.0, 1.5, float("nan")])
    def test_keep_prob_outside_unit_interval_rejected(self, small_splits, keep_prob):
        tr, te = small_splits
        with pytest.raises(ValueError, match="keep_prob"):
            train(quick(keep_prob=keep_prob), tr, te)

    @pytest.mark.parametrize(
        "field, value",
        [("batch_size", 0), ("batch_size", -1), ("iterations", -1),
         ("drop_variant", "dropout"), ("lr_scheme", "sgd"), ("mfs_per_input", 0),
         ("lam", -5.0), ("lam", float("nan")), ("alpha", 0.0), ("alpha", -0.01),
         ("alpha", float("nan")), ("alpha_final", 0.0), ("alpha_final", float("nan")),
         ("epsilon", 0.0), ("epsilon", float("nan")), ("beta1", -0.1), ("beta1", 1.0),
         ("beta1", float("nan")), ("beta2", 1.0), ("beta2", -0.1), ("beta2", float("nan")),
         ("iterations", 2.5), ("batch_size", 2.5), ("mfs_per_input", 2.0), ("iterations", True),
         ("batch_size", np.True_), ("seed", -1), ("seed", (1, -2)), ("seed", 1.5),
         ("seed", None), ("keep_prob", True), ("alpha", "0.01"), ("lam", None),
         ("beta1", np.False_), ("epsilon", [1e-8]),
         pytest.param("alpha_final", 10**400, id="alpha_final-past-float-range"),
         ("alpha", float("inf")), ("lam", float("inf")), ("epsilon", float("inf")),
         ("alpha_final", float("inf"))],
    )
    def test_invalid_field_rejected(self, small_splits, field, value):
        tr, te = small_splits
        with pytest.raises(ValueError, match=field):
            train(quick(**{field: value}), tr, te)
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(TrainConfig(), **{field: value})

    @pytest.mark.parametrize("lam", [-5.0, float("nan"), float("inf"), True, "x", None])
    def test_invalid_ridge_penalty_rejected(self, lam):
        with pytest.raises(ValueError, match="lam"):
            RidgeConfig(lam=lam)
        with pytest.raises(ValueError, match="lam"):
            dataclasses.replace(RidgeConfig(), lam=lam)

    def test_float_fields_are_held_as_floats(self):
        """Python and numpy integers and floats are held as Python floats."""
        cfg = TrainConfig(keep_prob=1, alpha=np.float32(0.5), lam=np.int64(0), beta1=np.float64(0))
        assert cfg == TrainConfig(keep_prob=1.0, alpha=0.5, lam=0.0, beta1=0.0)
        floats = ("keep_prob", "alpha", "lam", "beta1", "beta2", "epsilon", "alpha_final")
        assert {type(getattr(cfg, name)) for name in floats} == {float}
        assert type(RidgeConfig(lam=np.int32(2)).lam) is float

    def test_configs_are_frozen(self):
        """A config cannot leave the range its check saw."""
        for cfg, field in ((TrainConfig(), "beta2"), (RidgeConfig(), "lam")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, field, 1.0)

    def test_ten_inputs_beat_ridge(self):
        """Ten inputs at two MFs each make a grid of 1024 rules; with
        max_dims=10 the preprocessor keeps every input."""
        rng = np.random.default_rng(0)
        X = rng.uniform(-2.0, 2.0, (1000, 10))
        y = np.sin(X[:, 0]) * X[:, 1] + 0.1 * rng.standard_normal(1000)
        tr, te = split(Dataset(X, y), 0.7, np.random.default_rng(0))
        pre = fit_preprocessor(tr, max_dims=10)
        trp, tep = apply_preprocessor(pre, tr), apply_preprocessor(pre, te)
        model, hist = train(TrainConfig(iterations=100, seed=1), trp, tep)
        assert model.num_rules == 1024
        for curve in (hist.train_rmse, hist.test_rmse, hist.loss, hist.mean_lr):
            assert np.all(np.isfinite(curve))
        lin = ridge_fit(trp.X, trp.y, RidgeConfig().lam)
        assert hist.test_rmse[-1] < np.sqrt(np.mean((tep.y - ridge_predict(lin, tep.X)) ** 2))


class TestGridLimit:
    def test_ten_inputs_at_four_mfs_refused_before_allocating(self):
        """M=10, Mm=4 is R = 1,048,576 rules: RuleGrid.incidence alone would
        be 320 MiB and the 12 parameter-sized vectors 1056 MiB. train()
        refuses it from the arithmetic, so nothing of that size is built."""
        rng = np.random.default_rng(0)
        tr = Dataset(rng.standard_normal((3, 10)), rng.standard_normal(3))
        te = Dataset(rng.standard_normal((2, 10)), rng.standard_normal(2))
        nbytes = trainer._step_bytes(10, 4, 3, "rule")
        assert nbytes == 8 * 2**20 * 10 * 5 + 12 * 8 * (80 + 11 * 2**20) + 3 * 8 * 3 * 2**20
        tracemalloc.start()
        try:
            expected = rf"^a grid of 4\*\*10 = 1048576 rules needs {nbytes} bytes"
            with pytest.raises(GridTooLarge, match=expected):
                train(TrainConfig(mfs_per_input=4), tr, te)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_numpy_integer_fields_are_held_as_ints(self):
        """A config holds numpy integer fields as Python ints, so the rule
        count cannot wrap: np.int64(4) ** 40 is 0, yet the grid of 4**40
        rules is still refused before anything of its size is built."""
        cfg = TrainConfig(mfs_per_input=np.int64(4), iterations=np.int32(1), batch_size=np.uint8(3))
        assert cfg == TrainConfig(mfs_per_input=4, iterations=1, batch_size=3)
        assert {type(v) for v in (cfg.mfs_per_input, cfg.iterations, cfg.batch_size)} == {int}
        rng = np.random.default_rng(0)
        tr = Dataset(rng.standard_normal((3, 40)), rng.standard_normal(3))
        with pytest.raises(GridTooLarge, match=rf"^a grid of 4\*\*40 = {4**40} rules"):
            train(cfg, tr, tr)

    def test_limit_counts_the_batch_and_the_membership_slots(self):
        """One [64, R] float64 array at R = 4**10 is 512 MiB. DropMembership
        holds [batch, R, M] arrays in their place, so M=9, Mm=4 fits the
        limit under DropRule and not under DropMembership."""
        assert 8 * 64 * 4**10 == 512 * 2**20
        rule = trainer._step_bytes(10, 4, 64, "rule")
        assert rule - trainer._step_bytes(10, 4, 1, "rule") == 3 * 8 * 63 * 4**10
        assert trainer._step_bytes(9, 4, 64, "rule") < trainer.MAX_TRAIN_BYTES
        assert trainer._step_bytes(9, 4, 64, "membership") > trainer.MAX_TRAIN_BYTES

    @pytest.mark.parametrize("variant", ["rule", "none", "mf", "membership"])
    @pytest.mark.parametrize("n", [3, 100])
    def test_estimate_bounds_the_measured_peak(self, variant, n):
        """At R = 4**7 = 16384 the arrays the estimate counts dominate, and
        tracemalloc's peak of two iterations lies between half of it and
        all of it."""
        rng = np.random.default_rng(0)
        tr = Dataset(rng.standard_normal((n, 7)), rng.standard_normal(n))
        te = Dataset(rng.standard_normal((2, 7)), rng.standard_normal(2))
        cfg = TrainConfig(mfs_per_input=4, iterations=2, drop_variant=variant)
        tracemalloc.start()
        try:
            train(cfg, tr, te)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        estimate = trainer._step_bytes(7, 4, min(cfg.batch_size, n), variant)
        assert estimate / 2 < peak <= estimate


# A warm-up run and then a second 100-iteration run of the stock method at
# Mm MFs per input, counting the minor page faults the second one takes
CHURN_SCRIPT = """
import resource, sys
import numpy as np
from tskfuzzy import TrainConfig, apply_preprocessor, fit_preprocessor, make_synthetic, split, train
data = make_synthetic(1500, seed=7)
tr, te = split(data, 0.7, np.random.default_rng(7))
pre = fit_preprocessor(tr)
tr, te = apply_preprocessor(pre, tr), apply_preprocessor(pre, te)
cfg = TrainConfig(mfs_per_input=int(sys.argv[1]), iterations=100)
train(cfg, tr, te)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train(cfg, tr, te)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestWorkingMemory:
    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux page-fault counts")
    @pytest.mark.parametrize("mfs, limit", [(2, 5), (3, 10)])
    def test_warm_training_takes_few_page_faults_per_iteration(self, mfs, limit):
        """train() keeps its working arrays for the run, so a warm run takes
        few minor page faults per iteration. When every iteration freed a few
        hundred kB of temporaries, glibc returned the top of its heap to the
        kernel and the next iteration faulted the same pages back in: 1 to
        121 faults per iteration at Mm=2 (1050/450 rows), depending on what
        else the heap held, and 260 to 290 at Mm=3; with the run's buffers,
        about 1.7 and 3.4. Counted in a fresh interpreter."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-c", CHURN_SCRIPT, str(mfs)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        faults = int(done.stdout.split()[-1])
        assert faults / 100 < limit, faults

    def test_adaptive_rates_hold_three_vectors_more_than_jang(self):
        """adam and adabound keep their moments and rates for the run and
        update them in place, with the one step temporary that jang uses too;
        so at R = 4**7 on 3 rows, where a parameter vector is 1 MiB,
        train()'s tracemalloc peak under adabound exceeds jang's by at most
        4 parameter vectors (5 when the step made new arrays), and jang's
        stays below its 11.4 MiB from then."""
        rng = np.random.default_rng(0)
        tr = Dataset(rng.standard_normal((3, 7)), rng.standard_normal(3))
        te = Dataset(rng.standard_normal((2, 7)), rng.standard_normal(2))
        peaks = {}
        for scheme in ("jang", "adabound"):
            cfg = TrainConfig(mfs_per_input=4, iterations=2, lr_scheme=scheme)
            tracemalloc.start()
            try:
                train(cfg, tr, te)
                peaks[scheme] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        vector = 8 * (2 * 7 * 4 + 8 * 4**7)
        assert peaks["adabound"] - peaks["jang"] <= 4 * vector, peaks
        assert peaks["jang"] <= 11.4 * 2**20, peaks


class TestDivergence:
    def test_large_jang_rate_raises_diverged(self):
        data = make_synthetic(1500, seed=7)
        tr, te = split(data, 0.7, np.random.default_rng(7))
        pre = fit_preprocessor(tr)
        cfg = TrainConfig(lr_scheme="jang", drop_variant="none", lam=0, alpha=0.5)
        with np.errstate(all="ignore"):
            with pytest.raises(Diverged, match=r"^diverged at iteration \d+: "):
                train(cfg, apply_preprocessor(pre, tr), apply_preprocessor(pre, te))

    @pytest.mark.parametrize("scheme", trainer.LR_SCHEMES)
    def test_non_finite_gradient_raises_before_the_step(self, small_splits, monkeypatch, scheme):
        tr, te = small_splits
        real = trainer._gradients
        calls = []

        def poisoned(*args):
            g = real(*args)
            calls.append(None)
            if len(calls) == 3:
                g[12] = np.nan  # M=5, Mm=2: the third sigma
            return g

        monkeypatch.setattr(trainer, "_gradients", poisoned)
        message = r"^diverged at iteration 3: gradient of sigma\[1, 0\] is nan$"
        with pytest.raises(Diverged, match=message):
            train(quick(lr_scheme=scheme), tr, te)

    # _rmse() gives the train, then the test RMSE of every iteration, so
    # iteration 2's train RMSE is its third call and its test RMSE its fourth
    @pytest.mark.parametrize(
        "name, call, label",
        [
            pytest.param("_rmse", 3, "train RMSE", id="_rmse-3-train"),
            pytest.param("_rmse", 4, "test RMSE", id="_rmse-4-test"),
            pytest.param("_objective", 2, "batch loss", id="_objective-2-batch-loss"),
        ],
    )
    def test_non_finite_rmse_raises_before_it_is_recorded(
        self, small_splits, monkeypatch, name, call, label
    ):
        tr, te = small_splits
        real = getattr(trainer, name)
        calls = []

        def overflowing(*args):
            calls.append(None)
            return np.inf if len(calls) == call else real(*args)

        monkeypatch.setattr(trainer, name, overflowing)
        message = rf"^diverged at iteration 2: {label} is inf$"
        with pytest.raises(Diverged, match=message):
            train(quick(), tr, te)

    def test_non_finite_parameter_raises(self, small_splits):
        tr, te = small_splits
        with np.errstate(all="ignore"):
            message = r"^diverged at iteration 1: parameter \w+\[\d+, \d+\] is -?inf$"
            with pytest.raises(Diverged, match=message):
                train(quick(lr_scheme="jang", alpha=1e308, drop_variant="none"), tr, te)


class TestOneEvaluation:
    """train() evaluates the stacked training and test rows in one pass of
    predict()'s arithmetic (model._evaluate) per iteration."""

    @pytest.mark.parametrize("num_inputs", [3, 5])
    @pytest.mark.parametrize("scheme", trainer.LR_SCHEMES)
    @pytest.mark.parametrize("variant", ["none", "rule", "mf", "membership"])
    def test_last_rmse_is_that_of_the_returned_model(self, variant, scheme, num_inputs):
        data = make_synthetic(300, seed=5)
        data = Dataset(data.X[:, :num_inputs], data.y)
        tr, te = split(data, 0.7, np.random.default_rng(0))
        pre = fit_preprocessor(tr)
        tr, te = apply_preprocessor(pre, tr), apply_preprocessor(pre, te)
        model, hist = train(quick(iterations=8, drop_variant=variant, lr_scheme=scheme), tr, te)
        assert rmse(model, tr) == hist.train_rmse[-1]
        assert rmse(model, te) == hist.test_rmse[-1]

    def test_one_evaluation_per_iteration(self, small_splits, monkeypatch):
        tr, te = small_splits
        rows = []
        real = trainer._evaluate

        def counting(model, X, work):
            rows.append(len(X))
            return real(model, X, work)

        monkeypatch.setattr(trainer, "_evaluate", counting)
        train(quick(iterations=7), tr, te)
        assert rows == [tr.n + te.n] * 7

    def test_empty_test_set_raises_before_the_first_step(self, small_splits, monkeypatch):
        tr, te = small_splits
        empty = Dataset(te.X[:0], te.y[:0])
        steps = []
        monkeypatch.setattr(trainer, "_gradients", lambda *args: steps.append(None))
        with pytest.raises(EmptyDataset, match="^RMSE of an empty dataset is undefined$"):
            train(quick(), tr, empty)
        assert steps == []
        _, hist = train(quick(iterations=0), tr, empty)
        assert hist.test_rmse.shape == (0,)

    def test_test_rows_of_another_width_raise(self, small_splits):
        tr, te = small_splits
        with pytest.raises(DimensionMismatch, match="test rows"):
            train(quick(), tr, Dataset(te.X[:, :3], te.y))


def copies(theta, moments):
    """Copies of a step's inputs: the parameters and every field of the moments."""
    return (theta.copy(), moments.m.copy(), moments.v.copy(), moments.k,
            moments.last_rates.copy())


def replay(cfg, tr, te):
    """train()'s run rebuilt from the checked public functions: the final
    parameters and the [6, K] history rows (train_rmse, test_rmse, loss,
    mean_lr, min_lr, max_lr). Each step must leave the parameters and
    moments it was given as they were."""
    batch_seq, mask_seq = np.random.SeedSequence(cfg.seed).spawn(2)
    batch_rng, mask_rng = np.random.default_rng(batch_seq), np.random.default_rng(mask_seq)
    model = init_model_from_data(tr.X, cfg.mfs_per_input)
    M, Mm = model.num_inputs, model.mfs_per_input
    theta = flatten(model)
    moments, jang = MomentState.zeros(theta.size), JangLrState(cfg.alpha)
    X_eval = np.concatenate([tr.X, te.X])
    train_pred = np.zeros(tr.n)  # the consequents start at 0
    hist = []
    for _ in range(cfg.iterations):
        idx = sample_batch(tr, cfg.batch_size, batch_rng)
        masks = None
        if cfg.drop_variant != "none":
            masks = sample_masks(cfg.drop_variant, model.grid, len(idx), cfg.keep_prob, mask_rng)
        g = gradients(model, tr.X[idx], tr.y[idx], cfg.lam, masks)
        # the batch loss at the pre-step parameters, from the last evaluation
        resid = tr.y[idx] - train_pred[idx]
        batch_loss = 0.5 * (resid @ resid) + 0.5 * cfg.lam * np.sum(model.consequents[:, 1:] ** 2)
        given = (theta, moments, copies(theta, moments))
        if cfg.lr_scheme == "jang":
            jang = jang_update_lr(jang, batch_loss)
            theta = sgd_step(theta, g, jang.alpha)
            lr = [jang.alpha] * 3
        else:
            lo, up = 0.0, np.inf
            if cfg.lr_scheme == "adabound":
                lo = bound_l(moments.k + 1, cfg.beta2, cfg.alpha_final)
                up = bound_u(moments.k + 1, cfg.beta2, cfg.alpha_final)
            theta, moments = adabound_step(moments, theta, g, cfg, lo, up)
            lr = [moments.last_rates.mean(), moments.last_rates.min(), moments.last_rates.max()]
        assert theta is not given[0]
        for now, before in zip(copies(*given[:2]), given[2]):
            np.testing.assert_array_equal(now, before)
        theta[M * Mm : 2 * M * Mm] = np.maximum(theta[M * Mm : 2 * M * Mm], SIGMA_MIN)
        model = unflatten(theta, M, Mm)
        pred = predict(model, X_eval)
        train_pred = pred[: tr.n]
        rmses = [np.sqrt(np.mean((d.y - p) ** 2)) for d, p in ((tr, train_pred), (te, pred[tr.n :]))]
        hist.append([*rmses, batch_loss, *lr])
    return theta, np.array(hist).T


class TestReplay:
    @pytest.mark.parametrize("alpha", [0.01, 1.0])
    @pytest.mark.parametrize("num_inputs", [3, 5])
    @pytest.mark.parametrize("scheme", trainer.LR_SCHEMES)
    @pytest.mark.parametrize("variant", ["none", "rule", "mf", "membership"])
    def test_train_equals_its_checked_path(self, variant, scheme, num_inputs, alpha):
        """train() calls the unchecked gradient and step kernels with rows,
        masks and models it prepared itself; the run it makes equals, bit for
        bit, the one that the public functions make, which check every call.
        At alpha 1 most of these runs end with sigmas on the floor."""
        tr, te = width_splits(num_inputs)
        cfg = quick(iterations=8, drop_variant=variant, lr_scheme=scheme, alpha=alpha)
        assert_replays(cfg, tr, te)

    @pytest.mark.parametrize("num_inputs", [3, 5])
    @pytest.mark.parametrize("scheme", trainer.LR_SCHEMES)
    @pytest.mark.parametrize("variant", ["none", "rule", "mf", "membership"])
    def test_blocked_evaluation_equals_its_checked_path(
        self, monkeypatch, variant, scheme, num_inputs
    ):
        """With EVAL_BLOCK lowered so that the 300 stacked rows are contracted
        in several blocks, train()'s evaluation, which takes the log-grades
        of all rows at once into buffers it keeps for the run and lends its
        scratch to the gradient, still equals predict()'s, which allocates
        its own, bit for bit."""
        tr, te = width_splits(num_inputs)
        monkeypatch.setattr(model_module, "EVAL_BLOCK", 1000)
        grid = RuleGrid(num_inputs, 2)
        assert len(model_module._EvalWork(grid, tr.n + te.n).blocks) >= 2
        assert_replays(quick(iterations=8, drop_variant=variant, lr_scheme=scheme), tr, te)


def width_splits(num_inputs):
    """The small_splits problem cut to its first num_inputs columns."""
    data = make_synthetic(300, seed=5)
    data = Dataset(data.X[:, :num_inputs], data.y)
    tr, te = split(data, 0.7, np.random.default_rng(0))
    pre = fit_preprocessor(tr)
    return apply_preprocessor(pre, tr), apply_preprocessor(pre, te)


def assert_replays(cfg, tr, te):
    """train() and replay() give the same history and final parameters, bit
    for bit."""
    model, hist = train(cfg, tr, te)
    theta, want = replay(cfg, tr, te)
    curves = ("train_rmse", "test_rmse", "loss", "mean_lr", "min_lr", "max_lr")
    for name, row in zip(curves, want):
        np.testing.assert_array_equal(getattr(hist, name), row, err_msg=name)
    np.testing.assert_array_equal(flatten(model), theta)


# Two grids, and two batch sizes of which one passes the 56 training rows of
# an 80-row problem; runs of 3 and of 7 iterations on the same grid and batch
# size, so that a later run reads indices an earlier one drew, or draws on
# past them; every drop variant and lr scheme, and a ridge entry among them
MIXED_SUITE = {
    "a": TrainConfig(mfs_per_input=2, iterations=7, batch_size=16, lr_scheme="adabound"),
    "b": TrainConfig(mfs_per_input=3, iterations=3, batch_size=16, drop_variant="mf",
                     lr_scheme="jang"),
    "c": TrainConfig(mfs_per_input=2, iterations=3, batch_size=16, drop_variant="none",
                     lr_scheme="adam"),
    "rr": RidgeConfig(0.05),
    "d": TrainConfig(mfs_per_input=3, iterations=7, batch_size=100, drop_variant="membership"),
    "e": TrainConfig(mfs_per_input=2, iterations=7, batch_size=100, lam=0.0, lr_scheme="jang"),
    "f": TrainConfig(mfs_per_input=3, iterations=7, batch_size=16, drop_variant="none",
                     lr_scheme="jang"),
    "g": TrainConfig(mfs_per_input=2, iterations=3, batch_size=100, drop_variant="mf",
                     lr_scheme="adam"),
}


class TestRunSuite:
    @pytest.mark.parametrize("record", [trainer.MAX_RECORD_BYTES, 500], ids=["all", "capped"])
    @pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
    def test_mixed_suite_equals_direct_runs(self, monkeypatch, order, record):
        """The runs of a repeat share its set-up (the initial models, the
        evaluation buffers and the batch indices); each run's history still
        equals, bit for bit, that of a direct train() on the repeat's split
        and seed, in either order of the configs. With the record capped at
        500 bytes, the 3-iteration runs of 16 rows record their indices
        and the longer or wider runs draw their own, beside that record."""
        monkeypatch.setattr(trainer, "MAX_RECORD_BYTES", record)
        configs = dict(list(MIXED_SUITE.items())[::order])
        runs = {}
        real = trainer._mean_histories

        def recording(histories):
            runs[len(runs)] = histories
            return real(histories)

        monkeypatch.setattr(trainer, "_mean_histories", recording)
        data = make_synthetic(80, seed=11)
        run_suite(configs, data, repeats=2, seed=5)
        curves = [f.name for f in dataclasses.fields(trainer.TrainHistory) if f.name != "seconds"]
        for j in range(2):
            tr, te = split(data, 0.7, np.random.default_rng((5, j, 0)))
            pre = fit_preprocessor(tr)
            tr, te = apply_preprocessor(pre, tr), apply_preprocessor(pre, te)
            for i, (name, cfg) in enumerate(configs.items()):
                if isinstance(cfg, RidgeConfig):
                    want = trainer._ridge_history(cfg, tr, te)
                else:
                    _, want = train(dataclasses.replace(cfg, seed=(5, j, 1)), tr, te)
                for curve in curves:
                    np.testing.assert_array_equal(
                        getattr(runs[i][j], curve), getattr(want, curve), err_msg=f"{name} {curve}"
                    )

    @pytest.mark.parametrize(
        "record, mfs, draws",
        [(trainer.MAX_RECORD_BYTES, (2, 2, 2), 2 * 7), (0, (2, 2, 2), 2 * (3 + 7 + 5)),
         (trainer.MAX_RECORD_BYTES, (2, 2, 3), 2 * (7 + 5))],
        ids=["all", "capped", "mixed-grids"],
    )
    def test_split_draws_each_batch_once(self, monkeypatch, record, mfs, draws):
        """Runs of 3, 7 and 5 iterations on one batch size and grid read the
        indices their repeat's split recorded, so two repeats draw 2 * 7
        batches; with the record capped at 0 bytes each run draws its own.
        Each grid records its own indices, so when the 5-iteration run has a
        grid of its own, it draws its 5 beside the 7 of the others. A lone
        train() draws one batch per iteration."""
        monkeypatch.setattr(trainer, "MAX_RECORD_BYTES", record)
        calls = []
        real = trainer.sample_batch
        monkeypatch.setattr(trainer, "sample_batch", lambda *a: calls.append(1) or real(*a))
        configs = {k: TrainConfig(mfs_per_input=m, iterations=k, batch_size=16)
                   for k, m in zip((3, 7, 5), mfs)}
        data = make_synthetic(80, seed=11)
        run_suite(configs, data, repeats=2, seed=5)
        assert len(calls) == draws
        tr, te = split(data, 0.7, np.random.default_rng(0))
        calls.clear()
        train(configs[7], tr, te)
        assert len(calls) == 7

    @pytest.mark.parametrize("repeats", [0, -1, True, 2.5, "2", None])
    def test_bad_repeats_refused_before_any_split(self, monkeypatch, repeats):
        monkeypatch.setattr(trainer, "split", None)
        with pytest.raises(ValueError, match="repeats must be"):
            run_suite({"a": TrainConfig(iterations=1)}, make_synthetic(50), repeats, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, None])
    def test_bad_seed_refused_before_any_split(self, monkeypatch, seed):
        monkeypatch.setattr(trainer, "split", None)
        with pytest.raises(ValueError, match="seed must be"):
            run_suite({"a": TrainConfig(iterations=1)}, make_synthetic(50), repeats=1, seed=seed)

    def test_single_repeat_equals_direct_run(self):
        data = make_synthetic(200, seed=6)
        cfg = TrainConfig(iterations=20, batch_size=16)
        suite = run_suite({"alg": cfg}, data, repeats=1, seed=3)
        tr, te = split(data, 0.7, np.random.default_rng((3, 0, 0)))
        pre = fit_preprocessor(tr)
        _, hist = train(
            dataclasses.replace(cfg, seed=(3, 0, 1)),
            apply_preprocessor(pre, tr),
            apply_preprocessor(pre, te),
        )
        assert_histories_identical(suite["alg"], hist)

    def test_deterministic(self):
        data = make_synthetic(200, seed=6)
        configs = {
            "rr": RidgeConfig(0.05),
            "full": TrainConfig(iterations=15, batch_size=16),
        }
        s1 = run_suite(configs, data, repeats=2, seed=4)
        s2 = run_suite(configs, data, repeats=2, seed=4)
        np.testing.assert_array_equal(s1["full"].test_rmse, s2["full"].test_rmse)
        np.testing.assert_array_equal(s1["rr"].test_rmse, s2["rr"].test_rmse)

    def test_ridge_entry_is_single_pass(self):
        data = make_synthetic(200, seed=6)
        suite = run_suite({"rr": RidgeConfig(0.05)}, data, repeats=3, seed=5)
        assert suite["rr"].test_rmse.shape == (1,)
        assert np.isfinite(suite["rr"].test_rmse[0])
        for curve in (suite["rr"].mean_lr, suite["rr"].min_lr, suite["rr"].max_lr):
            np.testing.assert_array_equal(curve, [0.0])

    def test_mean_is_pointwise(self):
        data = make_synthetic(200, seed=8)
        cfg = TrainConfig(iterations=10, batch_size=16)
        mean2 = run_suite({"a": cfg}, data, repeats=2, seed=9)["a"]
        singles = []
        for j in range(2):
            tr, te = split(data, 0.7, np.random.default_rng((9, j, 0)))
            pre = fit_preprocessor(tr)
            _, h = train(
                dataclasses.replace(cfg, seed=(9, j, 1)),
                apply_preprocessor(pre, tr),
                apply_preprocessor(pre, te),
            )
            singles.append(h.test_rmse)
        np.testing.assert_allclose(mean2.test_rmse, np.mean(singles, axis=0), rtol=1e-15)
