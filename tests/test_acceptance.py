"""End-to-end acceptance checks for the whole package.

One test per criterion; each prints a single PASS/FAIL line, so running
`pytest tests/test_acceptance.py -v -s` gives a compact scoreboard.
Criteria 6, 7, and 10 train real suites on the bundled synthetic problem
and take a few minutes combined.
"""

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest
from oracle import complex_step_grad, reference_loss

from tskfuzzy import (
    DropMask,
    MomentState,
    RidgeConfig,
    RuleGrid,
    TrainConfig,
    TskModel,
    adabound_step,
    bound_l,
    bound_u,
    finite_diff_grad,
    firing_levels,
    flatten,
    gradients,
    loss,
    make_synthetic,
    param_count,
    ridge_fit,
    run_suite,
    sample_masks,
    train,
)
from tskfuzzy.cli import ExperimentSpec, algorithm_config, run_experiment


def report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def random_model(num_inputs, mfs_per_input, rng):
    grid = RuleGrid(num_inputs, mfs_per_input)
    return TskModel(
        grid,
        rng.standard_normal((num_inputs, mfs_per_input)),
        rng.uniform(0.5, 2.0, (num_inputs, mfs_per_input)),
        rng.standard_normal((grid.num_rules, num_inputs + 1)),
    )


@pytest.fixture(scope="module")
def ordering_suite():
    """Shared 5-seed suite on the synthetic problem for criteria 6 and 7."""
    data = make_synthetic(1500, seed=7)
    configs = {
        "RR": RidgeConfig(0.05),
        "MBGD": algorithm_config("MBGD"),
        "MBGD-RDA": algorithm_config("MBGD-RDA"),
    }
    t0 = time.perf_counter()
    suite = run_suite(configs, data, repeats=5, seed=42)
    return suite, time.perf_counter() - t0


def test_criterion_1_gradient_correctness():
    """Analytic gradients match central finite differences on >= 100
    seeded random instances within 1e-5 (absolute floor 1e-8), in < 10 s."""
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    trials = 0
    for trial in range(102):
        m = [1, 2, 3][trial % 3]
        lam = 0.05 if trial % 2 else 0.0
        model = random_model(m, 2, rng)
        X = rng.standard_normal((4, m))
        y = rng.standard_normal(4)
        g = gradients(model, X, y, lam)
        fd = finite_diff_grad(model, X, y, lam, h=1e-6)
        err = np.max(np.abs(g - fd) / np.maximum(np.abs(fd), 1e-8))
        worst = max(worst, float(err))
        trials += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 10.0
    report(
        "criterion 1 (gradient correctness)",
        ok,
        f"{trials} instances, max mixed error {worst:.2e} (limit 1e-05), {elapsed:.1f}s",
    )


def test_criterion_11_masked_gradient_correctness():
    """Analytic gradients with no mask and under each drop variant match
    the complex-step gradient of the reference loss (tests/oracle.py) on
    102 seeded instances each within 1e-5 (absolute floor 1e-8), for both
    mask draws: masks drawn before the rows and targets, from the stream
    the instance comes from, and masks drawn from a separate stream. The
    reference loss itself agrees with loss() to 1e-12 relative."""
    t0 = time.perf_counter()
    worst, loss_gap, checks = {}, 0.0, 0
    for variant in (None, "rule", "mf", "membership"):
        for draw in ("before rows", "own stream")[: 2 if variant else 1]:
            rng = np.random.default_rng(2024)
            mask_rng = rng if draw == "before rows" else np.random.default_rng((2024, 1))
            key = f"{variant} ({draw})" if variant else "none"
            worst[key] = 0.0
            for trial in range(102):
                m = [1, 2, 3][trial % 3]
                lam = 0.05 if trial % 2 else 0.0
                model = random_model(m, 2, rng)
                masks = None
                if variant:
                    masks = sample_masks(variant, model.grid, 4, TrainConfig.keep_prob, mask_rng)
                X = rng.standard_normal((4, m))
                y = rng.standard_normal(4)
                g = gradients(model, X, y, lam, masks)
                exact = complex_step_grad(model, X, y, lam, masks)
                err = np.max(np.abs(g - exact) / np.maximum(np.abs(exact), 1e-8))
                worst[key] = max(worst[key], float(err))
                want = loss(model, X, y, lam, masks)
                got = reference_loss(model.grid, flatten(model), X, y, lam, masks)
                loss_gap = max(loss_gap, abs(got - want) / max(abs(want), 1.0))
                checks += 1
    elapsed = time.perf_counter() - t0
    ok = max(worst.values()) <= 1e-5 and loss_gap <= 1e-12 and elapsed < 10.0
    report(
        "criterion 11 (masked gradient correctness)",
        ok,
        f"{checks} instances, max mixed error "
        + ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
        + f" (limit 1e-05), loss gap {loss_gap:.1e}, {elapsed:.1f}s",
    )


def test_criterion_2_parameter_counts():
    ok = param_count(5, 2) == 212 and param_count(4, 2) == 96
    rng = np.random.default_rng(1)
    for m, mm in [(5, 2), (4, 2), (3, 2), (2, 3)]:
        ok = ok and flatten(random_model(m, mm, rng)).size == param_count(m, mm)
    report(
        "criterion 2 (parameter counts)",
        ok,
        f"param_count(5,2)={param_count(5, 2)}, param_count(4,2)={param_count(4, 2)}, "
        "both equal to flatten length",
    )


def test_criterion_3_optimizer_reductions():
    """Bit-exact reduction chain under matched seeds, plus the unbounded
    step against an independently coded Adam over 500 steps."""
    data = make_synthetic(400, seed=3)
    from tskfuzzy import apply_preprocessor, fit_preprocessor, split

    tr, te = split(data, 0.7, np.random.default_rng(0))
    pre = fit_preprocessor(tr)
    trp, tep = apply_preprocessor(pre, tr), apply_preprocessor(pre, te)

    def shrink(cfg):
        return dataclasses.replace(cfg, iterations=80, batch_size=32, seed=99)

    _, h_rda = train(shrink(algorithm_config("MBGD-RDA", {"keep_prob": 1.0, "lam": 0.0})), trp, tep)
    _, h_a = train(shrink(algorithm_config("MBGD-A")), trp, tep)
    rda_eq_a = all(
        np.array_equal(getattr(h_rda, f), getattr(h_a, f))
        for f in ("train_rmse", "test_rmse", "loss", "mean_lr")
    )

    _, h_r0 = train(shrink(algorithm_config("MBGD-R", {"lam": 0.0})), trp, tep)
    _, h_gd = train(shrink(algorithm_config("MBGD")), trp, tep)
    r_eq_gd = all(
        np.array_equal(getattr(h_r0, f), getattr(h_gd, f))
        for f in ("train_rmse", "test_rmse", "loss", "mean_lr")
    )

    rng = np.random.default_rng(5)
    grads = rng.standard_normal((500, 9)) * 4.0
    hyper = TrainConfig()
    theta = np.zeros(9)
    state = MomentState.zeros(9)
    theta_ref = np.zeros(9)
    m = np.zeros(9)
    v = np.zeros(9)
    adam_ok = True
    for t, g in enumerate(grads, start=1):
        m = hyper.beta1 * m + (1.0 - hyper.beta1) * g
        v = hyper.beta2 * v + (1.0 - hyper.beta2) * g * g
        m_hat = m / (1.0 - hyper.beta1**t)
        v_hat = v / (1.0 - hyper.beta2**t)
        theta_ref = theta_ref - (hyper.alpha / (np.sqrt(v_hat) + hyper.epsilon)) * m_hat
        theta, state = adabound_step(state, theta, g, hyper, 0.0, np.inf)
        adam_ok = adam_ok and np.array_equal(theta, theta_ref)

    ok = rda_eq_a and r_eq_gd and adam_ok
    report(
        "criterion 3 (optimizer reductions)",
        ok,
        f"full(P=1, lam=0) == adabound-only: {rda_eq_a}; reg(lam=0) == plain: {r_eq_gd}; "
        f"unbounded step == reference Adam over 500 steps: {adam_ok}",
    )


def test_criterion_4_bound_discipline():
    """Every realized per-coordinate rate of a full 500-iteration run lies
    in [l(k), u(k)], and the bound formulas hit their reference values."""
    data = make_synthetic(600, seed=4)
    from tskfuzzy import apply_preprocessor, fit_preprocessor, split

    tr, te = split(data, 0.7, np.random.default_rng(0))
    pre = fit_preprocessor(tr)
    cfg = TrainConfig(seed=17)
    _, hist = train(cfg, apply_preprocessor(pre, tr), apply_preprocessor(pre, te))
    inside = all(
        bound_l(k, cfg.beta2, cfg.alpha_final) <= hist.min_lr[k - 1]
        and hist.max_lr[k - 1] <= bound_u(k, cfg.beta2, cfg.alpha_final)
        for k in range(1, 501)
    )
    l_1000 = bound_l(1000, cfg.beta2, cfg.alpha_final)
    u_1000 = bound_u(1000, cfg.beta2, cfg.alpha_final)
    l_ok = abs(l_1000 - 0.005) < 1e-12 * 0.005
    u_ok = abs(u_1000 - 0.02) < 1e-12 * 0.02
    ok = inside and l_ok and u_ok
    report(
        "criterion 4 (rate bound discipline)",
        ok,
        f"500 iterations inside [l(k), u(k)]: {inside}; "
        f"l(1000)={l_1000:.6f}, u(1000)={u_1000:.6f}",
    )


def test_criterion_5_ridge_oracle():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(50):
        X = rng.standard_normal((50, 5))
        y = rng.standard_normal(50)
        model = ridge_fit(X, y, 0.05)
        x_mean = X.mean(axis=0)
        Xc = X - x_mean
        w = np.linalg.inv(Xc.T @ Xc + 0.05 * np.eye(5)) @ (Xc.T @ (y - y.mean()))
        rel = np.max(np.abs(model.weights - w) / np.maximum(np.abs(w), 1e-12))
        worst = max(worst, float(rel))
    ok = worst <= 1e-8
    report(
        "criterion 5 (ridge oracle equivalence)",
        ok,
        f"50 instances, max relative weight error {worst:.2e} (limit 1e-08)",
    )


def test_criterion_6_beats_ridge(ordering_suite):
    """Mean best test RMSE of the full method sits strictly below the
    ridge baseline on the synthetic problem (5 seeds), within 5 minutes."""
    suite, elapsed = ordering_suite
    rda_best = float(suite["MBGD-RDA"].test_rmse.min())
    rr = float(suite["RR"].test_rmse[0])
    ok = rda_best < rr and elapsed < 300.0
    report(
        "criterion 6 (beats the linear baseline)",
        ok,
        f"full-method best {rda_best:.4f} < ridge {rr:.4f} "
        f"(margin {(rr - rda_best) / rr * 100:.1f}%), suite took {elapsed:.0f}s",
    )


def test_criterion_7_faster_convergence(ordering_suite):
    """At iteration 100 the full method's mean test RMSE is already below
    the plain mini-batch trainer's (5 seeds)."""
    suite, _ = ordering_suite
    rda_100 = float(suite["MBGD-RDA"].test_rmse[99])
    mbgd_100 = float(suite["MBGD"].test_rmse[99])
    ok = rda_100 < mbgd_100
    report(
        "criterion 7 (faster convergence at iteration 100)",
        ok,
        f"full method {rda_100:.4f} < plain {mbgd_100:.4f} "
        f"(margin {(mbgd_100 - rda_100) / mbgd_100 * 100:.1f}%)",
    )


def test_criterion_8_drop_variant_semantics():
    rng = np.random.default_rng(8)
    model = random_model(2, 2, rng)
    x = rng.standard_normal(2)
    base = firing_levels(model, x)

    rule_ok = True
    for _ in range(50):
        keep = sample_masks("rule", model.grid, 1, 0.5, rng).keep[0]
        f = firing_levels(model, x, DropMask("rule", keep))
        rule_ok = rule_ok and np.all(f[~keep] == 0.0) and np.array_equal(f[keep], base[keep])

    mf_ok = True
    for m in range(2):
        for i in range(2):
            keep = np.ones((2, 2), dtype=bool)
            keep[m, i] = False
            f = firing_levels(model, x, DropMask("mf", keep))
            changed = np.flatnonzero(f != base)
            mf_ok = mf_ok and np.array_equal(changed, model.grid.rules_using(m, i))
            mf_ok = mf_ok and changed.size == 2 ** (2 - 1)

    slot_ok = True
    for r in range(4):
        for m in range(2):
            keep = np.ones((4, 2), dtype=bool)
            keep[r, m] = False
            f = firing_levels(model, x, DropMask("membership", keep))
            slot_ok = slot_ok and np.flatnonzero(f != base).tolist() == [r]

    def keep_rate(variant, grid, per_mask, draws, p):
        kept = sum(sample_masks(variant, grid, 1, p, rng).keep[0].sum() for _ in range(draws))
        n = draws * per_mask
        return abs(kept / n - p) < 3 * np.sqrt(p * (1 - p) / n)

    rate_ok = (
        keep_rate("rule", RuleGrid(5, 2), 32, 313, 0.5)
        and keep_rate("mf", RuleGrid(2, 2), 4, 2500, 0.5)
        and keep_rate("membership", RuleGrid(2, 2), 8, 1250, 0.5)
    )
    ok = rule_ok and mf_ok and slot_ok and rate_ok
    report(
        "criterion 8 (drop-variant semantics)",
        ok,
        f"rule zeroing: {rule_ok}; shared-MF fanout: {mf_ok}; "
        f"single-slot effect: {slot_ok}; keep-rate within 3 sigma of 0.5: {rate_ok}",
    )


def test_criterion_9_determinism(tmp_path):
    """Re-running an experiment with the same seed reproduces every output
    byte (the wall-clock column of the summary excluded)."""

    def run(out: Path):
        spec = ExperimentSpec(
            data="synthetic",
            algos=["MBGD", "MBGD-RDA"],
            repeats=2,
            seed=31,
            out=str(out),
            set={"iterations": 20, "batch_size": 16},
        )
        assert run_experiment(spec) == 0
        return out

    a = run(tmp_path / "a")
    b = run(tmp_path / "b")
    same = True
    for name in ("history_MBGD.csv", "history_MBGD-RDA.csv", "improvement_MBGD-RDA.csv"):
        same = same and (a / name).read_bytes() == (b / name).read_bytes()

    def strip_seconds(path: Path):
        return [",".join(line.split(",")[:-1]) for line in path.read_text().splitlines()]

    same = same and strip_seconds(a / "summary.csv") == strip_seconds(b / "summary.csv")
    report("criterion 9 (byte-identical reruns)", same, "history, improvement, and summary files match")


def test_criterion_10_hyperparameter_robustness():
    """Final mean test RMSE of the full method moves by < 15% when the
    batch size spans 32..128 or the keep probability spans 0.3..0.7
    (5 seeds each), within 15 minutes."""
    data = make_synthetic(1500, seed=7)
    configs = {
        "nbs32": TrainConfig(batch_size=32),
        "nbs64": TrainConfig(batch_size=64),
        "nbs128": TrainConfig(batch_size=128),
        "p03": TrainConfig(keep_prob=0.3),
        "p07": TrainConfig(keep_prob=0.7),
    }
    t0 = time.perf_counter()
    suite = run_suite(configs, data, repeats=5, seed=13)
    elapsed = time.perf_counter() - t0
    finals = {name: float(hist.test_rmse[-1]) for name, hist in suite.items()}
    lo, hi = min(finals.values()), max(finals.values())
    spread = (hi - lo) / lo * 100.0
    ok = spread < 15.0 and elapsed < 900.0
    report(
        "criterion 10 (hyperparameter robustness)",
        ok,
        f"finals {({k: round(v, 3) for k, v in finals.items()})}, "
        f"spread {spread:.1f}% (limit 15%), {elapsed:.0f}s",
    )
