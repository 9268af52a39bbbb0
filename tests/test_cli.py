"""Experiment runner: stock configurations, output files, flag parsing,
and the gradient-check report."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from tskfuzzy import RidgeConfig, TrainConfig, make_synthetic, trainer
from tskfuzzy.cli import (
    ALGORITHMS,
    ExperimentSpec,
    _parse_set,
    algorithm_config,
    emit_gradient_check_report,
    main,
    run_experiment,
    write_history_csv,
)
from tskfuzzy.errors import GridTooLarge
from tskfuzzy.trainer import TrainHistory


def write_small_csv(tmp_path, n=120, seed=0):
    d = make_synthetic(n, seed=seed)
    path = tmp_path / "data.csv"
    header = ",".join(d.feature_names + ["y"])
    rows = [",".join(repr(float(v)) for v in list(row) + [t]) for row, t in zip(d.X, d.y)]
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


class TestAlgorithmRegistry:
    def test_full_method_defaults(self):
        cfg = algorithm_config("MBGD-RDA")
        assert cfg.mfs_per_input == 2
        assert cfg.batch_size == 64
        assert cfg.iterations == 500
        assert cfg.alpha == 0.01
        assert cfg.lam == 0.05
        assert cfg.keep_prob == 0.5
        assert (cfg.beta1, cfg.beta2, cfg.epsilon) == (0.9, 0.999, 1e-8)
        assert cfg.drop_variant == "rule" and cfg.lr_scheme == "adabound"

    def test_plain_variant_has_no_extras(self):
        cfg = algorithm_config("MBGD")
        assert cfg.lam == 0.0
        assert cfg.drop_variant == "none" and cfg.lr_scheme == "jang"

    def test_ridge_entry(self):
        cfg = algorithm_config("RR")
        assert isinstance(cfg, RidgeConfig) and cfg.lam == 0.05

    def test_alternate_drop_variants(self):
        assert algorithm_config("MBGD-RDA-MF").drop_variant == "mf"
        assert algorithm_config("MBGD-RDA-Membership").drop_variant == "membership"
        assert algorithm_config("MBGD-RD-Adam").lr_scheme == "adam"

    def test_overrides_apply(self):
        cfg = algorithm_config("MBGD-RDA", {"iterations": 7, "keep_prob": 0.9})
        assert cfg.iterations == 7 and cfg.keep_prob == 0.9

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError):
            algorithm_config("SGD")
        with pytest.raises(ValueError):
            algorithm_config("MBGD-RDA", {"nope": 1})

    def test_all_names_resolve(self):
        for name in ALGORITHMS:
            cfg = algorithm_config(name)
            assert isinstance(cfg, (TrainConfig, RidgeConfig))


class TestHistoryCsv:
    def test_schema_and_precision(self, tmp_path):
        hist = TrainHistory(
            train_rmse=np.array([1.2345678901234, 0.5]),
            test_rmse=np.array([2.0, 1.0]),
            loss=np.array([10.0, 5.0]),
            mean_lr=np.array([0.01, 0.0123456789012]),
            min_lr=np.array([0.01, 0.01]),
            max_lr=np.array([0.01, 0.015]),
        )
        path = tmp_path / "h.csv"
        write_history_csv(hist, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,train_rmse,test_rmse,loss,mean_lr"
        assert len(lines) == 3
        cells = lines[1].split(",")
        assert cells[0] == "1"
        # round trip keeps at least 10 significant digits
        assert abs(float(cells[1]) - 1.2345678901234) < 1e-10
        assert "e" not in lines[2].lower()


class TestRunExperiment:
    def test_ridge_only_writes_summary_without_curves(self, tmp_path):
        path = write_small_csv(tmp_path)
        out = tmp_path / "out"
        spec = ExperimentSpec(
            data=str(path), target="y", algos=["RR"], repeats=2, seed=1, out=str(out)
        )
        assert run_experiment(spec) == 0
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "algo,best_test_rmse,best_iter,mean_final_test_rmse,seconds"
        assert len(summary) == 2 and summary[1].startswith("RR,")
        assert summary[1].split(",")[2] == "0"
        assert not (out / "history_RR.csv").exists()

    def test_suite_writes_histories_and_improvements(self, tmp_path):
        path = write_small_csv(tmp_path)
        out = tmp_path / "out"
        spec = ExperimentSpec(
            data=str(path),
            target="y",
            algos=["RR", "MBGD", "MBGD-RDA"],
            repeats=1,
            seed=2,
            out=str(out),
            set={"iterations": 8, "batch_size": 16},
        )
        assert run_experiment(spec) == 0
        hist = (out / "history_MBGD-RDA.csv").read_text().splitlines()
        assert len(hist) == 9  # header + 8 iterations
        imp = (out / "improvement_MBGD-RDA.csv").read_text().splitlines()
        assert imp[0] == "iter,percent" and len(imp) == 9
        assert not (out / "improvement_MBGD.csv").exists()
        summary = (out / "summary.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in summary[1:]] == ["RR", "MBGD", "MBGD-RDA"]

    def test_unknown_algorithm_fails_in_load(self, tmp_path, capsys):
        path = write_small_csv(tmp_path)
        spec = ExperimentSpec(data=str(path), target="y", algos=["XXX"], repeats=1)
        assert run_experiment(spec) != 0
        assert "load" in capsys.readouterr().err

    def test_missing_file_fails_in_load(self, tmp_path, capsys):
        spec = ExperimentSpec(data=str(tmp_path / "nope.csv"), target="y", algos=["RR"])
        assert run_experiment(spec) != 0
        assert "load" in capsys.readouterr().err

    def test_synthetic_source(self, tmp_path):
        out = tmp_path / "out"
        spec = ExperimentSpec(
            data="synthetic", algos=["RR"], repeats=1, seed=3, out=str(out)
        )
        assert run_experiment(spec) == 0
        assert (out / "summary.csv").exists()


class TestMain:
    def test_flags_round_trip(self, tmp_path):
        path = write_small_csv(tmp_path)
        out = tmp_path / "res"
        code = main([
            "--data", str(path), "--target", "y", "--algos", "RR,MBGD",
            "--repeats", "1", "--seed", "7", "--out", str(out),
            "--set", "iterations=5", "--set", "batch_size=16",
        ])
        assert code == 0
        hist = (out / "history_MBGD.csv").read_text().splitlines()
        assert len(hist) == 6

    def test_target_by_column_index(self, tmp_path):
        """--target 5 names the sixth column, y of the CSV, as --target y does."""
        path = write_small_csv(tmp_path)
        summaries = []
        for target in ("y", "5"):
            out = tmp_path / target
            flags = ["--data", str(path), "--target", target, "--algos", "RR", "--repeats", "2",
                     "--out", str(out)]
            assert main(flags) == 0
            summaries.append([row.rsplit(",", 1)[0] for row in
                              (out / "summary.csv").read_text().splitlines()])
        assert summaries[0] == summaries[1]

    def test_config_file_with_flag_precedence(self, tmp_path):
        path = write_small_csv(tmp_path)
        cfg = tmp_path / "exp.json"
        cfg.write_text(
            '{"data": "%s", "target": "y", "algos": ["RR"], "repeats": 1,'
            ' "seed": 1, "out": "%s", "set": {"lam": 0.1}}'
            % (str(path).replace("\\", "/"), str(tmp_path / "a"))
        )
        assert main(["--config", str(cfg)]) == 0
        assert (tmp_path / "a" / "summary.csv").exists()
        # a flag overrides the file
        assert main(["--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "b" / "summary.csv").exists()

    def test_missing_data_flag(self, capsys):
        assert main(["--algos", "RR"]) != 0
        assert "load" in capsys.readouterr().err

    def test_bad_set_pair(self, capsys):
        assert main(["--data", "synthetic", "--set", "bogus=1"]) != 0
        assert "load" in capsys.readouterr().err

    def test_divergence_reported_as_train_error(self, tmp_path, capsys):
        with np.errstate(all="ignore"):
            code = main([
                "--data", "synthetic", "--algos", "MBGD", "--repeats", "1",
                "--set", "alpha=0.5", "--out", str(tmp_path / "out"),
            ])
        assert code != 0
        err = capsys.readouterr().err
        assert re.match(r"error in train: diverged at iteration \d+: ", err), err

    def test_divergence_prints_one_line(self, tmp_path, capsys):
        """No numpy overflow warning comes before the error line."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([
                "--data", "synthetic", "--algos", "MBGD", "--repeats", "1",
                "--set", "alpha=0.5", "--out", str(tmp_path / "out"),
            ])
        assert code != 0
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert re.match(r"error in train: diverged at iteration \d+: ", err), err

    def test_set_casts_every_config_field_to_its_default_type(self):
        # seed is refused: test_set_seed_is_refused
        fields = [f for f in dataclasses.fields(TrainConfig) if f.name != "seed"]
        pairs = [f"{f.name}={f.default}" for f in fields] + ["M=3", "Mm=4", "trials=5"]
        parsed = _parse_set(pairs)
        for f in fields:
            assert type(parsed[f.name]) is type(f.default), f.name
            assert parsed[f.name] == f.default, f.name
        assert (parsed["M"], parsed["Mm"], parsed["trials"]) == (3, 4, 5)


    def test_set_seed_is_refused(self, tmp_path, capsys):
        """run_suite derives every run's seed from --seed, so a seed set per
        run would be ignored."""
        with pytest.raises(ValueError, match="--seed"):
            _parse_set(["seed=3"])
        out = tmp_path / "out"
        assert main(["--data", "synthetic", "--set", "seed=3", "--out", str(out)]) == 1
        assert_one_error_line(capsys, "load", "--seed")
        assert not out.exists()


BAD_INPUTS = {  # config file keys, flags, stage, text of the message
    "config repeats not an integer": ({"repeats": "x"}, [], "load", "'x'"),
    "config set not a mapping": ({"set": 5}, [], "load", '"set"'),
    "grad-check with no MFs": ({}, ["--grad-check", "--set", "M=0"], "load", ">= 1"),
    "grad-check with negative trials": (
        {}, ["--grad-check", "--set", "trials=-1"], "load", "trials"
    ),
    "grad-check with 100 inputs": (
        {}, ["--grad-check", "--set", "M=100", "--set", "Mm=1"], "load",
        "a rule grid has at most 63 inputs, got M=100",
    ),
    "grad-check over 1024 rules": (
        {}, ["--grad-check", "--set", "M=6", "--set", "Mm=4"], "load",
        "grid of 4**6 rules exceeds the 1024-rule check limit",
    ),
    "zero iterations": ({}, ["--set", "iterations=0"], "load", "iterations"),
    "config out not a string": ({"out": 5}, [], "load", '"out"'),
    "keep_prob out of range": ({}, ["--set", "keep_prob=-1"], "load", "keep_prob"),
    "beta2 of 1": ({"algos": ["MBGD-RDA"]}, ["--set", "beta2=1", "--set", "iterations=3"],
                   "load", "beta2"),
    "negative ridge penalty": ({"algos": ["RR"]}, ["--set", "lam=-5"], "load", "lam"),
    "infinite alpha": ({}, ["--set", "alpha=inf"], "load", "alpha must be finite"),
    "grad-check out not a directory": (
        {"out": "/dev/null/x"}, ["--grad-check", "--set", "trials=1"], "write", "/dev/null/x"
    ),
    "zero batch_size": ({}, ["--set", "batch_size=0"], "load", "batch_size"),
    "negative batch_size": ({}, ["--set", "batch_size=-1"], "load", "batch_size"),
    "negative iterations": ({}, ["--set", "iterations=-1"], "load", "iterations"),
    "grad-check key when training": (
        {}, ["--set", "Mm=4", "--set", "trials=7"], "load", "'Mm' has no effect on a training run"
    ),
    "training key with grad-check": (
        {}, ["--grad-check", "--set", "mfs_per_input=3"], "load",
        "'mfs_per_input' has no effect on a --grad-check run",
    ),
    "constant CSV column": ({"data": "constant.csv", "target": "y"}, [], "preprocess", "'b'"),
    "CSV column past the float range": (
        {"data": "huge.csv", "target": "y"}, [], "preprocess",
        "feature 'b' has a mean or standard deviation past the float range",
    ),
    "out is a file": ({"out": "a_file"}, ["--set", "iterations=1"], "write", "a_file"),
    "set pair without =": ({}, ["--set", "iterations"], "load", "key=value"),
    "config file not JSON": ({}, ["--config", "not.json"], "load", "Expecting property name"),
    "CSV without target": ({"data": "constant.csv"}, [], "load", "--target"),
    "target index past the columns": (
        {"data": "constant.csv"}, ["--target", "3"], "load",
        "target index 3 out of range for 3 columns",
    ),
    "negative target index": (
        {"data": "constant.csv"}, ["--target", "-1"], "load", "target index -1 out of range",
    ),
    "zero repeats": ({}, ["--repeats", "0"], "load", "repeats"),
    "misspelled config keys": (
        {"repeat": 5, "outdir": "elsewhere"}, [], "load", "unknown config keys ['outdir', 'repeat']"
    ),
    "config not an object": ({}, ["--config", "list.json"], "load", "must be a JSON object"),
    "training key on a ridge-only run": (
        {"algos": ["RR"]}, ["--set", "keep_prob=0.3", "--set", "iterations=3"], "load",
        "'keep_prob' has no effect on a ridge-only run",
    ),
    "config data not a string": ({"data": ["synthetic"]}, [], "load", '"data" must be str'),
    "config repeats a float": ({"repeats": 2.5}, [], "load", '"repeats" must be int, got float'),
    "config seed a bool": ({"seed": True}, [], "load", '"seed" must be int, got bool'),
    "negative seed": ({}, ["--seed", "-1"], "load", "seed must be a non-negative integer"),
    "grad-check with a negative seed": (
        {}, ["--grad-check", "--set", "trials=1", "--seed", "-1"], "load", "got -1"
    ),
    "algos of no name": ({}, ["--algos", ""], "load", "algos '' names no algorithm"),
    "algos of commas only": ({}, ["--algos", ","], "load", "algos ',' names no algorithm"),
    "config algos an empty list": ({"algos": []}, [], "load", "algos [] names no algorithm"),
    "set value of the wrong type": (
        {}, ["--set", "iterations=1.5"], "load", "--set iterations expects int, got '1.5'"
    ),
    "algorithm named twice": (
        {}, ["--algos", "MBGD,MBGD", "--set", "iterations=3"], "load",
        "'MBGD' is named more than once",
    ),
    "constant target column": (
        {"data": "constant_y.csv", "target": "y", "algos": ["RR", "MBGD-RDA"]},
        ["--set", "iterations=3"], "preprocess", "the training targets are constant",
    ),
}
FILES = {  # written to the working directory of every BAD_INPUTS case
    "constant.csv": "a,b,y\n" + "".join(f"{i},1,{i % 3}\n" for i in range(20)),
    "constant_y.csv": "a,b,y\n" + "".join(f"{i},{i % 3},1\n" for i in range(20)),
    "huge.csv": "a,b,y\n" + "".join(f"{i},{(-1) ** i * 1.5e308},{i % 3}\n" for i in range(20)),
    "not.json": "{data: synthetic}",
    "list.json": '["data", "synthetic"]',
    "a_file": "",
}


def assert_one_error_line(capsys, stage, text=""):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error in {stage}: "), err
    assert text in err


@pytest.mark.parametrize("config, flags, stage, text", BAD_INPUTS.values(), ids=list(BAD_INPUTS))
def test_bad_input_prints_one_error_line(
    tmp_path, monkeypatch, capsys, config, flags, stage, text
):
    monkeypatch.chdir(tmp_path)
    for name, content in FILES.items():
        (tmp_path / name).write_text(content)
    path = tmp_path / "exp.json"
    out = str(tmp_path / "out")
    path.write_text(
        json.dumps({"data": "synthetic", "algos": ["MBGD"], "repeats": 1, "out": out, **config})
    )
    assert main(["--config", str(path), *flags]) == 1
    assert_one_error_line(capsys, stage, text)


def test_bad_setting_fails_before_any_work(tmp_path, monkeypatch, capsys):
    """A setting that no config accepts is refused at load, before the suite
    splits the data, preprocesses it or fits ridge."""
    calls = []
    split = trainer.split
    monkeypatch.setattr(trainer, "split", lambda *a, **kw: calls.append(1) or split(*a, **kw))
    code = main(["--data", "synthetic", "--algos", "RR,MBGD-RDA", "--repeats", "10",
                 "--set", "beta2=1", "--out", str(tmp_path / "out")])
    assert code == 1
    assert_one_error_line(capsys, "load", "beta2 must be in [0, 1), got 1.0")
    assert calls == []


class TestGradCheckReport:
    def test_report_contents(self, tmp_path):
        # fixed seed: the max is dominated by finite-difference roundoff on
        # near-zero coordinates, so it fluctuates across seeds
        path = emit_gradient_check_report(2, 2, 100, 5, tmp_path / "g.txt")
        text = path.read_text()
        assert "max_relative_error=" in text
        max_err = float(text.split("max_relative_error=")[1].splitlines()[0])
        assert max_err <= 1e-5
        median = float(text.split("median_relative_error=")[1].splitlines()[0])
        assert median <= 1e-7

    def test_zero_trials_empty_report(self, tmp_path):
        path = emit_gradient_check_report(2, 2, 0, 0, tmp_path / "g.txt")
        assert path.read_text() == ""

    def test_grid_too_large(self, tmp_path):
        with pytest.raises(GridTooLarge):
            emit_gradient_check_report(10, 4, 1, 0, tmp_path / "g.txt")

    @pytest.mark.parametrize(
        "args, text",
        [((100, 1, 1), "got M=100"), ((0, 2, 1), ">= 1"), ((2, 2, -1), "trials"),
         ((6, 4, 1), "1024-rule")],
    )
    def test_direct_call_refuses_before_any_work(self, tmp_path, args, text):
        """emit_gradient_check_report makes the command line's load-stage
        checks itself, before it writes anything."""
        path = tmp_path / "g.txt"
        with pytest.raises(ValueError, match=text):
            emit_gradient_check_report(*args, 0, path)
        assert not path.exists()

    def test_bad_setting_fails_before_the_output_directory(self, tmp_path, capsys):
        out = tmp_path / "gc"
        assert main(["--grad-check", "--set", "M=0", "--out", str(out)]) == 1
        assert_one_error_line(capsys, "load", ">= 1")
        assert not out.exists()

    def test_huge_grid_refused_without_the_power(self, tmp_path):
        """3**100000000 takes minutes to compute; the limit is decided from
        M alone."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-m", "tskfuzzy", "--grad-check", "--set", "M=100000000",
             "--set", "Mm=3", "--out", str(tmp_path / "gc")],
            env=env, capture_output=True, text=True, timeout=10,
        )
        assert done.returncode == 1
        assert done.stderr.startswith("error in load: grid of 3**100000000 rules exceeds the 1024-rule")

    def test_main_grad_check(self, tmp_path):
        out = tmp_path / "gc"
        code = main(["--grad-check", "--out", str(out), "--seed", "3",
                     "--set", "trials=10"])
        assert code == 0
        assert (out / "grad_check.txt").exists()
