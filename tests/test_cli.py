"""End-to-end tests for the command line interface, run in process."""

import csv
import json
import math
import os
import re
import stat
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from resgp import MultiFidelityData, load_model, predict, read_audit, write_dataset_csv
from resgp.benchmarks import write_csv
from resgp.cli import _jsonable, _read_query_csv, main
from resgp.gp_level import IllConditionedError


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def currin_config(tmp_path, **overrides):
    payload = {"benchmark": "currin", "budgets": [12, 4], "test_points": 40, "seed": 0}
    payload.update(overrides)
    return write_config(tmp_path, "train.json", payload)


def write_queries(path, points):
    points = np.atleast_2d(points)
    lines = [",".join(f"x{i + 1}" for i in range(points.shape[1]))]
    for row in points:
        lines.append(",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def sine_dataset(n_low=25, n_high=10):
    x = np.linspace(0.0, 6.0, n_low)[:, None]
    low = np.sin(x)
    high = np.sin(x[:n_high]) + 0.3 * np.cos(2.0 * x[:n_high])
    return MultiFidelityData(inputs=[x, x[:n_high]], outputs=[low, high])


# ---------------------------------------------------------------------------
# exit codes


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_required_argument_is_usage_error(capsys):
    assert main(["train"]) == 1
    assert main(["predict", "--model", "m.json"]) == 1


def test_unreadable_config_is_usage_error(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "absent.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["train", "--config", str(bad)]) == 1
    bad.write_text("[1, 2]")
    assert main(["train", "--config", str(bad)]) == 1


def test_config_that_is_not_utf8_is_usage_error_naming_the_file(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"benchmark": "curr\xffn"}')
    assert main(["train", "--config", str(bad), "--out", str(tmp_path / "t")]) == 1
    err = capsys.readouterr().err
    assert f"config {bad} is not UTF-8 text" in err
    assert not (tmp_path / "t").exists()


def test_config_with_a_byte_order_mark_is_read(tmp_path):
    cfg = tmp_path / "bom.json"
    payload = {"benchmark": "currin", "budgets": [12, 4], "test_points": 40, "seed": 0}
    cfg.write_bytes(b"\xef\xbb\xbf" + json.dumps(payload).encode())
    out = tmp_path / "t"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "model.json").exists()


@pytest.mark.parametrize("fault", ["byte-order-mark", "not-utf8", "not-json"])
def test_model_file_encoding(tmp_path, capsys, fault):
    # a model file with a byte-order mark predicts as the plain file does; one that
    # is not UTF-8, or not JSON, is a data error naming the file
    model = tmp_path / "trained" / "model.json"
    assert main(["train", "--config", currin_config(tmp_path), "--out", str(model.parent)]) == 0
    queries = tmp_path / "q.csv"
    write_queries(queries, np.random.default_rng(0).uniform(size=(5, 2)))
    assert main(["predict", "--model", str(model), "--queries", str(queries),
                 "--out", str(tmp_path / "plain")]) == 0
    text = model.read_bytes()
    if fault == "byte-order-mark":
        model.write_bytes(b"\xef\xbb\xbf" + text)
        assert main(["predict", "--model", str(model), "--queries", str(queries),
                     "--out", str(tmp_path / "bom")]) == 0
        assert ((tmp_path / "bom" / "predictions.csv").read_bytes()
                == (tmp_path / "plain" / "predictions.csv").read_bytes())
    else:
        bad = b'"\xffformat"' if fault == "not-utf8" else b"format"
        model.write_bytes(text.replace(b'"format"', bad, 1))
        capsys.readouterr()
        assert main(["predict", "--model", str(model), "--queries", str(queries),
                     "--out", str(tmp_path / "bad")]) == 2
        assert f"model file {model}: not UTF-8 JSON" in capsys.readouterr().err


def test_config_must_pick_one_data_source(tmp_path, capsys):
    both = write_config(tmp_path, "both.json", {"benchmark": "currin", "dataset": "d.csv"})
    assert main(["train", "--config", both]) == 1
    neither = write_config(tmp_path, "neither.json", {"seed": 0})
    assert main(["train", "--config", neither]) == 1
    err = capsys.readouterr().err
    assert "exactly one" in err


def test_unknown_benchmark_is_usage_error(tmp_path, capsys):
    train_cfg = currin_config(tmp_path, benchmark="nope")
    assert main(["train", "--config", train_cfg, "--out", str(tmp_path / "t")]) == 1
    active_cfg = write_config(tmp_path, "active.json", {"benchmark": "nope", "pool_size": 20})
    assert main(["active", "--config", active_cfg, "--out", str(tmp_path / "a")]) == 1
    bench_cfg = write_config(tmp_path, "bench.json", {"benchmarks": ["currin", "nope"]})
    assert main(["bench", "--config", bench_cfg, "--out", str(tmp_path / "b")]) == 1
    assert capsys.readouterr().err.count("unknown benchmark 'nope'") == 3


@pytest.mark.parametrize("value", [5, ["currin"]], ids=["number", "list"])
def test_benchmark_that_is_not_a_name_is_usage_error(tmp_path, capsys, value):
    train_cfg = currin_config(tmp_path, benchmark=value)
    assert main(["train", "--config", train_cfg, "--out", str(tmp_path / "t")]) == 1
    active_cfg = write_config(tmp_path, "active.json", {"benchmark": value, "pool_size": 20})
    assert main(["active", "--config", active_cfg, "--out", str(tmp_path / "a")]) == 1
    bench_cfg = write_config(tmp_path, "bench.json", {"benchmarks": ["currin", value]})
    assert main(["bench", "--config", bench_cfg, "--out", str(tmp_path / "b")]) == 1
    message = f"usage error: benchmark must be a name or a BenchmarkSpec, got {value!r}"
    assert capsys.readouterr().err.count(message) == 3
    assert not any((tmp_path / out).exists() for out in "tab")


def test_bench_benchmarks_not_a_list_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "bench.json", {"benchmarks": "currin"})
    assert main(["bench", "--config", cfg, "--out", str(tmp_path / "b")]) == 1
    assert "list of benchmark names" in capsys.readouterr().err


def test_bench_benchmark_named_twice_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "bench.json", {"benchmarks": ["currin", "currin"], "test_points": 20})
    assert main(["bench", "--config", cfg, "--out", str(tmp_path / "b")]) == 1
    assert "bench benchmarks name 'currin' twice" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


def test_bench_budgets_for_a_benchmark_not_run_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "bench.json",
                       {"benchmarks": ["currin"], "budgets": {"currin": [6, 2], "curin": [3, 1]}})
    assert main(["bench", "--config", cfg, "--out", str(tmp_path / "b")]) == 1
    assert "bench budgets name 'curin', which is not a benchmark of this run" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


def test_malformed_dataset_is_data_error(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("x1,y1,fidelity\n0.0,1.0,1\n0.5,oops,1\n")
    cfg = write_config(tmp_path, "train.json", {"dataset": str(data)})
    assert main(["train", "--config", cfg]) == 2
    assert "line 3" in capsys.readouterr().err


def test_broken_nesting_is_data_error(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("x1,y1,fidelity\n0.0,1.0,1\n0.5,2.0,1\n0.25,1.5,2\n")
    cfg = write_config(tmp_path, "train.json", {"dataset": str(data)})
    assert main(["train", "--config", cfg]) == 2
    assert "fidelity 2" in capsys.readouterr().err


def test_train_on_repeated_rows_at_zero_jitter_is_numeric_error(tmp_path, capsys):
    # every Gram the fit tries is singular, so it has no optimum to save
    x = np.array([[0.1], [0.1], [0.5], [0.9], [0.9]])
    write_dataset_csv(str(tmp_path / "data.csv"), MultiFidelityData([x], [np.sin(6.0 * x)]))
    cfg = write_config(tmp_path, "train.json", {"dataset": str(tmp_path / "data.csv"), "jitter_rel": 0})
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert "numerical error" in err and "jitter_rel 0.000e+00" in err
    assert not (tmp_path / "run" / "model.json").exists()


def test_train_on_outputs_whose_squares_overflow_is_numeric_error(tmp_path, capsys):
    x = np.array([[0.0], [0.5], [1.0]])
    y = 1e155 * np.array([[1.0], [-2.0], [1.0]])
    write_dataset_csv(str(tmp_path / "data.csv"), MultiFidelityData([x], [y]))
    cfg = write_config(tmp_path, "train.json", {"dataset": str(tmp_path / "data.csv")})
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert "numerical error" in err and "the residuals overflow" in err
    assert not (tmp_path / "run" / "model.json").exists()


def test_predict_with_a_model_jitter_its_gram_does_not_factor_at_is_numeric_error(tmp_path, capsys):
    # repeated rows fit at the default jitter; at zero jitter their Gram is singular,
    # and loading the model factors each level at the jitter the file holds
    x = np.array([[0.1], [0.1], [0.5], [0.9], [0.9]])
    write_dataset_csv(str(tmp_path / "data.csv"), MultiFidelityData([x], [np.sin(6.0 * x)]))
    cfg = write_config(tmp_path, "train.json", {"dataset": str(tmp_path / "data.csv")})
    run = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(run)]) == 0
    model = json.loads((run / "model.json").read_text())
    model["levels"][0]["jitter"] = 0.0
    (run / "model.json").write_text(json.dumps(model))
    write_queries(tmp_path / "q.csv", [[0.3]])
    args = ["predict", "--model", str(run / "model.json"), "--queries", str(tmp_path / "q.csv")]
    assert main([*args, "--out", str(tmp_path / "pred")]) == 3
    assert "numerical error" in capsys.readouterr().err
    assert not (tmp_path / "pred" / "predictions.csv").exists()


def test_numerical_failure_is_numeric_error(tmp_path, capsys, monkeypatch):
    import resgp.cli as cli_mod

    def explode(*args, **kwargs):
        raise IllConditionedError("synthetic breakdown")

    monkeypatch.setattr(cli_mod, "run_benchmark_case", explode)
    cfg = currin_config(tmp_path)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert "numerical error" in capsys.readouterr().err


def test_an_allocation_that_fails_is_usage_error(tmp_path, capsys, monkeypatch):
    import resgp.cli as cli_mod

    model_path = tmp_path / "trained" / "model.json"
    assert main(["train", "--config", currin_config(tmp_path, budgets=[6, 2], test_points=20),
                 "--out", str(model_path.parent)]) == 0

    def exhausted(*args, **kwargs):  # numpy's message for grid_points 1e12 on a 2-D model
        raise MemoryError("Unable to allocate 14.6 TiB for an array with shape "
                          "(1000000000000, 2) and data type float64")

    monkeypatch.setattr(cli_mod, "design_uniform", exhausted)
    active_cfg = write_config(tmp_path, "active.json",
                              {"benchmark": "currin", "budgets": [6, 2], "pool_size": 20})
    assert main(["active", "--config", active_cfg, "--out", str(tmp_path / "a")]) == 1
    bounds_cfg = write_config(tmp_path, "bounds.json", {"delta": 0.05, "tau": 1e-3, "l_y": 36.0})
    assert main(["bounds", "--model", str(model_path), "--config", bounds_cfg,
                 "--out", str(tmp_path / "b")]) == 1
    err = capsys.readouterr().err
    assert err.count("usage error: not enough memory: Unable to allocate 14.6 TiB") == 2


def test_zero_repeats_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "bench.json", {"benchmarks": ["currin"], "repeats": 0})
    assert main(["bench", "--config", cfg, "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize(
    "command, key, payload",
    [
        ("train", "test_points", {"benchmark": "currin", "budgets": [6, 2]}),
        ("active", "test_points", {"benchmark": "currin", "budgets": [6, 2], "pool_size": 20}),
        ("active", "pool_size", {"benchmark": "currin", "budgets": [6, 2]}),
        ("bench", "test_points", {"benchmarks": ["currin"], "budgets": {"currin": [6, 2]}}),
    ],
    ids=["train-test_points", "active-test_points", "active-pool_size", "bench-test_points"],
)
@pytest.mark.parametrize("value", [0, -2, "ten", "20", 2.5, True])
def test_bad_count_is_usage_error(tmp_path, capsys, command, key, payload, value):
    cfg = write_config(tmp_path, f"{command}.json", {**payload, key: value})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "active", "bench"])
@pytest.mark.parametrize("value", ["x", None, [1], 2.9, False])
def test_bad_seed_is_usage_error(tmp_path, capsys, command, value):
    payload = {"benchmark": "currin", "budgets": [6, 2], "pool_size": 20, "test_points": 20}
    if command == "bench":
        payload = {"benchmarks": ["currin"], "budgets": {"currin": [6, 2]}, "test_points": 20}
    cfg = write_config(tmp_path, f"{command}.json", {**payload, "seed": value})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    assert "seed must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "active", "bench"])
def test_negative_seed_is_usage_error(tmp_path, capsys, command):
    payload = {"benchmark": "currin", "budgets": [6, 2], "pool_size": 20, "test_points": 20}
    if command == "bench":
        payload = {"benchmarks": ["currin"], "budgets": {"currin": [6, 2]}, "test_points": 20}
    cfg = write_config(tmp_path, f"{command}.json", {**payload, "seed": -1})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    ok = write_config(tmp_path, "ok.json", payload)
    assert main([command, "--config", ok, "--seed", "-3", "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err.count("seed must be at least 0") == 2


@pytest.mark.parametrize(
    "command, budgets",
    [
        ("train", [12, 0]),
        ("train", [12]),
        ("train", [4, 12]),
        ("train", "12"),
        ("train", [6.7, 2]),
        ("active", [0, 0]),
        ("active", [6, "two"]),
        ("active", [6, True]),
        ("active", [30, 5]),
        ("bench", [8, 0]),
        ("bench", None),
    ],
    ids=["train-zero", "train-short", "train-increasing", "train-string", "train-fraction",
         "active-zeros", "active-not-integer", "active-bool", "active-above-pool", "bench-zero",
         "bench-not-a-map"],
)
def test_bad_budgets_is_usage_error(tmp_path, capsys, command, budgets):
    payload = {"benchmark": "currin", "budgets": budgets, "pool_size": 20, "test_points": 20}
    if command == "bench":
        by_name = [8, 3] if budgets is None else {"currin": budgets}
        payload = {"benchmarks": ["currin"], "budgets": by_name, "test_points": 20}
    cfg = write_config(tmp_path, f"{command}.json", payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    assert "budget" in capsys.readouterr().err


def test_unknown_strategy_is_usage_error(tmp_path, capsys):
    payload = {"benchmark": "currin", "budgets": [6, 2], "pool_size": 20, "test_points": 20,
               "strategy": "nope"}
    cfg = write_config(tmp_path, "active.json", payload)
    assert main(["active", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    assert "strategy must be one of variance, random" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "active"])
@pytest.mark.parametrize("value", ["x", -1, None], ids=["string", "negative", "null"])
def test_bad_jitter_rel_is_usage_error(tmp_path, capsys, command, value):
    payload = {"benchmark": "currin", "budgets": [6, 2], "pool_size": 20, "test_points": 20,
               "jitter_rel": value}
    cfg = write_config(tmp_path, f"{command}.json", payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    assert "jitter_rel must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key",
    [("train", "standardize"), ("active", "standardize"), ("bench", "standardize"),
     ("dataset", "standardize"), ("dataset", "learn_noise")],
)
@pytest.mark.parametrize("value", ["false", "no", 0, None])
def test_non_boolean_switch_is_usage_error(tmp_path, capsys, command, key, value):
    payload = {"benchmark": "currin", "budgets": [6, 2], "pool_size": 20, "test_points": 20}
    if command == "bench":
        payload = {"benchmarks": ["currin"], "budgets": {"currin": [6, 2]}, "test_points": 20}
    if command == "dataset":
        write_dataset_csv(str(tmp_path / "data.csv"), sine_dataset())
        payload, command = {"dataset": str(tmp_path / "data.csv")}, "train"
    cfg = write_config(tmp_path, f"{command}.json", {**payload, key: value})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    assert f"{key} must be true or false" in capsys.readouterr().err


@pytest.mark.parametrize(
    "value, message",
    [(-1, "noise must be finite and at least 0"), ("x", "noise must be a number"),
     (None, "noise must be a number"), (True, "noise must be a number"),
     (float("inf"), "noise must be finite and at least 0")],
    ids=["negative", "string", "null", "bool", "inf"],
)
def test_bad_noise_is_usage_error(tmp_path, capsys, value, message):
    write_dataset_csv(str(tmp_path / "data.csv"), sine_dataset())
    cfg = write_config(tmp_path, "train.json", {"dataset": str(tmp_path / "data.csv"), "noise": value})
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    assert message in capsys.readouterr().err


def test_switches_and_noise_accept_json_values(tmp_path):
    write_dataset_csv(str(tmp_path / "data.csv"), sine_dataset())
    cfg = write_config(
        tmp_path,
        "train.json",
        {"dataset": str(tmp_path / "data.csv"), "standardize": True, "learn_noise": True,
         "noise": 1e-3, "jitter_rel": 0},
    )
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    assert json.loads((tmp_path / "run" / "record.json").read_text())["standardize"] is True


@pytest.mark.parametrize(
    "optimizer, message",
    [
        (5, "optimizer must be a JSON object"),
        ({"seed": "x"}, "seed must be an integer"),
        ({"seed": -1}, "seed must be at least 0"),
        ({"restarts": 2.5}, "restarts must be an integer"),
        ({"max_iters": 200}, "optimizer may set only restarts and seed, got ['max_iters']"),
        ({"grad_tol": 1e-8}, "optimizer may set only restarts and seed, got ['grad_tol']"),
        ({"restart": 3}, "optimizer may set only restarts and seed, got ['restart']"),
    ],
    ids=["not-an-object", "seed-string", "seed-negative", "restarts-fraction",
         "max-iters", "grad-tol", "unknown-key"],
)
def test_bad_optimizer_config_is_usage_error(tmp_path, capsys, optimizer, message):
    cfg = currin_config(tmp_path, budgets=[6, 2], test_points=20, optimizer=optimizer)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    assert message in capsys.readouterr().err


# Never 0, 1, 2 or a boolean: open() takes those as the file descriptors of
# this process's own stdin, stdout and stderr, and closes them after the read.
@pytest.mark.parametrize("value", [None, ["data.csv"], 2.5, 12345], ids=["null", "list", "float", "int"])
@pytest.mark.parametrize("command, key", [("train", "dataset"), ("train", "test_dataset"), ("bounds", "truth")])
def test_file_path_must_be_a_json_string(request, tmp_path, capsys, command, key, value):
    if command == "train":
        write_dataset_csv(str(tmp_path / "data.csv"), sine_dataset())
        payload = {"dataset": str(tmp_path / "data.csv"), key: value}
        argv = ["train", "--config", write_config(tmp_path, "train.json", payload)]
    else:
        payload = {"delta": 0.05, "tau": 1e-3, "l_y": 10.0, key: value}
        argv = ["bounds", "--model", str(request.getfixturevalue("univariate_model")),
                "--config", write_config(tmp_path, "bounds.json", payload)]
    assert main(argv + ["--out", str(tmp_path / "run")]) == 1
    assert f"{key} must be a file path" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "command, payload",
    [
        ("train", {"benchmark": "currin", "budgets": [6, 2], "test_points": 0}),
        ("active", {"benchmark": "currin", "budgets": [6, 2], "pool_size": 20, "standardize": "no"}),
        ("bench", {"benchmarks": ["currin", "nope"], "budgets": {"currin": [6, 2]}}),
    ],
    ids=["train", "active", "bench"],
)
def test_config_fault_creates_no_out_directory(tmp_path, command, payload):
    cfg = write_config(tmp_path, f"{command}.json", payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    assert not (tmp_path / "run").exists()


def test_bounds_config_fault_wins_over_missing_model(tmp_path, capsys):
    cfg = write_config(tmp_path, "bounds.json", {"delta": 0.05, "tau": 1e-3, "l_y": 10.0, "grid_points": 0})
    argv = ["bounds", "--model", str(tmp_path / "absent.json"), "--config", cfg, "--out", str(tmp_path / "b")]
    assert main(argv) == 1
    assert "grid_points" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


def test_bounds_domain_that_is_not_a_hypercube_is_a_config_fault(tmp_path, capsys):
    domain = {"lower": [0.0, 0.0], "upper": [1.0, 2.0]}
    cfg = write_config(tmp_path, "bounds.json", {"delta": 0.05, "tau": 1e-3, "l_y": 10.0, "domain": domain})
    argv = ["bounds", "--model", str(tmp_path / "absent.json"), "--config", cfg, "--out", str(tmp_path / "b")]
    assert main(argv) == 1
    assert "usage error: covering bound requires a hypercubic domain" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


def test_train_config_fault_wins_over_bad_dataset(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("x1,y1,fidelity\n0.0,oops,1\n")
    cfg = write_config(tmp_path, "train.json", {"dataset": str(data), "noise": -1})
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    assert "noise must be" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train


def test_train_benchmark_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    assert main(["train", "--config", currin_config(tmp_path), "--out", str(out)]) == 0
    record = json.loads((out / "record.json").read_text())
    assert record["command"] == "train"
    assert record["seed"] == 0
    assert record["counts"] == [12, 4]
    assert set(record["metrics"]) == {"rmse", "r2", "mnll", "nrmse"}
    assert math.isfinite(record["joint_nll"])
    assert len(record["per_fidelity_nll"]) == 2
    assert abs(sum(record["per_fidelity_nll"]) - record["joint_nll"]) < 1e-9
    meta = json.loads((out / "dataset_meta.json").read_text())
    assert meta["benchmark"] == "currin"
    assert meta["subsample_seeds"] == [2]
    model = load_model(str(out / "model.json"))
    assert model.input_dim == 2
    assert (out / "dataset.csv").exists()


def test_train_reruns_are_reproducible(tmp_path):
    cfg = currin_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", cfg, "--out", str(a)]) == 0
    assert main(["train", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()
    assert (a / "model.json").read_bytes() == (b / "model.json").read_bytes()
    ra = json.loads((a / "record.json").read_text())
    rb = json.loads((b / "record.json").read_text())
    assert ra["metrics"] == rb["metrics"]
    assert ra["config_hash"] == rb["config_hash"]


def test_train_seed_flag_overrides_config(tmp_path):
    out = tmp_path / "run"
    assert main(["train", "--config", currin_config(tmp_path), "--seed", "3", "--out", str(out)]) == 0
    record = json.loads((out / "record.json").read_text())
    assert record["seed"] == 3


def test_train_from_dataset_csv(tmp_path):
    data_path = tmp_path / "data.csv"
    write_dataset_csv(str(data_path), sine_dataset())
    cfg = write_config(
        tmp_path,
        "train.json",
        {"dataset": str(data_path), "domain": {"lower": [0.0], "upper": [6.0]}},
    )
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    record = json.loads((out / "record.json").read_text())
    assert record["metrics"] is None
    assert record["counts"] == [25, 10]
    model = load_model(str(out / "model.json"))
    assert model.input_dim == 1
    np.testing.assert_allclose(model.domain.lower, [0.0])


def test_train_from_dataset_with_test_scores(tmp_path):
    data_path = tmp_path / "data.csv"
    write_dataset_csv(str(data_path), sine_dataset())
    test = sine_dataset(n_low=8, n_high=8)
    test_path = tmp_path / "test.csv"
    write_dataset_csv(str(test_path), test)
    cfg = write_config(
        tmp_path,
        "train.json",
        {
            "dataset": str(data_path),
            "test_dataset": str(test_path),
            "domain": {"lower": [0.0], "upper": [6.0]},
        },
    )
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    record = json.loads((out / "record.json").read_text())
    assert record["metrics"] is not None
    assert record["metrics"]["rmse"] >= 0.0


# ---------------------------------------------------------------------------
# predict


@pytest.fixture()
def trained(tmp_path):
    out = tmp_path / "trained"
    assert main(["train", "--config", currin_config(tmp_path), "--out", str(out)]) == 0
    dataset = read_csv_rows(out / "dataset.csv")
    high = [r for r in dataset[1:] if r[-1] == "2"]
    inputs = np.array([[float(r[0]), float(r[1])] for r in high])
    targets = np.array([float(r[2]) for r in high])
    return out, inputs, targets


def test_predict_interpolates_training_points(trained, tmp_path):
    out, inputs, targets = trained
    qfile = tmp_path / "q.csv"
    write_queries(qfile, inputs)
    pdir = tmp_path / "pred"
    assert main(["predict", "--model", str(out / "model.json"), "--queries", str(qfile), "--out", str(pdir)]) == 0
    rows = read_csv_rows(pdir / "predictions.csv")
    assert rows[0] == ["y1", "variance"]
    got = np.array([[float(v) for v in r] for r in rows[1:]])
    assert got.shape == (4, 2)
    np.testing.assert_allclose(got[:, 0], targets, atol=1e-3 * (1.0 + np.abs(targets).max()))
    assert np.all(got[:, 1] >= 0.0)


def test_predict_matches_in_memory_model(trained, tmp_path):
    out, inputs, _ = trained
    qfile = tmp_path / "q.csv"
    write_queries(qfile, inputs)
    pdir = tmp_path / "pred"
    assert main(["predict", "--model", str(out / "model.json"), "--queries", str(qfile), "--out", str(pdir)]) == 0
    rows = read_csv_rows(pdir / "predictions.csv")[1:]
    model = load_model(str(out / "model.json"))
    post = predict(model, inputs)
    # repr round-trips floats exactly
    np.testing.assert_array_equal([float(r[0]) for r in rows], np.asarray(post.mean)[:, 0])
    np.testing.assert_array_equal([float(r[1]) for r in rows], np.asarray(post.var))


def test_predict_empty_queries_yields_header_only(trained, tmp_path):
    out, _, _ = trained
    qfile = tmp_path / "q.csv"
    qfile.write_text("x1,x2\n")
    pdir = tmp_path / "pred"
    assert main(["predict", "--model", str(out / "model.json"), "--queries", str(qfile), "--out", str(pdir)]) == 0
    assert (pdir / "predictions.csv").read_text() == "y1,variance\n"


def test_predict_structured_format(trained, tmp_path):
    out, inputs, _ = trained
    qfile = tmp_path / "q.csv"
    write_queries(qfile, inputs[:2])
    pdir = tmp_path / "pred"
    assert main(
        ["predict", "--model", str(out / "model.json"), "--queries", str(qfile), "--out", str(pdir), "--format", "structured"]
    ) == 0
    payload = json.loads((pdir / "predictions.json").read_text())
    assert len(payload["means"]) == 2
    assert len(payload["variances"]) == 2


def walk_jsonable(value):
    """_jsonable's element-by-element walk of an array: the reference for its finite shortcut."""
    if isinstance(value, list):
        return [walk_jsonable(v) for v in value]
    if math.isnan(value):
        return "nan"
    return ("inf" if value > 0 else "-inf") if math.isinf(value) else value


@settings(max_examples=200, deadline=None, derandomize=True)
@given(arrays(st.sampled_from([np.float64, np.float32]), st.lists(st.integers(0, 3), max_size=3),
              elements=st.one_of(st.floats(width=32), st.sampled_from([math.nan, math.inf,
                                                                          -math.inf, -0.0]))))
def test_jsonable_array_matches_the_element_walk(table):
    expected = walk_jsonable(table.tolist())
    assert json.dumps(_jsonable(table)) == json.dumps(expected)
    assert json.dumps(_jsonable({"means": table}), indent=1) == json.dumps({"means": expected}, indent=1)


def test_predict_calls_in_one_process_share_no_parsed_value(trained, tmp_path):
    # the parser is built once per process; each call parses its own arguments
    out, inputs, _ = trained
    qfile = tmp_path / "q.csv"
    write_queries(qfile, inputs[:2])
    first, second = tmp_path / "first", tmp_path / "second"
    argv = ["predict", "--model", str(out / "model.json"), "--queries", str(qfile), "--out"]
    assert main(argv + [str(first), "--format", "structured"]) == 0
    assert main(argv + [str(second)]) == 0
    assert sorted(p.name for p in first.iterdir()) == ["predictions.json"]
    assert sorted(p.name for p in second.iterdir()) == ["predictions.csv"]


def test_predict_query_csv_with_a_byte_order_mark_reads_as_without(trained, tmp_path):
    out, inputs, _ = trained
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    write_queries(plain, inputs)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for qfile in (plain, marked):
        argv = ["predict", "--model", str(out / "model.json"), "--queries", str(qfile)]
        assert main(argv + ["--out", str(tmp_path / qfile.stem)]) == 0
    assert ((tmp_path / "marked" / "predictions.csv").read_bytes()
            == (tmp_path / "plain" / "predictions.csv").read_bytes())


def test_predict_bad_query_header_is_data_error(trained, tmp_path, capsys):
    out, _, _ = trained
    qfile = tmp_path / "q.csv"
    qfile.write_text("a,b\n0.1,0.2\n")
    assert main(["predict", "--model", str(out / "model.json"), "--queries", str(qfile), "--out", str(tmp_path)]) == 2
    assert "query header" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("x1,x2\n0.1,0.2\n0.3\n", "line 3: expected 2 fields, got 1"),
        ("x1,x2\n0.1,0.2\n\n0.3,abc\n", "line 4: could not convert string to float"),
        ("x1,x2\n0.1,nan\n", "line 2: values must be finite"),
        ("x1,x2\n0.1,0.2\n\n-inf,0.2\n", "line 4: values must be finite"),
        ("x1,x2\n0.1," + "2" * 200_000 + "\n", "line 2: field larger than field limit"),
        (None, "cannot read"),
    ],
    ids=["field-count", "not-a-number", "nan", "inf", "oversized-field", "missing-file"],
)
def test_predict_bad_query_rows_are_data_errors(trained, tmp_path, capsys, text, message):
    out, _, _ = trained
    qfile = tmp_path / "q.csv"
    if text is not None:
        qfile.write_text(text)
    argv = ["predict", "--model", str(out / "model.json"), "--queries", str(qfile), "--out", str(tmp_path)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.fixture(scope="module")
def sine_model_file(tmp_path_factory):
    """The model file of a two-level, one-input, one-output fit, as a parsed dict."""
    tmp = tmp_path_factory.mktemp("sine")
    write_dataset_csv(str(tmp / "data.csv"), sine_dataset())
    cfg = write_config(tmp, "train.json", {"dataset": str(tmp / "data.csv")})
    assert main(["train", "--config", cfg, "--out", str(tmp / "run")]) == 0
    return json.loads((tmp / "run" / "model.json").read_text())


def set_level_field(key, value, level=0):
    def edit(model):
        model["levels"][level][key] = value
    return edit


def drop_level_field(key, level=0):
    def edit(model):
        del model["levels"][level][key]
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (set_level_field("amplitude", None), "level 1: amplitude must be a number, got None"),
        (set_level_field("jitter", None), "level 1: jitter must be a number, got None"),
        (lambda m: m.update(levels=5), "levels must be a non-empty list, got 5"),
        (set_level_field("amplitude", "2"), "level 1: amplitude must be a number, got '2'"),
        (drop_level_field("noise", level=1), "level 2: missing field 'noise'"),
        (set_level_field("noise", -1.0, level=1), "level 2: noise must be finite and at least 0"),
        (set_level_field("weights", [1.0, 1.0]), "level 1: 2 weights, inputs of shape (25, 1)"),
        (set_level_field("column_means", [0.0, 0.0], level=1),
         "level 2: 1 weights, inputs of shape (10, 1), residuals of shape (10, 1) and 2 "
         "column_means do not fit"),
        (set_level_field("inputs", "x"), "level 1: inputs must be an array of numbers"),
        (lambda m: m.update(output_dim=3), "output_dim is 3, but the domain and levels give 1"),
        (lambda m: m.update(input_dim=2), "input_dim is 2, but the domain and levels give 1"),
        (lambda m: m.pop("input_dim"), "missing field 'input_dim'"),
        (lambda m: m["domain"].update(lower=[True]), "domain: lower must be an array of numbers"),
    ],
    ids=["amplitude-null", "jitter-null", "levels-not-a-list", "amplitude-string",
         "noise-missing", "noise-negative", "weights-length", "column-means-length",
         "inputs-string", "output-dim", "input-dim", "input-dim-missing", "domain-bool"],
)
def test_predict_with_a_bad_model_field_is_data_error(sine_model_file, tmp_path, capsys, edit,
                                                       message):
    model = json.loads(json.dumps(sine_model_file))
    edit(model)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    write_queries(tmp_path / "q.csv", [[0.3]])
    argv = ["predict", "--model", str(path), "--queries", str(tmp_path / "q.csv")]
    assert main([*argv, "--out", str(tmp_path / "pred")]) == 2
    assert f"data error: model file {path}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "pred").exists()


@example(np.array([[-0.0, 5e-324, 1e308], [-1e308, 0.1, -2.2250738585072014e-308]]))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(arrays(np.float64, st.tuples(st.integers(0, 6), st.integers(1, 3)),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_query_csv_round_trips_bit_exactly(tmp_path_factory, queries):
    path = str(tmp_path_factory.mktemp("csv") / "q.csv")
    l = queries.shape[1]
    write_csv(path, [f"x{i + 1}" for i in range(l)], queries.tolist())
    back = _read_query_csv(path, l)
    assert back.shape == queries.shape
    assert back.tobytes() == queries.tobytes()


# ---------------------------------------------------------------------------
# active


def test_active_writes_audit_and_record(tmp_path):
    cfg = write_config(
        tmp_path,
        "active.json",
        {"benchmark": "currin", "budgets": [8, 3], "pool_size": 40, "test_points": 30, "seed": 1},
    )
    out = tmp_path / "run"
    assert main(["active", "--config", cfg, "--out", str(out)]) == 0
    audit = read_audit(str(out / "audit.jsonl"))
    assert len(audit) == 11
    assert sum(1 for rec in audit if rec["mode"] == "seed") == 2
    record = json.loads((out / "record.json").read_text())
    assert record["acquisitions"] == 11
    assert record["budgets"] == [8, 3]
    assert set(record["metrics"]) == {"rmse", "r2", "mnll", "nrmse"}
    model = load_model(str(out / "model.json"))
    assert model.levels[0].inputs.shape[0] == 8


def test_active_reruns_are_reproducible(tmp_path):
    cfg = write_config(
        tmp_path,
        "active.json",
        {"benchmark": "currin", "budgets": [6, 2], "pool_size": 30, "test_points": 20, "seed": 2},
    )
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["active", "--config", cfg, "--out", str(a)]) == 0
    assert main(["active", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "audit.jsonl").read_bytes() == (b / "audit.jsonl").read_bytes()
    ra = json.loads((a / "record.json").read_text())
    rb = json.loads((b / "record.json").read_text())
    assert ra["metrics"] == rb["metrics"]


def test_active_simulates_each_design_point_once(tmp_path, monkeypatch):
    import resgp.cli as cli_mod

    fidelities = []
    real = cli_mod.evaluate

    def counting(bench, fidelity, query):
        if np.ndim(query) == 1:
            fidelities.append(fidelity)
        return real(bench, fidelity, query)

    monkeypatch.setattr(cli_mod, "evaluate", counting)
    cfg = write_config(
        tmp_path,
        "active.json",
        {"benchmark": "currin", "budgets": [12, 4], "pool_size": 40, "test_points": 20, "seed": 0},
    )
    assert main(["active", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    assert fidelities.count(1) == 12
    assert fidelities.count(2) == 4


def test_active_requires_benchmark(tmp_path):
    cfg = write_config(tmp_path, "active.json", {"budgets": [5, 2]})
    assert main(["active", "--config", cfg, "--out", str(tmp_path)]) == 1


# ---------------------------------------------------------------------------
# bounds


@pytest.fixture()
def univariate_model(tmp_path):
    data_path = tmp_path / "data.csv"
    write_dataset_csv(str(data_path), sine_dataset())
    cfg = write_config(
        tmp_path,
        "train.json",
        {"dataset": str(data_path), "domain": {"lower": [0.0], "upper": [6.0]}},
    )
    out = tmp_path / "trained"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    return out / "model.json"


def test_bounds_reports_constants_and_curve(univariate_model, tmp_path):
    cfg = write_config(
        tmp_path,
        "bounds.json",
        {"delta": 0.05, "tau": 1e-3, "l_y": 10.0, "grid_points": 64},
    )
    out = tmp_path / "bounds"
    assert main(["bounds", "--model", str(univariate_model), "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "bounds.json").read_text())
    assert report["covering_consistent"] is True
    assert report["beta"] == pytest.approx(2.0 * (math.log(report["covering"]) - math.log(0.05)), rel=1e-12)
    assert report["gamma"] > 0.0
    rows = read_csv_rows(out / "curve.csv")
    assert rows[0] == ["x1", "mean", "sigma", "bound"]
    assert len(rows) == 65
    sigma = np.array([float(r[2]) for r in rows[1:]])
    bound = np.array([float(r[3]) for r in rows[1:]])
    np.testing.assert_allclose(bound, math.sqrt(report["beta"]) * sigma + report["gamma"], rtol=1e-12)


def test_bounds_coverage_against_truth_file(univariate_model, tmp_path):
    truth_path = tmp_path / "truth.csv"
    write_dataset_csv(str(truth_path), sine_dataset(n_low=12, n_high=12))
    cfg = write_config(
        tmp_path,
        "bounds.json",
        {"delta": 0.05, "tau": 1e-3, "l_y": 10.0, "truth": str(truth_path), "grid_points": 16},
    )
    out = tmp_path / "bounds"
    assert main(["bounds", "--model", str(univariate_model), "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "bounds.json").read_text())
    assert report["coverage"] == 1.0


@pytest.mark.parametrize("value", [0, -2, "ten"])
def test_bounds_bad_grid_points_is_usage_error(univariate_model, tmp_path, capsys, value):
    cfg = write_config(
        tmp_path, "bounds.json", {"delta": 0.05, "tau": 1e-3, "l_y": 10.0, "grid_points": value}
    )
    assert main(["bounds", "--model", str(univariate_model), "--config", cfg, "--out", str(tmp_path / "b")]) == 1
    assert "grid_points" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("delta", "x", "delta must be a number"),
        ("delta", 2, "delta must be finite and in (0, 1)"),
        ("tau", None, "tau must be a number"),
        ("l_y", -1, "l_y must be finite and at least 0"),
    ],
    ids=["delta-string", "delta-above-one", "tau-null", "l_y-negative"],
)
def test_bounds_bad_constant_is_usage_error(univariate_model, tmp_path, capsys, key, value, message):
    payload = {"delta": 0.05, "tau": 1e-3, "l_y": 10.0, key: value}
    cfg = write_config(tmp_path, "bounds.json", payload)
    assert main(["bounds", "--model", str(univariate_model), "--config", cfg, "--out", str(tmp_path / "b")]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("l_y", True), ("tau", "0.001")], ids=["l_y-bool", "tau-string"])
def test_bounds_constant_must_be_a_json_number(univariate_model, tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, "bounds.json", {"delta": 0.05, "tau": 1e-3, "l_y": 10.0, key: value})
    assert main(["bounds", "--model", str(univariate_model), "--config", cfg, "--out", str(tmp_path / "b")]) == 1
    assert f"{key} must be a number" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "bounds"])
@pytest.mark.parametrize("lower", [["0"], [False]], ids=["string", "bool"])
def test_domain_bounds_must_be_json_numbers(univariate_model, tmp_path, capsys, command, lower):
    domain = {"lower": lower, "upper": [6.0]}
    if command == "train":
        write_dataset_csv(str(tmp_path / "data.csv"), sine_dataset())
        cfg = write_config(tmp_path, "train.json", {"dataset": str(tmp_path / "data.csv"), "domain": domain})
        argv = ["train", "--config", cfg]
    else:
        cfg = write_config(tmp_path, "bounds.json", {"delta": 0.05, "tau": 1e-3, "l_y": 10.0, "domain": domain})
        argv = ["bounds", "--model", str(univariate_model), "--config", cfg]
    assert main(argv + ["--out", str(tmp_path / "run")]) == 1
    assert "domain lower must be a number" in capsys.readouterr().err


@pytest.mark.parametrize("tau", [1e-300, 5e-324])
def test_bounds_covering_number_overflow_is_numeric_error(tmp_path, capsys, tau):
    model_path = tmp_path / "trained" / "model.json"
    assert main(["train", "--config", currin_config(tmp_path, budgets=[6, 2], test_points=20),
                 "--out", str(model_path.parent)]) == 0
    cfg = write_config(tmp_path, "bounds.json", {"delta": 0.05, "tau": tau, "l_y": 36.0})
    assert main(["bounds", "--model", str(model_path), "--config", cfg,
                 "--out", str(tmp_path / "b")]) == 3
    assert f"numerical error: covering number at tau {tau:g} too large" in capsys.readouterr().err


def test_bounds_requires_config_keys(univariate_model, tmp_path, capsys):
    cfg = write_config(tmp_path, "bounds.json", {"delta": 0.05, "l_y": 10.0})
    assert main(["bounds", "--model", str(univariate_model), "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "tau" in capsys.readouterr().err


def test_bounds_rejects_multi_output_model(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "train.json",
        {"benchmark": "pendulum", "budgets": [10, 4], "test_points": 20, "seed": 0},
    )
    out = tmp_path / "trained"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    bcfg = write_config(tmp_path, "bounds.json", {"delta": 0.05, "tau": 1e-3, "l_y": 10.0})
    assert main(["bounds", "--model", str(out / "model.json"), "--config", bcfg, "--out", str(tmp_path)]) == 2
    assert "single-output" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bench


def test_bench_writes_results_and_summary(tmp_path):
    cfg = write_config(
        tmp_path,
        "bench.json",
        {"benchmarks": ["currin"], "repeats": 2, "test_points": 30, "budgets": {"currin": [10, 3]}, "seed": 0},
    )
    out = tmp_path / "run"
    assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv_rows(out / "results.csv")
    assert rows[0] == [
        "benchmark", "budgets", "repeat", "seed",
        "rmse", "r2", "mnll", "nrmse", "raw_rmse", "raw_r2", "joint_nll",
    ]
    assert len(rows) == 3
    assert [r[0] for r in rows[1:]] == ["currin", "currin"]
    assert [r[1] for r in rows[1:]] == ["10-3", "10-3"]
    assert [r[2] for r in rows[1:]] == ["0", "1"]
    assert [r[3] for r in rows[1:]] == ["0", "1"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["benchmarks"]["currin"]["repeats"] == 2
    assert math.isfinite(summary["benchmarks"]["currin"]["r2"])


def test_bench_results_are_byte_stable(tmp_path):
    cfg = write_config(
        tmp_path,
        "bench.json",
        {"benchmarks": ["currin"], "repeats": 2, "test_points": 20, "budgets": {"currin": [8, 3]}},
    )
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["bench", "--config", cfg, "--out", str(a)]) == 0
    assert main(["bench", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()


def test_bench_structured_format(tmp_path):
    cfg = write_config(
        tmp_path,
        "bench.json",
        {"benchmarks": ["currin"], "test_points": 20, "budgets": {"currin": [8, 3]}},
    )
    out = tmp_path / "run"
    assert main(["bench", "--config", cfg, "--out", str(out), "--format", "structured"]) == 0
    payload = json.loads((out / "results.json").read_text())
    assert len(payload["rows"]) == 1
    assert payload["rows"][0]["benchmark"] == "currin"
    assert "fit_seconds" not in payload["rows"][0]


# ---------------------------------------------------------------------------
# module entry point


def test_module_invocation_round_trip(tmp_path):
    cfg = currin_config(tmp_path)
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "resgp.cli", "train", "--config", cfg, "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "record.json").exists()


@pytest.mark.parametrize(
    "command, flags",
    [("train", {"--config", "--seed", "--out"}),
     ("predict", {"--model", "--queries", "--out", "--format"}),
     ("active", {"--config", "--seed", "--out"}),
     ("bounds", {"--model", "--config", "--seed", "--out"}),
     ("bench", {"--config", "--seed", "--out", "--format"})],
)
def test_help_lists_each_commands_flags(command, flags):
    proc = subprocess.run([sys.executable, "-m", "resgp.cli", command, "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert set(re.findall(r"--[a-z]+", proc.stdout)) == flags | {"--help"}


# ---------------------------------------------------------------------------
# run records and output files


METRIC_FIELDS = {"rmse", "r2", "mnll", "nrmse"}
FIT_FIELDS = {"command", "config_hash", "seed", "metrics", "raw_metrics", "standardize", "scale",
              "per_fidelity_nll", "joint_nll", "model_path", "wall_time_s"}


def run_each_command(tmp_path):
    """Run train (benchmark and dataset), predict, active, bounds and bench once; their --out dirs."""
    write_dataset_csv(str(tmp_path / "data.csv"), sine_dataset())
    write_dataset_csv(str(tmp_path / "truth.csv"), sine_dataset(n_low=12, n_high=12))
    write_queries(tmp_path / "q.csv", [[0.3], [2.0]])
    configs = {
        "train": {"benchmark": "currin", "budgets": [8, 3], "test_points": 20},
        "dataset": {"dataset": str(tmp_path / "data.csv"), "test_dataset": str(tmp_path / "truth.csv")},
        "active": {"benchmark": "currin", "budgets": [6, 2], "pool_size": 20, "test_points": 20},
        "bounds": {"delta": 0.05, "tau": 1e-3, "l_y": 10.0, "grid_points": 8,
                   "truth": str(tmp_path / "truth.csv")},
        "bench": {"benchmarks": ["currin"], "test_points": 20, "budgets": {"currin": [8, 3]}},
    }
    cfg = {name: write_config(tmp_path, f"{name}.json", payload) for name, payload in configs.items()}
    out = {name: tmp_path / name for name in (*configs, "predict")}
    model = str(out["dataset"] / "model.json")
    for argv in (["train", "--config", cfg["train"]], ["train", "--config", cfg["dataset"]],
                 ["predict", "--model", model, "--queries", str(tmp_path / "q.csv")],
                 ["active", "--config", cfg["active"]],
                 ["bounds", "--model", model, "--config", cfg["bounds"]],
                 ["bench", "--config", cfg["bench"]]):
        name = "dataset" if argv[2] == cfg["dataset"] else argv[0]
        assert main([*argv, "--out", str(out[name])]) == 0, argv
    return out


@pytest.fixture(scope="module")
def command_outputs(tmp_path_factory):
    return run_each_command(tmp_path_factory.mktemp("commands"))


def test_each_command_writes_exactly_its_files(command_outputs):
    files = {name: sorted(p.name for p in out.iterdir()) for name, out in command_outputs.items()}
    assert files == {
        "train": ["dataset.csv", "dataset_meta.json", "model.json", "record.json"],
        "dataset": ["model.json", "record.json"],
        "predict": ["predictions.csv"],
        "active": ["audit.jsonl", "model.json", "record.json"],
        "bounds": ["bounds.json", "curve.csv"],
        "bench": ["results.csv", "summary.json"],
    }


@pytest.mark.parametrize("name", ["train", "dataset"])
def test_train_record_fields(command_outputs, name):
    record = json.loads((command_outputs[name] / "record.json").read_text())
    assert set(record) == FIT_FIELDS | {"counts", "residual_rms"}
    assert record["command"] == "train"
    assert set(record["metrics"]) == set(record["raw_metrics"]) == METRIC_FIELDS


def test_active_record_fields(command_outputs):
    record = json.loads((command_outputs["active"] / "record.json").read_text())
    assert set(record) == FIT_FIELDS | {"strategy", "budgets", "pool_size", "audit_path",
                                        "acquisitions"}
    assert record["command"] == "active"
    assert set(record["metrics"]) == set(record["raw_metrics"]) == METRIC_FIELDS


def test_bounds_record_fields(command_outputs):
    report = json.loads((command_outputs["bounds"] / "bounds.json").read_text())
    assert set(report) == {"command", "config_hash", "beta", "gamma", "l_mu", "omega_coeff",
                           "covering", "covering_consistent", "delta", "tau", "l_y", "coverage",
                           "curve_path", "wall_time_s"}
    assert report["command"] == "bounds"


def test_bench_summary_fields(command_outputs):
    summary = json.loads((command_outputs["bench"] / "summary.json").read_text())
    assert set(summary) == {"command", "config_hash", "seed", "standardize", "benchmarks",
                            "results_path", "wall_time_s"}
    assert summary["command"] == "bench"
    assert set(summary["benchmarks"]["currin"]) == METRIC_FIELDS | {"repeats"}


def test_bench_structured_rows_carry_the_csv_columns(command_outputs, tmp_path):
    header = read_csv_rows(command_outputs["bench"] / "results.csv")[0]
    cfg = write_config(tmp_path, "bench.json",
                       {"benchmarks": ["currin"], "test_points": 20, "budgets": {"currin": [8, 3]}})
    out = tmp_path / "run"
    assert main(["bench", "--config", cfg, "--out", str(out), "--format", "structured"]) == 0
    rows = json.loads((out / "results.json").read_text())["rows"]
    assert [set(row) for row in rows] == [set(header)]


def test_written_files_take_their_mode_from_the_umask(tmp_path):
    plain = tmp_path / "plain.txt"
    old = os.umask(0o022)
    try:
        plain.write_text("")
        write_dataset_csv(str(tmp_path / "data.csv"), sine_dataset())
        cfg = write_config(tmp_path, "train.json", {"dataset": str(tmp_path / "data.csv")})
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    finally:
        os.umask(old)
    mode = stat.S_IMODE(plain.stat().st_mode)
    assert mode == 0o644
    for name in ("model.json", "record.json"):
        assert stat.S_IMODE((tmp_path / "run" / name).stat().st_mode) == mode


@pytest.mark.parametrize("value", ["x", -1, None], ids=["string", "negative", "null"])
def test_bench_bad_jitter_rel_is_usage_error(tmp_path, capsys, value):
    cfg = write_config(tmp_path, "bench.json", {"benchmarks": ["currin"], "test_points": 20,
                                                "budgets": {"currin": [6, 2]}, "jitter_rel": value})
    assert main(["bench", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    assert "jitter_rel must be" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_bench_passes_jitter_rel_to_each_case(tmp_path, monkeypatch):
    import resgp.cli as cli_mod

    seen = []
    real = cli_mod.run_benchmark_case

    def recording(*args, **kwargs):
        seen.append(kwargs.get("jitter_rel"))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli_mod, "run_benchmark_case", recording)
    cfg = write_config(tmp_path, "bench.json", {"benchmarks": ["currin"], "repeats": 2, "test_points": 20,
                                                "budgets": {"currin": [6, 2]}, "jitter_rel": 1e-6})
    assert main(["bench", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    assert seen == [1e-6, 1e-6]


@pytest.mark.parametrize("version", [True, 1.0, "1", None, 2], ids=["true", "float", "string", "null", "2"])
def test_predict_with_a_model_version_other_than_integer_1_is_data_error(sine_model_file, tmp_path,
                                                                        capsys, version):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**sine_model_file, "version": version}))
    write_queries(tmp_path / "q.csv", [[0.3]])
    argv = ["predict", "--model", str(path), "--queries", str(tmp_path / "q.csv")]
    assert main([*argv, "--out", str(tmp_path / "pred")]) == 2
    err = capsys.readouterr().err
    if version == 2:
        assert f"data error: model file {path}: version must be in [1, 1], got 2" in err
    else:
        assert f"data error: model file {path}: version must be an integer, got {version!r}" in err
    assert not (tmp_path / "pred").exists()
