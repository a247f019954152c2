"""End-to-end tests for the command line interface, run in process."""

import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from resgp import MultiFidelityData, load_model, predict, read_audit, write_dataset_csv
from resgp.benchmarks import write_csv
from resgp.cli import _read_query_csv, main
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


@pytest.mark.parametrize("value", [-1, "x", None, True, float("inf")],
                         ids=["negative", "string", "null", "bool", "inf"])
def test_bad_noise_is_usage_error(tmp_path, capsys, value):
    write_dataset_csv(str(tmp_path / "data.csv"), sine_dataset())
    cfg = write_config(tmp_path, "train.json", {"dataset": str(tmp_path / "data.csv"), "noise": value})
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    assert "noise must be a finite number of at least 0" in capsys.readouterr().err


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
        ({"max_iters": 2.5}, "max_iters must be an integer"),
        ({"grad_tol": float("nan")}, "grad_tol must be finite and positive"),
    ],
    ids=["not-an-object", "seed-string", "seed-negative", "restarts-fraction",
         "max-iters-fraction", "grad-tol-nan"],
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
        ("delta", 2, "delta must lie strictly between 0 and 1"),
        ("tau", None, "tau must be a number"),
        ("l_y", -1, "l_y must be non-negative"),
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
