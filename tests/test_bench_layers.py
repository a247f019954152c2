"""The names the benchmark's tracer wraps still exist in the package.

bench/layers.py silently skips a wrap target the package no longer defines,
and that target's per-layer metrics then read 0; these tests fail instead.
The harness's own self-test runs here too.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from resgp import (
    DEFAULT_BUDGETS,
    OptimizerConfig,
    active,
    gp_level,
    load_model,
    model,
    nested_random_data,
    save_model,
    train,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def layers():
    patch = pytest.MonkeyPatch()
    patch.syspath_prepend(str(BENCH))  # layers.py imports its sibling spans.py
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    patch.undo()


def test_every_wrap_target_exists(layers):
    missing = [
        f"resgp.{mod}.{attr}"
        for mod, attr, *_ in layers.TARGETS
        if not callable(getattr(importlib.import_module(f"resgp.{mod}"), attr, None))
    ]
    assert missing == []


def test_optimizer_is_called_through_gp_level_minimize():
    assert callable(gp_level.minimize)


def test_active_calls_fit_and_select_through_its_own_names():
    # active.refit.* counts fit_level spans entered through resgp.active's name
    assert active.fit_level is gp_level.fit_level
    assert callable(active.select_next)


def test_each_level_factors_through_the_wrapped_cholesky_once(monkeypatch, tmp_path):
    # gp_level.cholesky.* times gp_level.cholesky_with_escalation; a factorization
    # made past that name would read 0 there. A fit keeps the factor of its search's
    # last likelihood evaluation, so train makes none; load_model makes one per level
    calls = []
    wrapped = gp_level.cholesky_with_escalation

    def counting(*args, **kwargs):
        calls.append(args)
        return wrapped(*args, **kwargs)

    # the tracer wraps the function at every module name that holds it
    for module in (gp_level, model):
        monkeypatch.setattr(module, "cholesky_with_escalation", counting)
    data = nested_random_data("currin", DEFAULT_BUDGETS["currin"], 0)
    trained = train(data, OptimizerConfig(seed=0))
    assert calls == [] and len(trained.levels) == 2
    save_model(trained, str(tmp_path / "model.json"))
    load_model(str(tmp_path / "model.json"))
    assert len(calls) == len(trained.levels)


def test_benchmark_selftest_passes():
    # the harness's tracer, percentile rule and layer metrics, checked by its own self-test
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=BENCH.parent,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
