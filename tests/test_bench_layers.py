"""The names the benchmark's tracer wraps still exist in the package.

bench/layers.py silently skips a wrap target the package no longer defines,
and that target's per-layer metrics then read 0; these tests fail instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from resgp import active, gp_level

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
