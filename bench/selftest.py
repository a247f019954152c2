"""Self-test of the benchmark's own code: python3 bench/selftest.py

Covers the self-time arithmetic on nested spans, the percentile rule,
wrap/unwrap round trips, including one over the real package, and the
scaling of timings to reference speed.
"""

from __future__ import annotations

import sys
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from spans import Tracer, covered, self_times  # noqa: E402
from stats import (  # noqa: E402
    TooFewSamples, highest_supported, median, percentile, samples_beyond, tail_percentile,
)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def _span_at(tracer, clock, name, start, end, parent=None):
    """Record a finished span with given times, under an explicit open parent."""
    clock.t = start
    s = tracer.start(name)
    s.parent = None if parent is None else parent.id
    clock.t = end
    s.end = end
    tracer._stack.remove(s)
    return s


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        clock = FakeClock()
        tr = Tracer(clock)
        clock.t = 0.0
        root = tr.start("root")
        clock.t = 1.0
        a = tr.start("a")
        clock.t = 1.5
        g = tr.start("g")
        clock.t = 2.0
        tr.finish(g)
        clock.t = 3.0
        tr.finish(a)
        clock.t = 6.0
        b = tr.start("b")
        clock.t = 7.0
        tr.finish(b)
        clock.t = 10.0
        tr.finish(root)
        st = self_times(tr)
        self.assertAlmostEqual(st[root.id], 10.0 - 2.0 - 1.0)
        self.assertAlmostEqual(st[a.id], 2.0 - 0.5)  # the grandchild counts against a only
        self.assertAlmostEqual(st[g.id], 0.5)
        self.assertAlmostEqual(st[b.id], 1.0)
        self.assertEqual(tr.parent(g), a)

    def test_overlapping_children_count_once(self):
        clock = FakeClock()
        tr = Tracer(clock)
        p = tr.start("p")
        _span_at(tr, clock, "c1", 1.0, 3.0, p)
        _span_at(tr, clock, "c2", 2.0, 5.0, p)
        _span_at(tr, clock, "c3", 9.0, 12.0, p)  # sticks out past the parent's end
        clock.t = 10.0
        tr.finish(p)
        self.assertAlmostEqual(self_times(tr)[p.id], 10.0 - 4.0 - 1.0)

    def test_covered(self):
        self.assertAlmostEqual(covered([], 0, 1), 0.0)
        self.assertAlmostEqual(covered([(0, 2), (1, 3), (5, 6)], 0, 10), 4.0)
        self.assertAlmostEqual(covered([(-1, 2)], 0, 1), 1.0)

    def test_out_of_order_close_is_refused(self):
        tr = Tracer()
        a = tr.start("a")
        tr.start("b")
        with self.assertRaises(RuntimeError):
            tr.finish(a)


class PercentileRule(unittest.TestCase):
    def test_interpolation(self):
        xs = [4, 1, 3, 2, 5]
        self.assertEqual(median(xs), 3)
        self.assertEqual(percentile(xs, 0.0), 1)
        self.assertEqual(percentile(xs, 1.0), 5)
        self.assertAlmostEqual(percentile([0, 10], 0.9), 9.0)

    def test_p90_needs_ten_samples_beyond(self):
        self.assertEqual(samples_beyond(100, 0.9), 10)
        self.assertEqual(samples_beyond(99, 0.9), 9)
        with self.assertRaises(TooFewSamples):
            tail_percentile(list(range(99)), 0.9)
        self.assertAlmostEqual(tail_percentile(list(range(100)), 0.9), 89.1)
        with self.assertRaises(TooFewSamples):
            tail_percentile(list(range(49)), 0.8)
        tail_percentile(list(range(50)), 0.8)

    def test_highest_supported_percentile(self):
        self.assertEqual(highest_supported(10), 0)
        self.assertEqual(highest_supported(85), 88)
        self.assertEqual(samples_beyond(85, 0.88), 10)
        self.assertEqual(samples_beyond(85, 0.89), 9)
        self.assertEqual(highest_supported(100), 90)
        self.assertEqual(highest_supported(1000), 99)

    def test_empty_sample(self):
        with self.assertRaises(TooFewSamples):
            median([])


def _modules():
    """Module `lib` defines f; module `user` binds it with from-import, as the package does."""
    lib = types.ModuleType("lib")
    user = types.ModuleType("user")

    def f(x):
        if x < 0:
            raise ValueError("negative")
        return 2 * x

    lib.f = f
    user.f = f
    user.g = lambda x: user.f(x) + 1
    return lib, user, f


class WrapRoundTrip(unittest.TestCase):
    def test_wrap_everywhere_and_restore(self):
        lib, user, f = _modules()
        tr = Tracer()
        sites = tr.wrap_everywhere([lib, user], f, "lib.f",
                                   after=lambda s, a, k, r: s.attrs.update(out=r))
        self.assertEqual(sorted(sites), ["lib.f", "user.f"])
        self.assertIsNot(lib.f, f)
        self.assertEqual(user.g(3), 7)
        self.assertEqual(lib.f(1), 2)
        self.assertEqual([s.attrs["site"] for s in tr.spans], ["user.f", "lib.f"])
        self.assertEqual([s.attrs["out"] for s in tr.spans], [6, 2])
        tr.restore()
        self.assertIs(lib.f, f)
        self.assertIs(user.f, f)

    def test_exception_closes_span(self):
        lib, user, f = _modules()
        tr = Tracer()
        tr.wrap(user, "f", "lib.f")
        with self.assertRaises(ValueError):
            user.g(-1)
        self.assertEqual(tr.spans[0].attrs["error"], "ValueError")
        self.assertIsNotNone(tr.spans[0].end)
        self.assertEqual(tr._stack, [])
        tr.restore()
        self.assertIs(user.f, f)

    def test_paused_records_nothing(self):
        lib, user, f = _modules()
        tr = Tracer()
        tr.wrap(lib, "f", "lib.f")
        with tr.paused():
            lib.f(1)
            with tr.span("x"):
                pass
        self.assertEqual(tr.spans, [])
        tr.restore()

    @unittest.skipUnless((SRC / "resgp").is_dir(), "package source not present")
    def test_package_round_trip(self):
        sys.path.insert(0, str(SRC))
        import importlib

        import layers

        mods = [importlib.import_module("resgp")] + [
            importlib.import_module(f"resgp.{m}") for m in layers.MODULES]
        before = [dict(vars(m)) for m in mods]
        tr = Tracer()
        sites = layers.install(tr)
        # each function is wrapped wherever another module imported it
        for site in ("resgp.model.fit_level", "resgp.active.fit_level",
                     "resgp.gp_level.cross_vec", "resgp.gp_level.gram", "resgp.gp_level.minimize"):
            self.assertIn(site, sites)
        self.assertTrue(any(vars(m) != b for m, b in zip(mods, before)))
        tr.restore()
        for m, b in zip(mods, before):
            now = vars(m)
            for k, v in b.items():
                self.assertIs(now[k], v, f"{m.__name__}.{k} not restored")


class LayerMetrics(unittest.TestCase):
    def test_escalations_and_nll_buckets(self):
        sys.path.insert(0, str(SRC))
        import layers

        clock = FakeClock()
        tr = Tracer(clock)
        fit = tr.start("gp_level.fit_level", site="resgp.model.fit_level")
        fit.attrs["n"] = 25
        lb = _span_at(tr, clock, "gp_level.lbfgs", 0.0, 0.5, fit)
        lb.attrs.update(n=25, nfev=100, nit=40, success=True, box_hits=1)
        clock.t = 0.6
        chol = tr.start("gp_level.cholesky")
        for t in (0.6, 0.7, 0.8):
            _span_at(tr, clock, "kernel.gram", t, t + 0.05, chol)
        clock.t = 0.9
        tr.finish(chol)
        clock.t = 1.0
        tr.finish(fit)
        out = layers.layer_metrics(tr)
        self.assertEqual(out["gp_level.cholesky.escalations"], 2)
        self.assertEqual(out["kernel.gram.calls"], 3)
        self.assertAlmostEqual(out["gp_level.nll_eval_ms.n_le_30"], 5.0)
        self.assertEqual(out["gp_level.nll_eval_ms.n_le_10"], 0.0)
        self.assertEqual(out["gp_level.lbfgs.converged_ratio"], 1.0)
        self.assertEqual(out["active.refit.calls"], 0)
        self.assertAlmostEqual(out["gp_level.fit_level.self_s"], 1.0 - 0.5 - 0.3)
        names = {n for n, _ in layers.PER_LAYER}
        self.assertEqual(names - set(out), {"trace_overhead"})


class FakeProbe:
    def __init__(self, reads):
        self.reads = iter(reads)

    def measure(self):
        return next(self.reads)


class ReferenceSpeed(unittest.TestCase):
    def _workload(self, reads):
        sys.path.insert(0, str(SRC))
        from workloads import Workload

        class TwoOps(Workload):
            TIMINGS = ("op_s",)
            traced_units = 2

            def reset(self):
                super().reset()
                self.op_s = []

            def unit(self, i):
                self.op_s.append(1.0)
                self.lap()
                self.op_s.append(2.0)

        return TwoOps(0, Tracer(), HERE, FakeProbe(reads))

    def test_lap_scales_the_timings_since_the_last_lap(self):
        import refspeed

        r = refspeed.REF_S
        wl = self._workload([r, 2 * r, 2 * r, r / 2, r / 2])
        wl.run()
        self.assertEqual(wl.op_s, [1.0, 2.0, 1.0, 2.0])  # raw timings are kept
        # each op lies between two probe reads; it is scaled by REF_S / their mean
        for got, want in zip(wl.ref["op_s"], [1.0 / 1.5, 2.0 / 2.0, 1.0 / 1.25, 2.0 / 0.5]):
            self.assertAlmostEqual(got, want)
        self.assertEqual(len(wl.ref["op_s"]), 4)
        self.assertEqual(len(wl.speed), 4)

    def test_unscaled_workload_keeps_raw_timings(self):
        import refspeed

        wl = self._workload([refspeed.REF_S, 3.0, 5.0, 7.0, 9.0])
        wl.scaled = False
        wl.run()
        self.assertEqual(wl.ref["op_s"], wl.op_s)


if __name__ == "__main__":
    unittest.main()
