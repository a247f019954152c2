"""The four workloads. Each is a closed loop with one caller and n_jobs=1.

A workload makes its inputs from the workload seed, sets up, then performs
units of work one after another: unit i uses inputs derived from seed + i.
Every unit is checked for correctness after it is timed; checks run with
tracing paused so they do not count as the program's work.

Why each workload exists (see README.md for seeds and metrics):
  table2  the paper's reproduction protocol; small fits (N <= 80) where the
          multi-start L-BFGS loop and its per-call overhead dominate.
  field   d=1000 vector output at N=200; Cholesky/BLAS-bound fit, and a
          predict dominated by cross-covariance builds and the k @ alpha GEMM.
  design  sequential design: many warm-started refits on a growing design,
          interleaved with pool-variance scoring, on a simulator's wait path.
  cli     the command-line path: argument and JSON handling, CSV parse and
          write, save/load (which refactorizes), and the bound constants.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import time
import traceback
from pathlib import Path

import numpy as np

from resgp import active, benchmarks, cli, model
from resgp.gp_level import OptimizerConfig
from resgp.kernel import DomainBox

import refspeed
from stats import median_or_nan as median, timing_summary

now = time.perf_counter

# inputs for warm-up ops come from seeds far from any unit's seed
WARMUP_SEED_OFFSET = 7_000_003
# a machine too slow to finish min_units by then stops the run short instead of running on
HARD_CAP_S = 120.0


class Ledger:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{op}: " + "; ".join(problems))


def _nrmse(err_sq: float, truth_sq: float) -> float:
    return math.sqrt(err_sq / truth_sq)


class Workload:
    name = ""
    unit_name = ""
    min_units = 1     # units an untimed-out run always completes
    traced_units = 1  # units in each half of a traced run
    TIMINGS: tuple[str, ...] = ()  # attributes holding a unit's raw timings
    scaled = True  # whether timings are scaled to reference speed

    def __init__(self, seed: int, tracer, tmp: Path, probe):
        self.seed = seed
        self.tracer = tracer
        self.tmp = tmp
        self.probe = probe
        self.ledger = Ledger()
        self.reset()

    def reset(self) -> None:
        self.units_done = 0
        self.speed: list[float] = []  # per lap: the factor its timings were scaled by
        # the raw timings, scaled to reference speed at the lap that follows them
        self.ref = {n: [] for n in self.TIMINGS}

    def setup(self, k: int) -> None:
        """Make the first unit's inputs and run warm-up op k (seed WARMUP_SEED_OFFSET + k)."""
        raise NotImplementedError

    def unit(self, i: int) -> None:
        raise NotImplementedError

    def attempt(self, op: str, fn):
        """Run fn(); an exception counts the operation as failed. Returns fn's value or None."""
        try:
            return fn()
        except Exception as exc:  # a benchmark run must go on and report the failure
            where = traceback.extract_tb(exc.__traceback__)[-1]
            self.ledger.record(op, [f"{type(exc).__name__}: {exc} (at {where.filename}:{where.lineno})"])
            return None

    def lap(self) -> None:
        """Run the probe and scale the timings recorded since the last lap."""
        after = self.probe.measure()
        f = refspeed.factor(self._before, after) if self.scaled else 1.0
        self._before = after
        self.speed.append(f)
        for n in self.TIMINGS:
            raw, ref = getattr(self, n), self.ref[n]
            ref.extend(f * t for t in raw[len(ref):])

    def run(self, deadline: float | None = None) -> float:
        """Units until the deadline, at least min_units, or traced_units without one.

        With a deadline a unit starts only if one as long as the last is
        expected to end by then. On a machine too slow to finish min_units
        within HARD_CAP_S the run stops short, and the figures that need
        min_units come out NaN, which marks it incorrect. A lap follows every
        unit. Returns the units' raw time.
        """
        i = 0
        last = 0.0
        total = 0.0
        cap = now() + HARD_CAP_S
        self._before = self.probe.measure()
        while (deadline is None and i < self.traced_units) or (deadline is not None and (
                (i < self.min_units and now() < cap) or now() + last <= deadline)):
            t0 = now()
            self.unit(i)
            last = now() - t0
            total += last
            self.lap()
            i += 1
        self.units_done = i
        return total

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------


class Table2(Workload):
    """run_benchmark_case at DEFAULT_BUDGETS on five benchmarks, seeds seed, seed+1, ..."""

    name = "table2"
    unit_name = "protocol seed (five cases)"
    NAMES = ("currin", "park", "borehole", "branin3", "hartmann3")
    PROTOCOL_SEEDS = 10  # the paper's protocol: 5 benchmarks x 10 seeds
    min_units = PROTOCOL_SEEDS
    traced_units = 4
    TIMINGS = ("case_s",)

    def reset(self):
        super().reset()
        self.case_s: list[float] = []
        self.unit_cases: list[int] = []  # cases timed in each unit
        self.protocol: list[dict] = []
        self.fixed_tol_misses: list[str] = []

    def setup(self, k):
        benchmarks.run_benchmark_case("currin", seed=self.seed + WARMUP_SEED_OFFSET + k)

    def _check(self, case) -> tuple[list[str], bool]:
        """Interpolation and variance checks; also whether the fixed test tolerance is met.

        With jitter j_l on level l's diagonal the level mean at its own training
        inputs is r - j_l * alpha_l, so the top-fidelity mean may miss a training
        output by at most sum_l j_l * max|alpha_l|; the check allows twice that
        plus roundoff. The acceptance tests' fixed tolerance 1e-4 * (1 + |y|)
        ignores the jitter, which scales with the amplitude and hence with the
        output units; misses of it are counted and reported, not failed.
        """
        problems = []
        data, mdl = case["data"], case["model"]
        x, y = data.inputs[-1], data.outputs[-1]
        post = model.predict(mdl, x)
        err = float(np.max(np.abs(np.atleast_2d(post.mean) - y)))
        y_norm = float(np.linalg.norm(y))
        jitter_miss = sum(lvl.jitter * float(np.max(np.abs(lvl.alpha))) for lvl in mdl.levels)
        tol = 2.0 * jitter_miss + 1e-6 * (1.0 + y_norm)
        if not err <= tol:
            problems.append(f"top-fidelity mean misses training outputs by {err:.3e} > {tol:.3e}")
        var = np.asarray(case["posterior"].var)
        if not (np.all(np.isfinite(var)) and np.all(var >= 0)):
            problems.append("test variances not finite and >= 0")
        return problems, err <= 1e-4 * (1.0 + y_norm)

    def _case(self, name, s, i) -> None:
        t0 = now()
        case = self.attempt(f"{name} seed {s}", lambda: benchmarks.run_benchmark_case(name, seed=s))
        dt = now() - t0
        if case is None:
            return
        with self.tracer.paused():
            problems = self.attempt(f"{name} seed {s} check", lambda: self._check(case))
        if problems is None:
            return
        problems, within_fixed_tol = problems
        self.ledger.record(f"{name} seed {s}", problems)
        if not within_fixed_tol:
            self.fixed_tol_misses.append(f"{name} seed {s}")
        self.case_s.append(dt)
        if i < self.PROTOCOL_SEEDS:
            m = case["metrics"]
            self.protocol.append({"name": name, "seed": s, "s": dt, "r2": m.r2, "nrmse": m.nrmse})

    def unit(self, i):
        s = self.seed + i
        n0 = len(self.case_s)
        for k, name in enumerate(self.NAMES):
            self._case(name, s, i)
            if k < len(self.NAMES) - 1:
                self.lap()  # a case is short enough to track the machine's speed; the run laps after the last
        self.unit_cases.append(len(self.case_s) - n0)

    def _sweeps(self, case_times) -> list[float]:
        """Per-unit sums of case times."""
        out, k = [], 0
        for n in self.unit_cases:
            out.append(sum(case_times[k:k + n]))
            k += n
        return out

    def summary(self):
        proto = self.protocol
        full = len(proto) == self.PROTOCOL_SEEDS * len(self.NAMES)
        sweeps, raw_sweeps = self._sweeps(self.ref["case_s"]), self._sweeps(self.case_s)
        # the protocol's time from every seed the run completed, not its first 10 alone:
        # the sum over 10 seeds spreads with the seeds more than the mean over all of them
        protocol_s = self.PROTOCOL_SEEDS * sum(sweeps) / len(sweeps) if full else float("nan")
        end_to_end = {"wall_s": protocol_s, "op_p50_s": median(sweeps)}
        report = {
            "wall_s": {"value": protocol_s if full else None, "unit": "s", "n": len(sweeps),
                       "what": "time of the Table-2 protocol (10 seeds x 5 benchmarks): "
                               "10 x the mean per-seed sweep over every seed of the run"},
            "wall_s_raw": {"value": self.PROTOCOL_SEEDS * sum(raw_sweeps) / len(raw_sweeps)
                           if full else None, "unit": "s", "n": len(raw_sweeps),
                           "what": "the same, not scaled to reference speed"},
            "protocol_first10_s": {"value": sum(self.ref["case_s"][:len(proto)]) if full else None,
                                   "unit": "s", "n": len(proto),
                                   "what": "time of the first 10 seeds' 50 cases"},
            "r2_mean": {"value": float(np.mean([c["r2"] for c in proto])) if full else None,
                        "unit": "1", "n": len(proto), "better": "higher",
                        "what": "mean standardized R2 over the protocol cases"},
            "nrmse": {"value": float(np.mean([c["nrmse"] for c in proto])) if full else None,
                      "unit": "1", "n": len(proto),
                      "what": "mean standardized NRMSE over the protocol cases"},
            "sweep": timing_summary("per-seed sweep latency (5 cases)", sweeps),
            "case": timing_summary("per-case train+score latency", self.ref["case_s"]),
            "sweep_samples_s": sweeps,
        }
        per_bench = {}
        for name in self.NAMES:
            per_bench[name] = median([c["s"] for c in proto if c["name"] == name] or [float("nan")])
        report["protocol_case_p50_s_by_benchmark"] = per_bench
        report["protocol_cases"] = proto
        report["interp_fixed_tol_misses"] = {
            "value": len(self.fixed_tol_misses), "unit": "cases", "n": len(self.case_s),
            "what": "cases whose training-point miss exceeds 1e-4 * (1 + |y|): "
                    + ", ".join(self.fixed_tol_misses[:10])}
        return end_to_end, report


# ---------------------------------------------------------------------------


class Field(Workload):
    """A smooth d=1000 field on [0,1]^4 at nested designs [200, 80]; train, then predict 20k rows."""

    name = "field"
    unit_name = "train + one 20,000-row predict"
    D = 1000
    BUDGETS = (200, 80)
    QUERY_ROWS = 20_000
    FREQ = 3.0  # every output column is a plane wave of this angular frequency
    # held-out NRMSE at the seed commit is 0.0026-0.0034; a fit this far off is wrong
    NRMSE_CEILING = 0.01
    QUALITY_UNITS = 3
    min_units = QUALITY_UNITS
    traced_units = 1
    TIMINGS = ("fit_s", "predict_s", "pass_s")
    # two-thread BLAS on large matrices does not track the single-threaded probe:
    # scaled timings spread more than raw ones, so field reports raw seconds
    scaled = False

    def reset(self):
        super().reset()
        self.fit_s: list[float] = []
        self.predict_s: list[float] = []
        self.pass_s: list[float] = []
        self.nrmse: list[float] = []

    def _inputs(self, s, rows=QUERY_ROWS):
        """Training data, query rows and their truth for field seed s."""
        rng = np.random.default_rng(s)
        # random Fourier features with one frequency magnitude and random directions, so
        # every seed's field is equally smooth and the fit's work varies little with the seed
        w = rng.normal(0.0, 1.0, (4, self.D))
        w *= self.FREQ / np.linalg.norm(w, axis=0)
        phi = rng.uniform(0.0, 2.0 * math.pi, self.D)

        def high(x):
            return np.sin(x @ w + phi)

        def low(x):
            return 0.8 * high(x) + 0.2 * x.sum(axis=1, keepdims=True)

        n1, n2 = self.BUDGETS
        x1 = rng.random((n1, 4))
        x2 = x1[rng.choice(n1, n2, replace=False)]
        data = model.MultiFidelityData(inputs=[x1, x2], outputs=[low(x1), high(x2)])
        query = rng.random((rows, 4))
        return data, query, high(query)

    def setup(self, k):
        self.domain = DomainBox.unit(4)
        self.next_inputs = (0, self._inputs(self.seed))
        # warm-up: a small fit and predict on another field
        data, query, _ = self._inputs(self.seed + WARMUP_SEED_OFFSET + k, rows=2000)
        x1, y1 = data.inputs[0][:24], data.outputs[0][:24]
        small = model.MultiFidelityData(inputs=[x1, x1[:8]], outputs=[y1, y1[:8]])
        warm = model.train(small, domain=self.domain)
        model.predict(warm, query)

    def _check(self, post, truth) -> tuple[list[str], float]:
        problems = []
        m = self.QUERY_ROWS
        if np.shape(post.mean) != (m, self.D):
            problems.append(f"mean shape {np.shape(post.mean)} != {(m, self.D)}")
        if np.shape(post.var) != (m,):
            problems.append(f"variance shape {np.shape(post.var)} != {(m,)}")
        if problems:
            return problems, float("nan")
        err_sq = truth_sq = 0.0
        for a in range(0, m, 2000):
            t = truth[a:a + 2000]
            e = post.mean[a:a + 2000] - t
            err_sq += float(np.sum(e * e))
            truth_sq += float(np.sum(t * t))
        nrmse = _nrmse(err_sq, truth_sq)
        if not (math.isfinite(nrmse) and nrmse < self.NRMSE_CEILING):
            problems.append(f"held-out NRMSE {nrmse} not below {self.NRMSE_CEILING}")
        if not (np.all(np.isfinite(post.var)) and np.all(post.var >= 0)):
            problems.append("variances not finite and >= 0")
        return problems, nrmse

    def unit(self, i):
        s = self.seed + i
        if self.next_inputs[0] != i:
            self.next_inputs = (i, self._inputs(s))
        data, query, truth = self.next_inputs[1]
        t0 = now()
        # the optimizer's restarts keep their default seed: they are a setting, not an input
        mdl = self.attempt(f"train seed {s}", lambda: model.train(data, domain=self.domain))
        t1 = now()
        if mdl is None:
            return
        post = self.attempt(f"predict seed {s}", lambda: model.predict(mdl, query))
        t2 = now()
        if post is None:
            return
        with self.tracer.paused():
            problems, nrmse = self._check(post, truth)
        del post
        self.ledger.record(f"train+predict seed {s}", problems)
        self.fit_s.append(t1 - t0)
        self.predict_s.append(t2 - t1)
        self.pass_s.append(t2 - t0)
        if i < self.QUALITY_UNITS:
            self.nrmse.append(nrmse)

    def summary(self):
        full = len(self.nrmse) == self.QUALITY_UNITS
        ref = self.ref
        end_to_end = {
            "wall_s": median(ref["pass_s"]),
            "op_p50_s": median(ref["predict_s"]),
        }
        report = {
            "wall_s": {"value": end_to_end["wall_s"], "unit": "s", "n": len(ref["pass_s"]),
                       "what": "median of train + one 20,000-row predict"},
            "wall_s_raw": {"value": median(self.pass_s), "unit": "s", "n": len(self.pass_s),
                           "what": "the same, not scaled to reference speed"},
            "fit_s": {"value": median(ref["fit_s"]), "unit": "s", "n": len(ref["fit_s"]),
                      "what": "median train wall time"},
            "predict_call": timing_summary("20,000-row predict call", ref["predict_s"]),
            "predict_rows_per_s": {"value": self.QUERY_ROWS / median(ref["predict_s"]), "unit": "rows/s",
                                   "n": len(ref["predict_s"]), "better": "higher"},
            "nrmse": {"value": median(self.nrmse) if full else None, "unit": "1", "n": len(self.nrmse),
                      "what": f"median held-out NRMSE (20,000 x 1000 outputs) of the first {self.QUALITY_UNITS} fields"},
            "nrmse_by_unit": self.nrmse,
        }
        return end_to_end, report


# ---------------------------------------------------------------------------


class Design(Workload):
    """sequential_construct on hartmann3 at [40, 15, 5] from a 1000-point pool, strategy variance."""

    name = "design"
    unit_name = "one sequential construction"
    BENCH = "hartmann3"
    BUDGETS = [40, 15, 5]
    POOL = 1000
    TEST_POINTS = 1000
    QUALITY_UNITS = 12
    min_units = QUALITY_UNITS
    traced_units = 4
    TIMINGS = ("decision_s", "oracle_s", "construct_s")

    def reset(self):
        super().reset()
        self.decision_s: list[float] = []
        self.oracle_s: list[float] = []
        self.construct_s: list[float] = []
        self.nrmse: list[float] = []

    def setup(self, k):
        spec = benchmarks.get_benchmark(self.BENCH)
        self.spec = spec
        self.test_x = benchmarks.design_uniform(spec.domain, self.TEST_POINTS,
                                                self.seed + benchmarks.TEST_SEED_OFFSET)
        self.test_y = benchmarks.evaluate(spec, spec.n_fidelities, self.test_x)
        # warm-up: a short construction on a small pool
        warm_pool = benchmarks.design_uniform(spec.domain, 50, self.seed + WARMUP_SEED_OFFSET + k)
        active.sequential_construct(warm_pool, [6, 3, 2], self._oracle(), OptimizerConfig(seed=k),
                                    k, domain=spec.domain)

    def _oracle(self):
        """The simulator; it times each decision from its last return to its next call."""
        last = [None]
        spec = self.spec

        def oracle(fidelity, x):
            entered = now()
            if last[0] is not None:
                self.decision_s.append(entered - last[0])
            with self.tracer.span("active.oracle"):
                y = benchmarks.evaluate(spec, fidelity, x)
            last[0] = now()
            self.oracle_s.append(last[0] - entered)
            return y

        return oracle

    def _check(self, result) -> tuple[list[str], float]:
        problems = []
        sel = result.selected
        for f, b in enumerate(self.BUDGETS, start=1):
            if len(sel.get(f, ())) != b:
                problems.append(f"fidelity {f}: {len(sel.get(f, ()))} picks, budget {b}")
            elif len(set(sel[f])) != b:
                problems.append(f"fidelity {f}: repeated picks")
            if f > 1 and not set(sel.get(f, ())) <= set(sel.get(f - 1, ())):
                problems.append(f"fidelity {f} picks not nested in fidelity {f - 1}")
        if len(result.audit) != sum(self.BUDGETS):
            problems.append(f"audit has {len(result.audit)} records, budgets sum to {sum(self.BUDGETS)}")
        post = model.predict(result.model, self.test_x)
        nrmse = benchmarks.metrics(post.mean, post.var, self.test_y).nrmse
        if not math.isfinite(nrmse):
            problems.append(f"held-out NRMSE {nrmse}")
        return problems, nrmse

    def unit(self, i):
        s = self.seed + i
        spec = self.spec
        pool = benchmarks.design_uniform(spec.domain, self.POOL, s + benchmarks.POOL_SEED_OFFSET)
        oracle = self._oracle()
        n_dec = len(self.decision_s)
        t0 = now()
        result = self.attempt(f"construct seed {s}", lambda: active.sequential_construct(
            pool, self.BUDGETS, oracle, OptimizerConfig(seed=s), s,
            domain=spec.domain, strategy="variance"))
        dt = now() - t0
        if result is None:
            del self.decision_s[n_dec:]
            return
        with self.tracer.paused():
            problems = self.attempt(f"construct seed {s} check", lambda: self._check(result))
        if problems is None:
            return
        problems, nrmse = problems
        self.ledger.record(f"construct seed {s}", problems)
        self.construct_s.append(dt)
        if i < self.QUALITY_UNITS:
            self.nrmse.append(nrmse)

    def summary(self):
        full = len(self.nrmse) == self.QUALITY_UNITS
        ref = self.ref
        end_to_end = {
            "wall_s": median(ref["construct_s"]),
            "op_p50_s": median(ref["decision_s"]),
        }
        report = {
            "wall_s": {"value": end_to_end["wall_s"], "unit": "s", "n": len(ref["construct_s"]),
                       "what": "median time of one construction, oracle included"},
            "wall_s_raw": {"value": median(self.construct_s), "unit": "s", "n": len(self.construct_s),
                           "what": "the same, not scaled to reference speed"},
            "acq": timing_summary("decision latency per acquisition, oracle excluded", ref["decision_s"]),
            "construct_samples_s": ref["construct_s"],
            "decision_samples_s": ref["decision_s"],
            "oracle_total_s": {"value": float(sum(ref["oracle_s"])), "unit": "s", "n": len(ref["oracle_s"])},
            "nrmse": {"value": median(self.nrmse) if full else None, "unit": "1", "n": len(self.nrmse),
                      "what": f"median held-out NRMSE of the first {self.QUALITY_UNITS} constructions"},
            "nrmse_by_unit": self.nrmse,
        }
        return end_to_end, report


# ---------------------------------------------------------------------------


class Cli(Workload):
    """In-process resgp.cli.main cycles: train (currin [20, 5]), predict 10k rows, bounds."""

    name = "cli"
    unit_name = "train + predict + bounds cycle"
    QUERY_ROWS = 10_000
    QUALITY_UNITS = 20
    min_units = QUALITY_UNITS
    traced_units = 12
    TIMINGS = ("train_s", "predict_s", "bounds_s", "cycle_s")

    def reset(self):
        super().reset()
        self.train_s: list[float] = []
        self.predict_s: list[float] = []
        self.bounds_s: list[float] = []
        self.cycle_s: list[float] = []
        self.nrmse: list[float] = []

    def setup(self, k):
        self.tmp.mkdir(parents=True, exist_ok=True)
        spec = benchmarks.get_benchmark("currin")
        self.train_cfg = self.tmp / "train.json"
        self.train_cfg.write_text(json.dumps({"benchmark": "currin", "budgets": [20, 5]}))
        self.bounds_cfg = self.tmp / "bounds.json"
        self.bounds_cfg.write_text(json.dumps({"delta": 0.05, "tau": 1e-3, "l_y": 36.0}))
        self.query = benchmarks.design_uniform(spec.domain, self.QUERY_ROWS, self.seed)
        self.truth = benchmarks.evaluate(spec, spec.n_fidelities, self.query)[:, 0]
        self.query_csv = self.tmp / "queries.csv"
        with open(self.query_csv, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["x1", "x2"])
            w.writerows([repr(float(a)), repr(float(b))] for a, b in self.query)
        self.out = self.tmp / "out"
        self._cycle(self.seed + WARMUP_SEED_OFFSET + k)

    def _cycle(self, s):
        out = str(self.out)
        mdl = str(self.out / "model.json")
        times, codes = [], []
        for argv in (["train", "--config", str(self.train_cfg), "--seed", str(s), "--out", out],
                     ["predict", "--model", mdl, "--queries", str(self.query_csv), "--out", out],
                     ["bounds", "--model", mdl, "--config", str(self.bounds_cfg), "--out", out]):
            t0 = now()
            code = self.attempt(argv[0], lambda: cli.main(argv))
            times.append(now() - t0)
            codes.append(code)
        return times, codes

    def _check_predict(self):
        rows = np.loadtxt(self.out / "predictions.csv", delimiter=",", skiprows=1, ndmin=2)
        problems = []
        if rows.shape != (self.QUERY_ROWS, 2):
            return [f"predictions.csv has shape {rows.shape}, expected {(self.QUERY_ROWS, 2)}"], float("nan")
        post = model.predict(model.load_model(str(self.out / "model.json")), self.query)
        if not (np.allclose(rows[:, 0], post.mean[:, 0], rtol=1e-12, atol=1e-12)
                and np.allclose(rows[:, 1], post.var, rtol=1e-12, atol=1e-12)):
            problems.append("predictions.csv differs from predict(load_model(...))")
        err = rows[:, 0] - self.truth
        return problems, _nrmse(float(err @ err), float(self.truth @ self.truth))

    def _check_bounds(self):
        report = json.loads((self.out / "bounds.json").read_text())
        if report.get("covering_consistent") is not True:
            return ["bounds.json lacks covering_consistent: true"]
        return []

    def unit(self, i):
        s = self.seed + i
        (t_train, t_pred, t_bnd), codes = self._cycle(s)
        ok = True
        with self.tracer.paused():
            for op, code, check in (("train", codes[0], None),
                                    ("predict", codes[1], self._check_predict),
                                    ("bounds", codes[2], self._check_bounds)):
                if code is None:
                    ok = False  # the attempt already counted the exception
                    continue
                problems = [] if code == 0 else [f"exit code {code}"]
                if code == 0 and check is not None:
                    res = self.attempt(f"{op} seed {s} check", check)
                    if res is None:
                        ok = False
                        continue
                    if op == "predict":
                        res, nrmse = res
                        if i < self.QUALITY_UNITS:
                            self.nrmse.append(nrmse)
                    problems += res
                self.ledger.record(f"{op} seed {s}", problems)
                ok = ok and not problems
        if ok:
            self.train_s.append(t_train)
            self.predict_s.append(t_pred)
            self.bounds_s.append(t_bnd)
            self.cycle_s.append(t_train + t_pred + t_bnd)

    def summary(self):
        full = len(self.nrmse) == self.QUALITY_UNITS
        ref = self.ref
        end_to_end = {
            "wall_s": median(ref["cycle_s"]),
            "op_p50_s": median(ref["train_s"]),
        }
        report = {
            "wall_s": {"value": end_to_end["wall_s"], "unit": "s", "n": len(ref["cycle_s"]),
                       "what": "median train + predict + bounds cycle"},
            "wall_s_raw": {"value": median(self.cycle_s), "unit": "s", "n": len(self.cycle_s),
                           "what": "the same, not scaled to reference speed"},
            "cli_train": timing_summary("resgp train", ref["train_s"]),
            "cli_predict": timing_summary("resgp predict, 10,000 rows", ref["predict_s"]),
            "cli_bounds": timing_summary("resgp bounds", ref["bounds_s"]),
            "cycle_samples_s": ref["cycle_s"],
            "train_samples_s": ref["train_s"],
            "nrmse": {"value": median(self.nrmse) if full else None, "unit": "1", "n": len(self.nrmse),
                      "what": f"median NRMSE of predictions.csv against currin over the first {self.QUALITY_UNITS} cycles"},
            "nrmse_by_unit": self.nrmse,
        }
        return end_to_end, report

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Table2, Field, Design, Cli)}
