"""Variance acquisition, sequential design construction, and the audit log."""

import re

import numpy as np
import pytest

from resgp import (
    BENCHMARKS,
    KernelHyperparams,
    OptimizerConfig,
    OracleError,
    ResidualDataset,
    build_level,
    design_uniform,
    level_predict,
    predict,
    read_audit,
    select_next,
    sequential_construct,
    write_audit,
)
from resgp.gp_level import PREDICT_ROWS


def toy_level(seed=0, n=8, l=2, amplitude=1.5, d=1):
    rng = np.random.default_rng(seed)
    p = KernelHyperparams(amplitude, rng.uniform(0.5, 4.0, size=l))
    x = rng.uniform(size=(n, l))
    r = rng.normal(size=(n, d))
    return build_level(p, ResidualDataset(x, r))


def currin_oracle(f, x):
    return BENCHMARKS["currin"].funcs[f - 1](np.atleast_2d(x))[0]


# --- gain: the level_predict variance ---------------------------------------


def test_gain_is_posterior_variance():
    level = toy_level()
    rng = np.random.default_rng(1)
    q = rng.uniform(size=(30, 2))
    idx, gain = select_next(level, q)
    _, var = level_predict(level, q[idx])
    assert gain == pytest.approx(var, abs=1e-12)


def test_gain_vanishes_at_training_points():
    level = toy_level()
    _, gains = level_predict(level, level.inputs)
    assert np.all(gains <= 10.0 * level.jitter)


def test_gain_approaches_amplitude_far_away():
    level = toy_level(amplitude=2.3)
    idx, gain = select_next(level, np.vstack([level.inputs[:1], [[50.0, -50.0]]]))
    assert idx == 1
    assert gain == pytest.approx(2.3, abs=1e-10)


# --- select_next ------------------------------------------------------------


def test_select_matches_brute_force():
    rng = np.random.default_rng(2)
    for trial in range(20):
        level = toy_level(seed=trial)
        cands = rng.uniform(size=(50, 2))
        idx, gain = select_next(level, cands)
        _, gains = level_predict(level, cands)
        assert idx == int(np.argmax(gains))
        assert gain == gains[idx]


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("m", [1, 1023, 1024, 1025, 2051])
def test_select_scores_candidates_in_blocks(m, d):
    # an empty pool is refused (test_select_rejects_bad_pools)
    level = toy_level(seed=m, d=d)
    cands = np.random.default_rng(m).uniform(size=(m, 2))
    gains = np.concatenate([level_predict(level, cands[lo : lo + PREDICT_ROWS])[1]
                            for lo in range(0, m, PREDICT_ROWS)])
    idx = int(np.argmax(np.where(gains < 10.0 * level.jitter, 0.0, gains)))
    assert select_next(level, cands) == (idx, float(gains[idx]))


def test_select_training_pool_ties_to_first_index():
    level = toy_level()
    idx, _ = select_next(level, level.inputs)
    assert idx == 0


def test_select_symmetric_gap_prefers_midpoint():
    p = KernelHyperparams(1.0, np.array([5.0]))
    level = build_level(
        p, ResidualDataset(np.array([[0.0], [1.0]]), np.array([[0.3], [-0.1]]))
    )
    idx, _ = select_next(level, np.array([[0.1], [0.5], [0.9]]))
    assert idx == 1


def test_select_invariant_to_amplitude_scale():
    rng = np.random.default_rng(3)
    x = rng.uniform(size=(6, 1))
    r = rng.normal(size=(6, 1))
    cands = rng.uniform(size=(40, 1))
    picks = []
    for amp in (0.1, 1.0, 250.0):
        level = build_level(
            KernelHyperparams(amp, np.array([3.0])), ResidualDataset(x, r)
        )
        picks.append(select_next(level, cands)[0])
    assert picks[0] == picks[1] == picks[2]


def test_select_deterministic():
    level = toy_level(seed=4)
    cands = np.random.default_rng(5).uniform(size=(25, 2))
    assert select_next(level, cands) == select_next(level, cands)


def test_select_rejects_bad_pools():
    level = toy_level()
    with pytest.raises(ValueError):
        select_next(level, np.zeros((0, 2)))
    with pytest.raises(ValueError):
        select_next(level, np.zeros(4))


def test_max_gain_never_increases_as_points_accrue():
    # fixed hyperparameters: each acquisition weakly shrinks every variance
    rng = np.random.default_rng(6)
    p = KernelHyperparams(1.0, np.array([4.0, 4.0]))
    pool = rng.uniform(size=(60, 2))
    chosen = [0]
    last = np.inf
    for _ in range(8):
        level = build_level(
            p, ResidualDataset(pool[chosen], np.zeros((len(chosen), 1)))
        )
        remaining = [i for i in range(60) if i not in chosen]
        local, gain = select_next(level, pool[remaining])
        assert gain <= last + 1e-10
        last = gain
        chosen.append(remaining[local])


# --- the pool ---------------------------------------------------------------


def test_pool_validation():
    with pytest.raises(ValueError, match="pool must hold at least one point"):
        sequential_construct(np.zeros((0, 2)), [1], currin_oracle)
    with pytest.raises(ValueError, match="pool points"):
        sequential_construct(np.array([[np.nan, 0.0]]), [1], currin_oracle)
    # a nested list is read as the (M, l) array it spells
    res = sequential_construct(small_pool(seed=4, size=5).tolist(), [5], currin_oracle,
                               OptimizerConfig(seed=0))
    assert sorted(res.selected[1]) == list(range(5))


# --- sequential_construct ---------------------------------------------------


def small_pool(seed=0, size=40):
    return design_uniform(BENCHMARKS["currin"].domain, size, seed=seed)


def test_budget_validation():
    pool = small_pool()
    with pytest.raises(ValueError):
        sequential_construct(pool, [], currin_oracle)
    with pytest.raises(ValueError):
        sequential_construct(pool, [5, 0], currin_oracle)
    with pytest.raises(ValueError):
        sequential_construct(pool, [5, 8], currin_oracle)
    with pytest.raises(ValueError):
        sequential_construct(pool, [41], currin_oracle)
    with pytest.raises(ValueError):
        sequential_construct(pool, [4, 2], currin_oracle, strategy="greedy")


@pytest.mark.parametrize(
    "budgets", [[True, True], [6.7, 2.2], [4, 2.0], ["4", 2]], ids=["bool", "fraction", "float", "str"]
)
def test_budgets_must_be_integers(budgets):
    # int() would truncate 6.7 to 6 and read True as 1
    with pytest.raises(TypeError, match="every budget must be an integer"):
        sequential_construct(small_pool(), budgets, currin_oracle)


def test_exhaustive_low_budget_consumes_pool():
    pts = small_pool(seed=7, size=3)
    res = sequential_construct(pts, [3, 1], currin_oracle, OptimizerConfig(seed=0))
    assert sorted(res.selected[1]) == [0, 1, 2]
    assert len(res.selected[2]) == 1
    assert set(res.selected[2]) <= set(res.selected[1])
    # interpolation at the high-fidelity acquisition
    i = res.selected[2][0]
    y = currin_oracle(2, pts[i])
    post = predict(res.model, pts[i : i + 1])
    assert abs(post.mean[0, 0] - y[0]) <= 1e-4 * (1.0 + abs(y[0]))


@pytest.mark.parametrize("strategy", ["variance", "random"])
def test_exhaustive_budgets_take_every_candidate_once(strategy):
    # each pick leaves the candidates, so budgets equal to the pool use all of it
    res = sequential_construct(small_pool(seed=13, size=8), [8, 8], currin_oracle,
                               OptimizerConfig(seed=0), seed=5, strategy=strategy)
    assert sorted(res.selected[1]) == sorted(res.selected[2]) == list(range(8))


def test_construction_preserves_nesting():
    res = sequential_construct(
        small_pool(seed=8), [10, 4], currin_oracle, OptimizerConfig(seed=0), seed=1
    )
    assert set(res.selected[2]) <= set(res.selected[1])
    assert len(set(res.selected[1])) == 10
    assert len(set(res.selected[2])) == 4


def test_construction_deterministic():
    a = sequential_construct(
        small_pool(seed=9), [8, 3], currin_oracle, OptimizerConfig(seed=0), seed=2
    )
    b = sequential_construct(
        small_pool(seed=9), [8, 3], currin_oracle, OptimizerConfig(seed=0), seed=2
    )
    assert a.selected == b.selected
    assert a.audit == b.audit


def test_audit_schema_and_modes():
    res = sequential_construct(
        small_pool(seed=10), [6, 2], currin_oracle, OptimizerConfig(seed=0), seed=3
    )
    assert len(res.audit) == 8
    keys = {"fidelity", "step", "pool_index", "point", "mode", "gain", "params", "nll"}
    for rec in res.audit:
        assert keys <= set(rec)
    by_mode = [r["mode"] for r in res.audit]
    assert by_mode.count("seed") == 2
    assert by_mode.count("argmax") == 6
    for rec in res.audit:
        if rec["mode"] == "argmax":
            assert rec["gain"] >= 0.0
            assert set(rec["params"]) == {"amplitude", "weights", "noise"}
        assert rec["nll"] is not None  # filled by the fit that followed


def test_random_strategy_baseline():
    res = sequential_construct(
        small_pool(seed=11),
        [6, 2],
        currin_oracle,
        OptimizerConfig(seed=0),
        seed=4,
        strategy="random",
    )
    modes = {r["mode"] for r in res.audit}
    assert modes == {"seed", "random"}
    assert all(r["gain"] is None for r in res.audit if r["mode"] == "random")


def test_replay_recovers_every_argmax_selection():
    pts = small_pool(seed=12, size=60)
    res = sequential_construct(
        pts, [12, 4], currin_oracle, OptimizerConfig(seed=0), seed=5
    )
    unit = res.model.domain.normalize(pts)
    low = BENCHMARKS["currin"].funcs[0](pts)
    high = BENCHMARKS["currin"].funcs[1](pts)
    residual = {1: low, 2: high - low}
    checked = 0
    for rec in res.audit:
        if rec["mode"] != "argmax":
            continue
        f, step = rec["fidelity"], rec["step"]
        prior = [
            r["pool_index"]
            for r in res.audit
            if r["fidelity"] == f and r["step"] < step
        ]
        source = list(range(60)) if f == 1 else list(res.selected[f - 1])
        remaining = [i for i in source if i not in set(prior)]
        p = rec["params"]
        level = build_level(
            KernelHyperparams(p["amplitude"], np.array(p["weights"]), p["noise"]),
            ResidualDataset(unit[prior], residual[f][prior]),
        )
        local, _ = select_next(level, unit[remaining])
        assert remaining[local] == rec["pool_index"]
        checked += 1
    assert checked == 14


def test_oracle_failure_carries_partial_audit():
    calls = {"n": 0}

    def flaky(f, x):
        calls["n"] += 1
        if calls["n"] > 3:
            raise RuntimeError("simulator crashed")
        return currin_oracle(f, x)

    full = sequential_construct(
        small_pool(seed=13), [8, 2], currin_oracle, OptimizerConfig(seed=0), seed=6
    )
    with pytest.raises(OracleError) as err:
        sequential_construct(
            small_pool(seed=13), [8, 2], flaky, OptimizerConfig(seed=0), seed=6
        )
    # the three simulated points, each with the nll of the fit that followed it
    assert err.value.audit == full.audit[:3]
    assert all(rec["nll"] is not None for rec in err.value.audit)


@pytest.mark.parametrize("strategy", ["variance", "random"])
def test_audit_records_follow_oracle_calls(strategy):
    spec = BENCHMARKS["branin3"]
    calls = []

    def oracle(f, x):
        calls.append((f, np.asarray(x).tolist()))
        return spec.funcs[f - 1](np.atleast_2d(x))[0]

    pool = design_uniform(spec.domain, 30, seed=16)
    res = sequential_construct(
        pool, [8, 4, 2], oracle, OptimizerConfig(restarts=2, seed=0), seed=8,
        domain=spec.domain, strategy=strategy,
    )
    assert [(r["fidelity"], r["point"]) for r in res.audit] == calls
    assert len(calls) == 14


def test_oracle_output_length_must_not_change():
    pool = np.linspace(0.0, 1.0, 12)[:, None]

    def grows_with_fidelity(f, x):
        return np.ones(f) * x[0]

    with pytest.raises(OracleError, match="2 outputs at fidelity 2, point .*had 1") as err:
        sequential_construct(pool, [6, 3], grows_with_fidelity, OptimizerConfig(seed=0))
    assert len(err.value.audit) == 6

    calls = {"n": 0}

    def grows_within_fidelity(f, x):
        calls["n"] += 1
        return np.ones(calls["n"]) * x[0]

    with pytest.raises(OracleError, match="2 outputs at fidelity 1, point .*had 1") as err:
        sequential_construct(pool, [6, 3], grows_within_fidelity, OptimizerConfig(seed=0))
    assert len(err.value.audit) == 1


def test_non_finite_oracle_output_rejected():
    def broken(f, x):
        return np.array([np.nan])

    with pytest.raises(OracleError):
        sequential_construct(
            small_pool(seed=14), [4, 1], broken, OptimizerConfig(seed=0)
        )


# --- audit files ------------------------------------------------------------


def test_audit_round_trip(tmp_path):
    res = sequential_construct(
        small_pool(seed=15), [5, 2], currin_oracle, OptimizerConfig(seed=0), seed=7
    )
    path = tmp_path / "audit.jsonl"
    write_audit(res.audit, str(path))
    assert read_audit(str(path)) == res.audit


def test_empty_audit_round_trip(tmp_path):
    path = tmp_path / "audit.jsonl"
    write_audit([], str(path))
    assert read_audit(str(path)) == []


def test_audit_with_a_byte_order_mark_reads_as_without(tmp_path):
    path = tmp_path / "audit.jsonl"
    write_audit([{"fidelity": 1, "nll": 0.5}, {"fidelity": 2, "gain": None}], str(path))
    plain = read_audit(str(path))
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert read_audit(str(path)) == plain


@pytest.mark.parametrize("content", [b'{"fidelity": 1}\n{"nll": \xff}\n', b'{"fidelity": 1}\nnot json\n'],
                         ids=["not-utf8", "not-json"])
def test_audit_that_is_not_utf8_json_lines_names_the_file(tmp_path, content):
    path = tmp_path / "audit.jsonl"
    path.write_bytes(content)
    with pytest.raises(ValueError, match=f"audit file {re.escape(str(path))}: not UTF-8 JSON lines"):
        read_audit(str(path))


# hartmann3 at [12, 5, 3] from a 200-point pool, seed 0: the pool indices each
# fidelity chose and each audit line's (nll, gain). Neither the candidate bookkeeping
# nor the refits' evaluation reuse may move them
PINNED_PICKS = {1: [170, 37, 2, 8, 0, 11, 129, 67, 178, 116, 65, 22], 2: [67, 65, 170, 37, 116],
                3: [170, 37, 67]}
PINNED_AUDIT = [
    (-4.081061461795327, None), (4.124212497791367, 3.972682483398625e-05),
    (5.636913536558897, 3.6194982866411762), (6.943013451198549, 2.509454205013436),
    (6.852840515402942, 1.8844380301124903), (8.395936634912381, 1.6755622574458693),
    (9.45575832916195, 0.7056349729621654), (10.197877747674275, 0.6109774485255455),
    (11.104445726796593, 0.24352683180059498), (13.700296648026097, 0.13259795180205347),
    (14.901639088135635, 1.19480882886464), (15.720837728759737, 0.7947257792323077),
    (-4.081061461795327, None), (-10.95780178627081, 3.8256193347287495e-05),
    (-5.687905218157416, 1.020029649778625e-06), (-8.560000413316867, 0.0013204088063988055),
    (-11.081087338666478, 0.0011135134073561963), (-4.081061461795327, None),
    (-3.6748774003028384, 3.972682483398625e-05), (-6.419302310050806, 0.001484385381798228),
]


def test_hartmann3_construction_is_pinned():
    spec = BENCHMARKS["hartmann3"]
    res = sequential_construct(
        design_uniform(spec.domain, 200, seed=0), [12, 5, 3],
        lambda f, x: spec.funcs[f - 1](np.atleast_2d(x))[0], OptimizerConfig(seed=0), 0,
        domain=spec.domain,
    )
    assert res.selected == PINNED_PICKS
    assert len(res.audit) == len(PINNED_AUDIT)
    for rec, (nll, gain) in zip(res.audit, PINNED_AUDIT):
        assert rec["nll"] == pytest.approx(nll, rel=1e-12, abs=0)
        assert rec["gain"] == (None if gain is None else pytest.approx(gain, rel=1e-12, abs=0))
