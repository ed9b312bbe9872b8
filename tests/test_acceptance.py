"""Acceptance suite: the exit criteria for the whole package.

Each test prints one PASS line with the measured quantity (run with
``pytest -s`` to see them live); the assertions pin the stated tolerances.
The empirical criteria use fixed seeds, so the suite is deterministic.
"""
import copy
import math

import numpy as np
import pytest

from bwklab.core import InstanceParams, RngStream, TerminationReason
from bwklab.environments import (
    PointMass,
    ScaledBernoulli,
    StochasticEnvSpec,
    UniformOn,
    big_cost_trap_matrix,
    hidden_best_arm_instance,
    random_matrix_spec,
)
from bwklab.evaluation import (
    adversarial_regret,
    brute_force_optimal_gain,
    greedy_oracle_gain,
    hindsight_fixed_arms,
)
from bwklab.harness import (
    PolicyConfig,
    emit_results,
    fit_loglog_slope,
    parse_config,
    run_episode,
    run_experiment,
)
from bwklab.policies import Exp3PPBwk, exploration_gamma, gap_estimates

BASE_SEED = 20260808

# The stochastic benchmark instance: K=5, costs inside [0.25, 1] (both ends
# attained), efficiency gaps 0.9 / 1.0 / 1.1 / 1.4, best arm at efficiency 1.9.
STOCH_INSTANCE = {
    "kind": "stochastic",
    "cost_min": 0.25,
    "cost_max": 1.0,
    "arms": [
        {"reward": {"type": "bernoulli", "p": 0.95}, "cost": {"type": "point", "value": 0.5}},
        {"reward": {"type": "uniform", "low": 0.3, "high": 0.7}, "cost": {"type": "point", "value": 0.5}},
        {"reward": {"type": "bernoulli", "p": 0.45}, "cost": {"type": "uniform", "low": 0.4, "high": 0.6}},
        {"reward": {"type": "bernoulli", "p": 0.2}, "cost": {"type": "point", "value": 0.25}},
        {"reward": {"type": "bernoulli", "p": 0.5}, "cost": {"type": "point", "value": 1.0}},
    ],
}

# The adversarial benchmark family: per-arm reward levels in [0.3, 0.7] with
# heavy round noise, independent per-(round, arm) costs in [0.5, 1].
ADV_FAMILY = {
    "kind": "random_matrix",
    "n_arms": 5,
    "cost_min": 0.5,
    "level_span": [0.3, 0.7],
    "reward_noise": 0.25,
}


def _report(num: int, name: str, detail: str) -> None:
    print(f"criterion {num:02d} PASS - {name}: {detail}")


def _sweep_doc(policy, environment, budgets, replications):
    return {
        "policy": policy,
        "environment": copy.deepcopy(environment),
        "budgets": budgets,
        "replications": replications,
        "base_seed": BASE_SEED,
    }


# ---------------------------------------------------------------------------
# Shared episode corpora (computed once per test session)
# ---------------------------------------------------------------------------


def _random_stochastic_env(rng: np.random.Generator, n_arms: int, budget: float):
    cost_min = float(rng.uniform(0.1, 0.8))
    rewards = []
    costs = []
    for _ in range(n_arms):
        kind = rng.integers(3)
        if kind == 0:
            rewards.append(PointMass(float(rng.uniform(0, 1))))
        elif kind == 1:
            lo = float(rng.uniform(0, 0.6))
            rewards.append(UniformOn(lo, lo + float(rng.uniform(0, 1 - lo - 1e-9))))
        else:
            rewards.append(ScaledBernoulli(p=float(rng.uniform(0, 1))))
        kind = rng.integers(3)
        if kind == 0:
            costs.append(PointMass(float(rng.uniform(cost_min, 1.0))))
        elif kind == 1:
            lo = float(rng.uniform(cost_min, 0.9))
            costs.append(UniformOn(lo, lo + float(rng.uniform(0, 1.0 - lo))))
        else:
            lo = float(rng.uniform(cost_min, 0.9))
            costs.append(ScaledBernoulli(p=float(rng.uniform(0, 1)), lo=lo, hi=1.0))
    params = InstanceParams(n_arms=n_arms, budget=budget, cost_min=cost_min)
    return StochasticEnvSpec(params=params, reward_dists=tuple(rewards), cost_dists=tuple(costs))


@pytest.fixture(scope="module")
def mixed_episode_corpus():
    """1000 randomized episodes across every policy and environment kind."""
    rng = np.random.default_rng(BASE_SEED)
    episodes = []
    policies = ["exp3bwk", "exp3pp_bwk", "fixed_arm", "uniform"]
    env_kinds = ["stochastic", "random_matrix", "hidden_best_arm", "big_cost_trap"]
    for i in range(1000):
        policy_name = policies[i % 4]
        env_kind = env_kinds[(i // 4) % 4]
        n_arms = int(rng.integers(1, 7))
        budget = float(rng.integers(8, 61))
        env_rng = RngStream(BASE_SEED, 2 * i)
        if env_kind == "stochastic":
            spec = _random_stochastic_env(rng, n_arms, budget)
        elif env_kind == "random_matrix":
            cost_min = float(rng.uniform(0.15, 0.9))
            params = InstanceParams(n_arms=n_arms, budget=budget, cost_min=cost_min)
            spec = random_matrix_spec(params, env_rng)
        elif env_kind == "hidden_best_arm":
            cost_min = float(rng.uniform(0.1, 1.0))
            # keep eps = sqrt(K c/B) <= 0.5 so the construction is valid
            budget = max(budget, 4.0 * n_arms * cost_min + 1)
            params = InstanceParams(n_arms=n_arms, budget=budget, cost_min=cost_min)
            spec = hidden_best_arm_instance(params, env_rng)
        else:
            budget = float(rng.integers(20, 61))
            spec = big_cost_trap_matrix(0.2, budget, rng=env_rng)
        params = spec.params
        if policy_name == "exp3pp_bwk" and budget < params.n_arms * params.cost_max:
            policy_name = "exp3bwk"  # the sweep would not be affordable
        if policy_name == "fixed_arm":
            pc = PolicyConfig("fixed_arm", {"arm": int(rng.integers(params.n_arms))})
        else:
            pc = PolicyConfig(name=policy_name)
        trace = run_episode(pc, spec, params.budget, BASE_SEED, 2 * i + 1)
        episodes.append((policy_name, params, trace))
    return episodes


@pytest.fixture(scope="module")
def sqrt_sweep_rows():
    """The exponential-weights stochastic sweep, shared with the determinism check."""
    cfg = parse_config(
        _sweep_doc({"name": "exp3bwk"}, STOCH_INSTANCE, [1000, 4000, 16000], 50)
    )
    return cfg, run_experiment(cfg)


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_c01_budget_safety(mixed_episode_corpus):
    """Total paid cost never exceeds the budget, on any episode, exactly."""
    for _, params, trace in mixed_episode_corpus:
        assert trace.total_cost <= params.budget
        assert trace.tau <= params.horizon_cap()
        if trace.terminated_by is TerminationReason.BUDGET_EXHAUSTED:
            assert (
                trace.aborted_pull is not None
                or params.budget - trace.total_cost < params.cost_max
            )
    _report(1, "budget safety", f"{len(mixed_episode_corpus)} episodes, cost <= B on all")


def test_c02_simplex_validity(mixed_episode_corpus):
    """Every recorded selection distribution is a simplex point; the
    exponential-weights policy additionally keeps mass >= gamma/K on all arms."""
    n_vectors = 0
    for policy_name, params, trace in mixed_episode_corpus:
        floor = 0.0
        if policy_name == "exp3bwk":
            floor = exploration_gamma(params) / params.n_arms
        k = params.n_arms
        flat = trace.columns.probs
        assert len(flat) == k * trace.tau
        for i in range(trace.tau):
            probs = flat[i * k : (i + 1) * k]
            n_vectors += 1
            s = math.fsum(probs)
            assert abs(s - 1.0) <= 1e-9
            for p in probs:
                assert p >= 0.0
                if floor:
                    assert p >= floor
    _report(2, "simplex validity", f"{n_vectors} probability vectors checked")


def test_c03_sqrt_scaling_stochastic(sqrt_sweep_rows):
    """Mean pseudo-regret of the exponential-weights policy grows like
    sqrt(B): fitted log-log slope within [0.35, 0.65]."""
    _, rows = sqrt_sweep_rows
    slope = fit_loglog_slope([(r.budget, r.mean_regret) for r in rows])
    assert 0.35 <= slope <= 0.65
    _report(3, "sqrt scaling (stochastic)", f"slope {slope:.3f} in [0.35, 0.65]")


def test_c04_sqrt_scaling_adversarial():
    """Mean hindsight reward regret of the gap-adaptive policy on the seeded
    matrix family: fitted slope within [0.35, 0.70]."""
    cfg = parse_config(
        _sweep_doc({"name": "exp3pp_bwk"}, ADV_FAMILY, [1000, 4000, 16000], 50)
    )
    rows = run_experiment(cfg, threads=2)
    slope = fit_loglog_slope([(r.budget, r.mean_regret) for r in rows])
    assert 0.35 <= slope <= 0.70
    _report(4, "sqrt scaling (adversarial)", f"slope {slope:.3f} in [0.35, 0.70]")


def test_c05_polylog_ratio_stochastic():
    """Gap-adaptive policy on the stochastic instance: quadrupling the budget
    multiplies mean pseudo-regret by under 1.8 (pure sqrt growth would give 2)."""
    cfg = parse_config(
        _sweep_doc({"name": "exp3pp_bwk"}, STOCH_INSTANCE, [4000, 16000], 100)
    )
    rows = run_experiment(cfg, threads=2)
    ratio = rows[1].mean_regret / rows[0].mean_regret
    assert ratio < 1.8
    _report(5, "polylog ratio (stochastic)", f"ratio {ratio:.3f} < 1.8")


def test_c06_gap_estimate_coverage():
    """Estimated efficiency gaps overshoot the true gap on well under 5% of
    (round, seed) pairs, on a point-mass-cost instance with gap 0.3."""
    params = InstanceParams(n_arms=2, budget=5200.0, cost_min=1.0, cost_max=1.0)
    spec = StochasticEnvSpec(
        params=params,
        reward_dists=(ScaledBernoulli(p=0.9), ScaledBernoulli(p=0.6)),
        cost_dists=(PointMass(1.0), PointMass(1.0)),
    )
    true_gaps = [0.0, 0.3]
    exceed = 0
    total = 0
    for seed in range(50):
        rng = RngStream(BASE_SEED, seed)
        policy = Exp3PPBwk(params)
        while not policy.terminated and policy.remaining_budget > 0 and policy.t <= 5000:
            if policy.t >= 1000:
                ucb, lcb = policy.confidence_bounds()
                for i, est in enumerate(gap_estimates(ucb, lcb)):
                    total += 1
                    if est > true_gaps[i] + 1e-9:
                        exceed += 1
            arm, probs = policy.select(rng)
            policy.update(arm, probs, spec.step(policy.t, arm, rng))
    fraction = exceed / total
    assert fraction < 0.05
    _report(6, "gap estimate coverage", f"overshoot fraction {fraction:.5f} < 0.05")


def test_c07_greedy_sandwich():
    """greedy <= optimal <= greedy + max efficiency, exactly, on 200 random
    small instances and the point-mass fixtures."""
    fixtures = [
        ([(0.5, 1.0)], 10.0),
        ([(0.9, 1.0), (0.5, 0.5)], 2.0),
        ([(0.6, 1.0), (0.3, 0.5)], 1.0),
        ([(1.0, 0.7), (0.55, 0.5)], 1.0),
        ([(0.0, 0.5), (0.0, 0.9)], 3.0),
    ]
    rng = np.random.default_rng(BASE_SEED + 7)
    for _ in range(200):
        k = int(rng.integers(1, 5))
        means = [
            (float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.3, 1.0)))
            for _ in range(k)
        ]
        fixtures.append((means, float(rng.uniform(0.4, 3.0))))
    for means, budget in fixtures:
        cap = int(budget / min(c for _, c in means)) + 2
        greedy = greedy_oracle_gain(means, budget)
        optimal = brute_force_optimal_gain(means, budget, cap)
        max_eff = max(m / c for m, c in means)
        assert greedy <= optimal
        assert optimal <= greedy + max_eff
    # the point-mass fixtures also pin exact values
    assert greedy_oracle_gain([(0.5, 1.0)], 10.0) == 5.0
    assert greedy_oracle_gain([(0.9, 1.0), (0.5, 0.5)], 2.0) == 2.0
    _report(7, "greedy sandwich", f"{len(fixtures)} instances, exact")


def test_c08_big_cost_trap_regret():
    """alpha=0.5, B=100: the best fixed arm banks exactly 10; a 50/50 coin at
    the distinguishing round loses 5 on average (within 20%)."""
    spec0 = big_cost_trap_matrix(0.5, 100.0, optimal_arm=0)
    report = hindsight_fixed_arms(spec0)
    assert report.reward_sums[report.best_reward_arm] == 10.0
    regrets = []
    for rep in range(1000):
        spec = big_cost_trap_matrix(0.5, 100.0, rng=RngStream(BASE_SEED, 2 * rep))
        trace = run_episode(
            PolicyConfig(name="uniform"), spec, 100.0, BASE_SEED, 2 * rep + 1
        )
        regrets.append(adversarial_regret(trace, spec).reward_sum_regret)
    mean = sum(regrets) / len(regrets)
    assert abs(mean - 5.0) <= 1.0
    _report(8, "big-cost trap", f"best fixed gain 10 exact; mean regret {mean:.3f} in [4, 6]")


def test_c09_hidden_best_arm_construction():
    """The hidden-best-arm generator: optimal mean exactly 0.5 + sqrt(K c/B),
    all costs exactly c_min, and empirical means within 0.01 over 1e5 draws."""
    params = InstanceParams(n_arms=4, budget=400.0, cost_min=0.25)
    spec = hidden_best_arm_instance(params, RngStream(BASE_SEED, 1))
    eps = math.sqrt(4 * 0.25 / 400.0)
    star = spec.optimal_arm
    assert spec.reward_dists[star].mean == 0.5 + eps
    for arm in range(4):
        if arm != star:
            assert spec.reward_dists[arm].mean == 0.5
        assert spec.cost_dists[arm] == PointMass(0.25)
    rng = RngStream(BASE_SEED, 2)
    n = 100_000
    draws = [spec.step(1, star, rng) for _ in range(n)]
    mean = sum(o.reward for o in draws) / n
    assert abs(mean - (0.5 + eps)) < 0.01
    assert all(o.cost == 0.25 for o in draws)
    other = (star + 1) % 4
    mean_other = sum(spec.step(1, other, rng).reward for _ in range(n)) / n
    assert abs(mean_other - 0.5) < 0.01
    _report(9, "hidden-best-arm construction", f"eps {eps:.3f}, empirical means within 0.01")


def test_c10_stopping_time_alignment():
    """Against unit-cost-bounded matrices with aligned per-round costs, the
    policy's round count stays within K/c_min of the best fixed arm's."""
    n_arms, cost_min, budget = 5, 0.25, 500.0
    bound = n_arms / cost_min
    worst = 0.0
    for i in range(100):
        params = InstanceParams(n_arms=n_arms, budget=budget, cost_min=cost_min)
        spec = random_matrix_spec(params, RngStream(BASE_SEED, 2 * i), cost_jitter=0.05)
        trace = run_episode(PolicyConfig(name="exp3bwk"), spec, budget, BASE_SEED, 2 * i + 1)
        report = hindsight_fixed_arms(spec)
        gap = abs(report.feasible_rounds[report.best_efficiency_arm] - trace.tau)
        worst = max(worst, gap)
        assert gap <= bound
    _report(10, "stopping-time alignment", f"worst |T(i*) - tau| = {worst:g} <= {bound:g}")


def test_c11_byte_determinism(sqrt_sweep_rows, tmp_path):
    """Identical configs produce byte-identical summary CSVs, independent of
    the worker count."""
    cfg, rows_serial = sqrt_sweep_rows
    emit_results(rows_serial, [], str(tmp_path / "serial"), cfg)
    rows_parallel = run_experiment(cfg, threads=2)
    emit_results(rows_parallel, [], str(tmp_path / "parallel"), cfg)
    a = (tmp_path / "serial_summary.csv").read_bytes()
    b = (tmp_path / "parallel_summary.csv").read_bytes()
    assert a == b
    _report(11, "byte determinism", f"{len(a)} bytes identical across thread counts")
