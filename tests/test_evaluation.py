"""Hindsight oracles, greedy/brute-force knapsack pair, regret figures."""
import math

import numpy as np
import pytest

from bwklab.core import InstanceParams, RngStream, RoundColumns, RunTrace, TerminationReason
from bwklab.environments import (
    AdversarialMatrixSpec,
    PointMass,
    ScaledBernoulli,
    StochasticEnvSpec,
    big_cost_trap_matrix,
    random_matrix_spec,
)
from bwklab.evaluation import (
    RegretMode,
    RegretReport,
    RegretSummary,
    adversarial_regret,
    aggregate_regret,
    brute_force_optimal_gain,
    greedy_oracle_gain,
    hindsight_fixed_arms,
    stochastic_pseudo_regret,
)
from bwklab.harness import PolicyConfig, run_episode


def matrix(rewards, costs, budget, cost_min, cost_max=1.0):
    rewards = np.asarray(rewards, dtype=float)
    return AdversarialMatrixSpec(
        params=InstanceParams(
            n_arms=rewards.shape[1], budget=budget, cost_min=cost_min, cost_max=cost_max
        ),
        rewards=rewards,
        costs=np.asarray(costs, dtype=float),
    )


def trace_of(spec, arm_sequence, budget):
    """Hand-built trace: play the given arms, paying matrix costs."""
    cols = RoundColumns()
    left = budget
    k = spec.params.n_arms
    for t, arm in enumerate(arm_sequence, start=1):
        cost = float(spec.costs[t - 1, arm])
        left -= cost
        cols.append(t, arm, [1.0 / k] * k, float(spec.rewards[t - 1, arm]), cost, left)
    return RunTrace(budget, cols, TerminationReason.BUDGET_EXHAUSTED)


class TestHindsightFixedArms:
    def test_hand_playout(self):
        rewards = [[1.0, 0.2], [0.0, 0.2], [1.0, 0.2], [0.0, 0.2]]
        costs = [[1.0, 1.0]] * 4
        spec = matrix(rewards, costs, budget=3.0, cost_min=1.0)
        report = hindsight_fixed_arms(spec)
        assert report.feasible_rounds == (3, 3)
        assert report.reward_sums == (2.0, pytest.approx(0.6))
        assert report.best_reward_arm == 0

    def test_all_zero_rewards_tie_breaks_low(self):
        spec = matrix([[0.0, 0.0]] * 5, [[1.0, 1.0]] * 5, budget=4.0, cost_min=1.0)
        report = hindsight_fixed_arms(spec)
        assert report.best_reward_arm == 0
        assert report.best_efficiency_arm == 0
        assert report.reward_sums == (0.0, 0.0)

    def test_trap_matrix_star_gain(self):
        spec = big_cost_trap_matrix(0.5, 100.0, optimal_arm=1)
        report = hindsight_fixed_arms(spec)
        assert report.reward_sums[1] == 10.0
        assert report.feasible_rounds[1] == 100
        assert report.best_reward_arm == 1

    def test_budget_boundary_is_exact(self):
        # ten 0.1-cost pulls must fit a budget of 1.0 despite binary 0.1
        spec = matrix([[0.5]] * 12, [[0.1]] * 12, budget=1.0, cost_min=0.1, cost_max=0.1)
        report = hindsight_fixed_arms(spec)
        assert report.feasible_rounds == (10,)

    def test_playouts_exhaust_budget(self):
        rng = RngStream(404)
        params = InstanceParams(n_arms=3, budget=25.0, cost_min=0.25)
        spec = random_matrix_spec(params, rng)
        report = hindsight_fixed_arms(spec)
        for arm in range(3):
            t = report.feasible_rounds[arm]
            spent = math.fsum(float(c) for c in spec.costs[:t, arm])
            assert spent <= 25.0
            # one more pull would break the budget
            assert spent + float(spec.costs[t, arm]) > 25.0


class TestGreedyOracle:
    def test_single_arm(self):
        assert greedy_oracle_gain([(0.5, 1.0)], 10.0) == pytest.approx(5.0)

    def test_prefers_higher_efficiency(self):
        gain = greedy_oracle_gain([(0.9, 1.0), (0.5, 0.5)], 2.0)
        assert gain == pytest.approx(2.0)  # four pulls of the second arm

    def test_falls_through_to_cheaper_arm(self):
        # after 0.8 is spent on the top arm, only a 0.2-cost pull still fits
        gain = greedy_oracle_gain([(0.9, 0.8), (0.3, 0.3)], 1.0)
        assert gain == pytest.approx(0.9)
        gain = greedy_oracle_gain([(0.9, 0.8), (0.2, 0.2)], 1.0)
        assert gain == pytest.approx(0.9 + 0.2)

    def test_tie_breaks_to_lower_index(self):
        # equal efficiency, only one pull affordable: arm 0 must be taken
        gain = greedy_oracle_gain([(0.6, 1.0), (0.3, 0.5)], 1.0)
        assert gain == pytest.approx(0.6)


class TestBruteForceOracle:
    def test_single_arm_forced(self):
        assert brute_force_optimal_gain([(0.7, 0.6)], 2.0, pull_cap=10) == pytest.approx(
            0.7 * 3
        )

    def test_matches_greedy_on_equal_costs(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            k = int(rng.integers(1, 4))
            cost = float(rng.uniform(0.3, 1.0))
            means = [(float(rng.uniform(0, 1)), cost) for _ in range(k)]
            budget = float(rng.uniform(0.5, 3.0))
            cap = int(budget / cost) + 2
            assert brute_force_optimal_gain(means, budget, cap) == pytest.approx(
                greedy_oracle_gain(means, budget)
            )

    def test_beats_greedy_when_packing_matters(self):
        # greedy burns budget on the efficient arm and strands the rest
        means = [(1.0, 0.7), (0.55, 0.5)]
        budget = 1.0
        greedy = greedy_oracle_gain(means, budget)
        optimal = brute_force_optimal_gain(means, budget, pull_cap=4)
        assert greedy == pytest.approx(1.0)
        assert optimal == pytest.approx(1.1)

    def test_too_large_instance_rejected(self):
        with pytest.raises(ValueError, match="too big"):
            brute_force_optimal_gain([(0.5, 0.001)] * 4, 1.0, pull_cap=10**6)

    def test_sandwich_property(self):
        # exhaustive check of greedy <= optimal <= greedy + max efficiency
        rng = np.random.default_rng(99)
        for _ in range(200):
            k = int(rng.integers(1, 5))
            means = [
                (float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.3, 1.0)))
                for _ in range(k)
            ]
            budget = float(rng.uniform(0.4, 3.0))
            cap = int(budget / min(c for _, c in means)) + 2
            greedy = greedy_oracle_gain(means, budget)
            optimal = brute_force_optimal_gain(means, budget, cap)
            max_eff = max(m / c for m, c in means)
            assert greedy <= optimal <= greedy + max_eff


class TestStochasticPseudoRegret:
    def spec(self):
        return StochasticEnvSpec(
            params=InstanceParams(n_arms=2, budget=10.0, cost_min=0.5),
            reward_dists=(ScaledBernoulli(p=0.8), ScaledBernoulli(p=0.3)),
            cost_dists=(PointMass(0.8), PointMass(1.0)),
        )  # efficiencies 1.0 and 0.3, gaps (0, 0.7)

    def trace(self, arms):
        cols = RoundColumns()
        for t, arm in enumerate(arms, start=1):
            cols.append(t, arm, (0.5, 0.5), 0.0, 0.5, 0.0)
        return RunTrace(10.0, cols, TerminationReason.BUDGET_EXHAUSTED)

    def test_only_best_arm_gives_zero(self):
        assert stochastic_pseudo_regret(self.trace([0, 0, 0]), self.spec()) == 0.0

    def test_weighted_counts(self):
        t = self.trace([0] * 10 + [1] * 4)
        assert stochastic_pseudo_regret(t, self.spec()) == pytest.approx(0.7 * 4)

    def test_degenerate_equal_efficiencies(self):
        spec = StochasticEnvSpec(
            params=InstanceParams(n_arms=2, budget=10.0, cost_min=0.5),
            reward_dists=(ScaledBernoulli(p=0.6), ScaledBernoulli(p=0.3)),
            cost_dists=(PointMass(1.0), PointMass(0.5)),
        )
        t = self.trace([0, 1, 1, 0, 1])
        assert stochastic_pseudo_regret(t, spec) == 0.0

    def test_additive_over_concatenation(self):
        spec = self.spec()
        a = self.trace([0, 1, 1])
        b = self.trace([1, 0])
        both = self.trace([0, 1, 1, 1, 0])
        assert stochastic_pseudo_regret(a, spec) + stochastic_pseudo_regret(
            b, spec
        ) == pytest.approx(stochastic_pseudo_regret(both, spec))

    def test_nonnegative_on_random_traces(self):
        rng = np.random.default_rng(71)
        spec = self.spec()
        for _ in range(100):
            arms = list(rng.integers(0, 2, size=rng.integers(1, 30)))
            assert stochastic_pseudo_regret(self.trace(arms), spec) >= 0.0


class TestAdversarialRegret:
    def test_self_comparison_zero_efficiency_regret(self):
        spec = matrix(
            [[0.9, 0.1]] * 10, [[1.0, 1.0]] * 10, budget=8.0, cost_min=1.0
        )
        trace = trace_of(spec, [0] * 8, budget=8.0)
        report = adversarial_regret(trace, spec)
        assert report.efficiency_regret == pytest.approx(0.0, abs=1e-12)
        assert report.reward_sum_regret == pytest.approx(0.0, abs=1e-12)
        assert report.mode is RegretMode.ADVERSARIAL

    def test_fixed_arm_policy_on_best_arm_has_zero_regret(self):
        # the fixed-arm playout and the hindsight oracle share affordability
        # semantics, so self-comparison is exactly zero
        params = InstanceParams(n_arms=3, budget=20.0, cost_min=0.25)
        spec = random_matrix_spec(params, RngStream(63))
        best = hindsight_fixed_arms(spec).best_reward_arm
        trace = run_episode(PolicyConfig("fixed_arm", {"arm": best}), spec, 20.0, 1, 1)
        report = adversarial_regret(trace, spec)
        assert report.reward_sum_regret == 0.0

    def test_unit_costs_integer_budget_z_is_one(self):
        spec = matrix(
            [[0.9, 0.1]] * 10, [[1.0, 1.0]] * 10, budget=8.0, cost_min=1.0
        )
        trace = trace_of(spec, [1] * 8, budget=8.0)
        report = adversarial_regret(trace, spec)
        assert report.z_value == 1.0
        assert report.reward_sum_regret == pytest.approx((0.9 - 0.1) * 8)

    def test_trap_round_regret_reference(self):
        # a policy that takes the expensive arm at the distinguishing round
        spec = big_cost_trap_matrix(0.5, 100.0, optimal_arm=0)
        arms = [0] * 90 + [1]  # pays 10 at round 91, then the game is over
        trace = trace_of(spec, arms, budget=100.0)
        report = adversarial_regret(trace, spec)
        assert report.reward_sum_regret == pytest.approx(10.0)

    def test_z_never_exceeds_cost_max_on_integer_budgets(self):
        for stream in range(20):
            params = InstanceParams(n_arms=3, budget=30.0, cost_min=0.5)
            spec = random_matrix_spec(params, RngStream(7, stream))
            trace = run_episode(PolicyConfig(name="uniform"), spec, 30.0, 7, stream)
            report = adversarial_regret(trace, spec)
            assert report.z_value <= 1.0

    def test_empty_trace_is_error(self):
        spec = matrix([[0.5]], [[1.0]], budget=1.0, cost_min=1.0)
        empty = RunTrace(1.0, RoundColumns(), TerminationReason.BUDGET_EXHAUSTED)
        with pytest.raises(ValueError, match="empty trace"):
            adversarial_regret(empty, spec)


class TestAggregateRegret:
    def r(self, value):
        return RegretReport(mode=RegretMode.ADVERSARIAL, reward_sum_regret=value)

    def test_report_needs_its_primary_figure(self):
        with pytest.raises(ValueError, match="reward_sum_regret"):
            RegretReport(mode=RegretMode.ADVERSARIAL, pseudo_regret=1.0)
        with pytest.raises(ValueError, match="pseudo_regret"):
            RegretReport(mode=RegretMode.STOCHASTIC, reward_sum_regret=1.0, z_value=1.0)
        assert RegretReport(mode=RegretMode.STOCHASTIC, pseudo_regret=0.0).primary_regret == 0.0

    def test_single_report(self):
        agg = aggregate_regret([self.r(2.5)])
        assert isinstance(agg, RegretSummary)
        assert agg.mean_regret == 2.5
        assert agg.stderr_regret == 0.0
        assert agg.n_episodes == 1

    def test_two_point_arithmetic(self):
        agg = aggregate_regret([self.r(1.0), self.r(3.0)])
        assert agg.mean_regret == pytest.approx(2.0)
        assert agg.stderr_regret == pytest.approx(1.0)

    def test_stderr_shrinks_like_sqrt_n(self):
        rng = np.random.default_rng(5)
        values = rng.normal(10.0, 2.0, size=1000)
        small = aggregate_regret([self.r(v) for v in values[:250]])
        large = aggregate_regret([self.r(v) for v in values])
        ratio = small.stderr_regret / large.stderr_regret
        assert abs(ratio - 2.0) < 0.4  # 1/sqrt(n) within 20%

    def test_mode_mixing_rejected(self):
        mixed = [self.r(1.0), RegretReport(mode=RegretMode.STOCHASTIC, pseudo_regret=1.0)]
        with pytest.raises(ValueError, match="mixed"):
            aggregate_regret(mixed)
        with pytest.raises(ValueError, match="no reports"):
            aggregate_regret([])
