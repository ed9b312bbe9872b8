"""Hindsight oracles, greedy/brute-force knapsack pair, regret figures."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwklab.core import (
    ExactSum,
    InstanceParams,
    RngStream,
    RoundColumns,
    RunTrace,
    TerminationReason,
)
from bwklab.environments import (
    AdversarialMatrixSpec,
    PointMass,
    ScaledBernoulli,
    StochasticEnvSpec,
    big_cost_trap_matrix,
    random_matrix_spec,
)
from bwklab.evaluation import (
    HindsightReport,
    RegretMode,
    RegretReport,
    RegretSummary,
    _argmax_lowest,
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


def reference_hindsight(spec):
    """The fixed-arm playout one row at a time, through the policies' ledger."""
    budget = spec.params.budget
    t_max = spec.t_max
    feasible, reward_sums, efficiency_sums = [], [], []
    for arm in range(spec.params.n_arms):
        spent = ExactSum()
        t = 0
        while t < t_max and spent.add_if_within(float(spec.costs[t, arm]), budget):
            t += 1
        if t == t_max and budget - spent.value >= spec.params.cost_min:
            raise ValueError(
                f"horizon too short: arm {arm} can still afford pulls after row {t_max}"
            )
        feasible.append(t)
        rewards, costs = spec.rewards[:t, arm], spec.costs[:t, arm]
        reward_sums.append(math.fsum(float(r) for r in rewards))
        efficiency_sums.append(math.fsum(float(r) / float(c) for r, c in zip(rewards, costs)))
    return HindsightReport(
        feasible_rounds=tuple(feasible),
        reward_sums=tuple(reward_sums),
        efficiency_sums=tuple(efficiency_sums),
        best_reward_arm=_argmax_lowest(reward_sums),
        best_efficiency_arm=_argmax_lowest(efficiency_sums),
    )


def assert_same_hindsight(spec):
    """hindsight_fixed_arms agrees with the row loop exactly, errors included."""
    try:
        expected = reference_hindsight(spec)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            hindsight_fixed_arms(spec)
        assert str(got.value) == str(err)
        return
    assert hindsight_fixed_arms(spec) == expected


@st.composite
def cost_matrices(draw):
    """Matrices whose costs hit, graze or jump over the budget.

    ``multiples``: integer multiples of cost_min, with B the exact sum of one
    arm's prefix or one ulp off it; ``all_min``: every cost is cost_min;
    ``uniform``: costs on [cost_min, cost_max]; ``spike``: cost_min except
    one cost_max cell.
    """
    k = draw(st.integers(1, 5))
    c_min = draw(st.sampled_from([1e-3, 0.1, 0.25, 0.5, 1.0]))
    mode = draw(st.sampled_from(["multiples", "all_min", "uniform", "spike"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(1, 40))
    if mode == "multiples":
        ints = rng.integers(1, 5, size=(rows, k))
        c_max = c_min * 4
        costs = c_min * ints.astype(float)
        arm = draw(st.integers(0, k - 1))
        budget = math.fsum(costs[: draw(st.integers(1, rows)), arm])
        # one ulp either side of the exact sum, where a plain cumsum misjudges
        budget = math.nextafter(budget, draw(st.sampled_from([budget, -math.inf, math.inf])))
    else:
        c_max = max(c_min, draw(st.sampled_from([1.0, 2.0, 3 * c_min])))
        frac = draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0, exclude_max=True))
        budget = (draw(st.integers(1, rows)) + frac) * c_min
        costs = np.full((rows, k), c_min)
        if mode == "uniform":
            costs = c_min + rng.random((rows, k)) * (c_max - c_min)
        elif mode == "spike":
            costs[rng.integers(rows), rng.integers(k)] = c_max
    # pad to the horizon the spec demands, plus a few spare rows
    t_max = max(rows, math.ceil(budget / c_min)) + draw(st.integers(0, 3))
    costs = np.vstack([costs, np.full((t_max - rows, k), c_min)])
    rewards = rng.random((t_max, k))
    return matrix(rewards, costs, budget=budget, cost_min=c_min, cost_max=c_max)


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

    @pytest.mark.parametrize(
        "budget, expected",
        [(math.nextafter(1.0, 0.0), 9), (1.5, 15)],
        ids=["cumsum_guess_too_high", "cumsum_guess_too_low"],
    )
    def test_fsum_settles_a_wrong_cumsum_guess(self, budget, expected):
        # ten 0.1s cumsum to just under 1.0 but fsum to 1.0; fifteen cumsum
        # to just over 1.5 but fsum to 1.5
        spec = matrix([[0.5]] * 20, [[0.1]] * 20, budget=budget, cost_min=0.1, cost_max=0.1)
        assert np.searchsorted(np.cumsum(spec.costs[:, 0]), budget, side="right") != expected
        assert hindsight_fixed_arms(spec).feasible_rounds == (expected,)
        assert_same_hindsight(spec)

    @settings(max_examples=300, deadline=None)
    @given(cost_matrices())
    def test_matches_row_loop_exactly(self, spec):
        assert_same_hindsight(spec)

    @pytest.mark.parametrize("optimal_arm", [0, 1])
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("budget", [100.0, 57.5])
    def test_trap_matrix_matches_row_loop(self, budget, alpha, optimal_arm):
        assert_same_hindsight(big_cost_trap_matrix(alpha, budget, optimal_arm=optimal_arm))

    def test_random_matrices_match_row_loop(self):
        for stream in range(10):
            params = InstanceParams(n_arms=4, budget=200.0, cost_min=0.1)
            assert_same_hindsight(random_matrix_spec(params, RngStream(808, stream)))


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

    @pytest.mark.parametrize(
        "arm",
        [(0.5, -1.0), (0.5, math.nan), (0.5, 0.0), (0.5, math.inf), (math.nan, 0.5)],
        ids=["negative_cost", "nan_cost", "zero_cost", "inf_cost", "nan_reward"],
    )
    def test_invalid_arm_rejected(self, arm):
        # a cost below 0 or NaN never fills the budget, and 0 divides by 0
        with pytest.raises(ValueError, match=r"arm 1: need a finite mean reward"):
            greedy_oracle_gain([(0.9, 1.0), arm], 1.0)

    @pytest.mark.parametrize("budget", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="budget must be finite and positive"):
            greedy_oracle_gain([(0.5, 1.0)], budget)


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

    @pytest.mark.parametrize(
        "arm",
        [(0.5, 0.0), (0.5, -1.0), (0.5, math.nan), (math.nan, 0.5), (math.inf, 0.5)],
        ids=["zero_cost", "negative_cost", "nan_cost", "nan_reward", "inf_reward"],
    )
    def test_invalid_arm_rejected(self, arm):
        # a NaN reward used to lose every max() and report a gain of 0
        with pytest.raises(ValueError, match=r"arm 1: need a finite mean reward"):
            brute_force_optimal_gain([(0.9, 1.0), arm], 1.0, 3)

    @pytest.mark.parametrize("budget", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="budget must be finite and positive"):
            brute_force_optimal_gain([(0.5, 1.0)], budget, 3)

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


class TestEfficiencyTotal:
    @staticmethod
    def trace(pairs):
        cols = RoundColumns()
        for t, (r, c) in enumerate(pairs, start=1):
            cols.append(t, 0, (1.0,), r, c, 0.0)
        return RunTrace(10.0, cols, TerminationReason.BUDGET_EXHAUSTED)

    @given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(1e-3, 4.0)), max_size=60))
    def test_equals_generator_form(self, pairs):
        trace = self.trace(pairs)
        expected = math.fsum(r / c for r, c in zip(trace.columns.reward, trace.columns.cost))
        assert trace.efficiency_total() == expected

    def test_zero_cost_raises(self):
        with pytest.raises(ZeroDivisionError):
            self.trace([(0.5, 0.5), (0.5, 0.0)]).efficiency_total()


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
