"""Environments: distributions, specs, step operations, generators, files."""
import math
import re

import numpy as np
import pytest

from bwklab.core import InstanceParams, RngStream
from bwklab.environments import (
    AdversarialMatrixSpec,
    PointMass,
    ScaledBernoulli,
    StochasticEnvSpec,
    UniformOn,
    big_cost_trap_matrix,
    hidden_best_arm_instance,
    load_matrix_csv,
    random_matrix_spec,
    save_matrix_csv,
    true_efficiency,
)


def make_stochastic(arms, cost_min, cost_max=1.0, budget=100.0):
    return StochasticEnvSpec(
        params=InstanceParams(
            n_arms=len(arms), budget=budget, cost_min=cost_min, cost_max=cost_max
        ),
        reward_dists=tuple(r for r, _ in arms),
        cost_dists=tuple(c for _, c in arms),
    )


class TestDistributions:
    def test_means(self):
        assert PointMass(0.3).mean == 0.3
        assert UniformOn(0.2, 0.8).mean == pytest.approx(0.5)
        assert ScaledBernoulli(p=0.25, hi=0.8, lo=0.4).mean == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformOn(0.8, 0.2)
        with pytest.raises(ValueError):
            ScaledBernoulli(p=1.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PointMass(bad)
        with pytest.raises(ValueError, match="finite"):
            UniformOn(0.0, bad)
        with pytest.raises(ValueError, match="finite"):
            ScaledBernoulli(p=0.5, hi=bad)
        with pytest.raises(ValueError):
            ScaledBernoulli(p=bad)

    def test_sampling_respects_support(self):
        rng = RngStream(1)
        d = UniformOn(0.4, 0.6)
        for _ in range(200):
            assert 0.4 <= d.sample(rng) <= 0.6
        b = ScaledBernoulli(p=0.5, hi=0.9, lo=0.3)
        assert {b.sample(rng) for _ in range(100)} == {0.3, 0.9}


class TestStochasticSpec:
    def test_nan_point_cost_rejected(self):
        # a NaN cost would run the ledger to a NaN total
        with pytest.raises(ValueError, match="finite"):
            make_stochastic([(ScaledBernoulli(p=0.5), PointMass(math.nan))], cost_min=0.5)

    def test_support_validation(self):
        with pytest.raises(ValueError, match="reward support"):
            make_stochastic([(UniformOn(0.5, 1.1), PointMass(0.5))], cost_min=0.5)
        with pytest.raises(ValueError, match="cost support"):
            make_stochastic([(PointMass(0.5), PointMass(0.1))], cost_min=0.5)
        with pytest.raises(ValueError, match="per arm"):
            StochasticEnvSpec(
                params=InstanceParams(n_arms=2, budget=10, cost_min=0.5),
                reward_dists=(PointMass(0.5),),
                cost_dists=(PointMass(0.5),),
            )

    def test_point_mass_step(self):
        spec = make_stochastic([(PointMass(0.5), PointMass(1.0))], cost_min=1.0)
        rng = RngStream(0)
        for _ in range(5):
            out = spec.step(1, 0, rng)
            assert (out.reward, out.cost) == (0.5, 1.0)

    def test_bernoulli_law_of_large_numbers(self):
        spec = make_stochastic(
            [(ScaledBernoulli(p=0.7), PointMass(0.5))], cost_min=0.5
        )
        rng = RngStream(2024)
        n = 100_000
        mean = sum(spec.step(1, 0, rng).reward for _ in range(n)) / n
        assert abs(mean - 0.7) < 0.01

    def test_deterministic_replay(self):
        spec = make_stochastic(
            [(UniformOn(0.0, 1.0), UniformOn(0.3, 0.9))], cost_min=0.3, cost_max=0.9
        )
        a = [spec.step(1, 0, RngStream(5, i)) for i in range(4)]
        b = [spec.step(1, 0, RngStream(5, i)) for i in range(4)]
        assert a == b

    def test_arm_out_of_range(self):
        spec = make_stochastic([(PointMass(0.5), PointMass(0.5))], cost_min=0.5)
        with pytest.raises(ValueError, match="out of range"):
            spec.step(1, 1, RngStream(0))


class TestAdversarialSpec:
    def make(self):
        rewards = np.zeros((5, 3))
        costs = np.ones((5, 3)) * 0.5
        rewards[2, 1] = 0.4
        return AdversarialMatrixSpec(
            params=InstanceParams(n_arms=3, budget=2.0, cost_min=0.5, cost_max=0.5),
            rewards=rewards,
            costs=costs,
        )

    def test_lookup(self):
        spec = self.make()
        assert spec.step(3, 1) == spec.step(3, 1)
        out = spec.step(3, 1)
        assert (out.reward, out.cost) == (0.4, 0.5)

    def test_bounds_errors(self):
        spec = self.make()
        with pytest.raises(ValueError, match="out of range"):
            spec.step(6, 0)
        with pytest.raises(ValueError, match="out of range"):
            spec.step(0, 0)
        with pytest.raises(ValueError, match="out of range"):
            spec.step(1, 3)

    def test_matrices_are_frozen(self):
        spec = self.make()
        with pytest.raises(ValueError):
            spec.rewards[0, 0] = 1.0

    def test_horizon_requirement(self):
        with pytest.raises(ValueError, match="horizon too short"):
            AdversarialMatrixSpec(
                params=InstanceParams(n_arms=2, budget=10.0, cost_min=0.5),
                rewards=np.zeros((19, 2)),
                costs=np.ones((19, 2)) * 0.5,
            )

    def test_entry_bounds(self):
        with pytest.raises(ValueError, match="rewards"):
            AdversarialMatrixSpec(
                params=InstanceParams(n_arms=1, budget=1.0, cost_min=1.0),
                rewards=np.full((1, 1), 1.5),
                costs=np.ones((1, 1)),
            )

    def test_nan_cost_rejected(self):
        # every comparison with NaN is False, so a range check alone passes it
        costs = np.full((20, 2), 0.5)
        costs[7, 1] = math.nan
        with pytest.raises(ValueError, match="finite"):
            AdversarialMatrixSpec(
                params=InstanceParams(n_arms=2, budget=10.0, cost_min=0.5),
                rewards=np.zeros((20, 2)),
                costs=costs,
            )


class TestTrueEfficiency:
    def test_simple_ratio(self):
        spec = make_stochastic(
            [(ScaledBernoulli(p=0.8), PointMass(0.4))], cost_min=0.4
        )
        assert true_efficiency(spec, 0) == pytest.approx(2.0)

    def test_zero_reward(self):
        spec = make_stochastic([(PointMass(0.0), PointMass(0.7))], cost_min=0.7)
        assert true_efficiency(spec, 0) == 0.0

    def test_degenerate_equal_efficiencies(self):
        spec = make_stochastic(
            [
                (ScaledBernoulli(p=0.6), PointMass(1.0)),
                (ScaledBernoulli(p=0.3), PointMass(0.5)),
            ],
            cost_min=0.5,
        )
        assert true_efficiency(spec, 0) == pytest.approx(0.6)
        assert true_efficiency(spec, 1) == pytest.approx(0.6)


class TestHiddenBestArm:
    def test_construction_math(self):
        params = InstanceParams(n_arms=4, budget=400.0, cost_min=0.25)
        spec = hidden_best_arm_instance(params, RngStream(77))
        eps = math.sqrt(4 * 0.25 / 400.0)
        assert eps == pytest.approx(0.05)
        star = spec.optimal_arm
        assert star is not None
        assert spec.reward_dists[star].mean == 0.5 + eps
        for i in range(4):
            if i != star:
                assert spec.reward_dists[i].mean == 0.5
            assert spec.cost_dists[i] == PointMass(0.25)

    def test_budget_too_small(self):
        params = InstanceParams(n_arms=2, budget=2.0, cost_min=1.0)
        with pytest.raises(ValueError, match="budget too small"):
            hidden_best_arm_instance(params, RngStream(0))

    def test_requires_unit_cost_max(self):
        params = InstanceParams(n_arms=2, budget=100.0, cost_min=0.5, cost_max=0.9)
        with pytest.raises(ValueError, match="cost_max"):
            hidden_best_arm_instance(params, RngStream(0))

    def test_star_choice_uses_rng(self):
        params = InstanceParams(n_arms=8, budget=1000.0, cost_min=0.5)
        stars = {
            hidden_best_arm_instance(params, RngStream(0, i)).optimal_arm
            for i in range(60)
        }
        assert len(stars) == 8

    def test_empirical_means(self):
        params = InstanceParams(n_arms=3, budget=300.0, cost_min=0.5)
        spec = hidden_best_arm_instance(params, RngStream(123))
        eps = math.sqrt(3 * 0.5 / 300.0)
        rng = RngStream(9)
        n = 20_000
        for arm in range(3):
            mean = sum(spec.step(1, arm, rng).reward for _ in range(n)) / n
            target = 0.5 + eps if arm == spec.optimal_arm else 0.5
            assert abs(mean - target) < 0.015


class TestBigCostTrap:
    def test_layout_alpha_half(self):
        spec = big_cost_trap_matrix(0.5, 100.0, optimal_arm=0)
        assert spec.params.cost_max == 10.0
        assert spec.t_max == 100
        # rounds 1..90: nothing to win, unit costs
        assert spec.rewards[:90].sum() == 0.0
        assert (spec.costs[:90] == 1.0).all()
        # round 91 = t*+1
        assert spec.rewards[90, 0] == 1.0 and spec.costs[90, 0] == 1.0
        assert spec.rewards[90, 1] == 0.0 and spec.costs[90, 1] == 10.0
        # beyond t*+1 both arms pay 1 per 1
        assert (spec.rewards[91:] == 1.0).all()
        assert (spec.costs[91:] == 1.0).all()

    def test_rewards_prefix_zero(self):
        spec = big_cost_trap_matrix(0.5, 100.0, optimal_arm=1)
        assert spec.rewards[:90, 0].sum() == 0.0
        assert spec.rewards[:90, 1].sum() == 0.0

    def test_fixed_arm_playout_oracle(self):
        # Brute-force playout of both fixed arms, independent of the
        # hindsight evaluator: pay costs while affordable, sum rewards.
        for alpha, budget in [(0.5, 100.0), (0.3, 57.0), (0.8, 40.0), (0.0, 25.0)]:
            spec = big_cost_trap_matrix(alpha, budget, optimal_arm=0)
            gains = []
            for arm in (0, 1):
                left = budget
                gain = 0.0
                for t in range(spec.t_max):
                    c = float(spec.costs[t, arm])
                    if c > left:
                        break
                    left -= c
                    gain += float(spec.rewards[t, arm])
                assert budget - left <= budget
                gains.append(gain)
            assert gains[0] == math.floor(budget - math.floor(budget - budget**alpha))
            if alpha == 0.5 and budget == 100.0:
                assert gains[0] == 10.0
                assert gains[1] == 0.0

    def test_alpha_zero_degenerates(self):
        spec = big_cost_trap_matrix(0.0, 30.0, optimal_arm=1)
        assert spec.params.cost_max == 1.0
        assert (spec.costs == 1.0).all()
        # only the final round distinguishes the arms
        assert spec.rewards[29, 1] == 1.0
        assert spec.rewards[29, 0] == 0.0

    def test_alpha_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            big_cost_trap_matrix(1.5, 100.0, optimal_arm=0)
        with pytest.raises(ValueError):
            big_cost_trap_matrix(0.5, 0.5, optimal_arm=0)

    def test_needs_arm_or_rng(self):
        with pytest.raises(ValueError, match="optimal_arm"):
            big_cost_trap_matrix(0.5, 100.0)
        spec = big_cost_trap_matrix(0.5, 100.0, rng=RngStream(3))
        assert spec.t_max == 100


class TestRandomMatrixFamily:
    def test_bounds_and_determinism(self):
        params = InstanceParams(n_arms=4, budget=50.0, cost_min=0.25)
        a = random_matrix_spec(params, RngStream(42, 1))
        b = random_matrix_spec(params, RngStream(42, 1))
        assert (a.rewards == b.rewards).all()
        assert (a.costs == b.costs).all()
        assert a.rewards.min() >= 0.0 and a.rewards.max() <= 1.0
        assert a.costs.min() >= 0.25 and a.costs.max() <= 1.0

    def test_shared_cost_jitter(self):
        params = InstanceParams(n_arms=5, budget=50.0, cost_min=0.25)
        spec = random_matrix_spec(params, RngStream(7), cost_jitter=0.05)
        spread = spec.costs.max(axis=1) - spec.costs.min(axis=1)
        assert spread.max() <= 0.1 + 1e-12

    def test_jitter_validation(self):
        params = InstanceParams(n_arms=2, budget=10.0, cost_min=0.9)
        with pytest.raises(ValueError, match="cost_jitter"):
            random_matrix_spec(params, RngStream(0), cost_jitter=0.2)


class TestMatrixCsv:
    def test_round_trip(self, tmp_path):
        params = InstanceParams(n_arms=3, budget=20.0, cost_min=0.5)
        spec = random_matrix_spec(params, RngStream(11))
        path = tmp_path / "matrix.csv"
        save_matrix_csv(spec, str(path))
        loaded = load_matrix_csv(str(path), budget=20.0, cost_min=0.5, cost_max=1.0)
        assert (loaded.rewards == spec.rewards).all()
        assert (loaded.costs == spec.costs).all()
        assert loaded.params == spec.params

    def test_inferred_cost_bounds(self, tmp_path):
        params = InstanceParams(n_arms=2, budget=4.0, cost_min=0.5, cost_max=0.5)
        spec = AdversarialMatrixSpec(
            params=params, rewards=np.zeros((8, 2)), costs=np.full((8, 2), 0.5)
        )
        path = tmp_path / "m.csv"
        save_matrix_csv(spec, str(path))
        loaded = load_matrix_csv(str(path), budget=4.0)
        assert loaded.params.cost_min == 0.5
        assert loaded.params.cost_max == 0.5

    def test_parse_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,arm,reward,cost\n1,0,0.5,1.0\n1,0,0.5,oops\n")
        with pytest.raises(ValueError, match="line 3"):
            load_matrix_csv(str(path), budget=1.0)
        path.write_text("nope\n")
        with pytest.raises(ValueError, match="line 1"):
            load_matrix_csv(str(path), budget=1.0)
        path.write_text("t,arm,reward,cost\n1,0,0.5,1.0\n2,0,0.5,1.0\n2,1,0.5,1.0\n")
        with pytest.raises(ValueError, match="grid"):
            load_matrix_csv(str(path), budget=1.0)

    @pytest.mark.parametrize(
        "row", ["2,1,0.5,nan", "2,1,inf,1.0"], ids=["nan_cost", "inf_reward"]
    )
    def test_non_finite_cell_names_its_line(self, tmp_path, row):
        # No cost bounds given, so they would be derived from the data.
        path = tmp_path / "bad.csv"
        path.write_text(f"t,arm,reward,cost\n1,0,0.5,1.0\n1,1,0.5,1.0\n2,0,0.5,1.0\n{row}\n")
        message = f"{path}: line 5: reward and cost must be finite"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_matrix_csv(str(path), budget=1.0)
