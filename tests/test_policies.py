"""Policy state machines: selection math, updates, budget contract."""
import math

import numpy as np
import pytest

from bwklab.core import InstanceParams, Outcome, RngStream
from bwklab.policies import (
    Exp3Bwk,
    Exp3PPBwk,
    FixedArmPolicy,
    UniformPolicy,
    exploration_gamma,
    gap_estimates,
    loss_mixing_rate,
)

E = math.e


def params(n_arms=2, budget=100.0, cost_min=0.5, cost_max=1.0):
    return InstanceParams(
        n_arms=n_arms, budget=budget, cost_min=cost_min, cost_max=cost_max
    )


class TestExp3BwkInit:
    def test_default_gamma_formula(self):
        got = exploration_gamma(params(n_arms=2, budget=100.0, cost_min=0.5))
        expect = math.sqrt(0.5 * 2 * math.log(2) / (100 * (E - 1) + 2 * (E - 2)))
        assert got == pytest.approx(expect, rel=1e-12)
        assert got == pytest.approx(0.0632, abs=5e-5)

    def test_single_arm_degenerates(self):
        pol = Exp3Bwk(params(n_arms=1, budget=10.0, cost_min=0.5))
        assert pol.gamma == 0.0
        arm, probs = pol.select(RngStream(0))
        assert arm == 0
        assert probs == [1.0]

    def test_gamma_clamped_to_one(self):
        assert exploration_gamma(params(n_arms=6, budget=0.75, cost_min=0.7)) == 1.0

    def test_override_validation(self):
        with pytest.raises(ValueError, match="gamma_override"):
            Exp3Bwk(params(), gamma_override=0.0)
        with pytest.raises(ValueError, match="gamma_override"):
            Exp3Bwk(params(), gamma_override=1.5)
        assert Exp3Bwk(params(), gamma_override=1.0).gamma == 1.0


class TestExp3BwkSelect:
    def test_uniform_at_start(self):
        for k in (2, 3, 7):
            pol = Exp3Bwk(params(n_arms=k))
            _, probs = pol.select(RngStream(1))
            assert probs == pytest.approx([1.0 / k] * k, abs=1e-15)

    def test_mixture_formula(self):
        pol = Exp3Bwk(params(n_arms=2), gamma_override=0.1)
        pol.log_weights = [math.log(3.0), math.log(1.0)]
        _, probs = pol.select(RngStream(1))
        assert probs == pytest.approx([0.725, 0.275], abs=1e-12)

    def test_floor_holds_even_when_skewed(self):
        pol = Exp3Bwk(params(n_arms=4), gamma_override=0.2)
        pol.log_weights = [50.0, 0.0, -30.0, 10.0]
        _, probs = pol.select(RngStream(1))
        for p in probs:
            assert p >= 0.2 / 4
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_terminated_select_is_error(self):
        pol = Exp3Bwk(params(budget=1.0))
        pol.update(0, [0.5, 0.5], Outcome(reward=1.0, cost=2.0))
        assert pol.terminated
        with pytest.raises(ValueError, match="episode over"):
            pol.select(RngStream(0))


class TestExp3BwkUpdate:
    def test_estimate_and_weight_increment(self):
        pol = Exp3Bwk(params(n_arms=2, cost_min=0.5), gamma_override=0.1)
        paid = pol.update(0, [0.5, 0.5], Outcome(reward=0.8, cost=0.4))
        assert paid
        # e_hat = 0.8 / (0.5 * 0.4) = 4.0, increment = 0.1 * 0.5 * 4 / 2
        assert pol.log_weights[0] == pytest.approx(0.1 * 0.5 * 4.0 / 2.0)
        assert pol.log_weights[1] == 0.0
        assert pol.t == 2
        assert pol.remaining_budget == pytest.approx(100.0 - 0.4)

    def test_unplayed_arms_unchanged(self):
        pol = Exp3Bwk(params(n_arms=3))
        _, probs = pol.select(RngStream(0))
        pol.update(1, probs, Outcome(reward=0.5, cost=0.9))
        assert pol.log_weights[0] == 0.0
        assert pol.log_weights[2] == 0.0

    def test_impossible_selection_rejected(self):
        pol = Exp3Bwk(params(n_arms=2))
        with pytest.raises(ValueError, match="impossible selection"):
            pol.update(0, [0.0, 1.0], Outcome(reward=0.5, cost=0.5))

    def test_abort_pays_nothing(self):
        pol = Exp3Bwk(params(budget=1.0))
        paid = pol.update(0, [0.5, 0.5], Outcome(reward=1.0, cost=1.5))
        assert not paid
        assert pol.terminated
        assert pol.aborted_pull == (0, Outcome(reward=1.0, cost=1.5))
        assert pol.remaining_budget == 1.0
        assert pol.log_weights == [0.0, 0.0]
        assert pol.t == 1

    def test_exponent_increment_bounded(self):
        # Derived bound: probs >= gamma/K and cost >= c_min force the
        # log-weight increment into [0, 1] on every random round.
        rng = np.random.default_rng(17)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            c_min = float(rng.uniform(0.05, 1.0))
            p = params(n_arms=k, budget=1e9, cost_min=c_min)
            pol = Exp3Bwk(p)
            stream = RngStream(int(rng.integers(1 << 30)))
            for _ in range(50):
                arm, probs = pol.select(stream)
                out = Outcome(
                    reward=float(rng.uniform(0, 1)),
                    cost=float(rng.uniform(c_min, 1.0)),
                )
                before = pol.log_weights[arm]
                pol.update(arm, probs, out)
                inc = pol.log_weights[arm] - before
                assert 0.0 <= inc <= 1.0 + 1e-12


class TestExp3PPInit:
    def test_beta_default(self):
        assert Exp3PPBwk(params(cost_min=0.5, budget=100.0)).beta == 1024.0
        assert Exp3PPBwk(params(cost_min=1.0, budget=100.0)).beta == 256.0

    def test_lambda_default_and_validation(self):
        assert Exp3PPBwk(params(cost_min=0.5)).lam == 0.5
        with pytest.raises(ValueError, match="lambda"):
            Exp3PPBwk(params(cost_min=0.5), lam=1.0)
        with pytest.raises(ValueError, match="lambda"):
            Exp3PPBwk(params(cost_min=0.5), lam=0.0)

    def test_alpha_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            Exp3PPBwk(params(), alpha=2.5)

    def test_budget_must_cover_sweep(self):
        with pytest.raises(ValueError, match="initialization sweep"):
            Exp3PPBwk(params(n_arms=5, budget=4.0, cost_max=1.0))


class TestExp3PPSweep:
    def test_sweep_order_and_stats(self):
        pol = Exp3PPBwk(params(n_arms=3, budget=30.0, cost_min=0.5))
        rng = RngStream(0)
        outs = [Outcome(0.9, 0.5), Outcome(0.1, 1.0), Outcome(0.4, 0.8)]
        for i in range(3):
            arm, probs = pol.select(rng)
            assert arm == i
            assert probs[i] == 1.0 and sum(probs) == 1.0
            with pytest.raises(ValueError, match="one pull of every arm"):
                pol.confidence_bounds()
            pol.update(arm, probs, outs[i])
        pol.confidence_bounds()  # the sweep is over
        assert pol.t == 4
        assert pol.pull_count == [1, 1, 1]
        assert pol.reward_sum == [0.9, 0.1, 0.4]
        assert pol.cost_sum == [0.5, 1.0, 0.8]
        assert pol.remaining_budget == pytest.approx(30.0 - 2.3)
        assert pol.cum_loss == [0.0, 0.0, 0.0]  # sweep is not importance weighted


def swept_policy(k=2, budget=5200.0, cost_min=0.5, outs=None, **kwargs):
    pol = Exp3PPBwk(params(n_arms=k, budget=budget, cost_min=cost_min), **kwargs)
    rng = RngStream(0)
    for i in range(k):
        arm, probs = pol.select(rng)
        pol.update(arm, probs, outs[i] if outs else Outcome(0.5, cost_min))
    return pol


class TestExp3PPConfidenceBounds:
    def test_clamps_when_radius_uninformative(self):
        pol = swept_policy(cost_min=0.5)
        # right after the sweep N=1, eta >= lambda, so bounds are vacuous
        ucb, lcb = pol.confidence_bounds()
        assert ucb == [2.0, 2.0]
        assert lcb == [0.0, 0.0]

    def test_requires_main_phase(self):
        pol = Exp3PPBwk(params(n_arms=2, budget=100.0))
        with pytest.raises(ValueError, match="every arm"):
            pol.confidence_bounds()

    def test_scripted_scalar_oracle(self):
        # Independent evaluation of the bound formulas for one arm state.
        pol = swept_policy(cost_min=0.5)
        pol.t = 1000
        pol.pull_count = [5000, 5000]
        pol.reward_sum = [2500.0, 1250.0]
        pol.cost_sum = [2500.0, 2500.0]  # mean efficiencies 1.0 and 0.5
        eta = math.sqrt((math.log(2) + 3 * math.log(1000)) / (2 * 5000))
        radius = (1 + 1 / 0.5) * eta / (0.5 - eta)
        ucb, lcb = pol.confidence_bounds()
        assert ucb[0] == pytest.approx(min(2.0, 1.0 + radius), rel=1e-12)
        assert lcb[0] == pytest.approx(max(0.0, 1.0 - radius), rel=1e-12)
        assert ucb[1] == pytest.approx(min(2.0, 0.5 + radius), rel=1e-12)
        assert lcb[1] == pytest.approx(max(0.0, 0.5 - radius), rel=1e-12)

    def test_bounds_ordered_and_in_range(self):
        rng = np.random.default_rng(23)
        pol = swept_policy(k=4, cost_min=0.25)
        stream = RngStream(5)
        for _ in range(300):
            arm, probs = pol.select(stream)
            out = Outcome(float(rng.uniform(0, 1)), float(rng.uniform(0.25, 1.0)))
            pol.update(arm, probs, out)
            ucb, lcb = pol.confidence_bounds()
            for u, l in zip(ucb, lcb):
                assert 0.0 <= l <= u <= 1.0 / 0.25


class TestGapEstimates:
    def test_identical_bounds_give_zero(self):
        assert gap_estimates([0.8, 0.8, 0.8], [0.3, 0.3, 0.3]) == [0.0, 0.0, 0.0]

    def test_hand_case(self):
        assert gap_estimates([1.0, 0.3], [0.9, 0.1]) == pytest.approx([0.0, 0.6])

    def test_single_arm(self):
        assert gap_estimates([1.0], [0.5]) == [0.0]

    def test_nonnegative_property(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            k = int(rng.integers(1, 7))
            lcb = rng.uniform(0, 1, size=k)
            ucb = lcb + rng.uniform(0, 1, size=k)
            est = gap_estimates(list(ucb), list(lcb))
            assert all(g >= 0.0 for g in est)
            # brute-force cross check
            for i in range(k):
                others = [lcb[j] for j in range(k) if j != i]
                expect = max(0.0, max(others) - ucb[i]) if others else 0.0
                assert est[i] == pytest.approx(expect, abs=1e-12)


class TestExp3PPSelect:
    def test_mixing_rate_value(self):
        assert loss_mixing_rate(1.0, 2, 100) == pytest.approx(
            0.5 * math.sqrt(math.log(2) / 200.0), rel=1e-12
        )
        assert loss_mixing_rate(1.0, 2, 100) == pytest.approx(0.02943, abs=2e-5)

    def test_single_arm_degenerate(self):
        pol = swept_policy(k=1, budget=100.0, cost_min=1.0)
        arm, probs = pol.select(RngStream(2))
        assert arm == 0
        assert probs == [1.0]

    def test_probs_sum_to_one_exactly_enough(self):
        rng = np.random.default_rng(29)
        pol = swept_policy(k=5, budget=1e6, cost_min=0.25)
        stream = RngStream(6)
        for _ in range(500):
            arm, probs = pol.select(stream)
            assert abs(math.fsum(probs) - 1.0) <= 1e-9
            assert all(p >= 0.0 for p in probs)
            out = Outcome(float(rng.uniform(0, 1)), float(rng.uniform(0.25, 1)))
            pol.update(arm, probs, out)

    def test_exploration_capped(self):
        pol = swept_policy(k=4, budget=1e6, cost_min=0.25)
        stream = RngStream(8)
        rng = np.random.default_rng(31)
        for _ in range(200):
            eps = pol.exploration_masses()
            assert all(e <= 1.0 / (2 * 4) + 1e-15 for e in eps)
            arm, probs = pol.select(stream)
            out = Outcome(float(rng.uniform(0, 1)), float(rng.uniform(0.25, 1)))
            pol.update(arm, probs, out)


class TestExp3PPUpdate:
    def test_zero_loss_on_max_efficiency_pull(self):
        pol = swept_policy(k=2, budget=100.0, cost_min=1.0)
        pol.update(0, [0.5, 0.5], Outcome(reward=1.0, cost=1.0))
        # e_hat = 1/(0.5*1) = 2, loss = 1/(1*0.5) - 2 = 0
        assert pol.cum_loss[0] == 0.0
        assert pol.cum_loss[1] == 0.0

    def test_unplayed_arm_untouched(self):
        pol = swept_policy(k=3, budget=100.0, cost_min=0.5)
        before = list(pol.cum_loss)
        pol.update(1, [0.2, 0.6, 0.2], Outcome(reward=0.0, cost=0.5))
        assert pol.cum_loss[0] == before[0]
        assert pol.cum_loss[2] == before[2]
        assert pol.cum_loss[1] > before[1]

    def test_running_means(self):
        pol = swept_policy(k=2, budget=100.0, cost_min=0.5, outs=[Outcome(0.4, 0.5), Outcome(0.2, 1.0)])
        pol.update(0, [0.5, 0.5], Outcome(reward=1.0, cost=0.7))
        assert pol.pull_count == [2, 1]
        assert pol.reward_sum[0] == pytest.approx(1.4)
        assert pol.cost_sum[0] == pytest.approx(1.2)

    def test_loss_nonnegative_property(self):
        # 1/(c_min p) - r/(p c) >= 0 whenever r <= 1 and c >= c_min.
        rng = np.random.default_rng(37)
        pol = swept_policy(k=3, budget=1e9, cost_min=0.3)
        stream = RngStream(9)
        for _ in range(500):
            arm, probs = pol.select(stream)
            before = pol.cum_loss[arm]
            out = Outcome(float(rng.uniform(0, 1)), float(rng.uniform(0.3, 1.0)))
            pol.update(arm, probs, out)
            assert pol.cum_loss[arm] - before >= -1e-12

    def test_terminates_on_unaffordable_cost(self):
        pol = swept_policy(
            k=2, budget=2.6, cost_min=0.5, outs=[Outcome(0.5, 1.0), Outcome(0.5, 1.0)]
        )
        assert pol.remaining_budget == pytest.approx(0.6)
        paid = pol.update(0, [0.5, 0.5], Outcome(reward=1.0, cost=0.7))
        assert not paid and pol.terminated
        assert pol.remaining_budget == pytest.approx(0.6)
        with pytest.raises(ValueError, match="episode over"):
            pol.update(0, [0.5, 0.5], Outcome(reward=0.0, cost=0.5))


class TestBaselines:
    def test_fixed_arm_selection(self):
        pol = FixedArmPolicy(params(n_arms=3), arm=2)
        arm, probs = pol.select(RngStream(0))
        assert arm == 2
        assert probs == [0.0, 0.0, 1.0]
        with pytest.raises(ValueError, match="out of range"):
            FixedArmPolicy(params(n_arms=3), arm=3)

    def test_uniform_probs(self):
        pol = UniformPolicy(params(n_arms=4))
        _, probs = pol.select(RngStream(1))
        assert probs == [0.25] * 4

    def test_budget_contract_shared(self):
        for pol in [FixedArmPolicy(params(budget=2.0), 0), UniformPolicy(params(budget=2.0))]:
            stream = RngStream(3)
            total = 0.0
            while not pol.terminated:
                arm, probs = pol.select(stream)
                if pol.update(arm, probs, Outcome(reward=0.3, cost=0.9)):
                    total += 0.9
            assert total <= 2.0
            assert pol.aborted_pull is not None

    def test_uniform_mean_reward_on_hidden_instance(self):
        # Linearity of expectation: one arm pays 0.5 + eps, the rest 0.5,
        # so uniform play earns 0.5 + eps/K per round on average.
        from bwklab.environments import hidden_best_arm_instance

        p = params(n_arms=4, budget=2000.0, cost_min=0.25)
        spec = hidden_best_arm_instance(p, RngStream(55))
        eps = math.sqrt(4 * 0.25 / 2000.0)
        pol = UniformPolicy(p)
        stream = RngStream(56)
        total, n = 0.0, 0
        while not pol.terminated and pol.remaining_budget > 0:
            arm, probs = pol.select(stream)
            out = spec.step(1, arm, stream)
            if pol.update(arm, probs, out):
                total += out.reward
                n += 1
        assert n == 8000  # every pull costs exactly 0.25
        assert total / n == pytest.approx(0.5 + eps / 4, abs=0.02)
