"""Budgeted bandit policies exposed as init/select/update state machines.

Every policy follows the same game contract: it observes the outcome of the
selected arm, and if the cost exceeds the remaining budget it terminates on
the spot, paying nothing and collecting nothing for that final pull.
"""
from __future__ import annotations

import math
from typing import Sequence

from .core import (
    ExactSum,
    InstanceParams,
    Outcome,
    RngStream,
    normalized_probs_from_log_weights,
)

_E = math.e


class BudgetedPolicy:
    """Shared budget ledger and termination bookkeeping."""

    def __init__(self, params: InstanceParams):
        self.params = params
        self.t = 1
        self.terminated = False
        self.aborted_pull: tuple[int, Outcome] | None = None
        self._spent = ExactSum()

    @property
    def remaining_budget(self) -> float:
        return self.params.budget - self._spent.value

    def select(self, rng: RngStream) -> tuple[int, list[float]]:
        raise NotImplementedError

    def update(self, arm: int, probs: Sequence[float], outcome: Outcome) -> bool:
        """Settle one pull. Returns True iff it was paid and state advanced.

        An unaffordable pull terminates the episode: the outcome was observed
        but the cost is not paid, so the budget constraint holds surely.
        """
        if self.terminated:
            raise ValueError("episode over")
        if probs[arm] <= 0.0:
            raise ValueError("impossible selection")
        if not self._spent.add_if_within(outcome.cost, self.params.budget):
            self.terminated = True
            self.aborted_pull = (arm, outcome)
            return False
        self._learn(arm, probs, outcome)
        self.t += 1
        return True

    def _learn(self, arm: int, probs: Sequence[float], outcome: Outcome) -> None:
        raise NotImplementedError


def exploration_gamma(params: InstanceParams) -> float:
    """Default mixing rate for the exponential-weights policy.

    sqrt(c_min * K * ln(K) / (B(e-1) + K(e-2))), clamped into [0, 1]. This is
    the denominator the regret derivation actually optimizes; it converges to
    the sqrt(c_min K ln K / (B(e-1))) form as B grows. K = 1 gives 0 and a
    degenerate single-arm distribution.
    """
    k, b = params.n_arms, params.budget
    raw = math.sqrt(
        params.cost_min * k * math.log(k) / (b * (_E - 1.0) + k * (_E - 2.0))
    )
    return min(1.0, raw)


class Exp3Bwk(BudgetedPolicy):
    """Exponential weights over importance-weighted efficiency estimates.

    Weights live in log domain: the raw multiplicative update would overflow
    over Theta(B) rounds since one estimate can reach K / (gamma * c_min^2).
    """

    def __init__(self, params: InstanceParams, gamma_override: float | None = None):
        super().__init__(params)
        if gamma_override is not None:
            if not 0.0 < gamma_override <= 1.0:
                raise ValueError("gamma_override must lie in (0, 1]")
            self.gamma = gamma_override
        else:
            self.gamma = exploration_gamma(params)
        self.log_weights = [0.0] * params.n_arms

    def select(self, rng: RngStream) -> tuple[int, list[float]]:
        if self.terminated:
            raise ValueError("episode over")
        k = self.params.n_arms
        g = self.gamma
        base = normalized_probs_from_log_weights(self.log_weights)
        floor = g / k
        probs = [(1.0 - g) * p + floor for p in base]
        return rng.index(probs), probs

    def _learn(self, arm: int, probs: Sequence[float], outcome: Outcome) -> None:
        # Only the pulled arm gets a nonzero estimate; the exponent increment
        # gamma * c_min * e_hat / K stays in [0, 1] because probs >= gamma/K.
        e_hat = outcome.reward / (probs[arm] * outcome.cost)
        self.log_weights[arm] += (
            self.gamma * self.params.cost_min * e_hat / self.params.n_arms
        )


def loss_mixing_rate(cost_min: float, n_arms: int, t: int) -> float:
    """Round-t learning rate for the adaptive policy: 0.5*c_min*sqrt(ln K / tK)."""
    return 0.5 * cost_min * math.sqrt(math.log(n_arms) / (t * n_arms))


def gap_estimates(ucb: Sequence[float], lcb: Sequence[float]) -> list[float]:
    """Optimistic efficiency gaps: max(0, max_{j != i} lcb_j - ucb_i)."""
    k = len(ucb)
    if k != len(lcb):
        raise ValueError("ucb and lcb must have equal length")
    if k == 1:
        return [0.0]
    best = second = -math.inf
    best_i = -1
    for i, v in enumerate(lcb):
        if v > best:
            second = best
            best, best_i = v, i
        elif v > second:
            second = v
    return [
        max(0.0, (second if i == best_i else best) - ucb[i]) for i in range(k)
    ]


class Exp3PPBwk(BudgetedPolicy):
    """Exponential weights with gap-adaptive per-arm exploration.

    Rounds 1 to K pull every arm once, in order, to seed empirical efficiency
    means; the round counter ``t`` alone marks the sweep. Later rounds mix a softmax over cumulative importance-weighted losses with
    per-arm exploration masses that shrink as estimated gaps separate.
    """

    def __init__(
        self,
        params: InstanceParams,
        alpha: float = 3.0,
        beta: float | None = None,
        lam: float | None = None,
    ):
        super().__init__(params)
        if params.budget < params.n_arms * params.cost_max:
            raise ValueError("budget cannot cover initialization sweep")
        if alpha < 3.0:
            raise ValueError("alpha must be at least 3")
        self.alpha = alpha
        self.beta = 256.0 / params.cost_min**2 if beta is None else beta
        if self.beta <= 0.0:
            raise ValueError("beta must be positive")
        self.lam = params.cost_min if lam is None else lam
        if not 0.0 < self.lam <= params.cost_min:
            raise ValueError("lambda must lie in (0, cost_min]")
        k = params.n_arms
        self.cum_loss = [0.0] * k
        self.pull_count = [0] * k
        self.reward_sum = [0.0] * k
        self.cost_sum = [0.0] * k
        self._log_k = math.log(k)

    def confidence_bounds(self) -> tuple[list[float], list[float]]:
        """Per-arm efficiency bounds from empirical means and pull counts.

        The radius (1 + 1/lambda) * eta / (lambda - eta) blows up as eta
        approaches lambda; at eta >= lambda the bound carries no information,
        so the clamps produce the vacuous pair (1/c_min, 0).
        """
        if self.t <= self.params.n_arms:
            raise ValueError("confidence bounds need one pull of every arm")
        c_min = self.params.cost_min
        lam = self.lam
        # alpha * ln(K^(1/alpha) * t) simplifies to ln K + alpha * ln t.
        log_term = self._log_k + self.alpha * math.log(self.t)
        ucb = []
        lcb = []
        for i in range(self.params.n_arms):
            eta = math.sqrt(log_term / (2.0 * self.pull_count[i]))
            if eta >= lam:
                ucb.append(1.0 / c_min)
                lcb.append(0.0)
                continue
            mean_eff = self.reward_sum[i] / self.cost_sum[i]
            radius = (1.0 + 1.0 / lam) * eta / (lam - eta)
            ucb.append(min(1.0 / c_min, mean_eff + radius))
            lcb.append(max(0.0, mean_eff - radius))
        return ucb, lcb

    def exploration_masses(self) -> list[float]:
        """Per-arm exploration, capped at 1/2K and the sqrt(ln K / t) decay.

        A zero gap estimate leaves the gap term infinite so unresolved arms
        keep the full cap.
        """
        t = self.t
        k = self.params.n_arms
        ucb, lcb = self.confidence_bounds()
        gaps = gap_estimates(ucb, lcb)
        cap = min(0.5 / k, 0.5 * math.sqrt(self._log_k / t))
        beta_log_t = self.beta * math.log(t)
        out = []
        for g in gaps:
            if g > 0.0:
                out.append(min(cap, beta_log_t / (t * g * g)))
            else:
                out.append(cap)
        return out

    def select(self, rng: RngStream) -> tuple[int, list[float]]:
        if self.terminated:
            raise ValueError("episode over")
        k = self.params.n_arms
        if self.t <= k:  # the opening sweep pulls arm t - 1 at round t
            arm = self.t - 1
            probs = [0.0] * k
            probs[arm] = 1.0
            return arm, probs
        eps = self.exploration_masses()
        rate = loss_mixing_rate(self.params.cost_min, k, self.t)
        base = normalized_probs_from_log_weights([-rate * l for l in self.cum_loss])
        # Mix over all arms so the result is an exact simplex point; the
        # exploration masses sum to at most 1/2 by the 1/2K cap.
        slack = 1.0 - sum(eps)
        probs = [slack * p + e for p, e in zip(base, eps)]
        return rng.index(probs), probs

    def _learn(self, arm: int, probs: Sequence[float], outcome: Outcome) -> None:
        self.pull_count[arm] += 1
        self.reward_sum[arm] += outcome.reward
        self.cost_sum[arm] += outcome.cost
        if self.t <= self.params.n_arms:
            return
        p = probs[arm]
        e_hat = outcome.reward / (p * outcome.cost)
        self.cum_loss[arm] += 1.0 / (self.params.cost_min * p) - e_hat


class FixedArmPolicy(BudgetedPolicy):
    """Plays one arm every round, under the same budget contract."""

    def __init__(self, params: InstanceParams, arm: int):
        super().__init__(params)
        if not 0 <= arm < params.n_arms:
            raise ValueError(f"arm {arm} out of range")
        self.arm = arm
        self._probs = [0.0] * params.n_arms
        self._probs[arm] = 1.0

    def select(self, rng: RngStream) -> tuple[int, list[float]]:
        if self.terminated:
            raise ValueError("episode over")
        del rng
        return self.arm, list(self._probs)

    def _learn(self, arm: int, probs: Sequence[float], outcome: Outcome) -> None:
        pass


class UniformPolicy(BudgetedPolicy):
    """Samples arms uniformly at random; a no-learning control."""

    def __init__(self, params: InstanceParams):
        super().__init__(params)
        self._probs = [1.0 / params.n_arms] * params.n_arms

    def select(self, rng: RngStream) -> tuple[int, list[float]]:
        if self.terminated:
            raise ValueError("episode over")
        return rng.index(self._probs), list(self._probs)

    def _learn(self, arm: int, probs: Sequence[float], outcome: Outcome) -> None:
        pass
