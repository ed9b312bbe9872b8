"""Hindsight oracles and regret computation.

All functions are pure over immutable inputs. The greedy knapsack gain and
its exhaustive brute-force counterpart form a dual-route pair: tests check
the sandwich G_greedy <= G_opt <= G_greedy + max efficiency between them.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .core import RunTrace
from .environments import AdversarialMatrixSpec, StochasticEnvSpec, true_efficiency


class RegretMode(Enum):
    STOCHASTIC = "stochastic"
    ADVERSARIAL = "adversarial"


# The regret figure each regime is scored by.
PRIMARY_FIGURE = {
    RegretMode.STOCHASTIC: "pseudo_regret",
    RegretMode.ADVERSARIAL: "reward_sum_regret",
}


@dataclass(frozen=True)
class HindsightReport:
    """Fixed-arm playouts of a matrix: feasible rounds and cumulative sums.

    ``best_efficiency_arm`` maximizes the summed per-round reward/cost ratio,
    the comparator the efficiency-regret diagnostic is defined against;
    ``best_reward_arm`` maximizes plain reward. Ties break to lowest index.
    """

    feasible_rounds: tuple[int, ...]
    reward_sums: tuple[float, ...]
    efficiency_sums: tuple[float, ...]
    best_reward_arm: int
    best_efficiency_arm: int


@dataclass(frozen=True)
class RegretReport:
    """Regret figures for one episode.

    Each regime is scored by its own notion (``PRIMARY_FIGURE``):
    pseudo-regret in stochastic mode, hindsight reward-sum regret against
    the best fixed arm in adversarial mode. The figure for ``mode`` must be
    present; the others are optional diagnostics.
    """

    mode: RegretMode
    pseudo_regret: float | None = None
    reward_sum_regret: float | None = None
    efficiency_regret: float | None = None
    z_value: float | None = None

    def __post_init__(self) -> None:
        if self.primary_regret is None:
            raise ValueError(f"{self.mode.value} report needs its {PRIMARY_FIGURE[self.mode]}")

    @property
    def primary_regret(self) -> float:
        """The scalar an experiment averages: the figure for ``mode``."""
        return getattr(self, PRIMARY_FIGURE[self.mode])


@dataclass(frozen=True)
class RegretSummary:
    """Mean and standard error of the primary regret over episodes."""

    n_episodes: int
    mean_regret: float
    stderr_regret: float


def _argmax_lowest(values: Sequence[float]) -> int:
    best = 0
    for i in range(1, len(values)):
        if values[i] > values[best]:
            best = i
    return best


def hindsight_fixed_arms(spec: AdversarialMatrixSpec) -> HindsightReport:
    """Play every fixed arm against the matrix until its next pull is
    unaffordable, with the same exact budget arithmetic the policies use.

    Arm ``a`` plays the largest ``t`` rows with ``fsum(costs[:t, a]) <= B``.
    Costs are positive, so the exact prefix sum strictly increases and its
    correct rounding never decreases: stepping from a float-cumsum guess
    while ``fsum`` says so settles on that ``t`` however good the guess.
    Every sum is ``math.fsum`` over a strided view of one column, so no
    matrix-sized temporary is made.
    """
    budget = spec.params.budget
    t_max = spec.t_max
    feasible: list[int] = []
    reward_sums: list[float] = []
    efficiency_sums: list[float] = []
    for arm in range(spec.params.n_arms):
        col = spec.costs[:, arm]
        costs = memoryview(col)
        t = int(np.searchsorted(np.cumsum(col), budget, side="right"))
        while t > 0 and math.fsum(costs[:t]) > budget:
            t -= 1
        while t < t_max and math.fsum(costs[: t + 1]) <= budget:
            t += 1
        if t == t_max and budget - math.fsum(costs) >= spec.params.cost_min:
            raise ValueError(
                f"horizon too short: arm {arm} can still afford pulls after row {t_max}"
            )
        rewards = memoryview(spec.rewards[:t, arm])
        feasible.append(t)
        reward_sums.append(math.fsum(rewards))
        efficiency_sums.append(math.fsum(map(operator.truediv, rewards, costs[:t])))
    return HindsightReport(
        feasible_rounds=tuple(feasible),
        reward_sums=tuple(reward_sums),
        efficiency_sums=tuple(efficiency_sums),
        best_reward_arm=_argmax_lowest(reward_sums),
        best_efficiency_arm=_argmax_lowest(efficiency_sums),
    )


def _check_knapsack(means: Sequence[tuple[float, float]], budget: float) -> None:
    """Reject what would make a knapsack oracle loop forever or divide by 0."""
    if not 0 < budget < math.inf:
        raise ValueError(f"budget must be finite and positive, got {budget}")
    for i, (mu, rho) in enumerate(means):
        if not (math.isfinite(mu) and 0 < rho < math.inf):
            raise ValueError(
                f"arm {i}: need a finite mean reward and a finite positive mean cost, "
                f"got ({mu}, {rho})"
            )


def greedy_oracle_gain(means: Sequence[tuple[float, float]], budget: float) -> float:
    """Expected gain of the greedy knapsack heuristic.

    Pulls arms in decreasing mean-efficiency order (lowest index on ties),
    each as long as its mean cost still fits the remaining budget, then falls
    through to the next arm in the order. A pull fits while the correctly
    rounded total paid stays within ``budget``, as in the policy ledger.

    Each arm's count comes from one exact division, so the time does not
    grow with budget / cost. The total is kept exactly as a ``Fraction``,
    whose ``float`` rounds correctly as ``fsum`` does; the rounded total
    never decreases in the count, so stepping the count down, then up,
    while the rounded total says so settles it exactly.
    """
    # Imported here, not at module level: it pulls in decimal, which no
    # `bwklab run` needs, and would add about 3 ms to every start-up.
    from fractions import Fraction

    _check_knapsack(means, budget)
    order = sorted(
        range(len(means)), key=lambda i: (-(means[i][0] / means[i][1]), i)
    )
    # Totals up to half an ulp above the budget still round to it, so the
    # division starts at most one step from the settled count.
    limit = Fraction(budget) + Fraction(math.ulp(budget)) / 2
    spent = Fraction(0)
    counts = [0] * len(means)
    for i in order:
        cost = Fraction(means[i][1])
        n = max(0, math.floor((limit - spent) / cost))
        while n > 0 and float(spent + n * cost) > budget:
            n -= 1
        while float(spent + (n + 1) * cost) <= budget:
            n += 1
        counts[i] = n
        spent += n * cost
    try:
        gain = math.fsum(n * means[i][0] for i, n in enumerate(counts))
    except (OverflowError, ValueError):  # a count beyond float range, or inf - inf
        gain = math.inf
    if not math.isfinite(gain):
        raise ValueError("greedy gain or a pull count leaves the float range")
    return gain


def brute_force_optimal_gain(
    means: Sequence[tuple[float, float]], budget: float, pull_cap: int
) -> float:
    """Exact optimum over all pull multisets, by exhaustive enumeration.

    ``pull_cap`` bounds the total number of pulls considered; pass at least
    ceil(budget / min cost) to get the unrestricted optimum. Only viable for
    tiny instances; refuses anything past ~1e6 enumeration states.
    """
    _check_knapsack(means, budget)
    per_arm_max = [min(pull_cap, int(budget / cost) + 1) for _, cost in means]
    states = 1.0
    for m in per_arm_max:
        states *= m + 1
        if states > 1e6:
            raise ValueError("instance too big for oracle")

    best = 0.0
    k = len(means)

    def explore(arm: int, gains: list[float], costs: list[float], pulls: int) -> None:
        nonlocal best
        if arm == k:
            best = max(best, math.fsum(gains))
            return
        mu, rho = means[arm]
        for n in range(per_arm_max[arm] + 1):
            if pulls + n > pull_cap:
                break
            costs.append(n * rho)
            feasible = math.fsum(costs) <= budget
            if feasible:
                gains.append(n * mu)
                explore(arm + 1, gains, costs, pulls + n)
                gains.pop()
            costs.pop()
            if not feasible:
                break

    explore(0, [], [], 0)
    return best


def stochastic_pseudo_regret(trace: RunTrace, spec: StochasticEnvSpec) -> float:
    """Sum over arms of (best efficiency - arm efficiency) * pulls."""
    k = spec.params.n_arms
    effs = [true_efficiency(spec, i) for i in range(k)]
    best = effs[_argmax_lowest(effs)]
    counts = trace.pull_counts(k)
    return math.fsum((best - effs[i]) * counts[i] for i in range(k))


def adversarial_regret(trace: RunTrace, spec: AdversarialMatrixSpec) -> RegretReport:
    """Hindsight regret figures for one episode against a fixed matrix.

    The primary metric is the best fixed arm's reward sum minus the achieved
    reward, reported unclipped (lucky runs go negative). The efficiency form
    scaled by the max per-round cost z is kept as a diagnostic.
    """
    if trace.tau == 0:
        raise ValueError("empty trace")
    report = hindsight_fixed_arms(spec)
    reward_regret = report.reward_sums[report.best_reward_arm] - trace.total_reward
    star = report.best_efficiency_arm
    z = max(
        spec.params.budget / report.feasible_rounds[star],
        trace.total_cost / trace.tau,
    )
    eff_regret = z * (report.efficiency_sums[star] - trace.efficiency_total())
    return RegretReport(
        mode=RegretMode.ADVERSARIAL,
        reward_sum_regret=reward_regret,
        efficiency_regret=eff_regret,
        z_value=z,
    )


def stochastic_regret_report(trace: RunTrace, spec: StochasticEnvSpec) -> RegretReport:
    return RegretReport(
        mode=RegretMode.STOCHASTIC,
        pseudo_regret=stochastic_pseudo_regret(trace, spec),
    )


def aggregate_regret(reports: Sequence[RegretReport]) -> RegretSummary:
    """Mean and standard error of the primary regret over episodes."""
    if not reports:
        raise ValueError("no reports to aggregate")
    mode = reports[0].mode
    if any(r.mode is not mode for r in reports):
        raise ValueError("cannot aggregate mixed-mode reports")
    values = [r.primary_regret for r in reports]
    n = len(values)
    mean = math.fsum(values) / n
    if n == 1:
        stderr = 0.0
    else:
        var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
        stderr = math.sqrt(var / n)
    return RegretSummary(n_episodes=n, mean_regret=mean, stderr_regret=stderr)
