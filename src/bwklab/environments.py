"""Bandit environments: i.i.d. stochastic arms, fixed reward/cost matrices,
and the two lower-bound constructions used by the benchmark suite.

Specs are immutable after construction (oblivious adversaries); stochastic
sampling mutates only the caller-owned RngStream.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import InstanceParams, Outcome, RngStream

MATRIX_CSV_HEADER = ["t", "arm", "reward", "cost"]


# ---------------------------------------------------------------------------
# Distribution families (closed-form means, bounded support)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PointMass:
    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError("point mass value must be finite")

    @property
    def mean(self) -> float:
        return self.value

    @property
    def support(self) -> tuple[float, float]:
        return (self.value, self.value)

    def sample(self, rng: RngStream) -> float:
        return self.value


@dataclass(frozen=True, slots=True)
class UniformOn:
    low: float
    high: float

    def __post_init__(self) -> None:
        if not -math.inf < self.low <= self.high < math.inf:
            raise ValueError("uniform interval must be finite and nonempty")

    @property
    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    @property
    def support(self) -> tuple[float, float]:
        return (self.low, self.high)

    def sample(self, rng: RngStream) -> float:
        return self.low + rng.uniform() * (self.high - self.low)


@dataclass(frozen=True, slots=True)
class ScaledBernoulli:
    """Two-point distribution: ``hi`` with probability p, else ``lo``."""

    p: float
    hi: float = 1.0
    lo: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if not -math.inf < self.lo <= self.hi < math.inf:
            raise ValueError("need finite lo <= hi")

    @property
    def mean(self) -> float:
        return self.lo + self.p * (self.hi - self.lo)

    @property
    def support(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    def sample(self, rng: RngStream) -> float:
        return self.hi if rng.uniform() < self.p else self.lo


Distribution = Union[PointMass, UniformOn, ScaledBernoulli]


# ---------------------------------------------------------------------------
# Environment specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StochasticEnvSpec:
    """I.i.d. environment: per-arm reward and cost distributions.

    ``optimal_arm`` is an optional note left by instance generators that draw
    the best arm at random; true gaps are always recomputable from the means.
    """

    params: InstanceParams
    reward_dists: tuple[Distribution, ...]
    cost_dists: tuple[Distribution, ...]
    optimal_arm: int | None = None

    def __post_init__(self) -> None:
        k = self.params.n_arms
        if len(self.reward_dists) != k or len(self.cost_dists) != k:
            raise ValueError("need one reward and one cost distribution per arm")
        for d in self.reward_dists:
            lo, hi = d.support
            if not 0.0 <= lo <= hi <= 1.0:
                raise ValueError("reward support must lie inside [0, 1]")
        for d in self.cost_dists:
            lo, hi = d.support
            if not self.params.cost_min <= lo <= hi <= self.params.cost_max:
                raise ValueError("cost support must lie inside [cost_min, cost_max]")

    def step(self, t: int, arm: int, rng: RngStream) -> Outcome:
        """One independent (reward, cost) draw for ``arm``; i.i.d. draws do
        not depend on the round ``t``.

        Consumes the rng stream deterministically: reward draw first, then cost.
        """
        if not 0 <= arm < self.params.n_arms:
            raise ValueError(f"arm {arm} out of range")
        reward = self.reward_dists[arm].sample(rng)
        return Outcome(reward, self.cost_dists[arm].sample(rng))


@dataclass(frozen=True)
class AdversarialMatrixSpec:
    """Oblivious adversary: rewards and costs fixed before play, per (t, arm).

    Row t-1 of each matrix holds round t. The horizon must cover every
    feasible playout: T_max >= ceil(B / c_min). Both matrices are read-only;
    a copy or an unpickled spec is rebuilt through the constructor, so it is
    validated and read-only too.
    """

    params: InstanceParams
    rewards: np.ndarray
    costs: np.ndarray

    def __post_init__(self) -> None:
        rewards = np.asarray(self.rewards, dtype=np.float64)
        costs = np.asarray(self.costs, dtype=np.float64)
        k = self.params.n_arms
        if rewards.ndim != 2 or rewards.shape[1] != k or rewards.shape != costs.shape:
            raise ValueError("reward/cost matrices must both be (T_max, n_arms)")
        t_needed = math.ceil(self.params.budget / self.params.cost_min)
        if rewards.shape[0] < t_needed:
            raise ValueError(
                f"horizon too short: {rewards.shape[0]} rows < ceil(B/c_min) = {t_needed}"
            )
        # min and max propagate NaN, so their finiteness covers every entry
        r_lo, r_hi, c_lo, c_hi = rewards.min(), rewards.max(), costs.min(), costs.max()
        if not np.isfinite([r_lo, r_hi, c_lo, c_hi]).all():
            raise ValueError("matrix rewards and costs must be finite")
        if not 0.0 <= r_lo <= r_hi <= 1.0:
            raise ValueError("matrix rewards must lie inside [0, 1]")
        if not self.params.cost_min <= c_lo <= c_hi <= self.params.cost_max:
            raise ValueError("matrix costs must lie inside [cost_min, cost_max]")
        rewards.setflags(write=False)
        costs.setflags(write=False)
        object.__setattr__(self, "rewards", rewards)
        object.__setattr__(self, "costs", costs)

    def __reduce__(self):
        return type(self), (self.params, self.rewards, self.costs)

    @property
    def t_max(self) -> int:
        return self.rewards.shape[0]

    def step(self, t: int, arm: int, rng: RngStream | None = None) -> Outcome:
        """Pure lookup of the pre-committed outcome for round ``t`` (1-based);
        ``rng`` is not drawn from."""
        if not 1 <= t <= self.t_max:
            raise ValueError(f"round {t} out of range [1, {self.t_max}]")
        if not 0 <= arm < self.params.n_arms:
            raise ValueError(f"arm {arm} out of range")
        # Positional: a keyword call to the frozen dataclass costs ~200 ns more.
        return Outcome(self.rewards.item(t - 1, arm), self.costs.item(t - 1, arm))


def true_efficiency(spec: StochasticEnvSpec, arm: int) -> float:
    """Mean reward per unit mean cost for one arm, in closed form."""
    if not 0 <= arm < spec.params.n_arms:
        raise ValueError(f"arm {arm} out of range")
    return spec.reward_dists[arm].mean / spec.cost_dists[arm].mean


# ---------------------------------------------------------------------------
# Lower-bound constructions
# ---------------------------------------------------------------------------


def hidden_best_arm_instance(params: InstanceParams, rng: RngStream) -> StochasticEnvSpec:
    """Stochastic instance with one randomly hidden, slightly better arm.

    A uniformly drawn arm pays Bernoulli rewards with mean 0.5 + eps where
    eps = sqrt(K * c_min / B); every other arm has mean 0.5, and every cost
    is a point mass at c_min. The drawn arm is recorded on the spec.
    """
    if params.cost_max != 1.0:
        raise ValueError("construction requires cost_max = 1")
    eps = math.sqrt(params.n_arms * params.cost_min / params.budget)
    if 0.5 + eps > 1.0:
        raise ValueError("budget too small for hidden-best-arm construction")
    star = rng.integer(params.n_arms)
    rewards = tuple(
        ScaledBernoulli(p=0.5 + eps if i == star else 0.5)
        for i in range(params.n_arms)
    )
    costs = tuple(PointMass(params.cost_min) for _ in range(params.n_arms))
    return StochasticEnvSpec(
        params=params, reward_dists=rewards, cost_dists=costs, optimal_arm=star
    )


def big_cost_trap_matrix(
    alpha: float,
    budget: float,
    optimal_arm: int | None = None,
    rng: RngStream | None = None,
) -> AdversarialMatrixSpec:
    """Two-arm matrix where one round's cost can swallow the whole reserve.

    Both arms pay reward 0 at cost 1 up to round t* = floor(B - B^alpha).
    From t*+1 on, the designated arm pays reward 1 at cost 1; the other arm
    charges B^alpha for nothing at round t*+1 and then also pays 1 per 1.
    The designated arm is caller-chosen or drawn from ``rng``.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    big = budget**alpha
    if big < 1.0:
        raise ValueError("need budget**alpha >= 1")
    if optimal_arm is None:
        if rng is None:
            raise ValueError("pass optimal_arm or an rng to draw it")
        optimal_arm = rng.integer(2)
    if optimal_arm not in (0, 1):
        raise ValueError("optimal_arm must be 0 or 1")
    # Flooring only shortens the zero-reward prefix, keeping the final
    # reward phase affordable for the designated arm.
    t_star = math.floor(budget - big)
    t_max = math.ceil(budget)
    rewards = np.zeros((t_max, 2))
    costs = np.ones((t_max, 2))
    other = 1 - optimal_arm
    rewards[t_star:, optimal_arm] = 1.0
    costs[t_star, other] = big
    rewards[t_star + 1 :, other] = 1.0
    params = InstanceParams(n_arms=2, budget=budget, cost_min=1.0, cost_max=big)
    return AdversarialMatrixSpec(params=params, rewards=rewards, costs=costs)


def random_matrix_spec(
    params: InstanceParams,
    rng: RngStream,
    cost_jitter: float | None = None,
    reward_noise: float = 0.15,
    level_span: tuple[float, float] = (0.15, 0.85),
) -> AdversarialMatrixSpec:
    """Seeded random matrix family with learnable per-arm reward levels.

    Each arm gets a base reward level spread over ``level_span`` (assignment
    shuffled by ``rng``) plus per-round noise, clipped to [0, 1]. Costs are
    independent U[c_min, c_max] per (t, arm) when ``cost_jitter`` is None;
    otherwise every arm shares a per-round base cost, offset by at most
    ``cost_jitter``, which keeps all fixed-arm time scales aligned.
    """
    k = params.n_arms
    t_max = math.ceil(params.budget / params.cost_min)
    if not 0.0 <= level_span[0] <= level_span[1] <= 1.0:
        raise ValueError("level_span must be an interval inside [0, 1]")
    if k == 1:
        levels = np.array([0.5 * (level_span[0] + level_span[1])])
    else:
        levels = np.linspace(level_span[0], level_span[1], k)
    order = np.argsort(rng.uniforms(k), kind="stable")
    levels = levels[order]

    # The largest arrays of a run, so built in place: each step is one IEEE
    # operation of the whole-array formula, its operands commuted at most.
    rewards = rng.uniforms(t_max * k).reshape(t_max, k)
    rewards -= 0.5
    rewards *= 2.0 * reward_noise
    rewards += levels
    np.clip(rewards, 0.0, 1.0, out=rewards)

    lo, hi = params.cost_min, params.cost_max
    if cost_jitter is None:
        costs = rng.uniforms(t_max * k).reshape(t_max, k)
        costs *= hi - lo
        costs += lo
    else:
        j = cost_jitter
        if j < 0 or lo + 2 * j > hi:
            raise ValueError("cost_jitter too large for the cost interval")
        base = lo + j + rng.uniforms(t_max) * (hi - lo - 2 * j)
        costs = rng.uniforms(t_max * k).reshape(t_max, k)
        costs -= 0.5
        costs *= 2.0 * j
        costs += base[:, None]
    return AdversarialMatrixSpec(params=params, rewards=rewards, costs=costs)


# ---------------------------------------------------------------------------
# Matrix file format
# ---------------------------------------------------------------------------


def save_matrix_csv(spec: AdversarialMatrixSpec, path: str) -> None:
    """Write the matrix as "t,arm,reward,cost" rows in round-major order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MATRIX_CSV_HEADER)
        for t in range(spec.t_max):
            for arm in range(spec.params.n_arms):
                writer.writerow(
                    [t + 1, arm, repr(float(spec.rewards[t, arm])), repr(float(spec.costs[t, arm]))]
                )


def load_matrix_csv(
    path: str,
    budget: float,
    cost_min: float | None = None,
    cost_max: float | None = None,
) -> AdversarialMatrixSpec:
    """Parse a matrix file back into a spec.

    Cost bounds default to the tightest interval covering the data. Parse
    errors and non-finite cells report the offending line number.
    """
    cells: dict[tuple[int, int], tuple[float, float]] = {}
    max_t = 0
    max_arm = -1
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != MATRIX_CSV_HEADER:
            raise ValueError(f"{path}: line 1: expected header 't,arm,reward,cost'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise ValueError(f"{path}: line {lineno}: expected 4 fields, got {len(row)}")
            try:
                t = int(row[0])
                arm = int(row[1])
                reward = float(row[2])
                cost = float(row[3])
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            if not (math.isfinite(reward) and math.isfinite(cost)):
                raise ValueError(f"{path}: line {lineno}: reward and cost must be finite")
            if t < 1 or arm < 0:
                raise ValueError(f"{path}: line {lineno}: t must be >= 1 and arm >= 0")
            if (t, arm) in cells:
                raise ValueError(f"{path}: line {lineno}: duplicate (t={t}, arm={arm})")
            cells[(t, arm)] = (reward, cost)
            max_t = max(max_t, t)
            max_arm = max(max_arm, arm)
    if not cells:
        raise ValueError(f"{path}: no matrix rows")
    n_arms = max_arm + 1
    if len(cells) != max_t * n_arms:
        raise ValueError(f"{path}: missing (t, arm) pairs; need a full {max_t}x{n_arms} grid")
    rewards = np.empty((max_t, n_arms))
    costs = np.empty((max_t, n_arms))
    for (t, arm), (reward, cost) in cells.items():
        rewards[t - 1, arm] = reward
        costs[t - 1, arm] = cost
    if cost_min is None:
        cost_min = float(costs.min())
    if cost_max is None:
        cost_max = float(costs.max())
    params = InstanceParams(
        n_arms=n_arms, budget=budget, cost_min=cost_min, cost_max=cost_max
    )
    return AdversarialMatrixSpec(params=params, rewards=rewards, costs=costs)
