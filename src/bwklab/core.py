"""Shared domain types and numerically safe primitives.

Everything here is either an immutable value type or single-owner mutable
state, so episodes can run on parallel workers without shared mutation.
"""
from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

_MASK64 = (1 << 64) - 1


class TerminationReason(Enum):
    BUDGET_EXHAUSTED = "budget_exhausted"
    HORIZON_CAP = "horizon_cap"


@dataclass(frozen=True, slots=True)
class Outcome:
    """One pull's feedback: a reward in [0, 1] and a cost in [c_min, c_max]."""

    reward: float
    cost: float


@dataclass(frozen=True)
class InstanceParams:
    """Static description of a bandit instance: arm count, budget, cost bounds.

    ``cost_min`` is a known input to the algorithms (it appears inside their
    update rules), so it must genuinely lower-bound every cost the
    environment can emit.
    """

    n_arms: int
    budget: float
    cost_min: float
    cost_max: float = 1.0

    def __post_init__(self) -> None:
        if self.n_arms < 1:
            raise ValueError("n_arms must be at least 1")
        if not 0 < self.budget < math.inf:
            raise ValueError("budget must be positive and finite")
        if not 0 < self.cost_min <= self.cost_max < math.inf:
            raise ValueError("need 0 < cost_min <= cost_max < inf")

    def horizon_cap(self) -> int:
        """Hard cap on rounds per episode.

        No feasible playout exceeds ceil(B / c_min) rounds; the +1 slack lets
        the cap fire only if an environment is buggy (e.g. returns cost 0).
        """
        return math.ceil(self.budget / self.cost_min) + 1


@dataclass(frozen=True, slots=True)
class RoundRecord:
    """One completed round: selection probabilities, outcome, budget left."""

    t: int
    arm: int
    probs: tuple[float, ...]
    outcome: Outcome
    budget_after: float


class RoundColumns:
    """The paid rounds of one episode, one typed array per RoundRecord field.

    A round costs five array slots plus one per arm, against an object per
    round for records. Probability vectors are stored flat, ``width`` values
    per round, so round ``i``'s vector is ``probs[i * width : (i + 1) * width]``.
    """

    __slots__ = ("t", "arm", "reward", "cost", "budget_after", "probs")

    def __init__(self) -> None:
        self.t = array("l")
        self.arm = array("l")
        self.reward = array("d")
        self.cost = array("d")
        self.budget_after = array("d")
        self.probs = array("d")

    def append(
        self,
        t: int,
        arm: int,
        probs: Iterable[float],
        reward: float,
        cost: float,
        budget_after: float,
    ) -> None:
        self.t.append(t)
        self.arm.append(arm)
        self.probs.extend(probs)
        self.reward.append(reward)
        self.cost.append(cost)
        self.budget_after.append(budget_after)

    def __len__(self) -> int:
        return len(self.t)

    @property
    def width(self) -> int:
        """Probabilities per round (the arm count); 0 with no rounds."""
        return len(self.probs) // len(self.t) if self.t else 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoundColumns):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def __repr__(self) -> str:
        return f"RoundColumns(<{len(self)} rounds>)"


@dataclass(frozen=True)
class RunTrace:
    """Complete record of one episode, the unit of evaluation.

    ``aborted_pull`` holds a final pull whose cost exceeded the remaining
    budget: its outcome was observed but neither reward was collected nor
    cost paid, so ``total_cost <= budget`` holds with probability 1.
    The totals and ``tau`` are derived from ``columns``.
    """

    budget: float
    columns: RoundColumns
    terminated_by: TerminationReason
    aborted_pull: tuple[int, Outcome] | None = None
    total_reward: float = field(init=False)
    total_cost: float = field(init=False)
    tau: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "total_reward", math.fsum(self.columns.reward))
        object.__setattr__(self, "total_cost", math.fsum(self.columns.cost))
        object.__setattr__(self, "tau", len(self.columns))

    @classmethod
    def build(
        cls,
        budget: float,
        rounds: Iterable[RoundRecord],
        terminated_by: TerminationReason,
        aborted_pull: tuple[int, Outcome] | None = None,
    ) -> "RunTrace":
        cols = RoundColumns()
        for r in rounds:
            if cols.t and len(r.probs) != cols.width:
                raise ValueError("rounds of one episode must have equal-length probs")
            cols.append(r.t, r.arm, r.probs, r.outcome.reward, r.outcome.cost, r.budget_after)
        return cls(budget, cols, terminated_by, aborted_pull)

    def pull_counts(self, n_arms: int) -> list[int]:
        return [self.columns.arm.count(i) for i in range(n_arms)]

    def efficiency_total(self) -> float:
        """Sum of per-round reward/cost ratios over completed rounds."""
        return math.fsum(map(operator.truediv, self.columns.reward, self.columns.cost))


class RngStream:
    """Deterministic uniform stream keyed by (seed, stream_id).

    All randomness in the library is drawn from these streams as uniforms on
    [0, 1), so identical keys replay identical episodes on any platform.
    Draws are internally buffered; buffering never changes the sequence.
    """

    _BUFFER = 1024

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        ss = np.random.SeedSequence(
            entropy=self.seed & _MASK64, spawn_key=(self.stream_id & _MASK64,)
        )
        self._gen = np.random.Generator(np.random.PCG64(ss))
        self._buf: np.ndarray = np.empty(0)
        self._pos = 0

    def uniform(self) -> float:
        if self._pos >= self._buf.shape[0]:
            self._buf = self._gen.random(self._BUFFER)
            self._pos = 0
        u = self._buf[self._pos]
        self._pos += 1
        return float(u)

    def uniforms(self, n: int) -> np.ndarray:
        """Next ``n`` uniforms as an array (continues the scalar sequence)."""
        left = self._buf.shape[0] - self._pos
        if n <= left:
            out = self._buf[self._pos : self._pos + n].copy()
            self._pos += n
            return out
        head = self._buf[self._pos :].copy()
        self._pos = self._buf.shape[0]
        tail = self._gen.random(n - head.shape[0])
        return np.concatenate([head, tail])

    def integer(self, n: int) -> int:
        """Uniform index in [0, n)."""
        return min(int(self.uniform() * n), n - 1)

    def index(self, probs: Sequence[float]) -> int:
        """Inverse-CDF draw from a probability vector."""
        u = self.uniform()
        acc = 0.0
        last = len(probs) - 1
        for i, p in enumerate(probs):
            acc += p
            if u < acc:
                return i
        return last


class ExactSum:
    """Exactly rounded running sum of floats (Shewchuk partials).

    Budget accounting must not drift: affordability decisions and reported
    totals read the same correctly rounded sum, so a paid-cost total can
    never exceed the budget through accumulated float error.
    """

    __slots__ = ("_partials", "_value")

    def __init__(self) -> None:
        self._partials: list[float] = []
        self._value = 0.0

    @staticmethod
    def _grown(partials: list[float], x: float) -> list[float]:
        out = []
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                out.append(lo)
            x = hi
        out.append(x)
        return out

    def add_if_within(self, x: float, limit: float) -> bool:
        """Add ``x`` only if the new sum stays within ``limit``.

        Fails closed: a NaN term or a NaN limit is refused, and the sum is kept.
        """
        grown = self._grown(self._partials, x)
        value = math.fsum(grown)
        if not value <= limit:
            return False
        self._partials = grown
        self._value = value
        return True

    @property
    def value(self) -> float:
        """The correctly rounded sum, kept from the last accepted add."""
        return self._value


def normalized_probs_from_log_weights(log_weights: Sequence[float]) -> list[float]:
    """Probabilities proportional to exp(log_weights), in one stable pass."""
    if len(log_weights) == 0:
        raise ValueError("empty collection")
    for v in log_weights:
        if not math.isfinite(v):
            raise ValueError("invalid weight")
    m = max(log_weights)
    exps = [math.exp(v - m) for v in log_weights]
    total = sum(exps)
    return [e / total for e in exps]


def stable_mix64(*parts: int) -> int:
    """Stable 64-bit hash of integers (splitmix64 finalizer per word).

    Used to derive replication stream ids from (budget, replication, tag) so
    that extending an experiment never perturbs existing episodes. Must stay
    frozen: changing it invalidates every recorded seed.
    """
    h = 0x9E3779B97F4A7C15
    for part in parts:
        h = (h ^ (part & _MASK64)) * 0xBF58476D1CE4E5B9 & _MASK64
        h = (h ^ (h >> 27)) * 0x94D049BB133111EB & _MASK64
        h ^= h >> 31
    return h


def float_bits(x: float) -> int:
    """IEEE-754 bit pattern of a float, for hashing real-valued parameters."""
    return int(np.float64(x).view(np.uint64))
