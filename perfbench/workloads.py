"""Benchmark workloads: each one turns a seed into a bwklab config document.

The package only ever sees the generated documents. The instance values are
copies of the acceptance suite's STOCH_INSTANCE and ADV_FAMILY, so the
benchmark does not import the tests.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass

DEFAULT_SEED = 20260808

# The acceptance suite's stochastic instance: K=5, costs in [0.25, 1].
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

# The acceptance suite's adversarial family: K=5 random matrix, c_min 0.5.
ADV_FAMILY = {
    "kind": "random_matrix",
    "n_arms": 5,
    "cost_min": 0.5,
    "level_span": [0.3, 0.7],
    "reward_noise": 0.25,
}

HIDDEN_BEST_ARM = {"kind": "hidden_best_arm", "n_arms": 4, "cost_min": 0.25}


@dataclass(frozen=True)
class Workload:
    name: str
    policy: str
    environment: dict
    budgets: tuple[float, ...]
    replications: int
    threads: int
    emit_traces: bool

    @property
    def episodes(self) -> int:
        return len(self.budgets) * self.replications

    def config_doc(self, seed: int) -> dict:
        return {
            "policy": {"name": self.policy},
            "environment": copy.deepcopy(self.environment),
            "budgets": list(self.budgets),
            "replications": self.replications,
            "base_seed": seed,
        }

    def argv(self, config_path: str, prefix: str) -> list[str]:
        """`bwklab run` arguments for this workload's sweep command."""
        argv = ["run", "--config", config_path, "--out", prefix, "--threads", str(self.threads)]
        if self.emit_traces:
            argv.append("--emit-traces")
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        # The c05 sweep at two replications. Episodes are long (about 32k
        # rounds at B=16000) and policies.select (confidence_bounds) takes
        # about 65% of the round loop, so this is where a lean episode core
        # and a batched engine should show, and where evaluation does almost
        # nothing.
        Workload("stoch-exp3pp", "exp3pp_bwk", STOCH_INSTANCE, (4000.0, 16000.0), 2, 1, False),
        # The policy is cheap (about 4 us per select), while the matrix build
        # and hindsight_fixed_arms (a per-row ExactSum loop over every arm)
        # take about 35% of the time. So the evaluation and environment
        # layers do most of their work here and almost none elsewhere.
        Workload("adv-exp3bwk", "exp3bwk", ADV_FAMILY, (1000.0, 4000.0, 16000.0), 2, 1, False),
        # Short episodes (100-400 rounds) with many replications through
        # `bwklab run --threads 2 --emit-traces`, so per-episode fixed costs
        # dominate: stream setup, env build, pool dispatch and reduce. The
        # serial trace_hook replay and the trace CSV writes cost more than
        # the sweep itself. This workload uses the harness differently: it
        # writes hundreds of files where the others write two.
        Workload("short-traced", "exp3bwk", HIDDEN_BEST_ARM, (25.0, 50.0, 100.0), 100, 2, True),
    )
}
