"""The benchmark's contract with the package.

perfbench/traced.py keeps its own copy of the sweep command, episode task
and reduction so that it can time every layer. These tests run that copy on
tiny configs and check it still writes what `bwklab run` writes, so a
package change that breaks the benchmark fails here rather than in a
benchmark run.
"""
import importlib.util
import json
import os

import pytest

from bwklab import cli
from bwklab.harness import load_config

TRACED_PY = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "traced.py")

CONFIGS = {
    "stochastic": {
        "policy": {"name": "exp3pp_bwk"},
        "environment": {
            "kind": "stochastic",
            "cost_min": 0.25,
            "arms": [
                {"reward": {"type": "bernoulli", "p": 0.9}, "cost": {"type": "point", "value": 0.5}},
                {"reward": {"type": "uniform", "low": 0.2, "high": 0.6},
                 "cost": {"type": "uniform", "low": 0.25, "high": 0.75}},
            ],
        },
        "budgets": [10, 20],
        "replications": 2,
        "base_seed": 11,
    },
    "random_matrix": {
        "policy": {"name": "exp3bwk"},
        "environment": {"kind": "random_matrix", "n_arms": 3, "cost_min": 0.5},
        "budgets": [10, 20],
        "replications": 2,
        "base_seed": 12,
    },
}


@pytest.fixture(scope="module")
def traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_traced_sweep_matches_bwklab_run(tmp_path, traced, name):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(CONFIGS[name]))
    argv = ["run", "--config", str(config_path), "--out"]

    log = traced.SpanLog()
    written = traced.traced_sweep(log, [*argv, str(tmp_path / "traced")])
    assert cli.main([*argv, str(tmp_path / "plain")]) == 0

    summary = next(p for p in written if p.endswith("_summary.csv"))
    with open(summary, "rb") as fh:
        assert fh.read() == (tmp_path / "plain_summary.csv").read_bytes()
    facts, _ = traced.reference_episodes(load_config(str(config_path)))
    assert facts == log.results
    assert len(facts) == 4
