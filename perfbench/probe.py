"""Set-up probe, run in a fresh interpreter by run.py.

Usage: python3 probe.py <src-dir> <config.json> <threads>

Imports bwklab from <src-dir>, parses the config and runs its first budget's
first episode through harness.run_experiment at <threads> workers, so that a
pooled run starts the package's pool and dispatches to it. harness.run_episode
is wrapped so that it prints the monotonic clock in nanoseconds as the
episode starts; the parent subtracts its own reading of the same clock, taken
just before the launch. The pool forks its workers, so they run the wrapper
too.
"""
import dataclasses
import json
import sys
import time

src, config_path, threads = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path.insert(0, src)

import bwklab.cli  # noqa: E402,F401  (the module `bwklab run` starts from)
from bwklab import harness  # noqa: E402

run_episode = harness.run_episode


def first_episode(*args, **kwargs):
    print(time.monotonic_ns(), flush=True)
    return run_episode(*args, **kwargs)


with open(config_path) as fh:
    config = harness.parse_config(json.load(fh))
harness.run_episode = first_episode
first = dataclasses.replace(config, budgets=config.budgets[:1], replications=1)
harness.run_experiment(first, threads=threads)
