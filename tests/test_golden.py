"""Output bytes pinned: the first RngStream draws, the benchmark sweeps' digests
and a matrix environment's trace bytes.

A change that alters output bytes on purpose updates these values and says
so. Any other failure here means the program's output drifted: through the
code, or through a numpy whose Generator draws differently.
"""
import dataclasses
import hashlib
import importlib.util
import json
import os
import sys

import pytest

from bwklab import cli
from bwklab.core import RngStream

WORKLOADS_PY = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")

# First three uniforms of a few (seed, stream_id) keys, as float.hex. The last
# stream id is episode_stream_id(16000.0, 1).
FIRST_DRAWS = {
    (0, 0): ["0x1.e2c8b5ff9abeep-1", "0x1.43ede2f0059d4p-2", "0x1.71d6e34584992p-1"],
    (20260808, 0): ["0x1.11787ec597336p-2", "0x1.d22e4c291d61dp-1", "0x1.e558e8f488a9cp-2"],
    (20260808, 14769524865499232534): [
        "0x1.f5177d79c6fdap-2", "0x1.a5acf64c32f64p-2", "0x1.7e939a590fac8p-3",
    ],
}

# sha256 of each workload's _summary.csv at the default seed, and of its
# trace files in perfbench's format (stream id line, then file bytes, by id).
DIGESTS = {
    "stoch-exp3pp": ("2a39224ae4c5f59fa5b9e54bc0e4ccf6cc39e7ba27c7bff171dd666fe8bce2eb", None),
    "adv-exp3bwk": ("e4bd8a4643b731740282b5f26404d4d5bbe8a617e3d8499ad7d387e677fda2af", None),
    "short-traced": (
        "44f45ed2002c5d92fc2fa910ab0183e2add6cbd38995999c6b6dcd4da8143973",
        "9970ae26f6d4596f596db7f03cc6ddc959584bde3153dc836c2b107e367932df",
    ),
}

# No workload emits a matrix environment's traces: these are adv-exp3bwk's
# config at B = 1000 alone, run with --emit-traces, so every value the
# matrix step serves is pinned, not only through the summary's sums.
MATRIX_TRACE_DIGESTS = (
    "4a44850edf92ab5437f75abb265890af7e9cfd59d1dee8af9adc683c1a923e71",
    "c78098871741fb677bed7e166aaefd7179cce824298815b0b32798d09c8acb58",
)


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the module up by name while building Workload
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def file_sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def traces_sha256(paths):
    traces = sorted((int(p.rsplit("_trace_", 1)[1][: -len(".csv")]), p) for p in paths)
    if not traces:
        return None
    h = hashlib.sha256()
    for stream_id, path in traces:
        h.update(f"{stream_id}\n".encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


@pytest.mark.parametrize("key", sorted(FIRST_DRAWS))
def test_first_draws(key):
    rng = RngStream(*key)
    assert [rng.uniform().hex() for _ in range(3)] == FIRST_DRAWS[key]


def test_every_workload_is_pinned(workloads):
    assert sorted(workloads.WORKLOADS) == sorted(DIGESTS)


def sweep_digests(tmp_path, capsys, workloads, workload):
    """(summary, traces) digests of the workload's sweep at the default seed."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(workload.config_doc(workloads.DEFAULT_SEED), indent=2))
    assert cli.main(workload.argv(str(config_path), str(tmp_path / "sweep"))) == 0
    written = capsys.readouterr().out.split()
    assert written[0].endswith("_summary.csv")
    traces = [p for p in written if "_trace_" in os.path.basename(p)]
    return file_sha256(written[0]), traces_sha256(traces)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_workload_output_bytes(tmp_path, capsys, workloads, name):
    digests = sweep_digests(tmp_path, capsys, workloads, workloads.WORKLOADS[name])
    assert digests == DIGESTS[name]


def test_matrix_environment_trace_bytes(tmp_path, capsys, workloads):
    workload = dataclasses.replace(
        workloads.WORKLOADS["adv-exp3bwk"], budgets=(1000.0,), emit_traces=True
    )
    assert sweep_digests(tmp_path, capsys, workloads, workload) == MATRIX_TRACE_DIGESTS
