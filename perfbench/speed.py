"""Machine-speed calibration, so that timings from a shared host are steady.

On a shared virtual machine the speed of a core can drift by a factor of 1.5
within tens of seconds, for reasons outside this process. A fixed
pure-Python kernel that does not use bwklab, but does the same kind of work
(small objects, short lists, math.exp, fsum), is timed between measured
sweeps. Each sweep's time is scaled by NOMINAL_S over the kernel's mean
time around it, which reports it in seconds at one fixed reference speed.
The mean, not the median, because the host switches between a fast and a
slow state within a second, and a sweep's time integrates over both.
A change to bwklab moves the scaled time; a change in the host's speed
mostly does not.
"""
from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

# Kernel time at the reference speed. It fixes the scale of every
# calibrated time and must not change once figures are recorded against it.
NOMINAL_S = 0.008
REPEATS = 10


@dataclass(frozen=True)
class _Record:
    t: int
    arm: int
    probs: tuple
    reward: float


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: int) -> None:
        self.a = a
        self.b = b

    def product(self) -> float:
        return self.a * self.b


def _uniforms(n: int) -> list[float]:
    out, x = [], 12345
    for _ in range(n):
        x = (x * 6364136223846793005 + 1442695040888963407) % 2**64
        out.append((x >> 11) / 2**53)
    return out


_U = _uniforms(1024)


def kernel() -> float:
    """A fixed amount of interpreter work: an exponential-weights loop that
    records every round, then an allocation-heavy float loop."""
    weights = [0.0] * 5
    records = []
    for t in range(1500):
        top = max(weights)
        exps = [math.exp(v - top) for v in weights]
        total = sum(exps)
        probs = [0.9 * e / total + 0.02 for e in exps]
        u = _U[t & 1023]
        acc, arm = 0.0, 4
        for i, p in enumerate(probs):
            acc += p
            if u < acc:
                arm = i
                break
        reward = _U[(t * 7) & 1023] * (0.5 + 0.1 * arm)
        weights[arm] += 0.01 * reward / probs[arm]
        records.append(_Record(t, arm, tuple(probs), reward))
    out = math.fsum(r.reward for r in records)
    pairs, seen, x = [], {}, 0.5
    for i in range(8000):
        p = _Pair(x, i)
        x = (x * 1.0001 + 0.3) % 1.0
        pairs.append((p.product(), math.exp(-x)))
        seen[i & 63] = p
        if len(pairs) > 64:
            out += math.fsum(v for v, _ in pairs)
            pairs.clear()
    return out


def sample() -> list[float]:
    """REPEATS timings of the kernel in this process, in seconds."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times


def scale(before: list[float], after: list[float]) -> float:
    """Factor that turns a time measured between two samples into seconds
    at the reference speed."""
    return NOMINAL_S / statistics.mean(before + after)


class Calibrator:
    """Samples the kernel on `cores` cores at once.

    A pooled sweep keeps every worker's core busy, and the cores of a shared
    host drift apart, so one core's kernel time misjudges it. With cores > 1
    the kernel also runs, at the same moment, in cores - 1 helper
    interpreters started from this file; their times join this process's.
    Use as a context manager: leaving it stops and waits for the helpers.
    """

    def __init__(self, cores: int = 1) -> None:
        self._helpers = [
            subprocess.Popen(
                [sys.executable, os.path.abspath(__file__)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            for _ in range(cores - 1)
        ]

    def sample(self) -> list[float]:
        for helper in self._helpers:
            helper.stdin.write("sample\n")
            helper.stdin.flush()
        times = sample()
        for helper in self._helpers:
            times += json.loads(helper.stdout.readline())
        return times

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        for helper in self._helpers:
            helper.stdin.close()
        for helper in self._helpers:
            helper.wait(timeout=60)


if __name__ == "__main__":
    # Helper mode: one line of kernel times per request line on stdin.
    for _ in sys.stdin:
        print(json.dumps(sample()), flush=True)
