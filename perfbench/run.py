"""bwklab benchmark: seeded sweep workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload stoch-exp3pp --seed 20260808 --seconds 20 --trace 0

--trace 0 times the workload's sweep command untraced and reports the
end-to-end metrics of BENCHMARK.json; --trace 1 runs the traced copy of the
sweep and reports the per-layer metrics. Every sweep's output is checked.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import speed
from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
# Fresh interpreters started per run to time set-up; setup_s is their median.
SETUP_PROBES = 9
# The share of traced wall time the layers' self times must account for.
MIN_ATTRIBUTED_FRAC = 0.9


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="bwklab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import bwklab from this checkout's src/ and from nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "bwklab", "__init__.py")):
        sys.exit(f"error: no bwklab sources under {SRC}")
    sys.path.insert(0, SRC)
    import bwklab

    if os.path.dirname(os.path.dirname(os.path.abspath(bwklab.__file__))) != SRC:
        sys.exit(f"error: bwklab was imported from {bwklab.__file__}, not {SRC}")
    return bwklab


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def output_digest(written: list[str]) -> tuple[str, str | None]:
    """sha256 of the summary file, and one over the trace files by stream id."""
    summary = next(p for p in written if p.endswith("_summary.csv"))
    traces = sorted(
        (int(p.rsplit("_trace_", 1)[1][: -len(".csv")]), p) for p in written if "_trace_" in p
    )
    if not traces:
        return sha256_file(summary), None
    h = hashlib.sha256()
    for stream_id, path in traces:
        with open(path, "rb") as fh:
            h.update(f"{stream_id}\n".encode())
            h.update(fh.read())
    return sha256_file(summary), h.hexdigest()


def check_summary(workload, path: str) -> tuple[int, int]:
    """Output check of one summary file: (episodes in failing rows, sum of tau).

    Every row must have a finite mean_regret, 0 < mean_tau and
    mean_total_cost <= B, for the workload's budgets in order.
    """
    from bwklab.harness import parse_summary_csv

    rows = parse_summary_csv(path)
    if [r.budget for r in rows] != list(workload.budgets):
        return workload.episodes, 0
    failed = tau_sum = 0
    for r in rows:
        ok = (
            r.replications == workload.replications
            and math.isfinite(r.mean_regret)
            and 0.0 < r.mean_tau
            and r.mean_total_cost <= r.budget
        )
        failed += 0 if ok else r.replications
        tau_sum += round(r.mean_tau * r.replications)
    return failed, tau_sum


def run_sweep(workload, argv: list[str]):
    """One sweep command through cli.main, then its output check.

    Returns (wall_s, failed episodes, output digest, sum of tau).
    """
    from bwklab import cli

    printed = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(printed):
            code = cli.main(argv)
        wall = time.perf_counter() - start
        written = printed.getvalue().split()
        expected = 2 + (workload.episodes if workload.emit_traces else 0)
        if code != 0 or len(written) != expected:
            return wall, workload.episodes, None, 0
        failed, tau_sum = check_summary(workload, written[0])
        return wall, failed, output_digest(written), tau_sum
    except Exception:  # a failing sweep is counted, not fatal to the run
        traceback.print_exc()
        return time.perf_counter() - start, workload.episodes, None, 0


def serial_sweep(config, prefix: str) -> tuple[float, str]:
    """The sweep at one worker: run_experiment's wall time and summary digest."""
    from bwklab.harness import emit_results, run_experiment

    start = time.perf_counter()
    rows = run_experiment(config, threads=1)
    wall = time.perf_counter() - start
    emit_results(rows, [], prefix, config)
    return wall, sha256_file(f"{prefix}_summary.csv")


def setup_seconds(workload, config_path: str, calibrator) -> tuple[float, float]:
    """Median time from launching a fresh interpreter to the start of the
    first episode (its first harness.run_episode call; see probe.py).

    Returns (calibrated, raw) seconds.
    """
    probe = os.path.join(HERE, "probe.py")
    raw, scaled = [], []
    before = calibrator.sample()
    for _ in range(SETUP_PROBES):
        start = time.monotonic_ns()
        done = subprocess.run(
            [sys.executable, probe, SRC, config_path, str(workload.threads)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        (stamp,) = done.stdout.split()  # one episode, so exactly one stamp
        seconds = (int(stamp) - start) / 1e9
        after = calibrator.sample()
        raw.append(seconds)
        scaled.append(seconds * speed.scale(before, after))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def rss_kb() -> int:
    """This process's resident set now, in KiB."""
    with open("/proc/self/statm") as fh:
        resident = int(fh.read().split()[1])
    return resident * os.sysconf("SC_PAGE_SIZE") // 1024


def peak_rss_mb(threads: int, rss_at_fork_kb: int) -> float:
    """Peak RSS of this process plus, on pooled runs, what each pool worker
    adds beyond the parent pages it inherits.

    A forked worker's peak counts the parent's resident pages it starts
    with, so each worker is counted for the largest worker's peak less this
    process's resident set before the pool started.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if threads == 1:
        return own / 1024
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + threads * max(worker - rss_at_fork_kb, 0)) / 1024


def git_commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


class Tally:
    """Episodes attempted and failed, the output digests seen, and failed
    checks that are not about one episode."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.summaries: set[str] = set()
        self.traces: set[str] = set()
        self.problems: list[str] = []

    def add(self, episodes: int, failed: int, digest=(None, None)) -> None:
        self.attempted += episodes
        self.failed += failed
        summary, traces = digest or (None, None)
        if summary is not None:
            self.summaries.add(summary)
        if traces is not None:
            self.traces.add(traces)


def measure_untraced(workload, config_path, out_dir, seconds, tally, calibrator):
    """End-to-end metrics: the sweep command repeated for `seconds`.

    Returns the calibrated metrics and the raw (uncalibrated) times.
    """
    from bwklab.harness import load_config

    argv = workload.argv(config_path, os.path.join(out_dir, "sweep"))
    walls, scaled, tau_sum = [], [], 0
    deadline = None  # set after one untimed warm-up sweep
    rss_at_fork = rss_kb()
    before = calibrator.sample()
    while deadline is None or time.perf_counter() < deadline or not walls:
        rss_at_fork = min(rss_at_fork, rss_kb())
        wall, failed, digest, tau_sum = run_sweep(workload, argv)
        after = calibrator.sample()
        tally.add(workload.episodes, failed, digest)
        if failed:
            break
        if deadline is None:
            deadline = time.perf_counter() + seconds
        else:
            walls.append(wall)
            scaled.append(wall * speed.scale(before, after))
        before = after
    metrics = {"peak_rss_mb": peak_rss_mb(workload.threads, rss_at_fork)}
    rss = {
        "rss_own_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "rss_worker_peak_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "rss_at_fork_mb": rss_at_fork / 1024,
    }
    if workload.threads > 1 and not tally.failed:
        _, digest = serial_sweep(load_config(config_path), os.path.join(out_dir, "serial"))
        tally.add(workload.episodes, 0, (digest, None))
    wall = statistics.median(scaled) if scaled else math.nan
    metrics["wall_s"] = wall
    metrics["rounds_per_s"] = tau_sum / wall
    metrics["setup_s"], raw_setup = setup_seconds(workload, config_path, calibrator)
    raw = {
        "wall_s": statistics.median(walls) if walls else None,
        "setup_s": raw_setup,
        "sweeps": len(walls),
        **rss,
    }
    return metrics, raw


def measure_traced(workload, config_path: str, out_dir: str, seconds: float, tally: Tally):
    """Per-layer metrics: untraced and traced sweeps alternated for `seconds`."""
    import traced
    from bwklab.core import TerminationReason
    from bwklab.harness import load_config

    config = load_config(config_path)
    untraced_argv = workload.argv(config_path, os.path.join(out_dir, "sweep"))
    traced_argv = workload.argv(config_path, os.path.join(out_dir, "traced"))
    reference, _ = traced.reference_episodes(config)
    passes, untraced_walls, episode_ns, serial_walls, kernel = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        kernel += speed.sample()
        wall, failed, digest, _ = run_sweep(workload, untraced_argv)
        tally.add(workload.episodes, failed, digest)
        untraced_walls.append(wall)

        facts, times = traced.reference_episodes(config)
        episode_ns += times
        if facts != reference:
            tally.add(0, workload.episodes)
        if workload.threads > 1:
            serial_wall, serial_digest = serial_sweep(config, os.path.join(out_dir, "serial"))
            serial_walls.append(serial_wall)
            tally.add(0, 0, (serial_digest, None))

        span_cost = traced.tracer_cost()
        log = traced.SpanLog()
        written = traced.traced_sweep(log, traced_argv)
        failed, _ = check_summary(workload, written[0])
        for key, result in log.results.items():
            _, cost, _, reason = result
            if (
                reference.get(key) != result
                or reason is not TerminationReason.BUDGET_EXHAUSTED
                or not cost <= key[0]
            ):
                failed += 1
        tally.add(len(log.results), min(failed, len(log.results)), output_digest(written))
        metrics = traced.pass_metrics(log, span_cost)
        if not metrics["trace.attributed_frac"] >= MIN_ATTRIBUTED_FRAC:
            tally.problems.append(
                f"layers account for {metrics['trace.attributed_frac']:.3f} of traced wall "
                f"time, below {MIN_ATTRIBUTED_FRAC}"
            )
        metrics["harness.emit_bytes"] = sum(os.path.getsize(p) for p in written)
        if not passes:
            log.write_csv(os.path.join(out_dir, "spans.csv"))
        passes.append(metrics)
        del log

    # median_low keeps counts whole: every pass does the same work.
    out = {k: statistics.median_low(m[k] for m in passes) for k in passes[0]}
    if workload.threads > 1:
        out["harness.pool_efficiency"] = statistics.median(serial_walls) / (
            workload.threads * out["harness.pool_s"]
        )
    else:
        out["harness.pool_efficiency"] = 1.0
    deciles = statistics.quantiles(episode_ns, n=10, method="inclusive")
    out["harness.run_episode_ms_p50"] = deciles[4] / 1e6
    out["harness.run_episode_ms_p90"] = deciles[8] / 1e6
    out["harness.run_episode_samples"] = len(episode_ns)
    out["harness.episode_alloc_peak_mb"] = traced.episode_alloc_peak_mb(config)
    out["trace.untraced_wall_s"] = statistics.median(untraced_walls)
    out["trace.overhead_s"] = out["trace.traced_wall_s"] - out["trace.untraced_wall_s"]
    out["trace.speed_kernel_ms"] = statistics.median(kernel) * 1e3
    return out, {}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bwklab = import_package()
    import numpy

    workload = WORKLOADS[args.workload]
    out_dir = os.path.join(OUT, workload.name)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    config_path = os.path.join(out_dir, "config.json")
    with open(config_path, "w") as fh:
        json.dump(workload.config_doc(args.seed), fh, indent=2)

    tally = Tally()
    if args.trace:
        values, raw = measure_traced(workload, config_path, out_dir, args.seconds, tally)
        wanted = spec["per_layer"]
    else:
        with speed.Calibrator(workload.threads) as calibrator:
            values, raw = measure_untraced(
                workload, config_path, out_dir, args.seconds, tally, calibrator
            )
        wanted = spec["end_to_end"]
    # A metric no sweep got to measure is null, not NaN, so the line stays JSON.
    metrics = {
        m["name"]: {
            "value": values[m["name"]] if math.isfinite(values[m["name"]]) else None,
            "unit": m["unit"],
        }
        for m in wanted
    }

    # Every sweep, traced or not, at any worker count, must write the same bytes.
    correct = (
        tally.failed == 0
        and not tally.problems
        and len(tally.summaries) == 1
        and len(tally.traces) <= 1
    )
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    facts = {
        "workload": workload.name,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "bwklab": bwklab.__version__,
        "commit": git_commit(),
        "summary_sha256": sorted(tally.summaries),
        "traces_sha256": sorted(tally.traces),
    }
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    for name, m in metrics.items():
        print(f"{workload.name} {name} {m['value']!r} {m['unit']}")
    print(f"{workload.name} failed_frac {tally.failed / max(tally.attempted, 1)!r} "
          f"({tally.failed} of {tally.attempted} episodes)")
    if raw:
        print("raw " + json.dumps(raw, sort_keys=True))
    print("facts " + json.dumps(facts, sort_keys=True))
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump({"facts": facts, "raw": raw, **result}, fh, indent=2, sort_keys=True, allow_nan=False)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
