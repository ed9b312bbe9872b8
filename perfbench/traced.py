"""Traced run: one span around every call into the package's layers.

The benchmark runs its own copy of the sweep command, with a copy of
run_episode's loop for each episode, so that it can time select, step,
update and the remaining_budget read one call at a time. run.py checks
that the copy reproduces run_episode and the summary bytes exactly, so the
spans time the same program as the untraced run.

A span is (name, parent, episode, start_ns, end_ns). The prefix of the name
before the first dot is the layer: one of LAYERS, or "bench" for the root,
whose self time is reported as unattributed. `parent` indexes the enclosing
span (-1 for the root) and `episode` indexes SpanLog.episodes, the
(budget, replication, stream_id) id shared by every span of one episode
(-1 outside episodes).

The round loop, which runs tens of thousands of times per sweep, records
one tuple of clock readings per round instead of one tuple per span; the
select, step, update and remaining_budget spans of a round share the
readings where one call follows the next, and SpanLog.all_spans expands the
tuples into spans after the pass (see ROUND_SPANS).

Recording costs time of its own: clock reads, a tuple and an append.
tracer_cost measures that cost on empty spans and empty rounds, and
pass_metrics takes it out of every layer's self time and reports it as
tracing overhead, so the layers' self times describe the package rather
than the tracer.
"""
from __future__ import annotations

import math
import statistics
import time
import tracemalloc
from collections import Counter

from bwklab import cli
from bwklab.core import RngStream, RoundRecord, RunTrace, TerminationReason
from bwklab.environments import AdversarialMatrixSpec
from bwklab.evaluation import (
    RegretMode,
    RegretReport,
    aggregate_regret,
    hindsight_fixed_arms,
    stochastic_regret_report,
)
from bwklab.harness import (
    SummaryRow,
    emit_results,
    episode_stream_id,
    instance_stream_id,
    load_config,
    run_episode,
    run_experiment,
)

LAYERS = ("harness", "policies", "environments", "core", "evaluation", "cli")

_clock = time.perf_counter_ns

# The spans of one round, as (name, start, end) indexes into the round's
# tuple of clock readings. A round that stops at the budget check has 2
# readings, an unpaid round 6 and a paid round 7; a span is kept when its
# end index is in the tuple.
ROUND_SPANS = (
    ("core.remaining_budget", 0, 1),
    ("policies.select", 2, 3),
    ("environments.step", 3, 4),
    ("policies.update", 4, 5),
    ("core.remaining_budget", 5, 6),
)


class SpanLog:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list = []
        # (parent span, episode, [one tuple of clock readings per round])
        self.rounds: list = []
        self.episodes: list[tuple[float, int, int]] = []
        self.counts: Counter = Counter()
        # (budget, replication, stream_id) -> (tau, total_cost, total_reward, terminated_by)
        self.results: dict = {}

    def open(self, name: str, parent: int, episode: int = -1) -> int:
        self.spans.append([name, parent, episode, _clock(), 0])
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][4] = _clock()

    def all_spans(self) -> tuple[list, list[int]]:
        """Every span of the pass, round spans expanded, and the clock
        readings each one was recorded with: 2 for a span recorded on its
        own, and a round's readings on the first span of that round, 0 on
        its others."""
        spans = [tuple(span) for span in self.spans]
        readings = [2] * len(spans)
        for parent, ep, rounds in self.rounds:
            for r in rounds:
                first = True
                for name, i, j in ROUND_SPANS:
                    if j < len(r):
                        spans.append((name, parent, ep, r[i], r[j]))
                        readings.append(len(r) if first else 0)
                        first = False
        return spans, readings

    def write_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("span,parent,name,budget,replication,stream_id,start_ns,end_ns\n")
            for i, (name, parent, ep, start, end) in enumerate(self.all_spans()[0]):
                budget, rep, sid = self.episodes[ep] if ep >= 0 else ("", "", "")
                fh.write(f"{i},{parent},{name},{budget},{rep},{sid},{start},{end}\n")


def _traced_run_episode(log, parent, ep, policy_config, spec, budget, seed, stream_id):
    """Copy of harness.run_episode with a span around each call it makes."""
    add = log.spans.append
    clock = _clock
    me = log.open("harness.run_episode", parent, ep)
    params = spec.params
    if params.budget != budget:
        raise ValueError("env_spec was built for a different budget")
    s = clock()
    policy = policy_config.build(params)
    add(("policies.init", me, ep, s, clock()))
    s = clock()
    rng = RngStream(seed, stream_id)
    add(("core.rng_open", me, ep, s, clock()))
    cap = params.horizon_cap()
    rounds = []
    reason = TerminationReason.BUDGET_EXHAUSTED
    readings: list = []
    mark = readings.append
    while not policy.terminated:
        c0 = clock()
        remaining = policy.remaining_budget
        c1 = clock()
        if not remaining > 0.0:
            mark((c0, c1))
            break
        if policy.t > cap:
            mark((c0, c1))
            reason = TerminationReason.HORIZON_CAP
            break
        t = policy.t
        c2 = clock()
        arm, probs = policy.select(rng)
        c3 = clock()
        outcome = spec.step(t, arm, rng)
        c4 = clock()
        paid = policy.update(arm, probs, outcome)
        c5 = clock()
        if paid:
            budget_after = policy.remaining_budget
            mark((c0, c1, c2, c3, c4, c5, clock()))
            rounds.append(
                RoundRecord(
                    t=t, arm=arm, probs=tuple(probs), outcome=outcome, budget_after=budget_after
                )
            )
        else:
            mark((c0, c1, c2, c3, c4, c5))
    log.rounds.append((me, ep, readings))
    trace = RunTrace.build(
        budget=budget, rounds=rounds, terminated_by=reason, aborted_pull=policy.aborted_pull
    )
    log.close(me)
    return trace


def _traced_episode(log, parent, config, budget, rep):
    """Copy of the harness's per-episode task: env build, episode, regret."""
    add = log.spans.append
    clock = _clock
    sid = episode_stream_id(budget, rep)
    ep = len(log.episodes)
    log.episodes.append((budget, rep, sid))
    me = log.open("harness.episode", parent, ep)
    s = clock()
    env_rng = RngStream(config.base_seed, instance_stream_id(budget, rep))
    add(("core.rng_open", me, ep, s, clock()))
    s = clock()
    spec = config.environment.build(budget, env_rng)
    add(("environments.build", me, ep, s, clock()))
    trace = _traced_run_episode(log, me, ep, config.policy, spec, budget, config.base_seed, sid)
    ev = log.open("evaluation.regret", me, ep)
    if config.environment.mode is RegretMode.STOCHASTIC:
        regret = stochastic_regret_report(trace, spec).primary_regret
    else:
        s = clock()
        hindsight = hindsight_fixed_arms(spec)
        add(("evaluation.hindsight", ev, ep, s, clock()))
        # adversarial_regret's primary figure; its efficiency diagnostic is
        # computed too, so that both runs do the same work.
        regret = hindsight.reward_sums[hindsight.best_reward_arm] - trace.total_reward
        trace.efficiency_total()
        log.counts["hindsight_rows"] += sum(hindsight.feasible_rounds)
    log.close(ev)
    log.close(me)
    if isinstance(spec, AdversarialMatrixSpec):
        log.counts["build_bytes"] += spec.rewards.nbytes + spec.costs.nbytes
    log.counts["rounds"] += trace.tau
    log.counts["aborted_pulls"] += trace.aborted_pull is not None
    log.results[(budget, rep, sid)] = (
        trace.tau, trace.total_cost, trace.total_reward, trace.terminated_by
    )
    return trace, regret


def _reduce(config, results):
    """Copy of run_experiment's reduction to one summary row per budget."""
    mode = config.environment.mode
    key = "pseudo_regret" if mode is RegretMode.STOCHASTIC else "reward_sum_regret"
    n = config.replications
    rows = []
    for i, budget in enumerate(config.budgets):
        chunk = results[i * n : (i + 1) * n]
        agg = aggregate_regret([RegretReport(mode=mode, **{key: r}) for r, _, _ in chunk])
        rows.append(
            SummaryRow(
                policy=config.policy.name,
                budget=budget,
                replications=n,
                mean_regret=agg.mean_regret,
                stderr_regret=agg.stderr_regret,
                mean_tau=math.fsum(tau for _, tau, _ in chunk) / n,
                mean_total_cost=math.fsum(c for _, _, c in chunk) / n,
            )
        )
    return rows


def traced_sweep(log: SpanLog, argv: list[str]) -> list[str]:
    """Copy of `bwklab run <argv>` with spans; returns the files it wrote."""
    add = log.spans.append
    clock = _clock
    root = log.open("bench.sweep", -1)
    s = clock()
    args = cli.build_parser().parse_args(argv)
    add(("cli.parse_args", root, -1, s, clock()))
    s = clock()
    config = load_config(args.config)
    add(("harness.parse", root, -1, s, clock()))
    episodes = [(b, r) for b in config.budgets for r in range(config.replications)]
    if args.threads > 1:
        # Episodes run in the package's own pool, out of the tracer's reach.
        s = clock()
        rows = run_experiment(config, threads=args.threads)
        add(("harness.pool", root, -1, s, clock()))
    else:
        sweep = log.open("harness.sweep", root)
        results = []
        for budget, rep in episodes:
            trace, regret = _traced_episode(log, sweep, config, budget, rep)
            results.append((regret, trace.tau, trace.total_cost))
        log.close(sweep)
        s = clock()
        rows = _reduce(config, results)
        add(("harness.reduce", root, -1, s, clock()))
    traces = []
    if args.emit_traces:
        replay = log.open("harness.trace_replay", root)
        for budget, rep in episodes:
            trace, _ = _traced_episode(log, replay, config, budget, rep)
            traces.append((episode_stream_id(budget, rep), trace))
        log.close(replay)
    s = clock()
    written = emit_results(rows, traces, args.out, config)
    add(("harness.emit", root, -1, s, clock()))
    log.close(root)
    return written


def tracer_cost(n: int = 20000) -> tuple[float, float, float]:
    """The tracer's own cost, measured on `n` empty spans and `n` empty rounds.

    Returns (record, clock, inside) in ns. Recording with k clock readings
    costs record + k * clock in all; of that, `inside` falls between a
    span's own start and end, and the rest in the enclosing span's self time.
    """
    spans: list = []
    add = spans.append
    clock = _clock
    me = ep = 0
    begin = clock()
    for _ in range(n):
        s = clock()
        add(("bench.empty", me, ep, s, clock()))
    two = (clock() - begin) / n
    rounds: list = []
    mark = rounds.append
    begin = clock()
    for _ in range(n):
        c0 = clock()
        c1 = clock()
        c2 = clock()
        c3 = clock()
        c4 = clock()
        c5 = clock()
        mark((c0, c1, c2, c3, c4, c5, clock()))
    seven = (clock() - begin) / n
    per_clock = max((seven - two) / 5, 0.0)
    inside = statistics.median(r[1] - r[0] for r in rounds)
    return max(two - 2 * per_clock, 0.0), per_clock, inside


def span_totals(log: SpanLog, cost: tuple[float, float, float]):
    """Per span name: summed duration, call count and summed self time (ns),
    and the tracer's own cost taken out of those self times (ns).

    A span's self time is its duration less its children's durations, less
    the recording cost that fell inside it (`inside`), and less, for each
    record made inside it, that record's cost outside its spans.
    """
    record, per_clock, inside = cost
    spans, readings = log.all_spans()
    child = [0] * len(spans)
    tracer = [0.0] * len(spans)
    for i, ((_, parent, _, start, end), k) in enumerate(zip(spans, readings)):
        tracer[i] += inside
        if parent >= 0:
            child[parent] += end - start
            if k:
                spans_in_record = sum(j < k for _, _, j in ROUND_SPANS)
                tracer[parent] += record + k * per_clock - spans_in_record * inside
    total, calls, self_ns = Counter(), Counter(), Counter()
    for i, (name, _, _, start, end) in enumerate(spans):
        total[name] += end - start
        calls[name] += 1
        self_ns[name] += end - start - child[i] - tracer[i]
    return total, calls, self_ns, sum(tracer)


def pass_metrics(log: SpanLog, cost: tuple[float, float, float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass; `cost` is tracer_cost()."""
    total, calls, self_ns, overhead = span_totals(log, cost)
    record, per_clock, inside = cost

    def mean(name: str, unit_ns: float) -> float:
        return (total[name] / calls[name] - inside) / unit_ns if calls[name] else 0.0

    wall = total["bench.sweep"]
    metrics = {
        "policies.select_us": mean("policies.select", 1e3),
        "policies.select_calls": calls["policies.select"],
        "policies.update_us": mean("policies.update", 1e3),
        "policies.aborted_pulls": log.counts["aborted_pulls"],
        "core.remaining_budget_us": mean("core.remaining_budget", 1e3),
        "core.rng_open_us": mean("core.rng_open", 1e3),
        "environments.step_us": mean("environments.step", 1e3),
        "environments.step_calls": calls["environments.step"],
        "environments.build_ms": mean("environments.build", 1e6),
        "environments.build_bytes": log.counts["build_bytes"],
        "evaluation.regret_ms": mean("evaluation.regret", 1e6),
        "evaluation.hindsight_ms": mean("evaluation.hindsight", 1e6),
        "evaluation.hindsight_rows": log.counts["hindsight_rows"],
        "harness.episode_self_us_per_round": max(self_ns["harness.run_episode"], 0.0)
        / max(log.counts["rounds"], 1)
        / 1e3,
        "harness.pool_s": total["harness.pool"] / 1e9,
        "harness.trace_replay_s": total["harness.trace_replay"] / 1e9,
        "harness.emit_ms": total["harness.emit"] / 1e6,
        "harness.parse_ms": total["harness.parse"] / 1e6,
    }
    attributed = 0.0
    for layer in LAYERS:
        layer_ns = sum(
            max(v, 0.0) for k, v in self_ns.items() if k.split(".", 1)[0] == layer
        )
        metrics[f"{layer}.self_s"] = layer_ns / 1e9
        attributed += layer_ns
    metrics["trace.span_overhead_s"] = overhead / 1e9
    metrics["trace.span_cost_ns"] = record + 2 * per_clock
    metrics["trace.unattributed_s"] = (wall - attributed) / 1e9
    metrics["trace.attributed_frac"] = attributed / wall
    metrics["trace.traced_wall_s"] = wall / 1e9
    return metrics


def reference_episodes(config) -> tuple[dict, list[int]]:
    """run_episode itself on every episode of the sweep, untraced.

    Returns the same per-episode facts as SpanLog.results, and the wall
    time of each run_episode call in nanoseconds.
    """
    facts, times = {}, []
    for budget in config.budgets:
        for rep in range(config.replications):
            env_rng = RngStream(config.base_seed, instance_stream_id(budget, rep))
            spec = config.environment.build(budget, env_rng)
            sid = episode_stream_id(budget, rep)
            s = _clock()
            trace = run_episode(config.policy, spec, budget, config.base_seed, sid)
            times.append(_clock() - s)
            facts[(budget, rep, sid)] = (
                trace.tau, trace.total_cost, trace.total_reward, trace.terminated_by
            )
    return facts, times


def episode_alloc_peak_mb(config) -> float:
    """tracemalloc peak of one run_episode call at the sweep's largest budget."""
    budget = config.budgets[-1]
    spec = config.environment.build(
        budget, RngStream(config.base_seed, instance_stream_id(budget, 0))
    )
    tracemalloc.start()
    try:
        run_episode(config.policy, spec, budget, config.base_seed, episode_stream_id(budget, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20
