"""Experiment harness: seeded episode batches, budget sweeps, CSV emission.

Episodes are embarrassingly parallel; results are reduced in (budget,
replication) order, so output bytes do not depend on the worker count.
"""
from __future__ import annotations

import json
import math
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Any, Callable, Iterator, NamedTuple, Sequence, Union

from .core import (
    InstanceParams,
    RngStream,
    RoundColumns,
    RunTrace,
    TerminationReason,
    float_bits,
    stable_mix64,
)
from .environments import (
    AdversarialMatrixSpec,
    PointMass,
    ScaledBernoulli,
    StochasticEnvSpec,
    UniformOn,
    big_cost_trap_matrix,
    hidden_best_arm_instance,
    load_matrix_csv,
    random_matrix_spec,
)
from .evaluation import (
    RegretMode,
    RegretReport,
    adversarial_regret,
    aggregate_regret,
    stochastic_regret_report,
)
from .policies import BudgetedPolicy, Exp3Bwk, Exp3PPBwk, FixedArmPolicy, UniformPolicy

SUMMARY_HEADER = "policy,B,replications,mean_regret,stderr_regret,mean_tau,mean_total_cost"
TRACE_HEADER = "t,arm,reward,cost,budget_after,prob_selected"

EnvSpec = Union[StochasticEnvSpec, AdversarialMatrixSpec]

# Specs are immutable, so replications can share one loaded matrix.
_load_matrix = lru_cache(maxsize=8)(load_matrix_csv)


# ---------------------------------------------------------------------------
# Configuration: one table per kind drives parse, build, echo and gen-env
# ---------------------------------------------------------------------------

REQUIRED = object()  # the default of a field that has none


class Codec(NamedTuple):
    """How one JSON value is read (typed and validated) and echoed back."""

    read: Callable[[Any, str], Any]
    echo: Callable[[Any], Any] = lambda value: value


class Field(NamedTuple):
    """One config key. Without a default the key is required; a ``None``
    default also admits an explicit ``null``. ``arg`` names the constructor
    keyword when it differs from the key."""

    key: str
    codec: Codec
    default: Any = REQUIRED
    arg: str | None = None


class Kind(NamedTuple):
    """A table entry: the constructor a name stands for and its fields.

    Environment entries also fix the regret mode, and mark as ``generated``
    the kinds whose instance is drawn from an rng, which ``gen-env`` writes.
    """

    build: Callable[..., Any]
    fields: tuple[Field, ...] = ()
    mode: RegretMode | None = None
    generated: bool = False

    def construct(self, values: dict, *args: Any) -> Any:
        return self.build(*args, **{f.arg or f.key: values[f.key] for f in self.fields})


# --- strict JSON parsing (typos in experiment configs must not pass silently)


def _complete(fields: Sequence[Field], values: dict, where: str, tag: Sequence[str] = ()) -> dict:
    """Check the keys of ``values`` (plus ``tag``) and fill in every default."""
    required = [*tag, *(f.key for f in fields if f.default is REQUIRED)]
    unknown = set(values) - set(required) - {f.key for f in fields}
    if unknown:
        raise ValueError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [k for k in required if k not in values]
    if missing:
        raise ValueError(f"{where}: missing keys {missing}")
    return {f.key: values.get(f.key, f.default) for f in fields}


def _read_fields(doc: Any, where: str, fields: Sequence[Field], tag: Sequence[str] = ()) -> dict:
    """Read an object holding ``fields``, each typed by its codec."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected an object, got {doc!r}")
    values = _complete(fields, doc, where, tag)
    for f in fields:
        if f.key in doc and (doc[f.key] is not None or f.default is not None):
            values[f.key] = f.codec.read(doc[f.key], f"{where}.{f.key}")
    return values


def _echo(fields: Sequence[Field], values: dict) -> dict:
    return {f.key: f.codec.echo(values[f.key]) for f in fields}


def _entry(table: dict[str, Kind], name: Any, where: str) -> Kind:
    if not isinstance(name, str) or name not in table:
        raise ValueError(f"{where}: unknown name {name!r}; expected one of {list(table)}")
    return table[name]


def _read_int(value: Any, where: str) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where}: expected an integer, got {value!r}")
    return value


def _read_number(value: Any, where: str) -> float:
    try:
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int beyond float range
        finite = False
    if not finite:
        raise ValueError(f"{where}: expected a finite number, got {value!r}")
    return float(value)


def _read_str(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{where}: expected a string, got {value!r}")
    return value


def _list_of(read: Callable[[Any, str], Any], length: int | None = None) -> Codec:
    """Codec for a nonempty list, of exactly ``length`` items if given."""

    def read_list(value: Any, where: str) -> tuple:
        if not isinstance(value, (list, tuple)) or not value or length not in (None, len(value)):
            size = "" if length is None else f" of {length} items"
            raise ValueError(f"{where}: expected a nonempty list{size}, got {value!r}")
        return tuple(read(item, f"{where}[{i}]") for i, item in enumerate(value))

    return Codec(read_list)


def _tagged(tag: str, table: dict[str, Kind], make: Callable, unmake: Callable) -> Codec:
    """Codec for an object whose ``tag`` key names its entry in ``table``;
    ``make(name, values)`` builds the value and ``unmake`` takes it apart."""

    def read(doc: Any, where: str) -> Any:
        name = doc.get(tag) if isinstance(doc, dict) else None
        kind = _entry(table, name, where)
        where = f"{where}[{name}]"
        values = _read_fields(doc, where, kind.fields, [tag])
        try:
            return make(name, values)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None

    def echo(obj: Any) -> dict:
        name, values = unmake(obj)
        return {tag: name, **_echo(table[name].fields, values)}

    return Codec(read, echo)


INT = Codec(_read_int)
NUMBER = Codec(_read_number)
STR = Codec(_read_str)

DISTRIBUTIONS = {
    "point": Kind(PointMass, (Field("value", NUMBER),)),
    "uniform": Kind(UniformOn, (Field("low", NUMBER), Field("high", NUMBER))),
    "bernoulli": Kind(
        ScaledBernoulli, (Field("p", NUMBER), Field("hi", NUMBER, 1.0), Field("lo", NUMBER, 0.0))
    ),
}
DISTRIBUTION = _tagged(
    "type",
    DISTRIBUTIONS,
    lambda name, values: DISTRIBUTIONS[name].construct(values),
    lambda dist: (next(n for n, k in DISTRIBUTIONS.items() if k.build is type(dist)), asdict(dist)),
)

# A stochastic arm is a (reward, cost) pair of distributions.
ARM = (Field("reward", DISTRIBUTION), Field("cost", DISTRIBUTION))
ARMS = Codec(
    _list_of(lambda arm, where: tuple(_read_fields(arm, where, ARM).values())).read,
    lambda arms: [{f.key: f.codec.echo(d) for f, d in zip(ARM, arm)} for arm in arms],
)

POLICIES = {
    "exp3bwk": Kind(Exp3Bwk, (Field("gamma_override", NUMBER, None),)),
    "exp3pp_bwk": Kind(
        Exp3PPBwk,
        (
            Field("alpha", NUMBER, 3.0),
            Field("beta", NUMBER, None),
            Field("lambda", NUMBER, None, arg="lam"),
        ),
    ),
    "fixed_arm": Kind(FixedArmPolicy, (Field("arm", INT),)),
    "uniform": Kind(UniformPolicy),
}

# Environment builders take (budget, env_rng) and then their fields. The
# inline kind holds its arms in the config; save_env_json writes specs as it.
INLINE_KIND = "stochastic"
ENVIRONMENTS = {
    INLINE_KIND: Kind(
        lambda budget, env_rng, cost_min, arms, cost_max, optimal_arm: StochasticEnvSpec(
            InstanceParams(len(arms), budget, cost_min, cost_max), *zip(*arms), optimal_arm
        ),
        (
            Field("cost_min", NUMBER),
            Field("arms", ARMS),
            Field("cost_max", NUMBER, 1.0),
            Field("optimal_arm", INT, None),
        ),
        RegretMode.STOCHASTIC,
    ),
    "matrix_file": Kind(
        lambda budget, env_rng, **file: _load_matrix(budget=budget, **file),
        (Field("path", STR), Field("cost_min", NUMBER, None), Field("cost_max", NUMBER, None)),
        RegretMode.ADVERSARIAL,
    ),
    "hidden_best_arm": Kind(
        lambda budget, env_rng, n_arms, cost_min: hidden_best_arm_instance(
            InstanceParams(n_arms, budget, cost_min), env_rng
        ),
        (Field("n_arms", INT), Field("cost_min", NUMBER)),
        RegretMode.STOCHASTIC,
        generated=True,
    ),
    "big_cost_trap": Kind(
        lambda budget, env_rng, alpha, optimal_arm: big_cost_trap_matrix(
            alpha, budget, optimal_arm, env_rng
        ),
        (Field("alpha", NUMBER), Field("optimal_arm", INT, None)),
        RegretMode.ADVERSARIAL,
        generated=True,
    ),
    "random_matrix": Kind(
        lambda budget, env_rng, n_arms, cost_min, cost_max, **shape: random_matrix_spec(
            InstanceParams(n_arms, budget, cost_min, cost_max), env_rng, **shape
        ),
        (
            Field("n_arms", INT),
            Field("cost_min", NUMBER),
            Field("cost_max", NUMBER, 1.0),
            Field("cost_jitter", NUMBER, None),
            Field("reward_noise", NUMBER, 0.15),
            Field("level_span", _list_of(_read_number, 2), (0.15, 0.85)),
        ),
        RegretMode.ADVERSARIAL,
        generated=True,
    ),
}


@dataclass(frozen=True)
class PolicyConfig:
    """A policy named in ``POLICIES`` and its field values; absent optional
    fields take their defaults."""

    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        kind = _entry(POLICIES, self.name, "policy")
        object.__setattr__(self, "params", _complete(kind.fields, self.params, "policy"))

    def build(self, params: InstanceParams) -> BudgetedPolicy:
        return POLICIES[self.name].construct(self.params, params)


@dataclass(frozen=True)
class EnvironmentConfig:
    """Environment factory: an ``ENVIRONMENTS`` kind and its field values,
    building one spec per budget.

    Generated kinds draw fresh randomness per replication from the dedicated
    environment stream, so Monte-Carlo runs average over the construction's
    own random choices (hidden arm, matrix noise) as well as episode noise.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        kind = _entry(ENVIRONMENTS, self.kind, "environment")
        object.__setattr__(self, "params", _complete(kind.fields, self.params, "environment"))

    @property
    def mode(self) -> RegretMode:
        return ENVIRONMENTS[self.kind].mode

    def build(self, budget: float, env_rng: RngStream) -> EnvSpec:
        return ENVIRONMENTS[self.kind].construct(self.params, budget, env_rng)


@dataclass(frozen=True)
class ExperimentConfig:
    policy: PolicyConfig
    environment: EnvironmentConfig
    budgets: tuple[float, ...]
    replications: int
    base_seed: int
    output: str | None = None

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if not self.budgets:
            raise ValueError("budgets must be nonempty")
        if not self.budgets[0] > 0.0:
            raise ValueError("budgets must be positive")
        if any(b2 <= b1 for b1, b2 in zip(self.budgets, self.budgets[1:])):
            raise ValueError("budgets must be strictly increasing")


@dataclass(frozen=True)
class SummaryRow:
    policy: str
    budget: float
    replications: int
    mean_regret: float
    stderr_regret: float
    mean_tau: float
    mean_total_cost: float


_ENVIRONMENT = _tagged("kind", ENVIRONMENTS, EnvironmentConfig, lambda e: (e.kind, e.params))


def _read_environment(doc: Any, where: str) -> EnvironmentConfig:
    if isinstance(doc, str):  # a path to a JSON file holding the object
        with open(doc) as fh:
            doc = json.load(fh)
    return _ENVIRONMENT.read(doc, where)


EXPERIMENT = (
    Field("policy", _tagged("name", POLICIES, PolicyConfig, lambda p: (p.name, p.params))),
    Field("environment", Codec(_read_environment, _ENVIRONMENT.echo)),
    Field("budgets", _list_of(_read_number)),
    Field("replications", INT),
    Field("base_seed", INT),
    Field("output", STR, None),
)


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a config document; unknown keys anywhere are errors."""
    return ExperimentConfig(**_read_fields(doc, "config", EXPERIMENT))


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(json.load(fh))


def resolved_config_dict(config: ExperimentConfig) -> dict:
    """Config echo with every default filled in, for the _config.json file."""
    return _echo(EXPERIMENT, vars(config))


def _write_json(doc: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_env_json(spec: StochasticEnvSpec, path: str) -> None:
    """Write ``spec`` as the inline environment object that builds it again."""
    values = dict(
        cost_min=spec.params.cost_min,
        arms=tuple(zip(spec.reward_dists, spec.cost_dists)),
        cost_max=spec.params.cost_max,
        optimal_arm=spec.optimal_arm,
    )
    _write_json(_ENVIRONMENT.echo(EnvironmentConfig(INLINE_KIND, values)), path)


# ---------------------------------------------------------------------------
# Episode driver
# ---------------------------------------------------------------------------


def run_episode(
    policy_config: PolicyConfig,
    env_spec: EnvSpec,
    budget: float,
    seed: int,
    stream_id: int,
) -> RunTrace:
    """Drive one select/observe/update loop to termination.

    The policy and the environment share one rng stream. Reaching
    ``params.horizon_cap()`` raises RuntimeError: only an environment that
    charges less than ``cost_min`` gets there.
    """
    params = env_spec.params
    if params.budget != budget:
        raise ValueError("env_spec was built for a different budget")
    policy = policy_config.build(params)
    rng = RngStream(seed, stream_id)
    cap = params.horizon_cap()
    columns = RoundColumns()
    select, step, update = policy.select, env_spec.step, policy.update
    add_t, add_arm, add_probs = columns.t.append, columns.arm.append, columns.probs.extend
    add_reward, add_cost = columns.reward.append, columns.cost.append
    add_left = columns.budget_after.append
    # Only a paid update moves the ledger: one read is budget_after and loop test.
    left = policy.remaining_budget
    while not policy.terminated and left > 0.0:
        t = policy.t
        if t > cap:
            raise RuntimeError(f"horizon cap of {cap} rounds reached: a cost below cost_min")
        arm, probs = select(rng)
        outcome = step(t, arm, rng)
        if update(arm, probs, outcome):
            left = policy.remaining_budget
            add_t(t)
            add_arm(arm)
            add_probs(probs)
            add_reward(outcome.reward)
            add_cost(outcome.cost)
            add_left(left)
    return RunTrace(budget, columns, TerminationReason.BUDGET_EXHAUSTED, policy.aborted_pull)


def episode_stream_id(budget: float, replication: int) -> int:
    """Stream id for the policy/environment draws of one episode."""
    return stable_mix64(float_bits(budget), replication, 0)


def instance_stream_id(budget: float, replication: int) -> int:
    """Stream id for generated-environment construction randomness."""
    return stable_mix64(float_bits(budget), replication, 1)


class EpisodeResult(NamedTuple):
    """What a worker returns for one episode: what the reduction reads."""

    report: RegretReport
    tau: int
    total_cost: float


@contextmanager
def _episode_errors(config: ExperimentConfig, budget: float, replication: int) -> Iterator[None]:
    """Re-raise any error as a RuntimeError naming the episode and its cause."""
    try:
        yield
    except Exception as exc:
        raise RuntimeError(
            f"episode failed (B={budget}, replication={replication}, "
            f"seed={config.base_seed}): {type(exc).__name__}: {exc}"
        ) from exc


def _episode_spec(config: ExperimentConfig, budget: float, replication: int) -> EnvSpec:
    """The environment of one episode, drawn from its own instance stream."""
    env_rng = RngStream(config.base_seed, instance_stream_id(budget, replication))
    return config.environment.build(budget, env_rng)


def _episode_task(args: tuple[ExperimentConfig, float, int, str | None]) -> EpisodeResult:
    """Build the episode's environment, run it, score its regret and, given a prefix,
    write its trace."""
    config, budget, replication, trace_prefix = args
    if config.environment.mode is RegretMode.STOCHASTIC:
        regret = stochastic_regret_report
    else:
        regret = adversarial_regret
    sid = episode_stream_id(budget, replication)
    with _episode_errors(config, budget, replication):
        spec = _episode_spec(config, budget, replication)
        trace = run_episode(config.policy, spec, budget, config.base_seed, sid)
        report = regret(trace, spec)
    if trace_prefix is not None:
        write_trace(trace, trace_prefix, sid)
    return EpisodeResult(report, trace.tau, trace.total_cost)


def _check_config(config: ExperimentConfig) -> None:
    """Build each budget's first environment and the policy on it, so that a
    config the constructors reject fails before any episode runs."""
    for budget in config.budgets:
        with _episode_errors(config, budget, 0):
            config.policy.build(_episode_spec(config, budget, 0).params)


def run_experiment(
    config: ExperimentConfig,
    threads: int = 1,
    trace_prefix: str | None = None,
) -> list[SummaryRow]:
    """Run the full budget sweep and aggregate one summary row per budget.

    ``threads`` > 1 runs episodes on a process pool; rows are reduced in
    (budget, replication) order either way, so results are byte-identical
    regardless of parallelism. Given ``trace_prefix``, the worker that runs
    an episode also writes its trace file (``write_trace``); a trace depends
    only on its episode, so neither its bytes nor its file name depend on
    the worker count. ``_check_config`` runs before any episode.
    """
    tasks = [
        (config, budget, rep, trace_prefix)
        for budget in config.budgets
        for rep in range(config.replications)
    ]
    if threads > 1:
        # Imported here: multiprocessing costs a one-worker run 2 MB and 20 ms.
        from concurrent.futures import ProcessPoolExecutor

        # Under fork every worker starts at the first submit: none beyond the episodes.
        with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
            # A worker runs the check, so the parent never imports numpy.random
            # (lazy under numpy 2; with hashlib and OpenSSL, about 6 MB resident).
            pool.submit(_check_config, config).result()
            results = list(pool.map(_episode_task, tasks, chunksize=8))
    else:
        _check_config(config)
        results = [_episode_task(t) for t in tasks]

    rows = []
    n = config.replications
    for i, budget in enumerate(config.budgets):
        chunk = results[i * n : (i + 1) * n]
        agg = aggregate_regret([r.report for r in chunk])
        rows.append(
            SummaryRow(
                policy=config.policy.name,
                budget=budget,
                replications=n,
                mean_regret=agg.mean_regret,
                stderr_regret=agg.stderr_regret,
                mean_tau=math.fsum(r.tau for r in chunk) / n,
                mean_total_cost=math.fsum(r.total_cost for r in chunk) / n,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Scaling fits and output files
# ---------------------------------------------------------------------------


def fit_loglog_slope(points: Sequence[tuple[float, float]]) -> float:
    """OLS slope of ln(regret) against ln(budget).

    Budgets must be finite and positive, and regrets finite. Nonpositive
    regret points cannot enter a log fit; they are dropped with a warning,
    and fewer than three survivors is an error.
    """
    for b, r in points:
        if not (0.0 < b < math.inf and math.isfinite(r)):
            raise ValueError(f"log-log fit needs 0 < B < inf and a finite regret, got ({b}, {r})")
    kept = [(b, r) for b, r in points if r > 0.0]
    if len(kept) < len(points):
        warnings.warn(
            f"dropped {len(points) - len(kept)} nonpositive regret point(s) from log-log fit",
            stacklevel=2,
        )
    if len(kept) < 3:
        raise ValueError("need at least 3 positive points for a log-log fit")
    xs = [math.log(b) for b, _ in kept]
    ys = [math.log(r) for _, r in kept]
    mx = math.fsum(xs) / len(xs)
    my = math.fsum(ys) / len(ys)
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    if sxx == 0.0:
        raise ValueError("need at least 2 distinct budgets for a log-log fit")
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx


def _fmt(x: float) -> str:
    return format(x, ".12g")


def trace_path(prefix: str, stream_id: int) -> str:
    """The file that holds the trace of the episode with ``stream_id``."""
    return f"{prefix}_trace_{stream_id}.csv"


def write_trace(trace: RunTrace, prefix: str, stream_id: int) -> str:
    """Write the trace of episode ``stream_id`` (floats at 12 significant digits)."""
    path = trace_path(prefix, stream_id)
    cols = trace.columns
    k = cols.width
    with open(path, "w", newline="") as fh:
        fh.write(TRACE_HEADER + "\n")
        fh.writelines(
            f"{t},{arm},{reward:.12g},{cost:.12g},{left:.12g},{cols.probs[i * k + arm]:.12g}\n"
            for i, (t, arm, reward, cost, left) in enumerate(
                zip(cols.t, cols.arm, cols.reward, cols.cost, cols.budget_after)
            )
        )
    return path


def emit_results(
    rows: Sequence[SummaryRow],
    traces: Sequence[tuple[int, RunTrace]],
    output_prefix: str,
    config: ExperimentConfig,
) -> list[str]:
    """Write <prefix>_summary.csv, <prefix>_config.json and optional traces.

    Floats are written with 12 significant digits; identical inputs produce
    byte-identical files.
    """
    written = []
    summary_path = f"{output_prefix}_summary.csv"
    with open(summary_path, "w", newline="") as fh:
        fh.write(SUMMARY_HEADER + "\n")
        for row in rows:
            fh.write(
                ",".join(
                    [
                        row.policy,
                        _fmt(row.budget),
                        str(row.replications),
                        _fmt(row.mean_regret),
                        _fmt(row.stderr_regret),
                        _fmt(row.mean_tau),
                        _fmt(row.mean_total_cost),
                    ]
                )
                + "\n"
            )
    written.append(summary_path)

    config_path = f"{output_prefix}_config.json"
    _write_json(resolved_config_dict(config), config_path)
    written.append(config_path)

    for stream_id, trace in traces:
        written.append(write_trace(trace, output_prefix, stream_id))
    return written


def parse_summary_csv(path: str) -> list[SummaryRow]:
    """Read a summary file back into rows (12-significant-digit floats).

    Every number must be finite, B positive and replications at least 1;
    errors name the path and line.
    """
    names = SUMMARY_HEADER.split(",")
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != SUMMARY_HEADER:
            raise ValueError(f"{path}: unexpected summary header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            where = f"{path}: line {lineno}"
            if len(parts) != 7:
                raise ValueError(f"{where}: expected 7 fields")
            try:
                values = [parts[0], float(parts[1]), int(parts[2]), *map(float, parts[3:])]
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            for name, value in zip(names, values):
                if isinstance(value, float) and not math.isfinite(value):
                    raise ValueError(f"{where}: {name} must be finite, got {value}")
            row = SummaryRow(*values)
            if not row.budget > 0.0:
                raise ValueError(f"{where}: B must be positive, got {row.budget}")
            if row.replications < 1:
                raise ValueError(f"{where}: replications must be >= 1, got {row.replications}")
            rows.append(row)
    return rows
