"""Command-line entry points: run experiments, fit slopes, generate envs."""
from __future__ import annotations

import argparse
import sys

from .core import RngStream
from .environments import StochasticEnvSpec, save_matrix_csv
from .harness import (
    ENVIRONMENTS,
    EnvironmentConfig,
    emit_results,
    episode_stream_id,
    fit_loglog_slope,
    load_config,
    parse_summary_csv,
    run_experiment,
    save_env_json,
    trace_path,
)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    prefix = args.out or config.output
    if prefix is None:
        raise ValueError("no output prefix: pass --out or set 'output' in the config")
    rows = run_experiment(config, args.threads, trace_prefix=prefix if args.emit_traces else None)
    written = emit_results(rows, [], prefix, config)
    if args.emit_traces:
        written += [
            trace_path(prefix, episode_stream_id(budget, rep))
            for budget in config.budgets
            for rep in range(config.replications)
        ]
    for path in written:
        print(path)
    return 0


def _cmd_slope(args: argparse.Namespace) -> int:
    rows = parse_summary_csv(args.summary)
    policies = sorted({r.policy for r in rows})
    if len(policies) != 1:
        raise ValueError(f"summary mixes policies {policies}; fit them separately")
    slope = fit_loglog_slope([(r.budget, r.mean_regret) for r in rows])
    print(format(slope, ".6g"))
    return 0


def _cmd_gen_env(args: argparse.Namespace) -> int:
    kind = args.kind.replace("-", "_")
    flags = vars(args)
    env = EnvironmentConfig(
        kind, {f.key: flags[f.key] for f in ENVIRONMENTS[kind].fields if f.key in flags}
    )
    spec = env.build(args.budget, RngStream(args.seed))
    if isinstance(spec, StochasticEnvSpec):
        save_env_json(spec, args.out)
    else:
        save_matrix_csv(spec, args.out)
    print(args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bwklab",
        description="Budgeted bandit experiment runner: seeded episodes, "
        "regret sweeps over budgets, CSV results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("--config", required=True, help="path to a JSON config")
    p_run.add_argument("--out", default=None, help="output file prefix")
    p_run.add_argument("--threads", type=positive_int, default=1, help="worker processes")
    p_run.add_argument(
        "--emit-traces", action="store_true", help="also write per-episode trace CSVs"
    )
    p_run.set_defaults(func=_cmd_run)

    p_slope = sub.add_parser("slope", help="fit the log-log budget scaling exponent")
    p_slope.add_argument("summary", help="path to a *_summary.csv file")
    p_slope.set_defaults(func=_cmd_slope)

    p_gen = sub.add_parser("gen-env", help="generate an environment file")
    p_gen.add_argument(
        "--kind",
        required=True,
        choices=[k.replace("_", "-") for k, e in ENVIRONMENTS.items() if e.generated],
    )
    p_gen.add_argument("--out", required=True, help="output file path")
    p_gen.add_argument("--budget", type=float, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--arms", dest="n_arms", type=int, default=2)
    p_gen.add_argument("--cost-min", type=float, default=1.0)
    p_gen.add_argument("--alpha", type=float, default=0.5)
    p_gen.add_argument("--optimal-arm", type=int, default=None)
    p_gen.add_argument("--cost-jitter", type=float, default=None)
    p_gen.set_defaults(func=_cmd_gen_env)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
