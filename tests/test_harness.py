"""Harness: episode driver, experiment runner, config parsing, output files."""
import copy
import json
import math
import os
from pathlib import Path

import pytest

from bwklab.core import InstanceParams, Outcome, RngStream, TerminationReason
from bwklab.environments import (
    StochasticEnvSpec,
    big_cost_trap_matrix,
    random_matrix_spec,
    save_matrix_csv,
)
from bwklab.harness import (
    SUMMARY_HEADER,
    EnvironmentConfig,
    PolicyConfig,
    emit_results,
    episode_stream_id,
    fit_loglog_slope,
    instance_stream_id,
    parse_config,
    parse_summary_csv,
    run_episode,
    run_experiment,
)

STOCH_ENV = {
    "kind": "stochastic",
    "cost_min": 0.5,
    "arms": [
        {"reward": {"type": "bernoulli", "p": 0.9}, "cost": {"type": "point", "value": 0.5}},
        {"reward": {"type": "bernoulli", "p": 0.2}, "cost": {"type": "point", "value": 1.0}},
    ],
}

NAN_REWARD_ARM = {"reward": {"type": "point", "value": math.nan}, "cost": {"type": "point", "value": 0.5}}
RANDOM_MATRIX_ENV = {"kind": "random_matrix", "n_arms": 2, "cost_min": 0.5}


def config_doc(**overrides):
    doc = {
        "policy": {"name": "exp3bwk"},
        "environment": copy.deepcopy(STOCH_ENV),
        "budgets": [20, 40],
        "replications": 3,
        "base_seed": 7,
    }
    doc.update(overrides)
    return doc


class TestRunEpisode:
    def test_fixed_arm_forced_playout(self):
        spec = big_cost_trap_matrix(0.0, 5.0, optimal_arm=0)  # all costs 1
        trace = run_episode(PolicyConfig("fixed_arm", {"arm": 0}), spec, 5.0, 1, 2)
        assert trace.tau == 5
        assert trace.total_cost == 5.0
        assert trace.terminated_by is TerminationReason.BUDGET_EXHAUSTED
        assert trace.aborted_pull is None  # budget landed exactly on zero

    def test_identical_keys_identical_traces(self):
        params = InstanceParams(n_arms=3, budget=12.0, cost_min=0.25)
        spec = random_matrix_spec(params, RngStream(3, 1))
        a = run_episode(PolicyConfig(name="exp3bwk"), spec, 12.0, 99, 5)
        b = run_episode(PolicyConfig(name="exp3bwk"), spec, 12.0, 99, 5)
        assert a == b
        c = run_episode(PolicyConfig(name="exp3bwk"), spec, 12.0, 99, 6)
        assert c != a

    def test_budget_gap_below_cost_max_at_exhaustion(self):
        # against c_max = 1 matrices the leftover is always under 1
        for i in range(100):
            params = InstanceParams(n_arms=4, budget=9.0, cost_min=0.25)
            spec = random_matrix_spec(params, RngStream(11, 2 * i))
            trace = run_episode(PolicyConfig(name="exp3bwk"), spec, 9.0, 11, 2 * i + 1)
            assert trace.terminated_by is TerminationReason.BUDGET_EXHAUSTED
            assert trace.total_cost <= 9.0
            assert 9.0 - trace.total_cost < 1.0

    def test_mismatched_budget_rejected(self):
        spec = big_cost_trap_matrix(0.0, 5.0, optimal_arm=0)
        with pytest.raises(ValueError, match="different budget"):
            run_episode(PolicyConfig(name="uniform"), spec, 6.0, 1, 1)

    def test_horizon_cap_flags_runaway_environment(self):
        # a buggy environment that never charges anything must not hang
        class ZeroCostEnv:
            def __init__(self, params):
                self.params = params

            def step(self, t, arm, rng):
                from bwklab.core import Outcome

                return Outcome(reward=0.0, cost=0.0)

        params = InstanceParams(n_arms=2, budget=3.0, cost_min=0.5)
        with pytest.raises(RuntimeError, match="horizon cap of 7 rounds"):
            run_episode(PolicyConfig("fixed_arm", {"arm": 0}), ZeroCostEnv(params), 3.0, 1, 1)


class TestRunExperiment:
    def test_row_shape_and_determinism(self):
        cfg = parse_config(config_doc())
        rows = run_experiment(cfg)
        assert [r.budget for r in rows] == [20.0, 40.0]
        assert all(r.replications == 3 for r in rows)
        assert all(r.mean_total_cost <= r.budget for r in rows)
        assert rows == run_experiment(cfg)

    def test_single_replication_is_exact_episode(self):
        cfg = parse_config(config_doc(replications=1, budgets=[25]))
        rows = run_experiment(cfg)
        assert rows[0].stderr_regret == 0.0
        assert rows[0].mean_tau == float(int(rows[0].mean_tau))
        # the row reproduces one directly driven episode, bit for bit
        from bwklab.evaluation import stochastic_pseudo_regret

        spec = cfg.environment.build(25.0, RngStream(7, 0))
        trace = run_episode(cfg.policy, spec, 25.0, 7, episode_stream_id(25.0, 0))
        assert rows[0].mean_regret == stochastic_pseudo_regret(trace, spec)
        assert rows[0].mean_total_cost == trace.total_cost

    def test_doubling_replications_statistically_compatible(self):
        few = run_experiment(parse_config(config_doc(replications=8, budgets=[30])))[0]
        many = run_experiment(parse_config(config_doc(replications=16, budgets=[30])))[0]
        spread = 3.0 * (few.stderr_regret + many.stderr_regret)
        assert abs(few.mean_regret - many.mean_regret) <= spread

    def test_adding_budgets_keeps_existing_replications(self):
        short = run_experiment(parse_config(config_doc(budgets=[20, 40])))
        longer = run_experiment(parse_config(config_doc(budgets=[20, 40, 80])))
        assert short == longer[:2]

    def test_horizon_caps_runaway_tau(self):
        cfg = parse_config(config_doc())
        rows = run_experiment(cfg)
        for row in rows:
            cap = InstanceParams(2, row.budget, 0.5).horizon_cap()
            assert row.mean_tau <= cap

    def test_episode_errors_carry_context(self):
        doc = config_doc(
            policy={"name": "exp3pp_bwk"},
            budgets=[1, 20],  # B=1 cannot cover the init sweep of K=2 arms
        )
        with pytest.raises(RuntimeError, match=r"B=1.0, replication=0"):
            run_experiment(parse_config(doc))

    def test_horizon_cap_is_an_episode_error(self, monkeypatch):
        # every cost is at least cost_min > 0, so a run to the cap is a bug
        class ZeroCostSpec(StochasticEnvSpec):
            def step(self, t, arm, rng):
                return Outcome(super().step(t, arm, rng).reward, 0.0)

        build = EnvironmentConfig.build
        monkeypatch.setattr(
            EnvironmentConfig, "build", lambda self, *args: ZeroCostSpec(**vars(build(self, *args)))
        )
        with pytest.raises(
            RuntimeError, match=r"B=20.0, replication=0, seed=7\): RuntimeError: horizon cap of 41"
        ):
            run_experiment(parse_config(config_doc(policy={"name": "fixed_arm", "arm": 0})))

    def test_traces_come_from_the_one_run_of_each_episode(self, monkeypatch, tmp_path):
        from bwklab import harness

        calls = []
        run_once = harness.run_episode

        def counted(*args):
            calls.append(args[-1])
            return run_once(*args)

        monkeypatch.setattr(harness, "run_episode", counted)
        cfg = parse_config(config_doc(replications=2))
        run_experiment(cfg, trace_prefix=str(tmp_path / "t"))
        sids = [episode_stream_id(b, rep) for b in (20.0, 40.0) for rep in (0, 1)]
        assert calls == sids
        assert sorted(os.listdir(tmp_path)) == sorted(f"t_trace_{sid}.csv" for sid in sids)
        for sid in sids:
            assert len((tmp_path / f"t_trace_{sid}.csv").read_text().splitlines()) > 1


class TestConfigParsing:
    def test_unknown_keys_rejected_everywhere(self):
        with pytest.raises(ValueError, match="unknown keys"):
            parse_config(config_doc(bogus=1))
        doc = config_doc()
        doc["policy"]["gamma"] = 0.1  # must be gamma_override
        with pytest.raises(ValueError, match="unknown keys"):
            parse_config(doc)
        doc = config_doc()
        doc["environment"]["arms"][0]["reward"]["typ"] = "point"
        with pytest.raises(ValueError, match="unknown keys"):
            parse_config(doc)

    def test_budget_ordering_enforced(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            parse_config(config_doc(budgets=[40, 20]))
        with pytest.raises(ValueError, match="nonempty"):
            parse_config(config_doc(budgets=[]))

    def test_replication_floor(self):
        with pytest.raises(ValueError, match="replications"):
            parse_config(config_doc(replications=0))

    def test_policy_dispatch(self):
        for name in ("exp3bwk", "uniform"):
            cfg = parse_config(config_doc(policy={"name": name}))
            assert cfg.policy.name == name
        cfg = parse_config(config_doc(policy={"name": "fixed_arm", "arm": 1}))
        assert cfg.policy.params["arm"] == 1
        with pytest.raises(ValueError, match="unknown name"):
            parse_config(config_doc(policy={"name": "ucb"}))

    @pytest.mark.parametrize(
        "field, overrides",
        [
            ("budgets", {"budgets": "789"}),
            ("replications", {"replications": 2.7}),
            ("replications", {"replications": True}),
            ("n_arms", {"environment": {"kind": "hidden_best_arm", "n_arms": 2.9, "cost_min": 0.5}}),
            ("budgets", {"budgets": [math.inf]}),
            ("value", {"environment": dict(STOCH_ENV, arms=[NAN_REWARD_ARM])}),
            ("level_span", {"environment": dict(RANDOM_MATRIX_ENV, level_span=[0.1, 0.5, 0.9])}),
            ("optimal_arm", {"environment": dict(STOCH_ENV, optimal_arm="x")}),
        ],
    )
    def test_ill_typed_fields_rejected_at_parse(self, tmp_path, capsys, monkeypatch, field, overrides):
        doc = config_doc(**overrides)
        with pytest.raises(ValueError, match=field):
            parse_config(doc)
        from bwklab import harness
        from bwklab.cli import main

        episodes = []
        monkeypatch.setattr(harness, "run_episode", lambda *args: episodes.append(args))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert episodes == []

    def test_environment_file_indirection(self, tmp_path):
        env_path = tmp_path / "env.json"
        env_path.write_text(json.dumps(STOCH_ENV))
        cfg = parse_config(config_doc(environment=str(env_path)))
        assert cfg.environment.kind == "stochastic"

    def test_matrix_file_environment(self, tmp_path):
        params = InstanceParams(n_arms=2, budget=10.0, cost_min=0.5)
        spec = random_matrix_spec(params, RngStream(0))
        path = tmp_path / "m.csv"
        save_matrix_csv(spec, str(path))
        doc = config_doc(
            environment={"kind": "matrix_file", "path": str(path)}, budgets=[5, 10]
        )
        rows = run_experiment(parse_config(doc))
        assert len(rows) == 2


class TestFitLoglogSlope:
    def test_exact_sqrt_curve(self):
        points = [(b, 3.0 * math.sqrt(b)) for b in (10, 100, 1000, 10000)]
        assert fit_loglog_slope(points) == pytest.approx(0.5, abs=1e-9)

    def test_polylog_curve_fits_flat(self):
        points = [(b, 0.3 * math.log(b) ** 2) for b in (1e3, 1e4, 1e5)]
        assert fit_loglog_slope(points) < 0.3

    def test_scale_invariance(self):
        points = [(b, 2.0 * b**0.61) for b in (1e2, 1e3, 1e4)]
        scaled = [(b, 500.0 * r) for b, r in points]
        assert fit_loglog_slope(scaled) == pytest.approx(fit_loglog_slope(points))

    @pytest.mark.parametrize(
        "point",
        [(10.0, math.nan), (10.0, math.inf), (0.0, 1.0), (math.inf, 1.0)],
        ids=["nan_regret", "inf_regret", "zero_budget", "inf_budget"],
    )
    def test_non_finite_or_nonpositive_budget_points_rejected(self, point):
        points = [point, (100.0, 10.0), (1000.0, 31.6), (10000.0, 100.0)]
        with pytest.raises(ValueError, match=r"needs 0 < B < inf and a finite regret, got \("):
            fit_loglog_slope(points)

    def test_nonpositive_points_dropped_with_warning(self):
        points = [(10.0, -1.0), (100.0, 10.0), (1000.0, 31.6), (10000.0, 100.0)]
        with pytest.warns(UserWarning, match="nonpositive"):
            slope = fit_loglog_slope(points)
        assert slope == pytest.approx(0.5, abs=0.01)

    def test_repeated_budget_is_error(self, tmp_path, capsys):
        with pytest.raises(ValueError, match="distinct budgets"):
            fit_loglog_slope([(100.0, 1.0), (100.0, 2.0), (100.0, 3.0)])
        from bwklab.cli import main

        path = tmp_path / "s_summary.csv"
        rows = ["exp3bwk,100,2,%d,0.1,50,99" % r for r in (1, 2, 3)]
        path.write_text("\n".join([SUMMARY_HEADER, *rows]) + "\n")
        assert main(["slope", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "row, message",
        [
            ("exp3bwk,1000,2,inf,0.1,50,99", "mean_regret must be finite, got inf"),
            ("exp3bwk,1000,2,nan,0.1,50,99", "mean_regret must be finite, got nan"),
            ("exp3bwk,1000,2,3,0.1,nan,99", "mean_tau must be finite, got nan"),
            ("exp3bwk,0,2,3,0.1,50,99", "B must be positive, got 0.0"),
            ("exp3bwk,-10,2,3,0.1,50,99", "B must be positive, got -10.0"),
            ("exp3bwk,1000,0,3,0.1,50,99", "replications must be >= 1, got 0"),
            ("exp3bwk,1000,2,three,0.1,50,99", "could not convert"),
        ],
        ids=["inf_regret", "nan_regret", "nan_tau", "zero_budget", "negative_budget",
             "no_replications", "not_a_number"],
    )
    def test_slope_rejects_bad_summary_values(self, tmp_path, capsys, row, message):
        from bwklab.cli import main

        path = tmp_path / "s_summary.csv"
        good = ["exp3bwk,10,2,1,0.1,5,9", "exp3bwk,100,2,3,0.1,50,99"]
        path.write_text("\n".join([SUMMARY_HEADER, *good, row]) + "\n")
        assert main(["slope", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: line 4: ")
        assert message in err

    def test_too_few_points_is_error(self):
        with pytest.raises(ValueError, match="at least 3"):
            fit_loglog_slope([(10.0, 1.0), (20.0, 2.0)])
        with pytest.raises(ValueError):
            with pytest.warns(UserWarning):
                fit_loglog_slope([(10.0, 0.0), (20.0, 2.0), (30.0, 3.0)])


class TestEmitResults:
    def test_files_and_round_trip(self, tmp_path):
        cfg = parse_config(config_doc())
        rows = run_experiment(cfg)
        prefix = str(tmp_path / "exp")
        written = emit_results(rows, [], prefix, cfg)
        assert written == [f"{prefix}_summary.csv", f"{prefix}_config.json"]
        parsed = parse_summary_csv(written[0])
        for ours, theirs in zip(rows, parsed):
            assert theirs.policy == ours.policy
            for field in ("budget", "mean_regret", "stderr_regret", "mean_tau", "mean_total_cost"):
                a, b = getattr(ours, field), getattr(theirs, field)
                assert float(format(a, ".12g")) == b
        echoed = json.loads((tmp_path / "exp_config.json").read_text())
        assert echoed["replications"] == 3
        assert echoed["environment"]["cost_max"] == 1.0  # default filled in

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = parse_config(config_doc())
        rows = run_experiment(cfg)
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        emit_results(rows, [], a, cfg)
        emit_results(run_experiment(cfg), [], b, cfg)
        assert (tmp_path / "a_summary.csv").read_bytes() == (tmp_path / "b_summary.csv").read_bytes()
        assert (tmp_path / "a_config.json").read_bytes() == (tmp_path / "b_config.json").read_bytes()

    @staticmethod
    def direct_episode(cfg, budget, rep):
        """One episode of ``cfg`` run directly: (stream id, trace)."""
        env_rng = RngStream(cfg.base_seed, instance_stream_id(budget, rep))
        spec = cfg.environment.build(budget, env_rng)
        sid = episode_stream_id(budget, rep)
        return sid, run_episode(cfg.policy, spec, budget, cfg.base_seed, sid)

    def test_trace_emission(self, tmp_path):
        cfg = parse_config(config_doc(replications=1, budgets=[10]))
        rows = run_experiment(cfg)
        sid, trace = self.direct_episode(cfg, 10.0, 0)
        prefix = str(tmp_path / "t")
        written = emit_results(rows, [(sid, trace)], prefix, cfg)
        assert written[2] == f"{prefix}_trace_{sid}.csv"
        with open(written[2]) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "t,arm,reward,cost,budget_after,prob_selected"
        assert len(lines) == 1 + len(trace.columns)
        cols = trace.columns
        i = len(cols) - 1
        arm = cols.arm[i]
        prob = cols.probs[i * cols.width + arm]
        floats = (cols.reward[i], cols.cost[i], cols.budget_after[i], prob)
        assert lines[-1] == ",".join([str(cols.t[i]), str(arm), *(f"{x:.12g}" for x in floats)])

    def test_worker_trace_matches_emitted_trace(self, tmp_path):
        cfg = parse_config(config_doc(replications=2, budgets=[10]))
        run_experiment(cfg, threads=2, trace_prefix=str(tmp_path / "run"))
        for rep in range(2):
            sid, trace = self.direct_episode(cfg, 10.0, rep)
            _, _, path = emit_results([], [(sid, trace)], str(tmp_path / "direct"), cfg)
            with open(path, "rb") as fh:
                assert fh.read() == (tmp_path / f"run_trace_{sid}.csv").read_bytes()


class TestCli:
    @staticmethod
    def run_cli(tmp_path, doc, *flags):
        from bwklab.cli import main

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        return main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o"), *flags])

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_emitted_traces_do_not_depend_on_worker_count(self, tmp_path, capsys, threads):
        doc = config_doc(budgets=[10, 20], replications=5)
        assert self.run_cli(tmp_path, doc, "--emit-traces") == 0
        serial = {p: Path(p).read_bytes() for p in capsys.readouterr().out.split()}
        assert len(serial) == 2 + 10
        for p in serial:
            os.remove(p)
        assert self.run_cli(tmp_path, doc, "--emit-traces", "--threads", threads) == 0
        pooled = {p: Path(p).read_bytes() for p in capsys.readouterr().out.split()}
        assert pooled == serial

    def test_trace_paths_print_in_episode_order(self, tmp_path, capsys):
        doc = config_doc(replications=2)
        assert self.run_cli(tmp_path, doc, "--emit-traces", "--threads", "2") == 0
        prefix = tmp_path / "o"
        sids = [episode_stream_id(b, rep) for b in (20.0, 40.0) for rep in (0, 1)]
        assert capsys.readouterr().out.split() == [
            f"{prefix}_summary.csv",
            f"{prefix}_config.json",
            *(f"{prefix}_trace_{sid}.csv" for sid in sids),
        ]

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_is_usage_error(self, tmp_path, capsys, threads):
        with pytest.raises(SystemExit) as exit_:
            self.run_cli(tmp_path, config_doc(), "--threads", threads)
        assert exit_.value.code == 2
        assert "--threads: must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_episode_error_names_its_cause(self, tmp_path, capsys, threads):
        fixed_arm_5 = config_doc(policy={"name": "fixed_arm", "arm": 5})
        assert self.run_cli(tmp_path, fixed_arm_5, "--threads", threads) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: episode failed (B=20.0, replication=0, seed=7)")
        assert "ValueError: arm 5 out of range" in err

        path = tmp_path / "m.csv"
        rows = ["1,0,0.5,nan", "1,1,0.5,1", "2,0,0.5,1", "2,1,0.5,1"]
        path.write_text("\n".join(["t,arm,reward,cost", *rows]) + "\n")
        env = {"kind": "matrix_file", "path": str(path), "cost_min": 0.5, "cost_max": 1.0}
        nan_cost = config_doc(environment=env, budgets=[1])
        assert self.run_cli(tmp_path, nan_cost, "--threads", threads) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: episode failed (B=1.0, replication=0, seed=7)")
        assert f"ValueError: {path}: line 2: reward and cost must be finite" in err

    @staticmethod
    def invalid_configs(tmp_path):
        """Configs that parse but that a constructor rejects: (doc, failing B, cause)."""
        short = tmp_path / "short.csv"  # 10 rounds: enough for B=5, too few for B=40
        save_matrix_csv(random_matrix_spec(InstanceParams(2, 5.0, 0.5), RngStream(0)), str(short))
        missing = tmp_path / "missing.csv"
        arm = STOCH_ENV["arms"][0]
        return {
            "alpha_below_3": (
                config_doc(policy={"name": "exp3pp_bwk", "alpha": 2}),
                20.0, "ValueError: alpha must be at least 3",
            ),
            "fixed_arm_out_of_range": (
                config_doc(policy={"name": "fixed_arm", "arm": 2}),
                20.0, "ValueError: arm 2 out of range",
            ),
            "lambda_above_cost_min": (
                config_doc(policy={"name": "exp3pp_bwk", "lambda": 0.75}),
                20.0, "ValueError: lambda must lie in (0, cost_min]",
            ),
            "reward_outside_interval": (
                config_doc(environment=dict(STOCH_ENV, arms=[
                    dict(arm, reward={"type": "point", "value": 1.5}), arm,
                ])),
                20.0, "ValueError: reward support must lie inside [0, 1]",
            ),
            "cost_outside_interval": (
                config_doc(environment=dict(STOCH_ENV, arms=[
                    dict(arm, cost={"type": "uniform", "low": 0.25, "high": 0.75}), arm,
                ])),
                20.0, "ValueError: cost support must lie inside [cost_min, cost_max]",
            ),
            "hidden_best_arm_budget_too_small": (
                config_doc(
                    environment={"kind": "hidden_best_arm", "n_arms": 2, "cost_min": 0.5},
                    budgets=[1, 20],
                ),
                1.0, "ValueError: budget too small for hidden-best-arm construction",
            ),
            "matrix_file_missing": (
                config_doc(environment={"kind": "matrix_file", "path": str(missing)}),
                20.0, f"FileNotFoundError: [Errno 2] No such file or directory: '{missing}'",
            ),
            "matrix_file_too_short": (
                config_doc(
                    environment={"kind": "matrix_file", "path": str(short), "cost_min": 0.5},
                    budgets=[5, 40],
                ),
                40.0, "ValueError: horizon too short: 10 rows < ceil(B/c_min) = 80",
            ),
        }

    @pytest.mark.parametrize(
        "case",
        [
            "alpha_below_3", "fixed_arm_out_of_range", "lambda_above_cost_min",
            "reward_outside_interval", "cost_outside_interval",
            "hidden_best_arm_budget_too_small", "matrix_file_missing", "matrix_file_too_short",
        ],
    )
    def test_invalid_config_fails_before_any_episode(self, tmp_path, capsys, monkeypatch, case):
        from bwklab import harness

        doc, budget, cause = self.invalid_configs(tmp_path)[case]
        line = f"error: episode failed (B={budget}, replication=0, seed=7): {cause}\n"
        assert self.run_cli(tmp_path, doc, "--threads", "2") == 1
        assert capsys.readouterr().err == line
        episodes = []
        monkeypatch.setattr(harness, "_episode_task", episodes.append)
        assert self.run_cli(tmp_path, doc) == 1
        assert capsys.readouterr().err == line
        assert episodes == []

    def test_run_slope_genenv(self, tmp_path, capsys):
        from bwklab.cli import main

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_doc(budgets=[10, 20, 40])))
        out_prefix = str(tmp_path / "out")
        assert main(["run", "--config", str(cfg_path), "--out", out_prefix]) == 0
        assert (tmp_path / "out_summary.csv").exists()

        assert main(["slope", f"{out_prefix}_summary.csv"]) == 0
        printed = capsys.readouterr().out.strip().splitlines()[-1]
        float(printed)  # parses as a number

        matrix_path = tmp_path / "trap.csv"
        assert (
            main(
                [
                    "gen-env", "--kind", "big-cost-trap", "--alpha", "0.5",
                    "--budget", "100", "--optimal-arm", "0", "--out", str(matrix_path),
                ]
            )
            == 0
        )
        assert matrix_path.exists()

        env_path = tmp_path / "env.json"
        assert (
            main(
                [
                    "gen-env", "--kind", "hidden-best-arm", "--arms", "4",
                    "--budget", "400", "--cost-min", "0.25", "--seed", "3",
                    "--out", str(env_path),
                ]
            )
            == 0
        )
        doc = json.loads(env_path.read_text())
        assert doc["kind"] == "stochastic"
        means = [a["reward"]["p"] for a in doc["arms"]]
        assert max(means) == pytest.approx(0.55)

    def test_error_paths_exit_nonzero(self, tmp_path, capsys):
        from bwklab.cli import main

        assert main(["run", "--config", str(tmp_path / "missing.json")]) == 1
        assert "error:" in capsys.readouterr().err
        bad_cfg = tmp_path / "bad.json"
        bad_cfg.write_text(json.dumps(config_doc(bogus=1)))
        assert main(["run", "--config", str(bad_cfg), "--out", str(tmp_path / "x")]) == 1
        assert "unknown keys" in capsys.readouterr().err
