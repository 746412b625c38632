import dataclasses
import inspect

import numpy as np
import pytest

from ctdhedge import cli, ctd, hedging
from ctdhedge.cli import main
from ctdhedge.config import (
    _FIELDS,
    _TOP_FIELDS,
    ConfigError,
    ExperimentConfig,
    apply_override,
    bundled_config_path,
    load_config,
    parse_config,
    serialize_config,
)
from ctdhedge.ctd import NumericalError
from ctdhedge.instruments import swap_value
from explicit_serialize_config import serialize_config as explicit_serialize_config

MINIMAL = """
seed = 77
command = price

[horizon]
t0 = 0.0
maturity = 2.0
nodes_per_year = 24

[domestic]
kappa = 0.01
xi = 0.0
curve.grid = 0.0, 3.0
curve.values = 0.0, 0.0

[spread.1]
kappa = 0.0078
xi = 0.0018
curve.grid = 0.0, 3.0
curve.values = 0.003, 0.004

[spread.2]
kappa = 0.0076
xi = 0.0023
curve.grid = 0.0, 3.0
curve.values = 0.002, 0.001

[correlation]
rho_1_2 = 0.3
"""


class TestParsing:
    def test_minimal_roundtrip(self):
        cfg = parse_config(MINIMAL)
        assert cfg.seed == 77
        assert cfg.maturity == 2.0
        model = cfg.build_model()
        assert model.n_spreads == 2
        again = parse_config(serialize_config(cfg))
        assert serialize_config(again) == serialize_config(cfg)

    def test_unknown_key_names_line_and_suggests(self):
        bad = MINIMAL.replace("maturity = 2.0", "maturty = 2.0")
        with pytest.raises(ConfigError) as err:
            parse_config(bad, source="test.cfg")
        assert "maturty" in str(err.value)
        assert "maturity" in str(err.value)  # suggestion
        assert "test.cfg:" in str(err.value)

    def test_unknown_section_suggests(self):
        bad = MINIMAL + "\n[horizonn]\n"
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert "horizon" in str(err.value)

    def test_spread_numbering_must_be_contiguous(self):
        bad = MINIMAL.replace("[spread.2]", "[spread.3]")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert "numbered" in str(err.value)

    def test_correlation_key_shape(self):
        bad = MINIMAL.replace("rho_1_2", "rho_12")
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_correlation_must_reference_processes(self):
        bad = MINIMAL.replace("rho_1_2 = 0.3", "rho_1_5 = 0.3")
        cfg = parse_config(bad)
        with pytest.raises(ConfigError):
            cfg.build_model()

    def test_unknown_command(self):
        bad = MINIMAL.replace("command = price", "command = priceee")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert "price" in str(err.value)

    def test_overrides(self):
        cfg = parse_config(MINIMAL)
        apply_override(cfg, "horizon.maturity", "3.0")
        apply_override(cfg, "spread.1.xi", "0.002")
        apply_override(cfg, "mc.paths", "500")
        assert cfg.maturity == 3.0
        assert cfg.spreads[0]["xi"] == 0.002
        assert cfg.mc_paths == 500
        with pytest.raises(ConfigError):
            apply_override(cfg, "horizon.matury", "3.0")
        # section keys are checked as the file parser checks them, with its suggestion
        for dotted, hint in (("spread.1.kapa", "kappa"), ("domestic.xii", "xi"),
                             ("theta.bogus", None), ("spread.0.xi", None)):
            with pytest.raises(ConfigError) as err:
                apply_override(cfg, dotted, "5")
            assert hint is None or f"did you mean {hint!r}" in str(err.value)
        assert cfg.theta_intervals_per_year == 12
        apply_override(cfg, "hedge.strategies", "stochastic,none")
        assert cfg.hedge_strategies == "stochastic,none"

    @pytest.mark.parametrize(
        "name", ["experiment1", "experiment2", "fig2_sensitivity", "fig5_sensitivity", "swap_pnl"]
    )
    def test_serializer_matches_explicit_reference(self, name):
        cfg = load_config(name)
        assert serialize_config(cfg) == explicit_serialize_config(cfg)
        for dotted, value in (("horizon.maturity", "20"), ("spread.1.xi", "0.002"),
                              ("mc.paths", "500"), ("hedge.strategies", "stochastic,none"),
                              ("acceptance.criteria", "a01"),
                              ("pnl.payment_dates", "1, 2.5, 4"), ("pnl.fixed_rate", "0.013"),
                              ("pnl.schemes", "none, common_factor"), ("correlation.rho_0_2", "0.1")):
            apply_override(cfg, dotted, value)
            assert serialize_config(cfg) == explicit_serialize_config(cfg), dotted

    def test_key_tables_name_every_field_once(self):
        # a key removed on one side only leaves a field no file can set, or a
        # key that names no field
        targets = [attr for attr, _ in _TOP_FIELDS.values()]
        targets += [attr for keys in _FIELDS.values() for attr, _ in keys.values()]
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert sorted(targets) == sorted(fields - {"domestic", "spreads", "correlations"})

    def test_bundled_configs_resolve(self):
        assert bundled_config_path("experiment1") is not None
        assert bundled_config_path("experiment2") is not None
        assert bundled_config_path("missing_config") is None
        cfg = load_config("experiment1")
        assert cfg.build_model().n_spreads == 2
        assert load_config("three_spreads").build_model().n_spreads == 3


class TestCli:
    def _write(self, tmp_path, text=MINIMAL):
        p = tmp_path / "run.cfg"
        p.write_text(text)
        return p

    def test_price_command_writes_artifacts(self, tmp_path):
        cfg = self._write(tmp_path)
        out = tmp_path / "out"
        code = main(["price", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert (out / "price.csv").exists()
        assert (out / "max_moments.csv").exists()
        assert (out / "effective.cfg").exists()
        header = (out / "price.csv").read_text().splitlines()[0]
        assert header.startswith("method,t0,maturity,ctd")

    def test_validation_error_exit_code(self, tmp_path):
        cfg = self._write(tmp_path, MINIMAL.replace("kappa = 0.0078", "kappa = -1.0"))
        assert main(["price", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["price", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 2

    def test_bad_override_exit_code(self, tmp_path, capsys):
        cfg = self._write(tmp_path)
        for item in ("horizon.bogus=1", "spread.1.kapa=5", "domestic.xii=0.01", "theta.bogus=5",
                     "horizon.maturity=abc", "correlation.rho_a_b=0.1",
                     "hedge.sd_points_per_year=x", "spread.1.xi=abc", "spread.x.xi=1",
                     "command=bogus", "command=price"):
            code = main(["price", "--config", str(cfg), "--set", item,
                         "--out", str(tmp_path / "o")])
            assert code == 2, item
            assert "configuration error: --set " in capsys.readouterr().err
        # a curve the model rejects is a configuration error too
        assert main(["price", "--config", str(cfg), "--set", "spread.1.curve.grid=5",
                     "--out", str(tmp_path / "o")]) == 2
        assert "[spread.1] curve: " in capsys.readouterr().err
        # a non-numeric value in the file names its line
        bad = tmp_path / "bad.cfg"
        bad.write_text(MINIMAL.replace("maturity = 2.0", "maturity = abc"))
        assert main(["price", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        lineno = MINIMAL.splitlines().index("maturity = 2.0") + 1
        assert f"{bad}:{lineno}: invalid maturity 'abc'" in capsys.readouterr().err
        out = tmp_path / "s"
        assert main(["price", "--config", str(cfg), "--set", "hedge.strategies=stochastic,none",
                     "--out", str(out)]) == 0
        assert "strategies = stochastic,none\n" in (out / "effective.cfg").read_text()

    def test_unknown_strategy_exit_code(self, tmp_path, capsys):
        cfg = self._write(tmp_path)
        for strategies in ("basic_qx", "basic_q", "stochastic,bogus", "none,basic_q0", "basic_q3",
                           "basic_q01"):
            code = main(["hedge", "--config", str(cfg), "--out", str(tmp_path / "o"),
                         "--set", f"hedge.strategies={strategies}"])
            assert code == 2, strategies
            assert "unknown strategy" in capsys.readouterr().err

    @pytest.mark.parametrize("strategies, twice", [
        ("none,stochastic,stochastic", "stochastic"), ("basic_q1, none ,basic_q1", "basic_q1"),
    ])
    def test_repeated_strategy_exit_code(self, tmp_path, capsys, strategies, twice):
        code = main(["hedge", "--config", str(self._write(tmp_path)), "--out", str(tmp_path / "o"),
                     "--set", f"hedge.strategies={strategies}"])
        assert code == 2
        assert f"strategy {twice!r} is listed twice" in capsys.readouterr().err
        assert not (tmp_path / "o" / "hedge_report.csv").exists()

    @pytest.mark.parametrize("strategies", ["", ","])
    def test_empty_strategy_list_exit_code(self, tmp_path, capsys, monkeypatch, strategies):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the strategy list was checked")

        monkeypatch.setattr(cli, "simulate", no_simulation)
        code = main(["hedge", "--config", "experiment1", "--out", str(tmp_path / "o"),
                     "--set", f"hedge.strategies={strategies}"])
        assert code == 2
        assert "[hedge] strategies" in capsys.readouterr().err

    @pytest.mark.parametrize("config", ["experiment1", "three_spreads"])
    def test_hedge_prices_its_inception_once(self, tmp_path, monkeypatch, config):
        original = ctd._cf_pipeline
        signature = inspect.signature(original)
        inception = []  # passes at the model's state, not re-anchored at displacements

        def spy(*args, **kwargs):
            if signature.bind(*args, **kwargs).arguments.get("displacements") is None:
                inception.append(args[1:3])
            return original(*args, **kwargs)

        for module in (ctd, hedging):
            monkeypatch.setattr(module, "_cf_pipeline", spy)
        assert main(["hedge", "--config", config, "--paths", "200", "--set", "horizon.maturity=1",
                     "--out", str(tmp_path / "o")]) == 0
        assert inception == [(0.0, (1.0,))]

    def test_domestic_spread_correlation_is_announced(self, tmp_path, capsys):
        note = "note: only the simulator sees rho_0_1 = 0.5; the analytic prices treat the spreads"
        for config, extra, shown in (("swap_pnl", ["--set", "correlation.rho_0_1=0.5"], True),
                                     ("swap_pnl", [], False),  # its rho_0_i are zero
                                     ("experiment1", ["--set", "correlation.rho_0_1=0.5"], False)):
            assert main(["price", "--config", config, *extra, "--out", str(tmp_path / "o")]) == 0
            out = capsys.readouterr().out
            assert out.startswith(note) == shown, (config, extra)
            assert ("only the simulator sees" in out) == shown, (config, extra)

    def test_seed_stays_exact_on_every_entry_path(self, tmp_path):
        big = 12345678901234567891
        text = MINIMAL.replace("seed = 77", f"seed = {big}")
        for k, extra in enumerate(([], ["--set", f"seed={big}"], ["--seed", str(big)])):
            out = tmp_path / f"o{k}"
            config = self._write(tmp_path, MINIMAL if extra else text)
            assert main(["price", "--config", str(config), "--out", str(out), *extra]) == 0
            assert f"seed = {big}\n" in (out / "effective.cfg").read_text()

    def test_fractional_seed_and_index_exit_code(self, tmp_path, capsys):
        cfg = self._write(tmp_path)
        for item in ("seed=3.9", "sensitivity.index=1.7"):
            code = main(["sensitivity", "--config", str(cfg), "--set", item,
                         "--out", str(tmp_path / "o")])
            assert code == 2, item
            key, _, value = item.partition("=")
            assert (f"configuration error: --set {key}: invalid {key.split('.')[-1]} {value}"
                    in capsys.readouterr().err)
        bad = self._write(tmp_path, MINIMAL.replace("seed = 77", "seed = 3.9"))
        assert main(["price", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert f"{bad}:2: invalid seed 3.9" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["price", "--config", str(cfg), "--seed", "3.9", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

    def test_repeated_scheme_exit_code(self, tmp_path, capsys, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the schemes were checked")

        monkeypatch.setattr(cli, "simulate", no_simulation)
        text = MINIMAL + "\n[pnl]\npayment_dates = 1.0, 2.0\n"
        code = main(["simulate-pnl", "--config", str(self._write(tmp_path, text)),
                     "--out", str(tmp_path / "o"), "--set", "pnl.schemes=none,none,common_factor"])
        assert code == 2
        assert "scheme 'none' is listed twice" in capsys.readouterr().err
        assert not (tmp_path / "o" / "pnl.csv").exists()

    def test_more_samples_than_paths_exit_code(self, tmp_path, capsys, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the sample count was checked")

        monkeypatch.setattr(cli, "simulate", no_simulation)
        code = main(["hedge", "--config", str(self._write(tmp_path)), "--out", str(tmp_path / "o"),
                     "--paths", "200", "--set", "hedge.sample_paths=500"])
        assert code == 2
        assert "sample_paths 500 exceeds the 200 simulated paths" in capsys.readouterr().err
        assert not (tmp_path / "o" / "sample_paths.csv").exists()

    @pytest.mark.parametrize("command, key", [
        ("hedge", "hedge.sd_points_per_year"), ("hedge", "hedge.sample_paths"),
        ("sensitivity", "sensitivity.sweep_count"), ("simulate-pnl", "pnl.rebalance_per_year"),
        ("calibrate-theta", "theta.intervals_per_year"), ("price", "horizon.nodes_per_year"),
        ("hedge", "mc.paths"), ("simulate-pnl", "mc.steps_per_year"),
    ])
    @pytest.mark.parametrize("value", ["-1", "0", "2.5"])
    def test_count_keys_take_positive_integers(self, tmp_path, capsys, command, key, value):
        text = MINIMAL + "\n[pnl]\npayment_dates = 1.0, 2.0\n"
        code = main([command, "--config", str(self._write(tmp_path, text)),
                     "--out", str(tmp_path / "o"), "--paths", "100", "--set", f"{key}={value}"])
        assert code == 2
        name = key.partition(".")[2]
        assert f"configuration error: --set {key}: invalid {name} {value}" in capsys.readouterr().err

    def test_xi_sweep_below_the_bump_exit_code(self, tmp_path, capsys):
        code = main(["sensitivity", "--config", "fig2_sensitivity", "--out", str(tmp_path / "o"),
                     "--set", "sensitivity.sweep_start=0", "--set", "sensitivity.sweep_count=2"])
        assert code == 2
        assert "xi bump of 0.0002 takes spread 1 below zero" in capsys.readouterr().err

    def test_unknown_cash_weight_policy_exit_code(self, tmp_path, capsys):
        code = main(["hedge", "--config", str(self._write(tmp_path)), "--out", str(tmp_path / "o"),
                     "--set", "hedge.alpha0_policy=free"])
        assert code == 2
        assert "alpha0_policy must be one of ('cash_neutral', 'zero')" in capsys.readouterr().err

    def test_acceptance_criteria_override(self, tmp_path):
        cfg = self._write(tmp_path)
        out = tmp_path / "a"
        assert main(["acceptance", "--config", str(cfg), "--set", "acceptance.criteria=x05",
                     "--out", str(out)]) == 0
        assert "x05_operation_coverage" in (out / "acceptance_report.csv").read_text()
        effective = (out / "effective.cfg").read_text()
        assert effective.endswith("\n[acceptance]\ncriteria = x05\n")
        assert parse_config(effective).acceptance_criteria == "x05"
        # the default criteria write no [acceptance] section
        plain = tmp_path / "p"
        assert main(["price", "--config", str(cfg), "--out", str(plain)]) == 0
        assert "[acceptance]" not in (plain / "effective.cfg").read_text()

    def test_acceptance_criteria_select_several_cases(self, tmp_path):
        out = tmp_path / "a"
        assert main(["acceptance", "--config", "experiment1", "--set", "acceptance.criteria=a01,x05",
                     "--out", str(out)]) == 0
        rows = (out / "acceptance_report.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["a01_theta_calibration", "x05_operation_coverage"]
        assert parse_config((out / "effective.cfg").read_text()).acceptance_criteria == "a01,x05"

    def test_acceptance_criteria_matching_nothing_exit_code(self, tmp_path, capsys):
        out = tmp_path / "a"
        assert main(["acceptance", "--config", "experiment1", "--set",
                     "acceptance.criteria=nosuchcase", "--out", str(out)]) == 2
        assert "match no case id" in capsys.readouterr().err
        assert not (out / "acceptance_report.csv").exists()

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        def fail(*args):
            raise NumericalError("solver diverged")

        monkeypatch.setattr(hedging, "_box_qp", fail)
        cfg = self._write(tmp_path)
        code = main(["hedge", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--paths", "400", "--set", "hedge.sd_points_per_year=1"])
        assert code == 3
        assert "numerical failure: solver diverged" in capsys.readouterr().err

    def test_malformed_thread_cap_exit_code(self, tmp_path, monkeypatch, capsys):
        cfg = self._write(tmp_path)
        monkeypatch.setenv("CTD_THREADS", "abc")
        assert main(["price", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "CTD_THREADS" in capsys.readouterr().err

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = self._write(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["price", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["price", "--config", str(cfg), "--out", str(out2)]) == 0
        for f in out1.iterdir():
            assert (out2 / f.name).read_bytes() == f.read_bytes()

    def test_effective_config_reproduces_results(self, tmp_path):
        cfg = self._write(tmp_path)
        out1 = tmp_path / "a"
        assert main(["price", "--config", str(cfg), "--out", str(out1)]) == 0
        out2 = tmp_path / "b"
        assert main(["price", "--config", str(out1 / "effective.cfg"), "--out", str(out2)]) == 0
        assert (out1 / "price.csv").read_bytes() == (out2 / "price.csv").read_bytes()

    def test_sensitivity_command(self, tmp_path):
        text = MINIMAL + "\n[sensitivity]\nkind = mean_level\nindex = 2\nsweep_start = 0.0\nsweep_stop = 0.006\nsweep_count = 3\n"
        cfg = self._write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["sensitivity", "--config", str(cfg), "--out", str(out), "--svg"]) == 0
        lines = (out / "sensitivity.csv").read_text().splitlines()
        assert lines[0] == "parameter,bump_index,ctd_det,ctd_cf,dctd_det,dctd_cf"
        assert len(lines) == 4
        assert (out / "sensitivity.svg").exists()

    def test_theta_command(self, tmp_path):
        cfg = self._write(tmp_path)
        out = tmp_path / "out"
        assert main(["calibrate-theta", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "theta.csv").read_text().splitlines()
        assert lines[0] == "spread,interval_start,interval_end,theta,mean_error"

    def test_hedge_command_small(self, tmp_path):
        cfg = self._write(tmp_path)
        out = tmp_path / "out"
        code = main(["hedge", "--config", str(cfg), "--out", str(out),
                     "--paths", "400", "--set", "hedge.sd_points_per_year=1"])
        assert code == 0
        report = (out / "hedge_report.csv").read_text().splitlines()
        assert report[0].startswith("strategy,alpha_0,alpha_1,alpha_2,cash")
        names = [r.split(",")[0] for r in report[1:]]
        assert names == ["stochastic", "deterministic", "none", "basic_q1", "basic_q2"]
        assert (out / "sd_paths.csv").exists()
        assert (out / "crossing_schedule.csv").exists()

    def test_pnl_command_small(self, tmp_path):
        text = MINIMAL + "\n[pnl]\npayment_dates = 1.0, 2.0\nfixed_rate = par\nnotional = 1.0\nrebalance_per_year = 2\nschemes = none, common_factor\n"
        cfg = self._write(tmp_path, text)
        out = tmp_path / "out"
        code = main(["simulate-pnl", "--config", str(cfg), "--out", str(out), "--paths", "300"])
        assert code == 0
        lines = (out / "pnl.csv").read_text().splitlines()
        assert lines[0].startswith("scheme,mean,sd,q05")
        assert len(lines) == 3
        assert (out / "pnl_hist.csv").exists()

    @pytest.mark.parametrize("args", [
        ["hedge", "--config", "experiment1", "--set", "horizon.maturity=1",
         "--set", "hedge.sd_points_per_year=5", "--set", "mc.steps_per_year=15"],
        ["simulate-pnl", "--config", "swap_pnl", "--set", "horizon.maturity=4",
         "--set", "mc.steps_per_year=33", "--set", "pnl.payment_dates=4",
         "--set", "pnl.rebalance_per_year=9"],
    ])
    def test_observation_times_off_the_uniform_steps(self, tmp_path, args):
        # linspace puts an observation time one ulp from a step node of its own
        assert main([*args, "--paths", "200", "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("args, fragment", [
        (["price", "--config", "experiment1", "--set", "horizon.maturity=13"],
         "time 13 outside curve domain [0, 12]"),
        (["simulate-pnl", "--config", "swap_pnl", "--set", "pnl.payment_dates=0,1,2",
          "--set", "horizon.maturity=2"], "first payment date 0 must fall after the start 0"),
        (["hedge", "--config", "experiment1", "--set", "horizon.t0=10", "--set", "horizon.maturity=10"],
         "hedge needs maturity > t0, got t0 10 and maturity 10"),
    ], ids=["maturity_past_the_curves", "first_payment_at_the_start", "empty_hedge_horizon"])
    def test_inputs_outside_the_model_exit_code(self, tmp_path, capsys, args, fragment):
        assert main([*args, "--paths", "200", "--out", str(tmp_path / "o")]) == 2
        assert f"configuration error: {fragment}" in capsys.readouterr().err

    def test_pnl_hedges_the_swap_it_prices(self, tmp_path, monkeypatch):
        # the par rate and the P&L read one schedule, which starts at horizon.t0
        seen = []

        def spy(model, swap, schemes, bundle, nodes_per_year=24):
            seen.append((model, swap))
            return {name: np.linspace(0.0, 1.0, bundle.n_paths) for name in schemes}

        monkeypatch.setattr(cli, "synthetic_replication_pnl", spy)
        assert main(["simulate-pnl", "--config", "swap_pnl", "--paths", "200",
                     "--set", "horizon.t0=1.5", "--set", "pnl.payment_dates=2,3",
                     "--out", str(tmp_path / "o")]) == 0
        [(model, swap)] = seen
        assert swap.periods()[0] == (1.5, 2.0, 0.5)
        assert swap.payer
        assert abs(swap_value(model, swap, 1.5)) <= 1e-12 * swap.notional

    def test_first_payment_at_or_before_t0_exit_code(self, tmp_path, capsys):
        assert main(["simulate-pnl", "--config", "swap_pnl", "--paths", "200",
                     "--set", "horizon.t0=1.5", "--set", "pnl.payment_dates=1,2",
                     "--out", str(tmp_path / "o")]) == 2
        assert ("configuration error: first payment date 1 must fall after the start 1.5"
                in capsys.readouterr().err)

    def test_paths_flag_takes_the_count_check(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["price", "--config", "experiment1", "--paths", "-3", "--out", str(out)]) == 2
        assert "configuration error: --set mc.paths: invalid paths -3" in capsys.readouterr().err
        assert not (out / "effective.cfg").exists()

    def test_theta_check_starts_at_t0(self, tmp_path, capsys):
        # the mean recursion starts where the calibration does, not at the curve start
        assert main(["calibrate-theta", "--config", "experiment1", "--set", "horizon.t0=2",
                     "--out", str(tmp_path / "o")]) == 0
        worst = float(capsys.readouterr().out.split("max |mean error| = ")[1])
        assert worst < 1e-15

    def test_pnl_command_passes_nodes_per_year(self, tmp_path, monkeypatch):
        seen = []

        def spy(model, swap, schemes, bundle, nodes_per_year=24):
            seen.append(nodes_per_year)
            return {name: np.linspace(0.0, 1.0, bundle.n_paths) for name in schemes}

        monkeypatch.setattr(cli, "synthetic_replication_pnl", spy)
        text = MINIMAL + "\n[pnl]\npayment_dates = 1.0, 2.0\nschemes = none, common_factor\n"
        args = ["simulate-pnl", "--out", str(tmp_path / "out"), "--paths", "300"]
        assert main([*args, "--config", str(self._write(tmp_path, text)),
                     "--set", "horizon.nodes_per_year=6"]) == 0
        assert main([*args, "--config", str(self._write(tmp_path, text))]) == 0
        unset = text.replace("nodes_per_year = 24\n", "")
        assert main([*args, "--config", str(self._write(tmp_path, unset))]) == 0
        assert seen == [6, 24, 48]
