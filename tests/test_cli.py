import json

import pytest
from click.testing import CliRunner

from fva_pricer.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result.output


class TestPriceCommand:
    def test_riskfree_analytic_matches_published_value(self, runner):
        out = run_ok(runner, ["price", "--kind", "put", "--spot", "100",
                              "--strike", "100", "--expiry", "2", "--rate", "0.10",
                              "--vol", "0.5", "--side", "riskfree",
                              "--engine", "analytic", "--format", "json"])
        payload = json.loads(out)
        assert payload["mid_reference"] == pytest.approx(17.0183, abs=1e-4)
        assert payload["bid"] == payload["ask"] == payload["mid_reference"]
        assert payload["f_b"] == 0.0

    def test_riskfree_pde_close_to_published_fd_value(self, runner):
        out = run_ok(runner, ["price", "--kind", "put", "--side", "riskfree",
                              "--engine", "pde", "--nodes", "2000", "--dt", "0.02",
                              "--format", "json"])
        payload = json.loads(out)
        assert payload["mid_reference"] == pytest.approx(17.0173, abs=1e-3)

    def test_negative_borrow_spread_exits_2(self, runner):
        result = runner.invoke(main, ["price", "--kind", "put",
                                      "--borrow-spread", "-0.01"])
        assert result.exit_code == 2
        assert "borrow-spread" in result.output
        assert "InvalidRateOrder" in result.output

    def test_funded_quote_orders_sides(self, runner):
        out = run_ok(runner, ["price", "--kind", "call", "--borrow-spread", "0.03",
                              "--repo-spread", "0.005", "--rebate-spread", "-0.005",
                              "--nodes", "500", "--dt", "0.04", "--format", "json"])
        payload = json.loads(out)
        assert payload["bid"] < payload["mid_reference"] < payload["ask"]
        assert payload["f_b"] > 0 and payload["f_a"] > 0

    def test_absolute_and_spread_flags_conflict(self, runner):
        result = runner.invoke(main, ["price", "--kind", "call",
                                      "--borrow-rate", "0.12",
                                      "--borrow-spread", "0.02"])
        assert result.exit_code == 2
        assert "mutually exclusive" in result.output

    def test_analytic_ask_requires_zero_haircuts(self, runner):
        result = runner.invoke(main, ["price", "--kind", "call",
                                      "--borrow-spread", "0.02",
                                      "--repo-haircut", "0.25",
                                      "--engine", "analytic"])
        assert result.exit_code == 2
        assert "the ask has a closed form only with both haircuts 0" in result.output

    def test_csv_header_line(self, runner):
        out = run_ok(runner, ["price", "--kind", "put", "--side", "riskfree",
                              "--engine", "analytic"])
        assert out.splitlines()[0] == "# fva-pricer v1 price"

    def test_portfolio_file_priced_as_book(self, runner, tmp_path):
        book = tmp_path / "bull.json"
        book.write_text(json.dumps({
            "expiry": 2.0, "style": "european",
            "legs": [{"kind": "call", "strike": 95.0, "qty": 1.0},
                     {"kind": "call", "strike": 105.0, "qty": -1.0}]}))
        out = run_ok(runner, ["price", "--portfolio", str(book),
                              "--borrow-spread", "0.03", "--repo-spread", "0.005",
                              "--rebate-spread", "-0.005", "--nodes", "400",
                              "--dt", "0.05", "--format", "json"])
        payload = json.loads(out)
        assert payload["bid"] < payload["mid_reference"] < payload["ask"]

    def test_portfolio_conflicts_with_kind(self, runner, tmp_path):
        book = tmp_path / "one.json"
        book.write_text(json.dumps({"expiry": 1.0, "style": "european",
                                    "legs": [{"kind": "put", "strike": 100.0,
                                              "qty": 1.0}]}))
        result = runner.invoke(main, ["price", "--kind", "put",
                                      "--portfolio", str(book)])
        assert result.exit_code == 2
        assert "mutually exclusive" in result.output

    def test_kind_required_without_portfolio(self, runner):
        result = runner.invoke(main, ["price"])
        assert result.exit_code == 2


class TestFvaCurveCommand:
    def test_curve_structure_and_zero_spread_row(self, runner):
        out = run_ok(runner, ["fva-curve", "--spread-max", "0.01",
                              "--spread-step", "0.005"])
        lines = out.strip().splitlines()
        assert lines[0] == "# fva-pricer v1 fva-curve"
        assert lines[1] == "case,spread,fva_percent"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 4 * 3
        for case, spread, pct in rows:
            if case != "h035_repo150" and float(spread) == 0.0:
                if case in ("no_repo",):
                    assert float(pct) == pytest.approx(0.0, abs=1e-9)

    def test_crossover_at_matching_spreads(self, runner):
        out = run_ok(runner, ["fva-curve", "--spread-max", "0.005",
                              "--spread-step", "0.005"])
        rows = {}
        for line in out.strip().splitlines()[2:]:
            case, spread, pct = line.split(",")
            rows[(case, float(spread))] = float(pct)
        assert rows[("h000_repo50", 0.005)] == pytest.approx(
            rows[("h035_repo50", 0.005)], rel=1e-9)

    def test_pde_engine_matches_analytic_engine(self, runner):
        args = ["fva-curve", "--spread-max", "0.005", "--spread-step", "0.005"]
        rows = {}
        for engine in ("analytic", "pde"):
            out = run_ok(runner, args + ["--engine", engine,
                                         "--nodes", "600", "--dt", "0.05"])
            for line in out.strip().splitlines()[2:]:
                case, spread, pct = line.split(",")
                rows[(engine, case, float(spread))] = float(pct)
        for case in ("no_repo", "h000_repo50", "h035_repo50", "h035_repo150"):
            # zero spread with secured financing at r+50bp still costs money,
            # except in the no-repo case where nothing is secured
            if case == "no_repo":
                assert rows[("pde", case, 0.0)] == pytest.approx(0.0, abs=1e-9)
            for spread in (0.0, 0.005):
                gap = abs(rows[("pde", case, spread)]
                          - rows[("analytic", case, spread)])
                assert gap < 0.05, (case, spread)

    def test_higher_repo_rate_dominates(self, runner):
        out = run_ok(runner, ["fva-curve", "--spread-max", "0.02",
                              "--spread-step", "0.01"])
        rows = {}
        for line in out.strip().splitlines()[2:]:
            case, spread, pct = line.split(",")
            rows[(case, float(spread))] = float(pct)
        for spread in (0.0, 0.01, 0.02):
            assert rows[("h035_repo150", spread)] >= rows[("h035_repo50", spread)]


class TestNettingCommand:
    def test_bull_netted_below_synthetic(self, runner):
        out = run_ok(runner, ["netting", "--strategy", "bull",
                              "--strikes", "95,105", "--expiries", "0.5,1",
                              "--borrow-spread", "0.03", "--repo-spread", "0.005",
                              "--rebate-spread", "-0.005",
                              "--repo-haircut", "0.25", "--sec-haircut", "0.15",
                              "--nodes", "400", "--dt", "0.05"])
        lines = out.strip().splitlines()
        assert lines[1] == "expiry,netted_spread,synthetic_spread,netting_effect"
        for line in lines[2:]:
            _, netted, synthetic, effect = map(float, line.split(","))
            assert netted < synthetic
            assert effect > 0


class TestTable1Command:
    def test_default_run_passes(self, runner):
        out = run_ok(runner, ["table1", "--nodes", "1000", "--dt", "0.04"])
        lines = out.strip().splitlines()
        assert len(lines) == 2 + 6
        assert all(line.endswith("pass") for line in lines[2:])

    def test_convergence_between_two_grids(self, runner):
        # the coarser run may exit 4 (breach); the report is still emitted
        errors = {}
        for nodes, dt in ((500, 0.08), (1000, 0.04)):
            result = runner.invoke(main, ["table1", "--nodes", str(nodes),
                                          "--dt", str(dt), "--format", "json"])
            assert result.exit_code in (0, 4)
            rows = json.loads(result.output)
            errors[nodes] = next(r["abs_diff"] for r in rows
                                 if r["option"] == "put" and r["metric"] == "price")
        assert errors[500] / errors[1000] >= 3.0

    def test_tolerance_breach_exits_4(self, runner):
        result = runner.invoke(main, ["table1", "--nodes", "300", "--dt", "0.1"])
        assert result.exit_code == 4


class TestSimulateCommand:
    def test_summary_fields_and_unbiasedness(self, runner):
        out = run_ok(runner, ["simulate", "--kind", "put", "--paths", "4000",
                              "--steps", "100", "--mu", "0.1", "--seed", "11",
                              "--rate", "0.10"])
        payload = json.loads(out)
        assert set(payload) == {"mean", "std", "max_abs", "n_paths", "n_steps", "seed"}
        se = payload["std"] / payload["n_paths"] ** 0.5
        assert abs(payload["mean"]) < 3 * se

    def test_seed_is_required(self, runner):
        result = runner.invoke(main, ["simulate", "--kind", "put"])
        assert result.exit_code != 0


class TestDeterminism:
    COMMANDS = [
        ["price", "--kind", "put", "--side", "riskfree", "--engine", "analytic"],
        ["price", "--kind", "call", "--borrow-spread", "0.02",
         "--nodes", "300", "--dt", "0.1", "--format", "json"],
        ["fva-curve", "--spread-max", "0.005", "--spread-step", "0.005"],
        ["netting", "--strategy", "straddle", "--strikes", "100",
         "--expiries", "0.5", "--borrow-spread", "0.02", "--nodes", "300",
         "--dt", "0.1"],
        ["table1", "--nodes", "300", "--dt", "0.1", "--format", "json"],
        ["simulate", "--kind", "put", "--paths", "500", "--steps", "50",
         "--seed", "3"],
        ["spread-demo", "--nodes", "300", "--dt", "0.1"],
    ]

    @pytest.mark.parametrize("args", COMMANDS, ids=lambda a: a[0])
    def test_identical_invocations_are_byte_identical(self, runner, args):
        first = runner.invoke(main, args, catch_exceptions=False)
        second = runner.invoke(main, args, catch_exceptions=False)
        assert first.output == second.output
        assert first.exit_code == second.exit_code


class TestConfigFile:
    def test_file_values_used_and_flags_override(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kind=put\nrate=0.10\nvol=0.5\nside=riskfree\n"
                       "engine=analytic\nformat=json\n")
        out = run_ok(runner, ["price", "--kind", "put", "--config", str(cfg)])
        assert json.loads(out)["mid_reference"] == pytest.approx(17.0183, abs=1e-4)
        # flag beats the file
        out2 = run_ok(runner, ["price", "--kind", "call", "--config", str(cfg)])
        assert json.loads(out2)["mid_reference"] == pytest.approx(35.1452, abs=1e-4)

    def test_unknown_key_rejected(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("volatility=0.5\n")
        result = runner.invoke(main, ["price", "--kind", "put",
                                      "--config", str(cfg)])
        assert result.exit_code == 2
        assert "unknown key" in result.output


class TestSimulateGolden:
    """Funded-config run pinned against a recorded golden summary."""

    ARGS = ["simulate", "--kind", "put", "--side", "bid", "--rate", "0.10",
            "--vol", "0.5", "--borrow-spread", "0.02", "--repo-spread", "0.005",
            "--rebate-spread", "-0.005", "--repo-haircut", "0.35",
            "--sec-haircut", "0.15", "--paths", "4000", "--steps", "125",
            "--mu", "0.10", "--seed", "20140308", "--oracle", "pde",
            "--nodes", "800"]

    def test_matches_recorded_run(self, runner):
        from pathlib import Path
        golden = json.loads(
            (Path(__file__).parent / "data" / "simulate_funded_golden.json")
            .read_text())
        out = json.loads(run_ok(runner, self.ARGS))
        assert set(out) == set(golden)
        for key, value in golden.items():
            # rerun must reproduce the recorded values (tiny slack for
            # platform ulp differences in transcendental functions)
            assert out[key] == pytest.approx(value, rel=1e-9, abs=1e-12), key


class TestSpreadDemo:
    def test_demo_produces_five_rows(self, runner):
        out = run_ok(runner, ["spread-demo", "--nodes", "300", "--dt", "0.1"])
        lines = out.strip().splitlines()
        assert lines[0] == "# fva-pricer v1 spread-demo"
        assert len(lines) == 2 + 5
        for line in lines[2:]:
            cols = line.split(",")
            assert float(cols[2]) > 0 and float(cols[4]) > 0
