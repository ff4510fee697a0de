"""CLI input handling: one validation path, one quote path."""

import json
import re
import time
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from fva_pricer import cli, pde, replication
from fva_pricer.cli import main

FUNDED = ["--borrow-spread", "0.03", "--repo-spread", "0.005",
          "--rebate-spread", "-0.005", "--repo-haircut", "0.25",
          "--sec-haircut", "0.15"]


def invoke(args):
    return CliRunner().invoke(main, args)


@pytest.mark.parametrize("args,flag", [
    (["--rate", "nan"], "--rate"),
    (["--dividend-yield", "nan"], "--dividend-yield"),
    (["--dt", "0"], "--dt"),
    (["--dt", "nan"], "--dt"),
    (["--spot", "inf"], "--spot"),
    (["--strike", "nan"], "--strike"),
])
def test_nonfinite_price_inputs_exit_2_naming_the_flag(args, flag):
    result = invoke(["price", "--kind", "put", "--nodes", "200", *args])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert result.stderr.startswith(f"error: {flag}: ConfigError, ")


@pytest.mark.parametrize("args,flag", [
    (["fva-curve", "--spread-step", "0"], "--spread-step"),
    (["fva-curve", "--spread-step", "nan"], "--spread-step"),
    (["fva-curve", "--spread-step", "-0.01"], "--spread-step"),
    (["fva-curve", "--spread-max", "inf"], "--spread-max"),
    (["fva-curve", "--spread-max", "-0.02"], "--spread-max"),
    (["fva-curve", "--spread-max", "1e300", "--spread-step", "1e-300"], "--spread-step"),
    (["simulate", "--kind", "put", "--seed", "1", "--spot", "inf"], "--spot"),
    (["simulate", "--kind", "put", "--seed", "1", "--expiry", "0"], "--expiry"),
    (["simulate", "--kind", "put", "--seed", "1", "--steps", "0"], "--steps"),
    (["simulate", "--kind", "put", "--seed", "1", "--paths", "0"], "--paths"),
    (["simulate", "--kind", "put", "--seed", "1", "--steps", "0", "--oracle", "pde"],
     "--steps"),
])
def test_invalid_sweep_and_simulate_inputs_exit_2_naming_the_flag(args, flag):
    result = invoke(args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith(f"error: {flag}: ConfigError, ")


@pytest.mark.parametrize("expiries", ["nan", "0.5,-1", "0.5,inf", "0"])
def test_bad_netting_expiry_names_expiries(expiries):
    result = invoke(["netting", "--strategy", "bull", "--expiries", expiries])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: --expiries: ConfigError, expiry=")


def test_netting_has_no_expiry_flag():
    # netting prices every expiry of --expiries; a lone --expiry was ignored
    result = invoke(["netting", "--strategy", "bull", "--expiry", "1"])
    assert result.exit_code == 2
    assert "No such option" in result.stderr


@pytest.mark.parametrize("payload", [
    {"expiry": -1.0, "legs": [{"kind": "put", "strike": 100.0}]},
    {"legs": [{"kind": "put", "strike": 100.0}]},
])
def test_bad_portfolio_file_names_portfolio(tmp_path, payload):
    book = tmp_path / "book.json"
    book.write_text(json.dumps(payload))
    result = invoke(["price", "--portfolio", str(book)])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: --portfolio: ConfigError, ")


@pytest.mark.parametrize("text", [
    '{"expiry": 2.0, "legs": [',
    '{"expiry": "abc", "legs": [{"kind": "put", "strike": 100.0}]}',
    '{"expiry": 1.0, "legs": [{"kind": "put", "strike": "x"}]}',
    '[1, 2]',
])
def test_unparsable_portfolio_file_names_portfolio(tmp_path, text):
    book = tmp_path / "book.json"
    book.write_text(text)
    result = invoke(["price", "--portfolio", str(book)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: --portfolio: ConfigError, ")


@pytest.mark.parametrize("text", [
    '{"spot": 165.0, "expiry_years": 1.46',
    '{"spot": 165.0, "rate": 0.005, "quotes": []}',
    '[165.0, 1.46, 0.005]',
    '{"spot": 165.0, "expiry_years": 1.46, "rate": 0.005, '
    '"quotes": [{"strike": 165, "mid_call": 17.6}]}',
    '{"spot": 165.0, "expiry_years": 1.46, "rate": 0.005, "quotes": []}',
    '{"spot": 0, "expiry_years": 1.46, "rate": 0.005, "quotes": [{"strike": 165, '
    '"mid_call": 17.6, "mid_put": 20.5, "call_spread": 1.7, "put_spread": 3.6}]}',
])
def test_bad_fixture_file_names_fixture(tmp_path, text):
    chain = tmp_path / "chain.json"
    chain.write_text(text)
    result = invoke(["spread-demo", "--fixture", str(chain)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: --fixture: ConfigError, ")


@pytest.mark.parametrize("content", [b"rate=0.1\n\xff\xfe\n", b"rate 0.1\n"])
def test_bad_config_file_names_config(tmp_path, content):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(content)
    result = invoke(["price", "--kind", "put", "--config", str(cfg)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: --config: ConfigError, ")


@pytest.mark.parametrize("args,flag", [
    (["--mu", "nan"], "--mu"),
    (["--mu", "inf"], "--mu"),
    (["--seed", "-1"], "--seed"),
])
def test_bad_simulate_drift_or_seed_names_the_flag(args, flag):
    result = invoke(["simulate", "--kind", "put", "--seed", "1", "--paths", "8",
                     "--steps", "4", *args])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith(f"error: {flag}: ConfigError, ")


@pytest.mark.parametrize("args", [
    ["price", "--kind", "put", "--engine", "analytic", "--expiry", "1e300"],
    ["price", "--kind", "put", "--engine", "analytic", "--dividend-yield", "1e300"],
    ["fva-curve", "--kind", "call", "--rate", "1e300"],
    ["fva-curve", "--rate", "-1e300"],
    ["fva-curve", "--dividend-yield", "1e300"],
    ["fva-curve", "--vol", "1e-9"],
    ["simulate", "--kind", "put", "--seed", "1", "--paths", "8", "--steps", "4",
     "--rate", "1e300"],
    ["simulate", "--kind", "put", "--seed", "1", "--paths", "8", "--steps", "4",
     "--mu", "1e300"],
    ["simulate", "--kind", "call", "--seed", "1", "--paths", "8", "--steps", "4",
     "--vol", "1e300"],
])
def test_out_of_range_finite_inputs_exit_2(args):
    result = invoke(args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: ")
    assert result.stdout == ""


def test_analytic_engine_names_a_bad_spot():
    result = invoke(["price", "--kind", "put", "--engine", "analytic", "--spot", "inf"])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: --spot: ConfigError, spot=inf")


def test_flags_named_only_where_the_command_has_them():
    # spread-demo sets both haircuts from one flag
    result = invoke(["spread-demo", "--haircut", "1.2"])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: --haircut: InvalidHaircut, ")
    # spread-demo derives the rebate rate from --repo-spread and has no rebate flag
    result = invoke(["spread-demo", "--repo-spread", "-0.01"])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: rebate rate ")


@pytest.mark.parametrize("style", ["european", "american"])
@pytest.mark.parametrize("side", ["all", "ask"])
def test_single_option_prices_like_its_one_leg_book(tmp_path, style, side):
    book = tmp_path / "one.json"
    book.write_text(json.dumps({"expiry": 1.5, "style": style,
                                "legs": [{"kind": "put", "strike": 95.0, "qty": 1.0}]}))
    common = [*FUNDED, "--expiry", "1.5", "--side", side, "--nodes", "200",
              "--dt", "0.1"]
    single = invoke(["price", "--kind", "put", "--strike", "95", "--style", style,
                     *common])
    as_book = invoke(["price", "--portfolio", str(book), *common])
    assert single.exit_code == as_book.exit_code == 0
    assert single.stdout_bytes == as_book.stdout_bytes


@pytest.mark.parametrize("args", [
    ["price", "--kind", "put", "--vol", "1e300"],
    ["price", "--kind", "put", "--expiry", "1e300"],
    ["netting", "--strategy", "bull", "--vol", "1e300"],
    ["fva-curve", "--engine", "pde", "--expiry", "1e300"],
    ["spread-demo", "--repo-spread", "1e300"],
    ["spread-demo", "--repo-spread", "1e3"],
    ["price", "--kind", "put", "--engine", "pde", "--rate", "400"],
    ["price", "--kind", "put", "--spot", "1e300", "--nodes", "200"],
    ["table1", "--spot", "1e300", "--nodes", "200"],
    ["price", "--kind", "put", "--engine", "pde", "--nodes", "200", "--dt", "0.05",
     "--spot", "1e-160", "--strike", "1e-160"],
    ["price", "--kind", "put", "--engine", "pde", "--nodes", "200", "--dt", "0.05",
     "--spot", "1e-300", "--strike", "1e-300"],
])
def test_extreme_pde_inputs_exit_2_without_traceback(args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = invoke(args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert result.stderr.startswith("error: ")
    if "--spot" in args:
        assert result.stderr.startswith("error: --spot: "), result.stderr
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# the end of a GridTooCoarse message, with a node count under the cap or without one
NODE_COUNT = r"resolving it takes about \d+ nodes\n"
BEYOND_THE_CAP = rf"no grid within the {pde.MAX_NODES}-node cap resolves it\n"


@pytest.mark.parametrize("args", [
    ["price", "--kind", "put", "--spot", "1e150"],
    ["price", "--kind", "call", "--strike", "1e-300", "--borrow-spread", "0.03"],
    ["fva-curve", "--engine", "pde", "--kind", "call", "--strike", "1e-300",
     "--spread-max", "0.02", "--spread-step", "0.01"],
])
def test_strike_inside_the_first_cell_exits_2_naming_nodes(args):
    """Each of these strikes needs more nodes than MAX_NODES, and the message says so."""
    result = invoke([*args, "--nodes", "200", "--dt", "0.05"])
    assert result.exit_code == 2, result.output
    assert re.fullmatch(r"error: --nodes: GridTooCoarse, strike \S+ lies inside the first "
                        r"grid cell \[0, \S+\); " + BEYOND_THE_CAP, result.stderr), result.stderr


@pytest.mark.parametrize("args", [
    ["price", "--kind", "put", "--expiry", "1e-6", "--side", "riskfree"],
    ["price", "--kind", "put", "--expiry", "1e-300", "--side", "riskfree"],
    ["price", "--kind", "put", "--style", "american", "--expiry", "1e-300"],
    ["fva-curve", "--engine", "pde", "--kind", "put", "--expiry", "1e-6"],
])
def test_expiry_below_one_cell_of_diffusion_exits_2_naming_nodes(args):
    """The strike node would keep its cell average, far from the option's value.
    An expiry of 1e-6 takes about 8000 nodes; one of 1e-300 more than the cap."""
    advice = BEYOND_THE_CAP if "1e-300" in args else NODE_COUNT
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = invoke([*args, "--nodes", "200", "--dt", "0.05"])
    assert result.exit_code == 2, result.output
    assert re.fullmatch(r"error: --nodes: GridTooCoarse, sigma \* spot \* sqrt\(expiry\) = "
                        r"\S+ at expiry \S+ is less than one grid cell \(\S+\); " + advice,
                        result.stderr), result.stderr
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("args,message", [
    (["--nodes", "15"], "n_nodes=15 is too small"),
    (["--nodes", "16", "--dt", "1"],
     "16 nodes cannot place spot 100.0 on an interior node of [0, 1691.88]"),
], ids=["15", "16"])
def test_too_few_nodes_exit_2_naming_nodes(args, message):
    result = invoke(["price", "--kind", "put", *args])
    assert result.exit_code == 2, result.output
    assert result.stderr == f"error: --nodes: GridTooCoarse, {message}\n"


def test_short_expiry_prices_on_the_node_count_it_names():
    args = ["price", "--kind", "put", "--dt", "0.05", "--side", "riskfree"]
    coarse = invoke([*args, "--nodes", "200", "--expiry", "1e-4"])
    assert coarse.exit_code == 2, coarse.output
    nodes = re.search(r"about (\d+) nodes", coarse.stderr).group(1)
    assert invoke([*args, "--nodes", nodes, "--expiry", "1e-4"]).exit_code == 0
    # one cell of diffusion is well inside an expiry of 0.01 at 200 nodes
    result = invoke([*args, "--nodes", "200", "--expiry", "0.01"])
    assert result.exit_code == 0, result.output
    assert result.stdout.splitlines()[2].startswith("1.82278835,")


def test_singular_system_names_its_job_step_and_time(monkeypatch):
    """No input in floating-point range is known to make the system singular, so
    the second job's first row is zeroed, in a batch and alone: that job fails,
    named."""
    build = pde._Block.system

    def singular_second_job(b, idx, kind):
        lo, di, up = build(b, idx, kind)
        if 1 in b.index:
            first = np.flatnonzero(idx % b.K == b.index.index(1) * b.n)
            di[first] = up[first] = 0.0
        return lo, di, up

    monkeypatch.setattr(pde._Block, "system", singular_second_job)
    result = invoke(["spread-demo"])
    assert re.fullmatch(r"error: job 1 \(ask: [^)]*\): the tridiagonal system is "
                        r"singular at step 0 \(t=\S+\)\n", result.stderr), result.stderr


@pytest.mark.parametrize("args,flag", [
    (["price", "--kind", "put", "--dt", "1e-7"], "--dt"),
    (["simulate", "--kind", "put", "--seed", "1", "--oracle", "pde", "--steps", "100001"],
     "--steps"),
])
def test_step_count_above_the_cap_exits_2_at_once(args, flag):
    start = time.perf_counter()
    result = invoke(args)
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith(f"error: {flag}: ConfigError, ")


FVA_ZERO_REFERENCE = ["fva-curve", "--engine", "pde", "--kind", "put", "--nodes", "200",
                      "--dt", "0.05", "--spread-max", "1e300", "--spread-step", "1e299"]


def test_fva_curve_bids_fail_on_an_absurd_spread():
    result = invoke([*FVA_ZERO_REFERENCE, "--strike", "100"])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: job 2 (bid: +1 put 100; european, expiry 2): a "
                                    "stock drift or negative discount rate of 1e+299 ")


def test_fva_curve_reference_is_checked_before_any_bid_error():
    result = invoke([*FVA_ZERO_REFERENCE, "--strike", "1", "--vol", "0.01", "--rate", "0.5"])
    assert result.exit_code == 2, result.output
    assert result.stderr == ("error: risk-free price 0.0 is not > 0; the adjustment is a "
                             "percentage of it\n")


@pytest.mark.parametrize("engine", ["pde", "analytic"])
def test_fva_curve_rejects_a_reference_below_the_solver_tolerance(engine):
    # a deep out-of-the-money put: the reference is ~1e-140 (pde) or ~1e-276
    # (analytic), and an adjustment in percent of it is noise
    result = invoke(["fva-curve", "--engine", engine, "--kind", "put", "--strike", "10",
                     "--vol", "0.05", "--nodes", "200", "--dt", "0.05",
                     "--spread-step", "0.01"])
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert re.fullmatch(r"error: risk-free price \S+ is at or below the solver tolerance "
                        r"1e-09 \(1e-10 \* strike\); the adjustment is a percentage of it\n",
                        result.stderr), result.stderr


HAIRCUT_ASK = ["simulate", "--kind", "put", "--side", "ask", "--borrow-spread", "0.03",
               "--repo-spread", "0.005", "--repo-haircut", "0.25", "--seed", "1",
               "--paths", "200", "--steps", "50"]


def test_simulate_nodes_reach_the_auto_oracles_pde_surface():
    # an ask with haircuts has no closed form, so auto hedges on the PDE surface
    auto = invoke([*HAIRCUT_ASK, "--nodes", "200"])
    pde = invoke([*HAIRCUT_ASK, "--oracle", "pde", "--nodes", "200"])
    default = invoke(HAIRCUT_ASK)
    assert auto.exit_code == pde.exit_code == default.exit_code == 0
    assert auto.stdout_bytes == pde.stdout_bytes
    assert auto.stdout_bytes != default.stdout_bytes


@pytest.mark.parametrize("args", [["--format", "json"], ["--dt", "0.02"]])
def test_simulate_has_no_format_or_dt_flag(args):
    result = invoke(["simulate", "--kind", "put", "--seed", "1", *args])
    assert result.exit_code == 2
    assert "No such option" in result.stderr


def test_simulate_config_file_has_no_format_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format=json\n")
    result = invoke(["simulate", "--kind", "put", "--seed", "1", "--config", str(cfg)])
    assert result.exit_code == 2
    assert result.stderr == "error: --config: ConfigError, unknown key 'format'\n"


def swept_spreads(args):
    """The spreads of each fva-curve case, in the order printed."""
    result = invoke(["fva-curve", *args])
    assert result.exit_code == 0, result.output
    spreads = {}
    for line in result.stdout.splitlines()[2:]:
        case, spread, _ = line.split(",")
        spreads.setdefault(case, []).append(float(spread))
    return spreads


@pytest.mark.parametrize("top,step,count", [
    ("0.05", "0.03", 2),   # round(0.05 / 0.03) = 2 would sweep 0.06
    ("0.3", "0.1", 4),     # 0.3 / 0.1 = 2.9999999999999996 still sweeps 0.3
    ("0.04", "0.01", 5),
    ("0.029", "0.01", 3),
    ("0", "0.01", 1),
])
def test_fva_curve_sweeps_no_spread_past_spread_max(top, step, count):
    spreads = swept_spreads(["--spread-max", top, "--spread-step", step])
    assert len(spreads) == 4
    for swept in spreads.values():
        assert len(swept) == count
        assert swept[-1] <= float(top) * (1.0 + 1e-9)


def test_fva_curve_spread_cap_counts_the_spreads_swept(monkeypatch):
    monkeypatch.setattr(cli, "MAX_CURVE_SPREADS", 4)
    # 0.03 / 0.01 sweeps 0, 0.01, 0.02 and 0.03: four spreads
    assert all(len(s) == 4 for s in swept_spreads(["--spread-max", "0.03",
                                                   "--spread-step", "0.01"]).values())
    # 0.04 / 0.01 = 4 sweeps five
    result = invoke(["fva-curve", "--spread-max", "0.04", "--spread-step", "0.01"])
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert result.stderr.startswith("error: --spread-step: ConfigError, ")


@pytest.mark.parametrize("args", [
    ["price", "--kind", "put", "--engine", "analytic"],
    ["table1", "--nodes", "200", "--dt", "0.05"],
    ["simulate", "--kind", "put", "--seed", "1", "--paths", "8", "--steps", "4"],
])
@pytest.mark.parametrize("target", ["missing", "directory"])
def test_unwritable_output_exits_2_naming_output(tmp_path, args, target):
    output = tmp_path / "missing" / "out.csv" if target == "missing" else tmp_path
    result = invoke([*args, "--output", str(output)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith(f"error: --output: ConfigError, cannot write {output}: ")


@pytest.mark.parametrize("args,flag", [
    (["price", "--kind", "put", "--nodes", "1000000000000"], "--nodes"),
    # the grid np.arange would build fails its own spacing check from ~1e7 nodes on
    (["price", "--kind", "put", "--nodes", "100000000", "--dt", "1"], "--nodes"),
    (["price", "--kind", "put", "--nodes", str(pde.MAX_NODES + 1), "--dt", "1"], "--nodes"),
    (["simulate", "--kind", "put", "--seed", "1", "--oracle", "pde",
      "--nodes", "1000000000000", "--steps", "2"], "--nodes"),
    (["simulate", "--kind", "put", "--seed", "1", "--paths", "1000000000000",
      "--steps", "2"], "--paths"),
    (["simulate", "--kind", "put", "--seed", "1", "--paths", str(replication.MAX_PATHS + 1),
      "--steps", "2"], "--paths"),
    # the node and step caps each allow this surface, of about 1e10 values
    (["simulate", "--kind", "put", "--seed", "1", "--oracle", "pde",
      "--nodes", str(pde.MAX_NODES), "--steps", str(pde.MAX_TIME_STEPS)], "--steps"),
    (["simulate", "--kind", "put", "--seed", "1", "--oracle", "pde", "--nodes", "1000",
      "--steps", str(replication.MAX_SURFACE_VALUES // 1000)], "--steps"),
])
def test_sizes_above_their_cap_exit_2_before_allocating(args, flag):
    start = time.perf_counter()
    result = invoke(args)
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith(f"error: {flag}: ConfigError, ")
