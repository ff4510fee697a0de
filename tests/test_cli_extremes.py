"""Extreme numeric flags on every command, closed-form and PDE.

Every run must end with a documented exit code, never with a traceback, and
a run that succeeds prints only finite numbers.
"""

import json
import math

from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from fva_pricer.cli import main

EXTREMES = ("0", "-1", "1e300", "-1e300", "1e-300", "nan", "inf", "-inf")

MARKET = {"--spot": "100", "--strike": "95", "--expiry": "1.5", "--rate": "0.05",
          "--vol": "0.3", "--dividend-yield": "0.01", "--nodes": "200", "--dt": "0.05"}
FUNDING = {"--borrow-rate": "0.08", "--borrow-spread": "0.03", "--repo-rate": "0.055",
           "--repo-spread": "0.005", "--rebate-rate": "0.045",
           "--rebate-spread": "-0.005", "--repo-haircut": "0.2", "--sec-haircut": "0.1"}
# typical value of each numeric flag, per command
PRICE = {**MARKET, **FUNDING, "--repo-haircut": "0", "--sec-haircut": "0"}
FVA_CURVE = {**MARKET, "--spread-max": "0.02", "--spread-step": "0.01"}
SIMULATE = {k: v for k, v in {**MARKET, **FUNDING, "--mu": "0.05", "--seed": "3"}.items()
            if k != "--dt"}
PRICE_PDE = {**MARKET, **FUNDING}
# the PDE commands run on a small grid unless a draw overrides a flag of it
SMALL_GRID = ["--nodes", "200", "--dt", "0.05"]
NETTING = {k: v for k, v in {**PRICE_PDE, "--expiries": "0.5"}.items()
           if k not in ("--expiry", "--strike")}
TABLE1 = MARKET
SPREAD_DEMO = {"--borrow-spread": "0.03", "--repo-spread": "0.007", "--haircut": "0.25",
               "--nodes": "200", "--dt": "0.05"}


def flag_values(typical: dict[str, str]):
    """One to three flags, each at its typical value or at an extreme."""
    return st.dictionaries(st.sampled_from(sorted(typical)),
                           st.sampled_from(("typical", *EXTREMES)),
                           min_size=1, max_size=3).map(
        lambda drawn: [tok for flag, value in drawn.items()
                       for tok in (flag, typical[flag] if value == "typical" else value)])


def numbers(payload):
    if isinstance(payload, dict):
        payload = list(payload.values())
    if isinstance(payload, list):
        return [x for item in payload for x in numbers(item)]
    return [payload] if isinstance(payload, (int, float)) else []


def check(args: list[str]) -> None:
    result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 2, 3, 4), (args, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        (args, result.exception)
    assert "Traceback" not in result.output
    # table1 prints its report before exiting 4 on a tolerance breach
    if result.exit_code in (0, 4):
        values = numbers(json.loads(result.stdout))
        assert values and all(math.isfinite(x) for x in values), (args, result.stdout)


@given(kind=st.sampled_from(["call", "put"]), extra=flag_values(PRICE))
@settings(max_examples=150, deadline=None)
def test_analytic_price(kind, extra):
    check(["price", "--kind", kind, "--engine", "analytic", "--format", "json", *extra])


@given(kind=st.sampled_from(["call", "put"]), extra=flag_values(FVA_CURVE))
@settings(max_examples=150, deadline=None)
def test_analytic_fva_curve(kind, extra):
    check(["fva-curve", "--kind", kind, "--format", "json", *extra])


@given(kind=st.sampled_from(["call", "put"]), side=st.sampled_from(["bid", "riskfree"]),
       extra=flag_values(SIMULATE))
@settings(max_examples=150, deadline=None)
def test_simulate_on_the_analytic_oracle(kind, side, extra):
    seed = [] if "--seed" in extra else ["--seed", "3"]
    check(["simulate", "--kind", kind, "--side", side, "--paths", "16", "--steps", "4",
           *seed, *extra])


@given(kind=st.sampled_from(["call", "put"]), style=st.sampled_from(["european", "american"]),
       extra=flag_values(PRICE_PDE))
@settings(max_examples=100, deadline=None)
def test_pde_price(kind, style, extra):
    check(["price", "--kind", kind, "--style", style, "--format", "json", *SMALL_GRID,
           *extra])


@given(kind=st.sampled_from(["call", "put"]), extra=flag_values(FVA_CURVE))
@settings(max_examples=100, deadline=None)
def test_pde_fva_curve(kind, extra):
    check(["fva-curve", "--engine", "pde", "--kind", kind, "--format", "json", *SMALL_GRID,
           "--spread-max", "0.02", "--spread-step", "0.01", *extra])


@given(strategy=st.sampled_from(["bull", "straddle"]), extra=flag_values(NETTING))
@settings(max_examples=100, deadline=None)
def test_netting(strategy, extra):
    strikes = {"bull": "95,105", "straddle": "100"}[strategy]
    check(["netting", "--strategy", strategy, "--strikes", strikes, "--format", "json",
           *SMALL_GRID, *extra])


@given(extra=flag_values(TABLE1))
@settings(max_examples=100, deadline=None)
def test_table1(extra):
    check(["table1", "--format", "json", *SMALL_GRID, *extra])


@given(extra=flag_values(SPREAD_DEMO))
@settings(max_examples=60, deadline=None)
def test_spread_demo(extra):
    check(["spread-demo", "--format", "json", *SMALL_GRID, *extra])


@given(kind=st.sampled_from(["call", "put"]), style=st.sampled_from(["european", "american"]),
       log_ratio=st.one_of(st.floats(-2, 2), st.floats(-300, 300)),
       log_expiry=st.one_of(st.floats(-3, math.log10(5)), st.floats(-300, math.log10(5))))
@settings(max_examples=60, deadline=None)
def test_pde_price_at_every_scale(kind, style, log_ratio, log_expiry):
    """spot/strike from 1e-300 to 1e300 and expiry from 1e-300 to 5: the funded
    quotes are finite with bid <= mid <= ask, or the grid is refused (exit 2)."""
    market = {**MARKET, "--strike": repr(100.0 / 10.0 ** log_ratio),
              "--expiry": repr(10.0 ** log_expiry),
              **{flag: value for flag, value in FUNDING.items() if "rate" not in flag}}
    result = CliRunner().invoke(main, ["price", "--kind", kind, "--style", style,
                                       "--format", "json",
                                       *(tok for item in market.items() for tok in item)])
    assert result.exit_code in (0, 2), (market, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    if result.exit_code == 0:
        quote = json.loads(result.stdout)
        assert all(math.isfinite(x) for x in numbers(quote)), (market, quote)
        assert quote["bid"] <= quote["mid_reference"] <= quote["ask"], (market, quote)
