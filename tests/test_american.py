import re

import pytest

from fva_pricer import (
    ConfigError,
    PdeGrid,
    Portfolio,
    PsorDiverged,
    Side,
    SolverParams,
    solve,
    solve_american,
)
from conftest import EXPIRY, RATE, SPOT, STRIKE, VOL, make_config
from oracles import crr_binomial


def american(kind, qty=1.0):
    return Portfolio.single(kind, STRIKE, EXPIRY, quantity=qty, style="american")


class TestAmericanClassic:
    def test_put_matches_binomial_oracle(self, classic_config, fine_grid):
        tree = crr_binomial("put", SPOT, STRIKE, EXPIRY, RATE, 0.0, VOL,
                            steps=2000, american=True)
        res = solve_american(american("put"), Side.RISK_FREE, classic_config, fine_grid)
        assert abs(res.price - tree) / tree < 5e-4

    def test_put_exceeds_european(self, classic_config, coarse_grid):
        eu = solve(Portfolio.single("put", STRIKE, EXPIRY), Side.RISK_FREE,
                   classic_config, coarse_grid)
        am = solve_american(american("put"), Side.RISK_FREE, classic_config,
                            coarse_grid)
        assert am.price > eu.price

    def test_call_without_dividends_equals_european(self, classic_config, fine_grid):
        eu = solve(Portfolio.single("call", STRIKE, EXPIRY), Side.RISK_FREE,
                   classic_config, fine_grid)
        am = solve_american(american("call"), Side.RISK_FREE, classic_config,
                            fine_grid)
        assert am.price == pytest.approx(eu.price, abs=1e-6)

    def test_exercise_binds_at_zero_stock_price(self, classic_config, coarse_grid):
        res = solve_american(american("put"), Side.RISK_FREE, classic_config,
                             coarse_grid)
        assert res.profile[0] == pytest.approx(STRIKE, abs=1e-8)

    def test_dividend_call_matches_binomial(self, coarse_grid):
        cfg = make_config(q=0.06)
        tree = crr_binomial("call", SPOT, STRIKE, EXPIRY, RATE, 0.06, VOL,
                            steps=2000, american=True)
        grid = PdeGrid.build(SPOT, STRIKE, VOL, EXPIRY, 1000, 0.02)
        res = solve_american(american("call"), Side.RISK_FREE, cfg, grid)
        assert abs(res.price - tree) / tree < 1e-3


class TestAmericanFunded:
    def test_bid_not_above_ask(self, coarse_grid):
        cfg = make_config(spread=0.03, repo_spread=0.007, repo_haircut=0.25,
                          rebate_spread=-0.005, sec_haircut=0.15)
        bid = solve_american(american("put"), Side.BID, cfg, coarse_grid)
        ask = solve_american(american("put"), Side.ASK, cfg, coarse_grid)
        assert bid.value <= -ask.value

    def test_funded_ask_above_classic(self, coarse_grid, classic_config):
        cfg = make_config(spread=0.03, repo_spread=0.007, repo_haircut=0.25,
                          rebate_spread=-0.005, sec_haircut=0.15)
        classic = solve_american(american("put"), Side.RISK_FREE, classic_config,
                                 coarse_grid)
        ask = -solve_american(american("put"), Side.ASK, cfg, coarse_grid).value
        assert ask >= classic.price


class TestAmericanErrors:
    def test_european_legs_rejected(self, classic_config, coarse_grid):
        with pytest.raises(ConfigError):
            solve_american(Portfolio.single("put", STRIKE, EXPIRY),
                           Side.RISK_FREE, classic_config, coarse_grid)

    def test_sweep_budget_exhaustion_raises(self, classic_config, coarse_grid):
        params = SolverParams(psor_tol=1e-14, psor_max_iters=1)
        with pytest.raises(PsorDiverged):
            solve_american(american("put"), Side.RISK_FREE, classic_config,
                           coarse_grid, params)

    def test_sweep_budget_error_says_where_it_stopped(self, classic_config,
                                                      coarse_grid):
        params = SolverParams(psor_tol=1e-14, psor_max_iters=1)
        with pytest.raises(PsorDiverged) as info:
            solve_american(american("put"), Side.RISK_FREE, classic_config,
                           coarse_grid, params)
        message = str(info.value)
        # the coarse grid's first step ends at t = 2 - 0.04
        assert message.startswith("projected SOR exceeded 1 sweeps at step 0 (t=1.96): ")
        assert re.search(r": last change \S+ against tolerance 1e-14$", message), message
