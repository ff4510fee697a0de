import re

import numpy as np
import pytest

from fva_pricer import (
    ConfigError,
    NoConvergence,
    PdeGrid,
    Portfolio,
    Side,
    solve,
    solve_american,
)
from fva_pricer import pde
from conftest import EXPIRY, RATE, SPOT, STRIKE, VOL, make_config
from oracles import crr_binomial, lcp_solve

FUNDED = dict(spread=0.03, repo_spread=0.007, repo_haircut=0.25,
              rebate_spread=-0.005, sec_haircut=0.15)


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
        cfg = make_config(**FUNDED)
        bid = solve_american(american("put"), Side.BID, cfg, coarse_grid)
        ask = solve_american(american("put"), Side.ASK, cfg, coarse_grid)
        assert bid.value <= -ask.value

    def test_funded_ask_above_classic(self, coarse_grid, classic_config):
        cfg = make_config(**FUNDED)
        classic = solve_american(american("put"), Side.RISK_FREE, classic_config,
                                 coarse_grid)
        ask = -solve_american(american("put"), Side.ASK, cfg, coarse_grid).value
        assert ask >= classic.price


class TestAmericanErrors:
    def test_european_legs_rejected(self, classic_config, coarse_grid):
        with pytest.raises(ConfigError):
            solve_american(Portfolio.single("put", STRIKE, EXPIRY),
                           Side.RISK_FREE, classic_config, coarse_grid)

    def test_sweep_budget_exhaustion_raises(self, classic_config, coarse_grid,
                                            monkeypatch):
        monkeypatch.setattr(pde, "FUNDING_MAX_ITERS", 1)
        with pytest.raises(NoConvergence):
            solve_american(american("put"), Side.RISK_FREE, classic_config, coarse_grid)

    def test_sweep_budget_error_says_where_it_stopped(self, classic_config,
                                                      coarse_grid, monkeypatch):
        monkeypatch.setattr(pde, "FUNDING_MAX_ITERS", 1)
        with pytest.raises(NoConvergence) as info:
            solve_american(american("put"), Side.RISK_FREE, classic_config, coarse_grid)
        message = str(info.value)
        # the coarse grid's first step ends at t = 2 - 0.04
        assert message.startswith(
            "funding-boundary iteration exceeded 1 iterations at step 0 (t=1.96): ")
        assert re.search(r": last change \S+ against tolerance 1e-08, \d+ indicator "
                         r"flips in the last iterate, [1-9]\d* exercise-set changes$",
                         message), message


def stepped_systems(side, config, grid):
    """Run a solve substep by substep, yielding each substep's system and result.

    Yields (batch, A, rhs, x): the implicit system built from the pattern
    the substep ends on, the right-hand side built from the level it starts
    from, and the level it produced.
    """
    b = pde._Block([(0, (american("put"), side, config, grid))], labelled=False)
    whole, member = slice(0, b.K), slice(0, 1)
    for step in range(grid.n_steps):
        b.step = step
        for kind in (0, 0) if step < pde.RANNACHER_STEPS else (1,):
            idx = b.indices(b.region, b.rows)
            rhs = b.rhs(b.u, b.gather(idx), whole, member, kind)
            pde._substep(b, np.arange(1), kind)
            idx = b.indices(b.region, b.rows)
            yield b, b.system(idx, kind), rhs, b.u


class TestExerciseProblem:
    """Every substep solves the discrete linear complementarity problem."""

    def test_riskfree_substeps_match_dense_oracle(self, classic_config):
        # the grid of the price_american_funded golden, where the free
        # boundary lies within a few nodes of S = 0
        grid = PdeGrid.build(SPOT, STRIKE, VOL, EXPIRY, 200, 0.05)
        worst = (0.0, None, None)
        for st, A, rhs, x in stepped_systems(Side.RISK_FREE, classic_config, grid):
            gap = np.abs(x - lcp_solve(*A, rhs, st.obstacle, Side.RISK_FREE.position_sign))
            node = int(np.argmax(gap))
            worst = max(worst, (float(gap[node]), st.step, node), key=lambda w: w[0])
        assert worst[0] <= 1e-9, "gap {:.3g} at step {}, node {}".format(*worst)

    @pytest.mark.parametrize("side", [Side.BID, Side.ASK])
    def test_funded_substeps_are_complementary(self, side, coarse_grid):
        cfg = make_config(**FUNDED)
        for st, (lo, di, up), rhs, x in stepped_systems(side, cfg, coarse_grid):
            ax = di * x
            ax[1:] += lo[1:] * x[:-1]
            ax[:-1] += up[:-1] * x[1:]
            gap = np.minimum(side.position_sign * (ax - rhs),
                             side.position_sign * (x - st.obstacle))
            assert np.max(np.abs(gap)) <= 1e-12 * np.max(np.abs(rhs)), st.step
