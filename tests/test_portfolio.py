import math

import pytest
from hypothesis import given, settings, strategies as st

from fva_pricer import (
    BadStrikes,
    FundingConfig,
    OptionLeg,
    PdeGrid,
    Portfolio,
    Side,
    bs_price,
    build_strategy,
    netting_report,
    quote,
    solve,
    solve_american,
)
from conftest import EXPIRY, SPOT, STRIKE, make_config

FUNDED = dict(spread=0.03, repo_spread=0.005, rebate_spread=-0.005,
              repo_haircut=0.25, sec_haircut=0.15)


def grid_for(portfolio, config, nodes=500, dt=0.04):
    return PdeGrid.for_portfolio(SPOT, portfolio, config, n_nodes=nodes, dt=dt)


class TestBuildStrategy:
    def test_bull(self):
        pf = build_strategy("bull", [95, 105], 2.0)
        assert [(leg.kind, leg.strike, leg.quantity) for leg in pf.legs] == \
            [("call", 95.0, 1.0), ("call", 105.0, -1.0)]

    def test_straddle(self):
        pf = build_strategy("straddle", [100], 2.0)
        assert {(leg.kind, leg.quantity) for leg in pf.legs} == \
            {("call", 1.0), ("put", 1.0)}

    def test_strangle(self):
        pf = build_strategy("strangle", [95, 105], 2.0)
        assert [(leg.kind, leg.strike) for leg in pf.legs] == \
            [("put", 95.0), ("call", 105.0)]

    def test_strip(self):
        pf = build_strategy("strip", [100], 2.0)
        assert [(leg.kind, leg.quantity) for leg in pf.legs] == \
            [("call", 1.0), ("put", 2.0)]

    @pytest.mark.parametrize("name,strikes", [
        ("bull", [105, 95]), ("bull", [100]), ("strangle", [105, 95]),
        ("straddle", [95, 105]), ("strip", []), ("butterfly", [100])])
    def test_bad_strikes(self, name, strikes):
        with pytest.raises(BadStrikes):
            build_strategy(name, strikes, 2.0)


class TestNettingReport:
    def test_zero_spread_has_no_netting_effect(self, classic_config):
        pf = build_strategy("bull", [95, 105], EXPIRY)
        grid = grid_for(pf, classic_config)
        rep = netting_report(pf, classic_config, grid)
        book = (solve(Portfolio.single("call", 95.0, EXPIRY), Side.RISK_FREE,
                      classic_config, grid).value
                - solve(Portfolio.single("call", 105.0, EXPIRY), Side.RISK_FREE,
                        classic_config, grid).value)
        assert rep.netting_effect == pytest.approx(0.0, abs=1e-9)
        assert rep.netted_spread == pytest.approx(0.0, abs=1e-9)
        assert rep.netted_bid == pytest.approx(book, abs=1e-9)
        assert rep.synthetic_bid == pytest.approx(book, abs=1e-9)

    def test_bull_spread_netting_effect_dominates(self):
        cfg = make_config(**FUNDED)
        pf = build_strategy("bull", [95, 105], EXPIRY)
        rep = netting_report(pf, cfg, grid_for(pf, cfg))
        assert rep.netting_effect > 0
        assert rep.netted_spread < rep.synthetic_spread
        # opposite deltas nearly cancel: netting removes most of the spread
        assert rep.netting_effect > 0.5 * rep.synthetic_spread

    def test_strip_wider_than_straddle(self):
        cfg = make_config(**FUNDED)
        strip = build_strategy("strip", [STRIKE], EXPIRY)
        straddle = build_strategy("straddle", [STRIKE], EXPIRY)
        rep_strip = netting_report(strip, cfg, grid_for(strip, cfg))
        rep_straddle = netting_report(straddle, cfg, grid_for(straddle, cfg))
        assert rep_strip.netted_spread > rep_straddle.netted_spread

    def test_bid_not_above_ask_and_effect_nonnegative(self):
        cfg = make_config(**FUNDED)
        for name, strikes in (("bull", [95, 105]), ("straddle", [STRIKE]),
                              ("strangle", [95, 105]), ("strip", [STRIKE])):
            pf = build_strategy(name, strikes, 1.0)
            rep = netting_report(pf, cfg, grid_for(pf, cfg))
            assert rep.netted_bid <= rep.netted_ask + 1e-9
            assert rep.netting_effect >= -1e-9

    def test_spread_nondecreasing_in_expiry(self):
        cfg = make_config(**FUNDED)
        for name, strikes in (("straddle", [STRIKE]), ("strangle", [95, 105]),
                              ("strip", [STRIKE])):
            spreads = []
            for expiry in (0.25, 0.5, 1.0, 2.0, 3.0):
                pf = build_strategy(name, strikes, expiry)
                spreads.append(netting_report(pf, cfg, grid_for(pf, cfg)).netted_spread)
            assert all(a <= b + 1e-9 for a, b in zip(spreads, spreads[1:])), \
                f"{name}: {spreads}"

    def test_report_serialization(self):
        cfg = make_config(**FUNDED)
        pf = build_strategy("straddle", [STRIKE], 1.0)
        rep = netting_report(pf, cfg, grid_for(pf, cfg))
        payload = rep.to_dict()
        assert payload["netting_effect"] == pytest.approx(
            payload["synthetic_spread"] - payload["netted_spread"])


@st.composite
def funded_quote_cases(draw):
    """A valid funded config (spreads and haircuts may be zero) and a vanilla
    of either exercise style."""
    r = draw(st.floats(0.0, 0.12))
    cfg = FundingConfig(
        r=r, r_b=r + draw(st.floats(0.0, 0.06)), q=draw(st.floats(0.0, 0.05)),
        sigma=draw(st.floats(0.1, 0.5)),
        repo_rate=r + draw(st.floats(0.0, 0.03)),
        repo_haircut=draw(st.floats(0.0, 0.9)),
        rebate_rate=r - draw(st.floats(0.0, 0.03)),
        sec_haircut=draw(st.floats(0.0, 0.9)),
        no_repo=draw(st.booleans()))
    book = Portfolio.single(draw(st.sampled_from(["call", "put"])),
                            draw(st.floats(60.0, 140.0)), draw(st.floats(0.25, 2.0)),
                            style=draw(st.sampled_from(["european", "american"])))
    return cfg, book


class TestQuote:
    def test_sides_are_the_long_and_short_solves(self):
        cfg = make_config(**FUNDED)
        pf = build_strategy("bull", [95, 105], EXPIRY)
        grid = grid_for(pf, cfg, nodes=200, dt=0.1)
        bid, ask = quote(pf, cfg, grid)
        long_ = solve(pf, Side.BID, cfg, grid)
        short = solve(pf, Side.ASK, cfg, grid)
        assert (bid.price, bid.delta, bid.gamma) == (long_.value, long_.delta, long_.gamma)
        assert (ask.price, ask.delta, ask.gamma) == (-short.value, -short.delta,
                                                     -short.gamma)

    def test_american_book_uses_the_exercise_solver(self):
        cfg = make_config(**FUNDED)
        pf = Portfolio.single("put", STRIKE, EXPIRY, style="american")
        grid = grid_for(pf, cfg, nodes=200, dt=0.1)
        bid, ask = quote(pf, cfg, grid)
        assert bid.price == solve_american(pf, Side.BID, cfg, grid).value
        assert ask.price == -solve_american(pf, Side.ASK, cfg, grid).value

    @settings(max_examples=25, deadline=None)
    @given(funded_quote_cases())
    def test_bid_mid_ask_ordered_and_finite(self, case):
        cfg, book = case
        grid = PdeGrid.for_portfolio(SPOT, book, cfg, n_nodes=200, dt=0.1)
        bid, ask = quote(book, cfg, grid)
        mid, mid_ask = quote(book, cfg.degenerate(), grid)
        # a degenerate config quotes one price on both sides
        assert mid == mid_ask
        for q in (bid, ask, mid):
            assert all(math.isfinite(x) for x in (q.price, q.delta, q.gamma))
        assert bid.price <= mid.price + 1e-6
        assert mid.price <= ask.price + 1e-6
        if book.style == "american":
            leg = book.legs[0]
            european = Portfolio.single(leg.kind, leg.strike, book.expiry)
            eu_bid, eu_ask = quote(european, cfg, grid)
            assert bid.price >= eu_bid.price - 1e-6
            assert ask.price >= eu_ask.price - 1e-6
