import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from fva_pricer import (
    ConfigError,
    HaircutNotZero,
    PriceOutOfBounds,
    bs_price,
    implied_vol,
    long_position_price,
    zero_haircut_spread,
)
from fva_pricer.analytic import bs_vega, lognormal_rates, zero_haircut_quotes
from fva_pricer.market import Side
from conftest import make_config
from oracles import ref_bs_price, ref_long_position_price

# published calibration values for S=K=100, T=2, r=0.10, vol=0.5
CALL_PRICE = 35.1452
CALL_DELTA = 0.737741
PUT_PRICE = 17.0183
PUT_DELTA = -0.262259
GAMMA = 0.0046077

# frozen golden numbers, computed with the scipy-based reference forms
GOLDEN_LONG_PUT_FUNDED = 15.838491   # h=0.35, r_b=r+2%, repo=r+0.5%
GOLDEN_CALL_SPREAD = 3.479607        # r1=r+50bp, r2=r-50bp, r_b=r+3%


class TestBlackScholes:
    def test_calibration_call(self):
        q = bs_price("call", 100, 100, 2.0, 0.10, 0.0, 0.5)
        assert q.price == pytest.approx(CALL_PRICE, abs=1e-4)
        assert q.delta == pytest.approx(CALL_DELTA, abs=1e-6)
        assert q.gamma == pytest.approx(GAMMA, abs=1e-7)

    def test_calibration_put(self):
        q = bs_price("put", 100, 100, 2.0, 0.10, 0.0, 0.5)
        assert q.price == pytest.approx(PUT_PRICE, abs=1e-4)
        assert q.delta == pytest.approx(PUT_DELTA, abs=1e-6)
        assert q.gamma == pytest.approx(GAMMA, abs=1e-7)

    def test_parity_on_calibration_case(self):
        call = bs_price("call", 100, 100, 2.0, 0.10, 0.0, 0.5).price
        put = bs_price("put", 100, 100, 2.0, 0.10, 0.0, 0.5).price
        assert call - put == pytest.approx(18.1269, abs=1e-4)

    def test_domain_errors(self):
        with pytest.raises(ConfigError):
            bs_price("call", -100, 100, 2.0, 0.10, 0.0, 0.5)
        with pytest.raises(ConfigError):
            bs_price("call", 100, 100, 2.0, 0.10, 0.0, 0.0)

    @pytest.mark.parametrize("rate,q,field", [
        (math.nan, 0.0, "r"), (math.inf, 0.0, "r"),
        (0.10, math.nan, "q"), (0.10, -math.inf, "q"),
    ])
    def test_nonfinite_rate_or_yield_rejected(self, rate, q, field):
        with pytest.raises(ConfigError) as info:
            bs_price("put", 100, 100, 2.0, rate, q, 0.5)
        assert info.value.field == field
        with pytest.raises(ConfigError) as info:
            implied_vol("put", 100, 100, 2.0, rate, q, 10.0)
        assert info.value.field == field

    @given(spot=st.floats(20, 500), strike=st.floats(20, 500),
           expiry=st.floats(0.05, 5), rate=st.floats(0.0, 0.15),
           q=st.floats(0.0, 0.08), sigma=st.floats(0.05, 1.5))
    @settings(max_examples=200, deadline=None)
    def test_put_call_parity_property(self, spot, strike, expiry, rate, q, sigma):
        call = bs_price("call", spot, strike, expiry, rate, q, sigma).price
        put = bs_price("put", spot, strike, expiry, rate, q, sigma).price
        parity = spot * math.exp(-q * expiry) - strike * math.exp(-rate * expiry)
        scale = max(abs(call), abs(put), spot)
        assert call - put == pytest.approx(parity, abs=1e-12 * scale)

    @given(spot=st.floats(50, 200), strike=st.floats(50, 200),
           sigma=st.floats(0.1, 1.0), kind=st.sampled_from(["call", "put"]))
    @settings(max_examples=60, deadline=None)
    def test_greeks_match_finite_differences(self, spot, strike, sigma, kind):
        expiry, rate, q = 1.5, 0.08, 0.02
        bump = 1e-4 * spot
        quote = bs_price(kind, spot, strike, expiry, rate, q, sigma)
        up = bs_price(kind, spot + bump, strike, expiry, rate, q, sigma).price
        dn = bs_price(kind, spot - bump, strike, expiry, rate, q, sigma).price
        fd_delta = (up - dn) / (2 * bump)
        fd_gamma = (up - 2 * quote.price + dn) / bump**2
        # absolute floors cover the finite differences' own roundoff and
        # truncation where the greeks are tiny (far from the money, low vol)
        assert quote.delta == pytest.approx(fd_delta, rel=1e-6, abs=1e-8)
        assert quote.gamma == pytest.approx(fd_gamma, rel=1e-5, abs=1e-8)

    def test_delta_bounds_and_positive_gamma(self):
        q = 0.03
        for kind in ("call", "put"):
            quote = bs_price(kind, 120, 100, 2.0, 0.05, q, 0.4)
            cap = math.exp(-q * 2.0)
            assert quote.gamma >= 0
            if kind == "call":
                assert 0 <= quote.delta <= cap
            else:
                assert -cap <= quote.delta <= 0

    def test_matches_reference_implementation(self):
        for kind in ("call", "put"):
            mine = bs_price(kind, 110, 95, 1.3, 0.07, 0.02, 0.35).price
            ref = ref_bs_price(kind, 110, 95, 1.3, 0.07, 0.02, 0.35)
            assert mine == pytest.approx(ref, abs=1e-12)


class TestLongPositionPrice:
    def test_degenerate_config_reduces_to_classic(self):
        cfg = make_config()
        q = long_position_price("call", 100, 100, 2.0, cfg)
        assert q.price == pytest.approx(CALL_PRICE, abs=1e-4)

    def test_haircut_immaterial_when_repo_equals_unsecured_spread(self):
        # same 50 bp on both: the drift h*r_b + (1-h)*r_p loses its h dependence
        base = dict(spread=0.005, repo_spread=0.005)
        flat = long_position_price("put", 100, 100, 2.0, make_config(**base)).price
        cut = long_position_price(
            "put", 100, 100, 2.0, make_config(**base, repo_haircut=0.35)).price
        assert flat == pytest.approx(cut, rel=1e-14)

    def test_funded_long_put_golden(self):
        cfg = make_config(spread=0.02, repo_spread=0.005, repo_haircut=0.35)
        q = long_position_price("put", 100, 100, 2.0, cfg)
        assert q.price == pytest.approx(GOLDEN_LONG_PUT_FUNDED, abs=1e-6)
        assert q.price < PUT_PRICE

    def test_matches_reference_for_both_kinds(self):
        cfg = make_config(spread=0.02, repo_spread=0.005, repo_haircut=0.35,
                          rebate_spread=-0.005, sec_haircut=0.15)
        put_ref = ref_long_position_price("put", 100, 100, 2.0, 0.10, 0.0, 0.5,
                                          cfg.r_b, 0.35, cfg.repo_rate)
        call_ref = ref_long_position_price("call", 100, 100, 2.0, 0.10, 0.0, 0.5,
                                           cfg.r_b, -0.15, cfg.rebate_rate)
        assert long_position_price("put", 100, 100, 2.0, cfg).price == \
            pytest.approx(put_ref, abs=1e-12)
        assert long_position_price("call", 100, 100, 2.0, cfg).price == \
            pytest.approx(call_ref, abs=1e-12)

    @pytest.mark.parametrize("kind", ["call", "put"])
    @pytest.mark.parametrize("spread,repo_spread,h", [
        (0.01, 0.0, 0.0), (0.02, 0.005, 0.25), (0.03, 0.007, 0.35)])
    def test_never_above_classic_price(self, kind, spread, repo_spread, h):
        cfg = make_config(spread=spread, repo_spread=repo_spread,
                          repo_haircut=h, sec_haircut=h)
        funded = long_position_price(kind, 100, 100, 2.0, cfg).price
        classic = bs_price(kind, 100, 100, 2.0, 0.10, 0.0, 0.5).price
        assert funded <= classic + 1e-12


class TestZeroHaircutSpread:
    def test_degenerate_spread_is_zero(self):
        sq = zero_haircut_spread("call", 100, 100, 2.0, make_config())
        assert sq.spread == pytest.approx(0.0, abs=1e-12)
        assert sq.bid == pytest.approx(CALL_PRICE, abs=1e-4)

    def test_call_spread_golden(self):
        cfg = make_config(spread=0.03, repo_spread=0.005)
        sq = zero_haircut_spread("call", 100, 100, 2.0, cfg)
        assert sq.spread == pytest.approx(GOLDEN_CALL_SPREAD, abs=1e-6)
        assert sq.spread > 0

    def test_spread_increasing_in_borrow_rate(self):
        spreads = [zero_haircut_spread(
            "call", 100, 100, 2.0, make_config(spread=s, repo_spread=0.005)).spread
            for s in (0.01, 0.02, 0.04)]
        assert spreads[0] < spreads[1] < spreads[2]

    def test_put_uses_interchanged_stock_rates(self):
        cfg = make_config(spread=0.03, repo_spread=0.005)
        sq = zero_haircut_spread("put", 100, 100, 2.0, cfg)
        # put ask grows the hedge stock at the rebate rate, discounts at r
        from oracles import ref_forward_price
        fwd_ask = 100 * math.exp((cfg.rebate_rate - cfg.q) * 2.0)
        fwd_bid = 100 * math.exp((cfg.repo_rate - cfg.q) * 2.0)
        assert sq.ask == pytest.approx(
            ref_forward_price("put", fwd_ask, 100, 2.0, cfg.r, 0.5), abs=1e-12)
        assert sq.bid == pytest.approx(
            ref_forward_price("put", fwd_bid, 100, 2.0, cfg.r_b, 0.5), abs=1e-12)

    def test_bid_below_classic_below_ask(self):
        for kind in ("call", "put"):
            cfg = make_config(spread=0.02, repo_spread=0.004)
            sq = zero_haircut_spread(kind, 100, 100, 2.0, cfg)
            classic = bs_price(kind, 100, 100, 2.0, 0.10, 0.0, 0.5).price
            assert sq.bid <= classic <= sq.ask

    def test_nonzero_haircut_rejected(self):
        cfg = make_config(spread=0.02, repo_spread=0.004, repo_haircut=0.25)
        with pytest.raises(HaircutNotZero):
            zero_haircut_spread("call", 100, 100, 2.0, cfg)

    def test_no_repo_rejected(self):
        import dataclasses
        cfg = dataclasses.replace(make_config(spread=0.02), no_repo=True)
        with pytest.raises(HaircutNotZero):
            zero_haircut_spread("call", 100, 100, 2.0, cfg)


class TestOneClosedForm:
    """Every side's closed form comes from lognormal_rates and one kernel."""

    def test_side_rates(self):
        cfg = make_config(spread=0.03, repo_spread=0.005, repo_haircut=0.25,
                          rebate_spread=-0.004, sec_haircut=0.15, q=0.01)
        assert lognormal_rates("put", Side.RISK_FREE, cfg) == (cfg.r - cfg.q, cfg.r)
        # a long put hedges with long stock, financed by repo at haircut 0.25
        growth, discount = lognormal_rates("put", Side.BID, cfg)
        assert growth == pytest.approx(0.25 * cfg.r_b + 0.75 * cfg.repo_rate - cfg.q)
        assert discount == cfg.r_b
        with pytest.raises(HaircutNotZero):
            lognormal_rates("put", Side.ASK, cfg)
        flat = make_config(spread=0.03, repo_spread=0.005, rebate_spread=-0.004, q=0.01)
        assert lognormal_rates("call", Side.ASK, flat) == (flat.repo_rate - flat.q, flat.r)
        assert lognormal_rates("put", Side.ASK, flat) == (flat.rebate_rate - flat.q, flat.r)

    @pytest.mark.parametrize("kind", ["call", "put"])
    def test_degenerate_long_position_is_bs_price_bit_for_bit(self, kind):
        cfg = make_config(repo_haircut=0.35, sec_haircut=0.15, q=0.02)
        assert long_position_price(kind, 100, 95, 1.5, cfg) == \
            bs_price(kind, 100, 95, 1.5, cfg.r, cfg.q, cfg.sigma)

    @pytest.mark.parametrize("cfg", [
        make_config(repo_haircut=0.25, sec_haircut=0.15),
        dataclasses.replace(make_config(), no_repo=True),
    ])
    def test_degenerate_zero_haircut_quotes_are_classic(self, cfg):
        # haircuts and no_repo are immaterial once every rate equals r
        classic = bs_price("call", 100, 100, 2.0, cfg.r, cfg.q, cfg.sigma)
        assert zero_haircut_quotes("call", 100, 100, 2.0, cfg) == (classic, classic)
        assert zero_haircut_spread("call", 100, 100, 2.0, cfg).spread == 0.0

    @pytest.mark.parametrize("kwargs", [
        dict(expiry=1e300), dict(q=1e300), dict(rate=1e300), dict(rate=-1e300),
        dict(sigma=1e300)])
    def test_out_of_range_inputs_raise_config_error(self, kwargs):
        args = dict(spot=100.0, strike=100.0, expiry=2.0, rate=0.1, q=0.0, sigma=0.5)
        args.update(kwargs)
        with pytest.raises(ConfigError):
            bs_price("call", args["spot"], args["strike"], args["expiry"], args["rate"],
                     args["q"], args["sigma"])

    def test_vega_matches_a_finite_difference(self):
        up = bs_price("put", 100, 110, 1.5, 0.05, 0.01, 0.3 + 1e-6).price
        dn = bs_price("put", 100, 110, 1.5, 0.05, 0.01, 0.3 - 1e-6).price
        assert bs_vega("put", 100, 110, 1.5, 0.05, 0.01, 0.3) == \
            pytest.approx((up - dn) / 2e-6, rel=1e-7)


class TestImpliedVol:
    def test_recovers_calibration_vol(self):
        sigma = implied_vol("call", 100, 100, 2.0, 0.10, 0.0, 35.1452)
        assert sigma == pytest.approx(0.5, abs=1e-4)

    def test_price_above_upper_bound_rejected(self):
        with pytest.raises(PriceOutOfBounds):
            implied_vol("call", 100, 100, 2.0, 0.10, 0.0, 100.0)

    def test_price_below_intrinsic_rejected(self):
        with pytest.raises(PriceOutOfBounds):
            implied_vol("call", 100, 50, 1.0, 0.10, 0.0, 40.0)

    @pytest.mark.parametrize("sigma", [0.1, 0.3, 0.8])
    @pytest.mark.parametrize("kind", ["call", "put"])
    def test_round_trip(self, sigma, kind):
        price = bs_price(kind, 100, 110, 1.5, 0.05, 0.01, sigma).price
        assert implied_vol(kind, 100, 110, 1.5, 0.05, 0.01, price) == \
            pytest.approx(sigma, abs=1e-8)

    @given(sigma=st.floats(0.05, 2.0), strike=st.floats(60, 160),
           kind=st.sampled_from(["call", "put"]))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, sigma, strike, kind):
        from hypothesis import assume
        from fva_pricer.analytic import _price_bounds
        price = bs_price(kind, 100, strike, 1.0, 0.06, 0.02, sigma).price
        lower, _ = _price_bounds(kind, 100, strike, 1.0, 0.06, 0.02)
        assume(price - lower > 1e-8 * 100)  # needs resolvable time value
        recovered = implied_vol(kind, 100, strike, 1.0, 0.06, 0.02, price)
        # the contract is price-space accuracy; sigma itself is only pinned
        # down where vega is not vanishingly small
        reprice = bs_price(kind, 100, strike, 1.0, 0.06, 0.02, recovered).price
        assert reprice == pytest.approx(price, abs=2e-10)
        from fva_pricer.analytic import bs_vega
        if bs_vega(kind, 100, strike, 1.0, 0.06, 0.02, sigma) > 1e-3:
            assert recovered == pytest.approx(sigma, abs=1e-6)
