import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fva_pricer import (
    ConfigError,
    FundingConfig,
    InvalidHaircut,
    InvalidRateOrder,
    NonPositiveVol,
    OptionLeg,
    Portfolio,
    Side,
    terminal_payoff,
    validate,
)
from fva_pricer.market import portfolio_from_dict


class TestFundingConfigValidation:
    def test_degenerate_classic_config_is_valid(self):
        cfg = FundingConfig(r=0.10, r_b=0.10, q=0.0, sigma=0.5, repo_rate=0.10,
                            repo_haircut=0.0, rebate_rate=0.10, sec_haircut=0.0)
        validate(cfg)  # no exception

    def test_borrow_rate_below_deposit_rate_rejected(self):
        with pytest.raises(InvalidRateOrder):
            FundingConfig(r=0.10, r_b=0.07, q=0.0, sigma=0.5, repo_rate=0.10,
                          repo_haircut=0.0, rebate_rate=0.10, sec_haircut=0.0)

    def test_realistic_funded_config_is_valid(self):
        # 300 bp unsecured spread, 70 bp repo spread, 25% haircut
        cfg = FundingConfig(r=0.10, r_b=0.13, q=0.0, sigma=0.5, repo_rate=0.107,
                            repo_haircut=0.25, rebate_rate=0.095, sec_haircut=0.15)
        validate(cfg)

    def test_rebate_above_deposit_rate_rejected(self):
        with pytest.raises(InvalidRateOrder):
            FundingConfig(r=0.10, r_b=0.12, q=0.0, sigma=0.5, repo_rate=0.11,
                          repo_haircut=0.0, rebate_rate=0.11, sec_haircut=0.0)

    def test_repo_rate_below_deposit_rate_rejected(self):
        with pytest.raises(InvalidRateOrder):
            FundingConfig(r=0.10, r_b=0.12, q=0.0, sigma=0.5, repo_rate=0.09,
                          repo_haircut=0.0, rebate_rate=0.10, sec_haircut=0.0)

    @pytest.mark.parametrize("field,value", [("repo_haircut", -0.1),
                                             ("repo_haircut", 1.0),
                                             ("sec_haircut", 1.3)])
    def test_haircut_outside_unit_interval_rejected(self, field, value):
        base = dict(r=0.10, r_b=0.12, q=0.0, sigma=0.5, repo_rate=0.11,
                    repo_haircut=0.0, rebate_rate=0.09, sec_haircut=0.0)
        base[field] = value
        with pytest.raises(InvalidHaircut):
            FundingConfig(**base)

    def test_nonpositive_vol_rejected(self):
        with pytest.raises(NonPositiveVol):
            FundingConfig.classic(r=0.10, sigma=0.0)

    @pytest.mark.parametrize("field", ["r", "r_b", "q", "sigma", "repo_rate",
                                       "rebate_rate"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_input_rejected_with_its_field(self, field, value):
        base = dict(r=0.10, r_b=0.12, q=0.0, sigma=0.5, repo_rate=0.11,
                    repo_haircut=0.0, rebate_rate=0.09, sec_haircut=0.0)
        base[field] = value
        with pytest.raises(ConfigError) as info:
            FundingConfig(**base)
        assert info.value.field == field

    @pytest.mark.parametrize("kw,error,field", [
        (dict(r_b=0.07), InvalidRateOrder, "r_b"),
        (dict(rebate_rate=0.11), InvalidRateOrder, "rebate_rate"),
        (dict(repo_rate=0.09), InvalidRateOrder, "repo_rate"),
        (dict(sec_haircut=1.0), InvalidHaircut, "sec_haircut"),
        (dict(sigma=0.0), NonPositiveVol, "sigma"),
    ])
    def test_rule_violations_name_their_field(self, kw, error, field):
        base = dict(r=0.10, r_b=0.12, q=0.0, sigma=0.5, repo_rate=0.11,
                    repo_haircut=0.0, rebate_rate=0.09, sec_haircut=0.0)
        with pytest.raises(error) as info:
            FundingConfig(**{**base, **kw})
        assert info.value.field == field

    def test_degenerate_collapses_rates_and_keeps_haircuts(self, funded_config):
        deg = funded_config.degenerate()
        assert deg.r_b == deg.repo_rate == deg.rebate_rate == deg.r
        assert deg.repo_haircut == funded_config.repo_haircut
        assert deg.is_degenerate()


class TestLegAndPortfolio:
    def test_leg_validation(self):
        with pytest.raises(ConfigError):
            OptionLeg("call", -5.0)
        with pytest.raises(ConfigError):
            OptionLeg("call", 100.0, quantity=0.0)
        with pytest.raises(ConfigError):
            OptionLeg("swaption", 100.0)
        with pytest.raises(ConfigError):
            OptionLeg("call", float("inf"))
        with pytest.raises(ConfigError):
            OptionLeg("call", 100.0, quantity=float("nan"))

    def test_portfolio_needs_legs_and_positive_expiry(self):
        with pytest.raises(ConfigError):
            Portfolio(legs=(), expiry=1.0)
        with pytest.raises(ConfigError):
            Portfolio.single("call", 100.0, expiry=0.0)
        with pytest.raises(ConfigError):
            Portfolio.single("call", 100.0, expiry=float("inf"))

    def test_mixed_styles_forbidden(self):
        legs = (OptionLeg("call", 100.0, 1.0, "european"),
                OptionLeg("put", 100.0, 1.0, "american"))
        with pytest.raises(ConfigError):
            Portfolio(legs=legs, expiry=1.0)

    def test_side_signs(self):
        assert Side.BID.position_sign == 1
        assert Side.ASK.position_sign == -1
        assert Side.RISK_FREE.position_sign == 1


class TestTerminalPayoff:
    def test_single_long_call_intrinsic(self):
        pf = Portfolio.single("call", 100.0, 2.0)
        assert terminal_payoff(pf, 135.0) == pytest.approx(35.0)

    def test_bull_spread_caps_at_strike_gap(self):
        pf = Portfolio(legs=(OptionLeg("call", 95.0, 1.0),
                             OptionLeg("call", 105.0, -1.0)), expiry=2.0)
        assert terminal_payoff(pf, 200.0) == pytest.approx(10.0)

    def test_strip_pays_two_puts_below_strike(self):
        pf = Portfolio(legs=(OptionLeg("call", 100.0, 1.0),
                             OptionLeg("put", 100.0, 2.0)), expiry=2.0)
        assert terminal_payoff(pf, 90.0) == pytest.approx(20.0)

    def test_vectorized_matches_scalar(self):
        pf = Portfolio(legs=(OptionLeg("call", 95.0, 1.0),
                             OptionLeg("put", 105.0, -2.0)), expiry=1.0)
        grid = np.linspace(0.0, 300.0, 17)
        vec = terminal_payoff(pf, grid)
        assert vec == pytest.approx([terminal_payoff(pf, float(s)) for s in grid])

    @given(factor=st.floats(min_value=0.1, max_value=10.0),
           s=st.floats(min_value=0.0, max_value=500.0))
    def test_positively_homogeneous_in_quantities(self, factor, s):
        pf = Portfolio(legs=(OptionLeg("call", 95.0, 1.0),
                             OptionLeg("call", 105.0, -1.0),
                             OptionLeg("put", 100.0, 2.0)), expiry=2.0)
        scaled = dataclasses.replace(pf, legs=tuple(
            dataclasses.replace(leg, quantity=factor * leg.quantity) for leg in pf.legs))
        assert terminal_payoff(scaled, s) == pytest.approx(
            factor * terminal_payoff(pf, s), rel=1e-12, abs=1e-12)

    @given(qty=st.floats(min_value=-5, max_value=5).filter(lambda x: abs(x) > 1e-3),
           s=st.floats(min_value=0.0, max_value=400.0),
           kind=st.sampled_from(["call", "put"]))
    def test_single_leg_payoff_sign_follows_quantity(self, qty, s, kind):
        pf = Portfolio.single(kind, 100.0, 1.0, quantity=qty)
        payoff = terminal_payoff(pf, s)
        assert payoff >= 0 if qty > 0 else payoff <= 0


class TestPortfolioWireFormat:
    def test_round_trip(self):
        payload = {"expiry": 2.0, "style": "european",
                   "legs": [{"kind": "call", "strike": 95.0, "qty": 1.0},
                            {"kind": "call", "strike": 105.0, "qty": -1.0}]}
        pf = portfolio_from_dict(payload)
        assert pf.expiry == 2.0
        assert pf.legs[1].quantity == -1.0
        assert [(leg.kind, leg.strike, leg.quantity) for leg in pf.legs] == \
            [(leg["kind"], leg["strike"], leg["qty"]) for leg in payload["legs"]]
        assert pf.style == "european"

    def test_malformed_payload_raises(self):
        with pytest.raises(ConfigError):
            portfolio_from_dict({"legs": [{"kind": "call", "strike": 95.0}]})
