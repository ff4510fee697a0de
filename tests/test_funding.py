import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fva_pricer import (
    Side,
    funding_accounts,
    fva,
    select_financing,
)
from conftest import make_config


class TestSelectFinancing:
    def test_long_stock_uses_repo_terms(self):
        cfg = make_config(spread=0.03, repo_spread=0.007, repo_haircut=0.25)
        sel = select_financing(+1, cfg)
        assert sel.h_signed == 0.25
        assert sel.r_p_effective == pytest.approx(0.107)
        assert sel.r_s == pytest.approx(0.10 + 0.75 * 0.007)  # 0.10525

    def test_short_stock_uses_stock_borrow_terms(self):
        cfg = make_config(spread=0.03, rebate_spread=-0.005, sec_haircut=0.15)
        sel = select_financing(-1, cfg)
        assert sel.h_signed == -0.15
        assert sel.r_p_effective == pytest.approx(0.095)
        assert sel.r_s == pytest.approx(0.10 + 1.15 * -0.005)  # 0.09425

    def test_degenerate_config_gives_deposit_rate_any_sign(self):
        cfg = make_config()
        for sign in (-1, 0, 1):
            assert select_financing(sign, cfg).r_s == pytest.approx(cfg.r)

    def test_zero_sign_ties_to_repo_branch(self):
        cfg = make_config(repo_spread=0.007, repo_haircut=0.25, sec_haircut=0.15)
        assert select_financing(0, cfg).h_signed == 0.25

    def test_no_repo_pins_haircut_to_one(self):
        cfg = dataclasses.replace(make_config(spread=0.02, repo_spread=0.005),
                                  no_repo=True)
        assert select_financing(+1, cfg).h_signed == 1.0
        assert select_financing(-1, cfg).h_signed == -1.0
        # with h=1 the secured leg vanishes and r_s collapses to r
        assert select_financing(+1, cfg).r_s == pytest.approx(cfg.r)

    def test_selection_is_scale_free(self):
        # depends on the sign only, not on any price or position level
        cfg = make_config(spread=0.03, repo_spread=0.007, repo_haircut=0.25)
        assert select_financing(1, cfg) == select_financing(1, cfg)


class TestFundingTerm:
    """The funding term, the cost rate (r_b - r) * N of the position's debt N."""

    def test_short_put_economy_has_no_unsecured_debt(self):
        # position value -17.0183, slope +0.262259 (short a put), spot 100:
        # the hedge shorts stock, margin haircut 15%, and the debt basis
        # 3.9339 - 17.0183 is negative, so there is no debt to fund and the
        # deposit account holds the difference.
        cfg = make_config(spread=0.03, rebate_spread=-0.005, sec_haircut=0.15)
        acct = funding_accounts(-17.0183, -0.262259, 100.0, cfg)
        assert acct.M == pytest.approx(13.0844, abs=1e-4)
        assert acct.N == 0.0

    def test_long_call_zero_haircut_finances_whole_premium(self):
        cfg = make_config(spread=0.03, rebate_spread=-0.005)
        value, slope = 35.1452, 0.737741
        acct = funding_accounts(value, -slope, 100.0, cfg)
        assert (cfg.r_b - cfg.r) * acct.N == pytest.approx(0.03 * value)


class TestFundingAccounts:
    @given(value=st.floats(-80, 80), holding=st.floats(-2, 2),
           spot=st.floats(1, 300))
    def test_unidirectional_and_repo_balance(self, value, holding, spot):
        cfg = make_config(spread=0.02, repo_spread=0.004, repo_haircut=0.25,
                          sec_haircut=0.15)
        acct = funding_accounts(value, holding, spot, cfg)
        assert acct.M >= 0 and acct.N >= 0
        assert acct.M * acct.N == 0.0
        h = 0.25 if holding >= 0 else -0.15
        assert acct.R == pytest.approx((1 - h) * holding * spot, rel=1e-12, abs=1e-12)

    def test_wealth_closes_to_zero(self):
        # M + holding*S + U - R - N must vanish by construction
        cfg = make_config(spread=0.02, repo_spread=0.004, repo_haircut=0.25,
                          sec_haircut=0.15)
        for value, holding in ((25.0, -0.6), (-12.0, 0.4), (-40.0, -1.2)):
            acct = funding_accounts(value, holding, 100.0, cfg)
            wealth = acct.M + holding * 100.0 + value - acct.R - acct.N
            assert wealth == pytest.approx(0.0, abs=1e-10)

    @given(seed=st.integers(0, 2**32 - 1))
    def test_arrays_equal_elementwise_calls_bit_for_bit(self, seed):
        cfg = make_config(spread=0.02, repo_spread=0.004, repo_haircut=0.25,
                          sec_haircut=0.15)
        rng = np.random.default_rng(seed)
        value, holding = rng.normal(0.0, 40.0, 64), rng.normal(0.0, 1.0, 64)
        holding[:3] = (0.0, -0.0, 1e-300)
        spot = rng.uniform(1.0, 300.0, 64)
        acct = funding_accounts(value, holding, spot, cfg)
        for i in range(value.size):
            one = funding_accounts(float(value[i]), float(holding[i]), float(spot[i]), cfg)
            assert np.array([one.M, one.N, one.R]).tobytes() == \
                np.array([acct.M[i], acct.N[i], acct.R[i]]).tobytes()


class TestFva:
    def test_identity_cases(self):
        assert fva(Side.BID, 17.0183, 17.0183) == 0.0
        assert fva(Side.BID, 16.5, 17.0183) == pytest.approx(0.5183)
        assert fva(Side.ASK, 17.5, 17.0183) == pytest.approx(0.4817)
