import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fva_pricer import (
    ConfigError,
    FundingConfig,
    OptionLeg,
    OracleUnavailable,
    PdeOracle,
    Side,
    funding_accounts,
    make_oracle,
    simulate_hedge,
)
from fva_pricer.analytic import closed_form
from fva_pricer.errors import HaircutNotZero
from fva_pricer.replication import AnalyticOracle
from conftest import EXPIRY, RATE, SPOT, STRIKE, make_config

PUT = OptionLeg("put", STRIKE)
FUNDED = dict(spread=0.02, repo_spread=0.005, repo_haircut=0.35,
              rebate_spread=-0.005, sec_haircut=0.15)


class TestClassicReplication:
    def test_discrete_hedge_is_unbiased(self, classic_config):
        s = simulate_hedge(PUT, SPOT, EXPIRY, Side.ASK, classic_config,
                           n_paths=10_000, n_steps=250, mu=0.10, seed=42)
        assert abs(s.mean) < 3.0 * s.std_error

    def test_error_shrinks_like_sqrt_dt(self, classic_config):
        s250 = simulate_hedge(PUT, SPOT, EXPIRY, Side.ASK, classic_config,
                              n_paths=10_000, n_steps=250, mu=0.10, seed=42)
        s500 = simulate_hedge(PUT, SPOT, EXPIRY, Side.ASK, classic_config,
                              n_paths=10_000, n_steps=500, mu=0.10, seed=42)
        ratio = s250.std / s500.std
        assert 1.2 <= ratio <= 1.7

    def test_drift_does_not_matter(self, classic_config):
        summaries = [simulate_hedge(PUT, SPOT, EXPIRY, Side.ASK, classic_config,
                                    n_paths=10_000, n_steps=250, mu=mu, seed=42)
                     for mu in (0.0, 0.10, 0.25)]
        intervals = [(s.mean - 1.96 * s.std_error, s.mean + 1.96 * s.std_error)
                     for s in summaries]
        for (lo1, hi1) in intervals:
            for (lo2, hi2) in intervals:
                assert lo1 <= hi2 and lo2 <= hi1

    def test_near_zero_vol_replicates_exactly(self):
        cfg = FundingConfig.classic(r=RATE, sigma=1e-6)
        s = simulate_hedge(OptionLeg("call", 90.0), SPOT, EXPIRY, Side.ASK, cfg,
                           n_paths=64, n_steps=50, mu=RATE, seed=1)
        assert s.max_abs < 1e-8 * STRIKE

    def test_same_seed_reproduces_summary(self, classic_config):
        a = simulate_hedge(PUT, SPOT, EXPIRY, Side.ASK, classic_config,
                           n_paths=500, n_steps=50, mu=0.1, seed=7)
        b = simulate_hedge(PUT, SPOT, EXPIRY, Side.ASK, classic_config,
                           n_paths=500, n_steps=50, mu=0.1, seed=7)
        assert a == b


class TestHedgeInputs:
    @pytest.mark.parametrize("field,kw", [
        ("spot", dict(spot=np.inf)), ("spot", dict(spot=0.0)),
        ("expiry", dict(expiry=np.nan)), ("expiry", dict(expiry=-1.0)),
        ("steps", dict(n_steps=0)), ("paths", dict(n_paths=0)),
    ])
    def test_invalid_input_rejected_with_its_field(self, classic_config, field, kw):
        args = dict(spot=SPOT, expiry=EXPIRY, n_paths=10, n_steps=5) | kw
        with pytest.raises(ConfigError) as info:
            simulate_hedge(PUT, side=Side.ASK, config=classic_config, mu=0.0, seed=1,
                           **args)
        assert info.value.field == field

    def test_pde_oracle_rejects_zero_steps(self, classic_config):
        with pytest.raises(ConfigError) as info:
            PdeOracle(PUT, SPOT, EXPIRY, Side.ASK, classic_config, n_steps=0)
        assert info.value.field == "steps"


class TestLedgerBookkeeping:
    def test_financing_identity_is_exact(self, classic_config):
        s = simulate_hedge(PUT, SPOT, EXPIRY, Side.ASK, classic_config,
                           n_paths=2_000, n_steps=100, mu=0.1, seed=3, check_ledger=True)
        assert s.ledger_gap < 1e-10 * STRIKE

    def test_identity_holds_with_funding_and_dividends(self):
        cfg = make_config(q=0.03, **FUNDED)
        oracle = PdeOracle(PUT, SPOT, EXPIRY, Side.ASK, cfg, n_steps=100,
                           n_nodes=400)
        s = simulate_hedge(PUT, SPOT, EXPIRY, Side.ASK, cfg, n_paths=1_000,
                           n_steps=100, mu=0.1, seed=3, oracle=oracle, check_ledger=True)
        assert s.ledger_gap < 1e-10 * STRIKE

    @pytest.mark.parametrize("oracle", ["analytic", "pde"])
    def test_ledger_switch_changes_nothing_else(self, oracle):
        cfg = make_config(q=0.03, **FUNDED)
        side = Side.BID if oracle == "analytic" else Side.ASK
        kw = dict(n_paths=500, n_steps=40, mu=0.1, seed=5, trace_path=3,
                  oracle=make_oracle(PUT, SPOT, EXPIRY, side, cfg, 40, pde_nodes=300))
        off = simulate_hedge(PUT, SPOT, EXPIRY, side, cfg, **kw)
        on = simulate_hedge(PUT, SPOT, EXPIRY, side, cfg, check_ledger=True, **kw)
        assert off.ledger_gap is None and on.ledger_gap < 1e-10 * STRIKE
        assert len(off.trace) == 41
        fields = ("mean", "std", "max_abs", "std_error", "mean_abs", "trace")
        assert np.array_equal(bits(off, fields), bits(on, fields))

    @pytest.mark.parametrize("kind", ["put", "call"])
    @pytest.mark.parametrize("oracle,side", [("analytic", Side.BID),
                                             ("analytic", Side.RISK_FREE),
                                             ("pde", Side.ASK)])
    def test_values_are_read_only_for_a_trace_or_the_ledger(self, kind, oracle, side):
        """Without a trace or the ledger check the loop asks for slopes alone, and the
        summary is bit for bit the one of a run that reads every value."""
        cfg = make_config(q=0.03, **FUNDED)
        option = OptionLeg(kind, STRIKE)
        wrapped = make_oracle(option, SPOT, EXPIRY, side, cfg, 40, pde_nodes=300)
        assert isinstance(wrapped, AnalyticOracle if oracle == "analytic" else PdeOracle)
        asked = []

        class Spy:
            def value_and_slope(self, s, tau, value=True):
                asked.append(value)
                return wrapped.value_and_slope(s, tau, value=value)

        kw = dict(n_paths=500, n_steps=40, mu=0.1, seed=5, oracle=Spy())
        slopes_only = simulate_hedge(option, SPOT, EXPIRY, side, cfg, **kw)
        assert asked == [True] + [False] * 39  # t=0 values fund the accounts
        asked.clear()
        full = simulate_hedge(option, SPOT, EXPIRY, side, cfg, trace_path=3,
                              check_ledger=True, **kw)
        assert asked == [True] * 40
        fields = ("mean", "std", "max_abs", "std_error", "mean_abs")
        assert np.array_equal(bits(slopes_only, fields), bits(full, fields))

    def test_path_draws_do_not_grow_with_the_step_count(self, funded_config):
        """Normals are drawn step by step into one buffer, not as a steps x paths matrix
        (20 MiB here)."""
        args = (PUT, SPOT, EXPIRY, Side.BID, funded_config)
        kw = dict(n_paths=10_000, n_steps=250, mu=0.1, seed=11)
        simulate_hedge(*args, **kw)  # first-call allocations are not the loop's
        tracemalloc.start()
        try:
            simulate_hedge(*args, **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20, peak

    def test_trace_accounts_are_unidirectional(self, classic_config):
        s = simulate_hedge(PUT, SPOT, EXPIRY, Side.ASK, classic_config,
                           n_paths=16, n_steps=50, mu=0.1, seed=9, trace_path=0)
        assert len(s.trace) == 51
        for state in s.trace:
            assert state.M >= 0 and state.N >= 0
            assert state.M * state.N == 0.0
            assert state.option_value >= 0


class TestFundedReplication:
    def test_pde_price_is_the_replication_price(self):
        """Hedging off the FD surface drives terminal wealth to zero."""
        cfg = make_config(**FUNDED)
        means = []
        for n_steps in (125, 250, 500):
            oracle = PdeOracle(OptionLeg("put", STRIKE), SPOT, EXPIRY, Side.BID,
                               cfg, n_steps=n_steps, n_nodes=500)
            s = simulate_hedge(OptionLeg("put", STRIKE), SPOT, EXPIRY, Side.BID,
                               cfg, n_paths=4_000, n_steps=n_steps, mu=0.10,
                               seed=7, oracle=oracle)
            means.append(np.abs(s.mean) + s.std)  # proxy for mean |pi_T| scale
        # finer rebalancing shrinks the wealth dispersion monotonically
        assert means[0] > means[1] > means[2]

    @pytest.mark.parametrize("side", [Side.BID, Side.ASK])
    def test_opening_accounts_are_funding_accounts(self, side):
        """The first ledger state holds `funding_accounts` of the oracle's t = 0
        value and hedge, bit for bit (the ask of a put runs on a PDE surface)."""
        cfg = make_config(**FUNDED)
        oracle = make_oracle(PUT, SPOT, EXPIRY, side, cfg, n_steps=20, pde_nodes=200)
        s = simulate_hedge(PUT, SPOT, EXPIRY, side, cfg, n_paths=4, n_steps=20, mu=0.1,
                           seed=3, oracle=oracle, trace_path=2)
        value, slope = oracle.value_and_slope(np.full(1, SPOT), EXPIRY)
        acct = funding_accounts(value, -slope, np.full(1, SPOT), cfg)
        first = s.trace[0]
        assert np.array([first.M, first.N, first.R]).tobytes() == \
            np.concatenate([acct.M, acct.N, acct.R]).tobytes()
        assert first.N > 0.0 if side is Side.BID else first.M > 0.0

    def test_oracle_selection(self, classic_config):
        funded = make_config(**FUNDED)
        assert isinstance(make_oracle(PUT, SPOT, EXPIRY, Side.ASK,
                                      classic_config, 50), AnalyticOracle)
        assert isinstance(make_oracle(PUT, SPOT, EXPIRY, Side.BID, funded, 50),
                          AnalyticOracle)
        assert isinstance(
            make_oracle(PUT, SPOT, EXPIRY, Side.ASK, funded, 50, pde_nodes=300),
            PdeOracle)

    def test_american_option_has_no_oracle(self, classic_config):
        with pytest.raises(OracleUnavailable):
            make_oracle(OptionLeg("put", STRIKE, style="american"), SPOT, EXPIRY,
                        Side.ASK, classic_config, 50)

    def test_pde_oracle_agrees_with_closed_form_on_bid(self):
        cfg = make_config(**FUNDED)
        pde = PdeOracle(PUT, SPOT, EXPIRY, Side.BID, cfg, n_steps=100,
                        n_nodes=1000)
        ana = AnalyticOracle(PUT, Side.BID, cfg)
        s = np.array([80.0, 100.0, 125.0])
        for tau_steps in (100, 50):
            tau = tau_steps * (EXPIRY / 100)
            v_pde, d_pde = pde.value_and_slope(s, tau)
            v_ana, d_ana = ana.value_and_slope(s, tau)
            assert v_pde == pytest.approx(v_ana, abs=5e-3)
            assert d_pde == pytest.approx(d_ana, abs=5e-3)

    def test_expiry_rejected_by_analytic_oracle(self, classic_config):
        # the simulator values the last step at the payoff itself
        oracle = AnalyticOracle(PUT, Side.BID, classic_config)
        with pytest.raises(OracleUnavailable):
            oracle.value_and_slope(np.array([100.0]), 0.0)

    def test_misaligned_time_rejected_by_pde_oracle(self):
        cfg = make_config(**FUNDED)
        oracle = PdeOracle(PUT, SPOT, EXPIRY, Side.BID, cfg, n_steps=10,
                           n_nodes=300)
        with pytest.raises(OracleUnavailable):
            oracle.value_and_slope(np.array([100.0]), 0.137)


CONFIG_FAMILIES = {
    "classic": make_config(),
    "degenerate_with_haircuts": make_config(repo_haircut=0.25, sec_haircut=0.15),
    "zero_haircut": make_config(spread=0.03, repo_spread=0.005, q=0.02),
    "haircuts": make_config(**FUNDED),
    "no_repo": dataclasses.replace(make_config(spread=0.03), no_repo=True),
}


@pytest.mark.parametrize("family", sorted(CONFIG_FAMILIES))
@pytest.mark.parametrize("side", list(Side))
@pytest.mark.parametrize("kind", ["call", "put"])
def test_analytic_oracle_is_the_closed_form(kind, side, family):
    """At scalar spots the oracle's value and slope are the side's signed price and delta."""
    cfg = CONFIG_FAMILIES[family]
    option = OptionLeg(kind, STRIKE)
    try:
        closed_form(kind, side, SPOT, STRIKE, EXPIRY, cfg)
    except HaircutNotZero:
        with pytest.raises(OracleUnavailable):
            AnalyticOracle(option, side, cfg)
        return
    oracle = AnalyticOracle(option, side, cfg)
    for spot in (60.0, 100.0, 140.0):
        for tau in (EXPIRY, 0.25):
            quote = closed_form(kind, side, spot, STRIKE, tau, cfg)
            value, slope = oracle.value_and_slope(spot, tau)
            sign = side.position_sign
            assert float(value) == pytest.approx(sign * quote.price, rel=1e-12)
            assert float(slope) == pytest.approx(sign * quote.delta, rel=1e-12)


def bits(summary, fields):
    """The int64 bit patterns of a summary's float fields and trace states, in order."""
    values = []
    for name in fields:
        value = getattr(summary, name)
        if name == "trace":
            values += [x for state in value for x in dataclasses.astuple(state)]
        else:
            values.append(value)
    return np.array(values, dtype=float).view(np.int64)


@functools.cache
def lookup_oracle(kind: str, side: Side) -> PdeOracle:
    # the ask surfaces hold -0.0 values, which a node hit must return as stored
    return PdeOracle(OptionLeg(kind, STRIKE), SPOT, EXPIRY, side, make_config(**FUNDED),
                     n_steps=20, n_nodes=300)


@st.composite
def lookup_spots(draw, nodes: np.ndarray) -> np.ndarray:
    """A run of nodes, the spots one ulp either side of them or inside their cells, or
    spots off the grid."""
    where = draw(st.sampled_from(["node", "ulp_below", "ulp_above", "cell", "top", "bottom",
                                  "special"]))
    i = draw(st.integers(0, nodes.size - 1))
    run = nodes[i:i + draw(st.integers(1, 64))]
    if where == "node":
        return run
    if where in ("ulp_below", "ulp_above"):
        return np.nextafter(run, -np.inf if where == "ulp_below" else np.inf)
    if where == "cell":
        return run + draw(st.floats(0, 1)) * (nodes[1] - nodes[0])
    off_grid = {"top": st.floats(min_value=nodes[-1], allow_infinity=False),
                "bottom": st.floats(max_value=0.0, allow_infinity=False),
                "special": st.sampled_from([np.inf, -np.inf, np.nan, -0.0, 0.0])}[where]
    return np.array(draw(st.lists(off_grid, min_size=1, max_size=4)))


@given(data=st.data(), kind=st.sampled_from(["put", "call"]),
       side=st.sampled_from([Side.BID, Side.ASK]))
@settings(max_examples=200, deadline=None)
def test_pde_lookup_is_np_interp_bit_for_bit(data, kind, side):
    oracle = lookup_oracle(kind, side)
    nodes = oracle.grid.s_nodes
    s = np.concatenate(data.draw(st.lists(lookup_spots(nodes), min_size=1, max_size=8)))
    nan = np.isnan(s)
    for k in range(len(oracle.taus)):  # every stored slice, the first and the last too
        value, slope = oracle.value_and_slope(s, k * oracle.grid.dt)
        no_value, slope_only = oracle.value_and_slope(s, k * oracle.grid.dt, value=False)
        assert no_value is None
        for got, surface in ((value, oracle.profiles[k]), (slope, oracle.slopes[k]),
                             (slope_only, oracle.slopes[k])):
            want = np.interp(s, nodes, surface)
            assert np.isnan(got[nan]).all()
            assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


@given(kind=st.sampled_from(["put", "call"]),
       side=st.sampled_from([Side.BID, Side.RISK_FREE, Side.ASK]),
       family=st.sampled_from(["classic", "zero_haircut", "haircuts"]),
       s=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=16).map(np.array),
       tau=st.floats(1e-6, 10.0))
@settings(max_examples=200, deadline=None)
def test_analytic_slope_only_is_the_full_slope_bit_for_bit(kind, side, family, s, tau):
    try:
        oracle = AnalyticOracle(OptionLeg(kind, STRIKE), side, CONFIG_FAMILIES[family])
    except OracleUnavailable:
        return
    with np.errstate(all="ignore"):  # a spot of 0 takes the log of 0
        value, slope = oracle.value_and_slope(s, tau)
        no_value, slope_only = oracle.value_and_slope(s, tau, value=False)
    assert no_value is None and value.shape == slope_only.shape
    assert np.array_equal(slope_only.view(np.int64), slope.view(np.int64))
