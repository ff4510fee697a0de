import dataclasses
import math
import re

import numpy as np
import pytest
from scipy.linalg import LinAlgError, solve_banded

from fva_pricer import (
    ConfigError,
    GridTooCoarse,
    NoConvergence,
    OptionLeg,
    PdeGrid,
    Portfolio,
    Side,
    SolverParams,
    bs_price,
    long_position_price,
    solve,
    zero_haircut_spread,
)
from fva_pricer import pde
from fva_pricer.funding import financing_arrays, select_financing
from fva_pricer.pde import _pattern, _region_tables, _tridiag
from conftest import EXPIRY, RATE, SPOT, STRIKE, VOL, make_config


def single(kind, strike=STRIKE, expiry=EXPIRY, qty=1.0):
    return Portfolio.single(kind, strike, expiry, quantity=qty)


class TestGrid:
    def test_spot_snaps_onto_node(self, fine_grid):
        s = fine_grid.s_nodes
        assert s[0] == 0.0
        assert s[fine_grid.spot_index] == pytest.approx(SPOT, abs=1e-12)
        assert s.size == 2000

    def test_span_covers_four_sigmas(self, fine_grid):
        assert fine_grid.s_nodes[-1] >= SPOT * math.exp(4 * VOL * math.sqrt(EXPIRY))

    def test_steps_cover_expiry_exactly(self):
        grid = PdeGrid.build(100, 100, 0.5, 1.0, n_nodes=200, dt=0.03)
        assert grid.n_steps == 34
        assert grid.n_steps * grid.dt == pytest.approx(1.0)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(GridTooCoarse):
            PdeGrid.build(100, 100, 0.5, 2.0, n_nodes=20, dt=0.02)

    @pytest.mark.parametrize("field,kw", [
        ("spot", dict(spot=float("inf"))),
        ("spot", dict(spot=-1.0)),
        ("expiry", dict(expiry=float("nan"))),
        ("dt", dict(dt=0.0)),
        ("dt", dict(dt=float("nan"))),
        ("dt", dict(dt=float("inf"))),
    ])
    def test_nonfinite_or_nonpositive_input_rejected(self, field, kw):
        args = dict(spot=100.0, max_strike=100.0, sigma=0.5, expiry=2.0, dt=0.02)
        with pytest.raises(ConfigError) as info:
            PdeGrid.build(**{**args, **kw})
        assert info.value.field == field

    def test_hand_built_grid_validated(self):
        with pytest.raises(ConfigError):
            PdeGrid(s_nodes=np.array([1.0, 2.0, 3.0, 4.0, 5.0]), dt=0.1,
                    n_steps=10, spot_index=2)
        with pytest.raises(ConfigError):
            PdeGrid(s_nodes=np.array([0.0, 1.0, 2.0, 4.0, 8.0, 16.0]), dt=0.1,
                    n_steps=10, spot_index=2)


class TestCalibrationCase:
    """FD against the closed form on the standard grid."""

    @pytest.mark.parametrize("kind,fd_published", [("call", 35.1445),
                                                   ("put", 17.017279)])
    def test_price_delta_gamma(self, kind, fd_published, classic_config, fine_grid):
        res = solve(single(kind), Side.RISK_FREE, classic_config, fine_grid)
        exact = bs_price(kind, SPOT, STRIKE, EXPIRY, RATE, 0.0, VOL)
        assert abs(res.price - exact.price) <= 5e-3
        assert abs(res.delta - exact.delta) <= 5e-4
        assert abs(res.gamma - exact.gamma) <= 1e-4
        # close to the independently published FD figures as well
        assert res.price == pytest.approx(fd_published, abs=1.5e-3)

    def test_delta_matches_bump_and_reprice(self, classic_config, fine_grid):
        res = solve(single("call"), Side.RISK_FREE, classic_config, fine_grid)
        bump = 0.5
        grids = {dS: PdeGrid.build(SPOT + dS, STRIKE, VOL, EXPIRY, 2000, 0.02)
                 for dS in (-bump, bump)}
        up = solve(single("call"), Side.RISK_FREE, classic_config, grids[bump])
        dn = solve(single("call"), Side.RISK_FREE, classic_config, grids[-bump])
        fd_delta = (up.price - dn.price) / (2 * bump)
        assert res.delta == pytest.approx(fd_delta, rel=1e-3)

    def test_gamma_consistent_across_stencil_widths(self, classic_config, fine_grid):
        # second differences of the same profile on a 4x wider stencil must
        # reproduce the reported gamma (rebuilt-grid bumps cannot: their
        # discretization biases do not cancel in second differences)
        res = solve(single("put"), Side.RISK_FREE, classic_config, fine_grid)
        m, ds = fine_grid.spot_index, fine_grid.ds
        k = 4
        u = res.profile
        wide = (u[m + k] - 2 * u[m] + u[m - k]) / (k * ds) ** 2
        assert res.gamma == pytest.approx(wide, rel=1e-3)

    def test_convergence_second_order(self, classic_config):
        errors = []
        for nodes, dt in ((500, 0.08), (1000, 0.04)):
            grid = PdeGrid.build(SPOT, STRIKE, VOL, EXPIRY, nodes, dt)
            res = solve(single("put"), Side.RISK_FREE, classic_config, grid)
            errors.append(abs(res.price
                              - bs_price("put", SPOT, STRIKE, EXPIRY, RATE, 0.0, VOL).price))
        assert errors[0] / errors[1] >= 3.0

    def test_runtime_under_budget(self, classic_config, fine_grid):
        import time
        start = time.monotonic()
        solve(single("call"), Side.RISK_FREE, classic_config, fine_grid)
        assert time.monotonic() - start < 10.0


class TestBoundaryBehavior:
    def test_linear_call_profile_stays_linear_at_top(self, classic_config, fine_grid):
        res = solve(single("call"), Side.RISK_FREE, classic_config, fine_grid)
        u = res.profile
        # zero-gamma rows add no curvature where the payoff is already linear
        top = u[-5:]
        second_diff = np.diff(top, 2)
        assert np.max(np.abs(second_diff)) < 1e-6 * STRIKE

    def test_put_value_at_zero_discounts_strike(self, classic_config, fine_grid):
        res = solve(single("put"), Side.RISK_FREE, classic_config, fine_grid)
        assert res.profile[0] == pytest.approx(STRIKE * math.exp(-RATE * EXPIRY),
                                               rel=1e-3)

    def test_straddle_superposition(self, classic_config, coarse_grid):
        call = solve(single("call"), Side.RISK_FREE, classic_config, coarse_grid)
        put = solve(single("put"), Side.RISK_FREE, classic_config, coarse_grid)
        straddle = Portfolio(legs=(OptionLeg("call", STRIKE, 1.0),
                                   OptionLeg("put", STRIKE, 1.0)), expiry=EXPIRY)
        both = solve(straddle, Side.RISK_FREE, classic_config, coarse_grid)
        assert both.value == pytest.approx(call.value + put.value, abs=1e-10)

    def test_superposition_with_scaling(self, classic_config, coarse_grid):
        # degenerate solver is exactly linear on a fixed grid
        a, b = 2.0, -3.0
        p1, p2 = single("call", qty=1.0), single("put", qty=1.0)
        combo = Portfolio(legs=(OptionLeg("call", STRIKE, a),
                                OptionLeg("put", STRIKE, b)), expiry=EXPIRY)
        v1 = solve(p1, Side.RISK_FREE, classic_config, coarse_grid).value
        v2 = solve(p2, Side.RISK_FREE, classic_config, coarse_grid).value
        v = solve(combo, Side.RISK_FREE, classic_config, coarse_grid).value
        assert v == pytest.approx(a * v1 + b * v2, abs=1e-10)


class TestFundedSolves:
    def test_bid_matches_long_position_closed_form(self, fine_grid):
        for kind, h_field in (("put", "repo_haircut"), ("call", "sec_haircut")):
            for h in (0.0, 0.25, 0.35):
                cfg = make_config(spread=0.02, repo_spread=0.005,
                                  rebate_spread=-0.005, **{h_field: h})
                res = solve(single(kind), Side.BID, cfg, fine_grid)
                exact = long_position_price(kind, SPOT, STRIKE, EXPIRY, cfg)
                assert res.value == pytest.approx(exact.price, abs=1e-2)

    def test_zero_haircut_ask_matches_closed_form(self, fine_grid):
        cfg = make_config(spread=0.03, repo_spread=0.005)
        for kind in ("call", "put"):
            sq = zero_haircut_spread(kind, SPOT, STRIKE, EXPIRY, cfg)
            ask = -solve(single(kind), Side.ASK, cfg, fine_grid).value
            bid = solve(single(kind), Side.BID, cfg, fine_grid).value
            assert ask == pytest.approx(sq.ask, abs=1e-2)
            assert bid == pytest.approx(sq.bid, abs=1e-2)

    def test_haircut_crossover_when_spreads_match(self, fine_grid):
        # equal repo and unsecured spreads make the long PDE haircut-free
        flat = make_config(spread=0.005, repo_spread=0.005)
        cut = make_config(spread=0.005, repo_spread=0.005, repo_haircut=0.35)
        v_flat = solve(single("put"), Side.BID, flat, fine_grid).value
        v_cut = solve(single("put"), Side.BID, cut, fine_grid).value
        assert v_cut == pytest.approx(v_flat, rel=1e-9)

    def test_sides_collapse_when_spread_is_zero(self, coarse_grid, classic_config):
        bid = solve(single("call"), Side.BID, classic_config, coarse_grid)
        ask = solve(single("call"), Side.ASK, classic_config, coarse_grid)
        rf = solve(single("call"), Side.RISK_FREE, classic_config, coarse_grid)
        assert bid.value == pytest.approx(rf.value, abs=1e-10)
        assert -ask.value == pytest.approx(rf.value, abs=1e-10)

    def test_bid_monotone_down_ask_monotone_up_in_spread(self, coarse_grid):
        bids, asks = [], []
        for spread in (0.0, 0.015, 0.03):
            cfg = make_config(spread=spread, repo_spread=0.005,
                              repo_haircut=0.25, sec_haircut=0.15)
            bids.append(solve(single("put"), Side.BID, cfg, coarse_grid).value)
            asks.append(-solve(single("put"), Side.ASK, cfg, coarse_grid).value)
        assert bids[0] >= bids[1] >= bids[2]
        assert asks[0] <= asks[1] <= asks[2]
        assert bids[1] < bids[0] and asks[1] > asks[0]

    def test_funded_bull_spread_reports_funding_boundary(self, coarse_grid):
        cfg = make_config(spread=0.03, repo_spread=0.005, repo_haircut=0.25,
                          sec_haircut=0.15)
        book = Portfolio(legs=(OptionLeg("call", 95.0, 1.0),
                               OptionLeg("call", 105.0, -1.0)), expiry=EXPIRY)
        res = solve(book, Side.BID, cfg, coarse_grid)
        assert len(res.funding_boundary) > 0
        for t, s in res.funding_boundary:
            assert 0.0 <= t <= EXPIRY
            assert 0.0 < s < coarse_grid.s_nodes[-1]

    def test_debt_and_deposit_regions_are_complementary(self, coarse_grid):
        # the short bull book splits the final slice into an unsecured-debt
        # region and a deposit region; the two are disjoint and exhaust the
        # grid up to the near-zero band around the switch
        from fva_pricer import funding_accounts
        cfg = make_config(spread=0.03, repo_spread=0.005, repo_haircut=0.25,
                          sec_haircut=0.15)
        book = Portfolio(legs=(OptionLeg("call", 95.0, 1.0),
                               OptionLeg("call", 105.0, -1.0)), expiry=EXPIRY)
        res = solve(book, Side.ASK, cfg, coarse_grid)
        u, s, ds = res.profile, coarse_grid.s_nodes, coarse_grid.ds
        tol = 1e-9 * STRIKE
        debt_nodes, deposit_nodes = set(), set()
        for i in range(1, len(s) - 1):
            slope = (u[i + 1] - u[i - 1]) / (2 * ds)
            acct = funding_accounts(u[i], -slope, s[i], cfg)
            assert acct.M * acct.N == 0.0
            if acct.N > tol:
                debt_nodes.add(i)
            if acct.M > tol:
                deposit_nodes.add(i)
        # a bull spread genuinely splits the grid into both regions
        assert debt_nodes and deposit_nodes
        assert not debt_nodes & deposit_nodes

    def test_single_leg_solves_report_no_boundary(self, fine_grid):
        cfg = make_config(spread=0.02, repo_spread=0.005, repo_haircut=0.35)
        res = solve(single("put"), Side.BID, cfg, fine_grid)
        # a long vanilla has the funding indicator on everywhere
        assert res.funding_boundary == ()

    def test_no_repo_widens_both_sides(self, coarse_grid):
        import dataclasses
        base = make_config(spread=0.02)
        cfg = dataclasses.replace(base, no_repo=True)
        rf = solve(single("put"), Side.RISK_FREE, base, coarse_grid).value
        bid = solve(single("put"), Side.BID, cfg, coarse_grid).value
        ask = -solve(single("put"), Side.ASK, cfg, coarse_grid).value
        plain_bid = solve(single("put"), Side.BID, base, coarse_grid).value
        assert bid < plain_bid < rf
        # the short-put hedge borrows stock unsecured here, so even the ask
        # carries a funding charge that the zero-haircut form would not see
        assert ask > rf
        assert bid == pytest.approx(
            long_position_price("put", SPOT, STRIKE, EXPIRY, cfg).price, abs=5e-2)


class TestSolverErrors:
    def test_exhausted_funding_iterations_raise(self, coarse_grid):
        cfg = make_config(spread=0.03, repo_spread=0.005, repo_haircut=0.25,
                          sec_haircut=0.15)
        book = Portfolio(legs=(OptionLeg("call", 95.0, 1.0),
                               OptionLeg("call", 105.0, -1.0)), expiry=EXPIRY)
        params = SolverParams(funding_iter_tol=1e-18, funding_max_iters=1)
        with pytest.raises(NoConvergence):
            solve(book, Side.BID, cfg, coarse_grid, params)

    def test_exhausted_budget_says_where_it_stopped(self, coarse_grid):
        cfg = make_config(spread=0.03, repo_spread=0.005, repo_haircut=0.25,
                          sec_haircut=0.15)
        params = SolverParams(funding_max_iters=1)
        with pytest.raises(NoConvergence) as info:
            solve(single("put"), Side.BID, cfg, coarse_grid, params)
        message = str(info.value)
        # the coarse grid's first step ends at t = 2 - 0.04
        assert "exceeded 1 iterations at step 0 (t=1.96)" in message
        assert re.search(r"last change \S+ against tolerance 1e-08, \d+ indicator "
                         r"flips in the last iterate$", message), message

    def test_empty_funding_budget_rejected(self):
        with pytest.raises(ConfigError):
            SolverParams(funding_max_iters=0)

    def test_american_legs_rejected_by_european_solver(self, classic_config,
                                                       coarse_grid):
        pf = Portfolio.single("put", STRIKE, EXPIRY, style="american")
        with pytest.raises(ConfigError):
            solve(pf, Side.RISK_FREE, classic_config, coarse_grid)

    @pytest.mark.parametrize("field,value", [
        ("rannacher_steps", -3), ("rannacher_steps", -1),
        ("funding_iter_tol", math.inf), ("funding_iter_tol", math.nan),
        ("funding_iter_tol", 0.0), ("funding_iter_tol", -1e-8)])
    def test_bad_params_rejected_with_their_field(self, field, value):
        with pytest.raises(ConfigError) as info:
            SolverParams(**{field: value})
        assert info.value.field == field


def direct_operator(h, rp, ind, s, ds, config):
    """The funded operator built node by node from per-node h, rp and ind arrays."""
    spread = config.spread
    r_s = config.r + (1.0 - h) * (rp - config.r)
    a_conv = (r_s - config.q + ind * spread * h) * s
    rho = config.r + ind * spread
    n = s.size
    lo, di, up = np.zeros(n), np.zeros(n), np.zeros(n)
    upwinded = 0
    for j in range(1, n - 1):
        diff = 0.5 * config.sigma ** 2 * s[j] ** 2 / ds ** 2
        a = a_conv[j]
        if abs(a) * ds > config.sigma ** 2 * s[j] ** 2:
            upwinded += 1
            lo[j] = diff - (0.0 if a > 0 else a / ds)
            di[j] = -2.0 * diff - rho[j] - abs(a) / ds
            up[j] = diff + (a / ds if a > 0 else 0.0)
        else:
            lo[j] = diff - a / (2.0 * ds)
            di[j] = -2.0 * diff - rho[j]
            up[j] = diff + a / (2.0 * ds)
    halves = (0.5 * (a_conv[0] + a_conv[1]), 0.5 * (rho[0] + rho[1]),
              0.5 * (a_conv[-2] + a_conv[-1]), 0.5 * (rho[-2] + rho[-1]))
    return lo, di, up, halves, upwinded


OPERATOR_CONFIGS = {
    "funded": make_config(spread=0.03, repo_spread=0.005, rebate_spread=-0.005,
                          repo_haircut=0.25, sec_haircut=0.15),
    "no_repo": dataclasses.replace(make_config(spread=0.03), no_repo=True),
    "zero_haircut": make_config(spread=0.03, repo_spread=0.005),
    "low_vol": make_config(spread=0.03, repo_spread=0.005, rebate_spread=-0.005,
                           repo_haircut=0.25, sec_haircut=0.15, sigma=0.1, q=0.02),
}


class TestRegionTables:
    @pytest.mark.parametrize("name", sorted(OPERATOR_CONFIGS))
    @pytest.mark.parametrize("seed", range(3))
    def test_gathered_operator_equals_direct_build(self, name, seed):
        config = OPERATOR_CONFIGS[name]
        grid = PdeGrid.build(SPOT, STRIKE, config.sigma, EXPIRY, n_nodes=400, dt=0.04)
        s, ds = grid.s_nodes, grid.ds
        region = np.random.default_rng(seed).integers(0, 4, s.size)
        ind, long_stock = np.divmod(region, 2)
        h, rp = financing_arrays(np.where(long_stock == 1, 1.0, -1.0), config)
        lo, di, up, halves, upwinded = direct_operator(h, rp, ind.astype(float), s, ds,
                                                       config)
        op = _region_tables(s, ds, config).operator(region)
        for got, want in ((op.lo, lo), (op.di, di), (op.up, up)):
            assert got.tobytes() == want.tobytes()
        assert (op.a_lo_half, op.rho_lo_half, op.a_hi_half, op.rho_hi_half) == halves
        assert op.upwinded == upwinded
        if name == "low_vol":
            assert upwinded > 0

    @pytest.mark.parametrize("name", sorted(OPERATOR_CONFIGS))
    def test_pattern_region_matches_its_financing(self, name):
        config = OPERATOR_CONFIGS[name]
        grid = PdeGrid.build(SPOT, STRIKE, config.sigma, EXPIRY, n_nodes=400, dt=0.04)
        u = np.random.default_rng(7).normal(size=grid.s_nodes.size)
        pat = _pattern(u, grid.s_nodes, grid.ds, config)
        assert set(np.unique(pat.region)) == {0, 1, 2, 3}
        np.testing.assert_array_equal(pat.ind, pat.region // 2)
        haircut = [select_financing(-1, config).h_signed,
                   select_financing(1, config).h_signed]
        np.testing.assert_array_equal(pat.h, np.take(haircut, pat.region % 2))


def banded(lower, diag, upper):
    ab = np.zeros((3, diag.size))
    ab[0, 1:] = upper[:-1]
    ab[1] = diag
    ab[2, :-1] = lower[1:]
    return ab


class TestTridiag:
    @pytest.mark.parametrize("seed", range(5))
    def test_equals_solve_banded(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 600))
        lower, upper = rng.normal(size=n), rng.normal(size=n)
        diag = (np.abs(lower) + np.abs(upper) + rng.uniform(0.1, 2.0, n)) \
            * rng.choice([-1.0, 1.0], n)
        rhs = rng.normal(size=n)
        args = (lower.copy(), diag.copy(), upper.copy(), rhs.copy())
        x = _tridiag(*args)
        assert x.tobytes() == solve_banded((1, 1), banded(lower, diag, upper),
                                           rhs).tobytes()
        for before, after in zip((lower, diag, upper, rhs), args):
            np.testing.assert_array_equal(before, after)

    def test_nan_rhs_raises(self):
        ones = np.ones(5)
        rhs = ones.copy()
        rhs[2] = np.nan
        with pytest.raises(ValueError):
            _tridiag(ones, 4.0 * ones, ones, rhs)

    def test_singular_matrix_raises(self):
        diag = np.ones(5)
        diag[3] = 0.0
        with pytest.raises(LinAlgError, match="singular matrix"):
            _tridiag(np.zeros(5), diag, np.zeros(5), np.ones(5))


def confirming_substep(st, dts, theta):
    """The substep without the repeat skip: it always runs the confirming solve."""
    params, obstacle, sign = st.params, st.obstacle, st.sign
    op = st.tables.operator(st.pat.region)
    rhs = pde._rhs_vector(st.u, op, st.ds, dts, theta)
    pat, ex, u_prev = st.pat, st.exercised, st.u
    for _ in range(params.funding_max_iters):
        st.upwinded = max(st.upwinded, op.upwinded)
        lo, di, up = pde._implicit_system(op, st.ds, dts, theta)
        if obstacle is None:
            x, new_ex = pde._tridiag(lo, di, up, rhs), ex
        else:
            # exercised rows read x = obstacle; Howard's rule picks the next set
            x = pde._tridiag(np.where(ex, 0.0, lo), np.where(ex, 1.0, di),
                             np.where(ex, 0.0, up), np.where(ex, obstacle, rhs))
            resid = di * x - rhs
            resid[1:] += lo[1:] * x[:-1]
            resid[:-1] += up[:-1] * x[1:]
            new_ex = sign * (x - obstacle) <= sign * resid
        change = float(np.max(np.abs(x - u_prev)))
        new_pat = pde._pattern(x, st.s, st.ds, st.config)
        done = st._converged(change, new_pat, pat)
        u_prev, old, pat = x, pat, new_pat
        old_ex, ex = ex, new_ex
        if done:
            st.u, st.pat, st.exercised = x, pat, ex
            return
        op = st.tables.operator(pat.region)
    raise st.no_convergence(change, pat, old, ex, old_ex)


SKIP_CONFIGS = {
    **OPERATOR_CONFIGS,
    "spread_0": make_config(repo_spread=0.005, rebate_spread=-0.005,
                            repo_haircut=0.25, sec_haircut=0.15),
}
SKIP_CASES = [(name, side) for name in sorted(SKIP_CONFIGS)
              for side in (Side.BID, Side.ASK)] + [("funded", Side.RISK_FREE)]
BULL = Portfolio(legs=(OptionLeg("call", 95.0, 1.0), OptionLeg("call", 105.0, -1.0)),
                 expiry=EXPIRY)
AMERICAN_PUT = Portfolio.single("put", STRIKE, EXPIRY, style="american")


def fingerprint(entry, args):
    """The bytes a solve produces, or the message of its NoConvergence."""
    try:
        result = getattr(pde, entry)(*args)
    except NoConvergence as exc:
        return f"{type(exc).__name__}: {exc}"
    if entry == "solve_surface":
        return tuple(a.tobytes() for a in result)
    return result.profile.tobytes(), result.funding_boundary, result.upwinded_nodes


class TestRepeatSkip:
    """Skipping the confirming re-solve leaves every output bit-identical."""

    @pytest.mark.parametrize("budget", [1, 2, 3, 50])
    @pytest.mark.parametrize("entry", ["solve", "solve_surface", "solve_american"])
    @pytest.mark.parametrize("name,side", SKIP_CASES)
    def test_matches_the_confirming_solve(self, monkeypatch, name, side, entry, budget):
        config = SKIP_CONFIGS[name]
        grid = PdeGrid.build(SPOT, STRIKE, config.sigma, EXPIRY, n_nodes=200, dt=0.1)
        book = AMERICAN_PUT if entry == "solve_american" else BULL
        args = (book, side, config, grid, SolverParams(funding_max_iters=budget))
        got = fingerprint(entry, args)
        monkeypatch.setattr(pde, "_substep", confirming_substep)
        assert got == fingerprint(entry, args)

    def test_skip_runs_fewer_solves(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return _tridiag(*args)

        monkeypatch.setattr(pde, "_tridiag", counted)
        config = SKIP_CONFIGS["funded"]
        grid = PdeGrid.build(SPOT, STRIKE, config.sigma, EXPIRY, n_nodes=200, dt=0.1)
        pde.solve(BULL, Side.BID, config, grid)
        skipping = len(calls)
        monkeypatch.setattr(pde, "_substep", confirming_substep)
        pde.solve(BULL, Side.BID, config, grid)
        assert skipping < 0.75 * (len(calls) - skipping)
