import dataclasses
import math
import re
from unittest.mock import patch

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st
from scipy.linalg import LinAlgError, solve_banded
from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs

from fva_pricer import (
    BadStrikes,
    ConfigError,
    GridTooCoarse,
    NoConvergence,
    OptionLeg,
    PdeGrid,
    Portfolio,
    Side,
    bs_price,
    long_position_price,
    solve,
    solve_american,
    solve_many,
    terminal_payoff,
    zero_haircut_spread,
)
from fva_pricer import pde
from fva_pricer.cli import main
from fva_pricer.funding import financing_arrays, select_financing
from fva_pricer.pde import _tridiag
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

    @pytest.mark.parametrize("spot,strike", [(100.0, 1.0), (1e150, 100.0), (100.0, 1e-300)])
    def test_strike_inside_the_first_cell_rejected(self, spot, strike):
        """A strike below ds has its payoff kink inside [0, ds): the grid would price
        0.00784 for a put that is worth 0 at spot 1e150."""
        with pytest.raises(GridTooCoarse) as info:
            PdeGrid.build(spot, strike, VOL, EXPIRY, n_nodes=200, dt=0.05)
        assert info.value.field == "nodes"
        if spot != 100.0 or strike != 1.0:  # it would take more nodes than the cap allows
            assert str(info.value).endswith(
                f"; no grid within the {pde.MAX_NODES}-node cap resolves it"), info.value
        else:  # the node count it names is the least that works
            match = re.search(r"about (\d+) nodes$", str(info.value))
            assert match, info.value
            need = int(match.group(1))
            assert PdeGrid.build(spot, strike, VOL, EXPIRY, n_nodes=need, dt=0.05).ds <= strike
            with pytest.raises(GridTooCoarse):
                PdeGrid.build(spot, strike, VOL, EXPIRY, n_nodes=need - 1, dt=0.05)

    def test_book_grid_resolves_its_smallest_strike(self):
        book = Portfolio(legs=(OptionLeg("put", 1.0), OptionLeg("call", 100.0)), expiry=EXPIRY)
        with pytest.raises(GridTooCoarse):
            PdeGrid.for_portfolio(SPOT, book, make_config(), n_nodes=200, dt=0.05)
        assert PdeGrid.for_portfolio(SPOT, book, make_config(), n_nodes=2000, dt=0.05).ds <= 1.0

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
        """The short bull book has a free funding boundary inside the grid.  The
        S = 0 node takes the region of the half node its row lies at, so no book
        reports a switch at ds / 2 from that node alone."""
        cfg = make_config(spread=0.03, repo_spread=0.005, repo_haircut=0.25,
                          sec_haircut=0.15)
        book = Portfolio(legs=(OptionLeg("call", 95.0, 1.0),
                               OptionLeg("call", 105.0, -1.0)), expiry=EXPIRY)
        res = solve(book, Side.ASK, cfg, coarse_grid)
        assert len(res.funding_boundary) > 0
        for t, s in res.funding_boundary:
            assert 0.0 <= t <= EXPIRY
            assert coarse_grid.ds < s < coarse_grid.s_nodes[-1]
        bid = solve(book, Side.BID, cfg, coarse_grid)
        assert all(s != 0.5 * coarse_grid.ds for _, s in bid.funding_boundary)

    def test_call_struck_near_zero_prices_on_both_sides(self):
        """A call struck at 1e-300 is worth the stock discounted at the borrow
        spread.  Its S = 0 row once lay in two funding regions, and that node's
        indicator cycled until the budget ran out."""
        cfg = make_config(spread=0.03, r=0.05, sigma=0.2)
        grid = PdeGrid(s_nodes=np.linspace(0.0, 400.0, 200), dt=0.05, n_steps=20,
                       spot_index=50)
        book = Portfolio.single("call", 1e-300, 1.0)
        bid = solve(book, Side.BID, cfg, grid).price
        ask = solve(book, Side.ASK, cfg, grid).price
        assert np.isfinite([bid, ask]).all() and bid <= ask
        assert bid == pytest.approx(grid.spot * math.exp(-0.03), rel=1e-5)

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
    def test_exhausted_funding_iterations_raise(self, coarse_grid, monkeypatch):
        cfg = make_config(spread=0.03, repo_spread=0.005, repo_haircut=0.25,
                          sec_haircut=0.15)
        book = Portfolio(legs=(OptionLeg("call", 95.0, 1.0),
                               OptionLeg("call", 105.0, -1.0)), expiry=EXPIRY)
        monkeypatch.setattr(pde, "FUNDING_MAX_ITERS", 1)
        with pytest.raises(NoConvergence):
            solve(book, Side.BID, cfg, coarse_grid)

    def test_exhausted_budget_says_where_it_stopped(self, coarse_grid, monkeypatch):
        cfg = make_config(spread=0.03, repo_spread=0.005, repo_haircut=0.25,
                          sec_haircut=0.15)
        monkeypatch.setattr(pde, "FUNDING_MAX_ITERS", 1)
        with pytest.raises(NoConvergence) as info:
            solve(single("put"), Side.BID, cfg, coarse_grid)
        message = str(info.value)
        # the coarse grid's first step ends at t = 2 - 0.04
        assert "exceeded 1 iterations at step 0 (t=1.96)" in message
        assert re.search(r"last change \S+ against tolerance 1e-08, \d+ indicator "
                         r"flips in the last iterate$", message), message

    def test_american_legs_rejected_by_european_solver(self, classic_config,
                                                       coarse_grid):
        pf = Portfolio.single("put", STRIKE, EXPIRY, style="american")
        with pytest.raises(ConfigError):
            solve(pf, Side.RISK_FREE, classic_config, coarse_grid)


def direct_operator(h, rp, ind, s, ds, config):
    """The funded operator built node by node from per-node h, rp and ind arrays.

    Each boundary row lies in the boundary node's funding region, so both
    nodes flanking its half node take that node's h, rp and ind."""
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

    def conv(j, at):
        """Node j's convection coefficient in node `at`'s funding region."""
        return (r_s[at] - config.q + ind[at] * spread * h[at]) * s[j]

    halves = (0.5 * (conv(0, 0) + conv(1, 0)), rho[0],
              0.5 * (conv(-2, -1) + conv(-1, -1)), rho[-1])
    return lo, di, up, halves, upwinded


OPERATOR_CONFIGS = {
    "funded": make_config(spread=0.03, repo_spread=0.005, rebate_spread=-0.005,
                          repo_haircut=0.25, sec_haircut=0.15),
    "no_repo": dataclasses.replace(make_config(spread=0.03), no_repo=True),
    "zero_haircut": make_config(spread=0.03, repo_spread=0.005),
    "low_vol": make_config(spread=0.03, repo_spread=0.005, rebate_spread=-0.005,
                           repo_haircut=0.25, sec_haircut=0.15, sigma=0.1, q=0.02),
}


def one_block(config, grid, book=None, side=Side.BID):
    """The batch state of one job."""
    return pde._Block([(0, (book or single("put"), side, config, grid))], labelled=False)


class TestCellAveragedPayoff:
    @pytest.mark.parametrize("strike", [100.0, 100.3, 101.7])
    def test_strike_nodes_hold_the_payoff_averaged_over_their_cell(self, strike):
        book = Portfolio(legs=(OptionLeg("call", strike, 2.0),
                               OptionLeg("put", strike + 5.3, -1.0)), expiry=EXPIRY)
        grid = PdeGrid.for_portfolio(SPOT, book, make_config(), n_nodes=400, dt=0.04)
        s, ds = grid.s_nodes, grid.ds
        got = pde._cell_averaged_payoff(book, grid)
        raw = terminal_payoff(book, s)
        kinks = sorted({int(round(leg.strike / ds)) for leg in book.legs})
        assert set(np.flatnonzero(got != raw)) <= set(kinks)
        for i in kinks:
            # midpoint rule on 10^5 subcells of the node's cell
            fine = s[i] + ds * ((np.arange(100_000) + 0.5) / 100_000 - 0.5)
            assert got[i] == pytest.approx(float(np.mean(terminal_payoff(book, fine))),
                                           rel=1e-9, abs=1e-12)

    def test_american_obstacle_stays_the_raw_payoff(self, classic_config, coarse_grid):
        book = Portfolio.single("put", STRIKE, EXPIRY, style="american")
        for side in (Side.BID, Side.ASK):
            b = pde._Block([(0, (book, side, classic_config, coarse_grid))], labelled=False)
            raw = side.position_sign * terminal_payoff(book, coarse_grid.s_nodes)
            assert b.obstacle.tobytes() == raw.tobytes()
            assert b.u.tobytes() == (side.position_sign * pde._cell_averaged_payoff(
                book, coarse_grid)).tobytes()
            assert np.count_nonzero(b.u != raw) == 1


def operator_batch(first):
    """A batch of one put per operator config, `first`'s member first, with its grids."""
    names = [first] + sorted(set(OPERATOR_CONFIGS) - {first})
    grids = [PdeGrid.build(SPOT, STRIKE, OPERATOR_CONFIGS[name].sigma, EXPIRY,
                           n_nodes=400, dt=0.04) for name in names]
    b = pde._Block([(i, (single("put"), Side.BID, OPERATOR_CONFIGS[name], grid))
                    for i, (name, grid) in enumerate(zip(names, grids))], labelled=True)
    return b, names, grids


def member_operator(region, name, grid):
    """`direct_operator` of one member at its region codes."""
    config = OPERATOR_CONFIGS[name]
    ind, long_stock = np.divmod(region, 2)
    h, rp = financing_arrays(np.where(long_stock == 1, 1.0, -1.0), config)
    return direct_operator(h, rp, ind.astype(float), grid.s_nodes, grid.ds, config)


class TestRegionTables:
    @pytest.mark.parametrize("name", sorted(OPERATOR_CONFIGS))
    @pytest.mark.parametrize("seed", range(3))
    def test_gathered_operator_equals_direct_build(self, name, seed):
        """One gather from a batch of every config, `name` first, equals each
        member's direct build."""
        b, names, grids = operator_batch(name)
        region = np.random.default_rng(seed).integers(0, 4, b.K)
        idx = b.indices(region, b.rows)
        *gathered, a_half, rho_half = b.gather(idx)
        for j, (name, grid) in enumerate(zip(names, grids)):
            rows = slice(j * b.n, (j + 1) * b.n)
            lo, di, up, halves, upwinded = member_operator(region[rows], name, grid)
            for got, want in zip(gathered, (lo, di, up)):
                assert got[rows].tobytes() == want.tobytes()
            assert (a_half[0, j], rho_half[0, j], a_half[1, j], rho_half[1, j]) == halves
            got_upwinded = 0 if b.upwind is None else int(b.upwind.take(idx[rows]).sum())
            assert got_upwinded == upwinded
            if name == "low_vol":
                assert upwinded > 0

    @pytest.mark.parametrize("kind", range(len(pde._KINDS)))
    @pytest.mark.parametrize("seed", range(3))
    def test_assembled_system_equals_direct_build(self, kind, seed):
        """Every row of `system` is the implicit system built from each member's
        direct operator: I/dts - theta L inside, the half-node equation on the
        boundary rows, and no coupling across a seam."""
        b, names, grids = operator_batch(sorted(OPERATOR_CONFIGS)[seed])
        region = np.random.default_rng(seed).integers(0, 4, b.K)
        A_lo, A_di, A_up = b.system(b.indices(region, b.rows), kind)
        theta, fraction = pde._KINDS[kind]
        for j, (name, grid) in enumerate(zip(names, grids)):
            rows = slice(j * b.n, (j + 1) * b.n)
            lo, di, up, (a0, r0, a1, r1), _ = member_operator(region[rows], name, grid)
            dts = grid.dt * fraction
            want_lo, want_di, want_up = -theta * lo, 1.0 / dts - theta * di, -theta * up
            c0 = 1.0 / (2.0 * dts)
            near_a, near_r = theta * a0 / grid.ds, theta * r0 / 2.0
            far_a, far_r = theta * a1 / grid.ds, theta * r1 / 2.0
            want_di[0], want_up[0] = c0 + near_a + near_r, c0 - near_a + near_r
            want_lo[-1], want_di[-1] = c0 + far_a + far_r, c0 - far_a + far_r
            for got, want in zip((A_lo, A_di, A_up), (want_lo, want_di, want_up)):
                assert got[rows].tobytes() == want.tobytes()
            assert A_lo[rows][0] == 0.0 and A_up[rows][-1] == 0.0

    @pytest.mark.parametrize("name", sorted(OPERATOR_CONFIGS))
    def test_pattern_region_matches_its_financing(self, name):
        config = OPERATOR_CONFIGS[name]
        grid = PdeGrid.build(SPOT, STRIKE, config.sigma, EXPIRY, n_nodes=400, dt=0.04)
        u = np.random.default_rng(7).normal(size=grid.s_nodes.size)
        # ends where a node's own indicator and its half node's differ: at S = 0
        # arg is the value; at the top a flat edge leaves arg = U there, or a
        # zero haircut does everywhere
        u[:3] = (1.0, -3.0, -3.0)
        u[-3:] = (1.0, -1e-3, -1e-3) if select_financing(1, config).h_signed else \
            (0.0, 1.0, -1e-3)
        b = one_block(config, grid)
        region, arg = b.pattern(u, slice(0, b.K), slice(0, 1), 1)
        assert set(np.unique(region)) == {0, 1, 2, 3}
        haircut = [select_financing(-1, config).h_signed,
                   select_financing(1, config).h_signed]
        slope = np.gradient(u, grid.ds)
        np.testing.assert_array_equal(region % 2, slope <= 0.0)
        h = np.take(haircut, region % 2)
        np.testing.assert_array_equal(arg, u - h * grid.s_nodes * slope)
        debt, ends, nbrs = region >= 2, [0, -1], [1, -2]
        np.testing.assert_array_equal(debt[1:-1], arg[1:-1] > 0.0)
        np.testing.assert_array_equal(debt[ends], arg[ends] + arg[nbrs] > 0.0)
        assert (debt[ends] != (arg[ends] > 0.0)).all()


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

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(3, 80), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["dominant", "pivoting", "singular"]))
    def test_equals_public_lapack(self, n, seed, kind):
        """`_tridiag` is scipy.linalg.lapack's dgtsv and `_solve_factored` its dgttrf
        and dgttrs, bit for bit, and a singular system reports the same info."""
        rng = np.random.default_rng(seed)
        lower, upper, rhs = rng.normal(size=(3, n))
        if kind == "dominant":
            diag = (np.abs(lower) + np.abs(upper) + rng.uniform(0.1, 2.0, n)) \
                * rng.choice([-1.0, 1.0], n)
        else:
            # each sub-diagonal entry outweighs the diagonal above it: rows swap
            diag = rng.normal(size=n)
            lower[1:] = np.copysign(np.abs(diag[:-1]) + rng.uniform(0.5, 2.0, n - 1),
                                    lower[1:])
        if kind == "singular":
            k = int(rng.integers(n))  # column k is zero
            diag[k] = upper[k - 1] = 0.0
            if k + 1 < n:
                lower[k + 1] = 0.0
        x, info = dgtsv(lower[1:], diag, upper[:-1], rhs)[3:]
        assert pde.dgtsv(lower[1:], diag, upper[:-1], rhs)[4] == info
        *lu, lu_info = dgttrf(lower[1:], diag, upper[:-1])
        assert pde.dgttrf(lower[1:], diag, upper[:-1])[5] == lu_info
        if kind == "singular":
            assert info > 0 and lu_info > 0
            with pytest.raises(LinAlgError, match="singular matrix"):
                _tridiag(lower, diag, upper, rhs)
            with pytest.raises(LinAlgError, match="singular matrix"):
                pde._solve_factored(kept_system(lower, diag, upper), rhs)
            return
        if kind == "pivoting":
            assert lu[4][0] == 2  # gttrf swapped the first two rows
        assert info == 0 and bits(_tridiag(lower, diag, upper, rhs)) == bits(x)
        x, info = dgttrs(*lu, rhs)
        assert info == 0 and bits(pde._solve_factored(kept_system(lower, diag, upper),
                                                      rhs)) == bits(x)

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

    def test_factored_solve_raises_as_tridiag(self):
        ones = np.ones(5)
        diag = ones.copy()
        diag[3] = 0.0
        with pytest.raises(LinAlgError, match="singular matrix"):
            pde._solve_factored(kept_system(np.zeros(5), diag, np.zeros(5)), ones)
        rhs = ones.copy()
        rhs[2] = np.nan
        kept = kept_system(ones, 4.0 * ones, ones)
        with pytest.raises(ValueError, match="non-finite"):
            pde._solve_factored(kept, rhs)
        assert bits(pde._solve_factored(kept, ones)) == bits(_tridiag(ones, 4.0 * ones, ones,
                                                                      ones))


def kept_system(lower, diag, upper):
    """A `_Kept` holding the system, not yet factored."""
    kept = pde._Kept(slice(0, diag.size), None)
    kept.A = (lower, diag, upper)
    return kept


def bits(x):
    return x.view(np.int64).tolist()


def confirming_substep(b, act, kind):
    """The substep of a one-job batch without the repeat skip: it always runs the
    confirming solve."""
    obstacle, whole, member = b.obstacle, slice(0, b.K), slice(0, 1)
    idx = b.indices(b.region, b.rows)
    rhs = b.rhs(b.u, b.gather(idx), whole, member, kind)
    region, arg, ex, u_prev = b.region, b.arg, b.ex, b.u
    for _ in range(pde.FUNDING_MAX_ITERS):
        if b.upwind is not None:
            b.count_upwind(idx, member, 1)
        lo, di, up = b.system(idx, kind)
        if obstacle is None:
            x, new_ex = pde._tridiag(lo, di, up, rhs), ex
        else:
            # exercised rows read x = obstacle; Howard's rule picks the next set
            x = pde._tridiag(np.where(ex, 0.0, lo), np.where(ex, 1.0, di),
                             np.where(ex, 0.0, up), np.where(ex, obstacle, rhs))
            resid = di * x - rhs
            resid[1:] += lo[1:] * x[:-1]
            resid[:-1] += up[:-1] * x[1:]
            new_ex = b.sign_row * (x - obstacle) <= b.sign_row * resid
        change = float(np.max(np.abs(x - u_prev)))
        new_region, new_arg = b.pattern(x, whole, member, 1)
        done = b.converged(0, whole, change, new_region, new_arg, region, arg)
        u_prev, old_region, region, arg = x, region, new_region, new_arg
        old_ex, ex = ex, new_ex
        if done:
            b.store(whole, x, region, arg, ex)
            return
        idx = b.indices(region, b.rows)
    b.fail(0, NoConvergence, b.no_convergence(0, whole, change, region, old_region, ex, old_ex))


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
        args = (book, side, config, grid)
        monkeypatch.setattr(pde, "FUNDING_MAX_ITERS", budget)
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


def blocks_of(rng, k):
    """k random diagonally dominant tridiagonal systems of random sizes."""
    parts = []
    for _ in range(k):
        n = int(rng.integers(3, 60))
        lower, upper = rng.normal(size=n), rng.normal(size=n)
        diag = (np.abs(lower) + np.abs(upper) + rng.uniform(0.1, 2.0, n)) \
            * rng.choice([-1.0, 1.0], n)
        parts.append((lower, diag, upper, rng.normal(size=n)))
    return parts


BATCH_CONFIGS = [make_config(), *OPERATOR_CONFIGS.values()]
BATCH_NODES = 120


def batch_book(kind, strike, expiry, style):
    if kind == "bull":
        return Portfolio(legs=(OptionLeg("call", strike - 5.0, 1.0, style),
                               OptionLeg("call", strike + 5.0, -1.0, style)), expiry=expiry)
    return Portfolio.single(kind, strike, expiry, style=style)


@st.composite
def batch_jobs(draw):
    """1-8 jobs of one node count: European and American books on every side,
    with different expiries, strikes, configs and time steps."""
    jobs = []
    for _ in range(draw(st.integers(1, 8))):
        book = batch_book(draw(st.sampled_from(["put", "call", "bull"])),
                          draw(st.sampled_from([90.0, 100.0, 110.0])),
                          draw(st.sampled_from([0.5, 1.0, 2.0])),
                          draw(st.sampled_from(["european", "american"])))
        config = draw(st.sampled_from(BATCH_CONFIGS))
        grid = PdeGrid.for_portfolio(SPOT, book, config, n_nodes=BATCH_NODES,
                                     dt=draw(st.sampled_from([0.05, 0.1])))
        jobs.append((book, draw(st.sampled_from(list(Side))), config, grid))
    return jobs


def alone(job):
    """The job's stand-alone solve, or the error it raises."""
    run = solve_american if job[0].style == "american" else solve
    try:
        return run(*job)
    except NoConvergence as exc:
        return exc


def result_bytes(res):
    return (res.value, res.delta, res.gamma, res.profile.tobytes(), res.funding_boundary,
            res.upwinded_nodes)


class TestBatch:
    """Every member of a batch is bit for bit its stand-alone solve."""

    @settings(max_examples=40, deadline=None)
    @given(jobs=batch_jobs(), budget=st.sampled_from([2, 3, 50]))
    def test_members_equal_their_own_solves(self, jobs, budget):
        # a function-scoped monkeypatch would not be undone between examples
        with patch.object(pde, "FUNDING_MAX_ITERS", budget):
            singles = [alone(job) for job in jobs]
            failed = [(i, out) for i, out in enumerate(singles) if isinstance(out, Exception)]
            if failed:
                index, first = failed[0]
                with pytest.raises(NoConvergence) as info:
                    solve_many(jobs)
                label = f"job {index} (" if len(jobs) > 1 else ""
                assert str(info.value).startswith(label)
                assert str(info.value).endswith(str(first))
                return
            batch = solve_many(jobs)
        assert [result_bytes(r) for r in batch] == [result_bytes(r) for r in singles]

    @pytest.mark.parametrize("k", range(1, 21))
    def test_one_gtsv_over_zero_seams_equals_separate_solves(self, k):
        parts = blocks_of(np.random.default_rng(k), k)
        lower, diag, upper, rhs = (np.concatenate(column) for column in zip(*parts))
        seams = np.cumsum([p[1].size for p in parts])[:-1]
        lower[seams] = 0.0
        upper[seams - 1] = 0.0
        x = _tridiag(lower, diag, upper, rhs)
        for part, block in zip(parts, np.split(x, seams)):
            assert block.tobytes() == _tridiag(*part).tobytes()
        # LU factors of the whole block (gttrf), made once and solved twice
        # (gttrs), give gtsv's bits
        kept = kept_system(lower, diag, upper)
        for b in (rhs, np.random.default_rng(100 + k).normal(size=rhs.size)):
            assert bits(pde._solve_factored(kept, b)) == bits(_tridiag(lower, diag, upper, b))
            assert kept.lu is not None

    def test_blocks_split_at_the_row_cap(self, monkeypatch):
        cfg = make_config(spread=0.03, repo_spread=0.005, repo_haircut=0.25, sec_haircut=0.15)
        jobs = [(batch_book(kind, 100.0, expiry, "european"), side, cfg,
                 PdeGrid.build(SPOT, 105.0, VOL, expiry, n_nodes=BATCH_NODES, dt=0.1))
                for kind in ("put", "bull") for expiry in (0.5, 2.0)
                for side in (Side.BID, Side.ASK)]
        whole = [result_bytes(r) for r in solve_many(jobs)]
        sizes = []
        block = pde._Block
        monkeypatch.setattr(pde, "_Block", lambda jobs, *a, **kw: (
            sizes.append(len(jobs)), block(jobs, *a, **kw))[1])
        monkeypatch.setattr(pde, "MAX_BLOCK_ROWS", 3 * BATCH_NODES + 1)
        assert [result_bytes(r) for r in solve_many(jobs)] == whole
        assert sizes == [3, 3, 2]

    def test_mismatched_node_counts_rejected(self, classic_config):
        book = single("put")
        jobs = [(book, Side.BID, classic_config,
                 PdeGrid.build(SPOT, STRIKE, VOL, EXPIRY, n_nodes=n, dt=0.1))
                for n in (120, 121)]
        with pytest.raises(ConfigError, match="one node count"):
            solve_many(jobs)

    def test_exhausted_budget_names_its_job(self, coarse_grid, monkeypatch):
        cfg = make_config(spread=0.03, repo_spread=0.005, repo_haircut=0.25,
                          sec_haircut=0.15)
        jobs = [(single("put"), side, cfg, coarse_grid) for side in (Side.BID, Side.ASK)]
        monkeypatch.setattr(pde, "FUNDING_MAX_ITERS", 1)
        with pytest.raises(NoConvergence) as info:
            solve_many(jobs)
        assert str(info.value).startswith(
            "job 0 (bid: +1 put 100; european, expiry 2): funding-boundary iteration "
            "exceeded 1 iterations at step 0 (t=1.96): last change ")

    def test_first_submitted_failure_wins(self, coarse_grid, monkeypatch):
        """The batch runs the longer job first; the error raised is still the
        one of the job submitted first."""
        cfg = make_config(spread=0.03, repo_spread=0.005, repo_haircut=0.25,
                          sec_haircut=0.15)
        short = PdeGrid.build(SPOT, STRIKE, VOL, 0.5, n_nodes=500, dt=0.04)
        jobs = [(single("put", expiry=0.5), Side.BID, cfg, short),
                (single("put"), Side.ASK, cfg, coarse_grid)]
        monkeypatch.setattr(pde, "FUNDING_MAX_ITERS", 1)
        with pytest.raises(NoConvergence, match=r"^job 0 \(bid: \+1 put 100; european, "
                                                r"expiry 0.5\): .* at step 0 \(t=0.461538\)"):
            solve_many(jobs)

    def test_error_of_the_job_iterable_comes_after_the_jobs_before_it(self, coarse_grid,
                                                                     classic_config,
                                                                     monkeypatch):
        def jobs():
            yield single("put"), Side.BID, classic_config, coarse_grid
            raise BadStrikes("the second job could not be built")

        with pytest.raises(BadStrikes):
            solve_many(jobs())
        monkeypatch.setattr(pde, "FUNDING_MAX_ITERS", 1)
        with pytest.raises(NoConvergence):
            solve_many(jobs())


class TestScale:
    """The model is homogeneous of degree one in (spot, strike): the funding
    terms are linear in S and V and the max() switch is positively
    homogeneous, so a book scaled by lambda is worth lambda times as much."""

    @settings(max_examples=25, deadline=None)
    @given(u=st.floats(-100, 100))
    def test_scaled_book_is_worth_lambda_times_as_much(self, u):
        lam = 10.0 ** u
        cfg = make_config(spread=0.03, repo_spread=0.005, repo_haircut=0.25,
                          sec_haircut=0.15, sigma=0.3)
        jobs = []
        for scale in (1.0, lam):
            for style in ("european", "american"):
                book = Portfolio.single("put", 95.0 * scale, 1.0, style=style)
                grid = PdeGrid.for_portfolio(SPOT * scale, book, cfg, n_nodes=200, dt=0.1)
                jobs.extend((book, side, cfg, grid) for side in Side)
        results = solve_many(jobs)
        half = len(jobs) // 2
        for plain, scaled in zip(results[:half], results[half:]):
            assert scaled.value / lam == pytest.approx(plain.value, rel=1e-9, abs=0.0)


class TestFactoredSolve:
    """A substep that repeats the last substep's system solves it through that
    system's LU factors, bit for bit as `_tridiag` would."""

    @pytest.fixture
    def traced(self, monkeypatch):
        """(factored, substeps): the substep index of each factored solve, each
        checked against `_tridiag`, and the member count of each substep."""
        factored, substeps = [], []
        solve_factored, substep = pde._solve_factored, pde._substep

        def checked(kept, rhs):
            x = solve_factored(kept, rhs)
            assert bits(x) == bits(_tridiag(*kept.A, rhs))
            factored.append(len(substeps) - 1)
            return x

        def counted(b, act, kind):
            substeps.append(act.size)
            substep(b, act, kind)

        monkeypatch.setattr(pde, "_solve_factored", checked)
        monkeypatch.setattr(pde, "_substep", counted)
        return factored, substeps

    def test_fva_curve_batch(self, traced):
        factored, substeps = traced
        result = CliRunner().invoke(main, [
            "fva-curve", "--engine", "pde", "--kind", "put", "--strike", "88.4",
            "--rate", "0.0839", "--vol", "0.204", "--dividend-yield", "0.0001",
            "--nodes", "400", "--dt", "0.04", "--spread-max", "0.04", "--spread-step", "0.01"])
        assert result.exit_code == 0, result.output
        assert substeps == [21] * 52
        assert len(set(factored)) == len(factored) >= 40

    def test_netting_batch(self, traced):
        factored, substeps = traced
        result = CliRunner().invoke(main, [
            "netting", "--strategy", "strangle", "--strikes", "90.3,108.7",
            "--expiries", "0.5,1,2", "--rate", "0.05", "--vol", "0.3",
            "--borrow-rate", "0.08", "--repo-rate", "0.055", "--rebate-rate", "0.045",
            "--repo-haircut", "0.2", "--sec-haircut", "0.3",
            "--nodes", "400", "--dt", "0.04", "--format", "json"])
        assert result.exit_code == 0, result.output
        assert substeps[0] == 18
        assert factored

    def test_funded_ask_surface(self, traced):
        factored, substeps = traced
        config = OPERATOR_CONFIGS["funded"]
        grid = PdeGrid.build(SPOT, STRIKE, config.sigma, EXPIRY, n_nodes=400, dt=0.04)
        pde.solve_surface(single("put"), Side.ASK, config, grid)
        assert len(substeps) == 52
        assert factored
