"""Monte Carlo verification of the self-financing replication argument.

The hedged economy carries a deposit account M (rate r), an unsecured debt
account N (rate r_b), a secured stock-financing balance R (repo or stock
borrow, keyed off the holding sign), the stock hedge, and the option.  Its
wealth is

    pi = M + holding * S + U - R - N

with U the signed position value (-V for a short book).  Trading is
self-financed: every rebalance routes net cash into M or N keeping
M * N = 0, trades execute at the post-move price, and interest accrues on
the balances carried into the interval.  Under a perfect continuous hedge
pi stays at zero for every stock drift; discretely it shrinks like
sqrt(dt), which is what the summary statistics measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from . import analytic
from .errors import ConfigError, OracleUnavailable
from .funding import financing_arrays, select_financing
from .market import FundingConfig, OptionLeg, Portfolio, Side
from .pde import PdeGrid, SolverParams, solve_surface


def _check_hedge_inputs(spot: float, expiry: float, n_steps: int, n_paths: int = 1) -> None:
    """Reject a non-finite or non-positive spot or expiry, or fewer than one step or path."""
    for name, value in (("spot", spot), ("expiry", expiry)):
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"{name}={value} must be finite and > 0", field=name)
    for name, value in (("steps", n_steps), ("paths", n_paths)):
        if value < 1:
            raise ConfigError(f"{name}={value} must be >= 1", field=name)


class PricingOracle(Protocol):
    """Signed position value and slope for any spot array and residual life."""

    def value_and_slope(self, s: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
        ...


@dataclass(frozen=True)
class LedgerState:
    """Snapshot of one path's replication accounts."""

    t: float
    spot: float
    stock_holding: float
    M: float
    N: float
    R: float
    option_value: float
    pi: float


@dataclass(frozen=True)
class HedgeSummary:
    """Distribution summary of the discounted terminal wealth pi_T."""

    mean: float
    std: float
    max_abs: float
    n_paths: int
    n_steps: int
    seed: int
    std_error: float
    mean_abs: float
    ledger_gap: float
    trace: tuple[LedgerState, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "mean": self.mean,
            "std": self.std,
            "max_abs": self.max_abs,
            "n_paths": self.n_paths,
            "n_steps": self.n_steps,
            "seed": self.seed,
        }


class AnalyticOracle:
    """Closed-form position value for the cases that admit one.

    Degenerate configurations price at classic Black-Scholes on either
    side.  A long position (bid) always has the shifted-rate lognormal
    form; a short position does too when both haircuts vanish.
    """

    def __init__(self, option: OptionLeg, side: Side, config: FundingConfig):
        kind = option.kind
        self.strike = option.strike
        self.kind = kind
        self.sign = side.position_sign
        if side is Side.RISK_FREE or config.is_degenerate():
            config = config.degenerate()
            growth, disc = config.r - config.q, config.r
        elif side is Side.BID:
            hedge_sign = -1 if kind == "call" else 1
            sel = select_financing(hedge_sign, config)
            growth = (sel.h_signed * config.r_b
                      + (1.0 - sel.h_signed) * sel.r_p_effective - config.q)
            disc = config.r_b
        elif config.repo_haircut == 0.0 and config.sec_haircut == 0.0 \
                and not config.no_repo:
            r1, r2 = config.repo_rate, config.rebate_rate
            growth = (r1 if kind == "call" else r2) - config.q
            disc = config.r
        else:
            raise OracleUnavailable(
                "no closed form for a short position with nonzero haircuts; "
                "use the PDE oracle")
        self.growth = growth
        self.disc = disc
        self.sigma = config.sigma

    def value_and_slope(self, s: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
        s = np.asarray(s, dtype=float)
        if tau <= 0.0:
            if self.kind == "call":
                intrinsic = np.maximum(s - self.strike, 0.0)
                edge = np.where(s > self.strike, 1.0, 0.0)
            else:
                intrinsic = np.maximum(self.strike - s, 0.0)
                edge = np.where(s < self.strike, -1.0, 0.0)
            return self.sign * intrinsic, self.sign * edge
        sq = self.sigma * math.sqrt(tau)
        fwd = s * math.exp(self.growth * tau)
        d1 = (np.log(fwd / self.strike) + 0.5 * self.sigma ** 2 * tau) / sq
        d2 = d1 - sq
        df = math.exp(-self.disc * tau)
        fs = math.exp(self.growth * tau)
        if self.kind == "call":
            value = df * (fwd * analytic.norm_cdf(d1) - self.strike * analytic.norm_cdf(d2))
            slope = df * fs * analytic.norm_cdf(d1)
        else:
            value = df * (self.strike * analytic.norm_cdf(-d2) - fwd * analytic.norm_cdf(-d1))
            slope = -df * fs * analytic.norm_cdf(-d1)
        return self.sign * value, self.sign * slope


class PdeOracle:
    """Pricing oracle backed by a stored finite-difference surface.

    The surface is solved once with one PDE step per hedge rebalance, so
    simulation times align exactly with stored slices; values and slopes
    are interpolated linearly in the stock dimension.
    """

    def __init__(self, option: OptionLeg, spot: float, expiry: float, side: Side,
                 config: FundingConfig, n_steps: int, n_nodes: int = 1000,
                 params: SolverParams = SolverParams()):
        if option.style != "european":
            raise OracleUnavailable("hedge simulation covers European options only")
        _check_hedge_inputs(spot, expiry, n_steps)
        portfolio = Portfolio(legs=(option,), expiry=expiry)
        grid = PdeGrid.build(spot, option.strike, config.sigma, expiry,
                             n_nodes=n_nodes, dt=expiry / n_steps)
        self.grid = grid
        self.taus, self.profiles = solve_surface(portfolio, side, config, grid, params)
        self.slopes = np.empty_like(self.profiles)
        ds = grid.ds
        self.slopes[:, 1:-1] = (self.profiles[:, 2:] - self.profiles[:, :-2]) / (2 * ds)
        self.slopes[:, 0] = (self.profiles[:, 1] - self.profiles[:, 0]) / ds
        self.slopes[:, -1] = (self.profiles[:, -1] - self.profiles[:, -2]) / ds

    def value_and_slope(self, s: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
        dt = self.grid.dt
        k = int(round(tau / dt))
        if abs(tau - k * dt) > 1e-9 * max(dt, 1.0) or not 0 <= k < len(self.taus):
            raise OracleUnavailable(
                f"requested life {tau} does not align with the stored surface")
        s = np.asarray(s, dtype=float)
        nodes = self.grid.s_nodes
        return (np.interp(s, nodes, self.profiles[k]),
                np.interp(s, nodes, self.slopes[k]))


def make_oracle(option: OptionLeg, spot: float, expiry: float, side: Side,
                config: FundingConfig, n_steps: int,
                pde_nodes: int = 1000) -> PricingOracle:
    """Analytic oracle where a closed form exists, PDE surface otherwise."""
    if option.style != "european":
        raise OracleUnavailable("hedge simulation covers European options only")
    try:
        return AnalyticOracle(option, side, config)
    except OracleUnavailable:
        return PdeOracle(option, spot, expiry, side, config, n_steps, n_nodes=pde_nodes)


def simulate_hedge(option: OptionLeg, spot: float, expiry: float, side: Side,
                   config: FundingConfig, n_paths: int, n_steps: int,
                   mu: float, seed: int, oracle: PricingOracle | None = None,
                   trace_path: int | None = None) -> HedgeSummary:
    """Simulate the hedged, self-financed economy and summarize pi_T.

    Stock paths are exact lognormal steps with real-world drift `mu`; the
    hedge holds -dU/dS shares per the oracle, rebalanced each step at the
    post-move price.  Interest accrues on the balances carried into each
    interval and the dividend q * holding * S * dt flows into the cash
    routing.  Returns discounted terminal wealth statistics plus the
    largest gap between the wealth recomputed from balances and the wealth
    accumulated through the financing identity (exact bookkeeping, so the
    gap is float noise).

    Randomness comes from a counter-based generator: a fixed seed yields
    identical paths on every run.

    Raises:
        ConfigError: a non-finite or non-positive spot or expiry, or
            n_steps or n_paths below 1
    """
    _check_hedge_inputs(spot, expiry, n_steps, n_paths)
    if side is Side.RISK_FREE:
        config = config.degenerate()
    if oracle is None:
        oracle = make_oracle(option, spot, expiry, side, config, n_steps)
    r, r_b, q = config.r, config.r_b, config.q
    dt = expiry / n_steps
    rng = np.random.Generator(np.random.Philox(seed))
    z = rng.standard_normal((n_steps, n_paths))
    drift = (mu - 0.5 * config.sigma ** 2) * dt
    volstep = config.sigma * math.sqrt(dt)
    # exact per-interval accrual factors; simple r*dt accrual would leave an
    # O(dt) wealth drift even under a perfect hedge
    g_r = math.expm1(r * dt)
    g_rb = math.expm1(r_b * dt)

    s = np.full(n_paths, float(spot))
    value, slope = oracle.value_and_slope(s, expiry)
    hold = -slope
    h_cut, rp = financing_arrays(hold, config)
    repo = (1.0 - h_cut) * hold * s
    net = -value - h_cut * hold * s
    m_acct = np.maximum(net, 0.0)
    n_acct = np.maximum(-net, 0.0)
    pi = m_acct + hold * s + value - repo - n_acct
    pi_acc = pi.copy()
    ledger_gap = 0.0
    states: list[LedgerState] = []

    def snap(t: float) -> None:
        if trace_path is None:
            return
        j = trace_path
        states.append(LedgerState(
            t=t, spot=float(s[j]), stock_holding=float(hold[j]), M=float(m_acct[j]),
            N=float(n_acct[j]), R=float(repo[j]),
            option_value=float(side.position_sign * value[j]),
            pi=float(pi[j])))

    snap(0.0)
    for k in range(n_steps):
        tau_next = expiry - (k + 1) * dt
        s_new = s * np.exp(drift + volstep * z[k])
        g_rp = np.expm1(rp * dt)
        cash = (m_acct * (1.0 + g_r) - n_acct * (1.0 + g_rb)
                + q * hold * s * dt - g_rp * repo)
        if k + 1 < n_steps:
            value_new, slope_new = oracle.value_and_slope(s_new, tau_next)
            hold_new = -slope_new
        else:
            value_new = side.position_sign * np.asarray(
                option.intrinsic(s_new), dtype=float)
            hold_new = np.zeros_like(hold)
        h_new, rp_new = financing_arrays(hold_new, config)
        repo_new = (1.0 - h_new) * hold_new * s_new
        cash += -(hold_new - hold) * s_new + (repo_new - repo)
        m_new = np.maximum(cash, 0.0)
        n_new = np.maximum(-cash, 0.0)
        # financing identity: exact bookkeeping of the same cash flows
        pi_acc = (pi_acc * (1.0 + g_r)
                  + hold * (s_new - s - g_r * s + q * s * dt)
                  + (value_new - value - g_r * value)
                  - (g_rb - g_r) * n_acct - (g_rp - g_r) * repo)
        s, hold, repo, value = s_new, hold_new, repo_new, value_new
        m_acct, n_acct, rp = m_new, n_new, rp_new
        pi = m_acct + hold * s + value - repo - n_acct
        ledger_gap = max(ledger_gap, float(np.max(np.abs(pi - pi_acc))))
        snap((k + 1) * dt)

    disc_pi = math.exp(-r * expiry) * pi
    std = float(np.std(disc_pi, ddof=1)) if n_paths > 1 else 0.0
    return HedgeSummary(
        mean=float(np.mean(disc_pi)),
        std=std,
        max_abs=float(np.max(np.abs(disc_pi))),
        n_paths=n_paths,
        n_steps=n_steps,
        seed=seed,
        std_error=std / math.sqrt(n_paths) if n_paths > 1 else 0.0,
        mean_abs=float(np.mean(np.abs(disc_pi))),
        ledger_gap=ledger_gap,
        trace=tuple(states))
