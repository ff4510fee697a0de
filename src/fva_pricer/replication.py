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
from .errors import ConfigError, HaircutNotZero, OracleUnavailable
from .funding import financing_arrays, funding_accounts
from .market import FundingConfig, OptionLeg, Portfolio, Side, _require_positive
from .pde import MAX_TIME_STEPS, PdeGrid, solve_surface

# most paths one simulation may take: the hedge loop holds about 155 bytes a
# path, so this bounds it to about 155 MB, where 1e12 paths would fail deep
# inside numpy; 100 times the default of 10 000
MAX_PATHS = 1_000_000
# most values, (steps + 1) * nodes, one PDE surface may hold: building one peaks at
# 24 bytes a value (the solver's slices, their stacked copy and the slopes), 16 of
# them kept, so this bounds it to about 240 MB, where 1e5 steps on 1e5 nodes would
# ask for some 240 GB; 40 times the default surface of 251 slices of 1000 nodes
MAX_SURFACE_VALUES = 10_000_000


def _check_hedge_inputs(spot: float, expiry: float, n_steps: int, n_paths: int = 1) -> None:
    """Reject a non-finite or non-positive spot or expiry, fewer than one step or
    path, or more than MAX_PATHS paths."""
    _require_positive(spot=spot, expiry=expiry)
    for name, value in (("steps", n_steps), ("paths", n_paths)):
        if value < 1:
            raise ConfigError(f"{name}={value} must be >= 1", field=name)
    if n_paths > MAX_PATHS:
        raise ConfigError(f"paths={n_paths} exceeds the {MAX_PATHS} paths a simulation "
                          "may take", field="paths")


class PricingOracle(Protocol):
    """Signed position value and slope for any spot array and residual life > 0.

    With `value=False` only the slope is evaluated and the value comes back
    as None; the slope is bit for bit the one of the full call.  The hedge
    loop asks for values only where a trace or the ledger check reads them.
    """

    def value_and_slope(self, s: np.ndarray, tau: float, value: bool = True
                        ) -> tuple[np.ndarray | None, np.ndarray]:
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
    ledger_gap: float | None
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

    `analytic.lognormal_rates` decides which sides have one: the bid always,
    the ask under zero haircuts, and either side of a degenerate config.
    """

    def __init__(self, option: OptionLeg, side: Side, config: FundingConfig):
        try:
            self.growth, self.disc = analytic.lognormal_rates(option.kind, side, config)
        except HaircutNotZero as exc:
            raise OracleUnavailable(str(exc)) from None
        self.kind = option.kind
        self.strike = option.strike
        self.sign = side.position_sign
        self.sigma = config.sigma

    def value_and_slope(self, s: np.ndarray, tau: float, value: bool = True
                        ) -> tuple[np.ndarray | None, np.ndarray]:
        if not tau > 0.0:
            raise OracleUnavailable(f"residual life {tau} must be > 0")
        price, slope, _ = analytic.lognormal(self.kind, np.asarray(s, dtype=float),
                                             self.strike, tau, self.growth, self.disc,
                                             self.sigma, value=value)
        return (self.sign * price if value else None), self.sign * slope


class PdeOracle:
    """Pricing oracle backed by a stored finite-difference surface.

    The surface is solved once with one PDE step per hedge rebalance, so
    simulation times align exactly with stored slices; values and slopes
    are interpolated linearly in the stock dimension, bit for bit as
    `np.interp` does it.  The grid is uniform from 0, so each spot's cell
    comes from floor(s / ds) with a one-node fix-up, shared by value and
    slope, and is evaluated with numpy's expression
    (f[j+1] - f[j]) / (x[j+1] - x[j]) * (s - x[j]) + f[j].  numpy's other
    rules hold too: a spot on a node gets that node's value, a spot below 0
    the first node's, one at or above the top node the last node's, and a
    NaN spot NaN.  The stored surface is finite (the solver rejects
    anything else), so numpy's retry for a NaN from that expression never
    applies.
    """

    def __init__(self, option: OptionLeg, spot: float, expiry: float, side: Side,
                 config: FundingConfig, n_steps: int, n_nodes: int = 1000):
        if option.style != "european":
            raise OracleUnavailable("hedge simulation covers European options only")
        _check_hedge_inputs(spot, expiry, n_steps)
        if n_steps > MAX_TIME_STEPS:
            raise ConfigError(f"steps={n_steps} exceeds the {MAX_TIME_STEPS} time steps "
                              "a PDE surface may take", field="steps")
        portfolio = Portfolio(legs=(option,), expiry=expiry)
        grid = PdeGrid.build(spot, option.strike, config.sigma, expiry,
                             n_nodes=n_nodes, dt=expiry / n_steps)
        values = (grid.n_steps + 1) * grid.s_nodes.size
        if values > MAX_SURFACE_VALUES:
            raise ConfigError(f"steps={n_steps} on {n_nodes} nodes make a PDE surface of "
                              f"{values} values, above the {MAX_SURFACE_VALUES} one may "
                              "hold", field="steps")
        self.grid = grid
        self.taus, self.profiles = solve_surface(portfolio, side, config, grid)
        self.slopes = np.gradient(self.profiles, grid.ds, axis=1)
        self._bounds = np.append(grid.s_nodes, np.inf)  # the fix-up reads one past the top

    def value_and_slope(self, s: np.ndarray, tau: float, value: bool = True
                        ) -> tuple[np.ndarray | None, np.ndarray]:
        dt = self.grid.dt
        k = int(round(tau / dt))
        if abs(tau - k * dt) > 1e-9 * max(dt, 1.0) or not 0 <= k < len(self.taus):
            raise OracleUnavailable(
                f"requested life {tau} does not align with the stored surface")
        nodes = self.grid.s_nodes
        x = np.minimum(np.maximum(s, 0.0), nodes[-1])  # NaN stays NaN
        j = np.fmin(x / self.grid.ds, nodes.size - 1).astype(np.intp)  # NaN -> top
        j -= self._bounds[j] > x
        j += self._bounds[j + 1] <= x
        t = x - nodes[j]
        hit = t == 0.0  # a node's stored value, even -0.0, not the expression's

        def interp(f: np.ndarray) -> np.ndarray:
            # np.interp's cell slopes divide by node differences, not ds; j is the top
            # node only on a hit, so clipping it to the last cell changes nothing
            cell = np.diff(f) / np.diff(nodes)
            fj = f[j]
            return np.where(hit, fj, cell.take(j, mode="clip") * t + fj)

        return (interp(self.profiles[k]) if value else None), interp(self.slopes[k])


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


@np.errstate(all="ignore")  # a non-finite wealth is reported once, at the end
def simulate_hedge(option: OptionLeg, spot: float, expiry: float, side: Side,
                   config: FundingConfig, n_paths: int, n_steps: int,
                   mu: float, seed: int, oracle: PricingOracle | None = None,
                   trace_path: int | None = None, pde_nodes: int = 1000,
                   check_ledger: bool = False) -> HedgeSummary:
    """Simulate the hedged, self-financed economy and summarize pi_T.

    Stock paths are exact lognormal steps with real-world drift `mu`; the
    hedge holds -dU/dS shares per the oracle, rebalanced each step at the
    post-move price.  Interest accrues on the balances carried into each
    interval and the dividend q * holding * S * dt flows into the cash
    routing.  Returns discounted terminal wealth statistics.

    With `check_ledger`, the wealth is also accumulated through the
    financing identity, and `ledger_gap` is the largest gap between it and
    the wealth recomputed from balances (exact bookkeeping, so the gap is
    float noise).  Without it the identity is not computed, `ledger_gap` is
    None, and every other field is bit for bit the same.

    The oracle's value is read at t=0 and the payoff at expiry; in between
    it is evaluated only when `trace_path` or `check_ledger` reads it, and
    otherwise the oracle returns the slope alone.  Either way the summary
    statistics are bit for bit the same.

    Randomness comes from a counter-based generator: a fixed seed yields
    identical paths on every run.  Each step draws its normals into one
    reused buffer, which gives the stream of one (n_steps, n_paths) draw
    with memory independent of n_steps.

    Without an `oracle`, `make_oracle` picks one; a PDE surface gets
    `pde_nodes` nodes.

    Raises:
        ConfigError: a non-finite or non-positive spot or expiry, n_steps or
            n_paths below 1, n_paths above MAX_PATHS, a non-finite mu, a
            negative seed, or inputs that take the accrual or the terminal
            wealth out of range
    """
    _check_hedge_inputs(spot, expiry, n_steps, n_paths)
    if not math.isfinite(mu):
        raise ConfigError(f"mu={mu} must be finite", field="mu")
    if seed < 0:
        raise ConfigError(f"seed={seed} must be >= 0", field="seed")
    if side is Side.RISK_FREE:
        config = config.degenerate()
    if oracle is None:
        oracle = make_oracle(option, spot, expiry, side, config, n_steps, pde_nodes)
    r, r_b, q = config.r, config.r_b, config.q
    dt = expiry / n_steps
    rng = np.random.Generator(np.random.Philox(seed))
    z = np.empty(n_paths)  # one step's normals; the stream is that of one (steps, paths) draw
    volstep = config.sigma * math.sqrt(dt)
    try:
        drift = (mu - 0.5 * config.sigma ** 2) * dt
        # exact per-interval accrual factors; simple r*dt accrual would leave
        # an O(dt) wealth drift even under a perfect hedge
        g_r = math.expm1(r * dt)
        g_rb = math.expm1(r_b * dt)
        df = math.exp(-r * expiry)
    except OverflowError:
        raise ConfigError(f"hedge accrual out of range: r={r}, r_b={r_b}, "
                          f"sigma={config.sigma} over {expiry} years") from None

    # financing terms by holding sign, indexed by hold >= 0: the haircut h, the
    # repo'd share 1 - h and the secured accrual factor over one interval
    h_by_sign, rp_by_sign = financing_arrays(np.array([-1.0, 1.0]), config)
    keep_by_sign = 1.0 - h_by_sign
    g_rp_by_sign = np.expm1(rp_by_sign * dt)
    # between t=0 and expiry only a trace or the ledger check reads the value
    read_value = check_ledger or trace_path is not None

    s = np.full(n_paths, float(spot))
    value, slope = oracle.value_and_slope(s, expiry)
    hold = -slope
    long = hold >= 0.0
    opening = funding_accounts(value, hold, s, config)
    m_acct, n_acct, repo = opening.M, opening.N, opening.R
    states: list[LedgerState] = []

    def wealth() -> np.ndarray:
        return m_acct + hold * s + value - repo - n_acct

    def snap(t: float) -> None:
        if trace_path is None:
            return
        j = trace_path
        states.append(LedgerState(
            t=t, spot=float(s[j]), stock_holding=float(hold[j]), M=float(m_acct[j]),
            N=float(n_acct[j]), R=float(repo[j]),
            option_value=float(side.position_sign * value[j]),
            pi=float(wealth()[j])))

    pi_acc = wealth()
    ledger_gap = 0.0 if check_ledger else None
    snap(0.0)
    for k in range(n_steps):
        tau_next = expiry - (k + 1) * dt
        rng.standard_normal(out=z)
        s_new = s * np.exp(drift + volstep * z)
        g_rp = g_rp_by_sign.take(long)
        cash = (m_acct * (1.0 + g_r) - n_acct * (1.0 + g_rb)
                + q * hold * s * dt - g_rp * repo)
        if k + 1 < n_steps:
            value_new, slope_new = oracle.value_and_slope(s_new, tau_next, value=read_value)
            hold_new = -slope_new
        else:
            value_new = side.position_sign * np.asarray(
                option.intrinsic(s_new), dtype=float)
            hold_new = np.zeros_like(hold)
        long = hold_new >= 0.0
        repo_new = keep_by_sign.take(long) * hold_new * s_new
        cash += -(hold_new - hold) * s_new + (repo_new - repo)
        m_new = np.maximum(cash, 0.0)
        n_new = np.maximum(-cash, 0.0)
        if check_ledger:  # financing identity: exact bookkeeping of the same cash flows
            pi_acc = (pi_acc * (1.0 + g_r)
                      + hold * (s_new - s - g_r * s + q * s * dt)
                      + (value_new - value - g_r * value)
                      - (g_rb - g_r) * n_acct - (g_rp - g_r) * repo)
        s, hold, repo, value = s_new, hold_new, repo_new, value_new
        m_acct, n_acct = m_new, n_new
        if check_ledger:
            ledger_gap = max(ledger_gap, float(np.max(np.abs(wealth() - pi_acc))))
        snap((k + 1) * dt)

    disc_pi = df * wealth()
    std = float(np.std(disc_pi, ddof=1)) if n_paths > 1 else 0.0
    summary = HedgeSummary(
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
    if not all(math.isfinite(x) for x in (summary.mean, summary.std, summary.max_abs)):
        raise ConfigError(f"terminal wealth out of range: mean={summary.mean}, "
                          f"std={summary.std}, max_abs={summary.max_abs}")
    return summary
