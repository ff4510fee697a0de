"""Closed-form pricing: classic Black-Scholes, the shifted-rate formula for
long vanilla positions under funding costs, the zero-haircut bid/ask spread,
and implied volatility.

Every function here is pure and accepts scalars; the normal CDF helpers also
accept arrays so the hedge simulator can reuse them path-wise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .errors import ConfigError, HaircutNotZero, NoConvergence, PriceOutOfBounds
from .funding import select_financing
from .market import FundingConfig, OptionKind

SQRT2 = math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

VOL_LO = 1e-6
VOL_HI = 5.0


def norm_cdf(x):
    """Standard normal CDF via the complementary error function."""
    return 0.5 * erfc(-np.asarray(x, dtype=float) / SQRT2)


def norm_pdf(x):
    x = np.asarray(x, dtype=float)
    return INV_SQRT_2PI * np.exp(-0.5 * x * x)


@dataclass(frozen=True)
class BsQuote:
    """Price and spot sensitivities of one vanilla option or book."""

    price: float
    delta: float
    gamma: float


@dataclass(frozen=True)
class SpreadQuote:
    """Bid, ask, and their difference for one option under zero haircuts."""

    bid: float
    ask: float
    spread: float


def _check_domain(spot: float, strike: float, expiry: float, sigma: float) -> None:
    if not all(math.isfinite(x) and x > 0 for x in (spot, strike, expiry, sigma)):
        raise ConfigError(
            f"spot={spot}, strike={strike}, expiry={expiry}, sigma={sigma} "
            "must all be finite and > 0")


def _check_rates(rate: float, dividend_yield: float) -> None:
    for name, value in (("r", rate), ("q", dividend_yield)):
        if not math.isfinite(value):
            raise ConfigError(f"{name}={value} must be finite", field=name)


def _forward_quote(kind: OptionKind, forward: float, strike: float, expiry: float,
                   discount_rate: float, sigma: float, spot: float) -> BsQuote:
    """Lognormal quote for a given forward and discount rate.

    delta/gamma are taken with respect to `spot`, using that the forward is
    proportional to spot so d(forward)/d(spot) = forward / spot.
    """
    sq = sigma * math.sqrt(expiry)
    d1 = (math.log(forward / strike) + 0.5 * sigma * sigma * expiry) / sq
    d2 = d1 - sq
    df = math.exp(-discount_rate * expiry)
    fs = forward / spot
    if kind == "call":
        price = df * (forward * float(norm_cdf(d1)) - strike * float(norm_cdf(d2)))
        delta = df * fs * float(norm_cdf(d1))
    else:
        price = df * (strike * float(norm_cdf(-d2)) - forward * float(norm_cdf(-d1)))
        delta = -df * fs * float(norm_cdf(-d1))
    gamma = df * fs * float(norm_pdf(d1)) / (spot * sq)
    return BsQuote(price=price, delta=delta, gamma=gamma)


def bs_price(kind: OptionKind, spot: float, strike: float, expiry: float,
             rate: float, dividend_yield: float, sigma: float) -> BsQuote:
    """Classic Black-Scholes price, delta, and gamma with a continuous yield.

    Raises:
        ConfigError: on a non-finite or non-positive spot, strike, expiry,
            or sigma, or a non-finite rate or dividend yield.
    """
    _check_domain(spot, strike, expiry, sigma)
    _check_rates(rate, dividend_yield)
    forward = spot * math.exp((rate - dividend_yield) * expiry)
    return _forward_quote(kind, forward, strike, expiry, rate, sigma, spot)


def long_position_price(kind: OptionKind, spot: float, strike: float,
                        expiry: float, config: FundingConfig) -> BsQuote:
    """Value of a long vanilla position carried with funding costs.

    The hedge of a long option is one-sided, so the nonlinear funding term
    is always active and the PDE collapses to a lognormal form: the stock
    drift becomes h*r_b + (1-h)*r_p - q with (h, r_p) chosen by the hedge
    trade (long call hedges short stock, long put hedges long stock), and
    discounting happens at the unsecured rate r_b.
    """
    _check_domain(spot, strike, expiry, config.sigma)
    hedge_sign = -1 if kind == "call" else 1
    sel = select_financing(hedge_sign, config)
    drift = sel.h_signed * config.r_b + (1.0 - sel.h_signed) * sel.r_p_effective - config.q
    forward = spot * math.exp(drift * expiry)
    return _forward_quote(kind, forward, strike, expiry, config.r_b, config.sigma, spot)


def zero_haircut_quotes(kind: OptionKind, spot: float, strike: float,
                        expiry: float, config: FundingConfig
                        ) -> tuple[BsQuote, BsQuote]:
    """Full (bid, ask) quotes with greeks under zero haircuts.

    Raises:
        HaircutNotZero: if either haircut is nonzero.
    """
    if config.repo_haircut != 0.0 or config.sec_haircut != 0.0:
        raise HaircutNotZero(
            f"zero-haircut closed form requires both haircuts to be 0, got "
            f"repo={config.repo_haircut}, sec={config.sec_haircut}")
    if config.no_repo:
        raise HaircutNotZero(
            "no_repo funds the whole hedge unsecured (haircut +/-1); the "
            "zero-haircut closed form does not apply")
    _check_domain(spot, strike, expiry, config.sigma)
    r1, r2 = config.repo_rate, config.rebate_rate
    ask_growth, bid_growth = (r1, r2) if kind == "call" else (r2, r1)
    f_ask = spot * math.exp((ask_growth - config.q) * expiry)
    f_bid = spot * math.exp((bid_growth - config.q) * expiry)
    ask = _forward_quote(kind, f_ask, strike, expiry, config.r, config.sigma, spot)
    bid = _forward_quote(kind, f_bid, strike, expiry, config.r_b, config.sigma, spot)
    return bid, ask


def zero_haircut_spread(kind: OptionKind, spot: float, strike: float,
                        expiry: float, config: FundingConfig) -> SpreadQuote:
    """Analytic bid/ask prices under zero haircuts.

    For a call the ask (short position) grows the stock at the repo rate and
    discounts at r; the bid (long position) grows at the rebate rate and
    discounts at r_b.  For a put the two stock financing rates swap because
    the hedges use the opposite side of the stock financing market, while
    the discount rates stay tied to the side.

    Raises:
        HaircutNotZero: if either haircut is nonzero.
    """
    bid, ask = zero_haircut_quotes(kind, spot, strike, expiry, config)
    return SpreadQuote(bid=bid.price, ask=ask.price, spread=ask.price - bid.price)


def _price_bounds(kind: OptionKind, spot: float, strike: float, expiry: float,
                  rate: float, dividend_yield: float) -> tuple[float, float]:
    fwd_spot = spot * math.exp(-dividend_yield * expiry)
    disc_strike = strike * math.exp(-rate * expiry)
    if kind == "call":
        return max(fwd_spot - disc_strike, 0.0), fwd_spot
    return max(disc_strike - fwd_spot, 0.0), disc_strike


def implied_vol(kind: OptionKind, spot: float, strike: float, expiry: float,
                rate: float, dividend_yield: float, target_price: float) -> float:
    """Volatility matching a target price to 1e-10 absolute.

    Newton iteration seeded from the flat ATM approximation
    price ~ 0.4 * spot * sigma * sqrt(T), safeguarded by bisection on
    [1e-6, 5] whenever a Newton step leaves the current bracket.

    Raises:
        PriceOutOfBounds: target outside the static no-arbitrage interval
            or unreachable within the supported volatility range.
    """
    if not (spot > 0 and strike > 0 and expiry > 0):
        raise ConfigError(
            f"spot={spot}, strike={strike}, expiry={expiry} must all be > 0")
    _check_rates(rate, dividend_yield)
    lower, upper = _price_bounds(kind, spot, strike, expiry, rate, dividend_yield)
    if not lower < target_price < upper:
        raise PriceOutOfBounds(
            f"target {target_price} outside no-arbitrage bounds ({lower}, {upper})")

    def f(sig: float) -> float:
        return bs_price(kind, spot, strike, expiry, rate, dividend_yield, sig).price \
            - target_price

    lo, hi = VOL_LO, VOL_HI
    f_lo, f_hi = f(lo), f(hi)
    if f_lo > 0 or f_hi < 0:
        raise PriceOutOfBounds(
            f"target {target_price} not attainable for sigma in [{VOL_LO}, {VOL_HI}]")

    sig = min(max(target_price / (0.4 * spot * math.exp(-dividend_yield * expiry)
                                  * math.sqrt(expiry)), 1e-2), 2.0)
    for _ in range(100):
        diff = f(sig)
        if abs(diff) < 1e-10:
            return sig
        if diff > 0:
            hi = sig
        else:
            lo = sig
        sq = bs_vega(kind, spot, strike, expiry, rate, dividend_yield, sig)
        step = sig - diff / sq if sq > 1e-14 else None
        sig = step if step is not None and lo < step < hi else 0.5 * (lo + hi)
    raise NoConvergence("implied volatility iteration did not converge")


def bs_vega(kind: OptionKind, spot: float, strike: float, expiry: float,
                     rate: float, dividend_yield: float, sigma: float) -> float:
    """Black-Scholes vega (same for calls and puts)."""
    sq = sigma * math.sqrt(expiry)
    d1 = (math.log(spot / strike) + (rate - dividend_yield + 0.5 * sigma * sigma)
          * expiry) / sq
    return spot * math.exp(-dividend_yield * expiry) * float(norm_pdf(d1)) \
        * math.sqrt(expiry)
