"""Closed-form pricing and implied volatility.

The classic Black-Scholes price, the long position under funding costs
(bid) and the short position under zero haircuts (ask) are one lognormal
formula under shifted rates: `lognormal_rates` picks a side's growth and
discount rate, and `lognormal` evaluates the formula on a scalar or an
array of spots, so the hedge simulator calls it path-wise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, HaircutNotZero, NoConvergence, PriceOutOfBounds
from .extensions import load_scipy_extension
from .funding import select_financing
from .market import FundingConfig, OptionKind, Side, _require_positive

SQRT2 = math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

VOL_LO = 1e-6
VOL_HI = 5.0


# scipy.special.erfc, loaded by the first norm_cdf call: commands that
# evaluate no closed form never load it
_erfc = None


def _load_erfc():
    """scipy.special.erfc, taken from the extension module that defines it.

    `extensions.load_scipy_extension` loads `scipy.special._special_ufuncs`
    without importing scipy.special; the ufunc is the object scipy.special
    exports.  A scipy whose erfc lives elsewhere imports scipy.special.
    """
    try:
        return load_scipy_extension("special", "_special_ufuncs").erfc
    except (ModuleNotFoundError, AttributeError):
        from scipy.special import erfc
        return erfc


def norm_cdf(x):
    """Standard normal CDF via the complementary error function."""
    global _erfc
    if _erfc is None:
        _erfc = _load_erfc()
    return 0.5 * _erfc(-np.asarray(x, dtype=float) / SQRT2)


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


def lognormal_rates(kind: OptionKind, side: Side, config: FundingConfig
                    ) -> tuple[float, float]:
    """(growth, discount): the stock growth and discount rate of a side's closed form.

    Risk-free or degenerate: r - q, discounted at r.  Bid: the long option's
    hedge is one-sided, so the funding term is always active and the stock
    grows at h*r_b + (1-h)*r_p - q, (h, r_p) set by the hedge trade,
    discounted at r_b.  Ask, only under zero haircuts: a call grows at the
    repo rate, a put at the rebate rate, discounted at r.

    Raises:
        HaircutNotZero: the ask with a nonzero haircut or no_repo.
    """
    if side is Side.RISK_FREE or config.is_degenerate():
        return config.r - config.q, config.r
    if side is Side.BID:
        sel = select_financing(-1 if kind == "call" else 1, config)
        return (sel.h_signed * config.r_b + (1.0 - sel.h_signed) * sel.r_p_effective
                - config.q), config.r_b
    if config.repo_haircut != 0.0 or config.sec_haircut != 0.0 or config.no_repo:
        raise HaircutNotZero(
            f"the ask has a closed form only with both haircuts 0 and secured "
            f"financing (repo={config.repo_haircut}, sec={config.sec_haircut}, "
            f"no_repo={config.no_repo}); price it on the PDE")
    growth = config.repo_rate if kind == "call" else config.rebate_rate
    return growth - config.q, config.r


def lognormal(kind: OptionKind, spot: float | np.ndarray, strike: float, tau: float,
              growth: float, discount: float, sigma: float, value: bool = True):
    """(value, slope, d1) over life `tau` for a scalar or array `spot`.

    With `value=False` the value is not evaluated and comes back as None;
    the slope and d1 are bit for bit the same.

    Raises:
        ConfigError: exp(growth*tau), exp(-discount*tau) or sigma**2 is out
            of floating-point range.
    """
    try:
        fs = math.exp(growth * tau)
        df = math.exp(-discount * tau)
        half_var = 0.5 * sigma ** 2
    except OverflowError:
        fs = 0.0
    if fs == 0.0:  # an overflow above, or a forward too small to take its log
        raise ConfigError(f"closed form out of range: growth {growth}, discount "
                          f"{discount}, sigma {sigma} over {tau} years")
    sq = sigma * math.sqrt(tau)
    fwd = spot * fs
    d1 = (np.log(fwd / strike) + half_var * tau) / sq
    if kind == "call":
        n1 = norm_cdf(d1)
        slope = df * fs * n1
        price = df * (fwd * n1 - strike * norm_cdf(d1 - sq)) if value else None
    else:
        n1 = norm_cdf(-d1)
        slope = -df * fs * n1
        price = df * (strike * norm_cdf(-(d1 - sq)) - fwd * n1) if value else None
    return price, slope, d1


@np.errstate(all="ignore")  # a non-finite result is rejected below
def closed_form(kind: OptionKind, side: Side, spot: float, strike: float,
                expiry: float, config: FundingConfig) -> BsQuote:
    """Price, delta and gamma of one vanilla option on one side of the book.

    Raises:
        ConfigError: a non-finite or non-positive spot, strike or expiry, or
            a result out of floating-point range.
        HaircutNotZero: see `lognormal_rates`.
    """
    _require_positive(spot=spot, strike=strike, expiry=expiry)
    growth, discount = lognormal_rates(kind, side, config)
    sigma = config.sigma
    price, delta, d1 = lognormal(kind, spot, strike, expiry, growth, discount, sigma)
    gamma = math.exp(-discount * expiry) * math.exp(growth * expiry) * norm_pdf(d1) \
        / (spot * (sigma * math.sqrt(expiry)))
    quote = BsQuote(price=float(price), delta=float(delta), gamma=float(gamma))
    if not all(math.isfinite(x) for x in (quote.price, quote.delta, quote.gamma)):
        raise ConfigError(f"closed form out of range: {quote}")
    return quote


def bs_price(kind: OptionKind, spot: float, strike: float, expiry: float,
             rate: float, dividend_yield: float, sigma: float) -> BsQuote:
    """Classic Black-Scholes price, delta, and gamma with a continuous yield."""
    config = FundingConfig.classic(r=rate, sigma=sigma, q=dividend_yield)
    return closed_form(kind, Side.RISK_FREE, spot, strike, expiry, config)


def long_position_price(kind: OptionKind, spot: float, strike: float,
                        expiry: float, config: FundingConfig) -> BsQuote:
    """Value of a long vanilla position carried with funding costs (the bid)."""
    return closed_form(kind, Side.BID, spot, strike, expiry, config)


def zero_haircut_quotes(kind: OptionKind, spot: float, strike: float,
                        expiry: float, config: FundingConfig
                        ) -> tuple[BsQuote, BsQuote]:
    """Full (bid, ask) quotes with greeks under zero haircuts (see `lognormal_rates`)."""
    return (closed_form(kind, Side.BID, spot, strike, expiry, config),
            closed_form(kind, Side.ASK, spot, strike, expiry, config))


def zero_haircut_spread(kind: OptionKind, spot: float, strike: float,
                        expiry: float, config: FundingConfig) -> SpreadQuote:
    """Analytic bid/ask prices under zero haircuts (see `lognormal_rates`)."""
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

    def f(sig: float) -> float:
        return bs_price(kind, spot, strike, expiry, rate, dividend_yield, sig).price \
            - target_price

    lo, hi = VOL_LO, VOL_HI
    f_lo, f_hi = f(lo), f(hi)  # bs_price validates the inputs
    lower, upper = _price_bounds(kind, spot, strike, expiry, rate, dividend_yield)
    if not lower < target_price < upper:
        raise PriceOutOfBounds(
            f"target {target_price} outside no-arbitrage bounds ({lower}, {upper})")
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
    d1 = lognormal(kind, spot, strike, expiry, rate - dividend_yield, rate, sigma)[2]
    return spot * math.exp(-dividend_yield * expiry) * float(norm_pdf(d1)) \
        * math.sqrt(expiry)
