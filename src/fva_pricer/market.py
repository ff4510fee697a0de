"""Shared domain types: funding configuration, option legs, portfolios, sides.

All types are immutable after construction and validate themselves, so they
can be shared freely between threads and reused across solver calls.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Literal

import numpy as np

from .errors import ConfigError, InvalidHaircut, InvalidRateOrder, NonPositiveVol

OptionKind = Literal["call", "put"]
ExerciseStyle = Literal["european", "american"]


class Side(Enum):
    """Which price of the market maker's book is requested.

    BID prices the book as a long position (position value +V), ASK as a
    short position (position value -V).  RISK_FREE collapses every funding
    rate to the deposit rate and reproduces the classic single-curve price.
    """

    BID = "bid"
    ASK = "ask"
    RISK_FREE = "riskfree"

    @property
    def position_sign(self) -> int:
        """+1 for a long book (bid, riskfree), -1 for a short book (ask)."""
        return -1 if self is Side.ASK else 1


@dataclass(frozen=True)
class FundingConfig:
    """All rates and haircuts of the funding economy.

    Attributes:
        r: continuously compounded risk-free deposit rate (per year)
        r_b: unsecured borrowing rate, r_b >= r (per year)
        q: continuous dividend yield (per year)
        sigma: lognormal volatility (per sqrt-year)
        repo_rate: rate paid on secured borrowing against a long stock
            position, repo_rate >= r (per year)
        repo_haircut: overcollateralization fraction on the repo trade,
            in [0, 1)
        rebate_rate: rate received on cash margin posted when borrowing
            stock to short, rebate_rate <= r (per year)
        sec_haircut: overcollateralization fraction on the stock borrow
            margin, in [0, 1)
        no_repo: when True, secured stock financing is unavailable and the
            entire hedge is funded unsecured (haircut pinned to +/-1)
    """

    r: float
    r_b: float
    q: float
    sigma: float
    repo_rate: float
    repo_haircut: float
    rebate_rate: float
    sec_haircut: float
    no_repo: bool = False

    def __post_init__(self) -> None:
        validate(self)

    @classmethod
    def classic(cls, r: float, sigma: float, q: float = 0.0) -> "FundingConfig":
        """Single-curve configuration: every funding rate equals r."""
        return cls(r=r, r_b=r, q=q, sigma=sigma, repo_rate=r, repo_haircut=0.0,
                   rebate_rate=r, sec_haircut=0.0)

    def degenerate(self) -> "FundingConfig":
        """Copy with all funding rates collapsed to the deposit rate.

        Haircuts are retained; they multiply terms that vanish once every
        rate equals r, so the result prices exactly like classic
        Black-Scholes.
        """
        return dataclasses.replace(
            self, r_b=self.r, repo_rate=self.r, rebate_rate=self.r, no_repo=False)

    @property
    def spread(self) -> float:
        """Unsecured funding spread r_b - r."""
        return self.r_b - self.r

    def is_degenerate(self) -> bool:
        # with every rate equal to r the funding term vanishes and the
        # nominal stock rate collapses to r for any haircut, no_repo included
        return (self.r_b == self.r and self.repo_rate == self.r
                and self.rebate_rate == self.r)


def validate(config: FundingConfig) -> None:
    """Check every FundingConfig invariant, raising on the first violation.

    Each error's `field` names the offending FundingConfig field.

    Raises:
        ConfigError: a rate, the dividend yield or sigma is not finite
        InvalidRateOrder: rate ordering rebate <= r <= r_b or repo >= r broken
        InvalidHaircut: a haircut outside [0, 1)
        NonPositiveVol: sigma <= 0
    """
    for name in ("r", "r_b", "q", "sigma", "repo_rate", "rebate_rate"):
        value = getattr(config, name)
        if not math.isfinite(value):
            raise ConfigError(f"{name}={value} must be finite", field=name)
    if config.r_b < config.r:
        raise InvalidRateOrder(
            f"unsecured rate r_b={config.r_b} must be >= deposit rate r={config.r}",
            field="r_b")
    if config.rebate_rate > config.r:
        raise InvalidRateOrder(
            f"rebate rate {config.rebate_rate} must be <= deposit rate r={config.r}",
            field="rebate_rate")
    if config.repo_rate < config.r:
        raise InvalidRateOrder(
            f"repo rate {config.repo_rate} must be >= deposit rate r={config.r}",
            field="repo_rate")
    for name, h in (("repo_haircut", config.repo_haircut),
                    ("sec_haircut", config.sec_haircut)):
        if not 0.0 <= h < 1.0:
            raise InvalidHaircut(f"{name}={h} outside [0, 1)", field=name)
    if not config.sigma > 0.0:
        raise NonPositiveVol(f"sigma={config.sigma} must be > 0", field="sigma")


@dataclass(frozen=True)
class OptionLeg:
    """One vanilla option position inside a portfolio.

    Attributes:
        kind: "call" or "put"
        strike: strike price, > 0
        quantity: signed real number of contracts; positive means the
            market maker is long the leg
        style: "european" or "american"
    """

    kind: OptionKind
    strike: float
    quantity: float = 1.0
    style: ExerciseStyle = "european"

    def __post_init__(self) -> None:
        if self.kind not in ("call", "put"):
            raise ConfigError(f"kind must be 'call' or 'put', got {self.kind!r}")
        if self.style not in ("european", "american"):
            raise ConfigError(f"style must be 'european' or 'american', got {self.style!r}")
        if not (math.isfinite(self.strike) and self.strike > 0.0):
            raise ConfigError(f"strike={self.strike} must be finite and > 0")
        if not (math.isfinite(self.quantity) and self.quantity != 0.0):
            raise ConfigError(f"quantity={self.quantity} must be finite and nonzero")

    def intrinsic(self, s: float | np.ndarray) -> float | np.ndarray:
        if self.kind == "call":
            return np.maximum(np.asarray(s, dtype=float) - self.strike, 0.0)
        return np.maximum(self.strike - np.asarray(s, dtype=float), 0.0)


@dataclass(frozen=True)
class Portfolio:
    """A book of option legs sharing one expiry and one exercise style."""

    legs: tuple[OptionLeg, ...]
    expiry: float

    def __post_init__(self) -> None:
        if not self.legs:
            raise ConfigError("portfolio needs at least one leg")
        object.__setattr__(self, "legs", tuple(self.legs))
        if not (math.isfinite(self.expiry) and self.expiry > 0.0):
            raise ConfigError(f"expiry={self.expiry} must be finite and > 0")
        styles = {leg.style for leg in self.legs}
        if len(styles) > 1:
            raise ConfigError("mixed exercise styles in one portfolio are not supported")

    @classmethod
    def single(cls, kind: OptionKind, strike: float, expiry: float,
               quantity: float = 1.0, style: ExerciseStyle = "european") -> "Portfolio":
        return cls(legs=(OptionLeg(kind, strike, quantity, style),), expiry=expiry)

    @property
    def style(self) -> ExerciseStyle:
        return self.legs[0].style

    @property
    def max_strike(self) -> float:
        return max(leg.strike for leg in self.legs)

    def scaled(self, factor: float) -> "Portfolio":
        return Portfolio(
            legs=tuple(dataclasses.replace(leg, quantity=factor * leg.quantity)
                       for leg in self.legs),
            expiry=self.expiry)


def terminal_payoff(portfolio: Portfolio, s: float | np.ndarray) -> float | np.ndarray:
    """Signed payoff of the whole book at expiry for stock price s >= 0."""
    arr = np.asarray(s, dtype=float)
    total = np.zeros_like(arr)
    for leg in portfolio.legs:
        total = total + leg.quantity * leg.intrinsic(arr)
    return float(total) if np.isscalar(s) or arr.ndim == 0 else total


def portfolio_from_dict(payload: dict) -> Portfolio:
    """Build a Portfolio from the wire format.

    Expected shape::

        {"expiry": 2.0, "style": "european",
         "legs": [{"kind": "call", "strike": 95.0, "qty": 1.0}, ...]}
    """
    try:
        expiry = float(payload["expiry"])
        style = payload.get("style", "european")
        legs = tuple(
            OptionLeg(kind=item["kind"], strike=float(item["strike"]),
                      quantity=float(item.get("qty", 1.0)), style=style)
            for item in payload["legs"])
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed portfolio payload: {exc}") from exc
    return Portfolio(legs=legs, expiry=expiry)


def portfolio_to_dict(portfolio: Portfolio) -> dict:
    return {
        "expiry": portfolio.expiry,
        "style": portfolio.style,
        "legs": [{"kind": leg.kind, "strike": leg.strike, "qty": leg.quantity}
                 for leg in portfolio.legs],
    }


def load_portfolio(path: str) -> Portfolio:
    with open(path, "r", encoding="utf-8") as fh:
        return portfolio_from_dict(json.load(fh))
