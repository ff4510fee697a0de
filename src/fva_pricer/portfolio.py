"""Bid/ask quotes of a book, strategy builders and netting analysis.

`quote` prices a book on both sides of the market: the bid is the long
book, the ask the short book.  A multi-leg book financed as one economy only
funds its net stock position, so its funding-induced bid/ask spread is
narrower than the sum of per-leg spreads.  `netting_report` quantifies that
gap by quoting the book once as a whole and once leg by leg.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

from .analytic import BsQuote
from .errors import BadStrikes
from .market import FundingConfig, OptionLeg, Portfolio, Side
from .pde import PdeGrid, SolverParams, solve, solve_american

STRATEGIES = ("bull", "straddle", "strangle", "strip")


@dataclass(frozen=True)
class NettingReport:
    """Netted versus leg-by-leg pricing of one book."""

    netted_bid: float
    netted_ask: float
    synthetic_bid: float
    synthetic_ask: float

    @property
    def netted_spread(self) -> float:
        return self.netted_ask - self.netted_bid

    @property
    def synthetic_spread(self) -> float:
        return self.synthetic_ask - self.synthetic_bid

    @property
    def netting_effect(self) -> float:
        return self.synthetic_spread - self.netted_spread

    def to_dict(self) -> dict:
        return {
            "netted_bid": self.netted_bid,
            "netted_ask": self.netted_ask,
            "synthetic_bid": self.synthetic_bid,
            "synthetic_ask": self.synthetic_ask,
            "netted_spread": self.netted_spread,
            "synthetic_spread": self.synthetic_spread,
            "netting_effect": self.netting_effect,
        }


def build_strategy(name: str, strikes: Sequence[float], expiry: float,
                   style: str = "european") -> Portfolio:
    """Standard strategies used in the netting studies.

    bull(k1 < k2):    +1 call k1, -1 call k2
    straddle(k):      +1 call k, +1 put k
    strangle(kp, kc): +1 put kp, +1 call kc, kp < kc
    strip(k):         +1 call k, +2 put k
    """
    ks = [float(k) for k in strikes]
    if name == "bull":
        if len(ks) != 2 or not ks[0] < ks[1]:
            raise BadStrikes(f"bull needs two strikes k1 < k2, got {ks}")
        legs = (OptionLeg("call", ks[0], 1.0, style), OptionLeg("call", ks[1], -1.0, style))
    elif name == "straddle":
        if len(ks) != 1:
            raise BadStrikes(f"straddle needs one strike, got {ks}")
        legs = (OptionLeg("call", ks[0], 1.0, style), OptionLeg("put", ks[0], 1.0, style))
    elif name == "strangle":
        if len(ks) != 2 or not ks[0] < ks[1]:
            raise BadStrikes(f"strangle needs put strike < call strike, got {ks}")
        legs = (OptionLeg("put", ks[0], 1.0, style), OptionLeg("call", ks[1], 1.0, style))
    elif name == "strip":
        if len(ks) != 1:
            raise BadStrikes(f"strip needs one strike, got {ks}")
        legs = (OptionLeg("call", ks[0], 1.0, style), OptionLeg("put", ks[0], 2.0, style))
    else:
        raise BadStrikes(f"unknown strategy {name!r}; choose from {STRATEGIES}")
    return Portfolio(legs=legs, expiry=expiry)


def quote(portfolio: Portfolio, config: FundingConfig, grid: PdeGrid,
          params: SolverParams = SolverParams()) -> tuple[BsQuote, BsQuote]:
    """Bid and ask of a book, each with the greeks of its quoted price.

    The bid solves the long book, the ask the short book (quoted as minus
    its position value); American books go through solve_american.  With
    every funding rate at r both sides are the classic price and one solve
    serves both, so the mid is quote(portfolio, config.degenerate(), grid)[0].
    """
    run = solve_american if portfolio.style == "american" else solve
    res = run(portfolio, Side.BID, config, grid, params)
    bid = BsQuote(res.value, res.delta, res.gamma)
    if config.is_degenerate():
        return bid, bid
    res = run(portfolio, Side.ASK, config, grid, params)
    return bid, BsQuote(-res.value, -res.delta, -res.gamma)


def netting_report(portfolio: Portfolio, config: FundingConfig, grid: PdeGrid,
                   params: SolverParams = SolverParams()) -> NettingReport:
    """Netted book prices versus the synthetic sum of stand-alone legs.

    The synthetic decomposition prices each leg as its own economy with its
    own funding accounts: long legs contribute their bid, short legs their
    ask, and the roles swap on the other side of the book quote.
    """
    netted_bid, netted_ask = quote(portfolio, config, grid, params)
    synthetic_bid = 0.0
    synthetic_ask = 0.0
    for leg in portfolio.legs:
        unit = Portfolio(legs=(dataclasses.replace(leg, quantity=1.0),),
                         expiry=portfolio.expiry)
        leg_bid, leg_ask = quote(unit, config, grid, params)
        if leg.quantity > 0:
            synthetic_bid += leg.quantity * leg_bid.price
            synthetic_ask += leg.quantity * leg_ask.price
        else:
            synthetic_bid += leg.quantity * leg_ask.price
            synthetic_ask += leg.quantity * leg_bid.price
    return NettingReport(netted_bid=netted_bid.price, netted_ask=netted_ask.price,
                         synthetic_bid=synthetic_bid, synthetic_ask=synthetic_ask)
