"""Bid/ask quotes of a book, strategy builders and netting analysis.

`quote_many` prices books on both sides of the market in one solver batch:
the bid is the long book, the ask the short book.  A multi-leg book
financed as one economy only funds its net stock position, so its
funding-induced bid/ask spread is narrower than the sum of per-leg spreads.
`netting_reports` quantifies that gap by quoting each book once as a whole
and once leg by leg.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, Sequence

from .analytic import BsQuote
from .errors import BadStrikes
from .market import FundingConfig, OptionLeg, Portfolio, Side
from .pde import PdeGrid, solve_many
from .pde import solve  # noqa: F401  the name the benchmark tracer reads

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


def build_strategy(name: str, strikes: Sequence[float], expiry: float) -> Portfolio:
    """Standard strategies used in the netting studies, every leg European.

    bull(k1 < k2):    +1 call k1, -1 call k2
    straddle(k):      +1 call k, +1 put k
    strangle(kp, kc): +1 put kp, +1 call kc, kp < kc
    strip(k):         +1 call k, +2 put k
    """
    ks = [float(k) for k in strikes]
    if name == "bull":
        if len(ks) != 2 or not ks[0] < ks[1]:
            raise BadStrikes(f"bull needs two strikes k1 < k2, got {ks}")
        legs = (OptionLeg("call", ks[0], 1.0), OptionLeg("call", ks[1], -1.0))
    elif name == "straddle":
        if len(ks) != 1:
            raise BadStrikes(f"straddle needs one strike, got {ks}")
        legs = (OptionLeg("call", ks[0], 1.0), OptionLeg("put", ks[0], 1.0))
    elif name == "strangle":
        if len(ks) != 2 or not ks[0] < ks[1]:
            raise BadStrikes(f"strangle needs put strike < call strike, got {ks}")
        legs = (OptionLeg("put", ks[0], 1.0), OptionLeg("call", ks[1], 1.0))
    elif name == "strip":
        if len(ks) != 1:
            raise BadStrikes(f"strip needs one strike, got {ks}")
        legs = (OptionLeg("call", ks[0], 1.0), OptionLeg("put", ks[0], 2.0))
    else:
        raise BadStrikes(f"unknown strategy {name!r}; choose from {STRATEGIES}")
    return Portfolio(legs=legs, expiry=expiry)


def quote_many(books: Iterable[tuple[Portfolio, FundingConfig, PdeGrid]]
               ) -> list[tuple[BsQuote, BsQuote]]:
    """Bid and ask of each (portfolio, config, grid) book, each with the greeks of
    its quoted price, every solve of every book in one batch (`pde.solve_many`).

    The bid solves the long book, the ask the short book (quoted as minus
    its position value); American books take the exercise constraint.  With
    every funding rate at r both sides are the classic price and one solve
    serves both, so the mid is the bid of (portfolio, config.degenerate(),
    grid).  The grids must share a node count.  Errors surface as if the
    books were quoted one at a time in order.
    """
    both: list[bool] = []

    def jobs():
        for portfolio, config, grid in books:
            both.append(not config.is_degenerate())
            yield portfolio, Side.BID, config, grid
            if both[-1]:
                yield portfolio, Side.ASK, config, grid

    results = iter(solve_many(jobs()))
    quotes = []
    for two_sided in both:
        res = next(results)
        bid = BsQuote(res.value, res.delta, res.gamma)
        if two_sided:
            res = next(results)
            quotes.append((bid, BsQuote(-res.value, -res.delta, -res.gamma)))
        else:
            quotes.append((bid, bid))
    return quotes


def quote(portfolio: Portfolio, config: FundingConfig, grid: PdeGrid
          ) -> tuple[BsQuote, BsQuote]:
    """Bid and ask of one book; see `quote_many`."""
    return quote_many([(portfolio, config, grid)])[0]


def netting_reports(books: Iterable[tuple[Portfolio, PdeGrid]], config: FundingConfig
                    ) -> list[NettingReport]:
    """Netted book prices versus the synthetic sum of stand-alone legs, for each
    (portfolio, grid) book, every quote in one batch.

    The synthetic decomposition prices each leg as its own economy with its
    own funding accounts: long legs contribute their bid, short legs their
    ask, and the roles swap on the other side of the book quote.
    """
    legs: list[tuple[OptionLeg, ...]] = []

    def quoted():
        for portfolio, grid in books:
            legs.append(portfolio.legs)
            yield portfolio, config, grid
            for leg in portfolio.legs:
                unit = Portfolio(legs=(dataclasses.replace(leg, quantity=1.0),),
                                 expiry=portfolio.expiry)
                yield unit, config, grid

    quotes = iter(quote_many(quoted()))
    reports = []
    for book_legs in legs:
        netted_bid, netted_ask = next(quotes)
        synthetic_bid = 0.0
        synthetic_ask = 0.0
        for leg in book_legs:
            leg_bid, leg_ask = next(quotes)
            if leg.quantity > 0:
                synthetic_bid += leg.quantity * leg_bid.price
                synthetic_ask += leg.quantity * leg_ask.price
            else:
                synthetic_bid += leg.quantity * leg_ask.price
                synthetic_ask += leg.quantity * leg_bid.price
        reports.append(NettingReport(netted_bid=netted_bid.price, netted_ask=netted_ask.price,
                                     synthetic_bid=synthetic_bid, synthetic_ask=synthetic_ask))
    return reports


def netting_report(portfolio: Portfolio, config: FundingConfig, grid: PdeGrid
                   ) -> NettingReport:
    """Netted versus leg-by-leg pricing of one book; see `netting_reports`."""
    return netting_reports([(portfolio, grid)], config)[0]
