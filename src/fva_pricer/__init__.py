"""Option pricing with funding costs.

Bid and ask prices of vanilla options and option books arise from the
asymmetry between deposit and unsecured borrowing rates plus the haircuts
of secured stock financing.  The package provides closed forms where they
exist, a free-boundary Crank-Nicolson engine for everything else, netting
analysis for multi-leg books, and a Monte Carlo check that the prices are
self-financing replication prices.
"""

from .analytic import BsQuote, SpreadQuote, bs_price, implied_vol, long_position_price, \
    zero_haircut_spread
from .errors import (
    BadStrikes,
    ConfigError,
    GridTooCoarse,
    HaircutNotZero,
    InvalidHaircut,
    InvalidRateOrder,
    NoConvergence,
    NonPositiveVol,
    OracleUnavailable,
    PriceOutOfBounds,
    PricingError,
)
from .funding import FinancingSelection, FundingAccounts, funding_accounts, fva, \
    select_financing
from .market import FundingConfig, OptionLeg, Portfolio, Side, terminal_payoff, validate
from .pde import PdeGrid, PricingResult, solve, solve_american, solve_many, solve_surface
from .portfolio import NettingReport, build_strategy, netting_report, netting_reports, \
    quote, quote_many
from .replication import AnalyticOracle, HedgeSummary, LedgerState, PdeOracle, \
    make_oracle, simulate_hedge

__version__ = "0.1.0"

__all__ = [
    "AnalyticOracle",
    "BadStrikes",
    "BsQuote",
    "ConfigError",
    "FinancingSelection",
    "FundingAccounts",
    "FundingConfig",
    "GridTooCoarse",
    "HaircutNotZero",
    "HedgeSummary",
    "InvalidHaircut",
    "InvalidRateOrder",
    "LedgerState",
    "NettingReport",
    "NoConvergence",
    "NonPositiveVol",
    "OptionLeg",
    "OracleUnavailable",
    "PdeGrid",
    "PdeOracle",
    "Portfolio",
    "PriceOutOfBounds",
    "PricingError",
    "PricingResult",
    "Side",
    "SpreadQuote",
    "bs_price",
    "build_strategy",
    "funding_accounts",
    "fva",
    "implied_vol",
    "long_position_price",
    "make_oracle",
    "netting_report",
    "netting_reports",
    "quote",
    "quote_many",
    "select_financing",
    "simulate_hedge",
    "solve",
    "solve_american",
    "solve_many",
    "solve_surface",
    "terminal_payoff",
    "validate",
    "zero_haircut_spread",
]
