"""Funding economics: signed-haircut selection, nominal stock rate, and the
replication accounts whose unsecured debt N the pricing PDE charges.

Sign conventions used everywhere in the library:

* U is the signed position value of the book (+V long, -V short).
* The hedged economy holds -dU/dS shares of stock.
* A positive stock holding is financed through a repo trade with haircut
  +repo_haircut at the repo rate; a negative holding is a stock borrow with
  signed haircut -sec_haircut earning the rebate rate.
* The unsecured debt balance is N = (U - h*S*dU/dS)^+ and it accrues the
  spread r_b - r over the deposit rate, so the funding cost is (r_b - r) * N.
  `funding_accounts` is the one place the M/N/R split is written: it works
  elementwise, and `simulate_hedge` opens its accounts with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market import FundingConfig, Side


@dataclass(frozen=True)
class FinancingSelection:
    """Financing terms implied by the sign of the stock holding.

    Attributes:
        h_signed: signed haircut; positive for repo, negative for stock borrow
        r_p_effective: secured financing rate of the selected trade
        r_s: nominal stock rate r + (1 - h_signed) * (r_p_effective - r)
    """

    h_signed: float
    r_p_effective: float
    r_s: float


@dataclass(frozen=True)
class FundingAccounts:
    """Replication account balances for one position snapshot.

    M and N are the deposit and unsecured-debt balances of the
    unidirectional funding strategy (M * N = 0); R is the signed secured
    financing balance tied to the stock holding.  Each is a float, or an
    array for array inputs.
    """

    M: float | np.ndarray
    N: float | np.ndarray
    R: float | np.ndarray


def select_financing(stock_holding_sign: int, config: FundingConfig) -> FinancingSelection:
    """Pick (h_signed, secured rate, nominal stock rate) for a holding sign.

    Sign 0 ties to the repo branch; every term it feeds is multiplied by the
    zero holding, so the choice is immaterial but deterministic.
    """
    if stock_holding_sign >= 0:
        h = 1.0 if config.no_repo else config.repo_haircut
        rp = config.repo_rate
    else:
        h = -1.0 if config.no_repo else -config.sec_haircut
        rp = config.rebate_rate
    r_s = config.r + (1.0 - h) * (rp - config.r)
    return FinancingSelection(h_signed=h, r_p_effective=rp, r_s=r_s)


def financing_arrays(holding: np.ndarray, config: FundingConfig) -> tuple[np.ndarray, np.ndarray]:
    """`select_financing`'s (h_signed, r_p_effective) of each holding's sign."""
    long_sel, short_sel = select_financing(1, config), select_financing(-1, config)
    long_stock = holding >= 0.0
    return (np.where(long_stock, long_sel.h_signed, short_sel.h_signed),
            np.where(long_stock, long_sel.r_p_effective, short_sel.r_p_effective))


def funding_accounts(value: float | np.ndarray, stock_holding: float | np.ndarray,
                     spot: float | np.ndarray, config: FundingConfig) -> FundingAccounts:
    """Account balances replicating a position worth `value` (signed), elementwise
    over arrays.

    Solves the zero-wealth condition M - N = -value - h*holding*spot with
    the unidirectional split M = (.)^+, N = (-.)^+, and
    R = (1 - h) * holding * spot; h is `financing_arrays`' haircut of the
    holding's sign.
    """
    h = financing_arrays(stock_holding, config)[0]
    net = -value - h * stock_holding * spot
    return FundingAccounts(M=np.maximum(net, 0.0), N=np.maximum(-net, 0.0),
                           R=(1.0 - h) * stock_holding * spot)


def fva(side: Side, adjusted_price: float, risk_free_price: float) -> float:
    """Funding valuation adjustment of a quote against the classic price.

    Bid: f_b = V* - V_b.  Ask: f_a = V_a - V*.  Both are nonnegative under
    the usual rate ordering.
    """
    if side is Side.ASK:
        return adjusted_price - risk_free_price
    return risk_free_price - adjusted_price

