"""Reference prices the benchmark checks the CLI outputs against.

Written against scipy.stats.norm and a binomial tree so that no check
reuses the package's own pricing code.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import norm


def forward_price(kind: str, forward: float, strike: float, expiry: float,
                  discount_rate: float, sigma: float) -> float:
    """Lognormal option price for a given forward, discounted at discount_rate."""
    sq = sigma * math.sqrt(expiry)
    d1 = (math.log(forward / strike) + 0.5 * sigma * sigma * expiry) / sq
    d2 = d1 - sq
    df = math.exp(-discount_rate * expiry)
    if kind == "call":
        return df * (forward * norm.cdf(d1) - strike * norm.cdf(d2))
    return df * (strike * norm.cdf(-d2) - forward * norm.cdf(-d1))


def black_scholes(kind: str, spot: float, strike: float, expiry: float,
                  r: float, q: float, sigma: float) -> float:
    """Classic single-curve price: the risk-free (mid) quote."""
    forward = spot * math.exp((r - q) * expiry)
    return forward_price(kind, forward, strike, expiry, r, sigma)


def long_position(kind: str, spot: float, strike: float, expiry: float,
                  m: dict) -> float:
    """Shifted-rate closed form of a long vanilla carried with funding costs.

    The hedge of a long call is short stock (stock borrow, signed haircut
    -sec_haircut, rebate rate); the hedge of a long put is long stock (repo,
    +repo_haircut, repo rate).  Without repo access the haircut is +/-1.
    The stock grows at h*r_b + (1-h)*r_p - q and the price discounts at r_b.
    """
    if kind == "call":
        h = -1.0 if m.get("no_repo") else -m["sec_haircut"]
        rp = m["rebate_rate"]
    else:
        h = 1.0 if m.get("no_repo") else m["repo_haircut"]
        rp = m["repo_rate"]
    growth = h * m["r_b"] + (1.0 - h) * rp - m["q"]
    return forward_price(kind, spot * math.exp(growth * expiry), strike, expiry,
                         m["r_b"], m["sigma"])


def zero_haircut_ask(kind: str, spot: float, strike: float, expiry: float,
                     m: dict) -> float:
    """Short-position closed form when both haircuts are zero.

    The short call's hedge is long stock financed at the repo rate, the
    short put's is short stock earning the rebate; both discount at r.
    """
    growth = (m["repo_rate"] if kind == "call" else m["rebate_rate"]) - m["q"]
    return forward_price(kind, spot * math.exp(growth * expiry), strike, expiry,
                         m["r"], m["sigma"])


def crr_american(kind: str, spot: float, strike: float, expiry: float,
                 r: float, q: float, sigma: float, steps: int) -> float:
    """Cox-Ross-Rubinstein binomial tree with early exercise."""
    dt = expiry / steps
    u = math.exp(sigma * math.sqrt(dt))
    d = 1.0 / u
    p = (math.exp((r - q) * dt) - d) / (u - d)
    disc = math.exp(-r * dt)
    sign = 1.0 if kind == "call" else -1.0
    j = np.arange(steps + 1)
    values = np.maximum(sign * (spot * u ** j * d ** (steps - j) - strike), 0.0)
    for i in range(steps - 1, -1, -1):
        values = disc * (p * values[1:i + 2] + (1.0 - p) * values[:i + 1])
        nodes = spot * u ** j[:i + 1] * d ** (i - j[:i + 1])
        values = np.maximum(values, sign * (nodes - strike))
    return float(values[0])


# The four stock-financing cases `fva-curve` sweeps: name -> (haircut,
# secured spread); a haircut of None means no secured financing at all.
FVA_CURVE_CASES = {
    "no_repo": (None, 0.0),
    "h000_repo50": (0.0, 0.005),
    "h035_repo50": (0.35, 0.005),
    "h035_repo150": (0.35, 0.015),
}


def fva_curve_percent(case: str, spread: float, kind: str, spot: float,
                      strike: float, expiry: float, r: float, q: float,
                      sigma: float) -> float:
    """Funding adjustment of a long vanilla in percent of the risk-free price."""
    haircut, secured = FVA_CURVE_CASES[case]
    m = {"r": r, "r_b": r + spread, "q": q, "sigma": sigma,
         "repo_rate": r + secured, "rebate_rate": r - secured,
         "repo_haircut": haircut or 0.0, "sec_haircut": haircut or 0.0,
         "no_repo": haircut is None}
    mid = black_scholes(kind, spot, strike, expiry, r, q, sigma)
    return 100.0 * (mid - long_position(kind, spot, strike, expiry, m)) / mid
