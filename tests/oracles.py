"""Independent reference implementations used only to check the package.

These deliberately avoid the package's own code paths: closed forms are
written against scipy.stats.norm, American prices come from a
Cox-Ross-Rubinstein binomial tree, and the discrete exercise problem of one
time step is solved densely by a primal-dual active-set loop.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import norm


def ref_forward_price(kind: str, forward: float, strike: float, expiry: float,
                      discount_rate: float, sigma: float) -> float:
    sq = sigma * np.sqrt(expiry)
    d1 = (np.log(forward / strike) + 0.5 * sigma**2 * expiry) / sq
    d2 = d1 - sq
    df = np.exp(-discount_rate * expiry)
    if kind == "call":
        return float(df * (forward * norm.cdf(d1) - strike * norm.cdf(d2)))
    return float(df * (strike * norm.cdf(-d2) - forward * norm.cdf(-d1)))


def ref_bs_price(kind: str, spot: float, strike: float, expiry: float,
                 rate: float, q: float, sigma: float) -> float:
    forward = spot * np.exp((rate - q) * expiry)
    return ref_forward_price(kind, forward, strike, expiry, rate, sigma)


def ref_bs_delta(kind: str, spot: float, strike: float, expiry: float,
                 rate: float, q: float, sigma: float) -> float:
    sq = sigma * np.sqrt(expiry)
    d1 = (np.log(spot / strike) + (rate - q + 0.5 * sigma**2) * expiry) / sq
    if kind == "call":
        return float(np.exp(-q * expiry) * norm.cdf(d1))
    return float(-np.exp(-q * expiry) * norm.cdf(-d1))


def ref_bs_gamma(spot: float, strike: float, expiry: float,
                 rate: float, q: float, sigma: float) -> float:
    sq = sigma * np.sqrt(expiry)
    d1 = (np.log(spot / strike) + (rate - q + 0.5 * sigma**2) * expiry) / sq
    return float(np.exp(-q * expiry) * norm.pdf(d1) / (spot * sq))


def ref_long_position_price(kind: str, spot: float, strike: float, expiry: float,
                            r: float, q: float, sigma: float, r_b: float,
                            h_signed: float, r_p: float) -> float:
    """Shifted-rate closed form for a long position carried with funding."""
    growth = h_signed * r_b + (1.0 - h_signed) * r_p - q
    forward = spot * np.exp(growth * expiry)
    return ref_forward_price(kind, forward, strike, expiry, r_b, sigma)


def crr_binomial(kind: str, spot: float, strike: float, expiry: float,
                 rate: float, q: float, sigma: float, steps: int,
                 american: bool) -> float:
    """Cox-Ross-Rubinstein tree, vectorized backward induction."""
    dt = expiry / steps
    u = np.exp(sigma * np.sqrt(dt))
    d = 1.0 / u
    p = (np.exp((rate - q) * dt) - d) / (u - d)
    disc = np.exp(-rate * dt)
    j = np.arange(steps + 1)
    terminal = spot * u**j * d**(steps - j)
    if kind == "call":
        values = np.maximum(terminal - strike, 0.0)
    else:
        values = np.maximum(strike - terminal, 0.0)
    for i in range(steps - 1, -1, -1):
        values = disc * (p * values[1:i + 2] + (1.0 - p) * values[:i + 1])
        if american:
            nodes = spot * u**j[:i + 1] * d**(i - j[:i + 1])
            intrinsic = nodes - strike if kind == "call" else strike - nodes
            values = np.maximum(values, intrinsic)
    return float(values[0])


def lcp_solve(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
              rhs: np.ndarray, obstacle: np.ndarray, sign: int) -> np.ndarray:
    """Solve the obstacle problem of one implicit time step.

    Finds x with sign * (A x - rhs) >= 0, sign * (x - obstacle) >= 0 and
    their product zero, where A is the tridiagonal matrix with A[i, i-1] =
    lower[i], A[i, i] = diag[i] and A[i, i+1] = upper[i].  The dense
    primal-dual active-set method guesses the contact set, solves the
    equality-constrained system with numpy.linalg.solve and moves every
    node whose multiplier or constraint has the wrong sign, until the
    guess repeats.
    """
    n = diag.size
    a = np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
    contact = np.zeros(n, dtype=bool)
    for _ in range(n + 2):
        m = np.where(contact[:, None], np.eye(n), a)
        x = np.linalg.solve(m, np.where(contact, obstacle, rhs))
        multiplier = sign * (a @ x - rhs)
        guess = multiplier - sign * (x - obstacle) > 0.0
        if np.array_equal(guess, contact):
            return x
        contact = guess
    raise RuntimeError("active-set loop did not settle")
