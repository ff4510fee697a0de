"""Finite-difference pricing engine.

Crank-Nicolson time stepping on a uniform stock grid, with:

* an iterative resolution of the nonlinear unsecured-funding term (the
  funding indicator and the signed haircut are frozen per inner iteration,
  each inner solve is a single tridiagonal system),
* one substep loop for European and American books, which stops once an
  iterate's region codes equal those of the operator that produced it: the
  next iteration would only repeat it, so it is charged to the budget but
  not run (the policy-iteration rule of Huang, Forsyth & Labahn, 2012),
* region tables: with the pattern frozen each node lies in one of four
  funding regions (unsecured debt or none, long or short stock), so the
  operator diagonals of all four, and the implicit-system diagonals of each
  step kind, are built once per solve and every inner iteration gathers its
  system from them by one index, region * K + row; the boundary rows'
  half-node coefficients sit in those tables too, indexed like every row,
* batches: `solve_many` runs any number of jobs that share a node count
  through that one loop.  The jobs lie end to end on one axis of k * n rows
  and step in lock step by substep index (grids may differ in spacing, dt
  and step count; a job whose steps are done drops out).  Each inner
  iteration assembles the systems of the unfinished jobs only and solves
  them with one call of LAPACK gtsv over the concatenated blocks, whose
  coupling at every seam is zero, so each job's result is bit for bit its
  stand-alone solve.  A batch stops at its first failure; `solve_many` then
  re-solves its jobs alone, in submission order, to raise the error of the
  first job that fails.  `solve`, `solve_american` and `solve_surface` are
  one-job batches,
* a European substep that starts on the region codes the last one ended on,
  with the same members and step kind, reuses that substep's system: from
  its second solve on through LU factors (LAPACK gttrf once, then gttrs),
  which do gtsv's operations and so give its bits,
* zero-gamma boundary conditions imposed by writing the convection-reaction
  equation at the half node nearest each boundary, which keeps the system
  tridiagonal; the boundary node takes that half node's funding region, so
  each boundary row, like every other row, lies in one region,
* American exercise as a second active set of that loop, its rows pinned to the obstacle,
* a terminal payoff averaged over the cell of each strike's node, and
  RANNACHER_STEPS implicit-Euler startup steps to damp the payoff kink
  before the trapezoidal stepping takes over.

The engine takes no options: its limits (FUNDING_MAX_ITERS, MAX_TIME_STEPS,
MAX_NODES, MAX_BLOCK_ROWS) are module constants, and a job is fully
described by its portfolio, side, funding config and grid.

gtsv, gttrf and gttrs are the f2py wrappers scipy.linalg.lapack re-exports,
taken from scipy's LAPACK extension module `scipy.linalg._flapack`, which
`extensions.load_scipy_extension` loads from its file without importing any
scipy package: a process that only solves PDEs skips the roughly 0.3 s those
imports cost.  `LinAlgError` is numpy's, the class scipy.linalg raises.

A batch owns its workspace and shares nothing mutable; concurrent solves on
different threads are safe.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Iterable, NoReturn

import numpy as np
from numpy.linalg import LinAlgError

from .errors import ConfigError, GridTooCoarse, NoConvergence
from .extensions import load_scipy_extension
from .funding import financing_arrays, select_financing  # noqa: F401  financing_arrays: traced
from .market import FundingConfig, Portfolio, Side, _require_positive, terminal_payoff

# most time steps one grid may take, so a tiny dt fails fast instead of running for hours
MAX_TIME_STEPS = 100_000
# most nodes one grid may have: a solve holds about 0.35 kB a row (0.45 kB for an
# American book), so this bounds one job's workspace to about 45 MB, where 1e12
# nodes would fail deep inside numpy; 50 times the largest default grid (2000)
MAX_NODES = 100_000
# most rows one batched solve holds (one job always fits): longer job lists run
# block by block, which bounds the workspace to about 0.35 kB a row.  The time
# per job stops falling from about 8000 rows on (see CHANGES.md); twice that
# keeps the 21 solves of an fva-curve on 400 nodes in one block.
MAX_BLOCK_ROWS = 16_384
# initial steps run as two implicit half-steps each; 2 keeps the strike-node gamma clean
RANNACHER_STEPS = 2
# funding and exercise iterations one substep may take; its tolerance is
# 1e-10 * max_strike of each book
FUNDING_MAX_ITERS = 50
# exp(x) overflows above this
_LOG_MAX = math.log(sys.float_info.max)

Job = tuple[Portfolio, Side, FundingConfig, "PdeGrid"]

_flapack = load_scipy_extension("linalg", "_flapack")
dgtsv, dgttrf, dgttrs = _flapack.dgtsv, _flapack.dgttrf, _flapack.dgttrs


def solve_banded(*args, **kwargs):
    """scipy.linalg.solve_banded, imported on call.

    The package never calls it: the name stays for the benchmark tracer,
    which wraps `pde.solve_banded` and refuses to run without it.
    """
    from scipy.linalg import solve_banded as scipy_solve_banded
    return scipy_solve_banded(*args, **kwargs)


@dataclass(frozen=True, eq=False)
class PdeGrid:
    """Uniform spatial grid plus the time discretization.

    The grid starts at 0 and the spacing is chosen so the spot lands exactly
    on an interior node (index `spot_index`), which makes the central
    difference greeks well defined.
    """

    s_nodes: np.ndarray
    dt: float
    n_steps: int
    spot_index: int

    def __post_init__(self) -> None:
        s = self.s_nodes
        if s.ndim != 1 or s.size < 3:
            raise ConfigError("grid needs at least 3 nodes")
        if s[0] != 0.0 or np.any(np.diff(s) <= 0):
            raise ConfigError("s_nodes must start at 0 and increase strictly")
        steps = np.diff(s)
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise ConfigError("s_nodes must be uniformly spaced")
        if not 2 <= self.spot_index <= s.size - 3:
            raise GridTooCoarse(
                f"spot node {self.spot_index} is not interior to the grid")

    @property
    def ds(self) -> float:
        return float(self.s_nodes[1] - self.s_nodes[0])

    @property
    def spot(self) -> float:
        return float(self.s_nodes[self.spot_index])

    @classmethod
    def build(cls, spot: float, max_strike: float, sigma: float, expiry: float,
              n_nodes: int = 2000, dt: float = 0.02,
              min_strike: float | None = None) -> "PdeGrid":
        """Build a grid covering [0, s_max] with the spot snapped to a node.

        s_max is at least max(4 * max_strike, spot * exp(4 * sigma * sqrt(T)))
        so the zero-gamma boundary sits far outside the payoff's curvature.
        At most MAX_TIME_STEPS steps of about dt cover the expiry.

        Raises:
            GridTooCoarse: the spot is not interior; the smallest strike
                (`min_strike`, default `max_strike`) lies inside the first
                cell, where the grid cannot resolve its payoff kink; or
                sigma * spot * sqrt(expiry) is below one cell, so the
                expiry is too short for the grid to resolve.
            ConfigError: a non-positive input, more than MAX_NODES nodes or
                MAX_TIME_STEPS steps, or a grid span or spacing out of float range.
        """
        _require_positive(spot=spot, expiry=expiry, dt=dt)
        if not (max_strike > 0 and sigma > 0):
            raise ConfigError("max_strike and sigma must be > 0")
        if n_nodes < 16:
            raise GridTooCoarse(f"n_nodes={n_nodes} is too small", field="nodes")
        if n_nodes > MAX_NODES:
            raise ConfigError(f"nodes={n_nodes} exceeds the {MAX_NODES} nodes a grid may have",
                              field="nodes")
        try:
            s_target = max(4.0 * max_strike, spot * math.exp(4.0 * sigma * math.sqrt(expiry)))
        except OverflowError:
            raise ConfigError(f"the grid span spot*exp(4*sigma*sqrt(expiry)) overflows "
                              f"for sigma={sigma}, expiry={expiry}") from None
        m = int(math.floor(spot * (n_nodes - 1) / s_target))
        if m < 2:
            raise GridTooCoarse(
                f"{n_nodes} nodes cannot place spot {spot} on an interior node "
                f"of [0, {s_target:.6g}]", field="nodes")
        steps = expiry / dt
        if not steps <= MAX_TIME_STEPS:
            raise ConfigError(f"expiry/dt={steps:.6g} time steps exceed {MAX_TIME_STEPS}",
                              field="dt")
        ds = spot / m
        top = (n_nodes - 1) * ds
        if not top * top < math.inf:  # the operator divides s**2 by ds**2
            raise ConfigError(f"spot={spot} puts the top grid node at {top:.6g}, whose "
                              "square overflows", field="spot")
        if not ds * ds >= sys.float_info.min:  # a subnormal ds**2 loses digits, 0 gives 0/0
            raise ConfigError(f"spot={spot} gives a grid spacing of {ds:.6g}, whose "
                              "square underflows", field="spot")

        def require_cell(length: float, what: str) -> None:
            """Raise unless `length` spans a grid cell, naming the node count that makes it."""
            if length >= ds:
                return
            try:  # the spot node floor(spot * (n - 1) / s_target) must reach spot / length
                count = math.ceil(math.ceil(spot / length) * s_target / spot) + 1
            except (OverflowError, ZeroDivisionError):
                count = math.inf
            need = f"resolving it takes about {count} nodes" if count <= MAX_NODES else \
                f"no grid within the {MAX_NODES}-node cap resolves it"
            raise GridTooCoarse(f"{what}; {need}", field="nodes")

        strike = max_strike if min_strike is None else min_strike
        require_cell(strike, f"strike {strike:.6g} lies inside the first grid cell [0, {ds:.6g})")
        # below one cell of diffusion the strike node keeps its cell average, far
        # from the option's value
        width = sigma * spot * math.sqrt(expiry)
        require_cell(width, f"sigma * spot * sqrt(expiry) = {width:.6g} at expiry {expiry:.6g} "
                            f"is less than one grid cell ({ds:.6g})")
        nodes = np.arange(n_nodes, dtype=float) * ds
        n_steps = max(1, int(math.ceil(steps - 1e-12)))
        return cls(s_nodes=nodes, dt=expiry / n_steps, n_steps=n_steps, spot_index=m)

    @classmethod
    def for_portfolio(cls, spot: float, portfolio: Portfolio, config: FundingConfig,
                      n_nodes: int = 2000, dt: float = 0.02) -> "PdeGrid":
        return cls.build(spot, portfolio.max_strike, config.sigma, portfolio.expiry,
                         n_nodes=n_nodes, dt=dt,
                         min_strike=min(leg.strike for leg in portfolio.legs))


@dataclass(frozen=True, eq=False)
class PricingResult:
    """Output of one solve.

    `value` is the signed position value U(S0, 0); `price` the positive
    quote |value|.  `funding_boundary` lists (t, S) points where the
    unsecured-funding indicator switches between the N > 0 and N = 0
    regions on each time slice.
    """

    value: float
    price: float
    delta: float
    gamma: float
    funding_boundary: tuple[tuple[float, float], ...]
    profile: np.ndarray
    upwinded_nodes: int = 0


def _region_tables(s: np.ndarray, grids: list["PdeGrid"], configs: list[FundingConfig]):
    """Linearized operator of each funding region, one row per region, for k
    members laid end to end on the K = k * n nodes `s`.

    Row 2 * ind + long holds the region with debt indicator `ind` and a long
    (1) or short (0) stock holding.  With the indicator frozen the funding
    term is linear: it adds ind * spread * h to the stock drift coefficient
    and ind * spread to the discount rate, so each region carries its own
    lognormal operator.  The member constants (sigma ** 2, ds ** 2, ...) are
    Python floats, one per member, broadcast over its nodes.

    Returns (lo, di, up, upwind, a_conv, drift, rho): the (4, K) sub-, main
    and super-diagonal after the cell-Peclet guard (0 on each member's two
    boundary rows), where the guard made convection one-sided, the
    convection coefficient a_conv = drift * s, and the (k, 4) stock drift
    and discount rates.
    """
    k, K = len(grids), s.size
    coef = np.empty((4, k, 1))
    rho = np.empty((k, 4))
    for j, config in enumerate(configs):
        for region in range(4):
            ind, long_stock = divmod(region, 2)
            sel = select_financing(1 if long_stock else -1, config)
            coef[region, j] = sel.r_s - config.q + float(ind) * config.spread * sel.h_signed
            rho[j, region] = config.r + float(ind) * config.spread

    def column(values) -> np.ndarray:
        return np.array(values, dtype=float)[:, None]

    # (4, k, n) tables, member j's nodes along the last axis
    s = s.reshape(k, -1)
    a_conv = coef * s
    a, s2 = a_conv[:, :, 1:-1], s[:, 1:-1] ** 2
    ds = column([g.ds for g in grids])
    diff = column([0.5 * c.sigma ** 2 for c in configs]) * s2 / column([g.ds ** 2 for g in grids])
    r = rho.T[:, :, None]
    conv = a / (2.0 * ds)
    lo, di, up = (np.zeros(a_conv.shape) for _ in range(3))
    inner = (slice(None), slice(None), slice(1, -1))
    lo[inner] = diff - conv
    di[inner] = -2.0 * diff - r
    up[inner] = diff + conv
    # cell-Peclet guard: one-sided convection where central would oscillate
    upwind = np.zeros(a_conv.shape, dtype=bool)
    pe = upwind[inner]
    np.greater(np.abs(a) * ds, column([c.sigma ** 2 for c in configs]) * s2, out=pe)
    if pe.any():
        pos, step = a > 0, a / ds
        np.copyto(lo[inner], diff - np.where(pos, 0.0, step), where=pe)
        np.copyto(di[inner], -2.0 * diff - r - np.abs(a) / ds, where=pe)
        np.copyto(up[inner], diff + np.where(pos, step, 0.0), where=pe)
    lo, di, up, upwind, a_conv = (table.reshape(4, K) for table in (lo, di, up, upwind, a_conv))
    return lo, di, up, upwind, a_conv, coef[:, :, 0].T, rho


def _cell_averaged_payoff(portfolio: Portfolio, grid: "PdeGrid") -> np.ndarray:
    """Terminal payoff on the grid, smoothed where each leg's kink lies.

    On the node whose cell [s - ds/2, s + ds/2] holds a leg's strike, the
    leg's value is its average over that cell; elsewhere the leg is linear
    over the cell and keeps its nodal value.  With the Rannacher start-up
    this restores second-order convergence at a kink that falls between
    nodes (Pooley, Vetzal & Forsyth, "Convergence remedies for non-smooth
    payoffs in option pricing", J. Comp. Finance 6(4), 2003).
    """
    s, ds = grid.s_nodes, grid.ds
    total = np.zeros_like(s)
    for leg in portfolio.legs:
        value = leg.intrinsic(s)
        i = int(round(leg.strike / ds))
        if 0 < i < s.size:
            # the part of the cell where the leg is in the money, and its average
            inside = s[i] + 0.5 * ds - leg.strike if leg.kind == "call" else \
                leg.strike - (s[i] - 0.5 * ds)
            value[i] = max(inside, 0.0) ** 2 / (2.0 * ds)
        total = total + leg.quantity * value
    return total


def _tridiag(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
             rhs: np.ndarray) -> np.ndarray:
    """Solve lower[i] x[i-1] + diag[i] x[i] + upper[i] x[i+1] = rhs[i] for x.

    lower[0] and upper[-1] lie outside the matrix and are ignored.  LAPACK
    gtsv is called directly; the inputs are not overwritten.  Blocks laid
    end to end with lower and upper 0 at their seams are solved exactly as
    each block alone: gtsv neither pivots nor eliminates across a zero.

    Raises:
        LinAlgError: the matrix is singular
        ValueError: the solution is not finite
    """
    x, info = dgtsv(lower[1:], diag, upper[:-1], rhs)[3:]
    if info != 0:
        raise LinAlgError("singular matrix")
    if not np.isfinite(x).all():
        raise ValueError("tridiagonal solve produced non-finite values")
    return x


class _Kept:
    """Gather indices of one iteration, kept for the next substep of the same rows
    if the iteration ends on them, with what such substeps reuse: the region
    coefficients `rhs` gathers (`coef`), the diagonals `system` builds for one
    step kind (`A`), and A's LU factors (`lu`, made on A's second solve)."""

    __slots__ = ("sel", "idx", "coef", "kind", "A", "lu")

    def __init__(self, sel: slice, idx: np.ndarray):
        self.sel, self.idx = sel, idx
        self.coef = self.kind = self.A = self.lu = None


def _solve_factored(kept: _Kept, rhs: np.ndarray) -> np.ndarray:
    """`_tridiag(*kept.A, rhs)` through A's LU factors, factored on first use.

    LAPACK gttrf and gttrs do gtsv's operations in gtsv's order, so x is bit
    for bit gtsv's.  A zero pivot or a non-finite solution re-solves through
    `_tridiag`, which raises its own error.
    """
    if kept.lu is None:
        lower, diag, upper = kept.A
        *lu, info = dgttrf(lower[1:], diag, upper[:-1])
        if info != 0:
            return _tridiag(*kept.A, rhs)
        kept.lu = lu
    x, info = dgttrs(*kept.lu, rhs)
    if info != 0 or not np.isfinite(x).all():
        return _tridiag(*kept.A, rhs)
    return x


def _residual(A_lo: np.ndarray, A_di: np.ndarray, A_up: np.ndarray,
              x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """A x - rhs for the tridiagonal A of `_tridiag`."""
    r = A_di * x - rhs
    r[1:] += A_lo[1:] * x[:-1]
    r[:-1] += A_up[:-1] * x[1:]
    return r


# (theta, fraction of dt) of each substep kind: an implicit-Euler half step
# of the Rannacher start-up, and a Crank-Nicolson step; the fractions are
# powers of two, so dt * fraction is exact
_KINDS = ((1.0, 0.5), (0.5, 1.0))


def _describe(index: int, job: Job) -> str:
    portfolio, side = job[0], job[1]
    legs = ", ".join(f"{leg.quantity:+g} {leg.kind} {leg.strike:g}" for leg in portfolio.legs)
    return f"job {index} ({side.value}: {legs}; {portfolio.style}, expiry {portfolio.expiry:g})"


class _Block:
    """Backward-induction state of k jobs laid end to end on one axis of K = k * n rows.

    Member j owns rows j*n .. j*n + n - 1.  Members are sorted by step
    count, longest first, so the members still stepping form a prefix; each
    keeps its own sign, region tables, tolerance, obstacle and exercise
    set.  Per-row arrays hold the members' values one after another; a
    region table is a flat (4 * K,) array whose entry region * K + row is
    that row's coefficient in that funding region, so one gather serves
    every member.
    """

    def __init__(self, jobs: list[tuple[int, Job]], labelled: bool):
        jobs = sorted(jobs, key=lambda ij: -ij[1][3].n_steps)
        self.index = [i for i, _ in jobs]
        self.jobs = [job for _, job in jobs]
        self.labelled = labelled
        grids = [job[3] for job in self.jobs]
        configs = [config.degenerate() if side is Side.RISK_FREE else config
                   for _, side, config, _ in self.jobs]
        k, n = len(jobs), grids[0].s_nodes.size
        self.k, self.n, self.K = k, n, k * n
        K = self.K
        self.rows = np.arange(K)
        starts = np.arange(k) * n
        ends = starts + (n - 1)
        # per member: its first, second, second-to-last and last row; its first and last row
        self.bpos = np.stack([starts, starts + 1, ends - 1, ends])
        self.ends = np.stack([starts, ends])

        self.n_steps = np.array([g.n_steps for g in grids])
        self.dt = [g.dt for g in grids]
        self.expiry = [job[0].expiry for job in self.jobs]
        self.ds = np.array([g.ds for g in grids])
        self.tol = np.array([1e-10 * job[0].max_strike for job in self.jobs])
        self.spread = [config.spread for config in configs]
        self.s = np.concatenate([g.s_nodes for g in grids])
        self.s_top = [float(g.s_nodes[-1]) for g in grids]
        self.two_ds = np.repeat(2.0 * self.ds, n)
        sign = [job[1].position_sign for job in self.jobs]
        self.u = np.concatenate([sg * _cell_averaged_payoff(job[0], g)
                                 for sg, job, g in zip(sign, self.jobs, grids)])
        # signed haircut of a long and of a short stock holding, and h * S per row
        self.haircut = np.array([[select_financing(1, c).h_signed,
                                  select_financing(-1, c).h_signed] for c in configs])
        self.hs_long = np.repeat(self.haircut[:, 0], n) * self.s
        self.hs_short = np.repeat(self.haircut[:, 1], n) * self.s

        self.american = [job[0].style == "american" for job in self.jobs]
        self.ex = np.zeros(K, dtype=bool)
        self.obstacle = self.sign_row = self.exercisable = None
        if any(self.american):
            # exercise floor (long) or cap (short) of each American book: the raw payoff
            self.obstacle = np.concatenate([sg * terminal_payoff(job[0], g.s_nodes)
                                            for sg, job, g in zip(sign, self.jobs, grids)])
            self.sign_row = np.repeat([float(sg) for sg in sign], n)
            if not all(self.american):
                self.exercisable = np.repeat(self.american, n)

        lo, di, up, upwind, a_conv, drift, rho = _region_tables(self.s, grids, configs)
        self.raw = (lo.ravel(), di.ravel(), up.ravel())
        self.upwind = upwind.astype(np.int8).ravel() if upwind.any() else None
        self.upwinded = np.zeros(k, dtype=np.intp)

        # half-node coefficients of each member's two boundary rows in each funding
        # region, which `pattern` gives the boundary node: region tables that are 0
        # but at those rows, so `idx` reads them as it reads every row's
        first, last = self.ends
        half_a, half_rho = np.zeros((4, K)), np.zeros((4, K))
        half_a[:, first] = 0.5 * (a_conv[:, first] + a_conv[:, first + 1])
        half_a[:, last] = 0.5 * (a_conv[:, last - 1] + a_conv[:, last])
        half_rho[:, first] = half_rho[:, last] = rho.T
        self.half_a, self.half_rho = half_a.ravel(), half_rho.ravel()

        # per substep kind: dts; `system` builds the implicit system of each
        # region for one kind at a time
        self.dts = [np.array(self.dt) * fraction for _, fraction in _KINDS]
        self.two_dts = [2.0 * dts for dts in self.dts]
        self.lhs_kind, self.lhs = None, None
        # the `_Kept` of a substep that ended on the region codes it gathered
        # with, for the next substep of the same members
        self.kept: _Kept | None = None

        self.region, self.arg = self.pattern(self.u, slice(0, K), slice(0, k), k)
        self.boundary: list[list[tuple[float, float]]] = [[] for _ in range(k)]
        self.step = 0
        # a member whose value grows past float range over its life (a stock drift
        # of either sign, or a negative discount rate) fails before its first step
        rate = np.maximum(np.abs(drift), -rho).max(axis=1)
        for j in np.flatnonzero(rate * np.array(self.expiry) > _LOG_MAX):
            self.fail(int(j), ConfigError, f"a stock drift or negative discount rate of "
                      f"{rate[j]:.6g} over {self.expiry[j]:g} years takes exp(rate * expiry) "
                      "out of floating-point range")

    # -- assembly ------------------------------------------------------------

    def indices(self, region: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Index of each row into the region tables."""
        idx = region * self.K
        idx += rows
        return idx

    def gather(self, idx: np.ndarray) -> tuple[np.ndarray, ...]:
        """Region coefficients of each row, and (2, ka) half-node ones of each
        member's two boundary rows."""
        ends = idx.take(self.ends[:, :idx.size // self.n])
        return (*(table.take(idx) for table in self.raw),
                self.half_a.take(ends), self.half_rho.take(ends))

    def rhs(self, u: np.ndarray, coef: tuple[np.ndarray, ...], sel, msel,
            kind: int) -> np.ndarray:
        """[I/dts + (1-theta) L] u, each member's L gathered from its level's own pattern."""
        w = 1.0 - _KINDS[kind][0]
        lo, di, up, half_a, half_rho = coef
        lu = lo[1:-1] * u[:-2]
        lu += di[1:-1] * u[1:-1]
        lu += up[1:-1] * u[2:]
        lu *= w
        out = np.empty_like(u)
        np.divide(u[1:-1], np.repeat(self.dts[kind][msel], self.n)[1:-1], out=out[1:-1])
        out[1:-1] += lu
        # boundary rows: the convection-reaction equation at the half node
        ub = u.take(self.bpos[:, :half_a.shape[1]])
        near, far = ub[0::2], ub[1::2]
        total = near + far
        flow = half_a * (far - near) / self.ds[msel]
        flow -= half_rho * total / 2.0
        flow *= w
        out[self.ends[:, :half_a.shape[1]]] = total / self.two_dts[kind][msel] + flow
        return out

    def system(self, idx: np.ndarray, kind: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Diagonals of [I/dts - theta L] with each member's boundary rows.

        The zero-gamma rows drop the second derivative and collocate the
        remaining convection-reaction equation at the half node between the
        boundary node and its neighbor; values and time derivatives there are
        averages of the two flanking nodes and the first derivative is the
        one-sided difference across them, so each row couples two unknowns.
        """
        if self.lhs_kind != kind:
            # [I/dts - theta L] of each region, boundary rows included; the start-up
            # kind's tables are dropped once the Crank-Nicolson steps begin
            theta, (lo, di, up) = _KINDS[kind][0], self.raw
            self.lhs = None
            inv_dts = np.repeat(1.0 / self.dts[kind], self.n)
            self.lhs = (-theta * lo, (inv_dts - theta * di.reshape(4, -1)).ravel(), -theta * up)
            self.lhs_kind = kind
            # each region's boundary rows, the half-node equation at (2, k) ends
            (first, last), c0 = self.ends, 1.0 / (2.0 * self.dts[kind])
            ta = theta * self.half_a.reshape(4, -1)[:, self.ends] / self.ds
            tr = theta * self.half_rho.reshape(4, -1)[:, self.ends] / 2.0
            plus, minus = c0 + ta + tr, c0 - ta + tr
            A_lo, A_di, A_up = (table.reshape(4, -1) for table in self.lhs)
            A_di[:, first], A_up[:, first] = plus[:, 0], minus[:, 0]
            A_lo[:, last], A_di[:, last] = plus[:, 1], minus[:, 1]
        return tuple(table.take(idx) for table in self.lhs)

    def pattern(self, x: np.ndarray, sel, msel, ka: int) -> tuple[np.ndarray, np.ndarray]:
        """(region, arg) of iterate x: per node 2 * debt + (stock holding >= 0) and
        the debt basis arg = U - h * S * dU/dS.  A node is in debt where arg > 0, but
        a boundary node takes the region of the half node where its row's equation
        lies: the holding of its edge slope, the half node's slope, and debt where
        arg summed over the two nodes flanking the half node is > 0."""
        slope = np.empty_like(x)
        inner = slope[1:-1]
        np.subtract(x[2:], x[:-2], out=inner)
        inner /= self.two_ds[sel][1:-1]
        xb = x.take(self.bpos[:, :ka])
        edge = xb[1::2] - xb[0::2]
        edge /= self.ds[msel]
        slope[self.ends[:, :ka]] = edge
        long_stock = slope <= 0.0
        hs = np.where(long_stock, self.hs_long[sel], self.hs_short[sel])
        hs *= slope
        arg = x - hs
        debt = arg > 0.0
        ab = arg.take(self.bpos[:, :ka])
        debt[self.ends[:, :ka]] = ab[0::2] + ab[1::2] > 0.0
        region = 2 * debt
        region += long_stock
        return region, arg

    def count_upwind(self, idx: np.ndarray, msel, ka: int) -> None:
        counts = np.add.reduceat(self.upwind.take(idx), self.ends[0, :ka], dtype=np.intp)
        self.upwinded[msel] = np.maximum(self.upwinded[msel], counts)

    # -- bookkeeping ---------------------------------------------------------

    def time(self, j: int) -> float:
        """Time of member j's slice at the end of the current step."""
        return self.expiry[j] - (self.step + 1) * self.dt[j]

    def where(self, j: int) -> str:
        return f"at step {self.step} (t={self.time(j):.6g})"

    def fail(self, j: int, error: type[Exception], message: str) -> NoReturn:
        """Raise member j's error, labelled with its job if the block is."""
        label = _describe(self.index[j], self.jobs[j]) + ": " if self.labelled else ""
        raise error(label + message)

    def converged(self, j: int, rows: slice, change: float, region: np.ndarray,
                  arg: np.ndarray, old_region: np.ndarray, old_arg: np.ndarray) -> bool:
        """Member j's iterate has settled: a change below the tolerance, and either
        the same indicator and haircuts or a funding term that moved less than it."""
        if change >= self.tol[j]:
            return False
        new, old = region[rows], old_region[rows]
        h = self.haircut[j]
        if (np.array_equal(new >= 2, old >= 2)
                and np.array_equal(h.take(1 - new % 2), h.take(1 - old % 2))):
            return True
        gap = np.maximum(arg[rows], 0.0) - np.maximum(old_arg[rows], 0.0)
        return self.spread[j] * float(np.max(np.abs(gap))) < self.tol[j]

    def no_convergence(self, j: int, rows: slice, change: float, region: np.ndarray,
                       old_region: np.ndarray, ex: np.ndarray, old_ex: np.ndarray) -> str:
        """Budget-exhausted message naming the step, the last change and the flips."""
        flips = int(np.count_nonzero((region[rows] >= 2) != (old_region[rows] >= 2)))
        exercise = "" if not self.american[j] else \
            f", {int(np.count_nonzero(ex[rows] != old_ex[rows]))} exercise-set changes"
        return (f"funding-boundary iteration exceeded {FUNDING_MAX_ITERS} "
                f"iterations {self.where(j)}: last change {change:.3g} against "
                f"tolerance {self.tol[j]:.3g}, {flips} indicator flips in the last "
                f"iterate{exercise}")

    def store(self, sel, x, region, arg, ex) -> None:
        if isinstance(sel, slice) and sel.stop == self.K:
            self.u, self.region, self.arg, self.ex = x, region, arg, ex
        else:
            self.u[sel], self.region[sel], self.arg[sel], self.ex[sel] = x, region, arg, ex

    def record_boundary(self, ka: int) -> None:
        """Store the indicator switch points of each funded member among the first
        `ka`, from its converged slice."""
        n = self.n
        sel = slice(0, ka * n)
        debt = self.region[sel] >= 2
        flips = debt[1:] != debt[:-1]
        flips[n - 1::n] = False  # seams between members
        arg, s = self.arg[sel], self.s[sel]
        for i in np.flatnonzero(flips):
            j = i // n
            if self.spread[j] > 0.0 and \
                    max(abs(arg[i]), abs(arg[i + 1])) > 1e-9 * self.s_top[j]:
                self.boundary[j].append((self.time(j), float(0.5 * (s[i] + s[i + 1]))))

    # -- stepping ------------------------------------------------------------

    def run(self, keep_slices: bool = False) -> list[np.ndarray] | None:
        """Backward induction of every member; the first member to fail raises."""
        slices = [self.u.copy()] if keep_slices else None
        funded = any(spread > 0.0 for spread in self.spread)
        act = np.arange(self.k)
        for step in range(int(self.n_steps[0])):
            self.step = step
            # members are sorted longest first, so those still stepping are a prefix
            act = act[self.n_steps[act] > step]
            for kind in ((0, 0) if step < RANNACHER_STEPS else (1,)):
                _substep(self, act, kind)
            if funded:
                self.record_boundary(act.size)
            if keep_slices:
                slices.append(self.u.copy())
        return slices

    def results(self) -> list[tuple[int, PricingResult]]:
        out = []
        for j, (index, job) in enumerate(zip(self.index, self.jobs)):
            m, n, ds = job[3].spot_index, self.n, job[3].ds
            u = self.u[j * n:(j + 1) * n]
            value = float(u[m])
            out.append((index, PricingResult(
                value=value,
                price=abs(value),
                delta=float((u[m + 1] - u[m - 1]) / (2.0 * ds)),
                gamma=float((u[m + 1] - 2.0 * u[m] + u[m - 1]) / ds ** 2),
                funding_boundary=tuple(self.boundary[j]),
                profile=u.copy(),
                upwinded_nodes=int(self.upwinded[j]))))
        return out


def _substep(b: _Block, act: np.ndarray, kind: int) -> None:
    """One theta-step of the members `act`, a prefix of the block: tridiagonal
    solves iterated to a fixed funding pattern.

    An American book also freezes its exercise set, whose rows read
    x = obstacle; the next set is where sign * (x - obstacle) <=
    sign * (A x - rhs) (Howard's rule).  Once an iterate's region codes and
    exercise set equal those it was solved with, the next iteration would
    repeat it bit for bit, so it is counted in the budget but not run.  Each
    iteration solves the unfinished members as one block system; a member is
    frozen once accepted.
    """
    n, budget = b.n, FUNDING_MAX_ITERS
    obstacle = b.obstacle
    ka = act.size
    msel, sel = slice(0, ka), slice(0, ka * n)
    u_prev, region, arg, ex = b.u[sel], b.region[sel], b.arg[sel], b.ex[sel]
    rows = b.rows[sel]
    # the indices the last substep gathered with still hold if it ended on them,
    # and so do its coefficients, its system of the same kind and that system's factors
    kept, b.kept = b.kept, None
    if kept is None or kept.sel != sel:
        kept = _Kept(sel, b.indices(region, rows))
    idx = kept.idx
    if kept.coef is None:
        kept.coef = b.gather(idx)
    rhs = b.rhs(u_prev, kept.coef, sel, msel, kind)
    it = 0
    while True:
        reuse = kept is not None and kept.kind == kind
        if reuse:
            A = kept.A  # its upwinded nodes are counted
        else:
            if b.upwind is not None:
                b.count_upwind(idx, msel, ka)
            A = b.system(idx, kind)
            if kept is not None:
                kept.kind, kept.A, kept.lu = kind, A, None
        if obstacle is None:
            system = (*A, rhs)
        else:
            system = (np.where(ex, 0.0, A[0]), np.where(ex, 1.0, A[1]),
                      np.where(ex, 0.0, A[2]), np.where(ex, obstacle[sel], rhs))
        try:
            # an exercise set changes the system, so American books are not factored
            x = _solve_factored(kept, rhs) if reuse and obstacle is None else _tridiag(*system)
        except ValueError as exc:
            # named after the first member: in a batch, solve_many finds the one at
            # fault by solving each job alone
            what = "is singular" if isinstance(exc, LinAlgError) else "has a non-finite solution"
            m = int(act[0])
            b.fail(m, ConfigError, f"the tridiagonal system {what} {b.where(m)}")
        new_ex = ex
        if obstacle is not None:
            sign = b.sign_row[sel]
            new_ex = sign * (x - obstacle[sel]) <= sign * _residual(*A, x, rhs)
            if b.exercisable is not None:
                new_ex &= b.exercisable[sel]
        new_region, new_arg = b.pattern(x, sel, msel, ka)
        if it + 1 < budget and not (new_region != region).any() and (
                obstacle is None or not (new_ex != ex).any()):
            b.store(sel, x, new_region, new_arg, new_ex)
            b.kept = kept
            return
        # member by member: the repeat rule, else the convergence test
        first = b.ends[0, :ka]
        change = np.maximum.reduceat(np.abs(x - u_prev), first)
        if it + 1 < budget:
            accept = ~np.logical_or.reduceat(new_region != region, first)
            if obstacle is not None:
                accept &= ~np.logical_or.reduceat(new_ex != ex, first)
        else:
            accept = np.zeros(ka, dtype=bool)
        for j in np.flatnonzero(~accept & (change < b.tol[msel])):
            accept[j] = b.converged(int(act[j]), slice(j * n, (j + 1) * n), change[j],
                                    new_region, new_arg, region, arg)
        if accept.all():
            b.store(sel, x, new_region, new_arg, new_ex)
            return
        if accept.any():
            done = np.repeat(accept, n)
            b.store(rows[done], x[done], new_region[done], new_arg[done], new_ex[done])
        keep = ~accept
        it += 1
        if it == budget:
            j = int(np.flatnonzero(keep)[0])
            m = int(act[j])
            b.fail(m, NoConvergence, b.no_convergence(
                m, slice(j * n, (j + 1) * n), change[j], new_region, region, new_ex, ex))
        u_prev, region, arg, ex = x, new_region, new_arg, new_ex
        if not keep.all():
            # carry only the unfinished members into the next iteration
            live = np.repeat(keep, n)
            act, rows = act[keep], rows[live]
            msel, sel, ka = act, rows, act.size
            u_prev, region, arg, ex, rhs = (a[live] for a in (u_prev, region, arg, ex, rhs))
        idx = b.indices(region, rows)
        kept = _Kept(sel, idx) if isinstance(sel, slice) else None


def _blocks(jobs: Iterable[Job]):
    """Consecutive blocks of `jobs` (with their indices), each at most MAX_BLOCK_ROWS rows.

    An error raised by the `jobs` iterable itself is yielded in place of
    the next block, after the jobs before it.
    """
    block: list[tuple[int, Job]] = []
    n_nodes = None
    jobs = iter(jobs)
    for index in itertools.count():
        try:
            job = next(jobs)
        except StopIteration:
            break
        except Exception as exc:
            if block:
                yield block
            yield exc
            return
        nodes = job[3].s_nodes.size
        if n_nodes is None:
            n_nodes = nodes
        elif nodes != n_nodes:
            raise ConfigError(f"a batch needs one node count: job {index} has {nodes} "
                              f"nodes, job 0 has {n_nodes}")
        if block and (len(block) + 1) * nodes > MAX_BLOCK_ROWS:
            yield block
            block = []
        block.append((index, job))
    if block:
        yield block


def solve_many(jobs: Iterable[Job]) -> list[PricingResult]:
    """Price every (portfolio, side, config, grid) job through one backward-induction loop.

    Each result equals the job's stand-alone solve bit for bit; European and
    American books mix freely.  Every grid must have the same node count;
    spacing, dt and step count may differ.  Failures surface as if the jobs
    were solved one at a time in order: a batch stops at its first failure
    and then re-solves its jobs alone, in submission order, so the error
    raised is that of the first failing job; an error raised by the `jobs`
    iterable itself comes after the jobs before it.  With more than one job
    the error message names its job.

    Raises:
        ConfigError: grids with different node counts, or a job whose
            system turns singular or non-finite (the message says where)
        NoConvergence: a job's funding iteration budget is exhausted
    """
    results: list[PricingResult] = []
    for block in _blocks(jobs):
        if isinstance(block, Exception):
            raise block
        labelled = len(block) > 1 or block[0][0] > 0
        try:
            b = _Block(block, labelled)
            b.run()
        except (ConfigError, NoConvergence) as exc:
            if len(block) == 1:
                raise
            error = exc
        else:
            results.extend(res for _, res in sorted(b.results(), key=lambda ir: ir[0]))
            continue
        # the block stopped at the failure it met first, which need not be the first
        # submitted job's; a job fails in a batch exactly when it fails alone
        for job in block:
            _Block([job], labelled).run()
        raise error
    return results


def solve(portfolio: Portfolio, side: Side, config: FundingConfig,
          grid: PdeGrid) -> PricingResult:
    """Price a European book on one side of the market.

    Backward induction from U(S, T) = sign * payoff (cell-averaged at each
    strike's node), where sign is +1 for BID (long book) and -1 for ASK.
    Greeks come from central differences at the spot node.

    Raises:
        ConfigError: invalid inputs or American legs (use solve_american)
        NoConvergence: funding iteration budget exhausted
    """
    if portfolio.style != "european":
        raise ConfigError("solve() handles European books; use solve_american()")
    return solve_many([(portfolio, side, config, grid)])[0]


def solve_american(portfolio: Portfolio, side: Side, config: FundingConfig,
                   grid: PdeGrid) -> PricingResult:
    """Price an American book on one side of the market.

    The holder exercises optimally on either side: a long book satisfies
    U >= payoff, a short book -U >= payoff (the short is marked against the
    holder's optimal policy).

    Raises:
        ConfigError: invalid inputs or European legs (use solve)
        NoConvergence: funding and exercise iteration budget exhausted
    """
    if portfolio.style != "american":
        raise ConfigError("solve_american() handles American books; use solve()")
    return solve_many([(portfolio, side, config, grid)])[0]


def solve_surface(portfolio: Portfolio, side: Side, config: FundingConfig,
                  grid: PdeGrid) -> tuple[np.ndarray, np.ndarray]:
    """Solve a European book keeping every time slice.

    Returns (times_to_expiry, profiles): profiles[k] is the signed position
    value on the grid with k * dt of life remaining, so profiles[0] is the
    terminal payoff, averaged over the cell of each strike's node (see
    `_cell_averaged_payoff`).  Used by the hedge simulator as a pricing oracle.
    """
    if portfolio.style != "european":
        raise ConfigError("solve_surface() handles European books only")
    b = _Block([(0, (portfolio, side, config, grid))], labelled=False)
    profiles = b.run(keep_slices=True)
    taus = np.arange(grid.n_steps + 1) * grid.dt
    return taus, np.asarray(profiles)
