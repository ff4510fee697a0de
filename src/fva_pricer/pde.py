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
  operator diagonals of all four are built once per solve and every inner
  iteration gathers its operator from them by region code,
* a direct call of LAPACK gtsv for each tridiagonal solve, the routine
  ``solve_banded((1, 1), ...)`` wraps, without the wrapper's per-call
  validation and band-matrix copy,
* zero-gamma boundary conditions imposed by writing the convection-reaction
  equation at the half node nearest each boundary, which keeps the system
  tridiagonal,
* projected SOR for American exercise inside each funding iteration,
* implicit-Euler startup steps to damp the payoff kink before the
  trapezoidal stepping takes over (disable with rannacher_steps=0).

A solve owns its workspace and shares nothing mutable; concurrent solves on
different threads are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import LinAlgError, solve_banded
from scipy.linalg.lapack import dgtsv

from .errors import ConfigError, GridTooCoarse, NoConvergence, PsorDiverged
from .funding import financing_arrays, select_financing
from .market import FundingConfig, Portfolio, Side, terminal_payoff

_BOUNDARY_BLOCK = 8


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
              n_nodes: int = 2000, dt: float = 0.02) -> "PdeGrid":
        """Build a grid covering [0, s_max] with the spot snapped to a node.

        s_max is at least max(4 * max_strike, spot * exp(4 * sigma * sqrt(T)))
        so the zero-gamma boundary sits far outside the payoff's curvature.
        """
        for name, value in (("spot", spot), ("expiry", expiry), ("dt", dt)):
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name}={value} must be finite and > 0", field=name)
        if not (max_strike > 0 and sigma > 0):
            raise ConfigError("max_strike and sigma must be > 0")
        if n_nodes < 16:
            raise GridTooCoarse(f"n_nodes={n_nodes} is too small")
        s_target = max(4.0 * max_strike, spot * math.exp(4.0 * sigma * math.sqrt(expiry)))
        m = int(math.floor(spot * (n_nodes - 1) / s_target))
        if m < 2:
            raise GridTooCoarse(
                f"{n_nodes} nodes cannot place spot {spot} on an interior node "
                f"of [0, {s_target:.6g}]")
        ds = spot / m
        nodes = np.arange(n_nodes, dtype=float) * ds
        n_steps = max(1, int(math.ceil(expiry / dt - 1e-12)))
        return cls(s_nodes=nodes, dt=expiry / n_steps, n_steps=n_steps, spot_index=m)

    @classmethod
    def for_portfolio(cls, spot: float, portfolio: Portfolio, config: FundingConfig,
                      n_nodes: int = 2000, dt: float = 0.02) -> "PdeGrid":
        return cls.build(spot, portfolio.max_strike, config.sigma,
                         portfolio.expiry, n_nodes=n_nodes, dt=dt)


@dataclass(frozen=True)
class SolverParams:
    """Iteration tolerances of the funding and exercise solvers.

    funding_iter_tol defaults to 1e-10 * max_strike when left unset.
    rannacher_steps counts initial steps run as two implicit half-steps
    each; 2 is enough to keep the strike-node gamma clean.
    """

    funding_iter_tol: float | None = None
    funding_max_iters: int = 50
    psor_omega: float = 1.2
    psor_tol: float = 1e-8
    psor_max_iters: int = 2000
    rannacher_steps: int = 2

    def __post_init__(self) -> None:
        if self.funding_iter_tol is not None and not self.funding_iter_tol > 0:
            raise ConfigError("funding_iter_tol must be > 0")
        if self.funding_max_iters < 1:
            raise ConfigError("funding_max_iters must be >= 1")
        if not 0 < self.psor_omega < 2:
            raise ConfigError(f"psor_omega={self.psor_omega} must lie in (0, 2)")


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


class _Pattern(NamedTuple):
    """Per-node funding localization of one iterate."""

    h: np.ndarray       # signed haircut keyed off the holding sign
    ind: np.ndarray     # 1.0 where the unsecured debt balance is positive
    arg: np.ndarray     # debt basis U - h * S * dU/dS
    region: np.ndarray  # 2 * ind + (stock holding >= 0): row of the region tables


def _slope(u: np.ndarray, ds: float) -> np.ndarray:
    out = np.empty_like(u)
    out[1:-1] = (u[2:] - u[:-2]) / (2.0 * ds)
    out[0] = (u[1] - u[0]) / ds
    out[-1] = (u[-1] - u[-2]) / ds
    return out


def _pattern(u: np.ndarray, s: np.ndarray, ds: float, config: FundingConfig) -> _Pattern:
    slope = _slope(u, ds)
    h, _ = financing_arrays(-slope, config)
    arg = u - h * s * slope
    debt = arg > 0.0
    return _Pattern(h=h, ind=debt.astype(float), arg=arg,
                    region=2 * debt + (slope <= 0.0))


class _Operator(NamedTuple):
    """Tridiagonal spatial operator L plus its half-node boundary rows."""

    lo: np.ndarray
    di: np.ndarray
    up: np.ndarray
    a_lo_half: float
    rho_lo_half: float
    a_hi_half: float
    rho_hi_half: float
    upwinded: int


class _RegionTables(NamedTuple):
    """Operator of each of the four funding regions, one row per region.

    Row 2 * ind + long holds the region with debt indicator `ind` and a long
    (1) or short (0) stock holding; `operator` gathers a node's coefficients
    from the row of its region.
    """

    lo: np.ndarray      # (4, n) sub-diagonal after the cell-Peclet guard
    di: np.ndarray      # (4, n) diagonal
    up: np.ndarray      # (4, n) super-diagonal
    upwind: np.ndarray  # (4, n) True where the guard made convection one-sided
    a_conv: np.ndarray  # (4, n) convection coefficient, for the half-node rows
    rho: np.ndarray     # (4,) discount rate, for the half-node rows
    cols: np.ndarray    # arange(n)

    def operator(self, region: np.ndarray) -> "_Operator":
        """The operator whose node j takes column j of row region[j] of each table."""
        cols, a, rho = self.cols, self.a_conv, self.rho
        flat = region * cols.size + cols
        return _Operator(
            lo=self.lo.take(flat), di=self.di.take(flat), up=self.up.take(flat),
            a_lo_half=0.5 * (a[region[0], 0] + a[region[1], 1]),
            rho_lo_half=0.5 * (rho[region[0]] + rho[region[1]]),
            a_hi_half=0.5 * (a[region[-2], -2] + a[region[-1], -1]),
            rho_hi_half=0.5 * (rho[region[-2]] + rho[region[-1]]),
            upwinded=int(np.count_nonzero(self.upwind.take(flat))))


def _region_tables(s: np.ndarray, ds: float, config: FundingConfig) -> _RegionTables:
    """Linearized operator of each funding region.

    With the indicator frozen the funding term is linear: it adds
    ind * spread * h to the stock drift coefficient and ind * spread to the
    discount rate, so each region carries its own lognormal operator.
    """
    spread = config.spread
    n = s.size
    lo = np.zeros((4, n))
    di = np.zeros((4, n))
    up = np.zeros((4, n))
    upwind = np.zeros((4, n), dtype=bool)
    a_conv = np.empty((4, n))
    rho = np.empty(4)
    i = np.arange(1, n - 1)
    diff = 0.5 * config.sigma ** 2 * s[i] ** 2 / ds ** 2
    for region in range(4):
        ind, long_stock = divmod(region, 2)
        sel = select_financing(1 if long_stock else -1, config)
        a = a_conv[region] = (sel.r_s - config.q + float(ind) * spread * sel.h_signed) * s
        r = rho[region] = config.r + float(ind) * spread
        conv = a[i] / (2.0 * ds)
        lo[region, i] = diff - conv
        di[region, i] = -2.0 * diff - r
        up[region, i] = diff + conv
        # cell-Peclet guard: one-sided convection where central would oscillate
        pe = np.abs(a[i]) * ds > config.sigma ** 2 * s[i] ** 2
        if pe.any():
            ii = i[pe]
            pos = a[ii] > 0
            lo[region, ii] = diff[pe] - np.where(pos, 0.0, a[ii] / ds)
            di[region, ii] = -2.0 * diff[pe] - r - np.abs(a[ii]) / ds
            up[region, ii] = diff[pe] + np.where(pos, a[ii] / ds, 0.0)
            upwind[region, ii] = True
    return _RegionTables(lo=lo, di=di, up=up, upwind=upwind, a_conv=a_conv, rho=rho,
                         cols=np.arange(n))


def apply_boundary(A_lo: np.ndarray, A_di: np.ndarray, A_up: np.ndarray,
                   op: _Operator, ds: float, dts: float, theta: float) -> None:
    """Write the zero-gamma boundary rows of the implicit system in place.

    The second derivative is dropped and the remaining convection-reaction
    equation is collocated at the half node between the boundary node and
    its neighbor; values and time derivatives at the half node are averages
    of the two flanking nodes and the first derivative is the one-sided
    difference across them.  Each resulting row couples exactly two
    unknowns, so the system stays tridiagonal.
    """
    n = A_di.size
    A_di[0] = 1.0 / (2.0 * dts) + theta * op.a_lo_half / ds + theta * op.rho_lo_half / 2.0
    A_up[0] = 1.0 / (2.0 * dts) - theta * op.a_lo_half / ds + theta * op.rho_lo_half / 2.0
    A_lo[n - 1] = 1.0 / (2.0 * dts) + theta * op.a_hi_half / ds + theta * op.rho_hi_half / 2.0
    A_di[n - 1] = 1.0 / (2.0 * dts) - theta * op.a_hi_half / ds + theta * op.rho_hi_half / 2.0


def _boundary_rhs(u: np.ndarray, op: _Operator, ds: float, dts: float,
                  theta: float) -> tuple[float, float]:
    w = 1.0 - theta
    lo_rhs = (u[0] + u[1]) / (2.0 * dts) + w * (
        op.a_lo_half * (u[1] - u[0]) / ds - op.rho_lo_half * (u[0] + u[1]) / 2.0)
    hi_rhs = (u[-2] + u[-1]) / (2.0 * dts) + w * (
        op.a_hi_half * (u[-1] - u[-2]) / ds - op.rho_hi_half * (u[-2] + u[-1]) / 2.0)
    return lo_rhs, hi_rhs


def _implicit_system(op: _Operator, ds: float, dts: float,
                     theta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """LHS diagonals of [I/dts - theta L] with boundary rows applied."""
    n = op.di.size
    A_lo = -theta * op.lo
    A_di = 1.0 / dts - theta * op.di
    A_up = -theta * op.up
    apply_boundary(A_lo, A_di, A_up, op, ds, dts, theta)
    return A_lo, A_di, A_up


def _rhs_vector(u: np.ndarray, op: _Operator, ds: float, dts: float,
                theta: float) -> np.ndarray:
    """[I/dts + (1-theta) L] u, evaluated with the old level's own pattern."""
    w = 1.0 - theta
    rhs = np.empty_like(u)
    rhs[1:-1] = u[1:-1] / dts + w * (
        op.lo[1:-1] * u[:-2] + op.di[1:-1] * u[1:-1] + op.up[1:-1] * u[2:])
    rhs[0], rhs[-1] = _boundary_rhs(u, op, ds, dts, theta)
    return rhs


def _tridiag(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
            rhs: np.ndarray) -> np.ndarray:
    """Solve lower[i] x[i-1] + diag[i] x[i] + upper[i] x[i+1] = rhs[i] for x.

    lower[0] and upper[-1] lie outside the matrix and are ignored.  LAPACK
    gtsv is called directly; the inputs are not overwritten.

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


class _Stepper:
    """Backward-induction state shared by the European and American paths."""

    def __init__(self, portfolio: Portfolio, side: Side, config: FundingConfig,
                 grid: PdeGrid, params: SolverParams):
        if side is Side.RISK_FREE:
            config = config.degenerate()
        self.sign = side.position_sign
        self.config = config
        self.grid = grid
        self.params = params
        self.s = grid.s_nodes
        self.ds = grid.ds
        self.u = self.sign * np.asarray(terminal_payoff(portfolio, self.s), dtype=float)
        # exercise floor (long) or cap (short) of an American book
        self.obstacle = self.u.copy() if portfolio.style == "american" else None
        self.tol = params.funding_iter_tol or 1e-10 * portfolio.max_strike
        self.tables = _region_tables(self.s, self.ds, config)
        self.pat = _pattern(self.u, self.s, self.ds, config)
        self.expiry = portfolio.expiry
        self.boundary: list[tuple[float, float]] = []
        self.upwinded = 0
        self.step = 0

    def _term_gap(self, a: _Pattern, b: _Pattern) -> float:
        gap = np.maximum(a.arg, 0.0) - np.maximum(b.arg, 0.0)
        return self.config.spread * float(np.max(np.abs(gap)))

    def _converged(self, change: float, new: _Pattern, old: _Pattern) -> bool:
        if change >= self.tol:
            return False
        stable = np.array_equal(new.ind, old.ind) and np.array_equal(new.h, old.h)
        return stable or self._term_gap(new, old) < self.tol

    def _where(self) -> str:
        t = self.expiry - (self.step + 1) * self.grid.dt
        return f"at step {self.step} (t={t:.6g})"

    def no_convergence(self, change: float, new: _Pattern, old: _Pattern) -> NoConvergence:
        """Budget-exhausted error naming the step, the last change and the flips."""
        flips = int(np.count_nonzero(new.ind != old.ind))
        return NoConvergence(
            f"funding-boundary iteration exceeded {self.params.funding_max_iters} "
            f"iterations {self._where()}: last change {change:.3g} against "
            f"tolerance {self.tol:.3g}, {flips} indicator flips in the last iterate")

    def psor_diverged(self, change: float) -> PsorDiverged:
        """Sweep-budget error naming the step and the last sweep's change."""
        return PsorDiverged(
            f"projected SOR exceeded {self.params.psor_max_iters} sweeps "
            f"{self._where()}: last change {change:.3g} against tolerance "
            f"{self.params.psor_tol:.3g}")

    def schedule(self, step: int) -> list[tuple[float, float]]:
        """(dt, theta) substeps for one top-level step."""
        if step < self.params.rannacher_steps:
            half = self.grid.dt / 2.0
            return [(half, 1.0), (half, 1.0)]
        return [(self.grid.dt, 0.5)]

    def record_boundary(self, step: int) -> None:
        """Store indicator switch points of the converged slice."""
        if self.config.spread <= 0.0:
            return
        t = self.expiry - (step + 1) * self.grid.dt
        ind, arg = self.pat.ind, self.pat.arg
        flips = np.nonzero(ind[1:] != ind[:-1])[0]
        for i in flips:
            if max(abs(arg[i]), abs(arg[i + 1])) > 1e-9 * float(self.s[-1]):
                self.boundary.append((t, float(0.5 * (self.s[i] + self.s[i + 1]))))

    def result(self) -> PricingResult:
        m = self.grid.spot_index
        u, ds = self.u, self.ds
        value = float(u[m])
        return PricingResult(
            value=value,
            price=abs(value),
            delta=float((u[m + 1] - u[m - 1]) / (2.0 * ds)),
            gamma=float((u[m + 1] - 2.0 * u[m] + u[m - 1]) / ds ** 2),
            funding_boundary=tuple(self.boundary),
            profile=u.copy(),
            upwinded_nodes=self.upwinded)


def _psor(x: np.ndarray, A_lo: np.ndarray, A_di: np.ndarray, A_up: np.ndarray,
          rhs: np.ndarray, obstacle: np.ndarray, sign: int,
          params: SolverParams) -> float:
    """Projected SOR sweeps until the sup-norm update drops below psor_tol.

    Red-black point relaxation over the interior; the outermost rows are
    relaxed as small direct blocks because the half-node boundary rows are
    convection dominated and point iteration would amplify there.
    Projection keeps x >= obstacle for a long book (sign +1) and
    x <= obstacle for a short book.  Returns the last sweep's change, which
    is >= psor_tol only when the sweep budget ran out.
    """
    n = x.size
    kb = max(2, min(_BOUNDARY_BLOCK, (n - 2) // 2))
    interior = np.arange(kb, n - kb)
    groups = (interior[interior % 2 == 0], interior[interior % 2 == 1])
    omega = params.psor_omega

    def clip(vals: np.ndarray, idx: np.ndarray) -> np.ndarray:
        obs = obstacle[idx]
        return np.maximum(vals, obs) if sign > 0 else np.minimum(vals, obs)

    def solve_block(lo_idx: int, hi_idx: int, couple_lo: bool, couple_hi: bool) -> None:
        idx = np.arange(lo_idx, hi_idx + 1)
        b = rhs[idx].copy()
        if couple_lo:
            b[0] -= A_lo[lo_idx] * x[lo_idx - 1]
        if couple_hi:
            b[-1] -= A_up[hi_idx] * x[hi_idx + 1]
        ab = np.zeros((3, idx.size))
        ab[0, 1:] = A_up[idx[:-1]]
        ab[1] = A_di[idx]
        ab[2, :-1] = A_lo[idx[1:]]
        x[idx] = clip(solve_banded((1, 1), ab, b), idx)

    change = math.inf
    for _ in range(params.psor_max_iters):
        x_old = x.copy()
        for idx in groups:
            gs = (rhs[idx] - A_lo[idx] * x[idx - 1] - A_up[idx] * x[idx + 1]) / A_di[idx]
            x[idx] = clip(x[idx] + omega * (gs - x[idx]), idx)
        solve_block(0, kb - 1, False, True)
        solve_block(n - kb, n - 1, True, False)
        change = float(np.max(np.abs(x - x_old)))
        if change < params.psor_tol:
            break
    return change


def _substep(st: _Stepper, dts: float, theta: float) -> None:
    """One theta-step: tridiagonal solves iterated to a fixed funding pattern.

    An American book projects each solve onto the exercise obstacle and
    PSOR resolves the exercise region.  Once an iterate's region codes equal
    those of its operator, the next iteration would repeat it bit for bit
    and converge with change 0, so it is counted in the budget but not run.
    """
    obstacle, params = st.obstacle, st.params
    pat = st.pat  # its region codes gather the current operator
    op = st.tables.operator(pat.region)
    rhs = _rhs_vector(st.u, op, st.ds, dts, theta)
    u_prev = st.u
    for it in range(params.funding_max_iters):
        st.upwinded = max(st.upwinded, op.upwinded)
        A_lo, A_di, A_up = _implicit_system(op, st.ds, dts, theta)
        x = _tridiag(A_lo, A_di, A_up, rhs)
        if obstacle is not None:
            x = np.maximum(x, obstacle) if st.sign > 0 else np.minimum(x, obstacle)
            sweep_change = _psor(x, A_lo, A_di, A_up, rhs, obstacle, st.sign, params)
            if sweep_change >= params.psor_tol:
                raise st.psor_diverged(sweep_change)
        change = float(np.max(np.abs(x - u_prev)))
        new_pat = _pattern(x, st.s, st.ds, st.config)
        if st._converged(change, new_pat, pat) or (
                np.array_equal(new_pat.region, pat.region)
                and it + 1 < params.funding_max_iters):
            st.u, st.pat = x, new_pat
            return
        u_prev, old, pat = x, pat, new_pat
        op = st.tables.operator(pat.region)
    raise st.no_convergence(change, pat, old)


def _run(st: _Stepper, collect_profiles: bool = False) -> list[np.ndarray] | None:
    profiles = [st.u.copy()] if collect_profiles else None
    for step in range(st.grid.n_steps):
        st.step = step
        for dts, theta in st.schedule(step):
            _substep(st, dts, theta)
        st.record_boundary(step)
        if collect_profiles:
            profiles.append(st.u.copy())
    return profiles


def solve(portfolio: Portfolio, side: Side, config: FundingConfig,
          grid: PdeGrid, params: SolverParams = SolverParams()) -> PricingResult:
    """Price a European book on one side of the market.

    Backward induction from U(S, T) = sign * payoff, where sign is +1 for
    BID (long book) and -1 for ASK.  Greeks come from central differences
    at the spot node.

    Raises:
        ConfigError: invalid inputs or American legs (use solve_american)
        NoConvergence: funding iteration budget exhausted
    """
    if portfolio.style != "european":
        raise ConfigError("solve() handles European books; use solve_american()")
    st = _Stepper(portfolio, side, config, grid, params)
    _run(st)
    return st.result()


def solve_american(portfolio: Portfolio, side: Side, config: FundingConfig,
                   grid: PdeGrid, params: SolverParams = SolverParams()) -> PricingResult:
    """Price an American book on one side of the market.

    The holder exercises optimally on either side: a long book satisfies
    U >= payoff, a short book -U >= payoff (the short is marked against the
    holder's optimal policy).

    Raises:
        ConfigError, NoConvergence, PsorDiverged
    """
    if portfolio.style != "american":
        raise ConfigError("solve_american() handles American books; use solve()")
    st = _Stepper(portfolio, side, config, grid, params)
    _run(st)
    return st.result()


def solve_surface(portfolio: Portfolio, side: Side, config: FundingConfig,
                  grid: PdeGrid, params: SolverParams = SolverParams()
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Solve a European book keeping every time slice.

    Returns (times_to_expiry, profiles): profiles[k] is the signed position
    value on the grid with k * dt of life remaining, so profiles[0] is the
    terminal payoff.  Used by the hedge simulator as a pricing oracle.
    """
    if portfolio.style != "european":
        raise ConfigError("solve_surface() handles European books only")
    st = _Stepper(portfolio, side, config, grid, params)
    profiles = _run(st, collect_profiles=True)
    taus = np.arange(grid.n_steps + 1) * grid.dt
    return taus, np.asarray(profiles)
