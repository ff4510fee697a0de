"""Seeded request streams for the four benchmark workloads, and their checks.

Each workload is an endless, deterministic stream of CLI argument lists
built from the seed.  The property that decides how much work a request
does (command, option kind, book or single, haircut regime, oracle) cycles
in a fixed order, so every run sees the same mix; the continuous inputs
(rates, spreads, haircuts, dividend, strikes, vols, drift) come from
`Draws`.

Every request carries the inputs its check needs.  A check returns a list
of failure messages, empty when the output is correct.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import references as ref

SPOT = 100.0
EXPIRY = 2.0

# grid and path sizes per workload (the README's sizes where it gives them)
QUOTE_GRID = {"nodes": 2000, "dt": 0.02}
AMERICAN_GRID = {"nodes": 200, "dt": 0.05}
SWEEP_GRID = {"nodes": 400, "dt": 0.04}
SWEEP_SPREADS = {"spread_max": 0.04, "spread_step": 0.01}
NETTING_EXPIRIES = (0.5, 1.0, 2.0)
HEDGE_SIZE = {"paths": 10000, "steps": 250}

# Output tolerances, in price units (spot 100) unless named otherwise.  Each
# is a few times the discretization error seen on its grid.
EUROPEAN_TOL = 5e-3        # per unit of leg quantity: 2000-node PDE vs closed forms
AMERICAN_REL_TOL = 0.01    # 200-node PDE vs the CRR tree, relative; 4e-3 seen
CRR_STEPS = 1000
FVA_CURVE_TOL_PP = 0.02    # percentage points, PDE vs analytic curve; 5e-3 seen
NETTING_TOL = 0.05         # 400-node netting book vs its closed-form mid
ORDER_TOL = 1e-6           # bid <= mid <= ask, up to solver noise
HEDGE_SE_MULT = 4.0        # |mean pi_T| within this many standard errors ...
# ... plus this many price units per year of hedge interval: a discrete hedge
# carries a first-order bias in dt.  On one funded bid input the mean went
# 0.11, 0.056, 0.029, 0.013 at 125, 250, 500, 1000 steps of a 2-year life.
HEDGE_DT_ALLOWANCE = 10.0


@dataclass
class Request:
    """One CLI request plus what its output check needs."""

    args: list[str]
    check: Callable[[dict, str], list[str]]
    spec: dict
    files: dict[str, str] = field(default_factory=dict)  # path -> contents
    path_steps: int = 0


SEED_NUDGE = 0.05
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
           73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131)


class Draws:
    """The continuous inputs of request i: a Kronecker sequence, nudged by the seed.

    Draw d of request i is frac(i * frac(sqrt(p_d)) + SEED_NUDGE * shift_d),
    with one seeded shift per draw.  The sequence covers each input's range
    evenly, and the seed moves every draw by at most SEED_NUDGE of its range:
    runs with different seeds price different inputs with the same mix of
    work, so their latencies differ by the machine's noise, not by which
    corner of the input space a seed happened to sample.
    """

    def __init__(self, i: int, shifts: list[float], rng: random.Random):
        self._i = i
        self._shifts = shifts
        self._rng = rng
        self._d = 0

    def random(self) -> float:
        d = self._d
        self._d += 1
        return (self._i * math.sqrt(_PRIMES[d]) + SEED_NUDGE * self._shifts[d]) % 1.0

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def choice(self, seq):
        return seq[min(int(self.random() * len(seq)), len(seq) - 1)]

    def randrange(self, lo: int, hi: int) -> int:
        """Seeded but not stratified: for Monte Carlo seeds."""
        return self._rng.randrange(lo, hi)


def _num(x: float) -> str:
    return repr(float(x))


def _market(draw: Draws, haircuts: bool) -> dict:
    r = round(draw.uniform(0.02, 0.10), 4)
    h_repo = round(draw.uniform(0.05, 0.40), 3) if haircuts else 0.0
    h_sec = round(draw.uniform(0.05, 0.40), 3) if haircuts else 0.0
    return {
        "r": r,
        "r_b": round(r + draw.uniform(0.005, 0.04), 4),
        "repo_rate": round(r + draw.uniform(0.0, 0.01), 4),
        "rebate_rate": round(r - draw.uniform(0.0, 0.01), 4),
        "repo_haircut": h_repo,
        "sec_haircut": h_sec,
        "q": round(draw.uniform(0.0, 0.02), 4),
        "sigma": round(draw.uniform(0.2, 0.5), 3),
    }


def _market_args(m: dict) -> list[str]:
    return ["--spot", _num(SPOT), "--rate", _num(m["r"]), "--vol", _num(m["sigma"]),
            "--dividend-yield", _num(m["q"])]


def _funding_args(m: dict) -> list[str]:
    return ["--borrow-rate", _num(m["r_b"]), "--repo-rate", _num(m["repo_rate"]),
            "--rebate-rate", _num(m["rebate_rate"]),
            "--repo-haircut", _num(m["repo_haircut"]),
            "--sec-haircut", _num(m["sec_haircut"])]


def _grid_args(grid: dict) -> list[str]:
    return ["--nodes", str(grid["nodes"]), "--dt", _num(grid["dt"])]


def _strike(draw: Draws) -> float:
    return round(draw.uniform(80.0, 120.0), 1)


def _book_mid(legs: list[dict], expiry: float, m: dict) -> float:
    return sum(leg["qty"] * ref.black_scholes(leg["kind"], SPOT, leg["strike"], expiry,
                                              m["r"], m["q"], m["sigma"])
               for leg in legs)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _finite(values, what: str) -> list[str]:
    bad = [k for k, v in values.items() if not math.isfinite(v)]
    return [f"{what}: non-finite {bad}"] if bad else []


def _ordered(bid: float, mid: float, ask: float, what: str, tol: float) -> list[str]:
    if bid <= mid + tol and mid <= ask + tol:
        return []
    return [f"{what}: bid {bid} <= mid {mid} <= ask {ask} broken"]


def _close(got: float, want: float, tol: float, what: str) -> list[str]:
    if abs(got - want) <= tol:
        return []
    return [f"{what}: {got} vs reference {want} (|diff| {abs(got - want):.3g} > {tol})"]


def _quote_fields(out: str) -> dict:
    q = json.loads(out)
    return {k: float(q[k]) for k in
            ("bid", "ask", "mid_reference", "f_b", "f_a", "delta", "gamma")}


def check_european_quote(spec: dict, out: str) -> list[str]:
    q = _quote_fields(out)
    m = spec["market"]
    fails = _finite(q, "price") + _ordered(q["bid"], q["mid_reference"], q["ask"],
                                           "price", ORDER_TOL)
    if "legs" in spec:
        units = sum(abs(leg["qty"]) for leg in spec["legs"])
        return fails + _close(q["mid_reference"], _book_mid(spec["legs"], EXPIRY, m),
                              EUROPEAN_TOL * units, "book mid")
    kind, strike = spec["kind"], spec["strike"]
    fails += _close(q["mid_reference"],
                    ref.black_scholes(kind, SPOT, strike, EXPIRY, m["r"], m["q"],
                                      m["sigma"]), EUROPEAN_TOL, "mid")
    fails += _close(q["bid"], ref.long_position(kind, SPOT, strike, EXPIRY, m),
                    EUROPEAN_TOL, "bid")
    if m["repo_haircut"] == 0.0 and m["sec_haircut"] == 0.0:
        fails += _close(q["ask"], ref.zero_haircut_ask(kind, SPOT, strike, EXPIRY, m),
                        EUROPEAN_TOL, "zero-haircut ask")
    return fails


def check_american_quote(spec: dict, out: str) -> list[str]:
    q = _quote_fields(out)
    m = spec["market"]
    tree = ref.crr_american(spec["kind"], SPOT, spec["strike"], EXPIRY, m["r"], m["q"],
                            m["sigma"], CRR_STEPS)
    return (_finite(q, "price")
            + _ordered(q["bid"], q["mid_reference"], q["ask"], "price", ORDER_TOL)
            + _close(q["mid_reference"], tree, AMERICAN_REL_TOL * tree, "american mid"))


def check_fva_curve(spec: dict, out: str) -> list[str]:
    lines = out.splitlines()
    if lines[:2] != ["# fva-pricer v1 fva-curve", "case,spread,fva_percent"]:
        return [f"fva-curve: unexpected header {lines[:2]}"]
    m = spec["market"]
    n = int(round(SWEEP_SPREADS["spread_max"] / SWEEP_SPREADS["spread_step"])) + 1
    fails = []
    if len(lines) - 2 != len(ref.FVA_CURVE_CASES) * n:
        fails.append(f"fva-curve: {len(lines) - 2} rows, expected "
                     f"{len(ref.FVA_CURVE_CASES) * n}")
    for line in lines[2:]:
        case, spread, value = line.split(",")
        spread, value = float(spread), float(value)
        if case not in ref.FVA_CURVE_CASES:
            fails.append(f"fva-curve: unknown case {case}")
            continue
        want = ref.fva_curve_percent(case, spread, spec["kind"], SPOT, spec["strike"],
                                     EXPIRY, m["r"], m["q"], m["sigma"])
        fails += _finite({"fva_percent": value}, f"fva-curve {case} {spread}")
        fails += _close(value, want, FVA_CURVE_TOL_PP, f"fva-curve {case} {spread}")
    return fails


def check_netting(spec: dict, out: str) -> list[str]:
    rows = json.loads(out)
    m = spec["market"]
    fails = []
    if [row["expiry"] for row in rows] != list(NETTING_EXPIRIES):
        fails.append(f"netting: expiries {[row['expiry'] for row in rows]}")
    for row in rows:
        what = f"netting {spec['strategy']} T={row['expiry']}"
        values = {k: float(v) for k, v in row.items() if k not in ("strategy", "expiry")}
        mid = _book_mid(spec["legs"], float(row["expiry"]), m)
        fails += _finite(values, what)
        fails += _ordered(values["netted_bid"], mid, values["netted_ask"],
                          what + " netted", NETTING_TOL)
        fails += _ordered(values["synthetic_bid"], mid, values["synthetic_ask"],
                          what + " synthetic", NETTING_TOL)
    return fails


def check_simulate(spec: dict, out: str) -> list[str]:
    s = json.loads(out)
    fails = _finite({k: float(s[k]) for k in ("mean", "std", "max_abs")}, "simulate")
    echo = {"n_paths": HEDGE_SIZE["paths"], "n_steps": HEDGE_SIZE["steps"],
            "seed": spec["mc_seed"]}
    fails += [f"simulate: {k}={s.get(k)} expected {v}" for k, v in echo.items()
              if s.get(k) != v]
    bound = (HEDGE_SE_MULT * float(s["std"]) / math.sqrt(HEDGE_SIZE["paths"])
             + HEDGE_DT_ALLOWANCE * EXPIRY / HEDGE_SIZE["steps"])
    if not abs(float(s["mean"])) <= bound:
        fails.append(f"simulate: |mean| {abs(float(s['mean'])):.4g} > {HEDGE_SE_MULT:g} "
                     f"standard errors plus the dt allowance ({bound:.4g})")
    return fails


# ---------------------------------------------------------------------------
# request streams
# ---------------------------------------------------------------------------

QUOTE_MIX = (("put", False), ("call", True), ("book", True),
             ("call", False), ("put", True), ("book", False))


def _book_legs(draw: Draws) -> list[dict]:
    return [{"kind": draw.choice(("call", "put")), "strike": _strike(draw),
             "qty": draw.choice((1.0, -1.0, 2.0))} for _ in range(draw.choice((2, 3)))]


def quote_request(draw: Draws, i: int, work: Path) -> Request:
    what, haircuts = QUOTE_MIX[i % len(QUOTE_MIX)]
    m = _market(draw, haircuts)
    tail = _market_args(m) + _funding_args(m) + _grid_args(QUOTE_GRID) + ["--format", "json"]
    if what == "book":
        legs = _book_legs(draw)
        path = str(work / f"book-{i}.json")
        book = {"expiry": EXPIRY, "style": "european", "legs": legs}
        return Request(["price", "--portfolio", path] + tail,
                       check_european_quote, {"market": m, "legs": legs},
                       files={path: json.dumps(book)})
    strike = _strike(draw)
    return Request(["price", "--kind", what, "--strike", _num(strike),
                    "--expiry", _num(EXPIRY)] + tail,
                   check_european_quote, {"market": m, "kind": what, "strike": strike})


# Puts only: PSOR's sweep count on an American call swings tenfold with the
# rates, dividend and haircuts (0.23 to 2.0 s at one vol and strike), which
# no run of a few dozen requests samples steadily.
def american_request(draw: Draws, i: int, work: Path) -> Request:
    kind = "put"
    m = _market(draw, haircuts=i % 2 == 0)
    strike = _strike(draw)
    return Request(["price", "--kind", kind, "--style", "american",
                    "--strike", _num(strike), "--expiry", _num(EXPIRY)]
                   + _market_args(m) + _funding_args(m) + _grid_args(AMERICAN_GRID)
                   + ["--format", "json"],
                   check_american_quote, {"market": m, "kind": kind, "strike": strike})


SWEEP_MIX = ("fva-curve", "bull", "straddle", "fva-curve", "strangle", "strip")


def _strategy_legs(name: str, draw: Draws) -> tuple[list[float], list[dict]]:
    lo = round(SPOT - draw.uniform(2.0, 15.0), 1)
    hi = round(SPOT + draw.uniform(2.0, 15.0), 1)
    mid = _strike(draw)
    if name == "bull":
        return [lo, hi], [{"kind": "call", "strike": lo, "qty": 1.0},
                          {"kind": "call", "strike": hi, "qty": -1.0}]
    if name == "straddle":
        return [mid], [{"kind": "call", "strike": mid, "qty": 1.0},
                       {"kind": "put", "strike": mid, "qty": 1.0}]
    if name == "strangle":
        return [lo, hi], [{"kind": "put", "strike": lo, "qty": 1.0},
                          {"kind": "call", "strike": hi, "qty": 1.0}]
    return [mid], [{"kind": "call", "strike": mid, "qty": 1.0},
                   {"kind": "put", "strike": mid, "qty": 2.0}]


def sweep_request(draw: Draws, i: int, work: Path) -> Request:
    what = SWEEP_MIX[i % len(SWEEP_MIX)]
    m = _market(draw, haircuts=True)
    if what == "fva-curve":
        kind = ("put", "call")[(i // len(SWEEP_MIX)) % 2]
        strike = _strike(draw)
        return Request(["fva-curve", "--engine", "pde", "--kind", kind,
                        "--strike", _num(strike), "--expiry", _num(EXPIRY),
                        "--spread-max", _num(SWEEP_SPREADS["spread_max"]),
                        "--spread-step", _num(SWEEP_SPREADS["spread_step"])]
                       + _market_args(m) + _grid_args(SWEEP_GRID),
                       check_fva_curve, {"market": m, "kind": kind, "strike": strike})
    strikes, legs = _strategy_legs(what, draw)
    return Request(["netting", "--strategy", what,
                    "--strikes", ",".join(_num(k) for k in strikes),
                    "--expiries", ",".join(_num(t) for t in NETTING_EXPIRIES)]
                   + _market_args(m) + _funding_args(m) + _grid_args(SWEEP_GRID)
                   + ["--format", "json"],
                   check_netting, {"market": m, "strategy": what, "legs": legs})


# Bid and riskfree hedge with the analytic oracle; an ask with haircuts has
# no closed form and hedges with the PDE surface, at about twice the cost.
HEDGE_MIX = ("bid", "ask", "riskfree")


def hedge_request(draw: Draws, i: int, work: Path) -> Request:
    side = HEDGE_MIX[i % len(HEDGE_MIX)]
    kind = ("put", "call")[(i // len(HEDGE_MIX)) % 2]
    m = _market(draw, haircuts=True)
    mc_seed = draw.randrange(1, 2 ** 31)
    mu = round(draw.uniform(0.0, 0.25), 3)
    return Request(["simulate", "--kind", kind, "--side", side,
                    "--strike", _num(_strike(draw)), "--expiry", _num(EXPIRY),
                    "--paths", str(HEDGE_SIZE["paths"]), "--steps", str(HEDGE_SIZE["steps"]),
                    "--mu", _num(mu), "--seed", str(mc_seed)]
                   + _market_args(m) + _funding_args(m),
                   check_simulate, {"market": m, "mc_seed": mc_seed},
                   path_steps=HEDGE_SIZE["paths"] * HEDGE_SIZE["steps"])


@dataclass(frozen=True)
class Workload:
    make: Callable[[Draws, int, Path], Request]
    warmup: list[str]      # fixed request run once before timing
    sizes: dict
    trace_requests: int    # fixed request count of a traced run


_FUNDED = ["--borrow-spread", "0.03", "--repo-spread", "0.005", "--rebate-spread",
           "-0.005", "--repo-haircut", "0.25", "--sec-haircut", "0.15"]

WORKLOADS = {
    "quote": Workload(
        quote_request,
        ["price", "--kind", "put", *_FUNDED, "--nodes", "2000", "--dt", "0.02",
         "--format", "json"],
        {**QUOTE_GRID, "solves_per_request": 3},
        trace_requests=36),
    "american": Workload(
        american_request,
        ["price", "--kind", "put", "--style", "american", *_FUNDED,
         "--nodes", "200", "--dt", "0.05", "--format", "json"],
        {**AMERICAN_GRID, "solves_per_request": 3},
        trace_requests=12),
    "sweep": Workload(
        sweep_request,
        ["fva-curve", "--engine", "pde", "--nodes", "200", "--dt", "0.05",
         "--spread-step", "0.01"],
        {**SWEEP_GRID, **SWEEP_SPREADS, "netting_expiries": list(NETTING_EXPIRIES)},
        trace_requests=18),
    "hedge": Workload(
        hedge_request,
        ["simulate", "--kind", "put", "--rate", "0.10", "--paths", "10000",
         "--steps", "250", "--mu", "0.10", "--seed", "42"],
        {**HEDGE_SIZE, "pde_oracle_nodes": 1000},
        trace_requests=12),
}


def stream(name: str, seed: int, work: Path) -> Iterator[Request]:
    """Endless request stream of a workload; the same seed gives the same stream."""
    rng = random.Random(f"fva-pricer-bench:{name}:{seed}")
    shifts = [rng.random() for _ in _PRIMES]
    make = WORKLOADS[name].make
    i = 0
    while True:
        yield make(Draws(i, shifts, rng), i, work)
        i += 1
