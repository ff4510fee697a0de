"""Command-line front end.

Subcommands::

    price        single-book bid/ask/mid quote with funding adjustments
    fva-curve    funding adjustment of a long option versus unsecured spread
    netting      netted vs synthetic bid/ask spreads of a strategy across expiries
    table1       calibration check of the FD engine against the closed form
    simulate     self-financing hedge replication Monte Carlo
    spread-demo  model spreads next to a sample market option chain

Every command is deterministic given its flags (and seed), CSV output starts
with the header line ``# fva-pricer v1 <command>``, and rates can be given
either as absolute levels or as spreads over ``--rate``.  A ``--config``
file holds ``key=value`` lines mirroring flag names; explicit flags win.

Exit codes: 0 success, 2 invalid input, 3 solver non-convergence,
4 calibration tolerance breach.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
from importlib import resources
from pathlib import Path

import click

from .analytic import bs_price, closed_form, implied_vol, long_position_price
from .errors import ConfigError, NoConvergence, PricingError
from .market import FundingConfig, OptionLeg, Portfolio, Side, load_portfolio
from .pde import PdeGrid, solve, solve_many
from .portfolio import STRATEGIES, build_strategy, netting_reports, quote_many
from .replication import simulate_hedge

CSV_VERSION = "fva-pricer v1"

FVA_CURVE_CASES = (
    ("no_repo", None, None),
    ("h000_repo50", 0.0, 0.005),
    ("h035_repo50", 0.35, 0.005),
    ("h035_repo150", 0.35, 0.015),
)

# validation-error fields -> the flags that can set them; a command names the
# ones it has
FIELD_FLAGS = {
    "r": ("--rate",),
    "r_b": ("--borrow-rate", "--borrow-spread"),
    "q": ("--dividend-yield",),
    "sigma": ("--vol",),
    "repo_rate": ("--repo-rate", "--repo-spread"),
    "rebate_rate": ("--rebate-rate", "--rebate-spread"),
    "repo_haircut": ("--repo-haircut", "--haircut"),
    "sec_haircut": ("--sec-haircut", "--haircut"),
    "spot": ("--spot",),
    "strike": ("--strike",),
    "expiry": ("--expiry", "--expiries"),
    "dt": ("--dt",),
    "portfolio": ("--portfolio",),
    "fixture": ("--fixture",),
    "config": ("--config",),
    "mu": ("--mu",),
    "seed": ("--seed",),
    "steps": ("--steps",),
    "paths": ("--paths",),
    "spread_step": ("--spread-step",),
    "spread_max": ("--spread-max",),
}

# most spreads one fva-curve case may sweep
MAX_CURVE_SPREADS = 1000


def _fmt(x: float) -> str:
    return format(float(x), ".10g")


def _emit(text: str, output: str | None) -> None:
    if output and output != "-":
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _csv(command: str, header: list[str], rows: list[list]) -> str:
    lines = [f"# {CSV_VERSION} {command}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _config_message(exc: ConfigError) -> str:
    """`<flag>: <ErrorClass>, <message>` when a flag of this command set the field."""
    params = click.get_current_context().command.params
    opts = {opt for p in params for opt in p.opts}
    flags = [f for f in FIELD_FLAGS.get(exc.field, ()) if f in opts]
    if not flags:
        return str(exc)
    return f"{'/'.join(flags)}: {type(exc).__name__}, {exc}"


def _handled(fn):
    """Map library errors onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except NoConvergence as exc:
            _fail(3, str(exc))
        except ConfigError as exc:
            _fail(2, _config_message(exc))
        except PricingError as exc:
            _fail(2, str(exc))

    return wrapper


# ---------------------------------------------------------------------------
# config-file merging
# ---------------------------------------------------------------------------

def _read_kv_file(path: str) -> dict[str, str]:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}", field="config") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value", field="config")
        key, val = line.split("=", 1)
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def _apply_config_file(ctx: click.Context, kw: dict) -> dict:
    """Overlay config-file values onto parameters left at their defaults."""
    path = kw.get("config")
    if not path:
        return kw
    file_vals = _read_kv_file(path)
    by_name = {}
    for p in ctx.command.params:
        by_name[p.name] = p
        for opt in p.opts:
            by_name[opt.lstrip("-").replace("-", "_")] = p
    for name, raw in file_vals.items():
        param = by_name.get(name)
        if param is None:
            raise ConfigError(f"unknown key {name!r}", field="config")
        src = ctx.get_parameter_source(param.name)
        if src is not None and src.name == "COMMANDLINE":
            continue
        kw[param.name] = param.type.convert(raw, param, ctx)
    return kw


# ---------------------------------------------------------------------------
# shared option groups
# ---------------------------------------------------------------------------

def market_options(fn, expiry: bool = True):
    """Market flags; netting leaves out --expiry and reads --expiries."""
    for deco in reversed([
        click.option("--spot", type=float, default=100.0, show_default=True,
                     help="Stock price."),
        *([click.option("--expiry", type=float, default=2.0, show_default=True,
                        help="Time to expiry in years.")] if expiry else []),
        click.option("--rate", type=float, default=0.10, show_default=True,
                     help="Risk-free deposit rate."),
        click.option("--vol", type=float, default=0.5, show_default=True,
                     help="Lognormal volatility."),
        click.option("--dividend-yield", type=float, default=0.0, show_default=True,
                     help="Continuous dividend yield."),
    ]):
        fn = deco(fn)
    return fn


def funding_options(fn):
    for deco in reversed([
        click.option("--borrow-rate", type=float, default=None,
                     help="Unsecured borrowing rate (absolute)."),
        click.option("--borrow-spread", type=float, default=None,
                     help="Unsecured spread over --rate."),
        click.option("--repo-rate", type=float, default=None,
                     help="Secured financing rate for long stock (absolute)."),
        click.option("--repo-spread", type=float, default=None,
                     help="Repo spread over --rate."),
        click.option("--rebate-rate", type=float, default=None,
                     help="Rebate on stock-borrow cash margin (absolute)."),
        click.option("--rebate-spread", type=float, default=None,
                     help="Rebate spread over --rate (usually negative)."),
        click.option("--repo-haircut", type=float, default=0.0, show_default=True),
        click.option("--sec-haircut", type=float, default=0.0, show_default=True),
        click.option("--no-repo", is_flag=True, default=False,
                     help="Fund the whole stock hedge unsecured."),
    ]):
        fn = deco(fn)
    return fn


def grid_options(nodes_default: int = 2000, dt_default: float = 0.02):
    def wrap(fn):
        for deco in reversed([
            click.option("--nodes", type=int, default=nodes_default, show_default=True,
                         help="Spatial grid nodes."),
            click.option("--dt", type=float, default=dt_default, show_default=True,
                         help="Time step in years."),
        ]):
            fn = deco(fn)
        return fn
    return wrap


def output_options(fn):
    for deco in reversed([
        click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
                     default="csv", show_default=True),
        click.option("--output", type=str, default="-", show_default=True,
                     help="Output path, '-' for stdout."),
        click.option("--config", type=click.Path(exists=True, dir_okay=False),
                     default=None, help="key=value file mirroring flag names."),
    ]):
        fn = deco(fn)
    return fn


def _resolve_rate(kw, name: str) -> float:
    """--<name>-rate, else --rate plus --<name>-spread, else --rate."""
    absolute, spread = kw.get(f"{name}_rate"), kw.get(f"{name}_spread")
    if absolute is not None and spread is not None:
        raise ConfigError(f"--{name}-rate and --{name}-spread are mutually exclusive")
    if absolute is not None:
        return absolute
    return kw["rate"] if spread is None else kw["rate"] + spread


def _funding_config(kw) -> FundingConfig:
    """FundingConfig from the flags; FundingConfig itself validates them."""
    return FundingConfig(
        r=kw["rate"], r_b=_resolve_rate(kw, "borrow"),
        q=kw.get("dividend_yield", 0.0), sigma=kw["vol"],
        repo_rate=_resolve_rate(kw, "repo"), repo_haircut=kw.get("repo_haircut", 0.0),
        rebate_rate=_resolve_rate(kw, "rebate"), sec_haircut=kw.get("sec_haircut", 0.0),
        no_repo=kw.get("no_repo", False))


@click.group()
@click.version_option(version="0.1.0", prog_name="fva-pricer")
def main() -> None:
    """Option pricing with funding costs."""


# ---------------------------------------------------------------------------
# price
# ---------------------------------------------------------------------------

@main.command()
@click.option("--kind", type=click.Choice(["call", "put"]), default=None,
              help="Vanilla option kind; omit when pricing a --portfolio file.")
@click.option("--strike", type=float, default=100.0, show_default=True)
@click.option("--style", type=click.Choice(["european", "american"]),
              default="european", show_default=True)
@click.option("--portfolio", "portfolio_path",
              type=click.Path(exists=True, dir_okay=False), default=None,
              help='Multi-leg book as JSON: {"expiry": 2.0, "style": "european", '
                   '"legs": [{"kind": "call", "strike": 95.0, "qty": 1.0}, ...]}.')
@click.option("--side", type=click.Choice(["bid", "ask", "riskfree", "all"]),
              default="all", show_default=True,
              help="Side whose delta/gamma are reported; riskfree collapses "
                   "all rates to --rate.")
@click.option("--engine", type=click.Choice(["pde", "analytic"]),
              default="pde", show_default=True)
@market_options
@funding_options
@grid_options()
@output_options
@click.pass_context
@_handled
def price(ctx: click.Context, **kw) -> None:
    """Bid, ask, and risk-free reference quote for an option or a book."""
    kw = _apply_config_file(ctx, kw)
    config = _funding_config(kw)
    if kw["side"] == "riskfree":
        config = config.degenerate()
    kind, strike, expiry = kw["kind"], kw["strike"], kw["expiry"]
    spot = kw["spot"]

    if kw["portfolio_path"]:
        if kind is not None:
            raise ConfigError("--portfolio and --kind are mutually exclusive")
        if kw["engine"] == "analytic":
            raise ConfigError("--engine analytic: books need the PDE engine")
        book = load_portfolio(kw["portfolio_path"])
    elif kind is None:
        raise ConfigError("--kind is required unless --portfolio is given")
    else:
        book = Portfolio.single(kind, strike, expiry, style=kw["style"])

    if kw["engine"] == "analytic":
        if kw["style"] == "american":
            raise ConfigError("--engine analytic: no closed form for American "
                              "exercise; use --engine pde")
        mid, bid, ask = (closed_form(kind, side, spot, strike, expiry, config)
                         for side in (Side.RISK_FREE, Side.BID, Side.ASK))
    else:
        grid = PdeGrid.for_portfolio(spot, book, config,
                                     n_nodes=kw["nodes"], dt=kw["dt"])
        books = [(book, config, grid)]
        if not config.is_degenerate():
            books.append((book, config.degenerate(), grid))
        quotes = quote_many(books)
        bid, ask = quotes[0]
        mid = quotes[-1][0]

    # --side all reports the risk-free greeks
    greeks = {"bid": bid, "ask": ask}.get(kw["side"], mid)
    payload = {
        "bid": bid.price,
        "ask": ask.price,
        "mid_reference": mid.price,
        "f_b": mid.price - bid.price,
        "f_a": ask.price - mid.price,
        "delta": greeks.delta,
        "gamma": greeks.gamma,
    }
    if kw["fmt"] == "json":
        _emit(_json_text({k: float(v) for k, v in payload.items()}), kw["output"])
    else:
        _emit(_csv("price", list(payload), [[float(v) for v in payload.values()]]),
              kw["output"])


# ---------------------------------------------------------------------------
# fva-curve
# ---------------------------------------------------------------------------

@main.command("fva-curve")
@click.option("--kind", type=click.Choice(["call", "put"]), default="put",
              show_default=True)
@click.option("--strike", type=float, default=100.0, show_default=True)
@click.option("--spread-max", type=float, default=0.04, show_default=True)
@click.option("--spread-step", type=float, default=0.0025, show_default=True)
@click.option("--engine", type=click.Choice(["analytic", "pde"]),
              default="analytic", show_default=True)
@market_options
@grid_options()
@output_options
@click.pass_context
@_handled
def fva_curve(ctx: click.Context, **kw) -> None:
    """Long-position funding adjustment versus the unsecured spread.

    Four stock-financing cases are swept: no secured financing at all,
    zero haircut with a 50 bp repo spread, 35% haircut with 50 bp, and
    35% haircut with 150 bp.
    """
    kw = _apply_config_file(ctx, kw)
    r, vol, q = kw["rate"], kw["vol"], kw["dividend_yield"]
    kind, spot, strike, expiry = kw["kind"], kw["spot"], kw["strike"], kw["expiry"]
    step, top = kw["spread_step"], kw["spread_max"]
    if not (math.isfinite(step) and step > 0):
        raise ConfigError(f"spread_step={step} must be finite and > 0",
                          field="spread_step")
    if not (math.isfinite(top) and top >= 0):
        raise ConfigError(f"spread_max={top} must be finite and >= 0", field="spread_max")
    if top / step > MAX_CURVE_SPREADS:
        raise ConfigError(f"spread_max/spread_step={top / step:.6g} exceeds "
                          f"{MAX_CURVE_SPREADS} spreads", field="spread_step")
    n = int(round(top / step))
    spreads = [i * step for i in range(n + 1)]

    def positive(reference: float) -> float:
        if not reference > 0:
            raise ConfigError(f"risk-free price {reference} is not > 0; the adjustment "
                              "is a percentage of it")
        return reference

    cases = [(name, spread) for name, _, _ in FVA_CURVE_CASES for spread in spreads]
    configs = (FundingConfig(
        r=r, r_b=r + spread, q=q, sigma=vol,
        repo_rate=r + (repo_spread or 0.0), repo_haircut=haircut or 0.0,
        rebate_rate=r - (repo_spread or 0.0), sec_haircut=haircut or 0.0,
        no_repo=haircut is None)
        for _, haircut, repo_spread in FVA_CURVE_CASES for spread in spreads)
    if kw["engine"] == "pde":
        book = Portfolio.single(kind, strike, expiry)
        grid = PdeGrid.build(spot, strike, vol, expiry, n_nodes=kw["nodes"], dt=kw["dt"])
        # same-grid reference so discretization bias cancels in the adjustment
        reference_job = (book, Side.RISK_FREE, FundingConfig.classic(r=r, sigma=vol, q=q), grid)
        try:
            solved = solve_many(itertools.chain(
                [reference_job], ((book, Side.BID, config, grid) for config in configs)))
        except Exception:
            # the reference is checked before any bid's error, as when solved first
            positive(solve(*reference_job).value)
            raise
        reference = positive(solved[0].value)
        bids = [res.value for res in solved[1:]]
    else:
        reference = positive(bs_price(kind, spot, strike, expiry, r, q, vol).price)
        bids = [long_position_price(kind, spot, strike, expiry, config).price
                for config in configs]
    rows = [[name, float(spread), float(100.0 * (reference - bid) / reference)]
            for (name, spread), bid in zip(cases, bids)]
    if kw["fmt"] == "json":
        payload = [{"case": c, "spread": s, "fva_percent": v} for c, s, v in rows]
        _emit(_json_text(payload), kw["output"])
    else:
        _emit(_csv("fva-curve", ["case", "spread", "fva_percent"], rows), kw["output"])


# ---------------------------------------------------------------------------
# netting
# ---------------------------------------------------------------------------

@main.command()
@click.option("--strategy", type=click.Choice(list(STRATEGIES)), required=True)
@click.option("--strikes", type=str, default="95,105", show_default=True,
              help="Comma-separated strikes as the strategy requires.")
@click.option("--expiries", type=str, default="0.5,1,2", show_default=True,
              help="Comma-separated expiries in years.")
@functools.partial(market_options, expiry=False)
@funding_options
@grid_options(nodes_default=800)
@output_options
@click.pass_context
@_handled
def netting(ctx: click.Context, **kw) -> None:
    """Netted versus synthetic bid/ask spread of a strategy across expiries."""
    kw = _apply_config_file(ctx, kw)
    config = _funding_config(kw)
    try:
        strikes = [float(tok) for tok in kw["strikes"].split(",") if tok.strip()]
        expiries = [float(tok) for tok in kw["expiries"].split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"--strikes/--expiries: {exc}") from exc
    if not expiries:
        raise ConfigError("--expiries: need at least one expiry")

    def books():
        for expiry in expiries:
            portfolio = build_strategy(kw["strategy"], strikes, expiry)
            yield portfolio, PdeGrid.for_portfolio(kw["spot"], portfolio, config,
                                                   n_nodes=kw["nodes"], dt=kw["dt"])

    reports = netting_reports(books(), config)
    if kw["fmt"] == "json":
        payload = [{"strategy": kw["strategy"], "expiry": t, **rep.to_dict()}
                   for t, rep in zip(expiries, reports)]
        _emit(_json_text(payload), kw["output"])
    else:
        rows = [[float(t), rep.netted_spread, rep.synthetic_spread, rep.netting_effect]
                for t, rep in zip(expiries, reports)]
        _emit(_csv("netting", ["expiry", "netted_spread", "synthetic_spread",
                               "netting_effect"], rows), kw["output"])


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------

TABLE1_TOLERANCES = {"price": 5e-3, "delta": 5e-4, "gamma": 1e-4}


@main.command()
@click.option("--strike", type=float, default=100.0, show_default=True)
@market_options
@grid_options()
@output_options
@click.pass_context
@_handled
def table1(ctx: click.Context, **kw) -> None:
    """Check the FD engine against the closed form on the calibration case.

    Exits 4 when any absolute difference exceeds its tolerance
    (price 5e-3, delta 5e-4, gamma 1e-4).
    """
    kw = _apply_config_file(ctx, kw)
    config = FundingConfig.classic(r=kw["rate"], sigma=kw["vol"],
                                   q=kw["dividend_yield"])
    spot, strike, expiry = kw["spot"], kw["strike"], kw["expiry"]
    kinds = ("call", "put")
    books = [Portfolio.single(kind, strike, expiry) for kind in kinds]
    fds = solve_many((portfolio, Side.RISK_FREE, config, PdeGrid.for_portfolio(
        spot, portfolio, config, n_nodes=kw["nodes"], dt=kw["dt"])) for portfolio in books)
    rows = []
    ok = True
    for kind, fd in zip(kinds, fds):
        exact = bs_price(kind, spot, strike, expiry, config.r, config.q, config.sigma)
        for metric, a, b in (("price", exact.price, fd.price),
                             ("delta", exact.delta, fd.delta),
                             ("gamma", exact.gamma, fd.gamma)):
            tol = TABLE1_TOLERANCES[metric]
            diff = abs(a - b)
            status = "pass" if diff <= tol else "fail"
            ok = ok and status == "pass"
            rows.append([kind, metric, float(a), float(b), float(diff), float(tol),
                         status])
    if kw["fmt"] == "json":
        payload = [dict(zip(["option", "metric", "analytic", "fd", "abs_diff",
                             "tolerance", "status"], row)) for row in rows]
        _emit(_json_text(payload), kw["output"])
    else:
        _emit(_csv("table1", ["option", "metric", "analytic", "fd", "abs_diff",
                              "tolerance", "status"], rows), kw["output"])
    if not ok:
        sys.exit(4)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

@main.command()
@click.option("--kind", type=click.Choice(["call", "put"]), required=True)
@click.option("--strike", type=float, default=100.0, show_default=True)
@click.option("--side", type=click.Choice(["bid", "ask", "riskfree"]),
              default="ask", show_default=True)
@click.option("--paths", type=int, default=10000, show_default=True)
@click.option("--steps", type=int, default=250, show_default=True)
@click.option("--mu", type=float, default=0.0, show_default=True,
              help="Real-world stock drift.")
@click.option("--seed", type=int, required=True,
              help="Counter-based RNG seed; same seed reproduces paths exactly.")
@click.option("--oracle", type=click.Choice(["auto", "pde"]), default="auto",
              show_default=True, help="Force the FD surface oracle with 'pde'.")
@market_options
@funding_options
@grid_options(nodes_default=1000)
@output_options
@click.pass_context
@_handled
def simulate(ctx: click.Context, **kw) -> None:
    """Hedge an option in the funded economy and summarize terminal wealth."""
    kw = _apply_config_file(ctx, kw)
    config = _funding_config(kw)
    side = Side(kw["side"])
    option = OptionLeg(kw["kind"], kw["strike"])
    oracle = None
    if kw["oracle"] == "pde":
        from .replication import PdeOracle
        oracle = PdeOracle(option, kw["spot"], kw["expiry"], side, config,
                           n_steps=kw["steps"], n_nodes=kw["nodes"])
    summary = simulate_hedge(option, kw["spot"], kw["expiry"], side, config,
                             n_paths=kw["paths"], n_steps=kw["steps"],
                             mu=kw["mu"], seed=kw["seed"], oracle=oracle)
    _emit(_json_text(summary.to_json_dict()), kw["output"])


# ---------------------------------------------------------------------------
# spread-demo
# ---------------------------------------------------------------------------

CHAIN_COLUMNS = ("strike", "mid_call", "mid_put", "call_spread", "put_spread")


def _load_chain(path: str | None) -> tuple[float, float, float, list[dict]]:
    """(spot, expiry, rate, quotes) of an option-chain file, or of the packaged sample."""
    try:
        text = (Path(path).read_text(encoding="utf-8") if path else
                resources.files("fva_pricer.data").joinpath("sample_chain.json").read_text())
        chain = json.loads(text)
        spot, expiry, r = (float(chain[k]) for k in ("spot", "expiry_years", "rate"))
        quotes = [{k: float(row[k]) for k in CHAIN_COLUMNS} for row in chain["quotes"]]
    except (OSError, LookupError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed option chain: {type(exc).__name__}: {exc}",
                          field="fixture") from exc
    if not (quotes and all(map(math.isfinite, (spot, expiry, r)))
            and spot > 0 and expiry > 0):
        raise ConfigError("the option chain needs quotes, a finite spot and expiry "
                          "> 0, and a finite rate", field="fixture")
    return spot, expiry, r, quotes


@main.command("spread-demo")
@click.option("--fixture", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Option-chain JSON; defaults to the packaged sample.")
@click.option("--borrow-spread", type=float, default=0.03, show_default=True)
@click.option("--repo-spread", type=float, default=0.007, show_default=True)
@click.option("--haircut", type=float, default=0.25, show_default=True)
@grid_options(nodes_default=800)
@output_options
@click.pass_context
@_handled
def spread_demo(ctx: click.Context, **kw) -> None:
    """Model bid/ask spreads next to a sample long-dated option chain.

    Implies the dividend yield from at-the-money put-call parity and a
    per-strike volatility from the mid prices, then prices each option on
    both sides of the funded economy.  Illustrative only: the chain file
    records its own market-data assumptions.
    """
    kw = _apply_config_file(ctx, kw)
    spot, expiry, r, quotes = _load_chain(kw["fixture"])
    atm = min(quotes, key=lambda row: abs(row["strike"] - spot))
    k_atm = atm["strike"]
    parity = atm["mid_call"] - atm["mid_put"] + k_atm * math.exp(-r * expiry)
    if parity <= 0:
        raise ConfigError("fixture violates put-call parity bounds", field="fixture")
    q = -math.log(parity / spot) / expiry

    config_base = dict(r=r, r_b=r + kw["borrow_spread"], q=q,
                       repo_rate=r + kw["repo_spread"],
                       repo_haircut=kw["haircut"],
                       rebate_rate=r - kw["repo_spread"],
                       sec_haircut=kw["haircut"])
    sigmas = []

    def books():
        for row in quotes:
            strike = row["strike"]
            vols = []
            for kind, mid_key in (("call", "mid_call"), ("put", "mid_put")):
                vols.append(implied_vol(kind, spot, strike, expiry, r, q, row[mid_key]))
            sigma = 0.5 * (vols[0] + vols[1])
            sigmas.append(sigma)
            config = FundingConfig(sigma=sigma, **config_base)
            for kind in ("call", "put"):
                portfolio = Portfolio.single(kind, strike, expiry)
                yield portfolio, config, PdeGrid.for_portfolio(
                    spot, portfolio, config, n_nodes=kw["nodes"], dt=kw["dt"])

    spreads = iter(ask.price - bid.price for bid, ask in quote_many(books()))
    rows = [[row["strike"], row["call_spread"], next(spreads), row["put_spread"],
             next(spreads), float(sigma)] for row, sigma in zip(quotes, sigmas)]
    header = ["strike", "market_call_spread", "model_call_spread",
              "market_put_spread", "model_put_spread", "implied_vol"]
    if kw["fmt"] == "json":
        _emit(_json_text([dict(zip(header, row)) for row in rows]), kw["output"])
    else:
        _emit(_csv("spread-demo", header, rows), kw["output"])


if __name__ == "__main__":
    main()
