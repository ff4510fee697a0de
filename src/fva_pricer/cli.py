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
from .funding import fva
from .market import FundingConfig, OptionLeg, Portfolio, Side, _require_positive, \
    load_portfolio
from .pde import PdeGrid, solve, solve_many
from .portfolio import STRATEGIES, build_strategy, netting_reports, quote_many
from .replication import PdeOracle, simulate_hedge

CSV_VERSION = "fva-pricer v1"

FVA_CURVE_CASES = (
    ("no_repo", None, None),
    ("h000_repo50", 0.0, 0.005),
    ("h035_repo50", 0.35, 0.005),
    ("h035_repo150", 0.35, 0.015),
)

# validation-error fields -> the flags that can set them, where those are not
# --<field-with-dashes>; a command names the ones it has
FIELD_FLAGS = {
    "r": ("--rate",),
    "r_b": ("--borrow-rate", "--borrow-spread"),
    "q": ("--dividend-yield",),
    "sigma": ("--vol",),
    "repo_rate": ("--repo-rate", "--repo-spread"),
    "rebate_rate": ("--rebate-rate", "--rebate-spread"),
    "repo_haircut": ("--repo-haircut", "--haircut"),
    "sec_haircut": ("--sec-haircut", "--haircut"),
    "expiry": ("--expiry", "--expiries"),
}

# most spreads one fva-curve case may sweep
MAX_CURVE_SPREADS = 1000


def _emit(text: str, output: str | None) -> None:
    if output and output != "-":
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {output}: {exc.strerror or exc}",
                              field="output") from exc
    else:
        click.echo(text, nl=False)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _emit_table(kw, command: str, records: list[dict], report=None) -> None:
    """`records` as CSV under `# fva-pricer v1 <command>`, or as JSON: `report`
    when given, else the records themselves."""
    if kw["fmt"] == "json":
        text = _json_text(records if report is None else report)
    else:
        lines = [f"# {CSV_VERSION} {command}", ",".join(records[0])]
        for record in records:
            lines.append(",".join(format(float(v), ".10g") if isinstance(v, float) else str(v)
                                  for v in record.values()))
        text = "\n".join(lines) + "\n"
    _emit(text, kw["output"])


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _config_message(exc: ConfigError) -> str:
    """`<flag>: <ErrorClass>, <message>` when a flag of this command set the field."""
    if exc.field is None:
        return str(exc)
    params = click.get_current_context().command.params
    opts = {opt for p in params for opt in p.opts}
    candidates = FIELD_FLAGS.get(exc.field, ("--" + exc.field.replace("_", "-"),))
    flags = [f for f in candidates if f in opts]
    if not flags:
        return str(exc)
    return f"{'/'.join(flags)}: {type(exc).__name__}, {exc}"


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


def _apply_config_file(kw: dict) -> dict:
    """Overlay config-file values onto parameters left at their defaults."""
    path = kw.get("config")
    if not path:
        return kw
    ctx = click.get_current_context()
    by_name = {}
    for p in ctx.command.params:
        by_name[p.name] = p
        for opt in p.opts:
            by_name[opt.lstrip("-").replace("-", "_")] = p
    for name, raw in _read_kv_file(path).items():
        param = by_name.get(name)
        if param is None:
            raise ConfigError(f"unknown key {name!r}", field="config")
        src = ctx.get_parameter_source(param.name)
        if src is not None and src.name == "COMMANDLINE":
            continue
        kw[param.name] = param.type.convert(raw, param, ctx)
    return kw


@click.group()
@click.version_option(version="0.1.0", prog_name="fva-pricer")
def main() -> None:
    """Option pricing with funding costs."""


# ---------------------------------------------------------------------------
# option groups and the command skeleton
# ---------------------------------------------------------------------------

MARKET = [
    click.Option(["--spot"], type=float, default=100.0, show_default=True,
                 help="Stock price."),
    click.Option(["--expiry"], type=float, default=2.0, show_default=True,
                 help="Time to expiry in years."),
    click.Option(["--rate"], type=float, default=0.10, show_default=True,
                 help="Risk-free deposit rate."),
    click.Option(["--vol"], type=float, default=0.5, show_default=True,
                 help="Lognormal volatility."),
    click.Option(["--dividend-yield"], type=float, default=0.0, show_default=True,
                 help="Continuous dividend yield."),
]

FUNDING = [
    click.Option(["--borrow-rate"], type=float, default=None,
                 help="Unsecured borrowing rate (absolute)."),
    click.Option(["--borrow-spread"], type=float, default=None,
                 help="Unsecured spread over --rate."),
    click.Option(["--repo-rate"], type=float, default=None,
                 help="Secured financing rate for long stock (absolute)."),
    click.Option(["--repo-spread"], type=float, default=None,
                 help="Repo spread over --rate."),
    click.Option(["--rebate-rate"], type=float, default=None,
                 help="Rebate on stock-borrow cash margin (absolute)."),
    click.Option(["--rebate-spread"], type=float, default=None,
                 help="Rebate spread over --rate (usually negative)."),
    click.Option(["--repo-haircut"], type=float, default=0.0, show_default=True),
    click.Option(["--sec-haircut"], type=float, default=0.0, show_default=True),
    click.Option(["--no-repo"], is_flag=True, default=False,
                 help="Fund the whole stock hedge unsecured."),
]


def _grid(nodes: int = 2000) -> list[click.Option]:
    return [
        click.Option(["--nodes"], type=int, default=nodes, show_default=True,
                     help="Spatial grid nodes."),
        click.Option(["--dt"], type=float, default=0.02, show_default=True,
                     help="Time step in years."),
    ]


OUTPUT = [
    click.Option(["--format", "fmt"], type=click.Choice(["csv", "json"]),
                 default="csv", show_default=True),
    click.Option(["--output"], type=str, default="-", show_default=True,
                 help="Output path, '-' for stdout."),
    click.Option(["--config"], type=click.Path(exists=True, dir_okay=False),
                 default=None, help="key=value file mirroring flag names."),
]


def command(*groups: list[click.Option], without: tuple[str, ...] = ()):
    """Register the decorated function as a command of `main`.

    The command takes its own options, then those of `groups` not named in
    `without`.  The body gets every value with the `--config` file overlaid,
    and library errors become the documented exit codes.
    """
    def register(fn):
        @functools.wraps(fn)
        def run(**kw):
            try:
                fn(**_apply_config_file(kw))
            except NoConvergence as exc:
                _fail(3, str(exc))
            except ConfigError as exc:
                _fail(2, _config_message(exc))
            except PricingError as exc:
                _fail(2, str(exc))

        cmd = main.command()(run)
        cmd.params += [opt for group in groups for opt in group if opt.name not in without]
        return cmd
    return register


def _resolve_rate(kw, name: str) -> float:
    """--<name>-rate, else --rate plus --<name>-spread, else --rate."""
    absolute, spread = kw[f"{name}_rate"], kw[f"{name}_spread"]
    if absolute is not None and spread is not None:
        raise ConfigError(f"--{name}-rate and --{name}-spread are mutually exclusive")
    if absolute is not None:
        return absolute
    return kw["rate"] if spread is None else kw["rate"] + spread


def _funding_config(kw) -> FundingConfig:
    """FundingConfig from the flags; FundingConfig itself validates them."""
    return FundingConfig(
        r=kw["rate"], r_b=_resolve_rate(kw, "borrow"), q=kw["dividend_yield"],
        sigma=kw["vol"], repo_rate=_resolve_rate(kw, "repo"),
        repo_haircut=kw["repo_haircut"], rebate_rate=_resolve_rate(kw, "rebate"),
        sec_haircut=kw["sec_haircut"], no_repo=kw["no_repo"])


# ---------------------------------------------------------------------------
# price
# ---------------------------------------------------------------------------

@command(MARKET, FUNDING, _grid(), OUTPUT)
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
def price(**kw) -> None:
    """Bid, ask, and risk-free reference quote for an option or a book."""
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
    quote = {
        "bid": bid.price,
        "ask": ask.price,
        "mid_reference": mid.price,
        "f_b": fva(Side.BID, bid.price, mid.price),
        "f_a": fva(Side.ASK, ask.price, mid.price),
        "delta": greeks.delta,
        "gamma": greeks.gamma,
    }
    quote = {k: float(v) for k, v in quote.items()}
    _emit_table(kw, "price", [quote], report=quote)


# ---------------------------------------------------------------------------
# fva-curve
# ---------------------------------------------------------------------------

@command(MARKET, _grid(), OUTPUT)
@click.option("--kind", type=click.Choice(["call", "put"]), default="put",
              show_default=True)
@click.option("--strike", type=float, default=100.0, show_default=True)
@click.option("--spread-max", type=float, default=0.04, show_default=True)
@click.option("--spread-step", type=float, default=0.0025, show_default=True)
@click.option("--engine", type=click.Choice(["analytic", "pde"]),
              default="analytic", show_default=True)
def fva_curve(**kw) -> None:
    """Long-position funding adjustment versus the unsecured spread.

    Four stock-financing cases are swept: no secured financing at all,
    zero haircut with a 50 bp repo spread, 35% haircut with 50 bp, and
    35% haircut with 150 bp.
    """
    r, vol, q = kw["rate"], kw["vol"], kw["dividend_yield"]
    kind, spot, strike, expiry = kw["kind"], kw["spot"], kw["strike"], kw["expiry"]
    step, top = kw["spread_step"], kw["spread_max"]
    _require_positive(spread_step=step)
    if not (math.isfinite(top) and top >= 0):
        raise ConfigError(f"spread_max={top} must be finite and >= 0", field="spread_max")
    # the last spread n * step is at most spread_max, up to float rounding:
    # 0.3 / 0.1 is 2.9999999999999996 and still sweeps 0.3
    n = top / step * (1.0 + 1e-9)
    if not n < MAX_CURVE_SPREADS:
        raise ConfigError(f"spread_max/spread_step={top / step:.6g} sweeps more than "
                          f"{MAX_CURVE_SPREADS} spreads", field="spread_step")
    spreads = [i * step for i in range(math.floor(n) + 1)]

    # the solver's funding tolerance, 1e-10 * strike: a reference at or below it
    # is noise, and the adjustment would divide by it
    floor = 1e-10 * strike

    def positive(reference: float) -> float:
        if not reference > 0:
            raise ConfigError(f"risk-free price {reference} is not > 0; the adjustment "
                              "is a percentage of it")
        if reference <= floor:
            raise ConfigError(f"risk-free price {reference} is at or below the solver "
                              f"tolerance {floor:g} (1e-10 * strike); the adjustment is "
                              "a percentage of it")
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
    _emit_table(kw, "fva-curve", [
        {"case": name, "spread": float(spread),
         "fva_percent": float(100.0 * (reference - bid) / reference)}
        for (name, spread), bid in zip(cases, bids)])


# ---------------------------------------------------------------------------
# netting
# ---------------------------------------------------------------------------

@command(MARKET, FUNDING, _grid(nodes=800), OUTPUT, without=("expiry",))
@click.option("--strategy", type=click.Choice(list(STRATEGIES)), required=True)
@click.option("--strikes", type=str, default="95,105", show_default=True,
              help="Comma-separated strikes as the strategy requires.")
@click.option("--expiries", type=str, default="0.5,1,2", show_default=True,
              help="Comma-separated expiries in years.")
def netting(**kw) -> None:
    """Netted versus synthetic bid/ask spread of a strategy across expiries."""
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

    reports = list(zip(expiries, netting_reports(books(), config)))
    _emit_table(kw, "netting", [
        {"expiry": float(t), "netted_spread": rep.netted_spread,
         "synthetic_spread": rep.synthetic_spread, "netting_effect": rep.netting_effect}
        for t, rep in reports],
        report=[{"strategy": kw["strategy"], "expiry": t, **rep.to_dict()}
                for t, rep in reports])


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------

TABLE1_TOLERANCES = {"price": 5e-3, "delta": 5e-4, "gamma": 1e-4}


@command(MARKET, _grid(), OUTPUT)
@click.option("--strike", type=float, default=100.0, show_default=True)
def table1(**kw) -> None:
    """Check the FD engine against the closed form on the calibration case.

    Exits 4 when any absolute difference exceeds its tolerance
    (price 5e-3, delta 5e-4, gamma 1e-4).
    """
    config = FundingConfig.classic(r=kw["rate"], sigma=kw["vol"],
                                   q=kw["dividend_yield"])
    spot, strike, expiry = kw["spot"], kw["strike"], kw["expiry"]
    kinds = ("call", "put")
    books = [Portfolio.single(kind, strike, expiry) for kind in kinds]
    fds = solve_many((portfolio, Side.RISK_FREE, config, PdeGrid.for_portfolio(
        spot, portfolio, config, n_nodes=kw["nodes"], dt=kw["dt"])) for portfolio in books)
    records = []
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
            records.append({"option": kind, "metric": metric, "analytic": float(a),
                            "fd": float(b), "abs_diff": float(diff),
                            "tolerance": float(tol), "status": status})
    _emit_table(kw, "table1", records)
    if not ok:
        sys.exit(4)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

@command(MARKET, FUNDING, _grid(nodes=1000), OUTPUT, without=("dt", "fmt"))
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
def simulate(**kw) -> None:
    """Hedge an option in the funded economy and summarize terminal wealth."""
    config = _funding_config(kw)
    side = Side(kw["side"])
    option = OptionLeg(kw["kind"], kw["strike"])
    oracle = None
    if kw["oracle"] == "pde":
        oracle = PdeOracle(option, kw["spot"], kw["expiry"], side, config,
                           n_steps=kw["steps"], n_nodes=kw["nodes"])
    summary = simulate_hedge(option, kw["spot"], kw["expiry"], side, config,
                             n_paths=kw["paths"], n_steps=kw["steps"],
                             mu=kw["mu"], seed=kw["seed"], oracle=oracle,
                             pde_nodes=kw["nodes"])
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


@command(_grid(nodes=800), OUTPUT)
@click.option("--fixture", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Option-chain JSON; defaults to the packaged sample.")
@click.option("--borrow-spread", type=float, default=0.03, show_default=True)
@click.option("--repo-spread", type=float, default=0.007, show_default=True)
@click.option("--haircut", type=float, default=0.25, show_default=True)
def spread_demo(**kw) -> None:
    """Model bid/ask spreads next to a sample long-dated option chain.

    Implies the dividend yield from at-the-money put-call parity and a
    per-strike volatility from the mid prices, then prices each option on
    both sides of the funded economy.  Illustrative only: the chain file
    records its own market-data assumptions.
    """
    spot, expiry, r, quotes = _load_chain(kw["fixture"])
    atm = min(quotes, key=lambda row: abs(row["strike"] - spot))
    k_atm = atm["strike"]
    parity = atm["mid_call"] - atm["mid_put"] + k_atm * math.exp(-r * expiry)
    if parity <= 0:
        raise ConfigError("fixture violates put-call parity bounds", field="fixture")
    q = -math.log(parity / spot) / expiry

    config_base = dict(r=r, r_b=r + kw["borrow_spread"], q=q,
                       repo_rate=r + kw["repo_spread"], repo_haircut=kw["haircut"],
                       rebate_rate=r - kw["repo_spread"], sec_haircut=kw["haircut"])
    sigmas = []

    def books():
        for row in quotes:
            strike = row["strike"]
            sigma = 0.5 * sum(implied_vol(kind, spot, strike, expiry, r, q, row[f"mid_{kind}"])
                              for kind in ("call", "put"))
            sigmas.append(sigma)
            config = FundingConfig(sigma=sigma, **config_base)
            for kind in ("call", "put"):
                portfolio = Portfolio.single(kind, strike, expiry)
                yield portfolio, config, PdeGrid.for_portfolio(
                    spot, portfolio, config, n_nodes=kw["nodes"], dt=kw["dt"])

    spreads = iter(ask.price - bid.price for bid, ask in quote_many(books()))
    _emit_table(kw, "spread-demo", [
        {"strike": row["strike"], "market_call_spread": row["call_spread"],
         "model_call_spread": next(spreads), "market_put_spread": row["put_spread"],
         "model_put_spread": next(spreads), "implied_vol": float(sigma)}
        for row, sigma in zip(quotes, sigmas)])


if __name__ == "__main__":
    main()
