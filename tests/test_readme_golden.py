"""Byte-exact CLI output of the README commands and a few heavier variants.

Each case's stdout is stored under tests/data/readme_golden/<name>.out.  A
change that alters any of these bytes on purpose must say why and re-record
them with ``PYTHONPATH=src python tests/test_readme_golden.py``.
"""

import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from fva_pricer.cli import main

GOLDEN = Path(__file__).parent / "data" / "readme_golden"
BULL = str(GOLDEN / "bull.json")
README = Path(__file__).parent.parent / "README.md"
FUNDED = ["--borrow-spread", "0.03", "--repo-spread", "0.005",
          "--rebate-spread", "-0.005", "--repo-haircut", "0.25",
          "--sec-haircut", "0.15"]
NETTING = ["netting", "--strategy", "bull", "--strikes", "95,105",
           "--expiries", "0.5,1,2", *FUNDED]

CASES = {
    # the seven README CLI commands, as written there
    "price_riskfree_analytic": [
        "price", "--kind", "put", "--spot", "100", "--strike", "100",
        "--expiry", "2", "--rate", "0.10", "--vol", "0.5", "--side", "riskfree",
        "--engine", "analytic"],
    "price_funded_pde": [
        "price", "--kind", "put", *FUNDED, "--nodes", "2000", "--dt", "0.02",
        "--format", "json"],
    "fva_curve": [
        "fva-curve", "--kind", "put", "--spread-max", "0.04",
        "--spread-step", "0.0025"],
    "netting_bull": NETTING,
    "table1": ["table1", "--nodes", "2000", "--dt", "0.02"],
    "simulate": [
        "simulate", "--kind", "put", "--rate", "0.10", "--paths", "10000",
        "--steps", "250", "--mu", "0.10", "--seed", "42"],
    "spread_demo": ["spread-demo"],
    # the README bull book, a PDE fva curve, JSON netting and an American quote
    "price_portfolio_bull": [
        "price", "--portfolio", BULL, "--borrow-spread", "0.03", "--format", "json"],
    "fva_curve_pde": ["fva-curve", "--engine", "pde", "--nodes", "400", "--dt", "0.04"],
    "netting_bull_json": [*NETTING, "--format", "json"],
    "price_american_funded": [
        "price", "--kind", "put", "--style", "american", *FUNDED,
        "--nodes", "200", "--dt", "0.05", "--format", "json"],
    # a funded low-vol quote whose operator upwinds (11 bid, 9 ask nodes) and a
    # straddle netted with the whole hedge funded unsecured
    "price_funded_upwinded": [
        "price", "--kind", "put", "--vol", "0.1", *FUNDED,
        "--nodes", "400", "--dt", "0.04", "--format", "json"],
    "netting_straddle_no_repo": [
        "netting", "--strategy", "straddle", "--strikes", "100",
        "--expiries", "0.5,1,2", "--borrow-spread", "0.03", "--no-repo",
        "--nodes", "400", "--dt", "0.04"],
    # the PDE-surface hedge oracle, and a funded American call whose dividend
    # makes early exercise bind
    "simulate_pde_oracle": [
        "simulate", "--kind", "put", "--side", "ask", *FUNDED, "--oracle", "pde",
        "--nodes", "400", "--paths", "2000", "--steps", "100", "--seed", "7"],
    "price_american_call_dividend": [
        "price", "--kind", "call", "--style", "american", "--dividend-yield", "0.03",
        *FUNDED, "--nodes", "200", "--dt", "0.05", "--format", "json"],
    # the JSON reports of the tabular commands, and a quote read from a
    # --config file with one flag overriding it
    "fva_curve_json": ["fva-curve", "--format", "json"],
    "table1_json": ["table1", "--format", "json"],
    "spread_demo_json": ["spread-demo", "--format", "json"],
    "price_config_file": [
        "price", "--config", str(GOLDEN / "funded_put.cfg"), "--vol", "0.4"],
}


def run(args: list[str]) -> bytes:
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result.stdout_bytes


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name):
    assert run(CASES[name]) == (GOLDEN / f"{name}.out").read_bytes()


def readme_commands() -> list[list[str]]:
    """argv of every `fva-pricer` command in README.md's bash blocks."""
    blocks = re.findall(r"```bash\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [[BULL if tok == "bull.json" else tok for tok in shlex.split(line)[1:]]
            for line in lines if line.startswith("fva-pricer ")]


def test_every_readme_command_is_a_golden_case():
    commands = readme_commands()
    assert len(commands) == 8
    for argv in commands:
        assert argv in CASES.values(), argv


if __name__ == "__main__":
    for name, args in CASES.items():
        (GOLDEN / f"{name}.out").write_bytes(run(args))
