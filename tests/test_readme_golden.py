"""Byte-exact CLI output of the README commands and a few heavier variants.

Each case's stdout is stored under tests/data/readme_golden/<name>.out.  A
change that alters any of these bytes on purpose must say why and re-record
them with ``PYTHONPATH=src python tests/test_readme_golden.py``.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from fva_pricer.cli import main

GOLDEN = Path(__file__).parent / "data" / "readme_golden"
BULL = str(GOLDEN / "bull.json")
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
}


def run(args: list[str]) -> bytes:
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result.stdout_bytes


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name):
    assert run(CASES[name]) == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__":
    for name, args in CASES.items():
        (GOLDEN / f"{name}.out").write_bytes(run(args))
