"""CLI input handling: one validation path, one quote path."""

import json

import pytest
from click.testing import CliRunner

from fva_pricer.cli import main

FUNDED = ["--borrow-spread", "0.03", "--repo-spread", "0.005",
          "--rebate-spread", "-0.005", "--repo-haircut", "0.25",
          "--sec-haircut", "0.15"]


def invoke(args):
    return CliRunner().invoke(main, args)


@pytest.mark.parametrize("args,flag", [
    (["--rate", "nan"], "--rate"),
    (["--dividend-yield", "nan"], "--dividend-yield"),
    (["--dt", "0"], "--dt"),
    (["--dt", "nan"], "--dt"),
    (["--spot", "inf"], "--spot"),
])
def test_nonfinite_price_inputs_exit_2_naming_the_flag(args, flag):
    result = invoke(["price", "--kind", "put", "--nodes", "200", *args])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert result.stderr.startswith(f"error: {flag}: ConfigError, ")


def test_flags_named_only_where_the_command_has_them():
    # spread-demo sets both haircuts from one flag
    result = invoke(["spread-demo", "--haircut", "1.2"])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: --haircut: InvalidHaircut, ")
    # fva-curve has no borrow flag; its spreads come from the sweep
    result = invoke(["fva-curve", "--spread-max", "-0.02", "--spread-step", "-0.01"])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: unsecured rate r_b=")


@pytest.mark.parametrize("style", ["european", "american"])
@pytest.mark.parametrize("side", ["all", "ask"])
def test_single_option_prices_like_its_one_leg_book(tmp_path, style, side):
    book = tmp_path / "one.json"
    book.write_text(json.dumps({"expiry": 1.5, "style": style,
                                "legs": [{"kind": "put", "strike": 95.0, "qty": 1.0}]}))
    common = [*FUNDED, "--expiry", "1.5", "--side", side, "--nodes", "200",
              "--dt", "0.1"]
    single = invoke(["price", "--kind", "put", "--strike", "95", "--style", style,
                     *common])
    as_book = invoke(["price", "--portfolio", str(book), *common])
    assert single.exit_code == as_book.exit_code == 0
    assert single.stdout_bytes == as_book.stdout_bytes
