"""The benchmark's own check on the `sweep` requests that once failed it.

Requests 195 and 627 of seeds 2, 5 and 6 are 400-node `fva-curve` puts.
With the raw payoff at the strike's node, three of them put the `no_repo`
curve at spread 0.04 0.0209-0.0216 percentage points from the analytic
one, above the check's 0.02.  This runs all six through the CLI and the
benchmark's check, so the tier-1 suite catches a change that loses the
cell-averaged payoff's accuracy.  It only reads `perfbench/`.
"""

import importlib
import itertools
from pathlib import Path

import pytest
from click.testing import CliRunner

from fva_pricer.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("seed", [2, 5, 6])
def test_once_failing_sweep_requests_pass_the_benchmark_check(tmp_path, monkeypatch, seed):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    stream = workloads.stream("sweep", seed, tmp_path)
    for i, req in enumerate(itertools.islice(stream, 628)):
        if i not in (195, 627):
            continue
        assert req.check is workloads.check_fva_curve and not req.files
        result = CliRunner().invoke(main, req.args)
        assert result.exit_code == 0, (req.args, result.output)
        assert workloads.check_fva_curve(req.spec, result.stdout) == [], (i, req.args)
