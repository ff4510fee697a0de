"""The benchmark's own check on the first `hedge` workload requests.

A change to the hedge loop that alters the simulated economy, not only its
speed, fails `perfbench`'s output check; this runs that check on one
request of each side, so the tier-1 suite catches it too.  It only reads
`perfbench/`.
"""

import importlib
import itertools
from pathlib import Path

from click.testing import CliRunner

from fva_pricer.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_first_hedge_requests_pass_the_benchmark_check(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    requests = list(itertools.islice(workloads.stream("hedge", 1, tmp_path), 3))
    assert [req.args[req.args.index("--side") + 1] for req in requests] == \
        ["bid", "ask", "riskfree"]
    for req in requests:
        assert req.check is workloads.check_simulate and not req.files
        result = CliRunner().invoke(main, req.args)
        assert result.exit_code == 0, (req.args, result.output)
        assert workloads.check_simulate(req.spec, result.stdout) == [], req.args
