"""Replay benchmark request streams untimed and report every check failure.

    python3 scripts/check_stream.py --workload sweep --seeds 1-32 --requests 1500 \\
        --command fva-curve

For each seed it runs the first N requests of the workload's stream
(`perfbench/workloads.py`) through the CLI in process, keeping those of
one command if `--command` names it, and checks each output as the
benchmark does.  It prints every failing request, then one line per seed:
requests run, failures, the worst |PDE - analytic| over the fva-curve rows
in percentage points (the check allows FVA_CURVE_TOL_PP), and the SHA-256
of the requests' stdout, which must not move under a change that claims
the same bytes.  Exits 1 if any request failed.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import references as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def fva_curve_error(req: workloads.Request, out: str) -> float:
    """Largest |PDE - analytic| over the rows of one fva-curve output, in percentage points."""
    m, worst = req.spec["market"], 0.0
    for line in out.splitlines()[2:]:
        case, spread, value = line.split(",")
        want = ref.fva_curve_percent(case, float(spread), req.spec["kind"], workloads.SPOT,
                                     req.spec["strike"], workloads.EXPIRY, m["r"], m["q"],
                                     m["sigma"])
        worst = max(worst, abs(float(value) - want))
    return worst


def check_seed(main, workload: str, seed: int, requests: int, command: str | None,
               work: Path) -> int:
    """Run and check one seed's requests; print its failures and summary; return the failures."""
    digest, count, failed, worst = hashlib.sha256(), 0, 0, None
    for i, req in zip(range(requests), workloads.stream(workload, seed, work)):
        if command is not None and req.args[0] != command:
            continue
        for path, text in req.files.items():
            Path(path).write_text(text)
        code, out, err = run.invoke(main, req.args)
        digest.update(out.encode())
        count += 1
        fails = run.check(req, code, out, err)
        if fails:
            failed += 1
            print(f"seed {seed} request {i}: {fails} args={req.args}", flush=True)
        if req.check is workloads.check_fva_curve and code == 0:
            try:
                error = fva_curve_error(req, out)
            except (ValueError, KeyError):
                continue  # unreadable rows; the check reported them
            worst = error if worst is None else max(worst, error)
    shown = "none" if worst is None else \
        f"{worst:.4f} pp (tolerance {workloads.FVA_CURVE_TOL_PP})"
    print(f"seed {seed}: {count} requests, {failed} failed, worst fva-curve error {shown}, "
          f"stdout sha256 {digest.hexdigest()}", flush=True)
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="one seed, or an inclusive range A-B")
    parser.add_argument("--requests", type=int, required=True,
                        help="replay the first N requests of each seed's stream")
    parser.add_argument("--command", help="run only the requests of this CLI command")
    args = parser.parse_args(argv)

    cli = run.load_cli()
    failed = 0
    with tempfile.TemporaryDirectory() as work:
        for seed in args.seeds:
            failed += check_seed(cli, args.workload, seed, args.requests, args.command,
                                 Path(work))
    print(f"{failed} failed requests over seeds {args.seeds.start}-{args.seeds.stop - 1}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
