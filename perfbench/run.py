"""fva-pricer benchmark: the README CLI commands driven in-process.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 55 --trace 0

One client sends requests in a closed loop (a desk waits for each quote
before asking for the next).  With ``--trace 0`` the run reports the
end-to-end metrics: set-up time, request latency (median and tail),
throughput and peak memory.  With ``--trace 1`` it runs a fixed request
list twice, untraced and then traced, and reports per-layer counts and
times; the counts repeat exactly for a given seed.

Every output is checked against references in this directory.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record (failures by request, stdout
digest, environment, input sizes) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

# Set-up is sampled in fresh interpreters, half before the timed loop and
# half after it, so the median spans the run rather than its first seconds.
SETUP_REPEATS = 4
# The CLI's documented exit code for solver non-convergence.  Such a request
# counts as failed and lowers `completed_ratio`, but it is a documented
# refusal, not a wrong answer, so a few leave `correct` true.  Refusals above
# this share of the requests, or any other failure, make `correct` false.
NO_CONVERGENCE_EXIT = 3
MAX_REFUSED_SHARE = 0.05
SETUP_TIMEOUT_S = 60
TAIL_BEYOND = 10

# A fresh interpreter imports the CLI and runs one warm-up request; it
# prints the seconds that took.
SETUP_CODE = """
import contextlib, io, json, sys, time
t0 = time.perf_counter()
from fva_pricer.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main.main(args=json.loads(sys.argv[1]), prog_name="fva-pricer", standalone_mode=False)
print(time.perf_counter() - t0)
"""


def tail_latency(values: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with ten samples beyond it.

    With n sorted samples that is the sample at rank n - 10 (1-based), the
    (n - 10) / n percentile.  Fewer than eleven samples have no such
    percentile; the maximum is returned as the 100th.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def invoke(main, args: list[str]) -> tuple[int, str, str]:
    """Run one CLI request in-process: (exit code, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=args, prog_name="fva-pricer", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # a traceback is a failed request, not a crash
            code = 1
            err.write(f"{type(exc).__name__}: {exc}")
    return code, out.getvalue(), err.getvalue()


def check(req, code: int, out: str, err: str) -> list[str]:
    if code != 0:
        return [f"exit {code}: {err.strip()[-300:]}"]
    try:
        return req.check(req.spec, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output ({type(exc).__name__}: {exc}): {out[:200]!r}"]


def load_cli():
    """Import fva_pricer.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "fva_pricer" / "cli.py").is_file():
        sys.exit(f"perfbench: no fva_pricer source at {SRC}")
    sys.path.insert(0, str(SRC))
    from fva_pricer import cli
    if Path(cli.__file__).resolve().parent != SRC / "fva_pricer":
        sys.exit(f"perfbench: imported {cli.__file__}, not the checkout's source")
    return cli.main


def measure_setup(warmup: list[str], repeats: int) -> list[float]:
    """Seconds to import the CLI and serve one request, in fresh interpreters."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, json.dumps(warmup)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up run failed: {proc.stderr[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def environment(seed: int) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "git_commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD of the checkout; None when the checkout is not a git repository."""
    if not (ROOT / ".git").exists():
        return None  # never report the HEAD of an enclosing repository
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_requests(main, requests, until: float | None, tracer: Tracer | None = None):
    """Closed loop: send each request after the previous one completes.

    Stops when `requests` is exhausted or, with `until`, at that clock time.
    Returns (records, wall seconds); each record is (request, code, stdout,
    error text, latency seconds).
    """
    records = []
    start = time.perf_counter()
    for i, req in enumerate(requests):
        if until is not None and time.perf_counter() >= until:
            break
        for path, text in req.files.items():
            Path(path).write_text(text)
        span = tracer.begin_request(i) if tracer else None
        t0 = time.perf_counter()
        code, out, err = invoke(main, req.args)
        latency = time.perf_counter() - t0
        if span is not None:
            tracer.end_request(span)
        records.append((req, code, out, err, latency))
    return records, time.perf_counter() - start


def failures(records) -> list[dict]:
    listed = []
    for i, (req, code, out, err, _) in enumerate(records):
        msgs = check(req, code, out, err)
        if msgs:
            listed.append({"request": i, "args": req.args, "failures": msgs,
                           "refused": code == NO_CONVERGENCE_EXIT})
    return listed


def is_correct(failed: list[dict], attempted: int) -> bool:
    """No wrong answers, and refusals within MAX_REFUSED_SHARE of the requests."""
    refused = sum(f["refused"] for f in failed)
    return refused == len(failed) and refused <= MAX_REFUSED_SHARE * attempted


def digest(records) -> str:
    h = hashlib.sha256()
    for _, _, out, _, _ in records:
        h.update(out.encode())
    return h.hexdigest()


def end_to_end(args, wl, main, work: Path) -> tuple[dict, dict]:
    setup = measure_setup(wl.warmup, SETUP_REPEATS // 2)
    invoke(main, wl.warmup)
    records, wall = run_requests(main, workloads.stream(args.workload, args.seed, work),
                                 until=time.perf_counter() + args.seconds)
    setup += measure_setup(wl.warmup, SETUP_REPEATS - SETUP_REPEATS // 2)
    failed = failures(records)
    lat_ms = [1000.0 * r[4] for r in records]
    tail, pct = tail_latency(lat_ms)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "request_p50_ms": (statistics.median(lat_ms), "ms"),
        "request_tail_ms": (tail, "ms"),
        "requests_per_s": (len(records) / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "completed_ratio": ((len(records) - len(failed)) / len(records), "ratio"),
    }
    path_steps = sum(r[0].path_steps for r in records)
    first = records[:wl.trace_requests]
    extra = {
        "records": records,
        "failed": failed,
        "samples": {"setup_s": len(setup), "request_ms": len(lat_ms)},
        "setup_s_all": setup,
        "request_tail_percentile": pct,
        "failed_ratio": len(failed) / len(records),
        "latencies_ms": lat_ms,
        "path_steps_per_s": path_steps / wall if path_steps else None,
        "wall_s": wall,
        "stdout_sha256": digest(first),
        "stdout_sha256_requests": len(first),
    }
    return metrics, extra


def per_layer(args, wl, main, work: Path) -> tuple[dict, dict]:
    requests = [req for _, req in zip(range(wl.trace_requests),
                                      workloads.stream(args.workload, args.seed, work))]
    invoke(main, wl.warmup)
    plain, plain_wall = run_requests(main, requests, until=None)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_wall = run_requests(main, requests, until=None, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer.spans)
    rps_plain = len(plain) / plain_wall
    rps_traced = len(traced) / traced_wall
    hedge_busy = metrics["replication.simulate_hedge.busy_s"][0]
    path_steps = sum(r.path_steps for r in requests)
    metrics["replication.path_steps_per_s"] = (
        path_steps / hedge_busy if hedge_busy else 0.0, "1/s")
    metrics["trace.overhead_rps"] = (rps_plain - rps_traced, "1/s")
    plain_digest, traced_digest = digest(plain), digest(traced)
    failed = failures(traced)
    if plain_digest != traced_digest:
        failed.append({"request": None, "args": None,
                       "failures": ["traced and untraced stdout differ"], "refused": False})
    extra = {
        "records": traced,
        "failed": failed,
        "requests_per_s_untraced": rps_plain,
        "requests_per_s_traced": rps_traced,
        "spans": len(tracer.spans),
        "stdout_sha256": traced_digest,
        "stdout_sha256_requests": len(traced),
        "deterministic_stdout": plain_digest == traced_digest,
    }
    return metrics, extra


def default_seconds() -> float:
    return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=default_seconds(),
                        help="length of the timed loop with --trace 0 (default: run_seconds "
                             "of BENCHMARK.json); --trace 1 runs a fixed request list so "
                             "that its counts repeat, and does not use it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli_main = load_cli()
    wl = workloads.WORKLOADS[args.workload]
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, extra = measure(args, wl, cli_main, work)
        records = extra.pop("records")
        failed = extra.pop("failed")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": is_correct(failed, len(records)),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "sizes": {**wl.sizes, "requests": len(records)},
        **result,
        **extra,
        "failures": failed,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:9s} {name:36s} {value:14.6g} {unit}")
    if not args.trace:
        print(f"{args.workload:9s} request samples {len(records)}, tail at "
              f"p{extra['request_tail_percentile']:.1f}, "
              f"set-up samples {extra['samples']['setup_s']}")
    for f in failed:
        print(f"FAILED request {f['request']}: {f['failures']} args={f['args']}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
