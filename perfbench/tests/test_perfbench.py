"""Self-tests of the benchmark: span arithmetic, the tail rule, the reference
pricers, and a short smoke run of every workload.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import references as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, layer_metrics, self_time, union_length  # noqa: E402

PER_LAYER = [m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())
             ["per_layer"]]
COUNTS = ("pde.tridiag.calls", "funding.pattern_updates", "pde.solve.calls",
          "pde.solve_american.calls", "pde.solve_surface.calls", "replication.oracle.calls")


def _span(sid, start, end, parent=None, thread=1):
    s = Span(sid, f"s{sid}", "pde", start, parent, thread, 0)
    s.end = end
    return s


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.75)]) == 4.0


def test_self_time_counts_overlapping_children_from_two_threads_once():
    parent = _span(1, 0.0, 10.0)
    # thread 2 busy over [1, 5], thread 3 over [3, 8]: union 7, sum 9
    children = [_span(2, 1.0, 5.0, 1, thread=2), _span(3, 3.0, 8.0, 1, thread=3)]
    assert self_time(parent, children) == pytest.approx(3.0)
    # a child running past its parent's end only covers the parent's part
    assert self_time(parent, [_span(4, 9.0, 12.0, 1)]) == pytest.approx(9.0)
    parent.inline["tridiag"][1] += 0.5
    assert self_time(parent, children) == pytest.approx(2.5)


def test_worker_thread_spans_hang_off_the_request():
    tracer = Tracer()
    req = tracer.begin_request(0)
    barrier = threading.Barrier(2)

    def work():
        span = tracer.open("pde.solve", "pde")
        barrier.wait()
        time.sleep(0.05)
        tracer.close(span)

    threads = [threading.Thread(target=work) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5)
        assert not t.is_alive()
    tracer.end_request(req)
    solves = [s for s in tracer.spans if s.name == "pde.solve"]
    assert {s.parent for s in solves} == {req.id}
    assert len({s.thread for s in solves}) == 2
    metrics = layer_metrics(tracer.spans)
    assert metrics["cli.fanout_overlap"][0] > 1.5
    assert metrics["cli.self_ms"][0] < 1000.0 * req.duration


def test_tail_rule_keeps_ten_samples_beyond():
    values = list(range(1, 101))
    assert run.tail_latency(values) == (90, 90.0)
    value, pct = run.tail_latency(list(range(11)))
    assert (value, pct) == (0, pytest.approx(100.0 / 11))
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_black_scholes_known_values():
    assert ref.black_scholes("call", 100, 100, 1, 0.05, 0.0, 0.2) == pytest.approx(10.4506, abs=1e-4)
    assert ref.black_scholes("put", 100, 100, 1, 0.05, 0.0, 0.2) == pytest.approx(5.5735, abs=1e-4)


def test_funded_forms_collapse_to_black_scholes_at_equal_rates():
    m = {"r": 0.05, "r_b": 0.05, "q": 0.01, "sigma": 0.3, "repo_rate": 0.05,
         "rebate_rate": 0.05, "repo_haircut": 0.2, "sec_haircut": 0.1}
    for kind in ("call", "put"):
        bs = ref.black_scholes(kind, 100, 95, 2, 0.05, 0.01, 0.3)
        assert ref.long_position(kind, 100, 95, 2, m) == pytest.approx(bs, rel=1e-12)
        assert ref.zero_haircut_ask(kind, 100, 95, 2, m) == pytest.approx(bs, rel=1e-12)
    assert ref.fva_curve_percent("no_repo", 0.0, "put", 100, 100, 2, 0.1, 0.0, 0.5) \
        == pytest.approx(0.0, abs=1e-12)


def test_crr_american_put_matches_longstaff_schwartz_table():
    # Longstaff & Schwartz (2001), table 1: closed-form European values and
    # finite-difference American values, the latter good to about 1e-2
    assert ref.black_scholes("put", 36, 40, 1, 0.06, 0.0, 0.2) == pytest.approx(3.844, abs=1e-3)
    assert ref.crr_american("put", 36, 40, 1, 0.06, 0.0, 0.2, 2000) == pytest.approx(4.478, abs=1e-2)
    assert ref.crr_american("put", 40, 40, 1, 0.06, 0.0, 0.2, 2000) == pytest.approx(2.314, abs=1e-2)
    call = ref.crr_american("call", 100, 100, 1, 0.05, 0.0, 0.2, 2000)
    assert call == pytest.approx(ref.black_scholes("call", 100, 100, 1, 0.05, 0.0, 0.2), abs=1e-2)


def test_streams_repeat_for_a_seed():
    out = HERE / "out" / "selftest"
    first = [r.args for _, r in zip(range(12), workloads.stream("quote", 3, out))]
    again = [r.args for _, r in zip(range(12), workloads.stream("quote", 3, out))]
    other = [r.args for _, r in zip(range(12), workloads.stream("quote", 4, out))]
    assert first == again
    assert first != other


@pytest.fixture(scope="module")
def cli_main():
    return run.load_cli()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_every_workload_without_failures(cli_main, name):
    """Two requests of each workload, traced twice: no failures, every
    per-layer metric reported, identical stdout and identical counts."""
    wl = dataclasses.replace(workloads.WORKLOADS[name], trace_requests=2)
    args = argparse.Namespace(workload=name, seed=11, seconds=1.0, trace=1)
    work = HERE / "out" / f"selftest-{name}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runs = [run.per_layer(args, wl, cli_main, work) for _ in range(2)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for metrics, extra in runs:
        assert set(metrics) == set(PER_LAYER)
        assert run.failures(extra["records"]) == []
        assert extra["deterministic_stdout"]
    assert runs[0][1]["stdout_sha256"] == runs[1][1]["stdout_sha256"]
    counts = [{k: metrics[k] for k in COUNTS} for metrics, _ in runs]
    assert counts[0] == counts[1]


def test_uninstall_restores_the_package(cli_main):
    import fva_pricer.pde as pde
    import fva_pricer.portfolio as portfolio
    before = (pde.solve, pde.solve_banded, portfolio.solve)
    tracer = Tracer()
    tracer.install()
    assert pde.solve is not before[0] and portfolio.solve is pde.solve
    tracer.uninstall()
    assert (pde.solve, pde.solve_banded, portfolio.solve) == before


def test_install_raises_when_a_traced_name_is_gone(cli_main, monkeypatch):
    import fva_pricer.pde as pde
    monkeypatch.delattr(pde, "financing_arrays")
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="financing_arrays"):
        tracer.install()
    tracer.uninstall()


def test_refusals_beyond_their_share_make_a_run_incorrect():
    refusal = {"refused": True}
    wrong = {"refused": False}
    assert run.is_correct([], 1)
    assert run.is_correct([refusal], 40)
    assert not run.is_correct([refusal, refusal, refusal], 40)
    assert not run.is_correct([wrong], 1000)


def test_refuses_to_run_without_the_package_source():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "quote",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
