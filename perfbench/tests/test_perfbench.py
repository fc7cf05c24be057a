"""Tests of the benchmark itself: span arithmetic, wrapper removal, one
solve of every workload traced and untraced, and the result line."""

import gzip
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run  # noqa: E402
from spans import Probe, SpanStats, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] -> a [1, 4] -> b [2, 3];  root -> c [5, 9]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    assert self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_span_stats_per_solve_and_rates():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))

    class Root:
        query_count = 0

    root = Root()
    for solve in range(2):
        with tr.solve(solve, root):
            g = tr.enter("gate")
            root.query_count += 8
            tr.exit(g, outcome=solve)    # first solve rejects, second passes
    stats = SpanStats(tr.names, tr.columns(), solves=2)
    assert stats.per_solve_count("gate") == 1.0
    assert stats.queries("gate") == 8.0
    assert stats.queries("solve") == 8.0
    assert stats.total_s("gate") == 1.0
    assert stats.self_s("solve") == 2.0
    assert stats.rate(["gate"], {0}) == 0.5
    assert stats.rate(["absent"], {0}) == 0.0


def test_spans_written_as_json_lines(tmp_path):
    tr = Tracer()
    with tr.solve(0, None):
        tr.exit(tr.enter("gate"), outcome=1)
    path = tmp_path / "spans.jsonl.gz"
    assert tr.write_jsonl(path) == 2
    with gzip.open(path, "rt") as fh:
        rows = [json.loads(line) for line in fh]
    assert [(r["name"], r["parent"], r["outcome"]) for r in rows] == \
        [("solve", -1, -1), ("gate", 0, 1)]
    assert rows[1]["start"] <= rows[1]["end"] <= rows[0]["end"]


def test_benchmark_json_lists_what_the_runs_print():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert tuple(m["name"] for m in bench["end_to_end"]) == run.GATED
    traced = [m for m, _, _ in layers.METRICS] + \
        ["trace.solve_s", "trace.untraced_solve_s_p50", "trace.overhead"] + \
        [f"solve.{m}" for m in run.LUCK]
    assert sorted(m["name"] for m in bench["per_layer"]) == sorted(traced)
    assert tuple(w["name"] for w in bench["workloads"]) == run.WORKLOAD_NAMES
    assert set(run.WORKLOAD_NAMES) == set(WORKLOADS)


def test_every_wrapper_is_removed():
    probes = layers.probes(0.1)
    before = [vars(p.owner)[p.attr] for p in probes]
    tr = Tracer()
    with pytest.raises(RuntimeError):
        with tr.installed(probes):
            assert all(vars(p.owner)[p.attr] is not b
                       for p, b in zip(probes, before))
            raise RuntimeError("interrupt the traced run")
    assert all(vars(p.owner)[p.attr] is b for p, b in zip(probes, before))


def test_wrapper_records_outcome_and_passes_result_through():
    class Box:
        @staticmethod
        def f(x):
            return x * 2

    tr = Tracer()
    with tr.installed([Probe(Box, "f", "box.f", lambda a, r, s: r)]):
        assert Box.f(5) == 10            # outside a solve: not recorded
        with tr.solve(0, None):
            assert Box.f(21) == 42
    assert Box.f(1) == 2 and tr.names == ["solve", "box.f"]
    assert tr.columns()["outcome"].tolist() == [-1, 42]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_smoke_traced_equals_untraced(name):
    w = WORKLOADS[name]
    inst = w.plant(seed=3, index=0)
    assert w.plant(seed=3, index=0).table == inst.table
    plain = run.solve_one(w, inst)
    assert plain.invariant_errors == ()
    assert plain.error is None and plain.queries > 0
    tr = Tracer()
    with tr.installed(layers.probes(w.tau_accept)):
        traced = run.solve_one(w, inst, tr)
    assert traced.counts() == plain.counts()
    stats = SpanStats(tr.names, tr.columns(), solves=1)
    assert stats.queries("solve") == plain.queries
    metrics = {m: fn(stats) for m, _, fn in layers.METRICS}
    assert all(np.isfinite(v) and v >= 0 for v in metrics.values())
    assert metrics["fourier.gate_queries"] > 0


def test_command_prints_contract_line(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(WORKLOADS["fq-noisy-n6"], "instances", 2)
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    for trace, names in ((0, run.GATED),
                         (1, ["bsg.phi_s", "trace.overhead", "solve.solve_s_p50"])):
        assert run.main(["--workload", "fq-noisy-n6", "--seed", "5",
                         "--seconds", "0", "--trace", str(trace)]) == 0
        last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["attempted"] == 2
        assert all(n in last["metrics"] for n in names)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "fq-noisy-n6", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
