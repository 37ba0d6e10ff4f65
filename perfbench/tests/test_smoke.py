"""Smoke tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Every workload runs at minimal length in both modes; each must report
every metric named in ``BENCHMARK.json`` with its unit and a
non-negative value, and the end-to-end pass must run with no tracing
wrapper installed.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import ledger  # noqa: E402
import openloop  # noqa: E402
import workloads  # noqa: E402
from repro.mvx import MvteeSystem  # noqa: E402
from repro.serving import TicketState  # noqa: E402

SECONDS = "2"


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def session_members(sid: int) -> list[int]:
    """Pids of every process in session ``sid``."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Fields after the command name: state, ppid, pgrp, session, ...
        if int(stat.rsplit(")", 1)[1].split()[3]) == sid:
            pids.append(int(entry.name))
    return pids


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    """Run the benchmark in its own session; nothing it starts may outlive it."""
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    with subprocess.Popen(
        cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as proc:
        stdout, stderr = proc.communicate(timeout=300)
    assert session_members(proc.pid) == [], "the benchmark left a process running"
    return subprocess.CompletedProcess(cmd, proc.returncode, stdout, stderr)


def test_spec_names_what_the_benchmark_reports():
    doc = spec()
    assert {w["name"] for w in doc["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == workloads.PER_LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_reports_every_metric(name, trace):
    out = run_bench(
        "--workload", name, "--seed", "0", "--seconds", SECONDS, "--trace", trace
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    key = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec()[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric, entry in result["metrics"].items():
        value = entry["value"]
        assert math.isfinite(value) and value >= 0, (metric, value)
        # Every metric is also printed by name with its unit.
        assert any(
            line.split()[:1] == [metric] and line.split()[-1] == entry["unit"]
            for line in out.stdout.splitlines()
        ), metric


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_no_tracing_wrapper_during_e2e_pass(name, monkeypatch):
    seen = []
    original = MvteeSystem.infer_batches

    def spy(self, *args, **kwargs):
        seen.append(ledger.installed_wrappers())
        return original(self, *args, **kwargs)

    monkeypatch.setattr(MvteeSystem, "infer_batches", spy)
    workloads.run(name, seed=0, seconds=1, trace=False)
    assert seen and all(wrapped == [] for wrapped in seen)


def test_traced_pass_does_install_wrappers(monkeypatch):
    seen = []
    original = MvteeSystem.infer_batches

    def spy(self, *args, **kwargs):
        seen.append(ledger.installed_wrappers())
        return original(self, *args, **kwargs)

    monkeypatch.setattr(MvteeSystem, "infer_batches", spy)
    workloads.run("mvx-small", seed=0, seconds=1, trace=True)
    assert any(seen)
    assert ledger.installed_wrappers() == []


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = run_bench(
        "--workload", "mvx-small", "--seed", "0", "--seconds", "1", cwd=tmp_path
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_self_time_subtracts_direct_children():
    spans = [
        (1, "request", 0.0, 10.0, 0, 7, 0, 1),
        (2, "mvx.round_trip", 1.0, 9.0, 1, 7, 0, 1),
        (3, "crypto.seal", 2.0, 4.0, 2, 7, 100, 1),
        (4, "crypto.open", 5.0, 6.0, 2, 7, 100, 1),
    ]
    totals = ledger.aggregate(spans)
    assert totals["request"].self_s == pytest.approx(2.0)
    assert totals["mvx.round_trip"].self_s == pytest.approx(5.0)
    assert totals["crypto.seal"].self_s == pytest.approx(2.0)
    metrics = ledger.layer_metrics(spans, requests=1)
    assert metrics["crypto.records"] == 2
    assert metrics["crypto.bytes"] == 200


class _Ticket:
    def __init__(self):
        self.state = TicketState.DONE

    def add_done_callback(self, fn):
        fn(self)

    def exception(self, timeout=None):
        return None

    def result(self):
        return {}


class _StallingEngine:
    """Accepts every request at once, except one submit that stalls."""

    def __init__(self, stall_at: int, stall_s: float):
        self.calls, self.stall_at, self.stall_s = 0, stall_at, stall_s

    def submit(self, feeds, deadline_s=None):
        self.calls += 1
        if self.calls == self.stall_at:
            time.sleep(self.stall_s)
        return _Ticket()


class _Inputs:
    feeds = [{}]

    def pick(self, n):
        return 0


class _Checker:
    def correct(self, index, outputs):
        return True


def test_open_loop_schedule_is_never_rebased_after_a_stall():
    rate, stall_s = 20.0, 0.3
    segment = openloop.drive(
        _StallingEngine(stall_at=3, stall_s=stall_s), _Inputs(), _Checker(), rate, 1.0, 0
    )
    start = segment.requests[0].due
    for k, request in enumerate(segment.requests):
        assert request.due == pytest.approx(start + k / rate)
    # Requests due during the stall go out late, and their latency is
    # charged from when they were due.
    late = segment.requests[3:7]
    assert all(r.sent - r.due > 0.05 for r in late)
    assert all(r.latency >= r.sent - r.due for r in late)
