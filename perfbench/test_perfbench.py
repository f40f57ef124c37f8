"""The benchmark's own tests: every workload at a tiny size, on two
seeds, prints every named metric with its unit and passes its checks;
broken inputs trip the matching check and raise the failure count.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
import os
import random
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import trace  # noqa: E402
from perfbench.run import NAMED_METRICS  # noqa: E402
from perfbench.workloads import (WORKLOADS, CampaignLifecycle,  # noqa: E402
                                 FleetRounds, Outcome, PollSteady,
                                 PortalBrowse, close_deployment, tail)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def run_cli(*args):
    completed = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--tiny", "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    lines = completed.stdout.strip().splitlines()
    return completed.returncode, lines, json.loads(lines[-1])


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics_printed_and_checked(workload, seed):
    code, lines, result = run_cli("--workload", workload,
                                  "--seed", str(seed), "--trace", "0")
    assert code == 0, "\n".join(lines)
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    gated = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == gated
    assert all(m["value"] > 0 for m in result["metrics"].values())
    printed = {line.split()[1]: line.split()[3] for line in lines
               if line.startswith("metric ")}
    for name, (unit, _) in NAMED_METRICS.items():
        assert printed[name] == unit, name
    assert any(line.startswith("env ") and "nproc=" in line
               and "commit=" in line for line in lines)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_prints_every_layer_metric(workload):
    code, lines, result = run_cli("--workload", workload, "--trace", "1")
    assert code == 0, "\n".join(lines)
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == layers
    assert os.path.exists(os.path.join(
        ROOT, ".perfbench", f"spans-{workload}-seed1.jsonl"))


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in BENCHMARK["per_layer"]] \
        == list(trace.metric_units())
    with open(os.path.join(ROOT, "perfbench", "layers.json"),
              encoding="utf-8") as fh:
        layers = json.load(fh)
    assert set(layers["workloads"]) == set(WORKLOADS)
    gated = {m["name"] for m in BENCHMARK["end_to_end"]}
    for spec in layers["workloads"].values():
        assert set(spec["end_to_end"]) == gated - {"setup_s", "peak_rss_mb"}


def test_self_time_counts_nested_spans_once():
    recorder = trace.Recorder()
    inner = recorder.wrap("webstack.orm.query", lambda: None)
    outer = recorder.wrap("webstack.orm.query", lambda: inner())
    with recorder.operation(0):
        outer()
    (_, o_start, o_end, _, _), (_, i_start, i_end, parent, trace_id) = \
        recorder.spans[1:]
    assert parent == 1 and trace_id == 0
    self_s, total_s = recorder.self_and_total()["webstack.orm.query"]
    assert total_s == pytest.approx((o_end - o_start) + (i_end - i_start))
    assert self_s == pytest.approx(o_end - o_start)


def test_calls_outside_an_operation_are_not_traced():
    recorder = trace.Recorder()
    wrapped = recorder.wrap("webstack.orm.execute", lambda x: x + 1)
    assert wrapped(1) == 2
    assert recorder.spans == []


def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(range(100))
    value, percentile, beyond = tail(values)
    assert value == 89 and beyond == 10 and percentile == 90.0
    assert sum(v > value for v in values) == 10
    assert tail([5.0, 1.0])[0] == 5.0
    windowed = tail([1.0] * 250 + [100.0] * 250 + [1.0] * 250, window=250)
    assert windowed[0] == 1.0


def test_same_seed_same_inputs():
    def universe(seed):
        workload = PortalBrowse(n_sims=10, done_sims=2, extra_stars=50,
                                warmup_requests=0)
        deployment = workload.setup(random.Random(f"portal_browse:{seed}"))
        try:
            return workload.universe[:200], [
                workload._next_request()[:5] for _ in range(50)]
        finally:
            close_deployment(deployment)
    assert universe(1) == universe(1)
    assert universe(1) != universe(2)


def test_unfinished_simulation_fails_the_run():
    """Every machine disabled: the sweep is accepted but never DONE."""
    from repro.core.models import MachineRecord
    workload = CampaignLifecycle(mass_points=2, z_points=2)
    workload.max_polls = 3
    deployment = workload.setup(random.Random("campaign_lifecycle:1"))
    try:
        MachineRecord.objects.using(deployment.databases.admin).update(
            enabled=False)
        outcome = workload.run(deployment, 0.0)
    finally:
        close_deployment(deployment)
    failed = {name for name, ok, _ in outcome.checks.results if not ok}
    assert "every simulation DONE" in failed
    assert outcome.failed >= 4 and not outcome.checks.ok


def test_rate_limited_writes_fail_the_run():
    """One session posting every campaign outruns its burst of five."""
    workload = PortalBrowse(n_sims=10, done_sims=2, extra_stars=50,
                            warmup_requests=0)
    workload.write_share = workload.campaign_share = 1.0
    workload.base_only = True
    deployment = workload.setup(random.Random("portal_browse:1"))
    try:
        workload.writer_order = workload.writer_order[:1]
        outcome = workload.run(deployment, 0.2)
    finally:
        close_deployment(deployment)
    failed = {name for name, ok, _ in outcome.checks.results if not ok}
    assert "no request failed (4xx/5xx)" in failed
    assert outcome.failed > 0


def test_slice_held_by_two_members_fails_the_run():
    """A member that still holds a slice another member has claimed is
    a split brain, although only one of them matches the lease row."""
    workload = FleetRounds(n_sims=16)
    deployment = workload.setup(random.Random("fleet_rounds_400:1"))
    try:
        first, second = workload.daemons(deployment)[:2]
        index, token = next(iter(first.leases.held.items()))
        second.leases.held[index] = token
        outcome = Outcome(workload.unit)
        workload.final_checks(deployment, outcome)
    finally:
        close_deployment(deployment)
    failed = {name for name, ok, _ in outcome.checks.results if not ok}
    assert "no slice has two valid lease owners" in failed
    assert "every held lease matches its row (owner, token, unexpired)" \
        in failed


def test_raising_poll_fails_the_run_without_a_latency_sample():
    workload = PollSteady(n_sims=10)
    deployment = workload.setup(random.Random("poll_steady_500:1"))
    try:
        polls = iter(range(100))

        def flaky_poll():
            if next(polls) % 2:
                raise RuntimeError("poll failed")
            return 0
        deployment.daemon.poll_once = flaky_poll
        outcome = workload.run(deployment, 0.0)
    finally:
        close_deployment(deployment)
    failed = {name for name, ok, _ in outcome.checks.results if not ok}
    assert "no operation failed" in failed
    assert outcome.failed == outcome.ops // 2
    assert len(outcome.latency_ms) == outcome.ops - outcome.failed
