"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload poll_steady_500 --seed 1 \\
        --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` measures the end-to-end metrics with nothing installed;
``--trace 1`` measures an untraced and a traced half-run from the same
fresh state and prints the per-layer metrics plus the tracing overhead.
Every metric is printed by name with its unit, then the correctness
checks, then — as the last line — one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every check passed.  ``--workload all`` runs each
workload in its own fresh process, one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import trace  # noqa: E402
from perfbench.workloads import (REF_MS, WORKLOADS,  # noqa: E402
                                 close_deployment, median, reference_ms,
                                 tail)

#: The ten end-to-end metrics of the gateway, and the workloads each
#: applies to (the generic gated metrics below map onto them).
NAMED_METRICS = {
    "setup_s": ("s", None),
    "poll_ms_p50": ("ms", ("poll_steady_500", "fleet_rounds_400")),
    "poll_ms_tail": ("ms", ("poll_steady_500", "fleet_rounds_400")),
    "sims_per_s": ("sims/s", ("campaign_lifecycle",)),
    "campaign_post_ms": ("ms", ("campaign_lifecycle",)),
    "req_ms_p50": ("ms", ("portal_browse",)),
    "req_ms_tail": ("ms", ("portal_browse",)),
    "max_rps_slo": ("req/s", ("portal_browse",)),
    "fail_ratio": ("1", None),
    "peak_rss_mb": ("MB", None),
}


#: What the gated latency and throughput are called on each kind of
#: workload operation.
HEADLINE = {
    "poll": ("poll", ("sims_polled_per_s", "sims/s")),
    "round": ("poll", ("sims_polled_per_s", "sims/s")),
    "campaign": ("sim_done", ("sims_per_s", "sims/s")),
    "request": ("service", ("capacity_rps", "req/s")),
}


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": cpu, "commit": git_commit()}


def git_commit():
    """HEAD of the checkout, read from ``.git`` without running git;
    ``unknown`` outside a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as head:
            ref = head.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as target:
                return target.read().strip()
        with open(os.path.join(git, "packed-refs"),
                  encoding="utf-8") as packed:
            for line in packed:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def slowdown(samples):
    """How much slower than REF_MS the host ran *samples* of
    reference_ms()."""
    return median(samples or [reference_ms()]) / REF_MS


def set_up(workload, seed):
    """A fresh deployment; returns (deployment, (set-up seconds scaled
    to the reference host speed, as measured)).  The host's speed is
    sampled just before and just after."""
    samples = [reference_ms() for _ in range(3)]
    started = time.perf_counter()
    deployment = workload.setup(random.Random(f"{workload.name}:{seed}"))
    elapsed = time.perf_counter() - started
    samples += [reference_ms() for _ in range(3)]
    return deployment, (elapsed / slowdown(samples), elapsed)


def measure(workload, seed, seconds, recorder=None):
    """Fresh set-up, then one measured run; returns (outcome, set-up
    seconds as :func:`set_up` gives them)."""
    from repro.webstack.orm.query import compiled_cache
    deployment, setup_s = set_up(workload, seed)
    try:
        if recorder is not None:
            trace.install_orm(recorder)
            workload.install(recorder, deployment)
        before = compiled_cache.stats()
        try:
            outcome = workload.run(deployment, seconds, recorder)
        finally:
            if recorder is not None:
                recorder.uninstall()
        after = compiled_cache.stats()
    finally:
        close_deployment(deployment)
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    outcome.counters["webstack.orm.compiled_cache.hit_ratio"] = \
        hits / lookups if lookups else 0.0
    return outcome, setup_s


def end_to_end(workload, seed, seconds):
    """Set up ``setup_repeats`` times (median reported), then measure on
    the last one."""
    setups = []
    for _ in range(workload.setup_repeats - 1):
        deployment, setup_s = set_up(workload, seed)
        setups.append(setup_s)
        close_deployment(deployment)
    outcome, setup_s = measure(workload, seed, seconds)
    setups.append(setup_s)
    p_tail, percentile, beyond = tail(outcome.latency_ms,
                                      outcome.tail_window)
    # Empty only when every operation failed, which fails the run.
    p50 = median(outcome.latency_ms or [0.0])
    host = slowdown(outcome.ref_ms)
    metrics = {
        "setup_s": (median([scaled for scaled, _ in setups]), "s"),
        "latency_ms_p50": (p50 / host, "ms"),
        "throughput_per_s": (outcome.throughput * host, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    named = dict(outcome.report)
    latency, throughput = HEADLINE[outcome.unit]
    named[f"{latency}_ms_p50"] = (p50, "ms")
    named[f"{latency}_ms_tail"] = (p_tail, "ms")
    named[throughput[0]] = (outcome.throughput, throughput[1])
    named["host_ref_ms"] = (host * REF_MS, "ms")
    window = outcome.tail_window
    notes = dict(outcome.notes)
    notes[f"{latency}_ms_tail"] = (
        f"p{percentile:.1f}, {beyond} beyond, of "
        + (f"{len(outcome.latency_ms)} samples" if window is None else
           f"each {window}-sample window (median of "
           f"{len(outcome.latency_ms) // window})"))
    notes["setup_s"] = (f"median of {len(setups)} as measured: "
                        + " ".join(f"{raw:.3f}" for _, raw in setups))
    notes["host_ref_ms"] = (
        f"median of {len(outcome.ref_ms)} reference samples; gated "
        f"times are scaled by {REF_MS:g} ms over it")
    return outcome, metrics, named, notes


def traced(workload, seed, seconds):
    """Untraced then traced half-runs from the same fresh state."""
    workload.base_only = True       # portal_browse: no rate ladder
    plain, _ = measure(workload, seed, seconds / 2)
    recorder = trace.Recorder()
    outcome, _ = measure(workload, seed, seconds / 2, recorder)
    # Each half's median scaled to the reference host speed, so that a
    # change in the host's load between the halves does not count.
    untraced, traced_ms = (
        median(half.latency_ms or [0.0]) / slowdown(half.ref_ms)
        for half in (plain, outcome))
    overhead = 100.0 * (traced_ms / untraced - 1.0) if untraced else 0.0
    metrics = trace.layer_metrics(recorder, outcome.ops,
                                  counters=outcome.counters,
                                  overhead_pct=overhead)
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir,
                              f"spans-{workload.name}-seed{seed}.jsonl")
    recorder.write_jsonl(spans_path)
    notes = {"trace.overhead_pct":
             f"scaled p50 {untraced:.3f} ms untraced, {traced_ms:.3f} ms "
             f"traced; {len(recorder.spans)} spans in "
             f"{os.path.relpath(spans_path, ROOT)}"}
    outcome.checks.results += [(f"untraced half: {name}", ok, detail)
                               for name, ok, detail
                               in plain.checks.results]
    outcome.attempted += plain.attempted
    outcome.failed += plain.failed
    return outcome, metrics, notes


def print_metric(name, value, unit, note=""):
    text = "n/a" if value is None else f"{value:.6g}"
    print(f"metric {name:<44} {text:>14} {unit:<7} {note}".rstrip())


def run_one(args):
    workload = WORKLOADS[args.workload](**(
        TINY[args.workload] if args.tiny else {}))
    env = environment()
    print(f"workload {workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v!r}" for k, v in env.items()))
    if args.trace:
        outcome, metrics, notes = traced(workload, args.seed, args.seconds)
        print(f"per {outcome.unit}: {outcome.ops} traced {outcome.unit}s")
        for name, (value, unit) in metrics.items():
            print_metric(name, value, unit, notes.get(name, ""))
    else:
        outcome, metrics, named, notes = end_to_end(
            workload, args.seed, args.seconds)
        for name, (value, unit) in metrics.items():
            print_metric(name, value, unit)
        named["setup_s"] = metrics["setup_s"]
        named["peak_rss_mb"] = metrics["peak_rss_mb"]
        named["fail_ratio"] = (outcome.failed / max(1, outcome.attempted),
                               "1")
        for name, (value, unit) in named.items():
            if name not in NAMED_METRICS:
                print_metric(name, value, unit, notes.get(name, ""))
        for name, (unit, applies) in NAMED_METRICS.items():
            if applies is None or workload.name in applies:
                value, unit = named[name]
                print_metric(name, value, unit, notes.get(name, ""))
            else:
                print_metric(name, None, unit, "not measured here")
    for name, ok, detail in outcome.checks.results:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}"
              + ("" if ok else f": {detail}"))
    correct = outcome.checks.ok
    print(json.dumps({
        "correct": correct, "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


#: Constructor arguments for the tiny sizes the benchmark's tests use.
TINY = {
    "poll_steady_500": {"n_sims": 20},
    "fleet_rounds_400": {"n_sims": 16},
    "campaign_lifecycle": {"mass_points": 4, "z_points": 2},
    "portal_browse": {"n_sims": 20, "done_sims": 4, "extra_stars": 200},
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run at the tiny sizes the tests use")
    args = parser.parse_args(argv)
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program under src/: {exc}",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_one(args)
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.tiny:
            command.append("--tiny")
        sys.stdout.flush()
        status |= subprocess.run(command, check=False).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
