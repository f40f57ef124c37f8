"""Fleet poll throughput: 4 lease-partitioned daemons vs the singleton.

The tentpole claim behind the daemon fleet is *near-linear* poll
scaling: each instance sweeps only its residue classes, so a fleet
round's critical path (the slowest member's poll) should be roughly a
quarter of the singleton's poll over the same 400-simulation campaign.
Both arms drive the identical virtual-time schedule (10 rounds at 900 s)
from submission onward, so they process exactly the same transitions;
the score is total singleton poll time over total fleet critical-path
time.  The acceptance floor is 3x — linear minus the lease-protocol
overhead (sweep + scoped filters), the unsliceable phases (telemetry,
first-poller fabric refresh), and cross-slice wave variance.

The two arms run side by side, one round of each at a time, in ABBA
order (singleton then fleet, then fleet then singleton, ...), so a
spell in which the host runs slower or faster lands on both arms
instead of on whichever arm happened to be running.  Each arm's
deployment keeps its own database and clock; the models' default
database is pointed at the arm about to poll, outside the timed region.
"""

import time

from repro.analysis.reporting import format_table
from repro.core import Simulation, Star
from repro.core.models import KIND_DIRECT

from .conftest import fresh_deployment

POPULATION = 400
MACHINES = ["frost", "kraken", "lonestar", "ranger"]
MEASURED_ROUNDS = 10
INTERVAL_S = 900.0


def _close(deployment):
    from repro.core.models import ALL_MODELS
    from repro.webstack.orm import bind
    bind(ALL_MODELS, None)
    deployment.close()


def _populate(deployment):
    user = deployment.create_astronomer("bench", password="pw12345")
    star = Star(name="Bench Star", hd_number=186427)
    star.save(db=deployment.databases.admin)
    # Machine assignment deliberately decorrelated from ``pk % 4``
    # (blocks of four, not round-robin): every fleet slice carries a
    # 25% share of each facility, so no instance's slice is pinned to
    # one machine's queue rhythm.
    Simulation.objects.using(deployment.databases.portal).bulk_create([
        Simulation(
            star_id=star.pk, owner_id=user.pk, kind=KIND_DIRECT,
            machine_name=MACHINES[(index // len(MACHINES))
                                  % len(MACHINES)],
            parameters={"mass": 1.0 + 0.0005 * index, "z": 0.018,
                        "y": 0.27, "alpha": 2.1, "age": 4.6})
        for index in range(POPULATION)])


def _deployment(fleet_size=0):
    deployment = fresh_deployment()
    _populate(deployment)
    if fleet_size:
        deployment.start_fleet(fleet_size)
    return deployment


def _activate(deployment):
    """Make *deployment* the models' default database before it polls
    (each new deployment takes the global binding for itself)."""
    from repro.core.models import ALL_MODELS
    from repro.webstack.orm import bind
    bind(ALL_MODELS, deployment.databases.admin)


def _singleton_round(deployment):
    """One singleton round; returns its poll wall time."""
    deployment.clock.advance(INTERVAL_S)
    start = time.perf_counter()
    deployment.daemon.poll_once()
    return time.perf_counter() - start


def _fleet_round(deployment):
    """One fleet round; returns each member's poll wall time."""
    deployment.clock.advance(INTERVAL_S)
    per_instance = {}
    for index in sorted(deployment.fleet):
        daemon = deployment.fleet[index]
        start = time.perf_counter()
        daemon.poll_once()
        per_instance[index] = time.perf_counter() - start
    return per_instance


def _measure_interleaved(n=4):
    """Both arms over the same schedule, rounds interleaved ABBA.

    Returns ``(singleton poll times, fleet rounds)``.
    """
    singleton = _deployment()
    fleet = _deployment(fleet_size=n)
    try:
        single_times, fleet_rounds = [], []
        for round_index in range(MEASURED_ROUNDS):
            arms = ("singleton", "fleet")
            for arm in arms if round_index % 2 == 0 else arms[::-1]:
                if arm == "singleton":
                    _activate(singleton)
                    single_times.append(_singleton_round(singleton))
                else:
                    _activate(fleet)
                    fleet_rounds.append(_fleet_round(fleet))
        return single_times, fleet_rounds
    finally:
        _close(singleton)
        _close(fleet)


def test_fleet_poll_throughput_scales(benchmark):
    """4-daemon fleet: critical-path poll time >= 3x faster."""
    single_times, fleet_rounds = benchmark.pedantic(
        _measure_interleaved, rounds=1, iterations=1)

    single_mean = sum(single_times) / len(single_times)
    critical_paths = [max(r.values()) for r in fleet_rounds]
    fleet_mean = sum(critical_paths) / len(critical_paths)
    # Same campaign, same schedule: totals compare identical work.
    speedup = sum(single_times) / sum(critical_paths)

    rows = [["singleton", f"{single_mean * 1e3:.1f}", "1.00x"]]
    per_instance_means = {
        index: sum(r[index] for r in fleet_rounds) / len(fleet_rounds)
        for index in fleet_rounds[0]}
    for index, mean in sorted(per_instance_means.items()):
        rows.append([f"daemon-{index}", f"{mean * 1e3:.1f}", "-"])
    rows.append(["fleet critical path", f"{fleet_mean * 1e3:.1f}",
                 f"{speedup:.2f}x"])
    print(f"\nPoll throughput, {POPULATION} active simulations "
          f"({MEASURED_ROUNDS} measured rounds):")
    print(format_table(["configuration", "poll ms", "speedup"], rows))

    # Near-linear scaling: the floor is 3x at 4 instances.
    assert speedup >= 3.0, \
        f"fleet speedup {speedup:.2f}x below the 3x floor"
    # The partition is actually balanced: no instance's mean poll is
    # more than twice the fleet-wide mean (each holds one slice).
    fleet_wide = sum(per_instance_means.values()) / len(
        per_instance_means)
    for index, mean in per_instance_means.items():
        assert mean < 2 * fleet_wide + 1e-4, \
            f"daemon-{index} is a straggler: {mean:.4f}s"
