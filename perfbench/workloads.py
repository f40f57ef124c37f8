"""The four benchmark workloads.

Each workload builds a fresh in-process deployment from its seed
(:meth:`setup`), drives it for an amount of work sized from the run's
``--seconds`` (:meth:`run`) and checks the program's outputs.  The
program only ever sees the generated inputs: simulation parameters,
sweeps, URLs, users and arrival times all come from
``random.Random(f"{name}:{seed}")``.

Daemon workloads run on the deployment's virtual clock (frozen, or
advanced in fixed steps), so statement, grid-call, row, span and event
counts repeat exactly for a given seed.  The portal workload serves an
open loop on the wall clock through the portal's WSGI callable — the
entry point prefork workers serve — without sockets, so the single
measuring process is the only load on the machine.
"""

from __future__ import annotations

import bisect
import contextlib
import datetime
import gc
import io
import json
import random
import re
import time
from statistics import median
from urllib.parse import urlencode

from . import trace

SLO_MS = 50.0


class Checks:
    """Named correctness checks; a failed one fails the run."""

    def __init__(self):
        self.results = []

    def expect(self, name, ok, detail=""):
        self.results.append((name, bool(ok), str(detail)))

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.results)


class Outcome:
    """What one measured run produced."""

    def __init__(self, unit):
        self.unit = unit            # "poll", "campaign", "request", "round"
        self.latency_ms = []        # the workload's headline latency
        self.ref_ms = []            # reference_ms() samples between ops
        self.throughput = 0.0       # its work per second
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.checks = Checks()
        self.report = {}            # named extras: name -> (value, unit)
        self.counters = {}          # per-layer values the workload measures
        self.notes = {}             # report name -> how it was measured
        self.tail_window = None     # see tail()


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------

def fresh_deployment():
    """A new deployment whose process-wide compiled-query cache starts
    empty, exactly as in a fresh process."""
    from repro.core import AMPDeployment
    from repro.webstack.orm.query import compiled_cache
    compiled_cache.clear()
    return AMPDeployment()


def close_deployment(deployment):
    from repro.core.models import ALL_MODELS
    from repro.webstack.orm import bind
    bind(ALL_MODELS, None)
    deployment.close()
    gc.collect()


#: Host speed.  On a shared host the same code runs up to half again as
#: long while other tenants load the machine, in spells of seconds to
#: minutes, so a run's median moved by a third between runs.  Each run
#: times reference_ms() between its own operations; every gated time is
#: scaled by REF_MS over the median sample, so it reads as on a host
#: that runs the reference in REF_MS (about the quiet figure on 2 cores
#: of an Intel Xeon; the printed host_ref_ms gives the run's own).
REF_MS = 1.0


#: What reference_ms() reads: small strings and tuples, built once.
REFERENCE_TABLE = {f"k{i}": (i, str(i)) for i in range(12000)}


def reference_ms():
    """Milliseconds for a fixed piece of pure-Python work that touches
    nothing of the program: one pass over REFERENCE_TABLE.  It makes no
    objects the cyclic collector tracks and needs no new memory, so its
    time follows the host's speed, not the program's heap."""
    started = time.perf_counter()
    total = 0
    for key, (number, text) in REFERENCE_TABLE.items():
        total += len(key) + number + len(text)
    return (time.perf_counter() - started) * 1e3


def random_parameters(rng):
    """Physical parameters for one direct run, inside the model bounds."""
    return {"mass": round(rng.uniform(0.8, 1.6), 6),
            "z": round(rng.uniform(0.005, 0.045), 6),
            "y": round(rng.uniform(0.23, 0.31), 6),
            "alpha": round(rng.uniform(1.2, 2.8), 6),
            "age": round(rng.uniform(0.5, 12.0), 6)}


def submit_direct_runs(deployment, rng, n, *, machines, stars, owner):
    from repro.core import Simulation
    from repro.core.models import KIND_DIRECT
    Simulation.objects.using(deployment.databases.portal).bulk_create([
        Simulation(star_id=rng.choice(stars).pk, owner_id=owner.pk,
                   kind=KIND_DIRECT, machine_name=rng.choice(machines),
                   parameters=random_parameters(rng))
        for _ in range(n)])


def wsgi_call(app, method, path, *, query="", body=b"", content_type="",
              addr="10.0.0.1", session=None):
    """One request through the WSGI callable; returns (status, headers,
    body bytes)."""
    environ = {
        "REQUEST_METHOD": method, "PATH_INFO": path,
        "QUERY_STRING": query, "CONTENT_TYPE": content_type,
        "CONTENT_LENGTH": str(len(body)), "HTTP_HOST": "amp.ucar.edu",
        "REMOTE_ADDR": addr, "wsgi.input": io.BytesIO(body),
        "wsgi.url_scheme": "https",
    }
    if session is not None:
        environ["HTTP_COOKIE"] = f"sessionid={session}"
    started = {}

    def start_response(status, headers):
        started["status"] = int(status.split(" ", 1)[0])
        started["headers"] = dict(headers)

    content = b"".join(app(environ, start_response))
    return started["status"], started["headers"], content


def operation(recorder, trace_id):
    """The recorder's root span for one operation; nothing when the run
    is not traced."""
    if recorder is None:
        return contextlib.nullcontext()
    return recorder.operation(trace_id)


def grid_commands(daemons):
    """(executed, failed) grid commands across *daemons*' clients."""
    clients = {id(d.clients): d.clients for d in daemons}.values()
    return (sum(len(c.command_log) for c in clients),
            sum(len(c.failed_commands()) for c in clients))


def telemetry_size(deployment):
    return (len(deployment.obs.tracer.finished),
            len(deployment.obs.events.records),
            len(deployment.obs.events.of_kind("daemon.error")))


def sim_states(deployment, **filters):
    from repro.core import Simulation
    counts = {}
    for sim in Simulation.objects.using(deployment.databases.admin).filter(
            **filters).only("state"):
        counts[sim.state] = counts.get(sim.state, 0) + 1
    return counts


# ----------------------------------------------------------------------
# poll_steady_500
# ----------------------------------------------------------------------

class PollSteady:
    """500 direct runs RUNNING on ACTIVE batch jobs; the virtual clock is
    frozen and ``GridAMPDaemon.poll_once`` is called repeatedly."""

    name = "poll_steady_500"
    unit = "poll"
    setup_repeats = 5
    #: Work per run is sized from --seconds, not cut by the wall clock,
    #: so every run makes the same polls (and the same telemetry growth)
    #: whatever the host's speed; about 140 ms per poll on 2 cores.
    ops_per_second = 7.0
    machines = ("frost", "kraken", "lonestar", "ranger")
    statements_per_poll = 7

    def __init__(self, n_sims=500):
        self.n_sims = n_sims

    def setup(self, rng):
        from repro.core import Star
        deployment = fresh_deployment()
        owner = open_account(deployment, "astronomer")
        stars = list(Star.objects.using(deployment.databases.admin))
        submit_direct_runs(deployment, rng, self.n_sims,
                           machines=self.machines, stars=stars,
                           owner=owner)
        for _ in range(3):          # QUEUED -> PREJOB -> RUNNING
            deployment.daemon.poll_once()
        return deployment

    def daemons(self, deployment):
        return [deployment.daemon]

    def install(self, recorder, deployment):
        for daemon in self.daemons(deployment):
            trace.install_daemon(recorder, daemon)

    def _poll(self, deployment):
        """One measured operation; returns its headline latency (s)."""
        start = time.perf_counter()
        transitions = deployment.daemon.poll_once()
        return time.perf_counter() - start, transitions

    def run(self, deployment, seconds, recorder=None):
        out = Outcome(self.unit)
        daemons = self.daemons(deployment)
        db = deployment.databases.daemon
        commands_before = grid_commands(daemons)
        spans0, events0, errors0 = telemetry_size(deployment)
        out.checks.expect(
            "all simulations RUNNING before polling",
            sim_states(deployment) == {"RUNNING": self.n_sims},
            sim_states(deployment))
        bad_statements = bad_transitions = 0
        for _ in range(max(11, round(seconds * self.ops_per_second))):
            statements = db.queries_executed
            try:
                with operation(recorder, out.ops):
                    elapsed, transitions = self._poll(deployment)
            except Exception:  # noqa: BLE001 - counted as a failed poll
                # No latency sample: a poll cut short would read fast.
                out.failed += 1
                transitions = 0
            else:
                out.latency_ms.append(elapsed * 1e3)
            out.ops += 1
            out.ref_ms.append(reference_ms())
            statements = db.queries_executed - statements
            bad_statements += self.statements_per_poll not in (
                None, statements)
            bad_transitions += transitions != 0
        executed, failed = (a - b for a, b in zip(
            grid_commands(daemons), commands_before))
        spans, events, errors = (a - b for a, b in zip(
            telemetry_size(deployment), (spans0, events0, errors0)))
        out.attempted = out.ops + executed
        out.failed += failed + errors
        # Per second of the median poll: summed poll time would count
        # every stall of the host at full weight.
        p50 = median(out.latency_ms or [0.0])
        out.throughput = self.n_sims * 1e3 / p50 if p50 else 0.0
        out.counters = {"obs.spans": spans, "obs.events": events}
        if self.statements_per_poll is not None:
            out.checks.expect(
                f"{self.statements_per_poll} statements per poll",
                bad_statements == 0, f"{bad_statements} polls differ")
        out.checks.expect("0 transitions per poll", bad_transitions == 0,
                          f"{bad_transitions} polls transitioned")
        out.checks.expect("no grid command failed", failed == 0, failed)
        out.checks.expect("no operation failed", out.failed == 0,
                          f"{out.failed} failed: polls raising, grid "
                          f"commands failing or daemon.error events")
        self.final_checks(deployment, out)
        return out

    def final_checks(self, deployment, out):
        out.checks.expect(
            "all simulations still RUNNING",
            sim_states(deployment) == {"RUNNING": self.n_sims},
            sim_states(deployment))


# ----------------------------------------------------------------------
# fleet_rounds_400
# ----------------------------------------------------------------------

class FleetRounds(PollSteady):
    """``start_fleet(4)`` over 400 simulations in steady state; each
    fleet round polls every instance once, and the round's latency is
    its critical path, the slowest instance's ``poll_once``."""

    name = "fleet_rounds_400"
    unit = "round"
    instances = 4
    #: 100 rounds in 20 s.  The growing heap gets about five full
    #: collections in them, each pausing one round by 30-170 ms; at 140
    #: rounds there are seven, so the tail (ten rounds beyond it) sat
    #: on the edge between paused and ordinary rounds, and its spread
    #: over ten seeds reached 0.29 of its median.
    ops_per_second = 5.0
    # A member's statement count depends on the slices it holds (slice
    # 0 also publishes telemetry); the fleet's invariant is lease safety.
    statements_per_poll = None

    def __init__(self, n_sims=400):
        super().__init__(n_sims)

    def setup(self, rng):
        from repro.core import Star
        deployment = fresh_deployment()
        owner = open_account(deployment, "astronomer")
        stars = list(Star.objects.using(deployment.databases.admin))
        submit_direct_runs(deployment, rng, self.n_sims,
                           machines=self.machines, stars=stars,
                           owner=owner)
        deployment.start_fleet(self.instances)
        for _ in range(4):          # claim slices, then reach RUNNING
            deployment.poll_fleet_once(on_crash="raise")
        self.double_claims = 0
        return deployment

    def daemons(self, deployment):
        return [deployment.fleet[i] for i in sorted(deployment.fleet)]

    def _poll(self, deployment):
        slowest = 0.0
        transitions = 0
        for daemon in self.daemons(deployment):
            start = time.perf_counter()
            transitions += daemon.poll_once()
            slowest = max(slowest, time.perf_counter() - start)
        # Outside the timed polls: a split brain between rounds counts.
        self.double_claims += sum(len(members) > 1 for members
                                  in slice_claims(deployment).values())
        return slowest, transitions

    def final_checks(self, deployment, out):
        super().final_checks(deployment, out)
        claims = slice_claims(deployment)
        doubled = {index: members for index, members in claims.items()
                   if len(members) > 1}
        out.checks.expect(
            "no slice has two valid lease owners",
            not doubled and not self.double_claims,
            f"at the end: {doubled}; "
            f"after rounds: {self.double_claims} slices")
        unbacked = unbacked_claims(deployment)
        out.checks.expect(
            "every held lease matches its row (owner, token, unexpired)",
            not unbacked, unbacked)
        out.checks.expect(
            "every slice has a live owner",
            sorted(claims) == list(range(deployment.fleet_n_slices)),
            claims)


def slice_claims(deployment):
    """{slice: [fleet members whose held leases include it]}, whatever
    the lease rows say."""
    claims = {}
    for daemon in deployment.fleet.values():
        if daemon is not None:
            for index in daemon.leases.held:
                claims.setdefault(index, []).append(daemon.instance_id)
    return claims


def unbacked_claims(deployment):
    """[(member, slice)] held under a token, owner or expiry the slice's
    lease row does not carry."""
    from repro.core.models import LEASE_KIND_SLICE, LeaseRecord
    now = deployment.clock.now
    rows = {row.slice_index: row for row in LeaseRecord.objects.using(
        deployment.databases.admin).filter(kind=LEASE_KIND_SLICE)}
    unbacked = []
    for daemon in deployment.fleet.values():
        if daemon is None:
            continue
        for index, token in daemon.leases.held.items():
            row = rows.get(index)
            if (row is None or row.fencing_token != token
                    or row.owner != daemon.leases.owner
                    or row.expires_at <= now):
                unbacked.append((daemon.instance_id, index))
    return unbacked


# ----------------------------------------------------------------------
# campaign_lifecycle
# ----------------------------------------------------------------------

class CampaignLifecycle:
    """A logged-in astronomer POSTs a 200-simulation direct-run sweep to
    ``/api/v1/campaigns``; the daemon then drives the sweep to DONE in
    virtual time, 600 s per poll.  Repeats on the same deployment."""

    name = "campaign_lifecycle"
    unit = "campaign"
    setup_repeats = 21
    #: Campaigns per run, per --seconds (about 2.5 s each on 2 cores).
    ops_per_second = 0.4
    poll_interval_s = 600.0
    max_polls = 100

    def __init__(self, mass_points=40, z_points=5):
        self.mass_points = mass_points
        self.z_points = z_points

    def setup(self, rng):
        from repro.core import Star
        deployment = fresh_deployment()
        user = open_account(deployment, "astronomer")
        self.app = deployment.build_portal()
        self.session = open_session(deployment, user)
        stars = list(Star.objects.using(deployment.databases.admin))
        self.star = rng.choice(stars)
        self.rng = rng
        return deployment

    def install(self, recorder, deployment):
        trace.install_daemon(recorder, deployment.daemon)
        trace.install_clock(recorder, deployment.clock)
        trace.install_portal(recorder, self.app)

    def sweep(self):
        rng = self.rng
        start = round(rng.uniform(0.95, 1.05), 4)
        z_values = sorted(rng.sample(range(4, 46), self.z_points))
        return {"mass": {"start": start,
                         "stop": round(start + 0.005
                                       * (self.mass_points - 1), 6),
                         "step": 0.005},
                "z": [z / 1000.0 for z in z_values],
                "y": round(rng.uniform(0.26, 0.28), 4),
                "alpha": round(rng.uniform(1.8, 2.2), 4),
                "age": round(rng.uniform(4.0, 6.0), 4)}

    def _cycle(self, deployment, out, done_ms, post_ms):
        """POST one sweep and drive it to completion; appends each
        simulation's turnaround (POST to the end of the poll that made it
        DONE, in host ms) to *done_ms* and returns (simulation ids,
        seconds from the POST to the last DONE)."""
        body = json.dumps({"star": self.star.pk,
                           "name": f"sweep {out.ops}",
                           "sweep": self.sweep()}).encode()
        started = time.perf_counter()
        status, _, content = wsgi_call(
            self.app, "POST", "/api/v1/campaigns", body=body,
            content_type="application/json", session=self.session)
        post_ms.append((time.perf_counter() - started) * 1e3)
        out.attempted += 1
        if status != 201:
            out.failed += 1
            return [], time.perf_counter() - started
        sims = json.loads(content)["simulations"]
        daemon = deployment.daemon
        records = deployment.obs.events.records
        # GridAMPDaemon.run(poll_interval_s=600) unrolled so that each
        # poll's completions are timed; a sweep that cannot finish stops
        # at max_polls and fails the DONE check.
        for _ in range(self.max_polls):
            if daemon.pending_count() == 0:
                break
            deployment.clock.advance(self.poll_interval_s)
            seen = len(records)
            try:
                daemon.poll_once()
            except Exception:  # noqa: BLE001 - counted as a failed poll
                out.failed += 1
            now_ms = (time.perf_counter() - started) * 1e3
            out.attempted += 1
            done_ms.extend(now_ms for record in records[seen:]
                           if record.kind == "sim.transition"
                           and record.fields.get("to_state") == "DONE")
        return sims, time.perf_counter() - started

    def run(self, deployment, seconds, recorder=None):
        from repro.core.models import (JOURNAL_COMMITTED, JOURNAL_INTENT,
                                       JOURNAL_OP_SUBMIT, OperationRecord)
        out = Outcome(self.unit)
        daemons = [deployment.daemon]
        commands_before = grid_commands(daemons)
        spans0, events0, errors0 = telemetry_size(deployment)
        post_ms, rates, all_sims = [], [], []
        for _ in range(max(2, round(seconds * self.ops_per_second))):
            with operation(recorder, out.ops):
                sims, elapsed = self._cycle(deployment, out,
                                            out.latency_ms, post_ms)
            out.ops += 1
            # Between campaigns, so no turnaround includes them.
            out.ref_ms.extend(reference_ms() for _ in range(20))
            all_sims.extend(sims)
            rates.append(len(sims) / elapsed)
        executed, failed = (a - b for a, b in zip(
            grid_commands(daemons), commands_before))
        spans, events, errors = (a - b for a, b in zip(
            telemetry_size(deployment), (spans0, events0, errors0)))
        states = sim_states(deployment, pk__in=all_sims)
        not_done = len(all_sims) - states.get("DONE", 0)
        out.attempted += executed + len(all_sims)
        out.failed += failed + errors + not_done
        out.throughput = median(rates)
        out.counters = {"obs.spans": spans, "obs.events": events}
        out.report["campaign_post_ms"] = (median(post_ms), "ms")
        out.checks.expect("every campaign accepted (201)",
                          len(all_sims) == out.ops * self.mass_points
                          * self.z_points,
                          f"{len(all_sims)} simulations created")
        out.checks.expect("every simulation DONE", not_done == 0, states)
        journal = OperationRecord.objects.using(
            deployment.databases.admin).filter(
            simulation_id__in=all_sims)
        submits, intents = {}, 0
        for entry in journal:
            intents += entry.state == JOURNAL_INTENT
            if entry.op == JOURNAL_OP_SUBMIT \
                    and entry.state == JOURNAL_COMMITTED:
                key = (entry.simulation_id, entry.phase)
                submits[key] = submits.get(key, 0) + 1
        duplicated = {k: n for k, n in submits.items() if n != 1}
        submitted = {sim for sim, _ in submits}
        out.checks.expect(
            "exactly one committed submit per (simulation, phase)",
            not duplicated and submitted == set(all_sims) and not intents,
            f"{len(duplicated)} duplicated, "
            f"{len(set(all_sims) - submitted)} never submitted, "
            f"{intents} open intents")
        over = [entry for entry in deployment.daemon.ledger
                .invariant_report()
                if entry["reserved_su"] + entry["used_su"]
                > entry["granted_su"] + 1e-6]
        out.checks.expect("SU ledger: reserved + used <= granted",
                          not over, over)
        out.checks.expect("no grid command failed", failed == 0, failed)
        out.checks.expect("no operation failed", out.failed == 0,
                          f"{out.failed} failed")
        return out


def open_session(deployment, user):
    """A logged-in session for *user*, as the login view would leave it
    (made directly so set-up does not pay for password hashing)."""
    from repro.webstack.auth import _SESSION_USER_KEY
    from repro.webstack.auth.models import Session
    from repro.webstack.auth.sessions import SESSION_LIFETIME
    row = Session(session_key=Session.new_key(),
                  data={_SESSION_USER_KEY: user.pk},
                  expires_at=datetime.datetime.utcnow() + SESSION_LIFETIME)
    row.save(db=deployment.databases.admin)
    return row.session_key


# ----------------------------------------------------------------------
# portal_browse
# ----------------------------------------------------------------------

class PortalBrowse:
    """Requests into the serving-tier portal (default ``ServeConfig`` on
    a ``WallClock``): Zipf-ranked reads over about 6,000 distinct pages
    by anonymous visitors, plus 5% writes by logged-in astronomers, each
    write followed by a read of the page it should have invalidated.
    A closed loop gives the gated service times and sustained rate; an
    open loop of Poisson arrivals and a rate ladder give the latencies
    from due time and ``max_rps_slo``."""

    name = "portal_browse"
    unit = "request"
    setup_repeats = 5
    base_rate = 1000.0
    ladder = (1250.0, 1500.0, 1750.0, 2000.0, 2250.0, 2500.0, 2750.0,
              3000.0, 3500.0)
    #: Zipf exponent of page popularity: 0.8 lies in the 0.64-0.83 that
    #: Breslau et al. ("Web Caching and Zipf-like Distributions",
    #: INFOCOM 1999) measured on six web proxy traces.  The ranking of
    #: page kinds (see setup) and the campaign share, readers and writer
    #: sessions below are assumptions, not measurements.
    zipf_s = 0.8
    tail_window = 1000
    #: Closed-loop requests between two reference_ms() samples.
    reference_every = 200
    #: Closed-loop requests per second of --seconds (about 5 s in 20).
    closed_per_second = 750
    #: Shares of --seconds spent in the open loop and on each ladder rung.
    base_share = 0.25
    rung_share = 0.05
    write_share = 0.05
    campaign_share = 0.2
    readers = 1000
    #: Traced runs skip the rate ladder.
    base_only = False
    accounts = 16
    sessions_per_account = 8

    def __init__(self, n_sims=500, done_sims=50, extra_stars=5000,
                 warmup_requests=3000):
        self.warmup_requests = warmup_requests
        self.n_sims = n_sims
        self.done_sims = done_sims
        self.extra_stars = extra_stars

    def setup(self, rng):
        from repro.core import Simulation, Star
        from repro.serve import ServeConfig, WallClock
        deployment = fresh_deployment()
        admin = deployment.databases.admin
        owner = open_account(deployment, "astronomer")
        catalog = list(Star.objects.using(admin))
        # A share of the runs finishes, so result pages and plots exist.
        submit_direct_runs(deployment, rng, self.done_sims,
                           machines=("kraken",), stars=catalog,
                           owner=owner)
        deployment.run_daemon_until_idle(poll_interval_s=3600.0)
        submit_direct_runs(deployment, rng, self.n_sims - self.done_sims,
                           machines=("kraken", "auto"), stars=catalog,
                           owner=owner)
        numbers = rng.sample(range(1_000_000, 10_000_000),
                             self.extra_stars)
        Star.objects.using(admin).bulk_create(
            [Star(name=f"KIC {n}", source="local") for n in numbers])
        self.app = deployment.build_portal(
            serve=ServeConfig(clock=WallClock()))
        writers = [open_account(deployment, f"writer{i}")
                   for i in range(self.accounts)]
        self.writer_sessions = [open_session(deployment, user)
                                for user in writers
                                for _ in range(self.sessions_per_account)]
        self.writer_order = list(range(len(self.writer_sessions)))
        rng.shuffle(self.writer_order)
        self.writes = {"direct": 0, "campaign": 0}
        stars = list(Star.objects.using(admin).order_by("id"))
        sims = list(Simulation.objects.using(admin).order_by("id"))
        kinds = self._pages(rng, catalog, stars, sims, numbers)
        # The seed picks which page fills each rank, but the rank of
        # each *kind* of page is the same for every seed, so seeds vary
        # the identities and not the mix of cheap and costly pages.
        slots = [kind for kind, pages in enumerate(kinds) for _ in pages]
        random.Random("portal_browse:page-kinds").shuffle(slots)
        for pages in kinds:
            rng.shuffle(pages)
        members = [iter(pages) for pages in kinds]
        self.universe = [next(members[kind]) for kind in slots]
        weights, total = [], 0.0
        for rank in range(len(self.universe)):
            total += 1.0 / (rank + 1) ** self.zipf_s
            weights.append(total)
        self.cumulative = [w / total for w in weights]
        self.write_stars = [s.pk for s in catalog]
        self.rng = rng
        return deployment

    @staticmethod
    def _pages(rng, catalog, stars, sims, numbers):
        """The distinct pages, one list per kind of page."""
        seeded = {s.pk for s in catalog}
        done = [s.pk for s in sims if s.state == "DONE"]
        prefixes = sorted({f"KIC {n}"[:8] for n in numbers})
        return [
            [("/stars/", f"page={p}")
             for p in range(1, len(stars) // 25 + 2)],
            [(f"/stars/{pk}/", "") for pk in sorted(seeded)],
            [(f"/stars/{s.pk}/", "") for s in stars if s.pk not in seeded],
            [("/simulations/", f"page={p}") for p in range(1, 21)],
            [(f"/simulations/{pk}/", "") for pk in done],
            [(f"/simulations/{s.pk}/", "") for s in sims
             if s.state != "DONE"],
            [(f"/simulations/{pk}/hr.svg", "") for pk in done],
            [("/statistics/", ""), ("/", "")],
            [("/api/v1/simulations", f"limit={n}")
             for n in (10, 25, 50, 100)]
            + [("/api/v1/simulations", f"state={state}")
               for state in ("DONE", "QUEUED", "PREJOB", "RUNNING")],
            [("/api/suggest/", urlencode({"q": p}))
             for p in rng.sample(prefixes, min(150, len(prefixes)))],
        ]

    def install(self, recorder, deployment):
        trace.install_portal(recorder, self.app)

    # -- request mix -----------------------------------------------------
    def _next_request(self):
        """(kind, method, path, query, body, content type, addr, session,
        star pk)."""
        rng = self.rng
        if rng.random() < self.write_share:
            kind = ("campaign" if rng.random() < self.campaign_share
                    else "direct")
            # Writers take turns per kind of write, in a seeded order, so
            # no session outruns the campaign endpoint's burst of five.
            writer = self.writer_order[self.writes[kind]
                                       % len(self.writer_order)]
            self.writes[kind] += 1
            session = self.writer_sessions[writer]
            addr = f"10.1.{writer}.1"
            star = rng.choice(self.write_stars)
            params = random_parameters(rng)
            if kind == "campaign":
                sweep = dict(params, mass=[params["mass"],
                                           round(params["mass"] + 0.01, 6)])
                body = json.dumps({"star": star, "sweep": sweep}).encode()
                return (kind, "POST", "/api/v1/campaigns", "", body,
                        "application/json", addr, session, star)
            return (kind, "POST", f"/submit/direct/{star}/", "",
                    urlencode(params).encode(),
                    "application/x-www-form-urlencoded", addr, session,
                    star)
        rank = bisect.bisect_left(self.cumulative, rng.random())
        path, query = self.universe[min(rank, len(self.universe) - 1)]
        return ("read", "GET", path, query, b"", "",
                self._reader_addr(rng.randrange(self.readers)), None, None)

    @staticmethod
    def _reader_addr(reader):
        return f"10.2.{reader // 250}.{reader % 250}"

    def _requests(self):
        """Endless request stream; each write is followed by a read of
        the star page it changed, from another visitor."""
        while True:
            request = self._next_request()
            yield request
            if request[0] != "read":
                addr = self._reader_addr(self.rng.randrange(self.readers))
                yield ("probe", "GET", f"/stars/{request[8]}/", "", b"",
                       "", addr, None, request[8])

    def _schedule(self, requests, rate, duration, start):
        """Open-loop Poisson arrivals: [(due time, request), ...]; a
        write's probe is due together with it."""
        due, schedule = start, []
        for request in requests:
            if request[0] != "probe":
                due += self.rng.expovariate(rate)
                if due > start + duration:
                    return schedule
            schedule.append((due, request))
        return schedule

    def _send(self, request, out, state):
        kind, method, path, query, body, ctype, addr, session, star = \
            request
        status, headers, content = wsgi_call(
            self.app, method, path, query=query, body=body,
            content_type=ctype, addr=addr, session=session)
        out.attempted += 1
        if status >= 400:
            out.failed += 1
            key = f"{status} {method} {path}"
            state["status"][key] = state["status"].get(key, 0) + 1
        self._track_write(kind, status, headers, content, star, state)

    def _serve(self, schedule, out, state, recorder):
        """Serve *schedule* in arrival order; returns latencies from each
        request's due time (ms), or None for a stalled rung."""
        latencies = []
        for due, request in schedule:
            now = time.perf_counter()
            if now < due:
                # Spin rather than sleep: a request served right after a
                # sleep pays the wake-up of an idle core, which would
                # measure the host rather than the portal.
                while time.perf_counter() < due:
                    pass
                started = time.perf_counter()
                state["late"].append((started - due) * 1e3)
            else:
                started = now
            state["wait"] += (started - due) * 1e3
            with operation(recorder, state["n"]):
                self._send(request, out, state)
            state["n"] += 1
            latencies.append((time.perf_counter() - due) * 1e3)
            if latencies[-1] > 1000.0:
                return None          # backlog beyond recovery: rung fails
        return latencies

    @staticmethod
    def _track_write(kind, status, headers, content, star, state):
        if kind == "direct" and status == 302:
            match = re.search(r"/simulations/(\d+)/",
                              headers.get("Location", ""))
            if match:
                state["writes"].setdefault(star, []).append(
                    int(match.group(1)))
        elif kind == "campaign" and status == 201:
            state["writes"].setdefault(star, []).append(
                max(json.loads(content)["simulations"]))
        elif kind == "probe":
            shown = {int(pk) for pk in re.findall(
                rb"/simulations/(\d+)/", content)}
            stale = 0
            for newest in reversed(state["writes"].get(star, [])):
                if newest in shown:
                    break
                stale += 1
            state["stalest"] = max(state["stalest"], stale)

    def run(self, deployment, seconds, recorder=None):
        out = Outcome(self.unit)
        out.tail_window = self.tail_window
        obs = deployment.obs.metrics
        before = {name: obs.total(name) for name in SERVE_COUNTERS}
        state = {"n": 0, "wait": 0.0, "late": [], "status": {},
                 "writes": {}, "stalest": 0}
        requests = self._requests()
        # Closed-loop warm-up: fill the response cache as a long-running
        # portal has it; untimed.
        for _ in range(self.warmup_requests):
            self._send(next(requests), out, state)
        # Rounds of three phases each.  Closed loop: each request is sent
        # as the previous one ends; its service times and sustained rate
        # are the gated figures.  Open loop at the base rate, timed from
        # due times.  One rung of the rate ladder.  The host's busy
        # spells last seconds to tens of seconds, so spreading every
        # phase over the whole run, rather than running each once, lets
        # each figure see the same mix of busy and quiet time.
        closed = round(seconds * self.closed_per_second)
        rounds = len(self.ladder)
        base, stalled, passed = [], False, []
        for index in range(rounds):
            for _ in range(closed * (index + 1) // rounds
                           - closed * index // rounds):
                sent = time.perf_counter()
                with operation(recorder, state["n"]):
                    self._send(next(requests), out, state)
                state["n"] += 1
                out.latency_ms.append((time.perf_counter() - sent) * 1e3)
                if len(out.latency_ms) % self.reference_every == 0:
                    out.ref_ms.append(reference_ms())
            schedule = self._schedule(requests, self.base_rate,
                                      seconds * self.base_share / rounds,
                                      time.perf_counter() + 0.01)
            segment = self._serve(schedule, out, state, recorder)
            stalled = stalled or segment is None
            base += segment or []
            if self.base_only:
                continue
            rate = self.ladder[index]
            schedule = self._schedule(requests, rate,
                                      seconds * self.rung_share,
                                      time.perf_counter() + 0.01)
            latencies = self._serve(schedule, out, state, None)
            if (latencies is not None and tail(latencies)[0] <= SLO_MS
                    and latencies[-1] <= SLO_MS):
                passed.append(rate)
        out.ops = len(out.latency_ms) + len(base)
        # Requests per second of closed-loop service time.
        out.throughput = 1e3 * len(out.latency_ms) / sum(out.latency_ms) \
            if out.latency_ms else 0.0
        after = {name: obs.total(name) for name in SERVE_COUNTERS}
        delta = {name: after[name] - before[name] for name in after}
        lookups = delta["serve_cache_hits_total"] \
            + delta["serve_cache_misses_total"]
        out.counters = {
            "serve.cache.hit_ratio": (delta["serve_cache_hits_total"]
                                      / lookups if lookups else 0.0),
            "serve.cache.evictions": delta["serve_cache_evictions_total"],
            "serve.cache.invalidations":
                delta["serve_cache_invalidations_total"],
            "serve.admission.shed": delta["serve_shed_total"],
            "serve.ratelimit.rejected": delta["serve_throttled_total"],
            "serve.deadline.timeouts":
                delta["serve_deadline_exceeded_total"],
            # Mean over the open-loop requests; closed-loop ones never wait.
            "webstack.app.queue_wait.ms": (state["wait"], len(base or [])),
        }
        base = [float("inf")] if stalled or not base else base
        value, percentile, beyond = tail(base, self.tail_window)
        late = state["late"] or [0.0]
        out.report["req_ms_p50"] = (median(base), "ms")
        out.report["req_ms_tail"] = (value, "ms")
        out.notes["req_ms_tail"] = (
            f"p{percentile:.1f}, {beyond} beyond, per "
            f"{self.tail_window}-request window (median of "
            f"{len(base) // self.tail_window}), at {self.base_rate:g} req/s")
        if not self.base_only:
            out.report["max_rps_slo"] = (max(passed, default=0.0),
                                         "req/s")
            out.notes["max_rps_slo"] = (
                f"{len(passed)} of {len(self.ladder)} ladder rates met "
                f"{SLO_MS:g} ms")
        out.report["generator_late_ms_p50"] = (median(late), "ms")
        out.report["generator_late_ms_max"] = (max(late), "ms")
        out.checks.expect("base-rate loop kept up", value != float("inf"))
        out.checks.expect("no request failed (4xx/5xx)",
                          out.failed == 0, state["status"])
        out.checks.expect("a page read after a write is at most one "
                          "write stale", state["stalest"] <= 1,
                          f"stalest page: {state['stalest']} writes")
        out.checks.expect("writes were probed", bool(state["writes"]))
        return out


SERVE_COUNTERS = ("serve_cache_hits_total", "serve_cache_misses_total",
                  "serve_cache_evictions_total",
                  "serve_cache_invalidations_total", "serve_shed_total",
                  "serve_throttled_total", "serve_deadline_exceeded_total")


def open_account(deployment, username):
    """An approved astronomer with no usable password (its sessions are
    opened directly by :func:`open_session`)."""
    from repro.core.models import SubmitAuthorization, UserProfile
    from repro.webstack.auth.hashers import make_unusable_password
    from repro.webstack.auth.models import User
    admin = deployment.databases.admin
    user = User(username=username, email=f"{username}@ucar.edu",
                password=make_unusable_password(), is_active=True)
    user.save(db=admin)
    UserProfile(user_id=user.pk, institution="NCAR").save(db=admin)
    for name in deployment.machine_specs:
        SubmitAuthorization(
            user_id=user.pk,
            machine_id=deployment.machine_records[name].pk,
            allocation_id=deployment.allocations[name].pk,
            active=True).save(db=admin)
    return user


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def tail(values, window=None):
    """(value, percentile, samples beyond): the highest percentile that
    still has at least ten samples beyond it; the maximum when there
    are fewer than eleven samples.

    With *window*, the samples are cut into consecutive windows of that
    many and the median of the windows' tails is returned, so that one
    stall of the host moves one window rather than the whole figure.
    """
    if window is not None and len(values) >= 2 * window:
        tails = [tail(values[start:start + window])
                 for start in range(0, len(values) - window + 1, window)]
        return (median([value for value, _, _ in tails]), tails[0][1],
                tails[0][2])
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 100.0, 0
    if n < 11:
        return ordered[-1], 100.0, 0
    index = n - 11
    return ordered[index], 100.0 * (index + 1) / n, 10


WORKLOADS = {cls.name: cls for cls in
             (PollSteady, CampaignLifecycle, PortalBrowse, FleetRounds)}
