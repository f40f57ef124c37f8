"""Round-trip budgets and telemetry robustness of the daemon poll.

The batch query layer's contract is that a steady-state poll costs a
*fixed* number of database round trips no matter how many simulations
and grid jobs are in flight — these tests pin that budget so a per-row
loop cannot creep back in unnoticed.
"""

import datetime

import pytest

from repro.grid.clients import EXIT_OK, CommandResult

from .conftest import submit_direct


class TestPollRoundTripBudget:
    def test_fifty_active_simulations_stay_in_budget(self, deployment,
                                                     astronomer):
        for _ in range(50):
            submit_direct(deployment, astronomer)
        # The first polls perform the submissions (writes necessarily
        # scale with brand-new work: QUEUED → PREJOB → RUNNING); the
        # budget holds once all 50 are waiting on their batch jobs.
        for _ in range(3):
            deployment.daemon.poll_once()
        db = deployment.databases.daemon
        with db.count_queries() as counter:
            deployment.daemon.poll_once()
        assert counter.count <= 10, repr(counter)

    def test_budget_independent_of_population(self, deployment,
                                              astronomer):
        """The poll cost at 5 active simulations equals the cost at 25 —
        set-oriented, not per-row."""
        db = deployment.databases.daemon
        for _ in range(5):
            submit_direct(deployment, astronomer)
        for _ in range(3):
            deployment.daemon.poll_once()
        with db.count_queries() as small:
            deployment.daemon.poll_once()
        for _ in range(20):
            submit_direct(deployment, astronomer)
        for _ in range(3):
            deployment.daemon.poll_once()
        with db.count_queries() as large:
            deployment.daemon.poll_once()
        assert large.count == small.count


class TestJobSweepProjection:
    """``update_grid_jobs`` loads only the columns it reads (``only()``
    across its ``select_related`` join).  A deferred column touched by
    the sweep, its ``bulk_update`` or a write signal receiver would cost
    one extra statement per job, so a projected run must make exactly
    the statements an unprojected run makes."""

    @staticmethod
    def sweep(monkeypatch, projected):
        """Statements per ``update_grid_jobs`` call while batch jobs go
        PENDING -> ACTIVE -> DONE, with the serving tier's cache
        invalidation connected; the number of job state changes those
        calls made; and the job rows at the end (less their wall-clock
        stamps)."""
        from repro.core import AMPDeployment
        from repro.core.models import ALL_MODELS, GridJobRecord
        from repro.webstack.orm import QuerySet, bind
        if not projected:
            monkeypatch.setattr(QuerySet, "only",
                                lambda self, *names: self._clone())
        deployment = AMPDeployment()
        try:
            deployment.build_portal(serve=True)
            assert deployment.serve_cache is not None
            user = deployment.create_astronomer("metcalfe",
                                                password="pw12345")
            for index in range(6):
                submit_direct(deployment, user,
                              machine=("kraken", "frost")[index % 2])
            db = deployment.databases.daemon
            jobs = GridJobRecord.objects.using(db)
            counts, changed = [], 0
            for _ in range(12):
                deployment.clock.advance(900.0)
                before = {job.pk: job.state for job in jobs.all()}
                with db.count_queries() as counter:
                    deployment.daemon.update_grid_jobs()
                changed += sum(before.get(job.pk, job.state) != job.state
                               for job in jobs.all())
                counts.append(counter.count)
                deployment.daemon.poll_once()
            rows = [{k: v for k, v in job.__dict__.items()
                     if k not in ("created", "updated", "_state_db")}
                    for job in jobs.all()]
            return counts, changed, rows
        finally:
            bind(ALL_MODELS, None)
            deployment.close()
            monkeypatch.undo()

    def test_projected_sweep_makes_no_lazy_loads(self, monkeypatch):
        counts, changed, rows = self.sweep(monkeypatch, projected=True)
        full_counts, full_changed, full_rows = self.sweep(
            monkeypatch, projected=False)
        assert changed > 0 and changed == full_changed
        assert counts == full_counts
        # One SELECT, plus one bulk UPDATE when a job changed state.
        assert set(counts) == {1, 2}
        assert rows == full_rows


class TestCatalogBatching:
    def test_local_search_hit_is_one_query(self, deployment):
        db = deployment.databases.portal
        with db.count_queries() as counter:
            star, created = deployment.catalog.search("16 Cyg B")
        assert star is not None and not created
        assert counter.count == 1
        assert deployment.simbad.lookups == 0


class TestTelemetryRobustness:
    @pytest.mark.parametrize("stdout", [
        "",                                  # empty reply
        "error: cannot contact server",      # qstat error text on stdout
        "12",                                # depth but no utilisation
        "-3 0.5",                            # negative queue depth
        "7 nan",                             # NaN utilisation
        "7 not-a-float",                     # unparsable utilisation
    ])
    def test_malformed_queue_status_keeps_stale_values(self, deployment,
                                                       stdout):
        from repro.core.models import MachineRecord
        admin = deployment.databases.admin
        deployment.daemon.poll_once()        # publish a clean sample

        def snapshot():
            return {r.name: (r.queue_depth, r.utilisation,
                             r.telemetry_updated)
                    for r in MachineRecord.objects.using(admin).all()}
        before = snapshot()
        clients = deployment.daemon.clients
        original = clients.queue_status
        clients.queue_status = lambda name: CommandResult(
            ["globus-job-run", name, "/usr/bin/qstat", "-Q"],
            EXIT_OK, stdout=stdout)
        try:
            deployment.daemon.poll_once()    # must not raise
        finally:
            clients.queue_status = original
        assert snapshot() == before

    def test_telemetry_timestamp_is_timezone_aware(self, deployment):
        from repro.core.models import MachineRecord
        from repro.hpc import sim_datetime
        deployment.daemon.poll_once()
        record = MachineRecord.objects.using(
            deployment.databases.admin).get(name="kraken")
        stamp = record.telemetry_updated
        assert stamp is not None
        assert stamp.tzinfo is not None
        assert stamp.utcoffset() == datetime.timedelta(0)
        # Stamped from the injected sim clock (not wall clock), so
        # replays are deterministic: the timestamp maps the virtual
        # "now" onto the simulation epoch.
        age = sim_datetime(deployment.clock.now) - stamp
        assert datetime.timedelta(0) <= age < datetime.timedelta(minutes=5)
