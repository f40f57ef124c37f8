"""Layer spans recorded from outside the program.

A traced run wraps the public calls into each layer of ``repro`` with
:meth:`Recorder.wrap` and records one span per call: name, start, end,
parent span and trace id (the number of the workload operation — poll,
campaign, request or fleet round — it belongs to).  Nothing under
``src/`` is modified; the wrappers are installed on classes and
instances at run time and removed again by :meth:`Recorder.uninstall`.
Untraced runs install nothing.

Two kinds of metric come out of the spans:

- *layer* metrics (ORM, grid clients, workflow, broker, leases, sim
  clock, templates) are **self time**: a span's duration minus the part
  covered by its child spans, so a queryset evaluated inside another
  (a prefetch inside a fetch) is counted once;
- *phase* metrics (daemon poll phases, middleware phases, the whole
  request) are **inclusive**: phases partition their parent operation.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

GRID_COMMANDS = ("ensure_proxy", "job_status", "queue_status", "submit_job",
                 "job_lookup", "stage_in", "stage_out")
DAEMON_PHASES = ("update_grid_jobs", "advance_simulations",
                 "update_machine_telemetry", "recover_resource_holds")
MIDDLEWARE = ("ObservabilityMiddleware", "AdmissionMiddleware",
              "RateLimitMiddleware", "SSLRequiredMiddleware",
              "DeadlineMiddleware", "CacheMiddleware", "BrownoutMiddleware",
              "AuthMiddleware", "DeadlineScopeMiddleware")
ROLES = ("admin", "portal", "daemon")
OPERATIONS = ("select", "insert", "update", "delete")

#: Spans whose self time is reported as ``<name>.ms`` per operation.
SELF_TIMED = (
    ["sched.broker.place_pending", "core.workflow.advance",
     "core.leases.sweep", "webstack.orm.execute", "webstack.orm.query",
     "webstack.orm.save", "webstack.orm.bulk", "hpc.simclock.advance",
     "webstack.templates.render"]
    + [f"grid.clients.{command}" for command in GRID_COMMANDS])
#: Spans whose inclusive duration is reported as ``<name>.ms``.
INCLUSIVE = ([f"core.daemon.{phase}" for phase in DAEMON_PHASES]
             + [f"webstack.middleware.{name}" for name in MIDDLEWARE]
             + ["webstack.app.handle"])


def metric_units():
    """Every per-layer metric name with its unit, in report order.

    Values are per workload operation (per poll, campaign, request or
    fleet round) unless the unit says otherwise.
    """
    units = {}
    for phase in DAEMON_PHASES:
        units[f"core.daemon.{phase}.ms"] = "ms"
    units["sched.broker.place_pending.ms"] = "ms"
    units["core.workflow.advance.calls"] = "count"
    units["core.workflow.advance.ms"] = "ms"
    units["core.leases.sweep.ms"] = "ms"
    for role in ROLES:
        for operation in OPERATIONS:
            units[f"webstack.orm.statements.{role}.{operation}"] = "count"
    for name in ("execute", "query"):
        units[f"webstack.orm.{name}.ms"] = "ms"
    units["webstack.orm.rows"] = "count"
    units["webstack.orm.save.ms"] = "ms"
    units["webstack.orm.bulk.ms"] = "ms"
    units["webstack.orm.compiled_cache.hit_ratio"] = "1"
    for command in GRID_COMMANDS:
        units[f"grid.clients.{command}.calls"] = "count"
        units[f"grid.clients.{command}.ms"] = "ms"
        units[f"grid.clients.{command}.failed"] = "count"
    units["hpc.simclock.advance.ms"] = "ms"
    units["obs.spans"] = "count"
    units["obs.events"] = "count"
    units["webstack.app.handle.ms"] = "ms"
    units["webstack.app.queue_wait.ms"] = "ms"
    units["webstack.view.ms"] = "ms"
    for name in MIDDLEWARE:
        units[f"webstack.middleware.{name}.ms"] = "ms"
    units["webstack.templates.render.ms"] = "ms"
    units["serve.cache.hit_ratio"] = "1"
    units["serve.cache.evictions"] = "count"
    units["serve.cache.invalidations"] = "count"
    units["serve.admission.shed"] = "count"
    units["serve.ratelimit.rejected"] = "count"
    units["serve.deadline.timeouts"] = "count"
    units["trace.unattributed.ms"] = "ms"
    units["trace.overhead_pct"] = "%"
    return units


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        #: One list per span: [name, start, end, parent index, trace id].
        self.spans = []
        self.counts = defaultdict(int)
        self.trace_id = None
        self._stack = []
        self._patched = []          # (owner, attribute, original or None)

    # -- recording -------------------------------------------------------
    def wrap(self, name, fn, note=None):
        """Return *fn* wrapped in a span named *name*.

        Calls outside a workload operation (:meth:`operation`) pass
        straight through.  ``note(args, kwargs, result)`` runs after a
        successful traced call; it feeds counters that need the call's
        arguments or result.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if self.trace_id is None:        # set-up or checks: not traced
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1,
                          self.trace_id])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if note is not None:
                note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, key, fn):
        """Return *fn* wrapped so each call bumps ``counts[key]`` (no
        span: used on per-row hot paths)."""
        counts = self.counts

        def tallied(*args, **kwargs):
            if self.trace_id is not None:
                counts[key] += 1
            return fn(*args, **kwargs)

        tallied.__wrapped__ = fn
        return tallied

    def operation(self, trace_id):
        """Context manager: the root span of one workload operation."""
        recorder = self

        class _Root:
            def __enter__(self):
                recorder.trace_id = trace_id
                self.index = len(recorder.spans)
                recorder.spans.append(["op", time.perf_counter(), 0.0,
                                       -1, trace_id])
                recorder._stack.append(self.index)

            def __exit__(self, *exc):
                recorder._stack.pop()
                recorder.spans[self.index][2] = time.perf_counter()
                recorder.trace_id = None

        return _Root()

    # -- installing --------------------------------------------------------
    def patch(self, owner, attribute, replacement):
        """Set ``owner.attribute``; :meth:`uninstall` restores it."""
        if isinstance(owner, type):
            original = owner.__dict__.get(attribute)
        else:
            original = None         # instance patch: delete to restore
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def patch_call(self, owner, attribute, name, note=None):
        self.patch(owner, attribute,
                   self.wrap(name, getattr(owner, attribute), note))

    def uninstall(self):
        for owner, attribute, original in reversed(self._patched):
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._patched.clear()

    # -- reporting ---------------------------------------------------------
    def self_and_total(self):
        """``{name: (self seconds, inclusive seconds)}`` over all spans."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = defaultdict(lambda: [0.0, 0.0])
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = totals[name]
            entry[0] += end - start - covered[index]
            entry[1] += end - start
        return {name: tuple(value) for name, value in totals.items()}

    def write_jsonl(self, path):
        """Write every span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def install_orm(recorder):
    """Wrap the ORM's statement, queryset, save and bulk entry points."""
    from repro.webstack.orm import Database, Model
    from repro.webstack.orm.query import QuerySet

    def note_statement(args, kwargs, result):
        recorder.counts[f"webstack.orm.statements.{args[0].role}."
                        f"{kwargs['operation']}"] += 1

    recorder.patch_call(Database, "execute", "webstack.orm.execute",
                        note_statement)
    for attribute in ("_fetch", "count", "exists", "aggregate",
                      "values_count"):
        recorder.patch_call(QuerySet, attribute, "webstack.orm.query")
    for attribute in ("bulk_create", "bulk_update"):
        recorder.patch_call(QuerySet, attribute, "webstack.orm.bulk")
    recorder.patch_call(Model, "save", "webstack.orm.save")
    hydrate = Model.__dict__["_from_db_row"].__func__
    recorder.patch(Model, "_from_db_row",
                   classmethod(recorder.counted("webstack.orm.rows",
                                                hydrate)))


def install_daemon(recorder, daemon):
    """Wrap one daemon instance: its poll phases, broker, workflows,
    lease manager and grid clients."""
    for phase in DAEMON_PHASES:
        recorder.patch_call(daemon, phase, f"core.daemon.{phase}")
    recorder.patch_call(daemon.broker, "place_pending",
                        "sched.broker.place_pending")

    def note_advance(args, kwargs, result):
        recorder.counts["core.workflow.advance.calls"] += 1

    for workflow in daemon.workflows.values():
        recorder.patch_call(workflow, "advance", "core.workflow.advance",
                            note_advance)
    if daemon.leases is not None:
        recorder.patch_call(daemon.leases, "sweep", "core.leases.sweep")
    install_clients(recorder, daemon.clients)


def install_clients(recorder, clients):
    for command in GRID_COMMANDS:
        def note(args, kwargs, result, _command=command):
            recorder.counts[f"grid.clients.{_command}.calls"] += 1
            if not result.ok:
                recorder.counts[f"grid.clients.{_command}.failed"] += 1
        recorder.patch_call(clients, command, f"grid.clients.{command}",
                            note)


def install_clock(recorder, clock):
    recorder.patch_call(clock, "advance", "hpc.simclock.advance")


def install_portal(recorder, app):
    """Wrap the WSGI app's request handling, each middleware phase and
    template rendering."""
    from repro.webstack.templates.engine import Template
    recorder.patch_call(app, "handle", "webstack.app.handle")
    for middleware in app.middleware:
        name = f"webstack.middleware.{type(middleware).__name__}"
        for phase in ("process_request", "process_response"):
            if hasattr(middleware, phase):
                recorder.patch_call(middleware, phase, name)
    recorder.patch_call(Template, "render", "webstack.templates.render")


def layer_metrics(recorder, ops, *, counters=None, overhead_pct=0.0):
    """Per-layer metrics per operation, zero where a layer never ran.

    *counters* maps metric names to values taken by the workload itself
    (cache ratios, telemetry growth, queue wait); ratios are reported as
    given, ``(total, samples)`` pairs as their mean, other totals divided
    by *ops*.
    """
    units = metric_units()
    ops = max(1, ops)
    timed = recorder.self_and_total()
    values = dict.fromkeys(units, 0.0)
    for name in SELF_TIMED:
        values[f"{name}.ms"] = timed.get(name, (0.0, 0.0))[0] * 1e3 / ops
    for name in INCLUSIVE:
        values[f"{name}.ms"] = timed.get(name, (0.0, 0.0))[1] * 1e3 / ops
    middleware_s = sum(timed.get(f"webstack.middleware.{name}",
                                 (0.0, 0.0))[1] for name in MIDDLEWARE)
    handle_s = timed.get("webstack.app.handle", (0.0, 0.0))[1]
    values["webstack.view.ms"] = max(0.0, handle_s - middleware_s) \
        * 1e3 / ops
    values["trace.unattributed.ms"] = timed.get("op", (0.0, 0.0))[0] \
        * 1e3 / ops
    for key, count in recorder.counts.items():
        values[key] = count / ops
    for key, value in (counters or {}).items():
        if isinstance(value, tuple):        # (total, samples): a mean
            total, samples = value
            values[key] = total / samples if samples else 0.0
        elif units[key] in ("1", "%"):
            values[key] = value
        else:
            values[key] = value / ops
    values["trace.overhead_pct"] = overhead_pct
    return {name: (values[name], unit) for name, unit in units.items()}
