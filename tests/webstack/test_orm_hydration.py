"""Differential test of row hydration.

Querysets decode rows by position through the ``RowDecoder`` cached
with each compiled shape.  This file keeps a *reference* decoder — the
name-keyed algorithm: each row as a ``{column: value}`` dict, one
``field.from_db`` per loaded field, and ``select_related`` rows split
out of the joined row by their ``<path>__`` column prefix — and checks
that both build the same instances: same ``__dict__`` (values *and*
their types), same ``_fk_cache`` tree, same ``_deferred_fields``.
"""

import datetime as dt

import pytest

from repro.core import AMPDeployment
from repro.core.models import (ALL_MODELS, KIND_DIRECT, CampaignRecord,
                               GridJobRecord, ObservationSet,
                               ReservationRecord, Simulation, Star)
from repro.webstack.auth.models import Session
from repro.webstack.orm import (CharField, Database, IntegerField, Model,
                                TextField, bind, compiled_cache)

from .conftest import Author, Book


# ----------------------------------------------------------------------
# Reference decoder
# ----------------------------------------------------------------------

def reference_instance(model, row, db, fields=None):
    obj = model.__new__(model)
    obj.__dict__.update(_state_db=db, _state_adding=False)
    loaded = fields if fields is not None else model._meta.fields
    if fields is not None:
        deferred = ({f.attname for f in model._meta.fields}
                    - {f.attname for f in loaded})
        if deferred:
            obj.__dict__["_deferred_fields"] = deferred
    for field in loaded:
        obj.__dict__[field.attname] = field.from_db(row.get(field.column))
    return obj


def reference_fetch(qs):
    """Run *qs*'s SQL on the raw connection and decode by name."""
    sql, params = qs._select_sql()
    plan, fields = qs._join_plan(), qs._projected_fields()
    db = qs.db
    cur = db.connection.execute(sql, params)
    names = [column[0] for column in cur.description]
    instances = []
    for values in cur.fetchall():
        row = dict(zip(names, values))
        obj = reference_instance(qs.model, row, db, fields)
        hydrated = {None: obj}
        for node in plan:
            parent = hydrated.get(node["parent_path"])
            if parent is None:
                hydrated[node["path"]] = None
                continue
            cache = parent.__dict__.setdefault("_fk_cache", {})
            if getattr(parent, node["field"].attname) is None:
                cache[node["field"].name] = None
                hydrated[node["path"]] = None
                continue
            prefix = node["path"] + "__"
            sub = {key[len(prefix):]: value for key, value in row.items()
                   if key.startswith(prefix)}
            related = reference_instance(node["target"], sub, db)
            cache[node["field"].name] = related
            hydrated[node["path"]] = related
        instances.append(obj)
    return instances


def snapshot(obj):
    """An instance as comparable data: type-tagged attribute values and
    the FK cache tree."""
    if obj is None:
        return None
    values = dict(obj.__dict__)
    fk_cache = values.pop("_fk_cache", None)
    return (type(obj), {key: (type(value), value)
                        for key, value in values.items()},
            None if fk_cache is None else
            {name: snapshot(related) for name, related in fk_cache.items()})


def assert_same_hydration(qs):
    decoded = list(qs._clone())
    reference = reference_fetch(qs._clone())
    assert [snapshot(o) for o in decoded] \
        == [snapshot(o) for o in reference]
    return decoded, reference


@pytest.fixture(autouse=True)
def fresh_cache():
    compiled_cache.clear()
    compiled_cache.configure(enabled=True)
    yield
    compiled_cache.clear()
    compiled_cache.configure(enabled=True)


# ----------------------------------------------------------------------
# Every gateway model, on a deployment that has run the daemon
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def deployment():
    dep = AMPDeployment()
    admin = dep.databases.admin
    user = dep.create_astronomer("metcalfe", password="pw12345")
    star = Star.objects.using(admin).first()
    observation = ObservationSet(
        star_id=star.pk, label="fit", teff=5800.0, luminosity=1.1,
        frequencies={"0": [1000.5, 1100.25], "1": [1050.0]})
    observation.save(db=admin)
    campaign = CampaignRecord(owner_id=user.pk, star_id=star.pk,
                              name="sweep", spec={"mass": [1.0, 1.1]},
                              sim_count=1)
    campaign.save(db=admin)
    parameters = {"mass": 1.05, "z": 0.02, "y": 0.27, "alpha": 2.0,
                  "age": 5.0}
    for machine, extra in (("kraken", {}),
                           ("frost", {"observation_id": observation.pk}),
                           ("kraken", {"campaign_id": campaign.pk})):
        Simulation(star_id=star.pk, owner_id=user.pk, kind=KIND_DIRECT,
                   machine_name=machine, parameters=parameters,
                   **extra).save(db=dep.databases.portal)
    for _ in range(3):              # QUEUED -> PREJOB -> RUNNING
        dep.daemon.poll_once()
    simulation = Simulation.objects.using(admin).first()
    ReservationRecord(
        simulation_id=simulation.pk,
        allocation_id=dep.allocations["kraken"].pk, machine_name="kraken",
        reservation_key="probe-1", estimated_su=12.5).save(db=admin)
    Session(session_key=Session.new_key(), user_id_ref=str(user.pk),
            data={"cart": [1, 2]},
            expires_at=dt.datetime(2030, 1, 2, 3, 4, 5)).save(db=admin)
    dep.start_fleet(2)
    dep.poll_fleet_once()
    yield dep
    bind(ALL_MODELS, None)
    dep.close()


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.__name__)
def test_every_model_decodes_like_the_reference(deployment, model):
    qs = model.objects.using(deployment.databases.admin).all()
    decoded, _ = assert_same_hydration(qs)
    assert decoded, f"no {model.__name__} rows: the comparison is vacuous"
    # Same shape again: served by the cached decoder.
    assert_same_hydration(qs)


def test_two_level_select_related_with_null_middle_fk(deployment):
    qs = (Simulation.objects.using(deployment.databases.admin)
          .select_related("campaign__owner", "observation__star", "owner")
          .order_by("id"))
    decoded, _ = assert_same_hydration(qs)
    middles = [sim.__dict__["_fk_cache"]["campaign"] for sim in decoded]
    assert None in middles and any(m is not None for m in middles)
    for sim in decoded:
        if sim.campaign_id is None:
            assert sim.campaign is None
            assert "campaign__owner" not in sim.__dict__["_fk_cache"]
        else:
            assert "owner" in sim.campaign.__dict__["_fk_cache"]


def test_daemon_poll_join_decodes_like_the_reference(deployment):
    qs = (GridJobRecord.objects.using(deployment.databases.daemon)
          .filter(state__in=["UNSUBMITTED", "PENDING", "ACTIVE"])
          .select_related("simulation__owner"))
    decoded, _ = assert_same_hydration(qs)
    assert decoded


@pytest.mark.parametrize("refine", [
    lambda qs: qs.only("state"),
    lambda qs: qs.defer("parameters", "results"),
    lambda qs: qs.only("state").select_related("owner"),
], ids=["only", "defer", "only+select_related"])
def test_projections_and_lazy_loads(deployment, refine):
    db = deployment.databases.admin
    qs = refine(Simulation.objects.using(db).order_by("id"))
    decoded, reference = assert_same_hydration(qs)
    assert all(obj.__dict__.get("_deferred_fields") for obj in decoded)
    name = sorted(decoded[0].__dict__["_deferred_fields"])[0]
    for new, old in zip(decoded, reference):
        with db.count_queries() as counter:
            value = getattr(new, name)
        assert counter.count == 1
        assert name not in new.__dict__["_deferred_fields"]
        field = Simulation._meta.field_by_any_name(name)
        raw = db.connection.execute(
            f'SELECT "{field.column}" FROM amp_simulation WHERE id = ?',
            [old.pk]).fetchone()[0]
        assert (type(value), value) \
            == (type(field.from_db(raw)), field.from_db(raw))


def test_disabled_compiled_cache_decodes_the_same(deployment):
    compiled_cache.configure(enabled=False)
    db = deployment.databases.admin
    for qs in (Simulation.objects.using(db).select_related(
                   "campaign__owner", "observation"),
               Simulation.objects.using(db).only("state"),
               GridJobRecord.objects.using(db).all()):
        assert_same_hydration(qs)
    assert compiled_cache.stats()["size"] == 0


# ----------------------------------------------------------------------
# Field conversions and table layouts
# ----------------------------------------------------------------------

def test_json_bool_datetime_and_null_fields(db):
    ada = Author.objects.create(name="Ada", email=None, active=False)
    Book.objects.create(author=ada, title="Notes", pages=3, rating=4.5,
                        tags={"k": [1, "two", None]},
                        published=dt.datetime(2009, 11, 14, 8, 30, 1))
    Book.objects.create(author=ada, title="Draft")
    for qs in (Book.objects.all(), Book.objects.select_related("author"),
               Author.objects.all()):
        decoded, _ = assert_same_hydration(qs)
        assert decoded
    notes = Book.objects.select_related("author").get(title="Notes")
    assert notes.tags == {"k": [1, "two", None]}
    assert notes.published == dt.datetime(2009, 11, 14, 8, 30, 1)
    assert notes.author.active is False and notes.author.email is None


def test_bytes_in_a_char_field_decode_to_str(db):
    author = Author.objects.create(name="Grace")
    book = Book.objects.create(author=author, title="placeholder",
                               summary="text")
    db.connection.execute(
        'UPDATE ws_book SET title = ?, summary = ? WHERE id = ?',
        [b"Bytes title", "Café".encode(), book.pk])
    stored = db.connection.execute(
        "SELECT typeof(title) FROM ws_book").fetchone()[0]
    assert stored == "blob"
    decoded, _ = assert_same_hydration(Book.objects.all())
    assert decoded[0].title == "Bytes title"
    assert decoded[0].summary == "Café"
    assert type(decoded[0].title) is str


def test_garbage_in_a_typed_column_still_raises(db):
    from repro.webstack.orm import ValidationError
    author = Author.objects.create(name="Edsger")
    book = Book.objects.create(author=author, title="t",
                               published=dt.datetime(2001, 1, 1))
    db.connection.execute(
        "UPDATE ws_book SET published = 'not a date' WHERE id = ?",
        [book.pk])
    with pytest.raises(ValidationError):
        list(Book.objects.all())


class Widget(Model):
    label = CharField(max_length=40, null=True)
    name = CharField(max_length=40)
    size = IntegerField(default=0)
    notes = TextField(default="")

    class Meta:
        table_name = "hyd_widget"


@pytest.fixture()
def altered_db():
    """``hyd_widget`` created without ``label`` and ``notes``, which are
    then added: ``SELECT *`` returns id, name, size, label, notes while
    the model declares label, name, size, notes and then the implicit
    id."""
    database = Database(":memory:")
    database.connection.execute(
        'CREATE TABLE "hyd_widget" ("id" INTEGER PRIMARY KEY '
        'AUTOINCREMENT, "name" TEXT NOT NULL, "size" INTEGER NOT NULL)')
    database.connection.execute(
        "INSERT INTO hyd_widget (name, size) VALUES ('gear', 7)")
    bind([Widget], database)
    yield database
    bind([Widget], None)
    database.close()


def test_select_star_on_an_altered_table(altered_db):
    qs = Widget.objects.filter(size__gte=0)
    # Before the ALTER the table lacks two declared columns: they
    # decode to None, as the reference's row.get() gives.
    decoded, _ = assert_same_hydration(qs)
    assert (decoded[0].name, decoded[0].size, decoded[0].label,
            decoded[0].notes) == ("gear", 7, None, None)
    for ddl in ('ALTER TABLE "hyd_widget" ADD COLUMN "label" TEXT',
                'ALTER TABLE "hyd_widget" ADD COLUMN "notes" TEXT '
                "NOT NULL DEFAULT ''"):
        altered_db.connection.execute(ddl)
    altered_db.connection.execute(
        "INSERT INTO hyd_widget (name, size, label, notes) "
        "VALUES ('cog', 3, 'L2', 'n')")
    columns = [row[1] for row in altered_db.connection.execute(
        'PRAGMA table_info("hyd_widget")')]
    assert columns == ["id", "name", "size", "label", "notes"]
    assert [f.column for f in Widget._meta.fields] \
        == ["label", "name", "size", "notes", "id"]
    # The same cached shape re-resolves its layout for the new columns.
    hits = compiled_cache.stats()["hits"]
    decoded, _ = assert_same_hydration(qs)
    assert compiled_cache.stats()["hits"] > hits
    assert [(w.name, w.size, w.label, w.notes) for w in decoded] \
        == [("gear", 7, None, ""), ("cog", 3, "L2", "n")]

