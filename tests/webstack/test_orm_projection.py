"""``only()`` projections that follow ``select_related`` paths.

A ``path__field`` name in ``only()`` projects the joined model at
*path*: it loads its pk, the named fields and the FK columns of the
joins below it; every other attribute is deferred on that instance and
loads lazily with one query, as base-model deferrals always have.  A
joined model with no named field loads in full.  Each test compares a
projected load with a full load of the same rows.
"""

import datetime as dt

import pytest

from repro.webstack.orm import (CharField, Database, DateTimeField,
                                FieldError, ForeignKey, IntegerField,
                                JSONField, Model, TextField, bind,
                                compiled_cache, create_all)


class ProjEditor(Model):
    name = CharField(max_length=60)
    email = CharField(max_length=100, null=True)
    bio = TextField(default="")
    profile = JSONField(null=True)

    class Meta:
        table_name = "pj_editor"


class ProjSeries(Model):
    editor = ForeignKey(ProjEditor, related_name="series")
    title = CharField(max_length=60)
    notes = JSONField(null=True)
    started = DateTimeField(null=True)

    class Meta:
        table_name = "pj_series"


class ProjVolume(Model):
    series = ForeignKey(ProjSeries, null=True, related_name="volumes")
    title = CharField(max_length=60)
    pages = IntegerField(default=0)
    blurb = TextField(default="")

    class Meta:
        table_name = "pj_volume"
        ordering = ["id"]


MODELS = [ProjEditor, ProjSeries, ProjVolume]

PROJECTION = ("title", "series__title", "series__editor__name")


@pytest.fixture()
def db():
    database = Database(":memory:")
    create_all(MODELS, database)
    bind(MODELS, database)
    compiled_cache.clear()
    ada = ProjEditor.objects.create(name="Ada", email="ada@example.org",
                                    bio="b" * 40, profile={"k": [1, 2]})
    bob = ProjEditor.objects.create(name="Bob", profile=None)
    fiction = ProjSeries.objects.create(
        editor=ada, title="Fiction", notes={"n": 1},
        started=dt.datetime(2009, 11, 14, 8, 30))
    verse = ProjSeries.objects.create(editor=bob, title="Verse")
    for series, title in ((fiction, "One"), (None, "Loose"),
                          (verse, "Two"), (fiction, "Three")):
        ProjVolume.objects.create(series=series, title=title, pages=7,
                                  blurb=f"about {title}")
    yield database
    compiled_cache.clear()
    bind(MODELS, None)
    database.close()


def full_and_projected(*names, related="series__editor"):
    full = list(ProjVolume.objects.select_related(related))
    projected = list(ProjVolume.objects.select_related(related)
                     .only(*names))
    assert [v.pk for v in full] == [v.pk for v in projected]
    return full, projected


def nodes(volume):
    """The volume and its joined series and editor, as hydrated (None
    below a NULL FK)."""
    series = volume.__dict__["_fk_cache"]["series"]
    editor = (None if series is None
              else series.__dict__["_fk_cache"]["editor"])
    return volume, series, editor


def loaded(obj):
    return {f.attname: obj.__dict__[f.attname] for f in obj._meta.fields
            if f.attname in obj.__dict__}


def test_every_loaded_attribute_equals_the_full_load(db):
    full, projected = full_and_projected(*PROJECTION)
    for whole, part in zip(full, projected):
        for a, b in zip(nodes(whole), nodes(part)):
            assert (a is None) == (b is None)
            if a is None:
                continue
            assert loaded(b) == {k: loaded(a)[k] for k in loaded(b)}
    volume, series, editor = nodes(projected[0])
    assert set(loaded(volume)) == {"id", "series_id", "title"}
    assert volume.__dict__["_deferred_fields"] == {"pages", "blurb"}
    # The series keeps the FK its own join needs.
    assert set(loaded(series)) == {"id", "editor_id", "title"}
    assert series.__dict__["_deferred_fields"] == {"notes", "started"}
    assert set(loaded(editor)) == {"id", "name"}
    assert editor.__dict__["_deferred_fields"] == {"email", "bio",
                                                   "profile"}


def test_projection_selects_only_the_named_columns(db):
    sql, _ = (ProjVolume.objects.select_related("series__editor")
              .only(*PROJECTION))._select_sql()
    for absent in ("blurb", "notes", "started", "email", "bio",
                   "profile", "pages"):
        assert f'"{absent}"' not in sql
    assert '"series__editor_id"' in sql


def test_each_deferred_joined_attribute_costs_one_query(db):
    full, projected = full_and_projected(*PROJECTION)
    for whole, part in zip(full, projected):
        for a, b in zip(nodes(whole)[1:], nodes(part)[1:]):
            if b is None:
                continue
            deferred = sorted(b.__dict__["_deferred_fields"])
            assert deferred
            for name in deferred:
                with db.count_queries() as counter:
                    value = getattr(b, name)
                assert counter.count == 1, name
                assert (type(value), value) \
                    == (type(getattr(a, name)), getattr(a, name))
                with db.count_queries() as again:
                    getattr(b, name)
                assert again.count == 0
            assert not b.__dict__["_deferred_fields"]


def test_joined_instances_own_their_deferred_sets(db):
    _, projected = full_and_projected(*PROJECTION)
    one, three = projected[0], projected[3]
    assert nodes(one)[1].pk == nodes(three)[1].pk      # both "Fiction"
    one_series, three_series = nodes(one)[1], nodes(three)[1]
    assert one_series is not three_series
    one_series.notes                                    # lazy load
    assert "notes" not in one_series.__dict__["_deferred_fields"]
    assert "notes" in three_series.__dict__["_deferred_fields"]


def test_null_middle_fk_leaves_the_subtree_none(db):
    _, projected = full_and_projected(*PROJECTION)
    loose = projected[1]
    assert loose.series_id is None
    assert loose.__dict__["_fk_cache"] == {"series": None}
    with db.count_queries() as counter:
        assert loose.series is None
    assert counter.count == 0


def test_a_joined_model_with_no_named_field_loads_in_full(db):
    full, projected = full_and_projected("title", "series__title")
    for whole, part in zip(full, projected):
        _, series, editor = nodes(part)
        if series is None:
            continue
        assert series.__dict__["_deferred_fields"] == {"notes", "started"}
        assert "_deferred_fields" not in editor.__dict__
        assert loaded(editor) == loaded(nodes(whole)[2])


def test_only_before_select_related_is_the_same_projection(db):
    before = list(ProjVolume.objects.only(*PROJECTION)
                  .select_related("series__editor"))
    after = list(ProjVolume.objects.select_related("series__editor")
                 .only(*PROJECTION))
    for x, y in zip(before, after):
        for a, b in zip(nodes(x), nodes(y)):
            assert (a is None and b is None) or (
                loaded(a) == loaded(b)
                and a.__dict__.get("_deferred_fields")
                == b.__dict__.get("_deferred_fields"))


def test_two_projections_get_distinct_cache_entries(db):
    base = ProjVolume.objects.select_related("series__editor")
    shapes = [base.only(*PROJECTION),
              base.only("title", "series__title")]
    compiled_cache.clear()
    first = [list(qs._clone()) for qs in shapes]
    assert compiled_cache.stats()["size"] == 2
    assert compiled_cache.stats()["compiles"] == 2
    second = [list(qs._clone()) for qs in shapes]
    assert compiled_cache.stats()["compiles"] == 2
    assert compiled_cache.stats()["hits"] == 2
    for a, b in zip(first, second):
        assert [loaded(nodes(v)[2] or v) for v in a] \
            == [loaded(nodes(v)[2] or v) for v in b]
    # Each shape kept its own projection of the editor.
    assert "_deferred_fields" in nodes(second[0][0])[2].__dict__
    assert "_deferred_fields" not in nodes(second[1][0])[2].__dict__


@pytest.mark.parametrize("names", [
    ("nope",),                          # unknown base field
    ("series__nope",),                  # unknown joined field
    ("title__name",),                   # a hop that is not a FK
    ("series__editor__nope",),
])
def test_unknown_names_raise_at_only(db, names):
    with pytest.raises(FieldError):
        ProjVolume.objects.select_related("series__editor").only(*names)


@pytest.mark.parametrize("related, names", [
    ((), ("series__title",)),                   # nothing joined
    (("series",), ("series__editor__name",)),   # deeper than the join
])
def test_a_path_select_related_does_not_join_raises(db, related, names):
    qs = ProjVolume.objects.select_related(*related).only(*names)
    with pytest.raises(FieldError, match="select_related"):
        list(qs)
