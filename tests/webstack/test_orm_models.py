"""Model CRUD, relations, and validation-at-save tests."""

import pytest

from repro.webstack.orm import IntegrityError, ValidationError

from .conftest import Author, Book


class TestCrud:
    def test_create_assigns_pk(self, db):
        author = Author.objects.create(name="Metcalfe")
        assert author.pk is not None

    def test_get_round_trip(self, db):
        Author.objects.create(name="Woitaszek", email="m@ucar.edu")
        fetched = Author.objects.get(name="Woitaszek")
        assert fetched.email == "m@ucar.edu"
        assert fetched.active is True  # default applied and bool-typed

    def test_update_via_save(self, db):
        author = Author.objects.create(name="Shorrock")
        author.email = "ian@example.org"
        author.save()
        assert Author.objects.get(pk=author.pk).email == "ian@example.org"

    def test_delete(self, db):
        author = Author.objects.create(name="Temp")
        author.delete()
        assert Author.objects.count() == 0
        assert author.pk is None

    def test_refresh_from_db(self, db):
        author = Author.objects.create(name="A")
        Author.objects.filter(pk=author.pk).update(email="x@y.zz")
        author.refresh_from_db()
        assert author.email == "x@y.zz"

    def test_unknown_kwarg_rejected(self, db):
        with pytest.raises(TypeError):
            Author(nom="wrong")

    def test_equality_by_pk(self, db):
        a1 = Author.objects.create(name="Same")
        a2 = Author.objects.get(pk=a1.pk)
        assert a1 == a2
        assert hash(a1) == hash(a2)


class TestValidationOnSave:
    def test_choices_enforced_at_save(self, db):
        author = Author.objects.create(name="A")
        with pytest.raises(ValidationError):
            Book.objects.create(author=author, title="t", status="bogus")

    def test_max_length_enforced_at_save(self, db):
        with pytest.raises(ValidationError):
            Author.objects.create(name="x" * 61)

    def test_collects_multiple_errors(self, db):
        author = Author.objects.create(name="A")
        book = Book(author=author, title="x" * 200, status="nope")
        with pytest.raises(ValidationError) as err:
            book.save()
        assert set(err.value.error_dict) >= {"title", "status"}

    def test_unique_violation_is_integrity_error(self, db):
        Author.objects.create(name="Dup")
        with pytest.raises(IntegrityError):
            Author.objects.create(name="Dup")

    def test_float_bounds_enforced_at_save(self, db):
        author = Author.objects.create(name="A")
        with pytest.raises(ValidationError):
            Book.objects.create(author=author, title="t", rating=9.0)



class TestJSONWritePath:
    """Each JSON value is serialised once per write: the stored
    ``sort_keys`` text is also the serialisability check."""

    @pytest.fixture()
    def dumps_calls(self, monkeypatch):
        from repro.webstack.orm import fields
        calls = []
        real = fields.json.dumps

        def counting(value, **kwargs):
            calls.append(value)
            return real(value, **kwargs)

        monkeypatch.setattr(fields.json, "dumps", counting)
        return calls

    def test_save_bulk_create_and_bulk_update_encode_once(
            self, db, dumps_calls):
        author = Author.objects.create(name="A")
        book = Book.objects.create(author=author, title="t",
                                   tags={"b": 1, "a": [1, 2]})
        assert len(dumps_calls) == 1
        stored = db.connection.execute(
            "SELECT tags FROM ws_book WHERE id = ?", [book.pk]).fetchone()
        assert stored[0] == '{"a": [1, 2], "b": 1}'
        book.tags = {"c": 3}
        book.save()
        assert len(dumps_calls) == 2
        Book.objects.bulk_create(
            [Book(author=author, title=f"b{i}", tags=[i]) for i in range(3)])
        assert len(dumps_calls) == 5
        books = list(Book.objects.all())
        for each in books:
            each.tags = {"n": each.pk}
        Book.objects.bulk_update(books, ["tags"])
        assert len(dumps_calls) == 5 + len(books)
        assert Book.objects.get(pk=book.pk).tags == {"n": book.pk}

    def test_full_clean_still_checks_without_saving(self, db, dumps_calls):
        author = Author.objects.create(name="A")
        Book(author=author, title="t", tags={"k": 1}).full_clean()
        assert len(dumps_calls) == 1
        with pytest.raises(ValidationError):
            Book(author=author, title="t", tags={"k": object()}).full_clean()

    @pytest.mark.parametrize("bad", [{"k": object()}, {1: "a", "b": 2}],
                             ids=["unserialisable", "mixed-key-types"])
    def test_every_write_path_raises_validation_error(self, db, bad):
        author = Author.objects.create(name="A")
        with pytest.raises(ValidationError) as err:
            Book(author=author, title="x" * 200, tags=bad).save()
        # Collected with the other fields' errors, as full_clean does.
        assert set(err.value.error_dict) >= {"tags", "title"}
        with pytest.raises(ValidationError):
            Book.objects.bulk_create([Book(author=author, title="t",
                                           tags=bad)])
        book = Book.objects.create(author=author, title="ok")
        book.tags = bad
        with pytest.raises(ValidationError):
            Book.objects.bulk_update([book], ["tags"])
        with pytest.raises(ValidationError):
            Book.objects.filter(pk=book.pk).update(tags=bad)
        assert Book.objects.get(pk=book.pk).tags is None
        assert Book.objects.count() == 1


class TestRelations:
    def test_forward_access(self, db):
        author = Author.objects.create(name="Metcalfe")
        book = Book.objects.create(author=author, title="MPIKAIA")
        fetched = Book.objects.get(pk=book.pk)
        assert fetched.author.name == "Metcalfe"
        assert fetched.author_id == author.pk

    def test_forward_cache(self, db):
        author = Author.objects.create(name="A")
        book = Book.objects.create(author=author, title="t")
        fetched = Book.objects.get(pk=book.pk)
        assert fetched.author is fetched.author  # cached instance

    def test_reverse_accessor(self, db):
        author = Author.objects.create(name="A")
        other = Author.objects.create(name="B")
        Book.objects.create(author=author, title="one")
        Book.objects.create(author=author, title="two")
        Book.objects.create(author=other, title="three")
        assert {b.title for b in author.books} == {"one", "two"}

    def test_cascade_delete(self, db):
        author = Author.objects.create(name="A")
        Book.objects.create(author=author, title="doomed")
        author.delete()
        assert Book.objects.count() == 0

    def test_assign_instance_sets_id(self, db):
        author = Author.objects.create(name="A")
        book = Book(title="t")
        book.author = author
        assert book.author_id == author.pk


class TestDoesNotExist:
    def test_per_model_exception(self, db):
        with pytest.raises(Author.DoesNotExist):
            Author.objects.get(name="missing")

    def test_exceptions_are_distinct_per_model(self, db):
        assert Author.DoesNotExist is not Book.DoesNotExist
        with pytest.raises(Author.DoesNotExist):
            try:
                Author.objects.get(name="missing")
            except Book.DoesNotExist:  # pragma: no cover
                pytest.fail("caught wrong model's DoesNotExist")

    def test_multiple_objects_returned(self, db):
        Author.objects.create(name="A", email="same@x.yz")
        Author.objects.create(name="B", email="same@x.yz")
        with pytest.raises(Author.MultipleObjectsReturned):
            Author.objects.get(email="same@x.yz")


class TestManager:
    def test_get_or_create(self, db):
        a1, created1 = Author.objects.get_or_create(name="Once")
        a2, created2 = Author.objects.get_or_create(name="Once")
        assert created1 and not created2
        assert a1.pk == a2.pk

    def test_get_or_create_defaults(self, db):
        author, _ = Author.objects.get_or_create(
            name="X", defaults={"email": "x@y.zz"})
        assert author.email == "x@y.zz"

    def test_manager_not_accessible_on_instance(self, db):
        author = Author.objects.create(name="A")
        with pytest.raises(AttributeError):
            author.objects
