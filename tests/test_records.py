"""Every record class against the collections.namedtuple it replaced."""

import copy
import pickle
import re

import pytest

from revcrochet import PatternSpec, build_plan, parse

from conftest import RECORD_CLASSES, RECORD_DECLARATIONS, namedtuple_oracle

records = pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)


def sample(cls):
    """One distinct value per field, so a field out of place shows."""
    return tuple(f"{cls.__name__}.{name}" for name in cls._fields)


def defaults(cls):
    return cls.__new__.__defaults__ or ()


def required(cls):
    return len(cls._fields) - len(defaults(cls))


@records
def test_fields_and_defaults_are_as_declared(cls):
    declared = RECORD_DECLARATIONS[cls]
    fields, declared_defaults = declared if isinstance(declared, tuple) else (declared, ())
    assert cls._fields == tuple(fields.split())
    assert defaults(cls) == declared_defaults


@records
def test_construction(cls):
    oracle, values = namedtuple_oracle(cls), sample(cls)
    keywords = dict(zip(cls._fields, values))
    made = [cls(*values), cls(**keywords), cls(*values[:1], **dict(list(keywords.items())[1:]))]
    for record in made:
        assert type(record) is cls
        assert tuple(record) == tuple(oracle(*values)) == values
        assert [getattr(record, name) for name in cls._fields] == list(values)
    shortest = values[:required(cls)]
    assert tuple(cls(*shortest)) == tuple(oracle(*shortest))


@records
def test_wrong_arguments_raise_type_error(cls):
    oracle, values = namedtuple_oracle(cls), sample(cls)
    calls = [(values + ("extra",), {}), (values, {"unknown": 1})]
    if cls._fields:
        calls += [(values[:required(cls) - 1], {}), (values, {cls._fields[0]: "twice"})]
    for args, kwargs in calls:
        with pytest.raises(TypeError):
            oracle(*args, **kwargs)
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


@records
def test_equality_and_hash_are_the_tuples(cls):
    values = sample(cls)
    record = cls(*values)
    assert record == values == namedtuple_oracle(cls)(*values)
    assert hash(record) == hash(values)
    assert {record: 1}[values] == 1
    if cls._fields:
        assert record != cls(*values[:-1], "other")


@records
def test_replace_asdict_and_repr(cls):
    values = sample(cls)
    record, expected = cls(*values), namedtuple_oracle(cls)(*values)
    assert repr(record) == repr(expected)
    assert list(record._asdict().items()) == list(expected._asdict().items())
    assert type(record._replace()) is cls and record._replace() == record
    if cls._fields:
        changes = {cls._fields[0]: "first", cls._fields[-1]: "last"}
        replaced = record._replace(**changes)
        assert type(replaced) is cls and replaced == expected._replace(**changes)
    with pytest.raises(ValueError) as want:
        expected._replace(unknown=1)
    with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
        record._replace(unknown=1)


@records
def test_fields_are_read_only(cls):
    record = cls(*sample(cls))
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, "changed")


@records
def test_copies_and_pickles_keep_class_and_fields(cls):
    record = cls(*sample(cls))
    copies = [copy.copy(record), copy.deepcopy(record)]
    copies += [pickle.loads(pickle.dumps(record, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for copied in copies:
        assert type(copied) is cls and copied == record


def test_copied_spec_compiles_its_own_curve():
    spec = PatternSpec(parse("2 + sin(3*x)"), 0.0, 4.0, 22, 25, 0.18, "")
    plan = build_plan(spec)
    for copied in (copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
        assert copied == spec and "curve" not in vars(copied)
        assert build_plan(copied) == plan
        assert copied.curve is not spec.curve and vars(copied)["curve"] is copied.curve


def test_curve_does_not_pickle():
    spec = PatternSpec(parse("2 + x"), 0.0, 1.0, 22, 25, 0.18, "")
    with pytest.raises(pickle.PicklingError):
        pickle.dumps(spec.curve)
