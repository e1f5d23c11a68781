"""The `record` decorator against the standard library's dataclasses.

Each test builds one class body twice, once under `dataclasses.dataclass`
and once under `record`, with the same arguments, and checks that the two
classes behave alike: constructor, defaults, `__post_init__`, equality,
hashing, repr, immutability, `fields` and `replace`.
"""

import dataclasses

import pytest

from gridstudies import record as rec


def make(decorate, field, calls):
    @decorate
    class Point:
        x: float
        label: str = "p"
        tags: tuple = field(default_factory=tuple)
        seen: list = field(default_factory=list)

        def __post_init__(self):
            calls.append(self.x)

        @property
        def doubled(self):
            return 2 * self.x

    return Point


def both(frozen):
    """(dataclass, record) versions of one class body, each with the list
    its __post_init__ appends to."""
    d_calls, r_calls = [], []
    dc = make(dataclasses.dataclass(frozen=frozen), dataclasses.field, d_calls)
    rc = make(rec.record(frozen=frozen), rec.field, r_calls)
    return (dc, d_calls), (rc, r_calls)


ARGS = [((1.5,), {}), ((1.5, "q"), {}), ((1.5, "q", (1, 2), [3]), {}),
        ((), {"x": -2.0}), ((0.25,), {"seen": [1], "label": "a<b>"})]


@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("args, kwargs", ARGS)
def test_construction_and_repr_match_dataclass(frozen, args, kwargs):
    (dc, d_calls), (rc, r_calls) = both(frozen)
    d, r = dc(*args, **kwargs), rc(*args, **kwargs)
    assert repr(r) == repr(d)
    assert r.doubled == d.doubled
    assert d_calls == r_calls == [d.x]  # __post_init__ ran once


@pytest.mark.parametrize("frozen", [False, True])
def test_equality_and_hash_match_dataclass(frozen):
    (dc, _), (rc, _) = both(frozen)
    assert rc(1.0, "a") == rc(1.0, "a")
    assert rc(1.0, "a") != rc(1.0, "b")
    assert rc(1.0) != (1.0, "p", (), [])
    assert rc.__eq__(rc(1.0), dc(1.0)) is NotImplemented
    assert dc.__eq__(dc(1.0), rc(1.0)) is NotImplemented
    if frozen:
        d, r = dc(1.0, "a", (2,), None), rc(1.0, "a", (2,), None)
        assert hash(r) == hash(d) == hash((1.0, "a", (2,), None))
    else:
        assert rc.__hash__ is None and dc.__hash__ is None
        with pytest.raises(TypeError):
            hash(rc(1.0))


def test_frozen_refuses_assignment_and_deletion_as_dataclass_does():
    (dc, _), (rc, _) = both(True)
    for obj in (dc(1.0), rc(1.0)):
        with pytest.raises(AttributeError) as assigned:
            obj.x = 2.0
        with pytest.raises(AttributeError) as deleted:
            del obj.label
        assert obj.x == 1.0 and obj.label == "p"
        assert str(assigned.value) == "cannot assign to field 'x'"
        assert str(deleted.value) == "cannot delete field 'label'"


def test_mutable_record_assigns():
    rc = both(False)[1][0]
    r = rc(1.0)
    r.x = 3.0
    assert r == rc(3.0)


@pytest.mark.parametrize("frozen", [False, True])
def test_default_factory_is_called_per_instance(frozen):
    (dc, _), (rc, _) = both(frozen)
    for cls in (dc, rc):
        a, b = cls(1.0), cls(1.0)
        assert a.seen == [] and a.seen is not b.seen
        assert not hasattr(cls, "seen")  # no shared class-level default
    assert rc.label == dc.label == "p"


BAD = [((), {}),                          # x missing
       ((1.0,), {"colour": "red"}),       # unknown keyword
       ((1.0, "a", (), [], 5), {}),       # one argument too many
       ((1.0,), {"x": 2.0})]              # x given twice


@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("args, kwargs", BAD)
def test_bad_arguments_raise_typeerror_as_dataclass_does(frozen, args, kwargs):
    (dc, d_calls), (rc, r_calls) = both(frozen)
    for cls in (dc, rc):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)
    assert d_calls == r_calls == []


@pytest.mark.parametrize("frozen", [False, True])
def test_fields_and_replace_match_dataclass(frozen):
    (dc, d_calls), (rc, r_calls) = both(frozen)
    assert ([(f.name, f.type) for f in rec.fields(rc)]
            == [(f.name, f.type) for f in dataclasses.fields(dc)])
    d0, r0 = dc(1.0, "a"), rc(1.0, "a")
    assert rec.fields(r0) == rec.fields(rc)
    d = dataclasses.replace(d0, label="b", tags=(4,))
    r = rec.replace(r0, label="b", tags=(4,))
    assert repr(r) == repr(d)
    assert d_calls == r_calls == [1.0, 1.0]  # replace runs the checks again
    with pytest.raises(TypeError):
        rec.replace(rc(1.0), colour="red")


def test_post_init_checks_and_normalises():
    @rec.record
    class Span:
        lo: float
        hi: float

        def __post_init__(self):
            if not self.lo < self.hi:
                raise ValueError("need lo < hi")
            self.lo, self.hi = float(self.lo), float(self.hi)

    assert repr(Span(1, 2)) == "test_post_init_checks_and_normalises.<locals>.Span(lo=1.0, hi=2.0)"
    with pytest.raises(ValueError, match="need lo < hi"):
        Span(hi=1, lo=2)
