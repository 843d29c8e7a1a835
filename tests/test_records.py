"""The package's records keep the semantics they had as frozen dataclasses:
each record class is compared with its dataclass twin (tests/oracles.py)."""

import contextlib
import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from weightpoly import builders, counting, polytopes, reference, toric
from weightpoly.polytopes import HPolytope, _assembled, _FrozenInstanceError
from oracles import dataclass_twin

RECORDS = sorted((cls for module in (polytopes, builders, counting, toric, reference)
                  for cls in vars(module).values()
                  if isinstance(cls, type) and cls.__module__ == module.__name__
                  and "__match_args__" in cls.__dict__), key=lambda cls: cls.__qualname__)
TWINS = {cls: dataclass_twin(cls) for cls in RECORDS}

values = st.one_of(st.integers(-2, 2), st.fractions(max_denominator=3), st.none(),
                   st.text("ab", max_size=2), st.tuples(st.integers(-1, 1)))


def _names(cls):
    return [f.name for f in dataclasses.fields(TWINS[cls])]


def _pair(cls, row):
    """The record and its twin holding the field values row, made without
    __init__; an HPolytope also gets the stored hash its constructor takes."""
    fields = dict(zip(_names(cls), row))
    ours = _assembled(cls, **fields)
    if cls is HPolytope:
        object.__setattr__(ours, "_hash", hash(tuple(row)))
    return ours, _assembled(TWINS[cls], **fields)


def _outcome(make, *args, **kwargs):
    try:
        return "made", vars(make(*args, **kwargs))
    except TypeError as exc:
        return "TypeError", str(exc)


def test_every_record_class_has_a_twin_with_the_same_fields():
    assert len(RECORDS) == 20
    assert not any(dataclasses.is_dataclass(cls) for cls in RECORDS)
    for cls in RECORDS:
        assert cls.__match_args__ == TWINS[cls].__match_args__
        assert "_hash" not in _names(cls)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_records_behave_as_their_frozen_dataclass_twins(data):
    cls = data.draw(st.sampled_from(RECORDS))
    other = data.draw(st.sampled_from(RECORDS))
    names = _names(cls)
    row = data.draw(st.lists(values, min_size=len(names), max_size=len(names)))
    ours, twin = _pair(cls, row)
    assert repr(ours) == repr(twin)
    assert hash(ours) == hash(twin)

    # Equality: the same class and equal field tuples, else NotImplemented.
    changed = list(row)
    if names and data.draw(st.booleans()):
        changed[data.draw(st.integers(0, len(names) - 1))] = data.draw(values)
    ours2, twin2 = _pair(cls, changed)
    assert (ours == ours2) == (twin == twin2) and (ours != ours2) == (twin != twin2)
    width = len(_names(other))
    other_ours, other_twin = _pair(other, data.draw(st.lists(values, min_size=width,
                                                             max_size=width)))
    assert (ours == other_ours) == (twin == other_twin)
    assert ours.__eq__(twin) is NotImplemented and ours != twin

    # Frozen: setting or deleting a field or any other name, on an instance
    # of a subclass too, where a frozen dataclass's subclass takes a name
    # that is not a field.
    name = data.draw(st.sampled_from(names + ["_other"]))
    sub = _assembled(type(cls.__name__, (cls,), {}), **dict(zip(names, row)))
    for act in (lambda r: setattr(r, name, 0), lambda r: delattr(r, name)):
        with pytest.raises(AttributeError) as mine:
            act(ours)
        with pytest.raises(AttributeError) as theirs:
            act(twin)
        with pytest.raises(_FrozenInstanceError) as subs:
            act(sub)
        assert str(mine.value) == str(theirs.value) == str(subs.value)
    assert repr(ours) == repr(twin) and vars(sub) == dict(zip(names, row))

    # Construction, __post_init__ set aside: the same fields, or the same TypeError.
    params = list(cls.__match_args__)
    args = data.draw(st.lists(values, max_size=len(params) + 1))
    keys = data.draw(st.lists(st.sampled_from(names + ["extra"]), unique=True, max_size=3))
    kwargs = {key: data.draw(values) for key in keys}
    with (mock.patch.object(cls, "__post_init__", lambda self: None)
          if hasattr(cls, "__post_init__") else contextlib.nullcontext()):
        made = _outcome(cls, *args, **kwargs)
    assert made == _outcome(TWINS[cls], *args, **kwargs)
