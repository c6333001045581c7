"""Op and trace records: slotted, not frozen, and otherwise as before.

Every op a program yields and every event a traced run records is
constructed on the hot path, and a frozen dataclass pays an
``object.__setattr__`` call per field for that.  The records are plain
slotted dataclasses, immutable by convention only (DESIGN.md).  What a
caller could observe of the frozen ones -- ``repr``, ``==`` and
``hash`` -- must not change: each record is checked here against a
frozen twin built from its own fields.
"""

import dataclasses

import pytest

from repro.core.trace import EventKind, TraceEvent
from repro.runtime import ops
from repro.sim.process import Delay, WaitFor

#: every record type with sample field values (hashable where the
#: fields allow it; TraceEvent's detail is a dict)
SAMPLES = {
    ops.Compute: (250.0,),
    ops.Read: (4096, 16),
    ops.Write: (4096, 7),
    ops.TestAndSet: (12, 1),
    ops.FetchAdd: (12, -3),
    ops.Migrate: (3,),
    ops.SendPort: ("port", (1, 2, 3)),
    ops.RecvPort: ("port",),
    ops.WaitNewer: ("channel", 5),
    ops.GetTime: (),
    Delay: (1_000,),
    WaitFor: ("event",),
    TraceEvent: (1_500, EventKind.FAULT, 2, 1, {"action": "fill"}, 7, None),
}


def frozen_twin(cls):
    """A frozen dataclass of the same name and fields: the record as it
    was before it became mutable."""
    return dataclasses.make_dataclass(cls.__name__, [
        (f.name, f.type, dataclasses.field(
            default=f.default, default_factory=f.default_factory))
        for f in dataclasses.fields(cls)], frozen=True)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_records_are_slotted_and_not_frozen(cls):
    record = cls(*SAMPLES[cls])
    assert "__slots__" in vars(cls) and not hasattr(record, "__dict__")
    assert not cls.__dataclass_params__.frozen
    for field in dataclasses.fields(cls):  # no __setattr__ guard
        setattr(record, field.name, getattr(record, field.name))


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_repr_eq_and_hash_are_the_frozen_ones(cls):
    args = SAMPLES[cls]
    record, twin = cls(*args), frozen_twin(cls)(*args)
    assert repr(record) == repr(twin)
    assert record == cls(*args) and record is not cls(*args)
    if args:  # a different first field makes a different record
        other = cls(object(), *args[1:])
        assert record != other
    # equal fields of another record type are not equal
    assert record != twin and record != args
    try:
        expected = hash(twin)
    except TypeError:  # a dict field: unhashable before, and now
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected == hash(cls(*args))


def test_defaults_are_unchanged():
    assert ops.Read(8) == ops.Read(8, 1)
    assert ops.TestAndSet(8) == ops.TestAndSet(8, 1)
    assert ops.FetchAdd(8) == ops.FetchAdd(8, 1)
    event = TraceEvent(0, EventKind.THAW, None, None)
    assert (event.detail, event.eid, event.cause) == ({}, None, None)
    assert event.detail is not TraceEvent(0, EventKind.THAW, None,
                                          None).detail
