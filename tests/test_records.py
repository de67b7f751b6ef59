"""Contracts of the record types: immutable NamedTuples, validated where they take input."""

from __future__ import annotations

import json
import os
import pickle
import re
import subprocess
import sys

import numpy as np
import pytest

from conftest import DEMO_CAPACITY, DEMO_ITEMS, REPO_ROOT
from qsmax.arithmetic import RegisterRef, SignedEncoding
from qsmax.grover import BoyerResult, BoyerStep
from qsmax.knapsack import (
    CapacityError,
    KnapsackInstance,
    classical_evaluate,
    compile_frame,
    estimate_resources,
    maximize,
    plan_registers,
    verify_instance,
)


def _demo() -> KnapsackInstance:
    return KnapsackInstance(DEMO_ITEMS, DEMO_CAPACITY)


def _demo_frame():
    instance = _demo()
    return compile_frame(instance, plan_registers(instance))


# One builder per public record; each call builds a new, equal record.
RECORDS = {
    "RegisterRef": lambda: RegisterRef("w", 4, 5),
    "SignedEncoding": lambda: SignedEncoding(6),
    "BoyerStep": lambda: BoyerStep(m=1.2, j=1, candidate=14, passed=True),
    "BoyerResult": lambda: BoyerResult(14, (BoyerStep(1.0, 0, 14, True),)),
    "PreparedFrame": _demo_frame,
    "KnapsackInstance": _demo,
    "RegisterPlan": lambda: plan_registers(_demo()),
    "CandidateEvaluation": lambda: classical_evaluate(_demo(), "0111"),
    "TraceStep": lambda: maximize(_demo(), seed=1).steps[0],
    "SearchTrace": lambda: maximize(_demo(), seed=1),
    "ResourceEstimate": lambda: estimate_resources(_demo()),
    "VerifyReport": lambda: verify_instance(_demo()),
}
# A record holding a dict cannot be hashed; circuits are tuples of frozen
# Gates, so frames hash by value.
UNHASHABLE = {"ResourceEstimate"}

record_builders = pytest.mark.parametrize("name", sorted(RECORDS))


class TestRecordContract:
    @record_builders
    def test_attributes_cannot_be_assigned(self, name):
        record = RECORDS[name]()
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1

    @record_builders
    def test_equality_and_hash_go_by_value(self, name):
        first, second = RECORDS[name](), RECORDS[name]()
        assert first is not second
        assert first == second and first == tuple(second)
        if name in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(first)
        else:
            assert hash(first) == hash(second) == hash(tuple(second))

    @record_builders
    def test_repr_names_the_fields(self, name):
        record = RECORDS[name]()
        fields = ", ".join(f"{field}={value!r}" for field, value in record._asdict().items())
        assert repr(record) == f"{name}({fields})"

    @record_builders
    def test_pickle_round_trips(self, name):
        record = RECORDS[name]()
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            restored = pickle.loads(pickle.dumps(record, protocol))
            assert type(restored) is type(record) and restored == record, protocol


# Every way a validated record can be built, from a valid record and the
# fields to change. The pickle path pickles an instance built past
# ``__new__`` with the bad fields, as a tampered or foreign pickle would hold.
def _fields(good, changes) -> dict:
    return {**good._asdict(), **changes}


def _unpickled(protocol=None):
    return lambda good, changes: pickle.loads(
        pickle.dumps(tuple.__new__(type(good), _fields(good, changes).values()), protocol)
    )


# "pickle" uses the default protocol. Protocols 0 and 1 rebuild a tuple
# subclass without its __new__ unless the class defines __reduce__.
BUILDS = {
    "positional": lambda good, changes: type(good)(*_fields(good, changes).values()),
    "keyword": lambda good, changes: type(good)(**_fields(good, changes)),
    "_make": lambda good, changes: type(good)._make(_fields(good, changes).values()),
    "_replace": lambda good, changes: good._replace(**changes),
    "pickle": _unpickled(),
    **{f"pickle-{p}": _unpickled(p) for p in range(pickle.HIGHEST_PROTOCOL + 1)},
}

BAD_INPUTS = [
    pytest.param(
        RegisterRef("w", 4, 5), {"width": 0}, ValueError,
        "register 'w': width must be >= 1", id="register-width",
    ),
    pytest.param(
        RegisterRef("w", 4, 5), {"offset": -1}, ValueError,
        "register 'w': negative offset", id="register-offset",
    ),
    pytest.param(
        _demo(), {"items": ()}, ValueError,
        "item count must be at least 1", id="no-items",
    ),
    pytest.param(
        _demo(), {"items": ((1, 1),) * 13}, CapacityError,
        "item count 13 exceeds 12: the oracle frame would hold 2^14 basis states",
        id="thirteen-items",
    ),
    pytest.param(
        _demo(), {"items": ((1, -1),)}, ValueError,
        "weights and values must be >= 0", id="negative-value",
    ),
    pytest.param(
        _demo(), {"capacity": -1}, ValueError,
        "capacity must be >= 0", id="negative-capacity",
    ),
    pytest.param(
        _demo(), {"capacity": 2.5}, ValueError,
        "weights, values and capacity must be integers", id="float-capacity",
    ),
]


class TestValidatedRecords:
    @pytest.mark.parametrize("build", sorted(BUILDS))
    @pytest.mark.parametrize("good, changes, error, message", BAD_INPUTS)
    def test_every_way_of_building_validates(self, build, good, changes, error, message):
        with pytest.raises(error, match=re.escape(message)):
            BUILDS[build](good, changes)

    @pytest.mark.parametrize("build", sorted(BUILDS))
    def test_every_way_of_building_coerces_integers(self, build):
        changes = {"items": ((np.int64(3), True),), "capacity": np.int32(4)}
        instance = BUILDS[build](_demo(), changes)
        assert type(instance) is KnapsackInstance
        assert instance == (((3, 1),), 4)
        assert all(type(f) is int for f in (*instance.items[0], instance.capacity))


# Imports qsmax.cli with dataclasses.dataclass wrapped to record which qsmax
# classes it builds, and prints their names as JSON.
_RECORD_DATACLASSES = """
import dataclasses, json
built, dataclass = [], dataclasses.dataclass

def recording(cls=None, /, **options):
    def wrap(cls):
        if cls.__module__.startswith("qsmax"):
            built.append(cls.__name__)
        return dataclass(cls, **options)
    return wrap if cls is None else wrap(cls)

dataclasses.dataclass = recording
import qsmax.cli
print(json.dumps(built))
"""


def test_import_builds_no_dataclass_but_gate():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", _RECORD_DATACLASSES],
        capture_output=True, text=True, env=env, check=True,
    )
    assert json.loads(result.stdout) == ["Gate"], (
        "importing qsmax.cli built dataclasses other than Gate. On CPython 3.11 "
        "each @dataclass costs about 0.75 ms at import, because it execs every "
        "generated method separately; records are NamedTuples for that reason. "
        "Gate alone stays a slotted dataclass: permute_planes reads its kind, "
        "targets and controls on every gate, and slot reads beat NamedTuple "
        "field reads (a 306-gate, n=6 push took 95 us with NamedTuple gates "
        "against 66-71 us with dataclass gates)."
    )
