"""Every field of every descriptor record is checked.

A value of a JSON type the field's table does not take is a diagnostic
that starts with the record's path and names the field, never an
exception.  The documents swept are the reference ones in tests/data, one
event of each kind, and world 0 of each benchmark workload, whose
generator is imported read-only.
"""

import json
import os
import re
import sys

import pytest

from adaptsim import descriptors
from adaptsim.simnet import SimEventKind

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "tests", "data")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import worldgen  # noqa: E402

PARSE = {"app": descriptors.parse_app, "net": descriptors.parse_net,
         "scenario": descriptors.parse_scenario}
# one value of each JSON type; an integer stands for an integer field, so
# the number sample is not one
SAMPLES = {"string": "x", "boolean": True, "null": None, "list": [],
           "object": {}, "number": 0.5}
EVERY_KIND = {"duration": 30, "events": [
    {"at": 1, "kind": "LinkUp", "endpoints": ["h1", "h2"]},
    {"at": 2, "kind": "LinkDown", "endpoints": ["h1", "h2"]},
    {"at": 3, "kind": "HostJoin", "host": "h2"},
    {"at": 4, "kind": "HostLeave", "host": "h2"},
    {"at": 5, "kind": "SensorReading", "host": "h3", "key": "temp",
     "value": 21.0, "unit": "C", "nature": "Environment", "noise": 0.25,
     "producer": "thermo", "owner": "lab", "confidence": 0.9},
    {"at": 6, "kind": "UserProfile", "host": "h1", "key": "user.mode",
     "value": "mobile", "producer": "profile", "owner": "alice",
     "confidence": 1.0},
    {"at": 7, "kind": "BatterySet", "host": "h3", "level": 0.5}]}


def json_type(value):
    for kind, sample in SAMPLES.items():
        if type(value) is type(sample):
            return kind
    return "integer"


def records(value, path):
    """(path, record) of a document and of each record within it."""
    yield path, value
    for key, inner in value.items():
        sub = key if path in PARSE else f"{path}.{key}"
        if isinstance(inner, dict):
            yield from records(inner, sub)
        elif isinstance(inner, list):
            for i, item in enumerate(inner):
                if isinstance(item, dict):
                    yield from records(item, f"{sub}[{i}]")


def documents():
    with open(os.path.join(DATA, "scenario.json")) as fh:
        yield "data", "scenario", json.load(fh)
    for name in ("app", "net"):
        with open(os.path.join(DATA, f"{name}.json")) as fh:
            yield "data", name, json.load(fh)
    yield "every_kind", "scenario", EVERY_KIND
    for workload in worldgen.WORKLOADS:
        for name, doc in zip(("app", "net", "scenario"),
                             worldgen.generate(workload, 201, 0)):
            yield workload, name, doc


@pytest.mark.parametrize("source, name, doc", [
    pytest.param(*d, id=f"{d[0]}-{d[1]}") for d in documents()])
def test_a_value_of_a_type_the_table_refuses_is_reported(source, name, doc):
    _, diags = PARSE[name](doc)
    assert diags == []
    seen = set()
    for path, record in list(records(doc, name)):
        # one record of each shape, and of each event kind
        shape = (re.sub(r"\[\d+\]", "[]", path), record.get("kind"))
        for field in list(record):
            if (shape, field) in seen:
                continue
            seen.add((shape, field))
            value = record[field]
            for kind, sample in SAMPLES.items():
                if kind == json_type(value):
                    continue
                record[field] = sample
                _, diags = PARSE[name](doc)
                assert any(d.startswith(path) and field in d
                           for d in diags), (path, field, sample, diags)
            record[field] = value
    assert PARSE[name](doc)[1] == []


@pytest.mark.parametrize("workload", sorted(worldgen.WORKLOADS))
def test_a_generated_world_parses_clean(workload):
    for name, doc in zip(("app", "net", "scenario"),
                         worldgen.generate(workload, 201, 0)):
        assert PARSE[name](doc)[1] == []


def test_every_event_kind_parses():
    scenario, diags = descriptors.parse_scenario(EVERY_KIND)
    assert diags == []
    assert [e.kind for e in scenario.events] == list(SimEventKind)
