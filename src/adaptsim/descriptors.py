"""JSON descriptors: application graph, network, scenario script.

Each record type has one table, field -> (check, default), and one walker,
`_read`, reads every record against its table.  It reports a record that
is no object, each unknown field, each missing required one and each value
its check refuses.  A check takes exactly the JSON types it names (a
boolean is no number) and converts nothing: only an integer in a number
field of a variant, connector, battery, host or link is widened to float,
and an event's arguments are kept as written.  Field names match the
in-memory types, so a record is made from the fields read, as keywords.
A parse produces (value, diagnostics); the value is usable only when the
diagnostics list is empty.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import partial
from typing import Any

from . import behaviors
from .connector import Endpoint, FlowPolicy, FlowSync, LossKind
from .container import ComponentDescriptor, Variant
from .context import ContextNature
from .errors import DescriptorError, ValidationError
from .kernel import Battery, HostDescriptor, HostTier
from .simnet import Link, SimEventKind, sim_event

REQUIRED = object()     # a table default: the record needs the field
OPTIONAL = object()     # a table default: an absent field is left out, so
                        # the default of the record's type holds


@dataclass
class ConnectorSpec:
    id: str
    source: Endpoint
    sinks: list
    policy: FlowPolicy


@dataclass
class AppDescriptor:
    components: list = field(default_factory=list)
    connectors: list = field(default_factory=list)   # of ConnectorSpec


@dataclass
class NetDescriptor:
    hosts: list = field(default_factory=list)
    links: list = field(default_factory=list)


@dataclass
class ScenarioScript:
    duration: int = 0
    seed: int = 0
    events: list = field(default_factory=list)


def load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise DescriptorError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise DescriptorError(f"{path}: {exc}") from exc


def _read(table: dict, make, raw: Any, where: str, diags: list):
    """make(**fields) of the record `raw` read against `table`, or None
    when raw is no object, a field is unknown or missing, or a check or
    `make` refuses a value; each such is reported under `where`."""
    if type(raw) is not dict:
        diags.append(f"{where}: must be an object, not {raw!r}")
        return None
    before = len(diags)
    if not raw.keys() <= table.keys():
        diags.extend(f"{where}: unknown field {key!r}"
                     for key in raw if key not in table)
    fields = {}
    for key, (check, default) in table.items():
        if key in raw:
            try:
                fields[key] = check(raw[key], where, key, diags)
            except ValidationError as exc:
                diags.append(f"{where}: {key} {exc}")
        elif default is REQUIRED:
            diags.append(f"{where}: missing {key!r}")
        elif default is not OPTIONAL:
            fields[key] = default
    if len(diags) == before:
        try:
            return make(**fields)
        except ValidationError as exc:
            diags.append(f"{where}: {exc}")
    return None


# -- checks: check(value, where, key, diags) is the value to keep of the
# field `key` of the record at `where`, or raises ValidationError saying
# what the value must be


def _path(where: str, key: str) -> str:
    """The path of a record's field; a document's are named from the
    root: components[0], not app.components[0]."""
    return key if where in ("app", "net", "scenario") else f"{where}.{key}"


_JSON_TYPES = {str: "a string", bool: "a boolean", int: "an integer",
               float: "a number", list: "a list", dict: "an object"}
_NUMBER = (int, float)


def _check(types, ok=None, rule: str = "", read=None):
    """A check: the value's exact type is one of `types` (named by the
    last; None when `ok` tests the type too), ok(value) holds, else the
    value must be `rule`, and read(value), or the value itself, is kept."""
    def check(value, where, key, diags):
        if types is not None and type(value) not in types:
            raise ValidationError(
                f"must be {_JSON_TYPES[types[-1]]}, not {value!r}")
        if ok is not None and not ok(value):
            raise ValidationError(f"must be {rule}, not {value!r}")
        return value if read is None else read(value)
    return check


def _one_of(names, read=None):
    """A check: a string in `names`, read as read(name).  `names` may be
    a live view: tests register behaviours of their own."""
    def check(value, where, key, diags):
        if type(value) is str and value in names:
            return value if read is None else read(value)
        raise ValidationError(f"must be one of {list(names)}, "
                              f"not {value!r}")
    return check


def _values(enum) -> list:
    return [member.value for member in enum]


def _records(read_one, into=list):
    """A check: a list whose i-th item is read by read_one(item,
    f"{path}[{i}]", diags), `path` being the field's."""
    def check(value, where, key, diags):
        if type(value) is not list:
            raise ValidationError(f"must be a list, not {value!r}")
        path = _path(where, key)
        return into([read_one(raw, f"{path}[{i}]", diags)
                     for i, raw in enumerate(value)])
    return check


def _power(value, where, key, diags):
    """None for mains power, or a battery."""
    if value == "Mains":
        return None
    if type(value) is dict:
        return _read(_BATTERY, Battery, value, _path(where, key), diags)
    raise ValidationError(
        f"must be 'Mains' or a battery object, not {value!r}")


def _is_endpoint(text) -> bool:
    return type(text) is str and text.count(".") == 1


def _endpoint(text: str) -> Endpoint:
    return Endpoint(*text.split("."))


def _two_ids(ends) -> bool:
    return (type(ends) is list and len(ends) == 2
            and all(type(e) is str for e in ends))


_TEXT = _check((str,))
_INT = _check((int,))
_NAME = _check((str,), bool, "non-empty")           # a context key, owner
# a host, component, connector or port id: the trace splits on whitespace
_is_id = re.compile(r"\S+").fullmatch
_ID = _check((str,), _is_id, "non-empty with no whitespace")
_FLAG = _check((bool,))
_TICKS = _check((int,), lambda v: v >= 0, ">= 0")
# the placement search's bound needs demands that take capacity
_DEMAND = _check(_NUMBER, lambda v: v >= 0, ">= 0", float)
_SIZE = _check(_NUMBER, lambda v: v > 0, "> 0", float)
_PORTS = _check(None, lambda v: type(v) is list and all(
    type(p) is str and _is_id(p) for p in v),
    "a list of non-empty strings with no whitespace", tuple)

_VARIANT = {
    "tier": (_one_of(_values(HostTier)), REQUIRED),
    "cpu_demand": (_DEMAND, REQUIRED),
    "mem_demand": (_DEMAND, REQUIRED),
    "behavior": (_one_of(behaviors.known()), REQUIRED),
}
_COMPONENT = {
    "id": (_ID, REQUIRED),
    "in_ports": (_PORTS, ()),
    "out_ports": (_PORTS, ()),
    "variants": (_records(partial(_read, _VARIANT, Variant), tuple),
                 REQUIRED),
    "listener": (_FLAG, OPTIONAL),
    "initial_host": (_ID, REQUIRED),
}
_CONNECTOR = {
    "id": (_ID, OPTIONAL),                      # unnamed: see _app
    "from": (_check((str,), _is_endpoint, "'component.port'", _endpoint),
             REQUIRED),
    "to": (_check(None, lambda v: type(v) is list and v
                  and all(map(_is_endpoint, v)),
                  "a non-empty list of 'component.port'",
                  lambda v: [_endpoint(t) for t in v]), REQUIRED),
    "mode": (_check((str,), "Push".__eq__, "'Push'"), OPTIONAL),  # it pushes
    "sync": (_one_of(_values(FlowSync), FlowSync), OPTIONAL),
    "loss": (_one_of(_values(LossKind), LossKind), OPTIONAL),
    "capacity": (_check((int,), lambda v: v >= 1, ">= 1"), OPTIONAL),
    "bw_demand": (_DEMAND, OPTIONAL),
}


def _connector(to, id=None, mode=None, **policy) -> ConnectorSpec:
    return ConnectorSpec(id, policy.pop("from"), to, FlowPolicy(**policy))


def _app(**fields) -> AppDescriptor:
    app = AppDescriptor(**fields)
    for i, k in enumerate(app.connectors):      # named after their index
        if k.id is None:
            k.id = f"k{i}"
    return app


_APP = {
    "components": (_records(partial(_read, _COMPONENT, ComponentDescriptor)),
                   OPTIONAL),
    "connectors": (_records(partial(_read, _CONNECTOR, _connector)),
                   OPTIONAL),
}

_BATTERY = {
    "level": (_check(_NUMBER, lambda v: 0 <= v <= 1, "in [0, 1]", float),
              REQUIRED),
    "drain_per_tick": (_DEMAND, OPTIONAL),
}
_HOST = {
    "id": (_ID, REQUIRED),
    "tier": (_one_of(_values(HostTier), HostTier), REQUIRED),
    "cpu_capacity": (_SIZE, REQUIRED),
    "mem_capacity": (_SIZE, REQUIRED),
    "power": (_power, OPTIONAL),
    "location": (_check((list,)), OPTIONAL),    # dropped: see _host
    "up": (_FLAG, OPTIONAL),
}


def _host(location=None, **fields) -> HostDescriptor:
    """A host's position is accepted and dropped: no decision reads it."""
    return HostDescriptor(**fields)


_LINK = {
    "endpoints": (_check(None, _two_ids, "a list of two host ids",
                         frozenset), REQUIRED),
    "latency": (_TICKS, OPTIONAL),
    "bandwidth": (_SIZE, OPTIONAL),
    "up": (_FLAG, OPTIONAL),
}
_NET = {
    "hosts": (_records(partial(_read, _HOST, _host)), OPTIONAL),
    "links": (_records(partial(_read, _LINK, Link)), OPTIONAL),
}

# events: one table per kind; an event's arguments are kept as written
_SHARE = _check(_NUMBER, lambda v: 0 <= v <= 1, "in [0, 1]")
_EVENT = {"at": (_TICKS, REQUIRED),
          "kind": (_one_of(_values(SimEventKind), SimEventKind), REQUIRED)}
_ON_HOST = {**_EVENT, "host": (_TEXT, REQUIRED)}
_ON_LINK = {**_EVENT, "endpoints": (_check(None, _two_ids,
                                           "a list of two host ids", tuple),
                                    REQUIRED)}
_CONTEXT = {
    **_ON_HOST,
    "key": (_NAME, REQUIRED),
    "producer": (_TEXT, OPTIONAL),
    "owner": (_NAME, OPTIONAL),
    "confidence": (_SHARE, OPTIONAL),
}
_EVENTS = {
    "LinkUp": _ON_LINK,
    "LinkDown": _ON_LINK,
    "HostJoin": _ON_HOST,
    "HostLeave": _ON_HOST,
    "SensorReading": {
        **_CONTEXT,
        "value": (_check(_NUMBER), OPTIONAL),
        "unit": (_TEXT, OPTIONAL),
        "nature": (_one_of(_values(ContextNature)), OPTIONAL),
        "noise": (_check(_NUMBER, lambda v: v >= 0, ">= 0"), OPTIONAL),
    },
    "UserProfile": {**_CONTEXT, "value": (_TEXT, OPTIONAL)},
    "BatterySet": {**_ON_HOST, "level": (_SHARE, REQUIRED)},
}
# an event of no known kind: only its kind is read
_ANY_EVENT = {key: (_check(None), OPTIONAL)
              for table in _EVENTS.values() for key in table}
_ANY_EVENT["kind"] = _EVENT["kind"]


def _event(raw: Any, where: str, diags: list):
    kind = raw.get("kind") if type(raw) is dict else None
    table = _EVENTS.get(kind) if type(kind) is str else None
    return _read(table or _ANY_EVENT, sim_event, raw, where, diags)


_SCENARIO = {
    "duration": (_TICKS, OPTIONAL),
    "seed": (_INT, OPTIONAL),
    "events": (_records(_event), OPTIONAL),
}


def parse_app(doc: Any) -> tuple:
    diags: list = []
    return _read(_APP, _app, doc, "app", diags) or AppDescriptor(), diags


def parse_net(doc: Any) -> tuple:
    diags: list = []
    return (_read(_NET, NetDescriptor, doc, "net", diags) or NetDescriptor(),
            diags)


def parse_scenario(doc: Any) -> tuple:
    diags: list = []
    sc = (_read(_SCENARIO, ScenarioScript, doc, "scenario", diags)
          or ScenarioScript())
    for i, ev in enumerate(sc.events):
        if ev.at >= sc.duration:
            diags.append(f"events[{i}]: tick {ev.at} beyond duration "
                         f"{sc.duration}")
    return (ScenarioScript() if diags else sc), diags

