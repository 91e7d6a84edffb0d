"""JSON descriptors: application graph, network, scenario script.

Field names match the in-memory types one to one.  Unknown fields are
diagnostics, not silently dropped; a parse produces (value, diagnostics)
and the value is usable only when the diagnostics list is empty.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

from .connector import (DEFAULT_LOSSLESS_CAPACITY, Endpoint, FlowPolicy,
                        FlowSync, LossKind)
from .container import ComponentDescriptor, Variant
from .context import ContextNature
from .errors import DescriptorError, ValidationError
from .kernel import Battery, HostDescriptor, HostTier
from .simnet import Link, SimEventKind, sim_event

_COMPONENT_FIELDS = {"id", "in_ports", "out_ports", "variants", "listener",
                     "initial_host"}
_VARIANT_FIELDS = {"tier", "cpu_demand", "mem_demand", "behavior"}
_CONNECTOR_FIELDS = {"id", "from", "to", "mode", "sync", "loss", "capacity",
                     "bw_demand"}
_HOST_FIELDS = {"id", "tier", "cpu_capacity", "mem_capacity", "power",
                "location", "up"}
_LINK_FIELDS = {"endpoints", "latency", "bandwidth", "up"}
_EVENT_FIELDS = {"at", "kind", "endpoints", "host", "key", "value", "unit",
                 "nature", "noise", "producer", "owner", "confidence",
                 "level"}
_EVENT_REQUIRED = {
    SimEventKind.LINK_UP: ("endpoints",),
    SimEventKind.LINK_DOWN: ("endpoints",),
    SimEventKind.HOST_JOIN: ("host",),
    SimEventKind.HOST_LEAVE: ("host",),
    SimEventKind.SENSOR_READING: ("host", "key"),
    SimEventKind.USER_PROFILE: ("host", "key"),
    SimEventKind.BATTERY_SET: ("host", "level"),
}


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


def _check_fields(obj: Any, allowed: set, where: str, diags: list) -> bool:
    """Report unknown fields; False, reported, when obj is not an object."""
    if not isinstance(obj, dict):
        diags.append(f"{where}: must be an object, not {obj!r}")
        return False
    for key in obj:
        if key not in allowed:
            diags.append(f"{where}: unknown field {key!r}")
    return True


def _section(obj: dict, key: str, where: str, diags: list) -> list:
    """obj[key] when it is a list (empty when absent); anything else is
    reported and read as empty."""
    value = obj.get(key, [])
    if isinstance(value, list):
        return value
    diags.append(f"{where}: {key!r} must be a list, not {value!r}")
    return []


def _strings(obj: dict, keys: tuple, where: str, diags: list) -> bool:
    """True when each of obj's `keys` that is present holds a string;
    each that does not is reported."""
    ok = True
    for key in keys:
        if key in obj and not isinstance(obj[key], str):
            diags.append(f"{where}: {key} must be a string, "
                         f"not {obj[key]!r}")
            ok = False
    return ok


def _negatives(values: dict, where: str, diags: list) -> None:
    """Report each of `values` that is below 0 or NaN (JSON as Python
    reads it may hold NaN)."""
    for key, value in values.items():
        if not value >= 0:
            diags.append(f"{where}: {key} must be >= 0, not {value!r}")


def _ports(obj: dict, key: str, where: str, diags: list) -> tuple:
    """obj[key] as a tuple of port names; a value that is not a list of
    strings is reported and read as empty."""
    ports = _section(obj, key, where, diags)
    if all(isinstance(p, str) for p in ports):
        return tuple(ports)
    diags.append(f"{where}: {key!r} must be a list of strings, "
                 f"not {ports!r}")
    return ()


def load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise DescriptorError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise DescriptorError(f"{path}: {exc}") from exc


def parse_endpoint(text: str, where: str, diags: list) -> Optional[Endpoint]:
    if not isinstance(text, str) or text.count(".") != 1:
        diags.append(f"{where}: endpoint {text!r} must be 'component.port'")
        return None
    comp, port = text.split(".")
    return Endpoint(comp, port)


def parse_app(doc: Any) -> tuple:
    diags: list = []
    app = AppDescriptor()
    if not isinstance(doc, dict):
        return app, ["app: top level must be an object"]
    _check_fields(doc, {"components", "connectors"}, "app", diags)
    for i, raw in enumerate(_section(doc, "components", "app", diags)):
        where = f"components[{i}]"
        if not (_check_fields(raw, _COMPONENT_FIELDS, where, diags)
                and _strings(raw, ("id", "initial_host"), where, diags)):
            continue
        variants = []
        for j, rv in enumerate(_section(raw, "variants", where, diags)):
            vwhere = f"{where}.variants[{j}]"
            if not _check_fields(rv, _VARIANT_FIELDS, vwhere, diags):
                continue
            try:
                v = Variant(tier=rv["tier"],
                            cpu_demand=float(rv["cpu_demand"]),
                            mem_demand=float(rv["mem_demand"]),
                            behavior=rv["behavior"])
            except KeyError as exc:
                diags.append(f"{vwhere}: missing {exc}")
                continue
            except (TypeError, ValueError) as exc:
                diags.append(f"{vwhere}: {exc}")
                continue
            _negatives({"cpu_demand": v.cpu_demand,
                        "mem_demand": v.mem_demand}, vwhere, diags)
            variants.append(v)
        try:
            app.components.append(ComponentDescriptor(
                id=raw["id"],
                in_ports=_ports(raw, "in_ports", where, diags),
                out_ports=_ports(raw, "out_ports", where, diags),
                variants=tuple(variants),
                listener=bool(raw.get("listener", False)),
                initial_host=raw.get("initial_host", "")))
        except KeyError as exc:
            diags.append(f"{where}: missing {exc}")
        except Exception as exc:
            diags.append(f"{where}: {exc}")
    for i, raw in enumerate(_section(doc, "connectors", "app", diags)):
        where = f"connectors[{i}]"
        if not (_check_fields(raw, _CONNECTOR_FIELDS, where, diags)
                and _strings(raw, ("id",), where, diags)):
            continue
        src = parse_endpoint(raw.get("from", ""), where, diags)
        sinks = [parse_endpoint(t, where, diags)
                 for t in _section(raw, "to", where, diags)]
        if src is None or any(s is None for s in sinks) or not sinks:
            if not sinks:
                diags.append(f"{where}: needs at least one sink")
            continue
        if raw.get("mode", "Push") != "Push":     # connectors only push
            diags.append(f"{where}: mode must be 'Push', not {raw['mode']!r}")
            continue
        try:
            policy = FlowPolicy(
                sync=FlowSync(raw.get("sync", FlowPolicy.sync.value)),
                loss=LossKind(raw.get("loss", FlowPolicy.loss.value)),
                capacity=int(raw.get("capacity", DEFAULT_LOSSLESS_CAPACITY)),
                bw_demand=float(raw.get("bw_demand", FlowPolicy.bw_demand)))
        except (TypeError, ValueError, ValidationError) as exc:
            diags.append(f"{where}: {exc}")
            continue
        _negatives({"bw_demand": policy.bw_demand}, where, diags)
        app.connectors.append(ConnectorSpec(
            id=raw.get("id", f"k{i}"), source=src, sinks=sinks,
            policy=policy))
    return app, diags


def parse_net(doc: Any) -> tuple:
    diags: list = []
    net = NetDescriptor()
    if not isinstance(doc, dict):
        return net, ["net: top level must be an object"]
    _check_fields(doc, {"hosts", "links"}, "net", diags)
    for i, raw in enumerate(_section(doc, "hosts", "net", diags)):
        where = f"hosts[{i}]"
        if not (_check_fields(raw, _HOST_FIELDS, where, diags)
                and _strings(raw, ("id",), where, diags)):
            continue
        power = raw.get("power", "Mains")
        battery = None
        if isinstance(power, dict):
            try:
                battery = Battery(level=float(power["level"]),
                                  drain_per_tick=float(
                                      power.get("drain_per_tick", 0.0)))
            except Exception as exc:
                diags.append(f"{where}.power: {exc}")
            else:
                _negatives({"drain_per_tick": battery.drain_per_tick},
                           f"{where}.power", diags)
        elif power != "Mains":
            diags.append(f"{where}: power must be 'Mains' or a battery "
                         f"object, not {power!r}")
        # a host's position is accepted and dropped: no decision reads it
        if not isinstance(raw.get("location", []), list):
            diags.append(f"{where}: location must be a list, "
                         f"not {raw['location']!r}")
        try:
            net.hosts.append(HostDescriptor(
                id=raw["id"], tier=HostTier(raw["tier"]),
                cpu_capacity=float(raw["cpu_capacity"]),
                mem_capacity=float(raw["mem_capacity"]),
                power=battery,
                up=bool(raw.get("up", True))))
        except KeyError as exc:
            diags.append(f"{where}: missing {exc}")
        except Exception as exc:
            diags.append(f"{where}: {exc}")
    for i, raw in enumerate(_section(doc, "links", "net", diags)):
        where = f"links[{i}]"
        if not _check_fields(raw, _LINK_FIELDS, where, diags):
            continue
        try:
            ends = raw["endpoints"]
            net.links.append(Link(
                endpoints=frozenset(ends),
                latency=int(raw.get("latency", 1)),
                bandwidth=float(raw.get("bandwidth", 10.0)),
                up=bool(raw.get("up", True))))
        except KeyError as exc:
            diags.append(f"{where}: missing {exc}")
        except Exception as exc:
            diags.append(f"{where}: {exc}")
    return net, diags


def _event_args(kind: SimEventKind, raw: dict, where: str,
                diags: list) -> Optional[dict]:
    """The event's arguments as `sim_event` takes them, or None when one of
    them or its tick is missing or malformed (each such is reported)."""
    args = {k: v for k, v in raw.items() if k not in ("at", "kind")}
    ok = _strings(args, ("host", "key", "unit", "producer", "owner"), where,
                  diags)
    at = raw.get("at", 0)
    if isinstance(at, bool) or not isinstance(at, int):
        diags.append(f"{where}: at must be an integer, not {at!r}")
        ok = False
    for key in _EVENT_REQUIRED[kind]:
        if key not in args:
            diags.append(f"{where}: missing {key!r}")
            ok = False
    numbers = ("level", "noise", "confidence")
    if kind is SimEventKind.SENSOR_READING:
        numbers += ("value",)
    for key in numbers:
        value = args.get(key, 0.0)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            diags.append(f"{where}: {key} must be a number, not {value!r}")
            ok = False
        elif key in ("level", "confidence") and not 0.0 <= value <= 1.0:
            diags.append(f"{where}: {key} must be in [0, 1], not {value!r}")
            ok = False
    if "endpoints" in args:
        ends = args["endpoints"]
        if isinstance(ends, list) and len(ends) == 2 \
                and all(isinstance(e, str) for e in ends):
            args["endpoints"] = tuple(ends)
        else:
            diags.append(f"{where}: endpoints must be a list of two host "
                         f"ids, not {ends!r}")
            ok = False
    natures = [n.value for n in ContextNature]
    if args.get("nature", natures[0]) not in natures:
        diags.append(f"{where}: nature must be one of {natures}, "
                     f"not {args['nature']!r}")
        ok = False
    return args if ok else None


def parse_scenario(doc: Any) -> tuple:
    diags: list = []
    sc = ScenarioScript()
    if not isinstance(doc, dict):
        return sc, ["scenario: top level must be an object"]
    _check_fields(doc, {"duration", "seed", "events"}, "scenario", diags)
    for key in ("duration", "seed"):
        value = doc.get(key, 0)
        if isinstance(value, int) and not isinstance(value, bool):
            setattr(sc, key, value)
        else:
            diags.append(f"scenario: {key} must be an integer, "
                         f"not {value!r}")
    _negatives({"duration": sc.duration}, "scenario", diags)
    for i, raw in enumerate(_section(doc, "events", "scenario", diags)):
        where = f"events[{i}]"
        if not _check_fields(raw, _EVENT_FIELDS, where, diags):
            continue
        try:
            kind = SimEventKind(raw["kind"])
            args = _event_args(kind, raw, where, diags)
            if args is None:
                continue
            ev = sim_event(raw["at"], kind, **args)
        except (KeyError, TypeError, ValueError, ValidationError) as exc:
            diags.append(f"{where}: {exc}")
            continue
        if ev.at > sc.duration:
            diags.append(f"{where}: tick {ev.at} beyond duration "
                         f"{sc.duration}")
            continue
        sc.events.append(ev)
    return sc, diags


def validate(app: AppDescriptor, net: NetDescriptor) -> list:
    """Cross-descriptor diagnostics; empty list means deployable."""
    diags: list = []
    host_ids = [h.id for h in net.hosts]
    if len(host_ids) != len(set(host_ids)):
        diags.append("net: duplicate host ids")
    hosts = {h.id: h for h in net.hosts}
    pairs: set = set()
    for link in net.links:
        for end in link.endpoints:
            if end not in hosts:
                diags.append(f"link endpoint {end!r} unknown")
        if link.endpoints in pairs:     # an unordered pair
            a, b = sorted(map(str, link.endpoints))
            diags.append(f"net: duplicate link {a}-{b}")
        pairs.add(link.endpoints)
    comp_ids = [c.id for c in app.components]
    if len(comp_ids) != len(set(comp_ids)):
        diags.append("app: duplicate component ids")
    comps = {c.id: c for c in app.components}
    for c in app.components:
        if c.initial_host not in hosts:
            diags.append(f"component {c.id}: initial host "
                         f"{c.initial_host!r} unknown")
            continue
        tier = hosts[c.initial_host].tier.value
        if c.variant_for(tier) is None:
            diags.append(f"component {c.id}: no variant for tier {tier} "
                         f"of host {c.initial_host}")
    seen_ports: set = set()
    for k in app.connectors:
        src = k.source
        if src.component not in comps:
            diags.append(f"connector {k.id}: unknown component "
                         f"{src.component!r}")
        elif src.port not in comps[src.component].out_ports:
            diags.append(f"connector {k.id}: unknown out port {src}")
        elif ("out", str(src)) in seen_ports:
            diags.append(f"connector {k.id}: out port {src} already bound")
        else:
            seen_ports.add(("out", str(src)))
        for s in k.sinks:
            if s.component not in comps:
                diags.append(f"connector {k.id}: unknown component "
                             f"{s.component!r}")
            elif s.port not in comps[s.component].in_ports:
                diags.append(f"connector {k.id}: unknown in port {s}")
            elif ("in", str(s)) in seen_ports:
                diags.append(f"connector {k.id}: in port {s} already bound")
            else:
                seen_ports.add(("in", str(s)))
    conn_ids = [k.id for k in app.connectors]
    if len(conn_ids) != len(set(conn_ids)):
        diags.append("app: duplicate connector ids")
    return diags


def serialize_app(app: AppDescriptor) -> dict:
    return {
        "components": [
            {"id": c.id, "in_ports": list(c.in_ports),
             "out_ports": list(c.out_ports),
             "variants": [{"tier": v.tier, "cpu_demand": v.cpu_demand,
                           "mem_demand": v.mem_demand,
                           "behavior": v.behavior} for v in c.variants],
             "listener": c.listener, "initial_host": c.initial_host}
            for c in app.components],
        "connectors": [
            {"id": k.id, "from": str(k.source),
             "to": [str(s) for s in k.sinks],
             "sync": k.policy.sync.value,
             "loss": k.policy.loss.value, "capacity": k.policy.capacity,
             "bw_demand": k.policy.bw_demand}
            for k in app.connectors],
    }


def serialize_net(net: NetDescriptor) -> dict:
    return {
        "hosts": [
            {"id": h.id, "tier": h.tier.value,
             "cpu_capacity": h.cpu_capacity, "mem_capacity": h.mem_capacity,
             "power": ("Mains" if h.power is None else
                       {"level": h.power.level,
                        "drain_per_tick": h.power.drain_per_tick}),
             "up": h.up}
            for h in net.hosts],
        "links": [
            {"endpoints": sorted(l.endpoints), "latency": l.latency,
             "bandwidth": l.bandwidth, "up": l.up}
            for l in net.links],
    }
