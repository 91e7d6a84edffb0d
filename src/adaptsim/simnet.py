"""Deterministic discrete-tick substrate: hosts, links, scripted events.

The whole run is a pure function of (descriptors, scenario, seed).  Each
tick: scripted events fire, in-flight samples re-route, batteries drain,
every up host runs its containers and kernel work, and the adaptation
cycle runs when due.  All iteration orders are fixed (sorted ids), and the
one seeded RNG is consumed in a single global order.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from . import kernel
from .connector import ConnectorInstance, Endpoint, FlowPolicy
from .container import Lifecycle
from .context import (ContextInformation, ContextNature, Location, Quantity,
                      stamp)
from .errors import ComponentFault, ScheduleError, ValidationError
from .kernel import (Battery, HostDescriptor, PlatformConfig, TopologyFlag)
from .store import ContextStore

REPORTING_INTERVAL = 5      # ticks between a host's context reports
ADAPTATION_INTERVAL = 5     # ticks between adaptation cycles

_ABSENT = object()          # a checkpointed map had no entry for the key


@dataclass
class Link(TopologyFlag):
    endpoints: frozenset            # of two host ids
    latency: int
    bandwidth: float
    up: bool = True

    def __post_init__(self):
        if len(self.endpoints) != 2:
            raise ValidationError("link needs two distinct endpoints")
        if self.latency < 0 or self.bandwidth <= 0:
            raise ValidationError("latency >= 0 and bandwidth > 0 required")


class SimEventKind(Enum):
    # enum order fixes same-tick execution order
    LINK_UP = "LinkUp"
    LINK_DOWN = "LinkDown"
    HOST_JOIN = "HostJoin"
    HOST_LEAVE = "HostLeave"
    SENSOR_READING = "SensorReading"
    USER_PROFILE = "UserProfile"
    BATTERY_SET = "BatterySet"


_KIND_ORDER = {k: i for i, k in enumerate(SimEventKind)}


@dataclass(frozen=True)
class SimEvent:
    at: int
    kind: SimEventKind
    args: tuple = ()                # sorted (key, value) pairs

    def __post_init__(self):
        if self.at < 0:
            raise ValidationError("event tick must be >= 0")

    def arg(self, key, default=None):
        for k, v in self.args:
            if k == key:
                return v
        return default


def sim_event(at, kind, **args) -> SimEvent:
    return SimEvent(at=at, kind=kind, args=tuple(sorted(args.items())))


@dataclass
class HostRuntime:
    desc: HostDescriptor
    store: ContextStore = field(default_factory=ContextStore)
    containers: dict = field(default_factory=dict)
    connector_sources: set = field(default_factory=set)
    config: PlatformConfig = field(default_factory=PlatformConfig)
    persist_log: list = field(default_factory=list)


class World:
    def __init__(self, seed: int = 0):
        self.seed = seed
        self.rng = random.Random(seed)
        self.now = 0
        self.hosts: dict = {}
        self.links: dict = {}                 # frozenset -> Link
        self.connectors: dict = {}
        self.descriptors: dict = {}           # component id -> descriptor
        self.model = kernel.ArchitectureModel()
        self.deferred_commands: list = []
        self.coordinator = None               # adaptation.Coordinator
        self.last_qos = None
        self.component_host: dict = {}        # component id -> host id
        self.topology_version = 0             # see kernel.TopologyFlag
        self._routes = None                   # (version, kernel.Routes)
        self._transit: dict = {}      # (src, dst) host -> connector_transit
        self._rerouted_at = None              # version of the last re-route
        self._events: list = []       # heap of (at, kind order, seq, event)
        self._event_seq = 0
        self.trace_lines: list = []
        self._tick_buffer: list = []          # (host, kind, seq, line)
        self._trace_seq = 0

    # -- construction ------------------------------------------------------

    def add_host(self, desc: HostDescriptor) -> HostRuntime:
        if desc.id in self.hosts:
            raise ValidationError(f"duplicate host {desc.id}")
        rt = HostRuntime(desc=desc)
        self.hosts[desc.id] = rt
        self._hold(desc)
        return rt

    def add_link(self, a: str, b: str, latency: int = 1,
                 bandwidth: float = 10.0, up: bool = True) -> Link:
        for end in (a, b):
            if end not in self.hosts:
                raise ValidationError(f"link endpoint {end} unknown")
        pair = frozenset((a, b))
        if pair in self.links:
            raise ValidationError(f"duplicate link {a}-{b}")
        link = Link(endpoints=pair, latency=latency, bandwidth=bandwidth,
                    up=up)
        self.links[pair] = link
        self._hold(link)
        return link

    def _hold(self, record: TopologyFlag) -> None:
        record.__dict__.setdefault("_worlds", []).append(self)
        self.topology_version += 1

    def routes(self) -> kernel.Routes:
        """Routing index and BFS trees of the current topology version."""
        if self._routes is None or self._routes[0] != self.topology_version:
            self._routes = (self.topology_version, kernel.Routes(
                {hid: h.desc.up for hid, h in self.hosts.items()}, self.links))
            self._transit = {}
        return self._routes[1]

    @property
    def coordinator_host(self) -> Optional[str]:
        return self.coordinator.host if self.coordinator else None

    def platform_config(self) -> PlatformConfig:
        if self.coordinator and self.coordinator.host in self.hosts:
            return self.hosts[self.coordinator.host].config
        return PlatformConfig()

    def host_of(self, component_id: str) -> Optional[str]:
        return self.component_host.get(component_id)

    # -- connectors --------------------------------------------------------

    def make_connector(self, kid: str, source: Endpoint, sinks: list,
                       policy: FlowPolicy) -> ConnectorInstance:
        # lambdas capture the world and plain ids only, so a connector
        # carries no reference to the state around it
        transit = lambda sink, _w=self, _k=kid: _w.connector_transit(_k, sink)
        tracer = (lambda conn, now, op, sink, seq, _w=self:
                  _w.flow_trace(conn, now, op, sink, seq))
        return ConnectorInstance(id=kid, source=source, sinks=sinks,
                                 policy=policy, transit=transit,
                                 tracer=tracer)

    def connector_transit(self, kid: str, sink: Endpoint):
        """(latency ticks, host path) from source to sink, None if no route.

        Flow transport is latency-bound; bandwidth enters the QoS score,
        not per-sample timing.  Memoized per host pair with the routes of
        the topology version: latencies are fixed once a link is added.
        """
        k = self.connectors.get(kid)
        if k is None:
            return (0, ())
        src = self.host_of(k.source.component)
        dst = self.host_of(sink.component)
        if src is None or dst is None:
            return None
        if src == dst:
            return (0, ())
        self.routes()                   # drops the memo of an old version
        if (src, dst) not in self._transit:
            path = kernel.shortest_path(self, src, dst)
            self._transit[src, dst] = None if path is None else (
                sum(self.links[frozenset((a, b))].latency
                    for a, b in zip(path, path[1:])), tuple(path))
        return self._transit[src, dst]

    def link_up(self, a: str, b: str) -> bool:
        return self.hosts[a].desc.up and b in self.routes().adj.get(a, ())

    # -- trace -------------------------------------------------------------

    def trace(self, host: str, kind: str, text: str) -> None:
        self._tick_buffer.append((host, kind, self._trace_seq,
                                  f"host={host} kind={kind} {text}"))
        self._trace_seq += 1

    def flow_trace(self, conn, now, op, sink, seq) -> None:
        end = sink if op == "deliver" else conn.source
        where = "" if op == "push" else f" sink={sink}"
        self.trace(self.host_of(end.component) or "-", "FLOW",
                   f"conn={conn.id} op={op}{where} seq={seq}")

    def _flush_trace(self) -> None:
        self._tick_buffer.sort(key=lambda t: (t[0], t[1], t[2]))
        for _, _, _, line in self._tick_buffer:
            self.trace_lines.append(f"tick={self.now} {line}")
        self._tick_buffer.clear()
        self._trace_seq = 0

    # -- rollback checkpoints ---------------------------------------------

    def runtime_snapshot(self, components, connectors, hosts):
        """Checkpoint of what one command can touch.

        Saves the attributes of the containers of `components` and of the
        `connectors` (dict and list values copied one level), and, for
        those ids, the entries of the world's maps and of the `hosts`'
        registries, or the fact that there was none.
        """
        objs = [self.hosts[self.component_host[cid]].containers[cid]
                for cid in components if cid in self.component_host]
        objs += [self.connectors[kid] for kid in connectors
                 if kid in self.connectors]
        attrs = [(o, {a: v.copy() if isinstance(v, (dict, list)) else v
                      for a, v in vars(o).items()}) for o in objs]
        maps = [(self.component_host, components),
                (self.descriptors, components),
                (self.model.components, components),
                (self.connectors, connectors),
                (self.model.connectors, connectors)]
        maps += [(self.hosts[hid].containers, components) for hid in hosts]
        entries = [(m, key, m.get(key, _ABSENT))
                   for m, keys in maps for key in keys]
        sources = [(self.hosts[hid].connector_sources, kid,
                    kid in self.hosts[hid].connector_sources)
                   for hid in hosts for kid in connectors]
        return attrs, entries, sources

    def runtime_restore(self, snap) -> None:
        """Write a checkpoint back into the same objects and maps.

        A key the command deleted comes back at the end of its map, so
        commands delete keys only after their last step that can fail.
        """
        attrs, entries, sources = snap
        for obj, saved in attrs:
            vars(obj).clear()
            vars(obj).update(saved)
        for m, key, old in entries:
            if old is _ABSENT:
                m.pop(key, None)
            else:
                m[key] = old
        for held, kid, was_held in sources:
            if was_held:
                held.add(kid)
            else:
                held.discard(kid)

    # -- scheduling --------------------------------------------------------

    def schedule(self, e: SimEvent) -> None:
        if e.at < self.now:
            raise ScheduleError(f"event at {e.at} is in the past ({self.now})")
        heapq.heappush(self._events,
                       (e.at, _KIND_ORDER[e.kind], self._event_seq, e))
        self._event_seq += 1

    # -- tick loop ---------------------------------------------------------

    def step(self) -> dict:
        report = {"tick": self.now, "events": 0, "faults": 0}
        # (1) scripted events
        while self._events and self._events[0][0] <= self.now:
            self._fire(heapq.heappop(self._events)[3])
            report["events"] += 1
        # (2) flow re-routing; queued paths were routed or checked at the
        # last pass's version
        if self._rerouted_at != self.topology_version:
            for kid in sorted(self.connectors):
                self.connectors[kid].reroute_check(self.now, self.link_up)
            self._rerouted_at = self.topology_version
        # (3) battery drain; exhausted hosts leave
        for hid in sorted(self.hosts):
            host = self.hosts[hid]
            if not host.desc.up or host.desc.power is None:
                continue
            if host.desc.power.level <= 0.0:
                self._host_leave(hid)
                continue
            host.desc.power.level = max(
                0.0, host.desc.power.level - host.desc.power.drain_per_tick)
        # (4) host platform ticks
        for hid in sorted(self.hosts):
            host = self.hosts[hid]
            if not host.desc.up:
                continue
            for cid in sorted(host.containers):
                c = host.containers[cid]
                try:
                    c.process_step(self.now, api=self._api(hid, cid))
                except ComponentFault:
                    report["faults"] += 1
                    info = ContextInformation(
                        nature=ContextNature.HARDWARE, key="component.fault",
                        value=cid, producer="platform")
                    obj = stamp(info, self.now, Location(host=hid),
                                owner="platform", base_confidence=1.0)
                    host.store.put(obj)
                    self.trace(hid, "CTX", obj.trace_repr())
                    kernel._sync_model_component(self, cid, hid, c)
                    self.model.bump()
            self._kernel_tick(hid)
        # (5) adaptation cycle
        if self.coordinator is not None \
                and self.hosts[self.coordinator.host].desc.up \
                and self.now % ADAPTATION_INTERVAL == 0:
            self.coordinator.run_cycle(self, self.now)
        self._flush_trace()
        self.now += 1
        return report

    def run(self, ticks: int) -> None:
        for _ in range(ticks):
            self.step()

    def _kernel_tick(self, hid: str) -> None:
        host = self.hosts[hid]
        if self.now % REPORTING_INTERVAL == 0:
            for cid in sorted(host.containers):
                c = host.containers[cid]
                if c.lifecycle is Lifecycle.RUNNING:
                    obj = c.heartbeat(self.now, hid)
                    host.store.put(obj)
                    self.trace(hid, "CTX", obj.trace_repr())
            if host.desc.power is not None:
                info = ContextInformation(
                    nature=ContextNature.HARDWARE, key="battery.level",
                    value=Quantity(round(host.desc.power.level, 6), ""),
                    producer=hid)
                obj = stamp(info, self.now, Location(host=hid),
                            owner="platform", base_confidence=1.0)
                host.store.put(obj)
                self.trace(hid, "CTX", obj.trace_repr())
            for kid in sorted(host.connector_sources):
                k = self.connectors.get(kid)
                if k is None:
                    continue
                rate, depth = k.take_rate(), k.depth()
                for key, val in (("flow.rate", rate), ("flow.depth", depth)):
                    info = ContextInformation(
                        nature=ContextNature.HARDWARE, key=key,
                        value=Quantity(float(val), ""), producer=kid)
                    obj = stamp(info, self.now, Location(host=hid),
                                owner="platform", base_confidence=1.0)
                    host.store.put(obj)
                self.trace(hid, "CTX",
                           f"key=flow.rate conn={kid} rate={rate:g} "
                           f"depth={depth}")
        if self.coordinator is not None and hid == self.coordinator.host:
            kernel.process_deferred(self)

    def _api(self, hid: str, cid: str):
        return PlatformApi(self, hid, cid)

    # -- scripted event handlers ------------------------------------------

    def _fire(self, e: SimEvent) -> None:
        kind = e.kind
        if kind in (SimEventKind.LINK_UP, SimEventKind.LINK_DOWN):
            a, b = e.arg("endpoints")
            link = self.links.get(frozenset((a, b)))
            if link is not None:
                link.up = kind is SimEventKind.LINK_UP
                self.trace(a, "NET",
                           f"op={'linkup' if link.up else 'linkdown'} "
                           f"peer={b}")
        elif kind is SimEventKind.HOST_JOIN:
            hid = e.arg("host")
            host = self.hosts.get(hid)
            if host is not None:
                host.desc.up = True
                self.trace(hid, "NET", "op=join")
                changed = [kernel._sync_model_component(self, cid, hid, c)
                           for cid, c in sorted(host.containers.items())]
                if any(changed):
                    self.model.bump()
        elif kind is SimEventKind.HOST_LEAVE:
            self._host_leave(e.arg("host"))
        elif kind in (SimEventKind.SENSOR_READING,
                      SimEventKind.USER_PROFILE):
            self._context_event(e)
        elif kind is SimEventKind.BATTERY_SET:
            hid = e.arg("host")
            level = float(e.arg("level"))
            host = self.hosts.get(hid)
            if host is not None:
                if host.desc.power is None:
                    host.desc.power = Battery(level=level)
                else:
                    host.desc.power.level = level
                self.trace(hid, "NET", f"op=battery level={level:g}")

    def _host_leave(self, hid: str) -> None:
        host = self.hosts.get(hid)
        if host is None or not host.desc.up:
            return
        host.desc.up = False
        self.trace(hid, "NET", "op=leave")

    def _context_event(self, e: SimEvent) -> None:
        hid = e.arg("host")
        host = self.hosts.get(hid)
        if host is None or not host.desc.up:
            return
        key = e.arg("key")
        if e.kind is SimEventKind.SENSOR_READING:
            nature = ContextNature(e.arg("nature", "Environment"))
            value = float(e.arg("value", 0.0))
            noise = float(e.arg("noise", 0.0))
            if noise:
                value += self.rng.gauss(0.0, noise)
            payload = Quantity(round(value, 6), e.arg("unit", ""))
            producer = e.arg("producer", "sensor")
        else:
            nature = ContextNature.USER
            payload = str(e.arg("value", ""))
            producer = e.arg("producer", "profile")
        info = ContextInformation(nature=nature, key=key, value=payload,
                                  producer=producer)
        obj = stamp(info, self.now, Location(host=hid),
                    owner=e.arg("owner", "app"),
                    base_confidence=float(e.arg("confidence", 1.0)))
        host.store.put(obj)
        self.trace(hid, "CTX", obj.trace_repr())


class PlatformApi:
    """Service access handed to business functions at each firing."""

    def __init__(self, world: World, host_id: str, component_id: str):
        self._world = world
        self.host_id = host_id
        self.component_id = component_id

    def service_call(self, service, request=None):
        return kernel.service_call(self._world, self.host_id, service,
                                   request)

    def submit_command(self, cmd):
        """Application-originated reconfiguration (bypasses intrusion
        gating: the application is changing itself)."""
        return kernel.apply_now(self._world, cmd, origin="app")
