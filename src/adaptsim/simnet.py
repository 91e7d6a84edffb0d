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
from .context import (ContextInformation, ContextNature, ContextObject,
                      InformationValidity, Location, Quantity, stamp)
from .errors import ComponentFault, ScheduleError, ValidationError
from .kernel import Battery, HostDescriptor, TopologyFlag
from .store import ContextStore

REPORTING_INTERVAL = 5      # ticks between a host's context reports
ADAPTATION_INTERVAL = 5     # ticks between adaptation cycles

_ABSENT = object()          # a map (checkpointed, or a memo) had no entry


@dataclass
class Link(TopologyFlag):
    endpoints: frozenset            # of two host ids
    latency: int = 1
    bandwidth: float = 10.0
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


@dataclass(slots=True)
class _Routing:
    """What routing knows of one topology state: its down host ids and
    down link endpoint pairs, its routes and its `connector_transit`
    memo of (src, dst) host pairs."""
    down: tuple                     # (host ids, link pairs), frozensets
    routes: kernel.Routes
    transit: dict


def _avoids(path, hosts: frozenset, links: frozenset) -> bool:
    """A host path that passes none of `hosts` and crosses none of
    `links` (endpoint pairs)."""
    return hosts.isdisjoint(path) and not (links and any(
        frozenset(hop) in links for hop in zip(path, path[1:])))


@dataclass
class HostRuntime:
    desc: HostDescriptor
    store: ContextStore = field(default_factory=ContextStore)
    containers: dict = field(default_factory=dict)
    location: Location = field(init=False)    # of every reading it stamps

    def __post_init__(self):
        self.location = Location(host=self.desc.id)


class World:
    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)
        self.now = 0
        self.hosts: dict = {}
        self.links: dict = {}                 # frozenset -> Link
        self.connectors: dict = {}
        self.descriptors: dict = {}           # component id -> descriptor
        self.model_version = 0        # moves wherever the deployment changes
        self._model = None            # kernel.ArchitectureModel, see `model`
        # (model version, host -> firing order, host -> sourced connectors)
        self._registry = (None, {}, {})
        self._apis: dict = {}                 # (host, component) -> api
        self._last_report: dict = {}  # component -> see _reported
        self._flow_infos: dict = {}   # (connector, key, value) -> info
        self.coordinator = None               # adaptation.Coordinator
        self.last_qos = None
        self.component_host: dict = {}        # component id -> host id
        self.topology_version = 0             # see kernel.TopologyFlag
        # the _Routing of the current topology state, then of the previous
        # one; `_routed_at` is the topology version the first was found at
        self._routing: tuple = ()
        self._routed_at = None
        # _Routing.down at the last re-route pass
        self._passed = (frozenset(), frozenset())
        # ((model version, topology version), connector id -> its hops)
        self._hops = (None, {})
        self._events: list = []       # heap of (at, kind order, seq, event)
        self._event_seq = 0
        self.trace_lines: list = []
        self._tick_buffer: list = []          # (host, kind, seq, line)
        self._trace_seq = 0

    # -- construction ------------------------------------------------------

    def add_host(self, desc: HostDescriptor) -> HostRuntime:
        if desc.id in self.hosts:
            raise ValidationError(f"duplicate host {desc.id}")
        self._hold(desc)
        rt = self.hosts[desc.id] = HostRuntime(desc=desc)
        return rt

    def add_link(self, a: str, b: str, latency: int = Link.latency,
                 bandwidth: float = Link.bandwidth, up: bool = True) -> Link:
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
        """Make this world the one whose topology version `record`'s `up`
        flag moves; a record another world holds is refused."""
        if record.__dict__.get("_world", self) is not self:
            raise ValidationError(f"{record!r} is held by another world")
        record.__dict__["_world"] = self
        self.topology_version += 1
        self._routing = ()              # a new host or link: route anew

    def routes(self) -> kernel.Routes:
        """Routing index, BFS trees and path memo of the current topology
        state."""
        return self._routed().routes

    def _routed(self) -> _Routing:
        """The routing of the current topology state, the set of down hosts
        and links, looked up once per topology version.

        The current state's record is kept, and so is the previous
        state's, for a host that rejoins or a link that comes back.  When
        hosts or links only went down since the current state, every
        memoized path and transit that avoids them is carried over: a
        least fewest-hop path that survives in a smaller graph is still
        least there, and an unreachable pair stays unreachable.  Any other
        change, or a host or link added, routes anew.
        """
        kept = self._routing
        if self._routed_at == self.topology_version:
            return kept[0]
        self._routed_at = self.topology_version
        down = (frozenset([hid for hid, h in self.hosts.items()
                           if not h.desc.up]),
                frozenset([pair for pair, link in self.links.items()
                           if not link.up]))
        if kept and kept[0].down == down:
            return kept[0]
        if len(kept) > 1 and kept[1].down == down:
            self._routing = (kept[1], kept[0])
            return kept[1]
        known, transit = {}, {}
        was = kept[0].down if kept else None
        if was and down[0] >= was[0] and down[1] >= was[1]:
            hosts, links = down[0] - was[0], down[1] - was[1]
            known = {pair: path
                     for pair, path in kept[0].routes.known.items()
                     if path is None or _avoids(path, hosts, links)}
            transit = {pair: hop for pair, hop in kept[0].transit.items()
                       if hop is None or _avoids(hop[1], hosts, links)}
        record = _Routing(down, kernel.Routes(
            {hid: h.desc.up for hid, h in self.hosts.items()}, self.links,
            known), transit)
        self._routing = (record,) + kept[:1]
        return record

    @property
    def model(self) -> kernel.ArchitectureModel:
        """The architecture model, read from the hosts' registries once per
        model version; a model a reader holds describes its version."""
        if self._model is None or self._model.version != self.model_version:
            self._model = kernel.reconstruct_model(self)
        return self._model

    @property
    def coordinator_host(self) -> Optional[str]:
        return self.coordinator.host if self.coordinator else None

    def _at_version(self) -> tuple:
        """This model version's memo of the hosts' registries; each host's
        entries are built when first asked for."""
        if self._registry[0] != self.model_version:
            self._registry = (self.model_version, {}, {})
        return self._registry

    def firing_order(self, hid: str) -> list:
        """The host's (component id, container) pairs in id order, sorted
        once per model version: every write of a registry bumps it."""
        orders = self._at_version()[1]
        order = orders.get(hid)
        if order is None:
            order = orders[hid] = sorted(self.hosts[hid].containers.items())
        return order

    def _sourced(self, hid: str) -> list:
        """`kernel.sourced_connectors` of the host, once per model
        version."""
        sourced = self._at_version()[2]
        ks = sourced.get(hid)
        if ks is None:
            ks = sourced[hid] = kernel.sourced_connectors(self.hosts[hid])
        return ks

    def host_of(self, component_id: str) -> Optional[str]:
        return self.component_host.get(component_id)

    # -- connectors --------------------------------------------------------

    def make_connector(self, kid: str, source: Endpoint, sinks: list,
                       policy: FlowPolicy) -> ConnectorInstance:
        # the callbacks hold the world and plain ids only, so a connector
        # carries no reference to the state around it.  A push reads its
        # hops from `connector_hops`, which calls `connector_transit` only
        # at a version it has no hops for; both callbacks look the method
        # up per call, so a wrapper set on World reaches it
        transit = lambda sink, _w=self, _k=kid: _w.connector_transit(_k, sink)
        hops = lambda sinks, _w=self, _k=kid: _w.connector_hops(_k, sinks)
        return ConnectorInstance(id=kid, source=source, sinks=sinks,
                                 policy=policy, transit=transit, hops=hops,
                                 tracer=self.flow_trace)

    def connector_hops(self, kid: str, sinks: list) -> list:
        """`connector_transit` of each of the connector's sinks, in order,
        once per (model version, topology version): a sink's transit moves
        only with `component_host` or the topology (a host or link added,
        an `up` flag written), and each of those moves one of the two."""
        versions = (self.model_version, self.topology_version)
        if self._hops[0] != versions:
            self._hops = (versions, {})
        hops = self._hops[1].get(kid)
        if hops is None:
            hops = self._hops[1][kid] = [self.connector_transit(kid, sink)
                                         for sink in sinks]
        return hops

    def connector_transit(self, kid: str, sink: Endpoint):
        """(latency ticks, host path) from source to sink, None if no route.

        Flow transport is latency-bound; bandwidth enters the QoS score,
        not per-sample timing.  Memoized per host pair with the routes of
        the topology state: latencies are fixed once a link is added.
        """
        src = self.component_host[self.connectors[kid].source.component]
        dst = self.component_host[sink.component]
        if src == dst:
            return (0, ())
        transit = self._routed().transit
        hop = transit.get((src, dst), _ABSENT)
        if hop is _ABSENT:
            path = kernel.shortest_path(self, src, dst)
            hop = transit[src, dst] = None if path is None else (
                sum(self.links[frozenset((a, b))].latency
                    for a, b in zip(path, path[1:])), tuple(path))
        return hop

    def link_up(self, a: str, b: str) -> bool:
        return self.hosts[a].desc.up and b in self.routes().adj.get(a, ())

    # -- trace -------------------------------------------------------------

    def trace(self, host: str, kind: str, text: str) -> None:
        self._tick_buffer.append((host, kind, self._trace_seq,
                                  f"host={host} kind={kind} {text}"))
        self._trace_seq += 1

    def flow_trace(self, conn, now, op, sink, seq) -> None:
        """One FLOW line, charged to the sink's host for a delivery and to
        the source's host otherwise."""
        end = sink if op == "deliver" else conn.source
        host = self.component_host.get(end.component) or "-"
        where = "" if op == "push" else f" sink={sink}"
        self._tick_buffer.append((
            host, "FLOW", self._trace_seq,
            f"host={host} kind=FLOW conn={conn.id} op={op}{where} seq={seq}"))
        self._trace_seq += 1

    def _flush_trace(self) -> None:
        # seq is unique within a tick, so the sort never compares lines
        self._tick_buffer.sort()
        prefix = f"tick={self.now} "
        self.trace_lines.extend(prefix + line
                                for _, _, _, line in self._tick_buffer)
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
                (self.connectors, connectors)]
        maps += [(self.hosts[hid].containers, components) for hid in hosts]
        entries = [(m, key, m.get(key, _ABSENT))
                   for m, keys in maps for key in keys]
        return attrs, entries

    def runtime_restore(self, snap) -> None:
        """Write a checkpoint back into the same objects and maps.

        A key the command deleted comes back at the end of its map, so
        commands delete keys only after their last step that can fail.
        """
        attrs, entries = snap
        for obj, saved in attrs:
            vars(obj).clear()
            vars(obj).update(saved)
        for m, key, old in entries:
            if old is _ABSENT:
                m.pop(key, None)
            else:
                m[key] = old

    # -- scheduling --------------------------------------------------------

    def schedule(self, e: SimEvent) -> None:
        """Queue `e`; refuse it if it is in the past, lacks its link
        (LinkUp, LinkDown) or host (every other kind), or names no link or
        host of the world."""
        if e.at < self.now:
            raise ScheduleError(f"event at {e.at} is in the past ({self.now})")
        on_link = e.kind in (SimEventKind.LINK_UP, SimEventKind.LINK_DOWN)
        key = "endpoints" if on_link else "host"
        where = e.arg(key)
        if where is None:
            raise ScheduleError(f"{e.kind.value} event at {e.at} is missing "
                                f"{key!r}")
        if on_link and frozenset(where) not in self.links:
            raise ScheduleError(f"link {'-'.join(where)} is not in the net")
        if not on_link and where not in self.hosts:
            raise ScheduleError(f"host {where!r} is not in the net")
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
        # (2) flow re-routing.  After a pass every in-transit path is valid
        # at that pass's state, and until the next pass samples are routed
        # at that state or with more hosts down (phase 3).  So only a host
        # or link that went down since the last pass can break a path, and
        # only connectors with a sample in transit over one are checked
        down, passed = self._routed().down, self._passed
        if down is not passed:
            hosts, links = down[0] - passed[0], down[1] - passed[1]
            if hosts or links:
                now = self.now
                for kid in sorted(self.connectors):
                    k = self.connectors[kid]
                    if any(e.available_at > now and e.path
                           and not _avoids(e.path, hosts, links)
                           for q in k._queues.values() for e in q):
                        k.reroute_check(now, self.link_up)
            self._passed = down
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
            registry = host.containers
            for cid, c in self.firing_order(hid):
                # an application's command may have moved it this tick; a
                # container that arrived on a later host fires there
                if registry.get(cid) is not c:
                    continue
                try:
                    c.process_step(self.now, api=self._api(hid, cid))
                except ComponentFault:
                    report["faults"] += 1
                    info = ContextInformation(
                        nature=ContextNature.HARDWARE, key="component.fault",
                        value=cid, producer="platform")
                    obj = stamp(info, self.now, host.location,
                                owner="platform", base_confidence=1.0)
                    host.store.put(obj)
                    self.trace(hid, "CTX", obj.trace_repr())
                    self.model_version += 1
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
            # every object of one report shares its host's validity, and
            # every line of the report the validity's trace text
            validity = InformationValidity(
                timestamp=self.now, location=host.location,
                base_confidence=1.0, owner="platform")
            tail = validity.trace_repr()
            put = host.store.put
            for cid, c in self.firing_order(hid):
                if c.lifecycle is Lifecycle.RUNNING:
                    info, head = self._reported(cid)
                    put(ContextObject(info, validity))
                    self.trace(hid, "CTX", f"{head} {tail}")
            if host.desc.power is not None:
                # a draining host's level moves every report: nothing to keep
                info = ContextInformation(
                    nature=ContextNature.HARDWARE, key="battery.level",
                    value=Quantity(round(host.desc.power.level, 6), ""),
                    producer=hid)
                put(ContextObject(info, validity))
                self.trace(hid, "CTX", f"{info.trace_repr()} {tail}")
            for k in self._sourced(hid):
                rate, depth = k.take_rate(), k.depth()
                put(ContextObject(self._flow_info(k.id, "flow.rate", rate),
                                  validity))
                put(ContextObject(self._flow_info(k.id, "flow.depth", depth),
                                  validity))
                self.trace(hid, "CTX",
                           f"key=flow.rate conn={k.id} rate={rate:g} "
                           f"depth={depth}")

    def _reported(self, cid: str) -> tuple:
        """(information, its trace text) of a component's liveness report,
        built once per component: its value is the component's id."""
        last = self._last_report.get(cid)
        if last is None:
            info = ContextInformation(
                nature=ContextNature.HARDWARE, key="component.alive",
                value=cid, producer=cid)
            last = self._last_report[cid] = (info, info.trace_repr())
        return last

    def _flow_info(self, kid: str, key: str, value: int):
        """The information of a connector's `flow.rate` or `flow.depth`
        `value`, built once per value.  A rate counts the deliveries since
        the connector's last report, at most one per sink and tick, and a
        depth is at most a lossless queue's capacity (one, keeping the
        latest), so the memo stays small while the values alternate."""
        info = self._flow_infos.get((kid, key, value))
        if info is None:
            info = self._flow_infos[kid, key, value] = ContextInformation(
                nature=ContextNature.HARDWARE, key=key, producer=kid,
                value=Quantity(float(value), ""))
        return info

    def _api(self, hid: str, cid: str):
        api = self._apis.get((hid, cid))
        if api is None:
            api = self._apis[hid, cid] = PlatformApi(self, hid, cid)
        return api

    # -- scripted event handlers ------------------------------------------

    def _fire(self, e: SimEvent) -> None:
        kind = e.kind
        if kind in (SimEventKind.LINK_UP, SimEventKind.LINK_DOWN):
            a, b = e.arg("endpoints")
            link = self.links[frozenset((a, b))]
            link.up = kind is SimEventKind.LINK_UP
            self.trace(a, "NET",
                       f"op={'linkup' if link.up else 'linkdown'} peer={b}")
        elif kind is SimEventKind.HOST_JOIN:
            hid = e.arg("host")
            host = self.hosts[hid]
            host.desc.up = True
            self.trace(hid, "NET", "op=join")
            started = [kernel._start_if_ready(self, hid, c)
                       for _, c in sorted(host.containers.items())]
            if any(started):
                self.model_version += 1
        elif kind is SimEventKind.HOST_LEAVE:
            self._host_leave(e.arg("host"))
        elif kind in (SimEventKind.SENSOR_READING,
                      SimEventKind.USER_PROFILE):
            self._context_event(e)
        elif kind is SimEventKind.BATTERY_SET:
            hid = e.arg("host")
            level = float(e.arg("level"))
            host = self.hosts[hid]
            if host.desc.power is None:
                host.desc.power = Battery(level=level)
            else:
                host.desc.power.level = level
            self.trace(hid, "NET", f"op=battery level={level:g}")

    def _host_leave(self, hid: str) -> None:
        host = self.hosts[hid]
        if not host.desc.up:
            return
        host.desc.up = False
        self.trace(hid, "NET", "op=leave")

    def _context_event(self, e: SimEvent) -> None:
        hid = e.arg("host")
        host = self.hosts[hid]
        if not host.desc.up:
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
        obj = stamp(info, self.now, host.location,
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
        """Application-originated reconfiguration: the application is
        changing itself."""
        return kernel.apply_now(self._world, cmd, origin="app")
