"""Deterministic discrete-tick substrate: hosts, links, scripted events.

The whole run is a pure function of (descriptors, scenario, seed).  Each
tick: scripted events fire, in-flight samples re-route, batteries drain,
every up host runs its containers and kernel work, and the adaptation
cycle runs when due.  All iteration orders are fixed (sorted ids), and the
one seeded RNG is consumed in a single global order.
"""

from __future__ import annotations

import bisect
import heapq
import random
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Optional

from . import kernel
from .connector import ConnectorInstance, Endpoint, FlowPolicy
from .container import Lifecycle
from .context import (ContextInformation, ContextNature, Location,
                      Quantity, stamp)
from .errors import ComponentFault, ScheduleError, ValidationError
from .kernel import Battery, HostDescriptor, TopologyFlag
from .store import ContextStore

REPORTING_INTERVAL = 5      # ticks between a host's context reports
ADAPTATION_INTERVAL = 5     # ticks between adaptation cycles

_ABSENT = object()          # a map (checkpointed, or a memo) had no entry
# bound at import: on CPython 3.11 a member load costs ~110 ns, a name ~8 ns
_RUNNING, _HARDWARE = Lifecycle.RUNNING, ContextNature.HARDWARE


@dataclass
class Link(TopologyFlag):
    endpoints: frozenset            # of two host ids
    latency: int = 1
    bandwidth: float = 10.0
    up: bool = True

    def __post_init__(self):
        if len(self.endpoints) != 2:
            raise ValidationError("link needs two distinct endpoints")


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
    down link endpoint pairs, its routes and its memo of `connector_hops`
    by connector."""
    down: tuple                     # (host ids, link pairs), frozensets
    routes: kernel.Routes
    hops: dict


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
        # (host -> firing entries, host -> report plan), see `drop_memos`
        self._registry = ({}, {})
        # (connector, op[, sink component, port]) -> the FLOW line's (lines
        # of its host, text up to "seq="), see `drop_memos`
        self._heads = {}
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
        self._events: list = []       # heap of (at, kind order, seq, event)
        self._event_seq = 0
        self.trace_lines: list = []
        # (host, kind) -> the tick's lines of that host and kind, in the
        # order they were made; `_filed` holds the (key, lines) pairs in
        # key order.  FLOW heads and report plans hold their host's lists
        self._lines: dict = {}
        self._filed: list = []

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
        memoized path, and every hop list whose hops all do, that avoids
        them is carried over: a least fewest-hop path that survives in a
        smaller graph is still least there, and an unreachable pair stays
        unreachable.  Any other change, or a host or link added, routes
        anew.
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
        known, hops = {}, {}
        was = kept[0].down if kept else None
        if was and down[0] >= was[0] and down[1] >= was[1]:
            hosts, links = down[0] - was[0], down[1] - was[1]
            known = {pair: path
                     for pair, path in kept[0].routes.known.items()
                     if path is None or _avoids(path, hosts, links)}
            hops = {kid: found for kid, found in kept[0].hops.items()
                    if all(hop is None or _avoids(hop[1], hosts, links)
                           for hop in found)}
        record = _Routing(down, kernel.Routes(
            {hid: h.desc.up for hid, h in self.hosts.items()}, self.links,
            known), hops)
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

    def drop_memos(self, hosts, connectors) -> None:
        """Forget the firing entries and report plans of the `hosts` and
        the FLOW line heads and hop lists of the `connectors`: a command
        writes no registry, binding or `component_host` entry outside its
        checkpoint scope (`kernel._scope`), and no other write moves them."""
        orders, plans = self._registry
        for hid in hosts:
            orders.pop(hid, None)
            plans.pop(hid, None)
        if connectors:
            self._heads = {key: head for key, head in self._heads.items()
                           if key[0] not in connectors}
        for record in self._routing:
            for kid in connectors:
                record.hops.pop(kid, None)

    def firing_order(self, hid: str) -> list:
        """The host's (component id, container, its `PlatformApi`) entries
        in id order, kept until `drop_memos` names the host."""
        orders = self._registry[0]
        order = orders.get(hid)
        if order is None:
            order = orders[hid] = [
                (cid, c, PlatformApi(self, hid, cid))
                for cid, c in sorted(self.hosts[hid].containers.items())]
        return order

    def _report_plan(self, hid: str) -> tuple:
        """What the host's context report keeps with its firing entries: the
        (container, reading, line text up to `t=`) of each firing entry,
        the battery line's text up to its level, the (connector, line text
        up to its rate) of each connector the host sources, by id, the
        lines' text after `t=<tick>`, and the list the host's CTX lines are
        filed in.  A reading is what the host's store files (see
        `ContextStore.put`)."""
        ctx, nature = f"host={hid} kind=CTX key=", _HARDWARE.short
        alive = [(c, (_HARDWARE, "component.alive", cid, cid),
                  f"{ctx}component.alive nature={nature} val={cid} ")
                 for cid, c, _ in self.firing_order(hid)]
        flows = [(k, f"{ctx}flow.rate conn={k.id} rate=")
                 for k in kernel.sourced_connectors(self.hosts[hid])]
        return (alive, f"{ctx}battery.level nature={nature} val=", flows,
                f" loc={hid} conf=1 own=platform", self._filing(hid, "CTX"))

    def host_of(self, component_id: str) -> Optional[str]:
        return self.component_host.get(component_id)

    # -- connectors --------------------------------------------------------

    def make_connector(self, kid: str, source: Endpoint, sinks: list,
                       policy: FlowPolicy) -> ConnectorInstance:
        # the callback holds the world and the connector's id only, so a
        # connector carries no reference to the state around it, and it
        # pickles.  A connector reads every hop from `connector_hops`,
        # bound here, so a wrapper on World reaches it only if set before
        # the connector is made (before `cli.build_world`); it calls
        # `connector_transit`, looked up on every call
        return ConnectorInstance(id=kid, source=source, sinks=sinks,
                                 policy=policy,
                                 hops=partial(self.connector_hops, kid),
                                 tracer=self.flow_trace)

    def connector_hops(self, kid: str, sinks: list) -> list:
        """`connector_transit` of each of the connector's sinks, in order,
        kept on the routing of the topology state it was read in until
        `drop_memos` names the connector."""
        kept = self._routed().hops
        hops = kept.get(kid)
        if hops is None:
            hops = kept[kid] = [self.connector_transit(kid, sink)
                                for sink in sinks]
        return hops

    def connector_transit(self, kid: str, sink: Endpoint):
        """(latency ticks, host path) from source to sink, None if no route.

        Flow transport is latency-bound; bandwidth enters the QoS score,
        not per-sample timing.  The path comes from the routes' memo, and
        `connector_hops` keeps the answer with the connector's hop list.
        """
        src = self.component_host[self.connectors[kid].source.component]
        dst = self.component_host[sink.component]
        if src == dst:
            return (0, ())
        path = kernel.shortest_path(self, src, dst)
        if path is None:
            return None
        return (sum(self.links[frozenset(hop)].latency
                    for hop in zip(path, path[1:])), tuple(path))

    # -- trace -------------------------------------------------------------

    def trace(self, host: str, kind: str, text: str) -> None:
        self._filing(host, kind).append(f"host={host} kind={kind} {text}")

    def _filing(self, host: str, kind: str) -> list:
        """The list the tick's (host, kind) lines are filed in; a key's
        first list is filed in key order, and is kept from then on."""
        lines = self._lines.get((host, kind))
        if lines is None:
            lines = self._lines[host, kind] = []
            # keys are unique, so the pairs never compare their lists
            bisect.insort(self._filed, ((host, kind), lines))
        return lines

    def discard_tick_lines(self) -> None:
        """Drop the lines the tick has made so far."""
        for _, lines in self._filed:
            lines.clear()

    def flow_trace(self, conn, now, op, sink, seq) -> None:
        """One FLOW line.  Its host's lines and its text up to `seq=` are
        kept until `drop_memos` names the connector, keyed by the
        connector's id, the op and the sink's component and port, not by
        the `Endpoint`, whose dataclass hash is slow."""
        heads = self._heads
        key = ((conn.id, op) if sink is None
               else (conn.id, op, sink.component, sink.port))
        head = heads.get(key)
        if head is None:
            head = heads[key] = self._flow_head(conn, op, sink)
        head[0].append(f"{head[1]}{seq}")

    def _flow_head(self, conn, op, sink) -> tuple:
        """(lines of its host, text up to `seq=`) of a FLOW line, charged to
        the sink's host for a delivery and to the source's host
        otherwise."""
        end = sink if op == "deliver" else conn.source
        host = self.component_host.get(end.component) or "-"
        where = "" if op == "push" else f" sink={sink}"
        return (self._filing(host, "FLOW"),
                f"host={host} kind=FLOW conn={conn.id} op={op}{where} seq=")

    def _flush_trace(self) -> None:
        """Append the tick's lines by host, then kind, then the order they
        were made."""
        prefix = f"tick={self.now} ".__add__
        out = self.trace_lines
        for _, lines in self._filed:
            if lines:
                out += map(prefix, lines)
                lines.clear()

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
        reporting = self.now % REPORTING_INTERVAL == 0
        # (1) scripted events
        while self._events and self._events[0][0] <= self.now:
            self._fire(heapq.heappop(self._events)[3])
            report["events"] += 1
        # (2) flow re-routing.  After a pass every in-transit path is valid
        # at that pass's state, and until the next pass samples are routed
        # at that state or with more hosts down (phase 3).  So a path is
        # broken when it crosses a host or link that went down since the
        # last pass, and only connectors with a sample in transit over a
        # broken path are checked
        down, passed = self._routed().down, self._passed
        if down is not passed:
            hosts, links = down[0] - passed[0], down[1] - passed[1]
            if hosts or links:
                now = self.now

                def broken(path) -> bool:
                    return not _avoids(path, hosts, links)
                for kid in sorted(self.connectors):
                    k = self.connectors[kid]
                    if any(e.available_at > now and e.path and broken(e.path)
                           for q in k._queues.values() for e in q):
                        k.reroute_check(now, broken)
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
            for cid, c, api in self.firing_order(hid):
                # an application's command may have moved it this tick; a
                # container that arrived on a later host fires there
                if registry.get(cid) is not c:
                    continue
                try:
                    c.process_step(self.now, api=api)
                except ComponentFault:
                    report["faults"] += 1
                    info = ContextInformation(
                        nature=_HARDWARE, key="component.fault",
                        value=cid, producer="platform")
                    obj = stamp(info, self.now, host.location,
                                owner="platform", base_confidence=1.0)
                    host.store.put(obj)
                    self.trace(hid, "CTX", obj.trace_repr())
                    self.model_version += 1
            if reporting:
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
        """The host's context report, made on every reporting tick: a CTX
        line and a reading for each running component, for the battery
        level and for each sourced connector's rate and depth, the
        readings put in the host's store as one record.  Only the tick,
        the level, the rate and the depth are worked out here; the rest
        is the host's report plan, kept with its firing entries."""
        plans = self._registry[1]
        plan = plans.get(hid)
        if plan is None:
            plan = plans[hid] = self._report_plan(hid)
        alive, battery, flows, suffix, lines = plan
        host = self.hosts[hid]
        now = self.now
        tail = f"t={now}{suffix}"
        readings = []
        for c, reading, head in alive:
            if c.lifecycle is _RUNNING:
                readings.append(reading)
                lines.append(head + tail)
        if host.desc.power is not None:
            level = round(host.desc.power.level, 6)
            readings.append((_HARDWARE, "battery.level", level, hid))
            lines.append(f"{battery}{level:g} {tail}")
        for k, head in flows:
            rate, depth = k.take_rate(), k.depth()
            readings += ((_HARDWARE, "flow.rate", rate, k.id),
                         (_HARDWARE, "flow.depth", depth, k.id))
            lines.append(f"{head}{rate:g} depth={depth}")
        host.store.put(((now, host.location, 1.0, "platform"), readings))

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
