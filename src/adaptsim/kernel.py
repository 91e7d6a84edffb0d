"""Per-host platform kernel.

Holds the tier/capability matrix, host descriptors, hop-count routing with
light-tier delegation, platform services, the reflexive architecture
model, and atomic execution of reconfiguration commands.  Functions here
take the world (the simulation substrate) as their first argument; the
world owns all mutable runtime state.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass, field, replace as dc_replace
from enum import Enum
from typing import Any, Optional

from . import behaviors
from .connector import Endpoint, FlowPolicy
from .container import (ComponentDescriptor, ContainerInstance, Lifecycle,
                        PlatformEvent)
from .errors import ServiceUnavailable, Unreachable


class HostTier(Enum):
    FULL = "Full"
    LIGHT_STD = "LightStd"
    LIGHT_MIN = "LightMin"


class Service(Enum):
    CONTEXT_ACCESS = "ContextAccess"
    CONTEXT_DISTANT = "ContextDistant"
    PERSISTENCE = "Persistence"
    ROUTING = "Routing"


# Capability matrix per tier.  Sensor-class hosts keep only the services a
# constrained device can afford; heavy ones are delegated to full hosts.
SERVICE_MATRIX = {
    HostTier.FULL: frozenset(Service),
    HostTier.LIGHT_STD: frozenset(Service),
    HostTier.LIGHT_MIN: frozenset({
        Service.CONTEXT_ACCESS, Service.CONTEXT_DISTANT}),
}


class TopologyFlag:
    """A host or link: writing its `up` flag bumps `topology_version` on
    the world holding it (see `World._hold`)."""

    def __setattr__(self, name, value):
        object.__setattr__(self, name, value)
        world = self.__dict__.get("_world")
        if name == "up" and world is not None:
            world.topology_version += 1


@dataclass
class Battery:
    level: float
    drain_per_tick: float = 0.0


@dataclass
class HostDescriptor(TopologyFlag):
    id: str
    tier: HostTier
    cpu_capacity: float
    mem_capacity: float
    power: Optional[Battery] = None       # None means mains
    up: bool = True


# -- reconfiguration commands ----------------------------------------------

@dataclass(frozen=True)
class Add:
    descriptor: ComponentDescriptor
    host: str


@dataclass(frozen=True)
class Remove:
    component: str


@dataclass(frozen=True)
class Move:
    component: str
    target: str


@dataclass(frozen=True)
class Connect:
    connector: str
    source: Endpoint
    sinks: tuple
    policy: FlowPolicy


@dataclass(frozen=True)
class Disconnect:
    connector: str


@dataclass(frozen=True)
class ReplaceBusiness:
    component: str
    behavior: Optional[str] = None
    tier: Optional[str] = None


@dataclass(frozen=True)
class CommandResult:
    status: str                 # Applied | Aborted
    reason: str = ""

    @property
    def applied(self):
        return self.status == "Applied"


APPLIED = CommandResult("Applied")


def aborted(reason: str) -> CommandResult:
    return CommandResult("Aborted", reason)


class _Abort(Exception):
    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


# -- architecture model ----------------------------------------------------

@dataclass(frozen=True)
class ModelComponent:
    host: str
    tier: str
    behavior: str
    lifecycle: str


@dataclass(frozen=True)
class ModelConnector:
    source: Endpoint
    sinks: tuple
    policy: FlowPolicy


@dataclass
class ArchitectureModel:
    """Causally connected runtime view of one model version, read from the
    hosts' registries (see `World.model`)."""

    components: dict = field(default_factory=dict)   # id -> ModelComponent
    connectors: dict = field(default_factory=dict)   # id -> ModelConnector
    version: int = 0

    def canonical(self):
        """Content form used for equality checks; version excluded."""
        comps = {cid: (m.host, m.tier, m.behavior, m.lifecycle)
                 for cid, m in sorted(self.components.items())}
        conns = {kid: (str(m.source), tuple(str(s) for s in m.sinks),
                       (m.policy.sync.value, m.policy.loss.value,
                        m.policy.capacity, m.policy.bw_demand))
                 for kid, m in sorted(self.connectors.items())}
        return (comps, conns)


def sourced_connectors(host) -> list:
    """The connectors whose source is a container on `host`, by id."""
    return sorted((k for c in host.containers.values()
                   for k in c.output_bindings.values()), key=lambda k: k.id)


def reconstruct_model(world) -> ArchitectureModel:
    """Build the model of the current version by walking every host's
    registries."""
    m = ArchitectureModel(version=world.model_version)
    for hid in sorted(world.hosts):
        host = world.hosts[hid]
        for cid in sorted(host.containers):
            c = host.containers[cid]
            m.components[cid] = ModelComponent(
                host=hid, tier=c.active_variant.tier,
                behavior=c.active_variant.behavior,
                lifecycle=c.lifecycle.value)
        for k in sourced_connectors(host):
            m.connectors[k.id] = ModelConnector(
                source=k.source, sinks=tuple(k.sinks), policy=k.policy)
    return m


# -- routing ---------------------------------------------------------------

_UNASKED = object()         # a pair `Routes.known` holds no answer for


class Routes:
    """Fewest-hop routes over a snapshot of one topology state: an
    adjacency index, where adj[a] lists in sorted order every b such that
    link a-b and host b are up, one breadth-first search per source asked
    for, and `known`, the answer of each (src, dst) pair asked for.
    `links` maps endpoint pairs to records with an `up` flag; the index is
    built from them once, so a later write makes a new `Routes`, never a
    changed one.  A caller may seed `known` with answers it holds to be
    exact over `host_up` and `links`.  `view` shares the index, the
    searches and the answers under a narrower `host_up`."""

    def __init__(self, host_up: dict, links: dict, known: dict = None):
        self.host_up = host_up
        self.adj: dict = {}
        for (a, b), link in links.items():
            if link.up and host_up.get(b):
                self.adj.setdefault(a, []).append(b)
            if link.up and host_up.get(a):
                self.adj.setdefault(b, []).append(a)
        for nbrs in self.adj.values():
            nbrs.sort()
        self._trees: dict = {}          # src -> (reached, frontier)
        # (src, dst) -> path, None when dst is unreachable from an up src
        self.known: dict = {} if known is None else known

    def view(self, host_up: dict) -> "Routes":
        """These routes, answering only from sources up in `host_up`.

        Exact when the hosts `host_up` marks up are whole connected parts
        of this index's up hosts: a search from one of them never leaves
        its part, so it is the search a `Routes` over `host_up` would run.
        """
        view = copy.copy(self)
        view.host_up = host_up
        return view

    def path(self, src: str, dst: str) -> Optional[tuple]:
        """Fewest hops from src to dst, ties to the lexicographically least
        path; None when src is down or dst is unreachable.

        Neighbours expand in sorted order and the first path to reach a
        node is kept, so within one level the frontier is in the
        lexicographic order of those paths.  Each source's search stops
        once dst is reached and resumes there for the next dst.
        """
        if not self.host_up.get(src):
            return None
        path = self.known.get((src, dst), _UNASKED)
        if path is not _UNASKED:
            return path
        tree = self._trees.get(src)
        if tree is None:
            tree = self._trees[src] = ({src: (src,)}, deque([src]))
        reached, frontier = tree
        while dst not in reached and frontier:
            node = frontier.popleft()
            for nxt in self.adj.get(node, ()):
                if nxt not in reached:
                    reached[nxt] = reached[node] + (nxt,)
                    frontier.append(nxt)
        path = self.known[src, dst] = reached.get(dst)
        return path


def neighbors(world, hid: str) -> list:
    return list(world.routes().adj.get(hid, ()))


def shortest_path(world, src: str, dst: str) -> Optional[list]:
    """Fewest hops over up links; ties to the lexicographically least path."""
    path = world.routes().path(src, dst)
    return None if path is None else list(path)


def nearest_full_neighbor(world, src: str) -> Optional[str]:
    """Closest reachable full-tier host, by (hops, id)."""
    cands = []
    for hid in sorted(world.hosts):
        if hid == src or world.hosts[hid].desc.tier is not HostTier.FULL:
            continue
        path = shortest_path(world, src, hid)     # None when hid is down
        if path is not None:
            cands.append((len(path) - 1, hid))
    return min(cands)[1] if cands else None


def route(world, src: str, dst: str) -> Optional[list]:
    """Routing service; returns the path, or None when dst is unreachable.

    Sensor-class hosts know only their direct neighbourhood and delegate
    anything further to the nearest full host.  A down host routes nothing.
    """
    desc = world.hosts[src].desc
    if (desc.tier is HostTier.LIGHT_MIN and desc.up and dst != src
            and dst not in neighbors(world, src)):
        delegate = nearest_full_neighbor(world, src)
        if delegate is None:
            raise ServiceUnavailable(Service.ROUTING.value)
        world.trace(src, "NET",
                    f"op=delegate to={delegate} what=route dst={dst}")
    return shortest_path(world, src, dst)


# -- services --------------------------------------------------------------

def service_call(world, host_id: str, service: Service, request: Any = None):
    host = world.hosts[host_id]
    if not host.desc.up:
        raise Unreachable(f"host {host_id} is down")
    if service not in SERVICE_MATRIX[host.desc.tier]:
        raise ServiceUnavailable(
            service.value, delegate_hint=nearest_full_neighbor(world, host_id))
    if service is Service.CONTEXT_ACCESS:
        return host.store.query(request, world.now)
    if service is Service.CONTEXT_DISTANT:
        remote_id, query = request
        if remote_id not in world.hosts:
            raise Unreachable(f"unknown host {remote_id}")
        if route(world, host_id, remote_id) is None:
            raise Unreachable(f"{remote_id} unreachable from {host_id}")
        world.trace(host_id, "NET",
                    f"op=query to={remote_id} what=context")
        return world.hosts[remote_id].store.query(query, world.now)
    if service is Service.ROUTING:
        return route(world, host_id, request)
    return None                         # Persistence stores nothing


# -- event emission (flow C) -----------------------------------------------

def emit_event(world, e: PlatformEvent, from_host: str) -> int:
    """Deliver a platform event to every listener on an up host that
    `from_host` reaches; returns count."""
    delivered = 0
    for hid in sorted(world.hosts):
        host = world.hosts[hid]
        if not host.desc.up or route(world, from_host, hid) is None:
            continue
        for cid in sorted(host.containers):
            c = host.containers[cid]
            if c.descriptor.listener and c.deliver_event(e):
                delivered += 1
                world.trace(hid, "EVT",
                            f"event={e.kind.value} prio={e.priority} "
                            f"listener={cid}")
    return delivered


# -- command execution -----------------------------------------------------

def apply_now(world, cmd, origin: str = "platform") -> CommandResult:
    """Run one command atomically: a command that aborts leaves the
    runtime as it found it."""
    # a Move to the component's own host changes no registry
    stays = (isinstance(cmd, Move)
             and world.component_host.get(cmd.component) == cmd.target)
    _, connectors, hosts = scope = _scope(world, cmd)
    checkpoint = world.runtime_snapshot(*scope)
    try:
        _execute(world, cmd)
    except _Abort as a:
        world.runtime_restore(checkpoint)
        result = aborted(a.reason)
    except Exception as exc:     # defensive: never leave a half-applied step
        world.runtime_restore(checkpoint)
        result = aborted(f"internal: {exc!r}")
    else:
        if not stays:
            world.model_version += 1
        result = APPLIED
    if not stays:               # the checkpoint scope is the change set
        world.drop_memos(hosts, connectors)
    world.trace(world.coordinator_host or "-", "CMD",
                f"cmd={_cmd_name(cmd)} {_cmd_args(cmd)} "
                f"result={result.status}"
                + (f" reason={result.reason}" if result.reason else "")
                + f" origin={origin}")
    return result


def _cmd_name(cmd) -> str:
    return type(cmd).__name__


def _cmd_args(cmd) -> str:
    if isinstance(cmd, Add):
        return f"comp={cmd.descriptor.id} host={cmd.host}"
    if isinstance(cmd, Remove):
        return f"comp={cmd.component}"
    if isinstance(cmd, Move):
        return f"comp={cmd.component} target={cmd.target}"
    if isinstance(cmd, Connect):
        return f"conn={cmd.connector} src={cmd.source}"
    if isinstance(cmd, Disconnect):
        return f"conn={cmd.connector}"
    if isinstance(cmd, ReplaceBusiness):
        what = cmd.behavior or cmd.tier
        return f"comp={cmd.component} to={what}"
    return ""


def _find_component(world, cid: str):
    hid = world.host_of(cid)
    if hid is None:
        return None, None
    return hid, world.hosts[hid].containers[cid]


def _start_if_ready(world, hid, c) -> bool:
    """The causal-connection rule, applied wherever a container is written:
    a Connected container, or a Stopped one with no fault (a Disconnect
    stopped it), with every port bound on an up host starts running.  A
    container a fault stopped stays stopped.  Returns whether it
    started."""
    if ((c.lifecycle is Lifecycle.CONNECTED
         or c.lifecycle is Lifecycle.STOPPED and c.fault is None)
            and c.all_ports_bound() and world.hosts[hid].desc.up):
        c.transition(Lifecycle.RUNNING)
        return True
    return False


def _bound_connectors(c: ContainerInstance) -> list:
    """The connectors touching a container, by id: Connect binds every
    endpoint of a connector and Disconnect unbinds them all."""
    bound = {k.id: k for k in (*c.input_bindings.values(),
                               *c.output_bindings.values())}
    return [bound[kid] for kid in sorted(bound)]


def _scope(world, cmd) -> tuple:
    """(component ids, connector ids, host ids) that a command can touch:
    the components it names, the connectors bound to them and the one it
    names, the components' current hosts and its target host."""
    hosts = []
    if isinstance(cmd, Add):
        cids, hosts = [cmd.descriptor.id], [cmd.host]
    elif isinstance(cmd, Move):
        cids, hosts = [cmd.component], [cmd.target]
    elif isinstance(cmd, (Remove, ReplaceBusiness)):
        cids = [cmd.component]
    elif isinstance(cmd, Connect):
        cids = [ep.component for ep in (cmd.source, *cmd.sinks)]
    elif isinstance(cmd, Disconnect) and cmd.connector in world.connectors:
        k = world.connectors[cmd.connector]
        cids = [ep.component for ep in (k.source, *k.sinks)]
    else:
        cids = []
    kids = [cmd.connector] if isinstance(cmd, (Connect, Disconnect)) else []
    for cid in cids:
        hid, c = _find_component(world, cid)
        if c is not None:
            hosts.append(hid)
            kids += [k.id for k in _bound_connectors(c)]
    return (list(dict.fromkeys(cids)), list(dict.fromkeys(kids)),
            [hid for hid in dict.fromkeys(hosts) if hid in world.hosts])


def _execute(world, cmd) -> None:
    if isinstance(cmd, Add):
        _exec_add(world, cmd)
    elif isinstance(cmd, Remove):
        _exec_remove(world, cmd)
    elif isinstance(cmd, Move):
        _exec_move(world, cmd)
    elif isinstance(cmd, Connect):
        _exec_connect(world, cmd)
    elif isinstance(cmd, Disconnect):
        _exec_disconnect(world, cmd)
    elif isinstance(cmd, ReplaceBusiness):
        _exec_replace(world, cmd)
    else:
        raise _Abort(f"unknown command {type(cmd).__name__}")


def _exec_add(world, cmd: Add) -> None:
    if cmd.host not in world.hosts:
        raise _Abort(f"unknown host {cmd.host}")
    host = world.hosts[cmd.host]
    if not host.desc.up:
        raise _Abort("host down")
    cid = cmd.descriptor.id
    if _find_component(world, cid)[0] is not None:
        raise _Abort("duplicate")
    tier = host.desc.tier.value
    variant = cmd.descriptor.variant_for(tier)
    if variant is None:
        raise _Abort(f"no variant for {tier}")
    c = ContainerInstance(cmd.descriptor, variant)
    c.transition(Lifecycle.CONNECTED)
    host.containers[cid] = c
    world.component_host[cid] = cmd.host
    world.descriptors[cid] = cmd.descriptor
    _start_if_ready(world, cmd.host, c)


def _exec_remove(world, cmd: Remove) -> None:
    hid, c = _find_component(world, cmd.component)
    if c is None:
        raise _Abort(f"unknown component {cmd.component}")
    if _bound_connectors(c):
        raise _Abort("in use")
    if c.lifecycle is Lifecycle.RUNNING:
        c.transition(Lifecycle.STOPPED)
    if c.lifecycle is Lifecycle.STOPPED:
        c.transition(Lifecycle.DESTROYED)
    elif c.lifecycle is Lifecycle.CONNECTED:
        c.transition(Lifecycle.DESTROYED)
    del world.hosts[hid].containers[cmd.component]
    del world.component_host[cmd.component]
    world.descriptors.pop(cmd.component, None)


def _exec_move(world, cmd: Move) -> None:
    if cmd.target not in world.hosts:
        raise _Abort(f"unknown host {cmd.target}")
    target = world.hosts[cmd.target]
    if not target.desc.up:
        raise _Abort("host down")
    src_hid, c = _find_component(world, cmd.component)
    if c is None:
        raise _Abort(f"unknown component {cmd.component}")
    tier = target.desc.tier.value
    variant = c.descriptor.variant_for(tier)
    if variant is None:
        raise _Abort(f"no variant for {tier}")
    if src_hid == cmd.target:
        return
    conns = _bound_connectors(c)
    new = ContainerInstance(c.descriptor, variant)
    residues: dict = {}
    path = None
    if world.hosts[src_hid].desc.up:
        path = shortest_path(world, src_hid, cmd.target)
        if path is None:
            raise _Abort("unreachable")
        if c.lifecycle is Lifecycle.RUNNING:
            c.transition(Lifecycle.STOPPED)
        if c.lifecycle is Lifecycle.STOPPED:
            c.transition(Lifecycle.MIGRATING)
        # commands run between ticks, so no push or pull races the drain
        for k in conns:
            for sink, samples in k.drain().items():
                if samples:
                    residues[(k.id, sink)] = samples
        new.restore(c.snapshot())
    new.transition(Lifecycle.CONNECTED)
    # carry the flow bindings to the new container
    for k in conns:
        if k.source.component == cmd.component:
            new.bind(k.source.port, k)
        for s in k.sinks:
            if s.component == cmd.component:
                new.bind(s.port, k)
    for (kid, sink), samples in sorted(
            residues.items(), key=lambda t: (t[0][0], str(t[0][1]))):
        world.connectors[kid].refill(sink, samples, world.now)
    _start_if_ready(world, cmd.target, new)
    if path is not None:
        world.trace(src_hid, "NET",
                    f"op=transfer comp={cmd.component} to={cmd.target} "
                    f"hops={len(path) - 1}")
    # nothing below can fail, so a rollback never re-inserts a key
    del world.hosts[src_hid].containers[cmd.component]
    target.containers[cmd.component] = new
    world.component_host[cmd.component] = cmd.target


def _exec_connect(world, cmd: Connect) -> None:
    if cmd.connector in world.connectors:
        raise _Abort("duplicate")
    src_hid, src_c = _find_component(world, cmd.source.component)
    if src_c is None:
        raise _Abort(f"unknown component {cmd.source.component}")
    if cmd.source.port not in src_c.descriptor.out_ports:
        raise _Abort(f"unknown port {cmd.source}")
    if cmd.source.port in src_c.output_bindings:
        raise _Abort("port in use")
    sinks = []
    for i, s in enumerate(cmd.sinks):
        hid, c = _find_component(world, s.component)
        if c is None:
            raise _Abort(f"unknown component {s.component}")
        if s.port not in c.descriptor.in_ports:
            raise _Abort(f"unknown port {s}")
        if s.port in c.input_bindings or s in cmd.sinks[:i]:
            raise _Abort("port in use")
        sinks.append((s, hid, c))
    k = world.make_connector(cmd.connector, cmd.source, list(cmd.sinks),
                             cmd.policy)
    world.connectors[cmd.connector] = k
    src_c.bind(cmd.source.port, k)
    for s, _, c in sinks:
        c.bind(s.port, k)
    for _, hid, c in [(cmd.source, src_hid, src_c), *sinks]:
        _start_if_ready(world, hid, c)


def _exec_disconnect(world, cmd: Disconnect) -> None:
    k = world.connectors.get(cmd.connector)
    if k is None:
        raise _Abort(f"unknown connector {cmd.connector}")
    endpoints = [k.source] + list(k.sinks)
    for ep in endpoints:
        hid, c = _find_component(world, ep.component)
        if c is None:
            continue
        c.unbind(ep.port)
        if c.lifecycle is Lifecycle.RUNNING and not c.all_ports_bound():
            c.transition(Lifecycle.STOPPED)
            _start_if_ready(world, hid, c)
    del world.connectors[cmd.connector]


def _exec_replace(world, cmd: ReplaceBusiness) -> None:
    hid, c = _find_component(world, cmd.component)
    if c is None:
        raise _Abort(f"unknown component {cmd.component}")
    if cmd.tier is not None:
        variant = c.descriptor.variant_for(cmd.tier)
        if variant is None:
            raise _Abort(f"no variant for {cmd.tier}")
        c.set_variant(variant)
    elif cmd.behavior is not None:
        if cmd.behavior not in behaviors.known():
            raise _Abort("unknown behavior")
        c.set_variant(dc_replace(c.active_variant, behavior=cmd.behavior))
    else:
        raise _Abort("empty replacement")
    c.state = None
    _start_if_ready(world, hid, c)
