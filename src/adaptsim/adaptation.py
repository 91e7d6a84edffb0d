"""Observation, QoS evaluation, placement selection and the control loop.

One coordinator (on a full-tier host) periodically aggregates context from
every reachable host, scores the deployment, and reacts according to the
active adaptation mode: report only, alert the application, reconfigure
directly, or alert first and reconfigure after a grace period.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from . import kernel
from .container import EventKind, Lifecycle, PlatformEvent
from .context import (ContextInformation, ContextNature, Location, Quantity,
                      stamp)
from .kernel import ArchitectureModel, Move

EXHAUSTIVE_LIMIT = 10_000
AFFECTED_SCORE_FLOOR = 0.5
QOS_THRESHOLD = 0.7                 # a global score below it triggers a cycle
QOS_WEIGHTS = (0.4, 0.4, 0.2)       # resource, link, battery
GRACE = 10                          # M4: ticks the application gets to react


@dataclass
class HostObs:
    up: bool
    cpu_free: float
    mem_free: float
    battery: Optional[float]            # None when on mains


@dataclass
class LinkObs:
    up: bool
    bandwidth: float
    bw_free: float


@dataclass
class Observation:
    at: int
    hosts: dict = field(default_factory=dict)        # id -> HostObs
    links: dict = field(default_factory=dict)        # frozenset -> LinkObs
    # the world's routes narrowed to the up hosts above, or, for an
    # observation made by hand, routes built from them on first use
    routes: Optional[kernel.Routes] = None


@dataclass
class QoSReport:
    resource: dict              # component id -> r in [0, 1]
    link: dict                  # connector id -> l in [0, 1]
    battery: float
    global_score: float
    at: int


class Infeasible:
    """No placement gives every affected component an up, compatible host."""

    def __repr__(self):
        return "Infeasible"


INFEASIBLE = Infeasible()


@dataclass
class DeploymentPlan:
    commands: list              # of ReconfigurationCommand
    expected_qos: float
    assignment: dict            # affected component id -> host id


@dataclass
class CycleOutcome:
    kind: str                   # NoAction | EventsEmitted | PlanApplied | PlanDeferred
    events: int = 0
    plan: Optional[DeploymentPlan] = None


# -- observation -----------------------------------------------------------

def observe(world, now: int) -> Observation:
    """Aggregate every host's local context into one snapshot.

    Unreachable hosts appear down, with nothing free; every reader checks
    `up` before the other fields.
    """
    coord = world.coordinator_host
    routes = world.routes()
    obs = Observation(at=now)
    for hid in sorted(world.hosts):
        host = world.hosts[hid]
        reachable = host.desc.up and (
            coord is None or routes.path(coord, hid) is not None)
        if not reachable:
            obs.hosts[hid] = HostObs(up=False, cpu_free=0.0, mem_free=0.0,
                                     battery=None)
            continue
        load_cpu = load_mem = 0.0
        for c in host.containers.values():
            if c.lifecycle is Lifecycle.RUNNING:
                load_cpu += c.active_variant.cpu_demand
                load_mem += c.active_variant.mem_demand
        battery = host.desc.power.level if host.desc.power else None
        obs.hosts[hid] = HostObs(up=True,
                                 cpu_free=host.desc.cpu_capacity - load_cpu,
                                 mem_free=host.desc.mem_capacity - load_mem,
                                 battery=battery)
    for pair in sorted(world.links, key=sorted):
        link = world.links[pair]
        obs.links[pair] = LinkObs(up=link.up, bandwidth=link.bandwidth,
                                  bw_free=link.bandwidth)
    # the up hosts are the coordinator's connected part of the world's up
    # hosts (all of them without a coordinator), so the view is exact
    obs.routes = routes.view({hid: ho.up for hid, ho in obs.hosts.items()})
    # subtract flow demand along each connector's current route
    for kid in sorted(world.connectors):
        k = world.connectors[kid]
        src = world.host_of(k.source.component)
        for sink in k.sinks:
            dst = world.host_of(sink.component)
            if src is None or dst is None or src == dst:
                continue
            path = _obs_path(obs, src, dst)
            if path is None:
                continue
            for a, b in zip(path, path[1:]):
                obs.links[frozenset((a, b))].bw_free -= k.policy.bw_demand
    return obs


def _obs_routes(obs: Observation) -> kernel.Routes:
    if obs.routes is None:
        obs.routes = kernel.Routes(
            {hid: ho.up for hid, ho in obs.hosts.items()}, obs.links)
    return obs.routes


def _obs_path(obs: Observation, src: str, dst: str) -> Optional[list]:
    """Fewest-hop path over the observation's up hosts and links."""
    if src == dst:
        return [src]
    path = _obs_routes(obs).path(src, dst)
    return None if path is None else list(path)


# -- QoS heuristic ---------------------------------------------------------

def _demands(descriptors, cid: str, tier: str):
    v = descriptors[cid].variant_for(tier)
    return (v.cpu_demand, v.mem_demand) if v else (0.0, 0.0)


def _fit(cpu_free: float, mem_free: float, cpu_d: float,
         mem_d: float) -> float:
    """Resource term: how many times the demands still fit into the free
    capacity, capped at 1."""
    fit = 1.0
    if cpu_d > 0:
        fit = min(fit, cpu_free / cpu_d)
    if mem_d > 0:
        fit = min(fit, mem_free / mem_d)
    return max(0.0, min(1.0, fit))


def _link_fit(routes: kernel.Routes, links: dict, src: str, dsts: list,
              bw_demand: float) -> float:
    """Link term: the bottleneck bandwidth margin over the routes from src
    to each of dsts (1 when all are local, 0 when one is unreachable)."""
    score = 1.0
    for dst in dsts:
        if dst == src:
            continue
        path = routes.path(src, dst)
        if path is None:
            return 0.0
        if bw_demand > 0:
            for a, b in zip(path, path[1:]):
                score = min(score, max(0.0, min(
                    1.0, links[frozenset((a, b))].bw_free / bw_demand)))
        if score == 0.0:
            return score
    return score


def _mean(terms) -> float:
    """The mean of a list of terms, 1 when there are none."""
    return sum(terms) / len(terms) if terms else 1.0


def _global_score(resource, link, battery: float) -> float:
    w_r, w_l, w_b = QOS_WEIGHTS
    return w_r * _mean(resource) + w_l * _mean(link) + w_b * battery


def _report(model: ArchitectureModel, obs: Observation, resource: dict,
            link: dict) -> QoSReport:
    """The report of these resource and link terms, with the battery term
    read from `obs`: the worst level among the up battery-powered hosts in
    use, 1 when there is none.  An empty model scores 1."""
    if not model.components:
        return QoSReport({}, {}, 1.0, 1.0, obs.at)
    used = {mc.host for mc in model.components.values()}
    levels = [obs.hosts[h].battery for h in used
              if obs.hosts.get(h) and obs.hosts[h].up
              and obs.hosts[h].battery is not None]
    battery = min(levels) if levels else 1.0
    g = _global_score(resource.values(), link.values(), battery)
    return QoSReport(resource, link, battery, g, obs.at)


def evaluate_qos(model: ArchitectureModel, obs: Observation,
                 descriptors) -> QoSReport:
    """Score the deployment: resource fit, link fit, battery margin.

    Per component, fit is how many times its demands still fit into the
    host's free capacity, capped at 1 (0 when the host is down).  Per
    connector, the bottleneck link's bandwidth margin (1 when fully local,
    0 when the route is broken).  Battery: see `_report`.
    """
    resource = {}
    for cid in sorted(model.components):
        mc = model.components[cid]
        ho = obs.hosts.get(mc.host)
        resource[cid] = (
            _fit(ho.cpu_free, ho.mem_free,
                 *_demands(descriptors, cid, mc.tier))
            if ho is not None and ho.up else 0.0)
    link = {}
    for kid in sorted(model.connectors):
        mk = model.connectors[kid]
        src_c = model.components.get(mk.source.component)
        hosts = [model.components[s.component].host for s in mk.sinks
                 if s.component in model.components]
        link[kid] = (
            0.0 if src_c is None or len(hosts) < len(mk.sinks)
            else _link_fit(_obs_routes(obs), obs.links, src_c.host, hosts,
                           mk.policy.bw_demand))
    return _report(model, obs, resource, link)


# -- placement search ------------------------------------------------------

def affected_components(model: ArchitectureModel, report: QoSReport,
                        obs: Observation) -> list:
    """Components worth re-placing: dead hosts, starved resources, or
    endpoints of throttled connectors."""
    hit = set()
    for cid, mc in model.components.items():
        ho = obs.hosts.get(mc.host)
        if ho is None or not ho.up:
            hit.add(cid)
        elif report.resource.get(cid, 1.0) < AFFECTED_SCORE_FLOOR:
            hit.add(cid)
    for kid, score in report.link.items():
        if score < AFFECTED_SCORE_FLOOR:
            mk = model.connectors[kid]
            hit.add(mk.source.component)
            hit.update(s.component for s in mk.sinks)
    return sorted(h for h in hit if h in model.components)


def select_deployment(model: ArchitectureModel, obs: Observation,
                      descriptors, host_tiers: dict,
                      report: Optional[QoSReport] = None):
    """Choose the best re-placement of the affected components.

    Exhaustive over all candidate assignments when the space is small,
    greedy single-move hill climbing otherwise.  Ties fall to the fewest
    moves, then the lexicographically least assignment.  Returns a
    DeploymentPlan, INFEASIBLE when some component has no candidate host,
    or None when nothing is affected.
    """
    if report is None:
        report = evaluate_qos(model, obs, descriptors)
    affected = affected_components(model, report, obs)
    if not affected:
        return None
    candidates = {}
    for cid in affected:
        desc = descriptors[cid]
        cands = []
        for hid in sorted(obs.hosts):
            if not obs.hosts[hid].up:
                continue
            tier = host_tiers[hid]
            if desc.variant_for(tier) is not None:
                cands.append(hid)
        if not cands:
            return INFEASIBLE
        candidates[cid] = cands

    cache = _ScoreCache(model, obs, descriptors, report, affected,
                        candidates, host_tiers)

    def rank(assignment):
        """Sort key: the highest score, then the fewest moves, then the
        lexicographically least assignment."""
        moves = sum(1 for cid, hid in assignment.items()
                    if model.components[cid].host != hid)
        return (-_score_assignment(cache, assignment), moves,
                tuple(sorted(assignment.items())))

    def best(assignments):
        """(rank, assignment) of the first in rank order, None if none."""
        return min(((rank(a), a) for a in assignments),
                   key=lambda ranked: ranked[0], default=None)

    space = 1
    for cid in affected:
        space *= len(candidates[cid])
    if space <= EXHAUSTIVE_LIMIT:
        key, assignment = best(
            dict(zip(affected, combo)) for combo in
            itertools.product(*(candidates[c] for c in affected)))
        best_score = -key[0]
    else:
        assignment = {}
        for cid in affected:
            cur = model.components[cid].host
            assignment[cid] = cur if cur in candidates[cid] \
                else candidates[cid][0]
        best_score = _score_assignment(cache, assignment)
        while True:
            step = best({**assignment, cid: hid} for cid in affected
                        for hid in candidates[cid] if hid != assignment[cid])
            if step is None or -step[0][0] <= best_score:
                break
            key, assignment = step
            best_score = -key[0]
    commands = [Move(cid, hid) for cid, hid in sorted(assignment.items())
                if model.components[cid].host != hid]
    return DeploymentPlan(commands=commands, expected_qos=best_score,
                          assignment=assignment)


class _ScoreCache:
    """The cycle's report with the affected components lifted off their
    hosts, kept term by term in `evaluate_qos`'s sorted-id order.

    Holds each host's free capacity, the resource term of every unaffected
    component, the link term of every connector with no affected endpoint,
    and the lowest battery level among the hosts unaffected components use.
    A candidate assignment can change none of these but the resource terms
    on the hosts it charges, so `_score_assignment` recomputes only those,
    the affected components' own terms and the link terms of connectors
    with an affected endpoint.
    """

    def __init__(self, model, obs, descriptors, report, affected,
                 candidates, host_tiers):
        self.model = model
        self.routes = _obs_routes(obs)
        self.links = obs.links
        comps = model.components
        moved = set(affected)
        self.free = {hid: (ho.cpu_free, ho.mem_free)
                     for hid, ho in obs.hosts.items()}
        left = set()                    # up hosts an affected component left
        for cid in affected:
            mc = comps[cid]
            ho = obs.hosts.get(mc.host)
            if ho is not None and ho.up:
                cpu_d, mem_d = _demands(descriptors, cid, mc.tier)
                cpu, mem = self.free[mc.host]
                self.free[mc.host] = (cpu + cpu_d, mem + mem_d)
                left.add(mc.host)
        # candidate (component, host) -> demands of the host's tier
        self.demand = {(cid, hid): _demands(descriptors, cid, host_tiers[hid])
                       for cid in affected for hid in candidates[cid]}
        # The report's terms carry over: a link term does not read free
        # capacity, and a host no affected component left keeps its free
        # capacity, so only the residents of the hosts in `left` change.
        self.slot = {}                  # affected component -> term index
        self.residents = {}             # host -> [(term index, demands)]
        self.resource = list(report.resource.values())
        for i, cid in enumerate(report.resource):
            mc = comps[cid]
            if cid in moved:
                self.slot[cid] = i
                self.resource[i] = 0.0
                continue
            demand = _demands(descriptors, cid, mc.tier)
            self.residents.setdefault(mc.host, []).append((i, demand))
            if mc.host in left:
                self.resource[i] = _fit(*self.free[mc.host], *demand)
        self.touched = []               # (term index, endpoints, demand)
        self.link = list(report.link.values())
        for i, kid in enumerate(report.link):
            mk = model.connectors[kid]
            ends = [mk.source.component] + [s.component for s in mk.sinks]
            if all(c in comps for c in ends) and not moved.isdisjoint(ends):
                self.touched.append((i, ends, mk.policy.bw_demand))
        self.levels = {hid: ho.battery for hid, ho in obs.hosts.items()
                       if ho.up and ho.battery is not None}
        used = {mc.host for cid, mc in comps.items() if cid not in moved}
        self.battery = min((self.levels[h] for h in used
                            if h in self.levels), default=None)


def _score_assignment(cache: _ScoreCache, assignment: dict) -> float:
    """The global score `evaluate_qos` gives the deployment with each
    affected component on its assigned host, at that host's tier, charged
    to that host's free capacity.  Every assigned host is up."""
    free = {}
    for cid, hid in assignment.items():
        cpu_d, mem_d = cache.demand[cid, hid]
        cpu, mem = free[hid] if hid in free else cache.free[hid]
        free[hid] = (cpu - cpu_d, mem - mem_d)
    resource = list(cache.resource)
    for hid, (cpu, mem) in free.items():
        for i, demand in cache.residents.get(hid, ()):
            resource[i] = _fit(cpu, mem, *demand)
    for cid, hid in assignment.items():
        resource[cache.slot[cid]] = _fit(*free[hid], *cache.demand[cid, hid])
    link = list(cache.link)
    comps = cache.model.components
    for i, ends, bw_demand in cache.touched:
        hosts = [assignment[c] if c in assignment else comps[c].host
                 for c in ends]
        link[i] = _link_fit(cache.routes, cache.links, hosts[0], hosts[1:],
                            bw_demand)
    battery = cache.battery
    for hid in free:
        level = cache.levels.get(hid)
        if level is not None and (battery is None or level < battery):
            battery = level
    return _global_score(resource, link, 1.0 if battery is None else battery)


# -- control loop ----------------------------------------------------------

class Coordinator:
    """Evolution/adaptation manager pair living on one full-tier host."""

    def __init__(self, host_id: str, mode: str = "M3"):
        if mode not in ("M1", "M2", "M3", "M4"):
            raise ValueError(f"unknown adaptation mode {mode}")
        self.host = host_id
        self.mode = mode
        # how far the platform may step in; no descriptor sets it
        self.intrusion = kernel.IntrusionLevel.OPEN
        self.alert_since: Optional[int] = None
        self.infeasible_outstanding = False
        # (key, observation, report) of the last full scoring, where key is
        # (world, coordinator host, model version, topology version); kept
        # to itself: a cycle hands out copies of its dicts
        self._scored: Optional[tuple] = None

    def _observe_and_score(self, world, now: int) -> tuple:
        """The cycle's observation and report.

        They are observed and scored in full once per world, coordinator
        host, model version and topology version.  Nothing else they read
        moves but the batteries, which move every tick and with no version
        (a BatterySet can give a mains host one), so every cycle re-reads
        each reachable host's battery and the battery term.
        """
        key = (world, world.coordinator_host, world.model_version,
               world.topology_version)
        if self._scored is None or self._scored[0] != key:
            obs = observe(world, now)
            self._scored = (key, obs, evaluate_qos(world.model, obs,
                                                   world.descriptors))
        _, last_obs, last = self._scored
        hosts = {}
        for hid, ho in last_obs.hosts.items():
            if ho.up:
                power = world.hosts[hid].desc.power
                ho = HostObs(True, ho.cpu_free, ho.mem_free,
                             power.level if power else None)
            hosts[hid] = ho
        obs = Observation(now, hosts, dict(last_obs.links), last_obs.routes)
        return obs, _report(world.model, obs, dict(last.resource),
                            dict(last.link))

    def run_cycle(self, world, now: int) -> CycleOutcome:
        obs, report = self._observe_and_score(world, now)
        world.last_qos = report
        world.trace(self.host, "QOS",
                    f"global={report.global_score:.4f} "
                    f"rmean={_mean(report.resource.values()):.4f} "
                    f"lmean={_mean(report.link.values()):.4f} "
                    f"b={report.battery:.4f}")
        self._store_report(world, report, now)
        triggered = (report.global_score < QOS_THRESHOLD
                     or self._hard_violation(world.model, report, obs))
        if not triggered:
            self.alert_since = None
            self.infeasible_outstanding = False
            return CycleOutcome("NoAction")
        if self.mode == "M1":
            return CycleOutcome("NoAction")
        if self.mode == "M2":
            n = self._alert(world, report)
            return CycleOutcome("EventsEmitted", events=n)
        if self.mode == "M3":
            return self._plan_and_apply(world, obs, report)
        # M4: alert first, reconfigure only after the grace window
        n = self._alert(world, report)
        if self.alert_since is None:
            self.alert_since = now
        if now - self.alert_since >= GRACE:
            out = self._plan_and_apply(world, obs, report)
            if out.kind == "PlanApplied":
                self.alert_since = None
            out.events = n
            return out
        return CycleOutcome("EventsEmitted", events=n)

    def _alert(self, world, report: QoSReport) -> int:
        e = PlatformEvent(kind=EventKind.QOS_ALERT, payload=report,
                          priority=7)
        return kernel.emit_event(world, e, self.host)

    def _hard_violation(self, model, report, obs) -> bool:
        for cid, mc in model.components.items():
            ho = obs.hosts.get(mc.host)
            if ho is None or not ho.up:
                return True
        return any(v == 0.0 for v in report.link.values())

    def _plan_and_apply(self, world, obs, report) -> CycleOutcome:
        host_tiers = {hid: world.hosts[hid].desc.tier.value
                      for hid in world.hosts}
        plan = select_deployment(world.model, obs, world.descriptors,
                                 host_tiers, report=report)
        if plan is INFEASIBLE:
            self.infeasible_outstanding = True
            world.trace(self.host, "CMD", "cmd=Plan result=Infeasible")
            return CycleOutcome("NoAction")
        self.infeasible_outstanding = False
        if plan is None or not plan.commands:
            return CycleOutcome("NoAction")
        deferred = False
        for cmd in plan.commands:
            stranded = (isinstance(cmd, Move) and
                        not world.hosts[
                            world.host_of(cmd.component) or cmd.target
                        ].desc.up)
            result = kernel.apply(world, cmd, forced=stranded)
            if result.status == "Deferred":
                deferred = True
            elif not result.applied:
                # retry next cycle with a fresh observation
                return CycleOutcome("NoAction")
        if deferred:
            return CycleOutcome("PlanDeferred", plan=plan)
        return CycleOutcome("PlanApplied", plan=plan)

    def _store_report(self, world, report: QoSReport, now: int) -> None:
        info = ContextInformation(
            nature=ContextNature.HARDWARE, key="qos.global",
            value=Quantity(report.global_score, ""), producer="adaptation")
        obj = stamp(info, now, Location(host=self.host),
                    owner="platform", base_confidence=1.0)
        world.hosts[self.host].store.put(obj)
