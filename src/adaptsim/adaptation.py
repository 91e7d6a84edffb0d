"""Observation, QoS evaluation, placement selection and the control loop.

One coordinator (on a full-tier host) periodically aggregates context from
every reachable host, scores the deployment, and reacts according to the
active adaptation mode: report only, alert the application, reconfigure
directly, or alert first and reconfigure after a grace period.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import add
from typing import Optional

from . import kernel
from .container import EventKind, Lifecycle, PlatformEvent
from .context import ContextNature
from .kernel import ArchitectureModel, Move

EXHAUSTIVE_LIMIT = 10_000           # scores and bounds per placement search
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
    means: tuple                # `_mean` of the resource, of the link terms


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
    kind: str                   # NoAction | EventsEmitted | PlanApplied
    events: int = 0
    plan: Optional[DeploymentPlan] = None


# -- observation -----------------------------------------------------------

def observe(world, now: int) -> Observation:
    """Aggregate every host's local context into one snapshot.

    Unreachable hosts appear down, with nothing free; every reader checks
    `up` before the other fields.
    """
    routes = world.routes()
    reachable = _reachable(world, routes)
    obs = Observation(at=now)
    for hid in sorted(world.hosts):
        obs.hosts[hid] = _host_obs(world, hid, reachable[hid])
    for pair in sorted(world.links, key=sorted):
        obs.links[pair] = _link_obs(world.links[pair])
    # the up hosts are the coordinator's connected part of the world's up
    # hosts (all of them without a coordinator), so the view is exact
    obs.routes = routes.view({hid: ho.up for hid, ho in obs.hosts.items()})
    # subtract flow demand along each connector's current route
    _charge(obs.links, ((demand, _obs_path(obs, src, dst)) for _, demand,
                        src, dst in _flow_ends(world.connectors,
                                               world.host_of)))
    return obs


def _reachable(world, routes: kernel.Routes) -> dict:
    """Host id -> whether the host is up and the coordinator reaches it
    over `routes`; without a coordinator, whether it is up."""
    coord, path = world.coordinator_host, routes.path
    return {hid: host.desc.up and (coord is None
                                   or path(coord, hid) is not None)
            for hid, host in world.hosts.items()}


def _host_obs(world, hid: str, reachable: bool) -> HostObs:
    """A host's capacity less its running containers' demands, added in
    firing order, and its battery; nothing free when unreachable."""
    if not reachable:
        return HostObs(up=False, cpu_free=0.0, mem_free=0.0, battery=None)
    host = world.hosts[hid]
    load_cpu = load_mem = 0.0
    for _, c, _ in world.firing_order(hid):
        if c.lifecycle is Lifecycle.RUNNING:
            load_cpu += c.active_variant.cpu_demand
            load_mem += c.active_variant.mem_demand
    battery = host.desc.power.level if host.desc.power else None
    return HostObs(up=True, cpu_free=host.desc.cpu_capacity - load_cpu,
                   mem_free=host.desc.mem_capacity - load_mem,
                   battery=battery)


def _flow_ends(connectors: dict, host_of):
    """((connector id, sink index), bandwidth demand, source host, sink
    host) of each connector's flow to each of its sinks on another host,
    in connector id, then sink order.  `connectors` holds connectors or
    their model entries, and `host_of` maps a component id to its host,
    None when it has none."""
    for kid in sorted(connectors):
        k = connectors[kid]
        src = host_of(k.source.component)
        for i, sink in enumerate(k.sinks):
            dst = host_of(sink.component)
            if src is not None and dst is not None and src != dst:
                yield (kid, i), k.policy.bw_demand, src, dst


def _hops(path) -> list:
    """The endpoint pairs of the links a host path crosses, in order; none
    for no path."""
    return [frozenset(hop) for hop in zip(path, path[1:])] if path else []


def _link_obs(link) -> LinkObs:
    """A link with no flow charged to it yet."""
    return LinkObs(up=link.up, bandwidth=link.bandwidth,
                   bw_free=link.bandwidth)


def _charge(links: dict, flows) -> None:
    """Subtract the demand of each of `flows`, (demand, host path or None)
    pairs in `_flow_ends` order, from the `bw_free` of each link in
    `links` that its path crosses.  Each link's `bw_free` comes out the
    same float however many other links `links` holds."""
    for demand, path in flows:
        for hop in zip(path, path[1:]) if path else ():
            lo = links.get(frozenset(hop))
            if lo is not None:
                lo.bw_free -= demand


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
    """The mean of a list of terms, 1 when there are none.  The terms are
    added left to right, so raising one never lowers the mean: from Python
    3.12 on `sum` compensates (Neumaier, gh-100425), which is not
    monotone."""
    return reduce(add, terms, 0.0) / len(terms) if terms else 1.0


def _global_score(rmean: float, lmean: float, battery: float) -> float:
    w_r, w_l, w_b = QOS_WEIGHTS
    return w_r * rmean + w_l * lmean + w_b * battery


def _in_use(model: ArchitectureModel, obs: Observation) -> list:
    """The up hosts of `obs` that the model's components run on, in id
    order."""
    return sorted({mc.host for mc in model.components.values()
                   if mc.host in obs.hosts and obs.hosts[mc.host].up})


def _report(model: ArchitectureModel, at: int, resource: dict, link: dict,
            means: tuple, levels: list) -> QoSReport:
    """The report of these resource and link terms, whose `_mean`s are
    `means`, with the battery term the worst of `levels`, those of the up
    battery-powered hosts in use, 1 when there is none.  An empty model
    scores 1."""
    if not model.components:
        return QoSReport({}, {}, 1.0, 1.0, at, (1.0, 1.0))
    battery = min(levels, default=1.0)
    return QoSReport(resource, link, battery,
                     _global_score(*means, battery), at, means)


def evaluate_qos(model: ArchitectureModel, obs: Observation,
                 descriptors) -> QoSReport:
    """Score the deployment: resource fit, link fit, battery margin.

    Per component, fit is how many times its demands still fit into the
    host's free capacity, capped at 1 (0 when the host is down).  Per
    connector, the bottleneck link's bandwidth margin (1 when fully local,
    0 when the route is broken).  Battery: see `_report`.
    """
    resource = {cid: _resource_term(model, obs, descriptors, cid)
                for cid in sorted(model.components)}
    link = {kid: _link_term(model, obs, kid)
            for kid in sorted(model.connectors)}
    levels = [obs.hosts[hid].battery for hid in _in_use(model, obs)]
    return _report(model, obs.at, resource, link,
                   (_mean(resource.values()), _mean(link.values())),
                   [level for level in levels if level is not None])


def _resource_term(model: ArchitectureModel, obs: Observation, descriptors,
                   cid: str) -> float:
    mc = model.components[cid]
    ho = obs.hosts.get(mc.host)
    return (_fit(ho.cpu_free, ho.mem_free,
                 *_demands(descriptors, cid, mc.tier))
            if ho is not None and ho.up else 0.0)


def _link_term(model: ArchitectureModel, obs: Observation,
               kid: str) -> float:
    mk = model.connectors[kid]
    src_c = model.components.get(mk.source.component)
    hosts = [model.components[s.component].host for s in mk.sinks
             if s.component in model.components]
    return (0.0 if src_c is None or len(hosts) < len(mk.sinks)
            else _link_fit(_obs_routes(obs), obs.links, src_c.host, hosts,
                           mk.policy.bw_demand))


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

    The plan is the highest-scoring assignment of each affected component
    to a candidate host, ties falling to the fewest moves, then the
    lexicographically least assignment, as far as `_depth_first` finds
    within its budget of EXHAUSTIVE_LIMIT nodes.
    Returns a DeploymentPlan, INFEASIBLE when some component has no
    candidate host, or None when nothing is affected.
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
    key, assignment = _depth_first(cache, affected, candidates)
    commands = [Move(cid, hid) for cid, hid in sorted(assignment.items())
                if model.components[cid].host != hid]
    return DeploymentPlan(commands=commands, expected_qos=-key[0],
                          assignment=assignment)


def _depth_first(cache, affected: list, candidates: dict):
    """(rank key, assignment) of the least rank key over the candidate
    assignments, as `min` over all of them would give, when the search
    ends within its budget; the least over those it ranked otherwise.

    An assignment's rank key is minus its `_score_assignment`, then its
    moves, then its sorted items.  The search places the components
    depth-first in `affected` order, which is sorted, each on its current
    host first when that is a candidate, then on its other candidates in
    sorted order, and ranks each complete assignment.  Before a node
    places a child (c, h), the child is cut when the least key any of its
    completions can have ranks after the best so far: minus the node's own
    `_bound`, the node's moves plus (h != the current host of c) plus the
    moves forced later (a component whose current host is no candidate),
    then the node's items followed by (c, h).  This holds because every
    completion of the child is one of the node, so it scores at most the
    node's bound, makes at least those moves, and its sorted items begin
    with that tuple.  No float margin: ties are common, and the bound
    holds for the computed floats.

    A node is bounded at most once, and only once a best exists.  Its
    children's least keys rise in the order they are placed, so once a
    child is cut, so is every later one, and a failover replan whose
    candidates all tie scores one assignment.

    The budget: the search stops once it has made EXHAUSTIVE_LIMIT calls
    of `_score_assignment` and `_bound` together; a bound that spends the
    last one places no child.  It bounds nothing before its first leaf,
    the assignment of fewest moves, so it always ranks that one.  The
    budget counts calls, not time, so the plan stays a pure function of
    the inputs.
    """
    comps = cache.model.components

    def moved(placed):
        return sum(1 for c, h in placed.items() if comps[c].host != h)
    orders = [sorted(candidates[c], key=lambda h, c=c: h != comps[c].host)
              for c in affected]
    forced = [sum(comps[c].host not in candidates[c] for c in affected[i:])
              for i in range(len(affected) + 1)]
    best = None
    nodes = 0                           # calls of _bound, _score_assignment
    partial = {}                        # the node's items, in affected order
    stack = [iter(orders[0])]
    floors = [None]                     # per node: (-_bound, moves)
    while stack and nodes < EXHAUSTIVE_LIMIT:
        depth = len(stack) - 1
        cid = affected[depth]
        hid = next(stack[-1], None)
        if hid is not None and best is not None:
            if floors[depth] is None:
                nodes += 1
                floors[depth] = (-_bound(cache, partial), moved(partial))
            score, moves = floors[depth]
            least = (score,
                     moves + (hid != comps[cid].host) + forced[depth + 1],
                     tuple(partial.items()) + ((cid, hid),))
            if least > best[0] or nodes >= EXHAUSTIVE_LIMIT:
                hid = None              # and so is every later child
        if hid is None:
            stack.pop()
            floors.pop()
            if partial:
                partial.popitem()
            continue
        partial[cid] = hid
        if depth + 1 == len(affected):
            nodes += 1
            key = (-_score_assignment(cache, partial), moved(partial),
                   tuple(sorted(partial.items())))
            if best is None or key < best[0]:
                best = (key, dict(partial))
            del partial[cid]
            continue
        stack.append(iter(orders[depth + 1]))
        floors.append(None)
    return best


class _ScoreCache:
    """The cycle's report with the affected components lifted off their
    hosts, kept term by term in `evaluate_qos`'s sorted-id order.

    Holds each host's free capacity, the resource term of every unaffected
    component, the link term of every connector with no affected endpoint
    (1 for the others), and the lowest battery level among the hosts
    unaffected components use.
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
        # A connector with an affected end scores 1, the most a route can,
        # until every such end is placed.
        self.touched = []               # (term index, endpoints, demand)
        self.link = list(report.link.values())
        for i, kid in enumerate(report.link):
            mk = model.connectors[kid]
            ends = [mk.source.component] + [s.component for s in mk.sinks]
            if all(c in comps for c in ends) and not moved.isdisjoint(ends):
                self.touched.append((i, ends, mk.policy.bw_demand))
                self.link[i] = 1.0
        self.levels = {hid: ho.battery for hid, ho in obs.hosts.items()
                       if ho.up and ho.battery is not None}
        used = {mc.host for cid, mc in comps.items() if cid not in moved}
        self.battery = min((self.levels[h] for h in used
                            if h in self.levels), default=None)

    @cached_property
    def alone(self) -> dict:
        """Affected component -> the best resource term it gets alone on a
        lifted candidate host.  A variant admits no negative demand, so more
        load on that host gives it no more.  Only `_bound` reads it."""
        alone = {}
        for (cid, hid), (cpu_d, mem_d) in self.demand.items():
            cpu, mem = self.free[hid]
            fit = _fit(cpu - cpu_d, mem - mem_d, cpu_d, mem_d)
            alone[cid] = max(fit, alone.get(cid, fit))
        return alone


def _terms(cache: _ScoreCache, placed: dict) -> tuple:
    """(resource terms, link terms, battery) with each affected component
    in `placed` on its host, at that host's tier, charged to that host's
    free capacity, in `placed` order.  Every placed host is up.  Another
    affected component keeps its lifted resource term, 0, and a connector
    with such an end its link term, 1."""
    free = {}
    for cid, hid in placed.items():
        cpu_d, mem_d = cache.demand[cid, hid]
        cpu, mem = free[hid] if hid in free else cache.free[hid]
        free[hid] = (cpu - cpu_d, mem - mem_d)
    resource = list(cache.resource)
    for hid, (cpu, mem) in free.items():
        for i, demand in cache.residents.get(hid, ()):
            resource[i] = _fit(cpu, mem, *demand)
    for cid, hid in placed.items():
        resource[cache.slot[cid]] = _fit(*free[hid], *cache.demand[cid, hid])
    link = list(cache.link)
    comps = cache.model.components
    for i, ends, bw_demand in cache.touched:
        hosts = [placed[c] if c in placed else
                 None if c in cache.slot else comps[c].host for c in ends]
        if None not in hosts:
            link[i] = _link_fit(cache.routes, cache.links, hosts[0],
                                hosts[1:], bw_demand)
    battery = cache.battery
    for hid in free:
        level = cache.levels.get(hid)
        if level is not None and (battery is None or level < battery):
            battery = level
    return resource, link, 1.0 if battery is None else battery


def _score_assignment(cache: _ScoreCache, assignment: dict) -> float:
    """The global score `evaluate_qos` gives the deployment with each
    affected component on its assigned host, at that host's tier, charged
    to that host's free capacity.  Every assigned host is up."""
    resource, link, battery = _terms(cache, assignment)
    return _global_score(_mean(resource), _mean(link), battery)


def _bound(cache: _ScoreCache, partial: dict) -> float:
    """No less than `_score_assignment` of any completion of `partial`.

    Each term is no less than in a completion: an affected component not
    placed charges nothing and scores its best fit alone, a connector with
    such an end scores 1, and the battery minimum leaves out the hosts of
    the components not placed.  Subtracting a demand, `_fit`, `_link_fit`,
    `min` and `_mean` are all monotone, and the terms keep
    `_score_assignment`'s order, so this holds for the computed floats, not
    only for the reals.
    """
    resource, link, battery = _terms(cache, partial)
    for cid, fit in cache.alone.items():
        if cid not in partial:
            resource[cache.slot[cid]] = fit
    return _global_score(_mean(resource), _mean(link), battery)


# -- kept scoring ----------------------------------------------------------

@dataclass
class _Scoring:
    """An observation of one world at `versions` and its report's terms,
    with what they were read from that the versions do not name, and what
    a cycle reads from them alone: the hosts whose batteries it reads, and
    its hard-violation verdict."""
    shape: tuple                # (world, coordinator host, hosts, links)
    versions: tuple             # (model version, topology version)
    model: ArchitectureModel    # the model scored
    obs: Observation
    resource: dict              # the report's terms and their means
    link: dict
    means: tuple
    flows: dict                     # `_flow_paths` over the obs's routes
    used: list = field(init=False)  # `_in_use`
    # a component's host is down or unreachable, or a connector scores 0
    hard: bool = field(init=False)

    def __post_init__(self):
        self.used = _in_use(self.model, self.obs)
        hosts = self.obs.hosts
        self.hard = any(
            mc.host not in hosts or not hosts[mc.host].up
            for mc in self.model.components.values()) \
            or 0.0 in self.link.values()


def _flow_paths(model: ArchitectureModel, routes: kernel.Routes) -> dict:
    """(connector id, sink index) -> (demand, host path or None) of each
    flow of the model's connectors (see `_flow_ends`) over `routes`, in
    `_flow_ends` order."""
    hosts = {cid: mc.host for cid, mc in model.components.items()}
    return {key: (demand, routes.path(src, dst)) for key, demand, src, dst
            in _flow_ends(model.connectors, hosts.get)}


def _score(world, now: int, shape: tuple, versions: tuple) -> _Scoring:
    """`observe` and `evaluate_qos` in full."""
    model = world.model
    obs = observe(world, now)
    report = evaluate_qos(model, obs, world.descriptors)
    return _Scoring(shape, versions, model, obs, report.resource,
                    report.link, report.means, _flow_paths(model, obs.routes))


def _repair(kept: _Scoring, world, now: int, versions: tuple) -> _Scoring:
    """`kept` brought to the world's current state: the scoring `_score`
    would give, down to the last float bit.

    The components and connectors that changed are those whose entries
    differ between the model `kept` scored and the current one.  A flow
    is a connector's demand and path to one sink (see `_flow_paths`); the
    old flows are those `kept` holds.  Recomputes:
    - the observation of each host whose reachability moved, or that a
      changed component left, joined or runs on, and the resource term of
      each component on such a host;
    - each link that a changed flow crossed or crosses, or whose `up`
      flag moved, charged anew with every flow crossing it now;
    - the link term of each changed connector, of each connector with a
      changed flow, and of each connector over a recharged link whose
      `bw_free`, before or after, is below the largest demand, since a
      link term reads `bw_free` over a demand capped at 1.
    Every other term is kept, and both means are added anew in sorted id
    order.
    """
    model, old = world.model, kept.model
    kids = {kid for kid in old.connectors.keys() | model.connectors.keys()
            if old.connectors.get(kid) != model.connectors.get(kid)}
    moved = {m.components[cid].host
             for cid in old.components.keys() | model.components.keys()
             if old.components.get(cid) != model.components.get(cid)
             for m in (old, model) if cid in m.components}
    routes = world.routes()
    reachable = _reachable(world, routes)
    hosts, redone = dict(kept.obs.hosts), set()
    for hid, ho in kept.obs.hosts.items():
        up = reachable[hid]
        if up != ho.up or hid in moved:
            hosts[hid] = _host_obs(world, hid, up)
            redone.add(hid)
    obs = Observation(now, hosts, dict(kept.obs.links), routes.view(
        {hid: ho.up for hid, ho in hosts.items()}))
    flows, last = _flow_paths(model, obs.routes), kept.flows
    changed = {key for key in flows.keys() | last.keys()
               if flows.get(key) != last.get(key)}
    kids.update(kid for kid, _ in changed)
    # each link a changed flow crossed or crosses, or whose up flag moved
    fresh = {pair: _link_obs(world.links[pair]) for pair in [
        *(hop for key in changed for flow in (last.get(key), flows.get(key))
          if flow for hop in _hops(flow[1])),
        *(pair for pair, lo in kept.obs.links.items()
          if world.links[pair].up != lo.up)]}
    _charge(fresh, flows.values())
    obs.links.update(fresh)
    top = max((demand for demand, _ in flows.values()), default=0.0)
    tight = {pair for pair, lo in fresh.items()
             if min(lo.bw_free, kept.obs.links[pair].bw_free) < top}
    kids.update(kid for (kid, _), (_, path) in flows.items()
                if tight and not tight.isdisjoint(_hops(path)))
    resource = {cid: kept.resource.get(cid)
                for cid in sorted(model.components)}
    for cid, mc in model.components.items():
        if mc.host in redone:
            resource[cid] = _resource_term(model, obs, world.descriptors,
                                           cid)
    link = {kid: kept.link.get(kid) for kid in sorted(model.connectors)}
    for kid in link.keys() & kids:
        link[kid] = _link_term(model, obs, kid)
    return _Scoring(kept.shape, versions, model, obs, resource, link,
                    (_mean(resource.values()), _mean(link.values())),
                    flows)


# -- control loop ----------------------------------------------------------

class Coordinator:
    """Evolution/adaptation manager pair living on one full-tier host."""

    def __init__(self, host_id: str, mode: str = "M3"):
        if mode not in ("M1", "M2", "M3", "M4"):
            raise ValueError(f"unknown adaptation mode {mode}")
        self.host = host_id
        self.mode = mode
        self.alert_since: Optional[int] = None
        self.infeasible_outstanding = False
        # the _Scoring of the last cycle; kept to itself: a cycle hands out
        # copies of its dicts
        self._scored: Optional[_Scoring] = None

    def _scoring(self, world, now: int) -> _Scoring:
        """The scoring of the world's current versions.

        `observe` and `evaluate_qos` run in full only at the coordinator's
        first cycle in a world, and again if it moved host or the world
        gained a host or link.  Later cycles keep the last scoring while
        the model and topology versions stay put, and repair it when one
        of them moved (see `_repair`): from the model last scored, set
        against the current one, and from the kept observation and the
        flows it scored.
        """
        shape = (world, world.coordinator_host, len(world.hosts),
                 len(world.links))
        versions = (world.model_version, world.topology_version)
        kept = self._scored
        if kept is None or kept.shape != shape:
            kept = self._scored = _score(world, now, shape, versions)
        elif kept.versions != versions:
            kept = self._scored = _repair(kept, world, now, versions)
        return kept

    def _observation(self, world, now: int) -> Observation:
        """The kept observation at `now`.  Batteries move every tick and
        with no version, so the battery of each reachable host that has
        one is read anew.  A mains host's kept `HostObs` is handed out as
        it is: a BatterySet can give such a host a battery, which is then
        read, but nothing takes one away."""
        kept = self._scored.obs
        hosts = {}
        for hid, ho in kept.hosts.items():
            power = world.hosts[hid].desc.power
            if ho.up and power is not None:
                ho = HostObs(True, ho.cpu_free, ho.mem_free, power.level)
            hosts[hid] = ho
        return Observation(now, hosts, dict(kept.links), kept.routes)

    def run_cycle(self, world, now: int) -> CycleOutcome:
        """Score, report, and react when triggered.  Only the batteries of
        the up hosts in use and the global score are read anew while the
        versions stay put; the observation is built only for a plan."""
        kept = self._scoring(world, now)
        powers = [world.hosts[hid].desc.power for hid in kept.used]
        report = _report(kept.model, now, dict(kept.resource),
                         dict(kept.link), kept.means,
                         [power.level for power in powers
                          if power is not None])
        world.last_qos = report
        world.trace(self.host, "QOS",
                    f"global={report.global_score:.4f} "
                    f"rmean={report.means[0]:.4f} "
                    f"lmean={report.means[1]:.4f} "
                    f"b={report.battery:.4f}")
        self._store_report(world, report, now)
        triggered = report.global_score < QOS_THRESHOLD or kept.hard
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
            return self._plan_and_apply(
                world, self._observation(world, now), report)
        # M4: alert first, reconfigure only after the grace window
        n = self._alert(world, report)
        if self.alert_since is None:
            self.alert_since = now
        if now - self.alert_since >= GRACE:
            out = self._plan_and_apply(
                world, self._observation(world, now), report)
            if out.kind == "PlanApplied":
                self.alert_since = None
            out.events = n
            return out
        return CycleOutcome("EventsEmitted", events=n)

    def _alert(self, world, report: QoSReport) -> int:
        e = PlatformEvent(kind=EventKind.QOS_ALERT, payload=report,
                          priority=7)
        return kernel.emit_event(world, e, self.host)

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
        for cmd in plan.commands:
            if not kernel.apply_now(world, cmd).applied:
                # retry next cycle with a fresh observation
                return CycleOutcome("NoAction")
        return CycleOutcome("PlanApplied", plan=plan)

    def _store_report(self, world, report: QoSReport, now: int) -> None:
        host = world.hosts[self.host]
        host.store.put(((now, host.location, 1.0, "platform"),
                        [(ContextNature.HARDWARE, "qos.global",
                          report.global_score, "adaptation")]))
