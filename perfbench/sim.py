"""One simulation run through the `adaptsim run` path, with its output
checks, and the per-layer wrappers of the traced mode.

A run parses and validates the generated descriptors, builds the world with
`cli.build_world`, steps it tick by tick and writes the trace, as
`adaptsim run` does.  Only set-up, `World.step` and (untraced) the
coordinator's `run_cycle` are timed.  The program is imported from the
`src/` of the checkout; `run.py` makes sure of that before importing this
module.

The host the benchmark runs on is shared: from one stretch of seconds to
the next its speed drifts by up to a factor of two, while the process stays
on the CPU.  So a measured run also times, right after set-up and after
every tick and outside the timed calls, a fixed stdlib-only reference pass
(`reference_pass`) that no change to the program can alter.
`WorldRun.times` brings each time to a fixed reference speed, the host
speed at which that pass takes `REFERENCE_PASS_S`, by the pass timed next
to it.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import inspect
import math
import os
import random
import re
import signal
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

from adaptsim import adaptation, cli, kernel
from adaptsim import descriptors as desc
from adaptsim.connector import ConnectorInstance, LossKind
from adaptsim.container import ContainerInstance
from adaptsim.simnet import World
from adaptsim.store import ContextStore

from spans import RepeatCounter, Tracer, patched, summarize


class RunTimeout(BaseException):
    """Raised by the time cap.  A BaseException, so the program's own
    `except Exception` guards cannot swallow it."""


@contextmanager
def time_cap(seconds: float):
    def expire(signum, frame):
        raise RunTimeout()

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 1e-3))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@dataclass
class WorldRun:
    setup_s: float = 0.0
    ticks_s: list = field(default_factory=list)
    cycles_s: list = field(default_factory=list)
    replans_s: list = field(default_factory=list)
    digest: str = ""
    trace_lines: int = 0
    trace_write_s: float = 0.0
    model_gap_ticks: int = 0
    counts: dict = field(default_factory=dict)   # simulated, from the trace
    qos: list = field(default_factory=list)      # global QoS per cycle
    error: str = ""                              # set when the run failed
    finished: bool = False
    cycle_ticks: list = field(default_factory=list)   # tick of each cycle
    replan_ticks: list = field(default_factory=list)  # tick of each replan
    setup_pass_s: float = 0.0                    # reference pass, set-up
    passes_s: list = field(default_factory=list)  # reference pass per tick

    def times(self, scaled: bool = True) -> dict:
        """Set-up, tick, cycle and replan times in seconds.  Scaled, each is
        at the reference host speed: multiplied by REFERENCE_PASS_S over
        the reference pass timed right after it (after its tick, for a
        cycle).  Runs made without the passes are returned as measured."""
        out = {"setup_s": self.setup_s, "ticks_s": self.ticks_s,
               "cycles_s": self.cycles_s, "replans_s": self.replans_s}
        if not scaled or not self.passes_s:
            return out
        k = [REFERENCE_PASS_S / p for p in self.passes_s]
        return {
            "setup_s": self.setup_s * REFERENCE_PASS_S / self.setup_pass_s,
            "ticks_s": [t * f for t, f in zip(self.ticks_s, k)],
            "cycles_s": [t * k[i] for t, i in zip(self.cycles_s,
                                                  self.cycle_ticks)],
            "replans_s": [t * k[i] for t, i in zip(self.replans_s,
                                                   self.replan_ticks)],
        }


# -- host speed --------------------------------------------------------------

# about a pass's time on the 2-vCPU host of BASELINE.md in its fast stretches
REFERENCE_PASS_S = 1e-3
_REF = random.Random(7)
_REF_GRAPH = {i: [_REF.randrange(300) for _ in range(4)] for i in range(300)}
_REF_DOC = {f"h{i}": {"a": [1.0, 2.0, "x"], "b": {"c": i}} for i in range(60)}


def _one_pass() -> float:
    t0 = time.perf_counter()
    for start in range(0, 300, 30):
        parent = {start: None}
        todo = [start]
        for u in todo:
            for v in _REF_GRAPH[u]:
                if v not in parent:
                    parent[v] = u
                    todo.append(v)
    copy.deepcopy(_REF_DOC)
    return time.perf_counter() - t0


def reference_pass() -> float:
    """Seconds of a fixed pure-Python workload (breadth-first searches over
    a fixed graph and a deepcopy, the program's kind of work), best of three,
    with the collector off so the program's heap does not enter it."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        return min(_one_pass() for _ in range(3))
    finally:
        if was_on:
            gc.enable()


class CycleTimer:
    """Times `Coordinator.run_cycle` and marks the cycles that ran the
    placement search: the only instrumentation of an untraced run."""

    def __init__(self):
        self.sink: WorldRun | None = None
        self._searched = False

    def targets(self):
        run_cycle = adaptation.Coordinator.run_cycle
        select = adaptation.select_deployment

        def timed_cycle(coord, world, now):
            self._searched = False
            t0 = time.perf_counter()
            out = run_cycle(coord, world, now)
            dt = time.perf_counter() - t0
            tick = len(self.sink.ticks_s)
            self.sink.cycles_s.append(dt)
            self.sink.cycle_ticks.append(tick)
            if self._searched:
                self.sink.replans_s.append(dt)
                self.sink.replan_ticks.append(tick)
            return out

        def marked_select(*args, **kwargs):
            self._searched = True
            return select(*args, **kwargs)

        return [(adaptation.Coordinator, "run_cycle", timed_cycle),
                (adaptation, "select_deployment", marked_select)]


# -- output checks -----------------------------------------------------------

_FLOW = re.compile(r"kind=FLOW conn=(\S+) op=(\w+)(?: sink=(\S+))?")
_CMD = re.compile(r"kind=CMD cmd=\w+ .*result=(\w+)")
_QOS = re.compile(r"kind=QOS global=([0-9.]+)")


class CheckFailed(Exception):
    pass


def check_tick(world, run: WorldRun) -> None:
    """Per-tick invariants: the model mirrors the deployment while every
    host is up (a gap while a host is down is counted, not failed) and every
    component lives on exactly one host."""
    same = (world.model.canonical()
            == kernel.reconstruct_model(world).canonical())
    if not same:
        if all(h.desc.up for h in world.hosts.values()):
            raise CheckFailed(f"tick {world.now - 1}: model differs from "
                              f"reconstruct_model with every host up")
        run.model_gap_ticks += 1
    placed = Counter(cid for h in world.hosts.values() for cid in h.containers)
    wrong = sorted(cid for cid in set(placed) | set(world.descriptors)
                   if placed[cid] != 1)
    if wrong:
        raise CheckFailed(f"tick {world.now - 1}: components not on exactly "
                          f"one host: {wrong[:5]}")


def check_final(world, lines: list, run: WorldRun) -> None:
    """Lossless conservation per sink, and the simulated counts."""
    delivered = Counter()
    counts = Counter()
    for line in lines:
        m = _FLOW.search(line)
        if m:
            counts[f"flow_{m.group(2)}"] += 1
            if m.group(2) == "deliver":
                delivered[(m.group(1), m.group(3))] += 1
            continue
        m = _CMD.search(line)
        if m:
            counts[f"commands_{m.group(1).lower()}"] += 1
            continue
        m = _QOS.search(line)
        if m:
            run.qos.append(float(m.group(1)))
    for kid in sorted(world.connectors):
        k = world.connectors[kid]
        if k.policy.loss is not LossKind.LOSSLESS:
            continue
        for sink in k.sinks:
            got = delivered[(kid, str(sink))] + len(k._queues[sink])
            if got != k.pushed_count:
                raise CheckFailed(
                    f"connector {kid} sink {sink}: {k.pushed_count} pushed, "
                    f"{delivered[(kid, str(sink))]} delivered + "
                    f"{len(k._queues[sink])} queued")
    run.counts = dict(counts)


# -- one run -----------------------------------------------------------------

def run_world(paths: dict, mode: str, outdir: str, cap_s: float,
              tracer: Tracer | None = None,
              timer: CycleTimer | None = None,
              speed: bool = False) -> WorldRun:
    """Set up, step and check one world; never raises for a failed run.
    With `speed`, a reference pass follows set-up and every tick (see
    `WorldRun.times`)."""
    run = WorldRun()
    clock = time.perf_counter
    if timer is not None:
        timer.sink = run
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    gc.collect()    # free earlier runs' worlds now, not inside this run
    try:
        with time_cap(cap_s):
            t0 = clock()
            with span("setup"):
                app, net, diags = cli._load_pair(paths["app"], paths["net"])
                scenario, d3 = desc.parse_scenario(
                    desc.load_json(paths["scenario"]))
                if diags or d3:
                    raise CheckFailed(f"descriptors rejected: {diags + d3}")
                world = cli.build_world(app, net, seed=scenario.seed,
                                        mode=mode)
                for ev in scenario.events:
                    world.schedule(ev)
            run.setup_s = clock() - t0
            if speed:
                run.setup_pass_s = reference_pass()
            for _ in range(scenario.duration):
                t0 = clock()
                world.step()
                run.ticks_s.append(clock() - t0)
                check_tick(world, run)
                if speed:
                    run.passes_s.append(reference_pass())
            os.makedirs(outdir, exist_ok=True)
            trace_path = os.path.join(outdir, "run.trace")
            t0 = clock()
            with span("simnet.trace_write"):
                with open(trace_path, "w") as fh:
                    for line in world.trace_lines:
                        fh.write(line + "\n")
            run.trace_write_s = clock() - t0
            with open(trace_path, "rb") as fh:
                run.digest = hashlib.sha256(fh.read()).hexdigest()
            run.trace_lines = len(world.trace_lines)
            check_final(world, world.trace_lines, run)
            run.finished = True
    except RunTimeout:
        run.error = f"did not finish within {cap_s:.0f} s"
    except CheckFailed as exc:
        run.error = f"check failed: {exc}"
    except Exception as exc:   # a raising run is a failed run, not a crash
        run.error = f"raised {exc!r}"
    return run


# -- per-layer wrappers ------------------------------------------------------

class Layers:
    """Wraps each layer's functions in spans and keeps the counters that
    need a call's arguments or result."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.routes = RepeatCounter()
        self._topologies: dict = {}

    def _route_key(self, result, args, kwargs):
        world, src, dst = args[:3]
        topo = (tuple(link.up for link in world.links.values()),
                tuple(h.desc.up for h in world.hosts.values()))
        tid = self._topologies.setdefault(topo, len(self._topologies))
        self.routes.add((src, dst, tid))

    def _count(self, key, test):
        counts = self.tracer.counts

        def after(result, args, kwargs):
            if test(result):
                counts[key] += 1
        return after

    def _greedy(self, select, evaluate_qos):
        """Counts searches whose candidate space exceeds the exhaustive
        limit, which is when select_deployment climbs greedily."""
        sig = inspect.signature(select)
        counts = self.tracer.counts

        def after(result, args, kwargs):
            a = sig.bind(*args, **kwargs)
            a.apply_defaults()
            model, obs = a.arguments["model"], a.arguments["obs"]
            descriptors = a.arguments["descriptors"]
            tiers = a.arguments["host_tiers"]
            report = a.arguments["report"] or evaluate_qos(
                model, obs, descriptors, a.arguments["weights"])
            space = 1
            for cid in adaptation.affected_components(model, report, obs):
                space *= sum(1 for hid, ho in obs.hosts.items() if ho.up and
                             descriptors[cid].variant_for(tiers[hid]))
            if space > adaptation.EXHAUSTIVE_LIMIT:
                counts["adaptation.select_deployment.greedy"] += 1
        return after

    def targets(self):
        t = self.tracer
        blocked = self._count("connector.push.blocked",
                              lambda r: r.name == "BLOCKED")
        aborted = self._count("kernel.apply_now.aborted",
                              lambda r: r.status == "Aborted")
        sample = self._count("connector.pull.sample", lambda r: r is not None)
        greedy = self._greedy(adaptation.select_deployment,
                              adaptation.evaluate_qos)
        table = [
            ("simnet.step", World, "step", None),
            ("kernel.shortest_path", kernel, "shortest_path", self._route_key),
            ("kernel.neighbors", kernel, "neighbors", None),
            ("kernel.apply_now", kernel, "apply_now", aborted),
            ("simnet.runtime_snapshot", World, "runtime_snapshot", None),
            ("adaptation.run_cycle", adaptation.Coordinator, "run_cycle",
             None),
            ("adaptation.observe", adaptation, "observe", None),
            ("adaptation.evaluate_qos", adaptation, "evaluate_qos", None),
            ("adaptation.obs_path", adaptation, "_obs_path", None),
            ("adaptation.select_deployment", adaptation, "select_deployment",
             greedy),
            ("adaptation.score_assignment", adaptation, "_score_assignment",
             None),
            ("connector.push", ConnectorInstance, "push", blocked),
            ("connector.pull", ConnectorInstance, "pull", sample),
            ("connector.reroute_check", ConnectorInstance, "reroute_check",
             None),
            ("simnet.host_of", World, "host_of", None),
            ("simnet.connector_transit", World, "connector_transit", None),
            ("container.process_step", ContainerInstance, "process_step",
             None),
            ("store.put", ContextStore, "put", None),
            ("store.query", ContextStore, "query", None),
        ]
        return [(owner, attr, t.wrap(name, getattr(owner, attr), after))
                for name, owner, attr, after in table]

    def metrics(self, run: WorldRun) -> dict:
        """The per-layer table: name -> (value, unit, base count)."""
        spans = self.tracer.records()
        agg = summarize(spans)
        setup = summarize(spans, within="setup")
        counts = self.tracer.counts

        def calls(name):
            return agg.get(name, {}).get("calls", 0)

        def self_ms(name):
            return agg.get(name, {}).get("self", 0.0) * 1e3

        out = {}
        for name in ("kernel.shortest_path", "kernel.neighbors",
                     "kernel.apply_now", "simnet.runtime_snapshot",
                     "adaptation.evaluate_qos", "adaptation.obs_path",
                     "adaptation.select_deployment", "connector.push",
                     "connector.pull", "simnet.host_of",
                     "container.process_step", "store.put"):
            out[f"{name}.calls"] = (calls(name), "count", None)
            out[f"{name}.self_ms"] = (self_ms(name), "ms", calls(name))
        for name in ("adaptation.run_cycle", "adaptation.score_assignment",
                     "simnet.connector_transit", "store.query"):
            out[f"{name}.calls"] = (calls(name), "count", None)
        for name in ("adaptation.observe", "connector.reroute_check"):
            out[f"{name}.self_ms"] = (self_ms(name), "ms", calls(name))
        out["kernel.route.repeat_ratio"] = (self.routes.ratio, "ratio",
                                            self.routes.calls)
        out["kernel.apply_now.aborted"] = (
            counts["kernel.apply_now.aborted"], "count", None)
        out["adaptation.select_deployment.greedy"] = (
            counts["adaptation.select_deployment.greedy"], "count", None)
        out["connector.push.blocked"] = (counts["connector.push.blocked"],
                                         "count", None)
        pulls = calls("connector.pull")
        out["connector.deliver_ratio"] = (
            counts["connector.pull.sample"] / pulls if pulls else 0.0,
            "ratio", pulls)
        out["simnet.trace_lines"] = (run.trace_lines, "count", None)
        out["simnet.trace_write_ms"] = (run.trace_write_s * 1e3, "ms", 1)
        setup_ms = agg.get("setup", {}).get("total", 0.0) * 1e3
        snap_ms = setup.get("simnet.runtime_snapshot", {}).get("self", 0.0) * 1e3
        out["simnet.runtime_snapshot.setup_share"] = (
            snap_ms / setup_ms if setup_ms else 0.0, "ratio", 1)
        out["sim.model_gap_ticks"] = (run.model_gap_ticks, "count",
                                      len(run.ticks_s))
        return out


def quantile(samples: list, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    if not samples:
        return math.nan
    s = sorted(samples)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)
