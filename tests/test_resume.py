"""A run is a pure function of its inputs, not of where it was paused or
of what its memos held.

- Resume: a world pickled at half its run and resumed writes the trace
  bytes and flow summary of the same world run on without a pause.  The
  world runs on before the copy resumes, so run state that a module keeps
  outside the world would reach the copy changed.
- Cold memos: a world whose memos are all emptied before every step
  writes the trace bytes and flow summary of a plain run.  Every
  attribute of a built World and Coordinator is listed below as state or
  as memo.

Runs: tests/data in M1-M4, and world 0 of seed 201 of each workload shape
of perfbench/worldgen.py, imported read-only.  One more, fixed run moves a
source and a sink between ticks: the FLOW lines after each move name the
new hosts, in a plain run and in a cold-memo run alike.
"""

import os
import pickle
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "tests", "data")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import worldgen  # noqa: E402
from adaptsim import cli, descriptors, kernel, trace  # noqa: E402
from adaptsim.connector import Endpoint, FlowPolicy  # noqa: E402
from adaptsim.container import ComponentDescriptor, Variant  # noqa: E402
from adaptsim.kernel import (Add, Connect, HostDescriptor,  # noqa: E402
                             HostTier, Move)
from adaptsim.simnet import World  # noqa: E402

RUNS = [("data", mode) for mode in ("M1", "M2", "M3", "M4")] + [
    ("workload", name) for name in sorted(worldgen.WORKLOADS)]

# what a run writes and reads back: the world's, then the coordinator's
WORLD_STATE = {"rng", "now", "hosts", "links", "connectors", "descriptors",
               "model_version", "coordinator", "last_qos", "component_host",
               "topology_version", "_passed", "_events", "_event_seq",
               "trace_lines", "_tick_buffer", "_trace_seq"}
COORDINATOR_STATE = {"host", "mode", "alert_since", "infeasible_outstanding"}
# what a run may rebuild from that state at any step, empty in a new World
# or Coordinator; each container's `_plan` is one too
WORLD_MEMOS = {"_model", "_registry", "_heads", "_routing", "_routed_at",
               "_hops"}
COORDINATOR_MEMOS = {"_scored"}


def built(run):
    """(world, ticks to run) of one of RUNS."""
    source, name = run
    if source == "data":
        docs = [descriptors.load_json(os.path.join(DATA, f"{doc}.json"))
                for doc in ("app", "net", "scenario")]
        mode = name
    else:
        docs = worldgen.generate(name, 201, 0)
        mode = worldgen.WORKLOADS[name].mode
    app, d1 = descriptors.parse_app(docs[0])
    net, d2 = descriptors.parse_net(docs[1])
    scenario, d3 = descriptors.parse_scenario(docs[2])
    assert not d1 + d2 + d3
    world = cli.build_world(app, net, seed=scenario.seed, mode=mode)
    for event in scenario.events:
        world.schedule(event)
    return world, scenario.duration


def written(world):
    """(trace bytes, flow summary) of the world's run so far."""
    return ("".join(line + "\n" for line in world.trace_lines),
            trace.flow_summary(list(map(trace.parse_line,
                                        world.trace_lines))))


def forget(world):
    """Empty every memo of the world, its coordinator and its
    containers."""
    empty = vars(World())
    for name in WORLD_MEMOS:
        setattr(world, name, empty[name])
    if world.coordinator is not None:
        world.coordinator._scored = None
    for host in world.hosts.values():
        for c in host.containers.values():
            c._plan = None


@pytest.mark.parametrize("run", RUNS, ids="-".join)
def test_a_run_resumed_from_a_pickle_writes_the_same_bytes(run):
    world, ticks = built(run)
    world.run(ticks // 2)
    paused = pickle.dumps(world)
    world.run(ticks - world.now)
    resumed = pickle.loads(paused)
    assert resumed.now == ticks // 2
    resumed.run(ticks - resumed.now)
    assert written(resumed) == written(world)


@pytest.mark.parametrize("run", RUNS, ids="-".join)
def test_a_run_whose_memos_are_emptied_at_every_step_writes_the_same_bytes(
        run):
    plain, ticks = built(run)
    plain.run(ticks)
    cold, _ = built(run)
    for _ in range(ticks):
        forget(cold)
        cold.step()
    assert written(cold) == written(plain)


def test_every_attribute_is_state_or_memo():
    assert not WORLD_STATE & WORLD_MEMOS
    assert not COORDINATOR_STATE & COORDINATOR_MEMOS
    listed = (WORLD_STATE | WORLD_MEMOS, COORDINATOR_STATE | COORDINATOR_MEMOS)
    for run in RUNS:
        world, ticks = built(run)
        before = (set(vars(world)), set(vars(world.coordinator)))
        world.run(ticks)
        assert before == (set(vars(world)), set(vars(world.coordinator))) \
            == listed, run


def moving_run(cold: bool) -> list:
    """The FLOW lines of a chain h1-h2-h3-h4 where `src` (h1) feeds both
    in ports of `snk` (h2) over one connector: ticks 0-2, then `snk`
    moves to h4, ticks 3-4, then `src` moves to h3, ticks 5-6.  A cold
    run empties every memo before each step."""
    world = World(seed=0)
    for hid in ("h1", "h2", "h3", "h4"):
        world.add_host(HostDescriptor(id=hid, tier=HostTier.FULL,
                                      cpu_capacity=8, mem_capacity=8))
    for a, b in (("h1", "h2"), ("h2", "h3"), ("h3", "h4")):
        world.add_link(a, b)
    for cid, hid, ins, outs, behavior in (
            ("src", "h1", (), ("o",), "source"),
            ("snk", "h2", ("a", "b"), (), "sink")):
        assert kernel.apply_now(world, Add(ComponentDescriptor(
            id=cid, in_ports=ins, out_ports=outs,
            variants=(Variant("Full", 1.0, 1.0, behavior),)), hid)).applied
    assert kernel.apply_now(world, Connect(
        "k", Endpoint("src", "o"), (Endpoint("snk", "a"),
                                    Endpoint("snk", "b")),
        FlowPolicy())).applied
    for move, ticks in ((None, 3), (Move("snk", "h4"), 2),
                        (Move("src", "h3"), 2)):
        if move is not None:
            assert kernel.apply_now(world, move).applied
        for _ in range(ticks):
            if cold:
                forget(world)
            world.step()
    return [line for line in world.trace_lines if "kind=FLOW" in line]


def test_flow_lines_name_the_hosts_a_source_and_a_sink_moved_to():
    """A move refills the samples it drained due at once: `snk` takes seq
    3 on h4 at tick 3, and seq 4, pushed over three hops, at tick 5."""
    lines = moving_run(cold=False)
    head = "kind=FLOW conn=k op="
    assert lines == [
        f"tick=0 host=h1 {head}push seq=1",
        f"tick=1 host=h1 {head}push seq=2",
        f"tick=1 host=h2 {head}deliver sink=snk.a seq=1",
        f"tick=1 host=h2 {head}deliver sink=snk.b seq=1",
        f"tick=2 host=h1 {head}push seq=3",
        f"tick=2 host=h2 {head}deliver sink=snk.a seq=2",
        f"tick=2 host=h2 {head}deliver sink=snk.b seq=2",
        f"tick=3 host=h1 {head}push seq=4",
        f"tick=3 host=h4 {head}deliver sink=snk.a seq=3",
        f"tick=3 host=h4 {head}deliver sink=snk.b seq=3",
        f"tick=4 host=h1 {head}push seq=5",
        f"tick=5 host=h3 {head}push seq=6",
        f"tick=5 host=h4 {head}deliver sink=snk.a seq=4",
        f"tick=5 host=h4 {head}deliver sink=snk.b seq=4",
        f"tick=6 host=h3 {head}push seq=7",
        f"tick=6 host=h4 {head}deliver sink=snk.a seq=5",
        f"tick=6 host=h4 {head}deliver sink=snk.b seq=5"]
    assert moving_run(cold=True) == lines
