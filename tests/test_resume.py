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
of perfbench/worldgen.py, imported read-only.
"""

import os
import pickle
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "tests", "data")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import worldgen  # noqa: E402
from adaptsim import cli, descriptors, trace  # noqa: E402
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
WORLD_MEMOS = {"_model", "_registry", "_routing", "_routed_at", "_hops",
               "_flow_infos", "_last_report", "_apis"}
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
