"""Exact work counts on generated link_churn, failover_replan and
flows_steady worlds.

Wall time drifts with the shared host; the number of calls a run makes
does not.  The tests count, from the test side, the calls of
`World.link_up` and `ConnectorInstance.reroute_check` over world 0 of seed
7 of the link_churn shape at 10 and at 40 hosts, and the cycles, the
placement searches and the calls of `observe`, `evaluate_qos`,
`_score_assignment` and `_bound` made under `Coordinator.run_cycle` over
world 0 of seed 7 of the failover_replan shape at 10, 20 and 160 hosts
(chains = hosts / 2), and the FLOW line heads, firing entries and report
plans built over world 0 of seed 7 of the flows_steady shape at 20 and 80
hosts, with the context objects, validities and informations its reports
and cycles build, the observations and host observations its cycles build
and the trace line lists it makes, and the heads, entries, plans and
`connector_transit` calls of the failover_replan world at 20 and 160
hosts, and pin them exactly, so a change that makes the re-route pass or
a replan do more work, builds a head, an entry, a plan or a line list per
tick or for hosts a command does not touch, builds a context object that
no one reads, or observes the world at a cycle whose versions did not
move, fails here.  The generator is imported read-only from perfbench/,
and the scaled shapes are set with `MonkeyPatch.setitem`.  `python
tests/test_scaling.py` prints the current counts in PINNED's format.

It also pins the trace bytes of seed 201 of each workload shape, and of
worlds 0 and 1 of seed 201 of the failover_replan shape at 160 hosts.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import worldgen  # noqa: E402
from adaptsim import adaptation, cli, descriptors, simnet  # noqa: E402
from adaptsim.adaptation import Coordinator  # noqa: E402
from adaptsim.connector import ConnectorInstance  # noqa: E402
from adaptsim.context import (ContextInformation, ContextObject,  # noqa: E402
                              InformationValidity)
from adaptsim.simnet import World  # noqa: E402

SEED = 7
# workload -> hosts -> whole-run counts.  link_churn: link_up per
# component-tick is 0.72 at 10 hosts and 0.77 at 40; it was 5.75 and
# 14.98 (3,448 and 35,941 calls, 400 and 1,600 checks) while every pass
# checked every queued sample.  failover_replan: a run observes and
# scores in full once, at its first cycle, and repairs that scoring at
# each replan; it was once per cycle (4 of each) while every version move
# re-observed the world.  A replan's placement search scores one
# assignment and bounds two nodes at 20 hosts and at 160 alike
PINNED = {
    "link_churn": {
        10: {"component_ticks": 600, "link_up": 433, "reroute_check": 42},
        40: {"component_ticks": 2400, "link_up": 1857,
             "reroute_check": 77},
    },
    "failover_replan": {
        10: {"cycles": 4, "select_deployment": 3, "observe": 1,
             "evaluate_qos": 1, "_score_assignment": 4, "_bound": 7},
        20: {"cycles": 4, "select_deployment": 3, "observe": 1,
             "evaluate_qos": 1, "_score_assignment": 3, "_bound": 6},
        160: {"cycles": 4, "select_deployment": 3, "observe": 1,
              "evaluate_qos": 1, "_score_assignment": 3, "_bound": 6},
    },
    # one model version a run: a push head and a deliver head for each
    # connector, whose one sink is a component's one in port, one firing
    # entry for each component and one report plan for each host.  A
    # host's report and a cycle's QoS report build no context object: the
    # store builds them when read, and no run reads it.  The first cycle
    # observes in full, one `Observation` and a `HostObs` a host, and no
    # later cycle builds either.  One line list is made for each (host,
    # kind) a line or a report plan is made for, bootstrap lines and the
    # plans of hosts with nothing to report included: the late ones are
    # the FLOW lists of hosts whose first FLOW line is a delivery, one
    # link latency or more after tick 0
    "flows_steady": {
        20: {"ticks": 44, "model_versions": 1, "connectors": 20,
             "components": 30, "flow_heads": 40, "firing_entries": 30,
             "hosts": 20, "reports": 180, "report_plans": 20,
             "report_objects": 0, "observations": 1, "host_obs": 20,
             "late_observations": 0, "late_host_obs": 0, "line_lists": 39,
             "late_line_lists": 9, "trace_keys": 37},
        80: {"ticks": 44, "model_versions": 1, "connectors": 80,
             "components": 120, "flow_heads": 160, "firing_entries": 120,
             "hosts": 80, "reports": 720, "report_plans": 80,
             "report_objects": 0, "observations": 1, "host_obs": 80,
             "late_observations": 0, "late_host_obs": 0, "line_lists": 140,
             "late_line_lists": 27, "trace_keys": 131},
    },
}
# failover_replan again: the firing entries, report plans, FLOW line heads
# and transits it builds, and the entries and plans it builds after tick 0.
# A command drops only what its scope names, so the late ones are those of
# the hosts its three Moves touch, at 20 hosts and at 160 alike.  They were
# 90 and 720 entries, 38 and 318 plans (120 / 58 / 122 / 169 and 960 / 478
# / 775 / 1,208 in all) while every version move dropped every host's.
# Heads and transits after tick 0 still grow with the world: a sink's first
# delivery, and a connector's first read in each topology state
PINNED["failover_rebuilds"] = {
    20: {"firing_entries": 42, "report_plans": 24, "flow_heads": 45,
         "connector_transit": 39, "late_entries": 12, "late_plans": 4},
    160: {"firing_entries": 249, "report_plans": 164, "flow_heads": 279,
          "connector_transit": 211, "late_entries": 9, "late_plans": 4},
}
# (workload, hosts, worlds) -> the sha256 over the trace digests of worlds
# 0 to worlds - 1 of seed 201, as `perfbench/run.py` prints it
DIGESTS = {
    ("flows_steady", 80, 4):
        "7f1fc58b5531b980f91be04a993d313717cb03846d846d20295ad470fcc52aa0",
    ("failover_replan", 20, 12):
        "c8be73aa12ee892ec7237be7a68ca61f261f78dac406867b12dacea25587686a",
    ("link_churn", 40, 10):
        "4efad2ec9e27e567997f8cac230b4d72b46bf4a61974db5ac184c929dad6f7d0",
    ("failover_replan", 160, 2):
        "14d9485f607e15a0e589ab03c2afe28accf7cb3c992ae6720a8f8451fbc3d663",
}


def built(mp, workload: str, hosts: int, seed: int = SEED, index: int = 0):
    """(world, ticks to run) of world `index` of seed `seed` of the
    workload's shape at `hosts` hosts; `mp` is a MonkeyPatch, whose undo
    restores the shape."""
    shape = worldgen.WORKLOADS[workload]
    mp.setitem(worldgen.WORKLOADS, workload, dataclasses.replace(
        shape, hosts=hosts, chains=hosts // 2))
    app_doc, net_doc, scenario_doc = worldgen.generate(workload, seed, index)
    app, d1 = descriptors.parse_app(app_doc)
    net, d2 = descriptors.parse_net(net_doc)
    scenario, d3 = descriptors.parse_scenario(scenario_doc)
    assert not d1 + d2 + d3
    world = cli.build_world(app, net, seed=scenario.seed, mode=shape.mode)
    for event in scenario.events:
        world.schedule(event)
    return world, scenario.duration


def work_counts(mp, hosts: int) -> dict:
    """Runs the link_churn world at `hosts` hosts and counts the calls of
    the wrapped methods, which `mp`'s undo restores."""
    world, duration = built(mp, "link_churn", hosts)
    calls = Counter()
    for owner, name in ((World, "link_up"),
                        (ConnectorInstance, "reroute_check")):
        def counted(*args, _method=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _method(*args)
        mp.setattr(owner, name, counted)
    world.run(duration)
    return {"component_ticks": len(world.component_host) * world.now,
            "link_up": calls["link_up"],
            "reroute_check": calls["reroute_check"]}


def replan_counts(mp, hosts: int) -> dict:
    """Runs the failover_replan world at `hosts` hosts and counts its
    cycles and the calls each makes of the wrapped functions, which `mp`'s
    undo restores."""
    world, duration = built(mp, "failover_replan", hosts)
    calls = Counter()
    cycling = []
    run_cycle = Coordinator.run_cycle

    def cycle(coord, w, now):
        calls["cycles"] += 1
        cycling.append(now)
        try:
            return run_cycle(coord, w, now)
        finally:
            cycling.pop()
    mp.setattr(Coordinator, "run_cycle", cycle)
    for name in ("select_deployment", "observe", "evaluate_qos",
                 "_score_assignment", "_bound"):
        def counted(*args, _fn=getattr(adaptation, name), _name=name,
                    **kwargs):
            calls[_name] += bool(cycling)
            return _fn(*args, **kwargs)
        mp.setattr(adaptation, name, counted)
    world.run(duration)
    return dict(calls)


def memo_counts(mp, hosts: int) -> dict:
    """Runs the flows_steady world at `hosts` hosts and counts the FLOW
    line heads (`World._flow_head` calls), the firing entries (each builds
    one `PlatformApi`), the reports (`World._kernel_tick` calls) and the
    report plans (`World._report_plan` calls) it builds, the context
    objects, validities and informations built while a host's report or
    the coordinator's cycle, which stores the QoS report, is made, the
    `Observation`s and `HostObs` built, in all and after tick 0, the
    trace line lists made, in all and after tick 0, and the (host, kind)
    keys the trace names, and the model versions its ticks start at;
    `mp`'s undo restores the wrapped names."""
    world, duration = built(mp, "flows_steady", hosts)
    calls = count_calls(mp, (World, "_kernel_tick", "reports"))
    versions = set()
    reporting = []
    for owner, name in ((World, "_kernel_tick"), (Coordinator, "run_cycle")):
        def report(*args, _fn=getattr(owner, name)):
            reporting.append(args)
            try:
                return _fn(*args)
            finally:
                reporting.pop()
        mp.setattr(owner, name, report)
    for cls in (ContextObject, InformationValidity, ContextInformation):
        def init(obj, *args, _init=cls.__init__, **kwargs):
            calls["report_objects"] += bool(reporting)
            _init(obj, *args, **kwargs)
        mp.setattr(cls, "__init__", init)
    for cls, counter in ((adaptation.Observation, "observations"),
                         (adaptation.HostObs, "host_obs")):
        def init(obj, *args, _init=cls.__init__, _counter=counter,
                 **kwargs):
            calls[_counter] += 1
            calls[f"late_{_counter}"] += world.now > 0
            _init(obj, *args, **kwargs)
        mp.setattr(cls, "__init__", init)
    step = World.step

    def versioned(w):
        versions.add(w.model_version)
        return step(w)
    mp.setattr(World, "step", versioned)
    world.step()
    lists = len(world._filed)
    world.run(duration - 1)
    return {"ticks": world.now, "model_versions": len(versions),
            "connectors": len(world.connectors),
            "components": len(world.component_host),
            "flow_heads": calls["flow_heads"],
            "firing_entries": calls["firing_entries"],
            "hosts": len(world.hosts), "reports": calls["reports"],
            "report_plans": calls["report_plans"],
            "report_objects": calls["report_objects"],
            "observations": calls["observations"],
            "host_obs": calls["host_obs"],
            "late_observations": calls["late_observations"],
            "late_host_obs": calls["late_host_obs"],
            "line_lists": len(world._filed),
            "late_line_lists": len(world._filed) - lists,
            "trace_keys": len({tuple(line.split()[1:3])
                               for line in world.trace_lines})}


def count_calls(mp, *wrapped) -> Counter:
    """Counts, under their counter names, the FLOW line heads
    (`World._flow_head` calls), the firing entries (each builds one
    `PlatformApi`), the report plans (`World._report_plan` calls) and
    the calls of each (owner, name, counter) of `wrapped`; `mp`'s undo
    restores the wrapped names."""
    calls = Counter()
    for owner, name, counter in ((World, "_flow_head", "flow_heads"),
                                 (simnet, "PlatformApi", "firing_entries"),
                                 (World, "_report_plan", "report_plans"),
                                 *wrapped):
        def counted(*args, _fn=getattr(owner, name), _counter=counter):
            calls[_counter] += 1
            return _fn(*args)
        mp.setattr(owner, name, counted)
    return calls


def rebuild_counts(mp, hosts: int) -> dict:
    """Runs the failover_replan world at `hosts` hosts and counts the
    heads, entries and plans it builds and its `connector_transit` calls,
    and the entries and plans built after tick 0."""
    world, duration = built(mp, "failover_replan", hosts)
    calls = count_calls(mp, (World, "connector_transit",
                             "connector_transit"))
    world.step()
    first = Counter(calls)
    world.run(duration - 1)
    return {**calls,
            "late_entries": calls["firing_entries"] - first["firing_entries"],
            "late_plans": calls["report_plans"] - first["report_plans"]}


COUNTS = {"link_churn": work_counts, "failover_replan": replan_counts,
          "flows_steady": memo_counts, "failover_rebuilds": rebuild_counts}


def all_counts() -> dict:
    out = {}
    for workload, pinned in PINNED.items():
        for hosts in pinned:
            with pytest.MonkeyPatch.context() as mp:
                out.setdefault(workload, {})[hosts] = COUNTS[workload](
                    mp, hosts)
    return out


@pytest.mark.parametrize("hosts", sorted(PINNED["link_churn"]))
def test_the_work_of_a_churning_world_is_pinned(monkeypatch, hosts):
    assert work_counts(monkeypatch, hosts) == PINNED["link_churn"][hosts]


@pytest.mark.parametrize("hosts", sorted(PINNED["failover_replan"]))
def test_a_replanning_world_is_observed_in_full_once(monkeypatch, hosts):
    assert replan_counts(monkeypatch, hosts) == \
        PINNED["failover_replan"][hosts]


@pytest.mark.parametrize("hosts", sorted(PINNED["flows_steady"]))
def test_a_steady_world_builds_its_heads_and_entries_once_a_version(
        monkeypatch, hosts):
    counts = memo_counts(monkeypatch, hosts)
    assert counts == PINNED["flows_steady"][hosts]
    versions = counts["model_versions"]
    assert counts["flow_heads"] == 2 * counts["connectors"] * versions
    assert counts["firing_entries"] == counts["components"] * versions
    assert counts["report_plans"] == counts["hosts"] * versions
    assert counts["reports"] > counts["report_plans"]
    assert counts["report_objects"] == 0
    assert counts["observations"] == 1
    assert counts["host_obs"] == counts["hosts"]
    assert counts["late_observations"] == counts["late_host_obs"] == 0
    assert counts["trace_keys"] <= counts["line_lists"]
    assert counts["late_line_lists"] < counts["hosts"]


@pytest.mark.parametrize("hosts", sorted(PINNED["failover_rebuilds"]))
def test_a_command_rebuilds_the_entries_of_its_scope_only(monkeypatch,
                                                          hosts):
    counts = rebuild_counts(monkeypatch, hosts)
    assert counts == PINNED["failover_rebuilds"][hosts]
    fewest = PINNED["failover_rebuilds"][min(PINNED["failover_rebuilds"])]
    assert counts["late_entries"] <= fewest["late_entries"]
    assert counts["late_plans"] <= fewest["late_plans"]


def trace_digest(mp, workload: str, hosts: int, index: int) -> str:
    """The sha256 of the trace file of world `index` of seed 201 of the
    workload's shape at `hosts` hosts."""
    world, duration = built(mp, workload, hosts, 201, index)
    world.run(duration)
    return hashlib.sha256("".join(
        line + "\n" for line in world.trace_lines).encode()).hexdigest()


def test_every_workload_shape_is_pinned():
    assert {(w.name, w.hosts, w.worlds)
            for w in worldgen.WORKLOADS.values()} <= DIGESTS.keys()


@pytest.mark.parametrize("workload, hosts, worlds", sorted(DIGESTS))
def test_seed_201_writes_the_pinned_trace_bytes(monkeypatch, workload,
                                                hosts, worlds):
    digests = "".join(trace_digest(monkeypatch, workload, hosts, j)
                      for j in range(worlds))
    assert hashlib.sha256(digests.encode()).hexdigest() == \
        DIGESTS[workload, hosts, worlds]


def test_the_counts_do_not_depend_on_the_hash_seed():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
    for hash_seed in ("0", "4242"):
        env["PYTHONHASHSEED"] = hash_seed
        out = subprocess.run([sys.executable, os.path.abspath(__file__)],
                             env=env, capture_output=True, text=True,
                             check=True).stdout
        assert {workload: {int(hosts): counts
                           for hosts, counts in pinned.items()}
                for workload, pinned in json.loads(out).items()} == PINNED, \
            hash_seed


if __name__ == "__main__":
    print(json.dumps(all_counts()))
