"""Exact work counts on generated link_churn and failover_replan worlds.

Wall time drifts with the shared host; the number of calls a run makes
does not.  The tests count, from the test side, the calls of
`World.link_up` and `ConnectorInstance.reroute_check` over world 0 of seed
7 of the link_churn shape at 10 and at 40 hosts, and the cycles, the
placement searches and the calls of `observe` and `evaluate_qos` made
under `Coordinator.run_cycle` over world 0 of seed 7 of the
failover_replan shape at 10 and at 20 hosts (chains = hosts / 2), and pin
them exactly, so a change that makes the re-route pass or a replan do
more work fails here.  The generator is imported read-only from
perfbench/, and the scaled shapes are set with `MonkeyPatch.setitem`.
`python tests/test_scaling.py` prints the current counts in PINNED's
format.
"""

import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import worldgen  # noqa: E402
from adaptsim import adaptation, cli, descriptors  # noqa: E402
from adaptsim.adaptation import Coordinator  # noqa: E402
from adaptsim.connector import ConnectorInstance  # noqa: E402
from adaptsim.simnet import World  # noqa: E402

SEED = 7
# workload -> hosts -> whole-run counts.  link_churn: link_up per
# component-tick is 0.72 at 10 hosts and 0.77 at 40; it was 5.75 and
# 14.98 (3,448 and 35,941 calls, 400 and 1,600 checks) while every pass
# checked every queued sample.  failover_replan: a run observes and
# scores in full once, at its first cycle, and repairs that scoring at
# each replan; it was once per cycle (4 of each) while every version move
# re-observed the world
PINNED = {
    "link_churn": {
        10: {"component_ticks": 600, "link_up": 433, "reroute_check": 42},
        40: {"component_ticks": 2400, "link_up": 1857,
             "reroute_check": 77},
    },
    "failover_replan": {
        10: {"cycles": 4, "select_deployment": 3, "observe": 1,
             "evaluate_qos": 1},
        20: {"cycles": 4, "select_deployment": 3, "observe": 1,
             "evaluate_qos": 1},
    },
}


def built(mp, workload: str, hosts: int):
    """(world, ticks to run) of world 0 of seed SEED of the workload's
    shape at `hosts` hosts; `mp` is a MonkeyPatch, whose undo restores
    the shape."""
    shape = worldgen.WORKLOADS[workload]
    mp.setitem(worldgen.WORKLOADS, workload, dataclasses.replace(
        shape, hosts=hosts, chains=hosts // 2))
    app_doc, net_doc, scenario_doc = worldgen.generate(workload, SEED)
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
    for name in ("select_deployment", "observe", "evaluate_qos"):
        def counted(*args, _fn=getattr(adaptation, name), _name=name,
                    **kwargs):
            calls[_name] += bool(cycling)
            return _fn(*args, **kwargs)
        mp.setattr(adaptation, name, counted)
    world.run(duration)
    return dict(calls)


COUNTS = {"link_churn": work_counts, "failover_replan": replan_counts}


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
