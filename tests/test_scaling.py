"""Exact work counts on generated link_churn worlds.

Wall time drifts with the shared host; the number of calls a run makes
does not.  The tests count, from the test side, the calls of
`World.link_up` and `ConnectorInstance.reroute_check` over world 0 of seed
7 of the link_churn shape at 10 and at 40 hosts (chains = hosts / 2), and
pin them exactly, so a change that makes the re-route pass do more work
fails here.  The generator is imported read-only from perfbench/, and
the scaled shapes are set with `MonkeyPatch.setitem`.
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
from adaptsim import cli, descriptors  # noqa: E402
from adaptsim.connector import ConnectorInstance  # noqa: E402
from adaptsim.simnet import World  # noqa: E402

SEED = 7
# hosts -> whole-run counts.  link_up per component-tick is 0.72 at 10
# hosts and 0.77 at 40; it was 5.75 and 14.98 (3,448 and 35,941 calls, 400
# and 1,600 checks) while every pass checked every queued sample
PINNED = {
    10: {"component_ticks": 600, "link_up": 433, "reroute_check": 42},
    40: {"component_ticks": 2400, "link_up": 1857, "reroute_check": 77},
}


def work_counts(mp, hosts: int) -> dict:
    """Runs world 0 of seed SEED of the link_churn shape at `hosts` hosts
    and counts the calls of the wrapped methods; `mp` is a MonkeyPatch,
    whose undo restores the shape and the methods."""
    shape = worldgen.WORKLOADS["link_churn"]
    mp.setitem(worldgen.WORKLOADS, "link_churn", dataclasses.replace(
        shape, hosts=hosts, chains=hosts // 2))
    app_doc, net_doc, scenario_doc = worldgen.generate("link_churn", SEED)
    app, d1 = descriptors.parse_app(app_doc)
    net, d2 = descriptors.parse_net(net_doc)
    scenario, d3 = descriptors.parse_scenario(scenario_doc)
    assert not d1 + d2 + d3
    world = cli.build_world(app, net, seed=scenario.seed, mode=shape.mode)
    for event in scenario.events:
        world.schedule(event)
    calls = Counter()
    for owner, name in ((World, "link_up"),
                        (ConnectorInstance, "reroute_check")):
        def counted(*args, _method=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _method(*args)
        mp.setattr(owner, name, counted)
    world.run(scenario.duration)
    return {"component_ticks": len(world.component_host) * world.now,
            "link_up": calls["link_up"],
            "reroute_check": calls["reroute_check"]}


def all_counts() -> dict:
    out = {}
    for hosts in PINNED:
        with pytest.MonkeyPatch.context() as mp:
            out[hosts] = work_counts(mp, hosts)
    return out


@pytest.mark.parametrize("hosts", sorted(PINNED))
def test_the_work_of_a_churning_world_is_pinned(monkeypatch, hosts):
    assert work_counts(monkeypatch, hosts) == PINNED[hosts]


def test_the_counts_do_not_depend_on_the_hash_seed():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
    for hash_seed in ("0", "4242"):
        env["PYTHONHASHSEED"] = hash_seed
        out = subprocess.run([sys.executable, os.path.abspath(__file__)],
                             env=env, capture_output=True, text=True,
                             check=True).stdout
        assert {int(hosts): counts for hosts, counts
                in json.loads(out).items()} == PINNED, hash_seed


if __name__ == "__main__":
    print(json.dumps(all_counts()))
