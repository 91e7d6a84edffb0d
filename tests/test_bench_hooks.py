"""The traced benchmark wraps program methods by name: building its
wrappers here makes a rename fail the tests, not the benchmark."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import sim  # noqa: E402
import spans  # noqa: E402
from adaptsim import adaptation, cli, descriptors  # noqa: E402
from adaptsim.adaptation import Coordinator  # noqa: E402
from adaptsim.connector import ConnectorInstance  # noqa: E402
from adaptsim.container import ContainerInstance  # noqa: E402
from adaptsim.simnet import World  # noqa: E402
from adaptsim.store import ContextStore  # noqa: E402

from test_simnet import dataplane_world  # noqa: E402


def wrapped(targets):
    return {(owner, attr) for owner, attr, _ in targets}


def test_the_traced_layers_find_every_method_they_wrap():
    names = wrapped(sim.Layers(spans.Tracer()).targets())
    for owner, attrs in (
            (ConnectorInstance, ("push", "pull", "reroute_check")),
            (World, ("host_of", "connector_transit", "runtime_snapshot",
                     "step")),
            (ContainerInstance, ("process_step",)),
            (ContextStore, ("put", "query")),
            (adaptation, ("observe", "evaluate_qos", "_obs_path",
                          "select_deployment", "_score_assignment")),
            (Coordinator, ("run_cycle",))):
        for attr in attrs:
            assert (owner, attr) in names


def test_the_cycle_timer_finds_what_it_wraps():
    assert len(wrapped(sim.CycleTimer().targets())) == 2


def test_a_traced_world_records_the_data_plane_layers():
    plain = dataplane_world()
    plain.run(6)
    tracer = spans.Tracer()
    with spans.patched(sim.Layers(tracer).targets()):
        traced = dataplane_world()
        traced.run(6)
    assert traced.trace_lines == plain.trace_lines
    calls = {name: agg["calls"]
             for name, agg in spans.summarize(tracer.records()).items()}
    for name in ("simnet.step", "connector.push", "connector.pull",
                 "connector.reroute_check", "container.process_step",
                 "simnet.connector_transit", "store.put"):
        assert calls.get(name, 0) > 0, name
    assert ConnectorInstance.push.__name__ == "push"          # restored


def test_a_traced_replan_records_the_search(tmp_path):
    # binds select_deployment's parameters by name, so a signature change
    # fails here too
    data = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
    out = tmp_path / "m3.trace"
    tracer = spans.Tracer()
    with spans.patched(sim.Layers(tracer).targets()):
        assert cli.main(["run", "--app", os.path.join(data, "app.json"),
                         "--net", os.path.join(data, "net.json"),
                         "--scenario", os.path.join(data, "scenario.json"),
                         "--mode", "M3", "--trace", str(out)]) == 0
    with open(os.path.join(data, "golden_m3.trace"), "rb") as fh:
        assert out.read_bytes() == fh.read()
    calls = {name: agg["calls"]
             for name, agg in spans.summarize(tracer.records()).items()}
    assert calls.get("adaptation.select_deployment", 0) > 0
    assert calls.get("adaptation.score_assignment", 0) > 0


@pytest.mark.parametrize("owner, attr", [(ConnectorInstance, "push"),
                                         (World, "step")])
def test_a_renamed_method_breaks_the_wrappers(monkeypatch, owner, attr):
    monkeypatch.delattr(owner, attr)
    with pytest.raises(AttributeError):
        sim.Layers(spans.Tracer()).targets()


def test_a_steady_cycle_scores_once_per_version(monkeypatch):
    """A steady M1 world with no events: every cycle runs, and observes
    and scores in full only at a model or topology version it has not
    scored at."""
    data = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

    def steady():
        app, _ = descriptors.parse_app(descriptors.load_json(
            os.path.join(data, "app.json")))
        net, _ = descriptors.parse_net(descriptors.load_json(
            os.path.join(data, "net.json")))
        return cli.build_world(app, net, seed=1, mode="M1")
    plain = steady()
    plain.run(30)
    tracer = spans.Tracer()
    seen = []
    with spans.patched(sim.Layers(tracer).targets()):
        traced = steady()
        cycle = Coordinator.run_cycle

        def versions(coord, world, now):
            seen.append((world.model_version, world.topology_version))
            return cycle(coord, world, now)
        monkeypatch.setattr(Coordinator, "run_cycle", versions)
        traced.run(30)
        monkeypatch.undo()
    assert traced.trace_lines == plain.trace_lines
    calls = {name: agg["calls"]
             for name, agg in spans.summarize(tracer.records()).items()}
    assert len(seen) == 6 == calls["adaptation.run_cycle"]
    assert calls["adaptation.observe"] == len(set(seen)) == 1
    assert calls["adaptation.evaluate_qos"] == len(set(seen))
