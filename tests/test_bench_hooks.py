"""The traced benchmark wraps program methods by name: building its
wrappers here makes a rename fail the tests, not the benchmark."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import sim  # noqa: E402
import spans  # noqa: E402
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
            (ContextStore, ("put", "query"))):
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


@pytest.mark.parametrize("owner, attr", [(ConnectorInstance, "push"),
                                         (World, "step")])
def test_a_renamed_method_breaks_the_wrappers(monkeypatch, owner, attr):
    monkeypatch.delattr(owner, attr)
    with pytest.raises(AttributeError):
        sim.Layers(spans.Tracer()).targets()
