"""Tests of the benchmark's own logic: generator, spans, counters, checks."""

import json
import os

import pytest

import run
import spans
import worldgen
from adaptsim import cli, kernel
from adaptsim import descriptors as desc
from adaptsim.kernel import HostDescriptor, HostTier
from adaptsim.simnet import World

import sim


@pytest.mark.parametrize("workload", sorted(worldgen.WORKLOADS))
def test_generator_is_deterministic(workload, tmp_path):
    a = worldgen.write(workload, 7, 1, str(tmp_path / "a"))
    b = worldgen.write(workload, 7, 1, str(tmp_path / "b"))
    for name in ("app", "net", "scenario"):
        with open(a[name], "rb") as fa, open(b[name], "rb") as fb:
            assert fa.read() == fb.read()
    other = [worldgen.dumps(d) for d in worldgen.generate(workload, 8, 1)]
    again = [worldgen.dumps(d) for d in worldgen.generate(workload, 7, 1)]
    assert other != again


@pytest.mark.parametrize("workload", sorted(worldgen.WORKLOADS))
def test_generated_descriptors_validate(workload, tmp_path):
    w = worldgen.WORKLOADS[workload]
    for seed in (0, 1):
        p = worldgen.write(workload, seed, 0, str(tmp_path / str(seed)))
        assert cli.main(["validate", "--app", p["app"],
                         "--net", p["net"]]) == 0
        scenario, diags = desc.parse_scenario(desc.load_json(p["scenario"]))
        assert diags == []
        assert scenario.duration == w.duration
        app, _ = desc.parse_app(desc.load_json(p["app"]))
        assert len(app.components) == 3 * w.chains


def test_failover_strands_one_source_per_leave():
    app, net, scenario = worldgen.generate("failover_replan", 3)
    leavers = [e["host"] for e in scenario["events"]
               if e["kind"] == "HostLeave"]
    assert len(leavers) == len(set(leavers)) == 3
    for hid in leavers:
        on_host = [c["id"] for c in app["components"]
                   if c["initial_host"] == hid]
        assert len(on_host) == 1 and on_host[0].startswith("src")


def test_self_time_on_synthetic_tree():
    tree = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),      # overlaps a: the union [1, 6] counts once
        ("a.child", 2.0, 3.0, 1),
        ("c", 8.0, 12.0, 0),     # runs past its parent: clipped to [8, 10]
        ("other", 20.0, 21.0, -1),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 3.0, 1.0, 4.0, 1.0]
    agg = spans.summarize(tree, within="root")
    assert "other" not in agg
    assert agg["root"] == {"calls": 1, "total": 10.0, "self": 3.0}


def test_tracer_records_nested_calls():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * inner(x))
    assert outer(1) == 4
    records = tracer.records()
    assert [r[0] for r in records] == ["outer", "inner", "inner"]
    assert [r[3] for r in records] == [-1, 0, 0]
    # outer spans [0, 5]; its children [1, 2] and [3, 4]
    assert spans.self_times(records) == [3.0, 1.0, 1.0]


def test_repeat_counter_on_hand_built_sequence():
    rc = spans.RepeatCounter()
    for key in [("h0", "h2", 0), ("h0", "h2", 0), ("h2", "h0", 0),
                ("h0", "h2", 1), ("h0", "h2", 0)]:
        rc.add(key)
    assert (rc.calls, rc.repeats) == (5, 2)
    assert rc.ratio == pytest.approx(0.4)


def _line_world():
    w = World(seed=0)
    for hid in ("h0", "h1", "h2"):
        w.add_host(HostDescriptor(id=hid, tier=HostTier.FULL,
                                  cpu_capacity=4.0, mem_capacity=4.0))
    w.add_link("h0", "h1")
    w.add_link("h1", "h2")
    w.add_link("h0", "h2")
    return w


def test_route_repeats_are_keyed_by_topology():
    w = _line_world()
    layers = sim.Layers(spans.Tracer())
    with spans.patched(layers.targets()):
        kernel.shortest_path(w, "h0", "h2")
        kernel.shortest_path(w, "h0", "h2")            # repeat
        w.links[frozenset(("h0", "h2"))].up = False
        kernel.shortest_path(w, "h0", "h2")            # new topology
        w.links[frozenset(("h0", "h2"))].up = True
        kernel.shortest_path(w, "h0", "h2")            # first topology again
        w.hosts["h1"].desc.up = False
        kernel.shortest_path(w, "h0", "h2")            # host set changed
    assert (layers.routes.calls, layers.routes.repeats) == (5, 2)
    assert kernel.shortest_path.__name__ == "shortest_path"   # restored


def test_model_gap_counts_only_while_a_host_is_down():
    w = _line_world()
    run = sim.WorldRun()
    w.now = 1
    sim.check_tick(w, run)
    w.model.components["ghost"] = kernel.ModelComponent(
        host="h1", tier="Full", behavior="sink", lifecycle="Running")
    w.hosts["h1"].desc.up = False
    sim.check_tick(w, run)
    assert run.model_gap_ticks == 1
    w.hosts["h1"].desc.up = True
    with pytest.raises(sim.CheckFailed):
        sim.check_tick(w, run)


def test_time_cap_marks_run_did_not_finish(tmp_path):
    p = worldgen.write("flows_steady", 0, 0, str(tmp_path))
    run = sim.run_world(p, "M1", str(tmp_path), cap_s=0.01)
    assert not run.finished
    assert run.error.startswith("did not finish")


def test_short_run_passes_its_checks(tmp_path):
    p = worldgen.write("failover_replan", 0, 0, str(tmp_path))
    timer = sim.CycleTimer()
    with spans.patched(timer.targets()):
        first = sim.run_world(p, "M3", str(tmp_path), cap_s=60, timer=timer)
        second = sim.run_world(p, "M3", str(tmp_path), cap_s=60, timer=timer)
    assert first.finished, first.error
    assert first.digest == second.digest
    assert len(first.replans_s) == 3
    assert len(first.replan_ticks) == 3
    assert first.cycle_ticks == sorted(first.cycle_ticks)
    assert first.counts["commands_applied"] >= 3
    assert os.path.exists(tmp_path / "run.trace")


def test_reported_metrics_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    layer_names = set(sim.Layers(spans.Tracer()).metrics(sim.WorldRun()))
    layer_names |= {"ticks_per_s.traced", "trace.overhead_ratio"}
    assert layer_names == {m["name"] for m in bench["per_layer"]}
    assert (set(run.END_TO_END) - set(run.NOT_IN_JSON)
            == {m["name"] for m in bench["end_to_end"]})
    assert {w["name"] for w in bench["workloads"]} <= set(worldgen.WORKLOADS)


def test_times_are_scaled_by_the_pass_next_to_them():
    ref = sim.REFERENCE_PASS_S
    run = sim.WorldRun(setup_s=3.0, ticks_s=[1.0, 1.0, 4.0],
                       cycles_s=[0.5], cycle_ticks=[2],
                       replans_s=[0.5], replan_ticks=[2])
    assert run.times() == run.times(scaled=False)   # made without passes
    # the host at the reference speed, then at half of it, then at a quarter
    run.setup_pass_s = 2 * ref
    run.passes_s = [ref, 2 * ref, 4 * ref]
    assert run.times() == {"setup_s": 1.5, "ticks_s": [1.0, 0.5, 1.0],
                           "cycles_s": [0.125], "replans_s": [0.125]}
    assert run.times(scaled=False)["ticks_s"] == [1.0, 1.0, 4.0]
    assert sim.reference_pass() > 0
