"""Descriptor parsing, validation diagnostics, and the CLI surface."""

import dataclasses
import json
import os
import re

import pytest

from adaptsim import cli, descriptors, kernel, trace

DATA = os.path.join(os.path.dirname(__file__), "data")
APP = os.path.join(DATA, "app.json")
NET = os.path.join(DATA, "net.json")
SCENARIO = os.path.join(DATA, "scenario.json")


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def load(path):
    with open(path) as fh:
        return json.load(fh)


class TestParsing:
    def test_reference_descriptors_are_clean(self):
        app, d1 = descriptors.parse_app(load(APP))
        net, d2 = descriptors.parse_net(load(NET))
        assert d1 == d2 == []
        assert descriptors.validate(app, net) == []
        assert [c.id for c in app.components] == ["reader", "relay",
                                                  "writer"]

    def test_unknown_field_is_reported(self):
        doc = load(APP)
        doc["components"][0]["colour"] = "red"
        _, diags = descriptors.parse_app(doc)
        assert diags == ["components[0]: unknown field 'colour'"]

    def test_bad_endpoint_shape(self):
        doc = load(APP)
        doc["connectors"][0]["from"] = "no-dot"
        _, diags = descriptors.parse_app(doc)
        assert any("must be 'component.port'" in d for d in diags)

    def test_scenario_event_beyond_duration(self):
        sc, diags = descriptors.parse_scenario(
            {"duration": 5, "events": [
                {"at": 9, "kind": "HostLeave", "host": "h1"}]})
        assert any("beyond duration" in d for d in diags)
        assert sc.events == []

    def test_malformed_json_carries_position(self):
        import tempfile
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as fh:
            fh.write("{\n  broken\n}")
            path = fh.name
        from adaptsim.errors import DescriptorError
        with pytest.raises(DescriptorError) as err:
            descriptors.load_json(path)
        assert f"{path}:2:" in str(err.value)


class TestCrossValidation:
    def app_net(self):
        app, _ = descriptors.parse_app(load(APP))
        net, _ = descriptors.parse_net(load(NET))
        return app, net

    def test_unknown_initial_host(self):
        app, net = self.app_net()
        app.components[0] = dataclasses.replace(app.components[0],
                                                initial_host="h9")
        assert any("initial host 'h9' unknown" in d
                   for d in descriptors.validate(app, net))

    def test_variant_tier_mismatch(self):
        app, net = self.app_net()
        app.components[2] = dataclasses.replace(
            app.components[2], initial_host="h3")     # writer is Full-only
        assert any("no variant for tier LightStd" in d
                   for d in descriptors.validate(app, net))

    def test_missing_port_and_double_binding(self):
        app, net = self.app_net()
        app.connectors[1].sinks[0] = descriptors.Endpoint("writer", "oops")
        diags = descriptors.validate(app, net)
        assert any("unknown in port writer.oops" in d for d in diags)
        app, net = self.app_net()
        app.connectors[1].source = descriptors.Endpoint("reader", "out")
        assert any("already bound" in d
                   for d in descriptors.validate(app, net))


class TestRoundTrip:
    def test_app_survives_serialize_parse(self):
        app, _ = descriptors.parse_app(load(APP))
        again, diags = descriptors.parse_app(descriptors.serialize_app(app))
        assert diags == []
        assert descriptors.serialize_app(again) == \
            descriptors.serialize_app(app)

    def test_net_survives_serialize_parse(self):
        net, _ = descriptors.parse_net(load(NET))
        again, diags = descriptors.parse_net(descriptors.serialize_net(net))
        assert diags == []
        assert descriptors.serialize_net(again) == \
            descriptors.serialize_net(net)


class TestCli:
    def test_validate_ok(self, capsys):
        assert cli.main(["validate", "--app", APP, "--net", NET]) == 0
        assert capsys.readouterr().out == ""

    def test_validate_reports_diagnostics(self, tmp_path, capsys):
        doc = load(APP)
        doc["components"][1]["initial_host"] = "h9"
        bad = write(tmp_path, "bad_app.json", doc)
        assert cli.main(["validate", "--app", bad, "--net", NET]) == 1
        assert "initial host 'h9' unknown" in capsys.readouterr().out

    def test_run_produces_a_trace(self, tmp_path):
        out = str(tmp_path / "run.trace")
        rc = cli.main(["run", "--app", APP, "--net", NET,
                       "--scenario", SCENARIO, "--mode", "M3",
                       "--trace", out])
        assert rc == 0
        records = trace.parse_file(out)
        assert any(r.kind == "QOS" for r in records)
        assert records == sorted(
            records, key=lambda r: r.tick)        # tick-ordered

    def test_run_exit_two_when_no_feasible_deployment(self, tmp_path):
        # "probe" only runs on the light tier; when the sole light host
        # leaves, no compatible placement remains
        app = write(tmp_path, "app.json", {
            "components": [
                {"id": "probe", "out_ports": [], "in_ports": [],
                 "variants": [{"tier": "LightStd", "cpu_demand": 0.5,
                               "mem_demand": 0.5, "behavior": "sink"}],
                 "initial_host": "h2"}],
            "connectors": []})
        net = write(tmp_path, "net.json", {
            "hosts": [
                {"id": "h1", "tier": "Full", "cpu_capacity": 4.0,
                 "mem_capacity": 4.0},
                {"id": "h2", "tier": "LightStd", "cpu_capacity": 4.0,
                 "mem_capacity": 4.0}],
            "links": [{"endpoints": ["h1", "h2"]}]})
        sc = write(tmp_path, "sc.json", {
            "duration": 10, "seed": 0,
            "events": [{"at": 2, "kind": "HostLeave", "host": "h2"}]})
        out = str(tmp_path / "run.trace")
        rc = cli.main(["run", "--app", app, "--net", net,
                       "--scenario", sc, "--mode", "M3", "--trace", out])
        assert rc == 2
        assert any("result=Infeasible" in l
                   for l in open(out).read().splitlines())

    def test_inspect_queries(self, tmp_path, capsys):
        out = str(tmp_path / "run.trace")
        cli.main(["run", "--app", APP, "--net", NET,
                  "--scenario", SCENARIO, "--trace", out])
        capsys.readouterr()
        assert cli.main(["inspect", "--trace", out, "--query", "qos"]) == 0
        qos = capsys.readouterr().out
        assert "tick=0 global=1.0000" in qos
        assert cli.main(["inspect", "--trace", out,
                         "--query", "flows"]) == 0
        flows = capsys.readouterr().out
        assert "k1->relay.in:" in flows
        assert cli.main(["inspect", "--trace", out,
                         "--query", "commands"]) == 0
        cmds = capsys.readouterr().out
        assert "cmd=Move comp=relay" in cmds

    def test_parse_failure_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "x.json"
        bad.write_text("{nope")
        assert cli.main(["validate", "--app", str(bad), "--net", NET]) == 1
        assert str(bad) in capsys.readouterr().err


def _with(path, key, value):
    doc = load(path)
    doc[key] = value
    return doc


def _with_component(field, value):
    doc = load(APP)
    doc["components"][0][field] = value
    return doc


def _with_first(path, section, field, value):
    doc = load(path)
    doc[section][0][field] = value
    return doc


def _event(**event):
    """A scenario whose one event, at tick 2, has these fields."""
    return {"duration": 30, "events": [{"at": 2, **event}]}


@pytest.mark.parametrize("which, doc, diag", [
    ("scenario", {"duration": "x"},
     "scenario: duration must be an integer, not 'x'"),
    ("scenario", {"duration": 30, "seed": 1.5},
     "scenario: seed must be an integer, not 1.5"),
    ("scenario", {"duration": 30, "events": ["oops"]},
     "events[0]: must be an object, not 'oops'"),
    ("scenario", {"duration": 30, "events": 5},
     "scenario: 'events' must be a list, not 5"),
    ("scenario", {"duration": 30, "events": [
        {"at": -1, "kind": "HostLeave", "host": "h2"}]},
     "events[0]: event tick must be >= 0"),
    ("app", _with(APP, "components", [1]),
     "components[0]: must be an object, not 1"),
    ("app", _with_component("variants", [{"tier": "Full", "cpu_demand": "x",
                                          "mem_demand": 1.0,
                                          "behavior": "sink"}]),
     "components[0].variants[0]: could not convert"),
    ("app", _with(APP, "connectors", [{"from": "reader.out",
                                       "to": ["relay.in"],
                                       "capacity": None}]),
     "connectors[0]: int() argument"),
    ("app", _with(APP, "connectors", [{"from": "reader.out",
                                       "to": ["relay.in"], "capacity": 0}]),
     "connectors[0]: lossless capacity must be >= 1"),
    ("net", _with(NET, "links", [5]), "links[0]: must be an object, not 5"),
    ("app", _with_component("id", ["reader"]),
     "components[0]: id must be a string, not ['reader']"),
    ("app", _with_component("initial_host", ["h1"]),
     "components[0]: initial_host must be a string, not ['h1']"),
    ("app", _with_first(APP, "connectors", "id", ["k1"]),
     "connectors[0]: id must be a string, not ['k1']"),
    ("net", _with_first(NET, "hosts", "id", ["h1"]),
     "hosts[0]: id must be a string, not ['h1']"),
    ("app", _with_component("out_ports", "out"),
     "components[0]: 'out_ports' must be a list, not 'out'"),
    ("app", _with_first(APP, "components", "in_ports", ["in", 7]),
     "components[0]: 'in_ports' must be a list of strings, not ['in', 7]"),
    ("scenario", {"duration": 30, "events": [
        {"at": 2.5, "kind": "HostLeave", "host": "h2"}]},
     "events[0]: at must be an integer, not 2.5"),
    ("scenario", _event(kind="HostLeave", host=["h2"]),
     "events[0]: host must be a string, not ['h2']"),
    ("scenario", _event(kind="HostJoin", host={"id": "h2"}),
     "events[0]: host must be a string, not {'id': 'h2'}"),
    ("scenario", _event(kind="LinkDown", endpoints=[["h1"], ["h2"]]),
     "events[0]: endpoints must be a list of two host ids, "
     "not [['h1'], ['h2']]"),
    ("scenario", _event(kind="LinkDown", endpoints=["h1", "h2", "h3"]),
     "events[0]: endpoints must be a list of two host ids, "
     "not ['h1', 'h2', 'h3']"),
    ("scenario", _event(kind="LinkUp", endpoints="h1"),
     "events[0]: endpoints must be a list of two host ids, not 'h1'"),
    ("scenario", _event(kind="HostLeave"), "events[0]: missing 'host'"),
    ("scenario", _event(kind="LinkDown"), "events[0]: missing 'endpoints'"),
    ("scenario", _event(kind="BatterySet", host="h2"),
     "events[0]: missing 'level'"),
    ("scenario", _event(kind="BatterySet", host="h2", level="high"),
     "events[0]: level must be a number, not 'high'"),
    ("scenario", _event(kind="SensorReading", host="h3", key="temp",
                        value="x"),
     "events[0]: value must be a number, not 'x'"),
    ("scenario", _event(kind="SensorReading", host="h3", key="temp",
                        value=1.0, nature="Bogus"),
     "events[0]: nature must be one of ['User', 'Hardware', "
     "'Environment'], not 'Bogus'"),
    ("app", _with(APP, "connectors", [{"from": "reader.out",
                                       "to": ["relay.in"],
                                       "mode": "ClientServerPull"}]),
     "connectors[0]: mode must be 'Push', not 'ClientServerPull'"),
])
def test_malformed_descriptor_is_a_diagnostic(tmp_path, capsys, which, doc,
                                              diag):
    """Each of these raised out of the parser; now `validate` and `run`
    print a diagnostic and exit 1."""
    paths = {"app": APP, "net": NET, "scenario": SCENARIO}
    paths[which] = write(tmp_path, f"{which}.json", doc)
    runs = [["run", "--scenario", paths["scenario"],
             "--trace", str(tmp_path / "run.trace")]]
    if which != "scenario":
        runs.append(["validate"])
    for argv in runs:
        assert cli.main(argv + ["--app", paths["app"],
                                "--net", paths["net"]]) == 1
        assert diag in capsys.readouterr().out


class TestBuildWorld:
    def test_bootstrap_leaves_no_trace(self):
        app, _ = descriptors.parse_app(load(APP))
        net, _ = descriptors.parse_net(load(NET))
        w = cli.build_world(app, net)
        assert w.trace_lines == []
        assert w._tick_buffer == []
        assert w.coordinator.host == "h1"    # first full-tier host
        assert set(w.model.components) == {"reader", "relay", "writer"}

    def test_undeployable_app_is_rejected(self):
        app, _ = descriptors.parse_app(load(APP))
        net, _ = descriptors.parse_net(load(NET))
        app.components[2] = dataclasses.replace(
            app.components[2], initial_host="h3")
        from adaptsim.errors import DescriptorError
        with pytest.raises(DescriptorError):
            cli.build_world(app, net)


@pytest.mark.parametrize("mode", ["M1", "M2", "M3", "M4"])
def test_the_model_mirrors_the_deployment_on_every_tick(mode):
    """Also while h2 is down (ticks 10-21): the model keeps a down host's
    components, and so does a walk of the hosts."""
    app, _ = descriptors.parse_app(load(APP))
    net, _ = descriptors.parse_net(load(NET))
    scenario, _ = descriptors.parse_scenario(load(SCENARIO))
    w = cli.build_world(app, net, seed=scenario.seed, mode=mode)
    for ev in scenario.events:
        w.schedule(ev)
    down = []
    for _ in range(scenario.duration):
        w.step()
        assert (w.model.canonical()
                == kernel.reconstruct_model(w).canonical()), w.now - 1
        if not w.hosts["h2"].desc.up:
            down.append(w.now - 1)
    assert down == list(range(10, 22))


@pytest.mark.parametrize("mode", ["M1", "M2", "M3", "M4"])
def test_traced_flow_rates_count_every_delivery(mode):
    """Each flow.rate report counts the deliveries since the last one, so
    the reports plus the open window add up to all deliveries."""
    app, _ = descriptors.parse_app(load(APP))
    net, _ = descriptors.parse_net(load(NET))
    scenario, _ = descriptors.parse_scenario(load(SCENARIO))
    w = cli.build_world(app, net, seed=scenario.seed, mode=mode)
    for ev in scenario.events:
        w.schedule(ev)
    w.run(scenario.duration)
    reported = dict.fromkeys(w.connectors, 0)
    for line in w.trace_lines:
        m = re.search(r"key=flow\.rate conn=(\S+) rate=(\d+)", line)
        if m:
            reported[m.group(1)] += int(m.group(2))
    for kid, k in w.connectors.items():
        assert k.delivered_count > 0
        assert reported[kid] + k._delivered_window == k.delivered_count
