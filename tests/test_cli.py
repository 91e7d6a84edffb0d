"""Descriptor parsing, validation diagnostics, and the CLI surface."""

import copy
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

from adaptsim import cli, descriptors, kernel, trace
from adaptsim.errors import DescriptorError, ValidationError
from adaptsim.simnet import World

DATA = os.path.join(os.path.dirname(__file__), "data")
APP = os.path.join(DATA, "app.json")
NET = os.path.join(DATA, "net.json")
SCENARIO = os.path.join(DATA, "scenario.json")


def write(tmp_path, name, doc):
    """Writes `doc` as JSON, or as it is when it is bytes."""
    path = tmp_path / name
    if isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
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
        assert [c.id for c in app.components] == ["reader", "relay",
                                                  "writer"]
        assert set(cli.build_world(app, net).model.components) == {
            "reader", "relay", "writer"}

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
        with pytest.raises(DescriptorError) as err:
            descriptors.load_json(path)
        assert f"{path}:2:" in str(err.value)


class TestCrossValidation:
    """What the world and the kernel refuse of a pair that parses."""

    def app_net(self):
        app, _ = descriptors.parse_app(load(APP))
        net, _ = descriptors.parse_net(load(NET))
        return app, net

    def refusals(self, app, net):
        with pytest.raises(DescriptorError) as err:
            cli.build_world(app, net)
        return str(err.value).splitlines()

    def test_unknown_initial_host(self):
        app, net = self.app_net()
        app.components[0] = dataclasses.replace(app.components[0],
                                                initial_host="h9")
        assert self.refusals(app, net) == [
            "cannot deploy reader on h9: unknown host h9"]

    def test_variant_tier_mismatch(self):
        app, net = self.app_net()
        app.components[2] = dataclasses.replace(
            app.components[2], initial_host="h3")     # writer is Full-only
        assert self.refusals(app, net) == [
            "cannot deploy writer on h3: no variant for LightStd"]

    def test_missing_port_and_double_binding(self):
        app, net = self.app_net()
        app.connectors[1].sinks[0] = descriptors.Endpoint("writer", "oops")
        assert self.refusals(app, net) == [
            "cannot connect k2 from relay.out to writer.oops: "
            "unknown port writer.oops"]
        app, net = self.app_net()
        app.connectors[1].source = descriptors.Endpoint("reader", "out")
        assert self.refusals(app, net) == [
            "cannot connect k2 from reader.out to writer.in: port in use"]


class TestCli:
    def test_validate_ok(self, capsys):
        assert cli.main(["validate", "--app", APP, "--net", NET]) == 0
        assert capsys.readouterr().out == ""

    def test_validate_reports_diagnostics(self, tmp_path, capsys):
        doc = load(APP)
        doc["components"][1]["initial_host"] = "h9"
        bad = write(tmp_path, "bad_app.json", doc)
        assert cli.main(["validate", "--app", bad, "--net", NET]) == 1
        assert capsys.readouterr().err == (
            "cannot deploy relay on h9: unknown host h9\n")

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

    @pytest.mark.parametrize("hash_seed", ["0", "12345"])
    def test_run_does_not_depend_on_the_hash_seed(self, tmp_path, hash_seed):
        out = tmp_path / "run.trace"
        src = os.path.join(DATA, os.pardir, os.pardir, "src")
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "adaptsim.cli", "run",
                        "--app", APP, "--net", NET, "--scenario", SCENARIO,
                        "--mode", "M3", "--trace", str(out)],
                       env=env, check=True, cwd=tmp_path)
        with open(os.path.join(DATA, "golden_m3.trace"), "rb") as fh:
            assert out.read_bytes() == fh.read()

    @pytest.mark.parametrize("workload, digest", [
        ("flows_steady", "2b185e25a93f4ebb9ec1581d72b20a7c"
                         "ef1e980f589f264491c1ff6069fc0747"),
        ("failover_replan", "24150f4e7fefd56b71cb82c73f93a347"
                            "386c5269dd2b41fb16e8096b6504177f"),
        ("link_churn", "c20d0fd6a9e6641bf71e7193e9717ec9"
                       "4aa4378c021f7d9d2f65e21fbb72f505"),
    ])
    def test_generated_worlds_keep_their_trace_bytes(
            self, tmp_path, monkeypatch, workload, digest):
        """World 0 of benchmark seed 201 of each workload: the SHA-256 of
        its trace, as `perfbench/run.py` prints its first 16 digits."""
        monkeypatch.syspath_prepend(os.path.join(DATA, os.pardir, os.pardir,
                                                 "perfbench"))
        import worldgen
        paths = worldgen.write(workload, 201, 0, str(tmp_path))
        out = tmp_path / "run.trace"
        assert cli.main(["run", "--app", paths["app"], "--net", paths["net"],
                         "--scenario", paths["scenario"],
                         "--mode", worldgen.WORKLOADS[workload].mode,
                         "--trace", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

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

    @pytest.mark.parametrize("reason", ["host down", "unknown host h9"])
    def test_inspect_prints_an_abort_reason_whole(self, tmp_path, capsys,
                                                  reason):
        line = (f"tick=3 host=h1 kind=CMD cmd=Move comp=relay target=h9 "
                f"result=Aborted reason={reason} origin=app")
        out = tmp_path / "aborted.trace"
        out.write_text(line + "\n")
        assert trace.parse_line(line).get("reason") == reason
        assert cli.main(["inspect", "--trace", str(out),
                         "--query", "commands"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"tick=3 cmd=Move comp=relay target=h9 result=Aborted "
            f"reason={reason} origin=app", "app_targeted_applied=0"]

    @pytest.mark.parametrize("query, content, error", [
        ("flows", b"tick=0 host=h1 kind=FLOW conn=k1 op=push seq=x\n",
         "tick 0: FLOW seq 'x' is not an integer"),
        ("qos", b"\xff\xfe\n", "not UTF-8 text"),
        ("flows", b"tick=0 host=h1 kind=FLOW conn=k1 op=push seq=1\n"
                  b"tick=1 host=h1 kind=FLOW op=push seq=2\n",
         "tick 1: FLOW push line has no conn="),
        ("flows", b"tick=0 host=h1 kind=FLOW conn=k1 op=push seq=1\n"
                  b"tick=1 host=h2 kind=FLOW conn=k1 op=deliver sink=b.i "
                  b"seq=1\n"
                  b"tick=2 host=h2 kind=FLOW conn=k1 op=drop seq=1\n",
         "tick 2: FLOW drop line has no sink="),
    ], ids=["non-integer-seq", "not-utf8", "no-conn", "no-sink"])
    def test_inspect_of_a_malformed_trace_is_a_diagnostic(
            self, tmp_path, capsys, query, content, error):
        bad = tmp_path / "bad.trace"
        bad.write_bytes(content)
        assert cli.main(["inspect", "--trace", str(bad),
                         "--query", query]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert error in captured.err and "Traceback" not in captured.err

    def test_a_non_utf8_trace_is_refused_at_its_offset_in_the_file(
            self, tmp_path, capsys):
        # far past the first chunk a text decoder reads
        lines = b"".join(b"tick=%03d host=h1 kind=QOS g=1.00\n" % i
                         for i in range(1000))
        bad = tmp_path / "late.trace"
        bad.write_bytes(lines + b"\xff\n")
        assert len(lines) == 33000 and bad.stat().st_size == 33002
        assert cli.main(["inspect", "--trace", str(bad),
                         "--query", "qos"]) == 1
        err = capsys.readouterr().err
        assert "not UTF-8 text (invalid start byte at byte 33000)" in err

    def test_inspect_reads_each_line_ending(self, tmp_path, capsys):
        out = tmp_path / "endings.trace"
        out.write_bytes(b"tick=0 host=h1 kind=QOS global=0.5\r\n"
                        b"tick=1 host=h1 kind=QOS global=0.6\r"
                        b"tick=2 host=h1 kind=QOS global=0.7\n")
        assert cli.main(["inspect", "--trace", str(out),
                         "--query", "qos"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "tick=0 global=0.5", "tick=1 global=0.6", "tick=2 global=0.7"]

    def test_flow_summary_keeps_each_sink_to_its_own_losses(self):
        lines = ["tick=0 host=h1 kind=FLOW conn=k op=push seq=1",
                 "tick=1 host=h1 kind=FLOW conn=k op=push seq=2",
                 "tick=1 host=h1 kind=FLOW conn=k op=drop sink=b.in seq=1",
                 "tick=1 host=h2 kind=FLOW conn=k op=deliver sink=c.in seq=1",
                 "tick=2 host=h2 kind=FLOW conn=k op=deliver sink=c.in seq=2",
                 "tick=3 host=h2 kind=FLOW conn=k op=deliver sink=c.in seq=2"]
        summary = trace.query_flows([trace.parse_line(l) for l in lines])
        assert summary.splitlines() == [
            "k->b.in: pushed=2 delivered=0 loss=1 reorder=0 dup=0",
            "k->c.in: pushed=2 delivered=3 loss=0 reorder=0 dup=1"]

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


def _without_component(field):
    doc = load(APP)
    del doc["components"][0][field]
    return doc


def _with_first(path, section, field, value):
    doc = load(path)
    doc[section][0][field] = value
    return doc


def _with_link(a, b):
    """net.json with a second link between a and b."""
    doc = load(NET)
    doc["links"].append({"endpoints": [a, b], "latency": 1, "bandwidth": 5.0})
    return doc


def _event(**event):
    """A scenario whose one event, at tick 2, has these fields."""
    return {"duration": 30, "events": [{"at": 2, **event}]}


def _with_variant(field, value):
    doc = load(APP)
    doc["components"][0]["variants"][0][field] = value
    return doc


def _with_battery(change):
    """net.json with h3's battery object changed by `change`."""
    doc = load(NET)
    change(doc["hosts"][2]["power"])
    return doc


@pytest.mark.parametrize("which, doc, diag", [
    ("scenario", {"duration": "x"},
     "scenario: duration must be an integer, not 'x'"),
    ("scenario", {"duration": 30, "seed": 1.5},
     "scenario: seed must be an integer, not 1.5"),
    ("scenario", {"duration": 30, "events": ["oops"]},
     "events[0]: must be an object, not 'oops'"),
    ("scenario", {"duration": 30, "events": 5},
     "scenario: events must be a list, not 5"),
    ("scenario", {"duration": 30, "events": [
        {"at": -1, "kind": "HostLeave", "host": "h2"}]},
     "events[0]: at must be >= 0, not -1"),
    ("app", _with(APP, "components", [1]),
     "components[0]: must be an object, not 1"),
    ("app", _with_component("variants", [{"tier": "Full", "cpu_demand": "x",
                                          "mem_demand": 1.0,
                                          "behavior": "sink"}]),
     "components[0].variants[0]: cpu_demand must be a number, not 'x'"),
    ("app", _with(APP, "connectors", [{"from": "reader.out",
                                       "to": ["relay.in"],
                                       "capacity": None}]),
     "connectors[0]: capacity must be an integer, not None"),
    ("app", _with(APP, "connectors", [{"from": "reader.out",
                                       "to": ["relay.in"], "capacity": 0}]),
     "connectors[0]: capacity must be >= 1, not 0"),
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
     "components[0]: out_ports must be a list of non-empty strings with "
     "no whitespace, not 'out'"),
    ("app", _with_first(APP, "components", "in_ports", ["in", 7]),
     "components[0]: in_ports must be a list of non-empty strings with "
     "no whitespace, not ['in', 7]"),
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
    ("scenario", _event(kind="BatterySet", host="h1", level=1.5),
     "events[0]: level must be in [0, 1], not 1.5"),
    ("scenario", _event(kind="BatterySet", host="h3", level=1.5),
     "events[0]: level must be in [0, 1], not 1.5"),
    ("scenario", _event(kind="SensorReading", host="h3", key="temp",
                        value=1.0, confidence=2.0),
     "events[0]: confidence must be in [0, 1], not 2.0"),
    # out-of-range numbers that `run` took and simulated
    ("net", _with_first(NET, "hosts", "power",
                        {"level": 0.9, "drain_per_tick": -0.05}),
     "hosts[0].power: drain_per_tick must be >= 0, not -0.05"),
    ("app", _with_component("variants", [{"tier": "Full", "cpu_demand": -1,
                                          "mem_demand": 1.0,
                                          "behavior": "source"}]),
     "components[0].variants[0]: cpu_demand must be >= 0, not -1"),
    ("app", _with_component("variants", [{"tier": "Full", "cpu_demand": 1,
                                          "mem_demand": -0.5,
                                          "behavior": "source"}]),
     "components[0].variants[0]: mem_demand must be >= 0, not -0.5"),
    ("app", _with_component("variants", [{"tier": "Full",
                                          "cpu_demand": float("nan"),
                                          "mem_demand": 1.0,
                                          "behavior": "source"}]),
     "components[0].variants[0]: cpu_demand must be >= 0, not nan"),
    ("app", _with(APP, "connectors", [{"from": "reader.out",
                                       "to": ["relay.in"],
                                       "bw_demand": -2}]),
     "connectors[0]: bw_demand must be >= 0, not -2"),
    ("scenario", {"duration": -1}, "scenario: duration must be >= 0, not -1"),
    ("net", _with_first(NET, "hosts", "location", 5),
     "hosts[0]: location must be a list, not 5"),
    ("net", _with_first(NET, "hosts", "location", "lab"),
     "hosts[0]: location must be a list, not 'lab'"),
    # typed fields that `run` coerced: "false" read as up, 2.7 as 2
    ("net", _with_first(NET, "hosts", "up", "false"),
     "hosts[0]: up must be a boolean, not 'false'"),
    ("net", _with_first(NET, "links", "up", "false"),
     "links[0]: up must be a boolean, not 'false'"),
    ("net", _with_first(NET, "links", "latency", 1.5),
     "links[0]: latency must be an integer, not 1.5"),
    ("app", _with_component("listener", "false"),
     "components[0]: listener must be a boolean, not 'false'"),
    ("app", _with_first(APP, "connectors", "capacity", 2.7),
     "connectors[0]: capacity must be an integer, not 2.7"),
    ("app", _with(APP, "connectors", [{"from": "reader.out",
                                       "to": ["relay.in"],
                                       "loss": "KeepLatest",
                                       "capacity": -3}]),
     "connectors[0]: capacity must be >= 1, not -3"),
    # number fields that `run` coerced with float()
    ("net", _with_first(NET, "hosts", "cpu_capacity", "8"),
     "hosts[0]: cpu_capacity must be a number, not '8'"),
    ("net", _with_first(NET, "links", "bandwidth", True),
     "links[0]: bandwidth must be a number, not True"),
    ("app", _with_variant("cpu_demand", "1.5"),
     "components[0].variants[0]: cpu_demand must be a number, not '1.5'"),
    ("app", _with_variant("mem_demand", True),
     "components[0].variants[0]: mem_demand must be a number, not True"),
    ("app", _with_first(APP, "connectors", "bw_demand", "1"),
     "connectors[0]: bw_demand must be a number, not '1'"),
    ("net", _with_first(NET, "hosts", "mem_capacity", False),
     "hosts[0]: mem_capacity must be a number, not False"),
    ("net", _with_battery(lambda p: p.update(level="0.9")),
     "hosts[2].power: level must be a number, not '0.9'"),
    ("net", _with_battery(lambda p: p.update(drain_per_tick=True)),
     "hosts[2].power: drain_per_tick must be a number, not True"),
    # values `run` took as they were
    ("app", _with_variant("tier", "Bogus"),
     "components[0].variants[0]: tier must be one of "
     "['Full', 'LightStd', 'LightMin'], not 'Bogus'"),
    ("app", _with_variant("tier", 5),
     "components[0].variants[0]: tier must be one of "
     "['Full', 'LightStd', 'LightMin'], not 5"),
    ("net", _with_battery(lambda p: p.update(colour="red")),
     "hosts[2].power: unknown field 'colour'"),
    ("net", _with_first(NET, "links", "endpoints", "h1"),
     "links[0]: endpoints must be a list of two host ids, not 'h1'"),
    ("net", _with_first(NET, "links", "endpoints", ["h1", "h2", 3]),
     "links[0]: endpoints must be a list of two host ids, "
     "not ['h1', 'h2', 3]"),
    ("scenario", _event(kind="HostLeave", host="h2", level=0.5),
     "events[0]: unknown field 'level'"),
    ("scenario", _event(kind="SensorReading", host="h3", key="temp",
                        value=1.0, noise=-0.5),
     "events[0]: noise must be >= 0, not -0.5"),
    # reworded: the text of a KeyError was the diagnostic
    ("net", _with_battery(lambda p: p.pop("level")),
     "hosts[2].power: missing 'level'"),
    ("scenario", _event(host="h2"), "events[0]: missing 'kind'"),
    # ids `run` took, whose trace lines `inspect` then split or misread
    ("net", _with_first(NET, "hosts", "id", "h 1"),
     "hosts[0]: id must be non-empty with no whitespace, not 'h 1'"),
    ("net", _with_first(NET, "hosts", "id", ""),
     "hosts[0]: id must be non-empty with no whitespace, not ''"),
    ("app", _with_component("id", "rea der"),
     "components[0]: id must be non-empty with no whitespace, "
     "not 'rea der'"),
    ("app", _with_first(APP, "connectors", "id", "k 1"),
     "connectors[0]: id must be non-empty with no whitespace, not 'k 1'"),
    ("app", _with_component("out_ports", ["o\tut"]),
     "components[0]: out_ports must be a list of non-empty strings with "
     "no whitespace, not ['o\\tut']"),
    ("app", _with_first(APP, "components", "in_ports", [""]),
     "components[0]: in_ports must be a list of non-empty strings with "
     "no whitespace, not ['']"),
    # no initial host: `validate` and `run` refused it at deploy time
    ("app", _without_component("initial_host"),
     "components[0]: missing 'initial_host'"),
    ("app", _with_component("initial_host", ""),
     "components[0]: initial_host must be non-empty with no whitespace, "
     "not ''"),
    # events that `run` fired as nothing
    ("scenario", _event(kind="HostLeave", host="h9"),
     "events[0]: host 'h9' is not in the net"),
    ("scenario", _event(kind="SensorReading", host="h9", key="temp"),
     "events[0]: host 'h9' is not in the net"),
    ("scenario", _event(kind="LinkDown", endpoints=["h1", "h9"]),
     "events[0]: link h1-h9 is not in the net"),
    ("scenario", _event(kind="LinkUp", endpoints=["h1", "h1"]),
     "events[0]: link h1-h1 is not in the net"),
    # the last tick run is duration - 1: an event at duration never fired
    ("scenario", {"duration": 5, "events": [
        {"at": 5, "kind": "HostLeave", "host": "h2"}]},
     "events[0]: tick 5 beyond duration 5"),
    # ranges only a table states
    ("net", _with_first(NET, "hosts", "cpu_capacity", 0),
     "hosts[0]: cpu_capacity must be > 0, not 0"),
    ("net", _with_first(NET, "links", "latency", -1),
     "links[0]: latency must be >= 0, not -1"),
    ("net", _with_first(NET, "links", "bandwidth", 0),
     "links[0]: bandwidth must be > 0, not 0"),
    ("net", _with_battery(lambda p: p.update(level=1.5)),
     "hosts[2].power: level must be in [0, 1], not 1.5"),
    # documents that raised out of the reader
    pytest.param("app", b"\xff{}", "app.json: not UTF-8 text (invalid start "
                 "byte at byte 0)", id="app-not-utf8"),
    pytest.param("app", b"[" * 200_000 + b"]" * 200_000,
                 "app.json: nested too deeply to read", id="app-too-deep"),
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
        # a document that cannot be read is refused on stderr, as a JSON
        # syntax error is; a read one's diagnostics go to stdout
        out, err = capsys.readouterr()
        assert diag in (err if isinstance(doc, bytes) else out)
        assert "Traceback" not in err


def test_an_unknown_behavior_is_a_diagnostic(tmp_path, capsys):
    """`validate` passed it, and `run` raised out of `World.step`;
    `aggregator` is no longer a registered behaviour."""
    for name in ("nosuch", "aggregator"):
        doc = load(APP)
        doc["components"][1]["variants"][0]["behavior"] = name
        app = write(tmp_path, "app.json", doc)
        diag = ("components[1].variants[0]: behavior must be one of [",
                f"], not {name!r}")
        for argv in (["validate"], ["run", "--scenario", SCENARIO, "--trace",
                                    str(tmp_path / "run.trace")]):
            assert cli.main(argv + ["--app", app, "--net", NET]) == 1
            captured = capsys.readouterr()
            assert all(part in captured.out for part in diag)
            assert "Traceback" not in captured.err


@pytest.mark.parametrize("event, diag", [
    ({"kind": "SensorReading", "host": "h3", "key": "", "value": 1.0},
     "events[0]: key must be non-empty, not ''"),
    ({"kind": "UserProfile", "host": "h1", "key": "user.mode",
      "value": "mobile", "owner": ""},
     "events[0]: owner must be non-empty, not ''"),
], ids=["key", "owner"])
def test_an_empty_context_key_or_owner_is_a_diagnostic(tmp_path, capsys,
                                                       event, diag):
    """Both parsed, and `run` raised out of `World.step`."""
    sc = write(tmp_path, "sc.json",
               {"duration": 30, "events": [{"at": 2, **event}]})
    assert cli.main(["run", "--app", APP, "--net", NET, "--scenario", sc,
                     "--trace", str(tmp_path / "run.trace")]) == 1
    captured = capsys.readouterr()
    assert diag in captured.out
    assert "Traceback" not in captured.err


def test_validate_refuses_what_run_cannot_deploy(tmp_path, capsys):
    """`validate` passed a net whose host under a component is down, and
    `run` refused it at deploy time; both now refuse it."""
    doc = load(NET)
    doc["hosts"][1]["up"] = False
    net = write(tmp_path, "net.json", doc)
    for argv in (["validate"], ["run", "--scenario", SCENARIO, "--trace",
                                str(tmp_path / "run.trace")]):
        assert cli.main(argv + ["--app", APP, "--net", net]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "cannot deploy relay on h2: host down\n"


@pytest.mark.parametrize("a, b", [("h1", "h2"), ("h2", "h1")])
def test_a_duplicate_link_is_refused_at_deploy(tmp_path, capsys, a, b):
    """The pair is unordered."""
    net = write(tmp_path, "net.json", _with_link(a, b))
    for argv in (["validate"], ["run", "--scenario", SCENARIO, "--trace",
                                str(tmp_path / "run.trace")]):
        assert cli.main(argv + ["--app", APP, "--net", net]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "net: duplicate link h1-h2\n"


def test_every_refusal_of_a_pair_is_reported_in_document_order(tmp_path,
                                                                capsys):
    """One line per refused record; `build_world` used to stop at the
    first.  k3 touches `lost`, which the world does not hold, so it is
    not reported again."""
    app, net = load(APP), load(NET)
    app["components"] += [
        dict(app["components"][0], id="lost", initial_host="h9"),
        dict(app["components"][2], id="fussy", initial_host="h3")]
    app["connectors"].append({"id": "k3", "from": "lost.out",
                              "to": ["fussy.in"]})
    net["links"] += [{"endpoints": ["h2", "h1"]},
                     {"endpoints": ["h3", "h9"]}]
    docs = ["--app", write(tmp_path, "app.json", app),
            "--net", write(tmp_path, "net.json", net)]
    for argv in (["validate"], ["run", "--scenario", SCENARIO, "--trace",
                                str(tmp_path / "run.trace")]):
        assert cli.main(argv + docs) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "net: duplicate link h1-h2",
            "net: link endpoint h9 unknown",
            "cannot deploy lost on h9: unknown host h9",
            "cannot deploy fussy on h3: no variant for LightStd"]


class TestBuildWorld:
    def test_bootstrap_leaves_no_trace(self):
        app, _ = descriptors.parse_app(load(APP))
        net, _ = descriptors.parse_net(load(NET))
        w = cli.build_world(app, net)
        assert w.trace_lines == []
        assert all(lines == [] for _, lines in w._filed)
        assert w.coordinator.host == "h1"    # first full-tier host
        assert set(w.model.components) == {"reader", "relay", "writer"}

    def test_worlds_from_one_parse_run_apart(self):
        """Each world holds its own host records: running one changes
        neither the parse nor another world built from it."""
        def parse():
            return (descriptors.parse_app(load(APP))[0],
                    descriptors.parse_net(load(NET))[0])

        def run(world):
            for ev in scenario.events:
                world.schedule(ev)
            world.run(scenario.duration)
            return world.trace_lines

        scenario, _ = descriptors.parse_scenario(load(SCENARIO))
        app, net = parse()
        parsed = copy.deepcopy(net)
        first, second = (cli.build_world(app, net, seed=scenario.seed)
                         for _ in range(2))
        run(first)
        assert net == parsed
        assert run(second) == run(cli.build_world(*parse(),
                                                  seed=scenario.seed))

    def test_a_host_record_joins_one_world(self):
        net, _ = descriptors.parse_net(load(NET))
        World().add_host(net.hosts[0])
        with pytest.raises(ValidationError, match="another world"):
            World().add_host(net.hosts[0])

    def test_undeployable_app_is_rejected(self):
        app, _ = descriptors.parse_app(load(APP))
        net, _ = descriptors.parse_net(load(NET))
        app.components[2] = dataclasses.replace(
            app.components[2], initial_host="h3")
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
