"""Every `src/adaptsim` function and statement a run reaches, or a pinned
count of what it does not.

A fresh interpreter sets `sys.settrace` before it imports adaptsim, so
calls made at import count, and makes these runs:
- `adaptsim run` over tests/data in M1-M4, once as shipped and once with
  h1, the coordinator's host, away from tick 10 to tick 22;
- `validate` over tests/data;
- each `inspect` query over the M3 trace, and `--query commands` over
  a trace whose one line is a command aborted for a reason of several
  words;
- `adaptsim run` over world 0 of seed 201 of each benchmark workload, in
  the workload's mode (the generator is imported read-only);
- a run that ends with no feasible deployment, exiting 2;
- one bad document per diagnostic family (`_refused`), an unreadable
  descriptor and an unwritable trace, each refused with its exit code.
It traces calls everywhere and lines in `src/adaptsim`, and lists:
- every function of `src/adaptsim` never entered, as `module:qualname`:
  nested functions count, lambdas and comprehensions do not;
- for each function entered, the number of statements of its body that
  never run, read from the source's syntax tree (see `_statements`), not
  from the bytecode, so both lists read the same on every supported
  Python.

The lists must equal PIN, whose entries each say why the function stays
and which roadmap item will reach it, and LINE_PIN.  Both only shrink: a
change that reaches a pinned function or statement lowers the pin, and
code no run reaches is deleted or wired into a decision.
`python tests/test_reachable.py` prints both lists in the pins' format,
each LINE_PIN entry with the first line of each statement that never
runs in a comment, and each list's totals in a comment after it.
"""

import ast
import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "tests", "data")

PIN = {
    "adaptation:Infeasible.__repr__":
        "item 6: names the INFEASIBLE sentinel in a decision record",
    "behaviors:_counter":
        "item 12: the stateful behaviour the migration and plan tests move",
    "connector:ConnectorInstance.drain":
        "item 12: live migration; every Move in a run is a recovery",
    "connector:ConnectorInstance.refill":
        "item 12: live migration; every Move in a run is a recovery",
    "container:ContainerInstance._consume_events":
        "item 10: a listener's QoSAlert; no run has a listener",
    "container:ContainerInstance.deliver_event":
        "item 10: a listener's QoSAlert; no run has a listener",
    "container:ContainerInstance.pending_events":
        "item 12: a live Move carries the queued events",
    "container:ContainerInstance.restore":
        "item 12: live migration; every Move in a run is a recovery",
    "container:ContainerInstance.set_variant":
        "item 10: ReplaceBusiness, a command no run submits",
    "container:ContainerInstance.snapshot":
        "item 12: live migration; every Move in a run is a recovery",
    "container:ContainerInstance.unbind":
        "item 10: Disconnect, a command no run submits",
    "context:ValidityPolicy.__post_init__":
        "items 7 and 10: the validity filter of a context query",
    "context:effective_confidence":
        "items 7 and 10: the validity filter of a context query",
    "context:freshness":
        "items 7 and 10: the validity filter of a context query",
    "context:is_valid":
        "items 7 and 10: the validity filter of a context query",
    "errors:LifecycleError.__init__":
        "item 12: refuses an illegal transition or a bad snapshot",
    "errors:ServiceUnavailable.__init__":
        "items 7 and 10: a tier refuses a service (acceptance 08)",
    "kernel:ArchitectureModel.canonical":
        "the oracle of perfbench's check_tick and of acceptance 01",
    "kernel:_exec_disconnect":
        "item 10: Disconnect, a command no run submits",
    "kernel:_exec_remove":
        "item 10: Remove, a command no run submits",
    "kernel:_exec_replace":
        "item 10: ReplaceBusiness, a command no run submits",
    "kernel:nearest_full_neighbor":
        "item 10: a LightMin host delegates (acceptance 08)",
    "kernel:neighbors":
        "item 10: a LightMin host's route; the traced benchmark wraps it",
    "kernel:service_call":
        "items 7 and 10: platform services; Persistence is acceptance 08's",
    "simnet:PlatformApi.service_call":
        "items 7 and 10: a behaviour calls a platform service",
    "simnet:PlatformApi.submit_command":
        "item 10: a behaviour submits a command",
    "store:ContextQuery.__post_init__":
        "items 7 and 10: the context store's query path",
    "store:ContextStore.all_objects":
        "items 7 and 10: the context store's query path",
    "store:ContextStore.history":
        "items 7 and 10: the context store's query path",
    "store:ContextStore.query":
        "items 7 and 10: the context store's query path",
}


LINE_PIN = {
    "adaptation:Coordinator.__init__": 1,
    "adaptation:Coordinator._plan_and_apply": 2,
    "adaptation:_link_fit": 1,
    "adaptation:_obs_path": 1,
    "adaptation:_obs_routes": 1,
    "adaptation:_report": 1,
    "adaptation:_terms": 1,
    "adaptation:affected_components": 1,
    "adaptation:select_deployment": 2,
    "connector:ConnectorInstance.__init__": 1,
    "connector:ConnectorInstance.pull": 1,
    "connector:ConnectorInstance.push": 2,
    "container:ContainerInstance.process_step": 6,
    "container:ContainerInstance.transition": 1,
    "kernel:_cmd_args": 7,
    "kernel:_exec_move": 19,
    "kernel:_execute": 6,
    "kernel:_scope": 5,
    "kernel:apply_now": 2,
    "kernel:emit_event": 2,
    "kernel:route": 4,
    "simnet:World._context_event": 1,
    "simnet:World._fire": 9,
    "simnet:World._hold": 1,
    "simnet:World._host_leave": 1,
    "simnet:World._routed": 1,
    "simnet:World.schedule": 2,
    "simnet:World.step": 9,
    "trace:flow_summary": 4,
    "trace:query_events": 1,
}


def _children(stmt) -> list:
    """The statements nested directly in `stmt`."""
    nested = [*getattr(stmt, "body", ()), *getattr(stmt, "orelse", ()),
              *getattr(stmt, "finalbody", ())]
    for handler in getattr(stmt, "handlers", ()):
        nested += handler.body
    return nested


_SCOPES = (ast.FunctionDef, ast.ClassDef)


def _functions(body: list, prefix: str):
    """(qualname, node) of each function defined in `body`, nested ones
    included; a lambda is an expression, so it has none."""
    for stmt in body:
        if isinstance(stmt, ast.ClassDef):
            yield from _functions(stmt.body, f"{prefix}{stmt.name}.")
        elif isinstance(stmt, ast.FunctionDef):
            yield prefix + stmt.name, stmt
            yield from _functions(stmt.body, f"{prefix}{stmt.name}.<locals>.")
        else:
            yield from _functions(_children(stmt), prefix)


def _first_line(stmt) -> int:
    """A statement's first line; a decorated function's code starts at
    its first decorator."""
    return min([d.lineno for d in getattr(stmt, "decorator_list", ())]
               + [stmt.lineno])


def _statements(body: list):
    """The lines of each statement in `body`, nested ones included.

    A compound statement's lines are its header's, up to its first nested
    statement, and a nested function or class counts as one statement of
    its decorators and header.  A `try` and a constant expression (a
    docstring) run no code of their own, so they have no lines.
    """
    for stmt in body:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value,
                                                     ast.Constant):
            continue
        if not isinstance(stmt, ast.Try):
            first = _first_line(stmt)
            last = (_first_line(stmt.body[0]) - 1 if hasattr(stmt, "body")
                    else stmt.end_lineno)
            yield range(first, max(first, last) + 1)
        if not isinstance(stmt, _SCOPES):
            yield from _statements(_children(stmt))


def _set(doc, value, *keys):
    """A copy of the JSON document `doc` whose field at `keys` is
    `value`."""
    doc = copy.deepcopy(doc)
    inner = doc
    for key in keys[:-1]:
        inner = inner[key]
    inner[keys[-1]] = value
    return doc


def _refused(app: dict, net: dict, scenario: dict) -> list:
    """(commands, documents) of one bad document per diagnostic family:
    each command, run with these documents in place of the shipped ones,
    exits 1.  A document is JSON, or the text or bytes of its file."""
    host, link = net["hosts"][0], net["links"][0]
    apart = [*app["components"],
             dict(app["components"][0]),                # duplicate id
             dict(app["components"][0], id="lost", initial_host="h9"),
             dict(app["components"][2], id="fussy", initial_host="h3"),
             dict(app["components"][1], id="spare", initial_host="h1")]
    # each refused by the kernel, but k9: it touches `lost`, which the
    # world refused, so build_world skips it; the last is unnamed, so the
    # parse names it k10
    wired = [*app["connectors"],
             {"id": "k3", "from": "ghost.out", "to": ["relay.nope"]},
             {"id": "k4", "from": "reader.nope", "to": ["ghost.in"]},
             {"id": "k5", "from": "reader.out", "to": ["spare.in"]},
             {"id": "k6", "from": "spare.out", "to": ["ghost.in"]},
             {"id": "k7", "from": "spare.out", "to": ["relay.nope"]},
             {"id": "k8", "from": "spare.out", "to": ["relay.in"]},
             {"id": "k1", "from": "reader.out", "to": ["relay.in"]},
             {"id": "k9", "from": "lost.out", "to": ["spare.in"]},
             {"from": "ghost.out", "to": ["spare.in"]}]
    validated = ("validate", "run")
    return [
        (validated, {"net": "{nope"}),                          # syntax
        (validated, {"app": _set(app, [1], "components", 0)}),  # no object
        (validated, {"app": _set(app, "red", "components", 0, "colour")}),
        (validated, {"net": _set(net, {"id": "h1"}, "hosts", 0)}),  # missing
        (validated, {"app": _set(app, 5, "components")}),       # no list
        (validated, {"net": _set(net, "Huge", "hosts", 0, "tier")}),
        (validated, {"net": _set(net, "Solar", "hosts", 0, "power")}),
        (validated, {"net": _set(net, -1, "links", 0, "latency")}),  # range
        (validated, {"net": _set(net, ["h1", "h1"], "links", 0,
                                 "endpoints")}),        # a record refused
        (validated, {"app": _set(app, [], "components", 0,
                                 "variants")}),         # no variant
        (validated, {"app": _set(app, ["out"], "components", 1,
                                 "in_ports")}),         # a port named twice
        # across: each refusal of a host, a link, an Add and a Connect
        # that build_world reports
        (validated, {"app": dict(app, components=apart, connectors=wired),
                     "net": dict(net, hosts=[*net["hosts"], host], links=[
                         *net["links"], dict(link, endpoints=["h2", "h1"]),
                         dict(link, endpoints=["h1", "h9"])])}),
        (validated, {"net": _set(net, False, "hosts", 1, "up")}),  # deploy
        (("run",), {"scenario": _set(scenario, "x", "duration")}),   # type
        (("run",), {"scenario": _set(scenario, 99, "events", 0, "at")}),
        (("run",), {"scenario": _set(scenario, [
            {"at": 2, "kind": "HostLeave", "host": "h9"},
            {"at": 3, "kind": "LinkDown", "endpoints": ["h1", "h9"]}],
            "events")}),                        # no such host or link
        (("inspect",), {"trace": "tick=0 host=h1 kind=QOS\nnope\n"}),
        (("inspect",), {"trace": "tick=0 host=h1 kind=FLOW seq=x\n"}),
        (("inspect",), {"trace": b"tick=0 host=h1 \xff\n"}),
        (validated, {"net": b"\xff{}"}),                        # not UTF-8
        (validated, {"app": "[" * 200_000 + "]" * 200_000}),    # too deep
        (("inspect",), {"trace": "tick=0 host=h1 kind=FLOW op=push seq=1\n"}),
        (("inspect",), {"trace": "tick=0 host=h1 kind=FLOW conn=k op=drop "
                                 "seq=1\n"}),
    ]


def _runs(tmp: str) -> None:
    """The runs whose calls count, each to its exit code; adaptsim is
    imported here, so the calls made at import count too."""
    from adaptsim import cli, trace
    import worldgen

    def main(code, *argv):
        if cli.main(list(argv)) != code:
            raise SystemExit(f"adaptsim {' '.join(argv)}: exit is not {code}")

    shipped = {name: os.path.join(DATA, f"{name}.json")
               for name in ("app", "net", "scenario")}
    app, net = shipped["app"], shipped["net"]
    docs = {}
    for name, path in shipped.items():
        with open(path) as fh:
            docs[name] = json.load(fh)
    scenario = docs["scenario"]
    away = os.path.join(tmp, "away.json")
    with open(away, "w") as fh:
        json.dump(dict(scenario, events=sorted(scenario["events"] + [
            {"at": 10, "kind": "HostLeave", "host": "h1"},
            {"at": 22, "kind": "HostJoin", "host": "h1"}],
            key=lambda e: e["at"])), fh)
    for name, sc in (("shipped", shipped["scenario"]), ("away", away)):
        for mode in ("M1", "M2", "M3", "M4"):
            main(0, "run", "--app", app, "--net", net, "--scenario", sc,
                 "--mode", mode,
                 "--trace", os.path.join(tmp, f"{name}-{mode}.trace"))
    main(0, "validate", "--app", app, "--net", net)
    for query in sorted(trace.QUERIES):
        main(0, "inspect", "--trace", os.path.join(tmp, "shipped-M3.trace"),
             "--query", query)
    # no run aborts a command: an abort reason of several words
    aborted = os.path.join(tmp, "aborted.trace")
    with open(aborted, "w") as fh:
        fh.write("tick=3 host=h1 kind=CMD cmd=Move comp=relay target=h9 "
                 "result=Aborted reason=unknown host h9 origin=app\n")
    main(0, "inspect", "--trace", aborted, "--query", "commands")
    for workload, w in sorted(worldgen.WORKLOADS.items()):
        paths = worldgen.write(workload, 201, 0, os.path.join(tmp, workload))
        main(0, "run", "--app", paths["app"], "--net", paths["net"],
             "--scenario", paths["scenario"], "--mode", w.mode,
             "--trace", os.path.join(tmp, f"{workload}.trace"))
    # "probe" runs only on the light tier, and its one light host leaves
    infeasible = {
        "app": {"components": [
            {"id": "probe", "variants": [{"tier": "LightStd",
                                          "cpu_demand": 0.5,
                                          "mem_demand": 0.5,
                                          "behavior": "sink"}],
             "initial_host": "h2"}]},
        "net": {"hosts": [
            {"id": "h1", "tier": "Full", "cpu_capacity": 4.0,
             "mem_capacity": 4.0},
            {"id": "h2", "tier": "LightStd", "cpu_capacity": 4.0,
             "mem_capacity": 4.0}],
            "links": [{"endpoints": ["h1", "h2"]}]},
        "scenario": {"duration": 10, "events": [
            {"at": 2, "kind": "HostLeave", "host": "h2"}]}}
    paths = {}
    for name, doc in infeasible.items():
        paths[name] = os.path.join(tmp, f"infeasible-{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(doc, fh)
    main(2, "run", "--app", paths["app"], "--net", paths["net"],
         "--scenario", paths["scenario"],
         "--trace", os.path.join(tmp, "infeasible.trace"))
    absent = os.path.join(tmp, "absent", "x")
    main(1, "validate", "--app", absent, "--net", net)
    main(2, "run", "--app", app, "--net", net, "--scenario",
         shipped["scenario"], "--trace", absent)
    for i, (commands, bad) in enumerate(_refused(**docs)):
        paths = dict(shipped, trace=os.path.join(tmp, f"bad{i}.trace"))
        for name, doc in bad.items():
            paths[name] = os.path.join(tmp, f"bad{i}-{name}")
            if type(doc) is dict:
                doc = json.dumps(doc)
            if type(doc) is str:
                doc = doc.encode()
            with open(paths[name], "wb") as fh:
                fh.write(doc)
        for command in commands:
            argv = {"validate": ("--app", paths["app"], "--net", paths["net"]),
                    "run": ("--app", paths["app"], "--net", paths["net"],
                            "--scenario", paths["scenario"],
                            "--trace", paths["trace"]),
                    "inspect": ("--trace", paths["trace"], "--query",
                                "flows")}[command]
            main(1, command, *argv)


def unreached() -> tuple:
    """(module:qualname of each src/adaptsim function the runs never
    enter, {module:qualname: lines} of each function they enter whose
    body holds statements that never run, each by its first line); call
    it in an interpreter that has not imported adaptsim."""
    src = os.path.join(ROOT, "src", "adaptsim")
    sys.path[:0] = [os.path.dirname(src), os.path.join(ROOT, "perfbench")]
    entered, ran = set(), set()

    def lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def tracer(frame, event, arg):
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))
        return lines if code.co_filename.startswith(src) else None

    sys.settrace(tracer)
    try:
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            _runs(tmp)
    finally:
        sys.settrace(None)
    names, missed = [], {}
    for file in sorted(os.listdir(src)):
        if not file.endswith(".py"):
            continue
        path = os.path.join(src, file)
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for name, node in _functions(tree.body, f"{file[:-3]}:"):
            if (path, _first_line(node), node.name) not in entered:
                names.append(name)
                continue
            lines = [span[0] for span in _statements(node.body)
                     if not any((path, n) in ran for n in span)]
            if lines:
                missed[name] = lines
    return sorted(names), dict(sorted(missed.items()))


def test_the_unreached_functions_are_the_pinned_ones():
    probe = subprocess.run([sys.executable, os.path.abspath(__file__)],
                           capture_output=True, text=True, timeout=120)
    assert probe.returncode == 0, probe.stderr
    now = {assign.targets[0].id: ast.literal_eval(assign.value)
           for assign in ast.parse(probe.stdout).body}
    newly, reached = (sorted(now["PIN"].keys() - PIN.keys()),
                      sorted(PIN.keys() - now["PIN"].keys()))
    assert not newly and not reached, (
        f"newly unreached (delete it or wire it into a decision): {newly}; "
        f"now reached (drop it from PIN): {reached}")
    rose = sorted(name for name, n in now["LINE_PIN"].items()
                  if n > LINE_PIN.get(name, 0))
    assert not rose, ("more statements never run (delete them or wire "
                      f"them into a decision): {rose}")
    assert now["LINE_PIN"] == LINE_PIN, (
        f"fewer statements never run: lower LINE_PIN to {now['LINE_PIN']}")


if __name__ == "__main__":
    names, missed = unreached()
    print("PIN = {")
    for name in names:              # a new entry's reason is left blank
        print(f"    {json.dumps(name)}:\n"
              f"        {json.dumps(PIN.get(name, ''))},")
    print(f"}}  # {len(names)} functions")
    print("LINE_PIN = {")
    for name, lines in missed.items():
        print(f"    {json.dumps(name)}: {len(lines)},  "
              f"# lines {', '.join(map(str, lines))}")
    print(f"}}  # {sum(map(len, missed.values()))} statements in "
          f"{len(missed)} functions")
