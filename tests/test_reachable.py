"""Every `src/adaptsim` function a run enters, or a pinned reason why not.

A fresh interpreter sets `sys.settrace` before it imports adaptsim, so
calls made at import count, and makes these runs:
- `adaptsim run` over tests/data in M1-M4, once as shipped and once with
  h1, the coordinator's host, away from tick 10 to tick 22;
- `validate` over tests/data;
- each `inspect` query over the M3 trace;
- `adaptsim run` over world 0 of seed 201 of each benchmark workload, in
  the workload's mode (the generator is imported read-only).
It lists every function of `src/adaptsim` never entered, as
`module:qualname`: nested functions count, lambdas and comprehensions do
not, so the list reads the same on every supported Python.

The list must equal PIN, whose entries each say why the function stays
and which roadmap item will reach it.  The pin only shrinks: a change
that reaches a pinned function drops it, and a function no run reaches
is deleted or wired into a decision.  `python tests/test_reachable.py`
prints the current list in PIN's format.
"""

import ast
import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
from types import CodeType

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "tests", "data")

PIN = {
    "adaptation:Infeasible.__repr__":
        "item 6: names the INFEASIBLE sentinel in a decision record",
    "adaptation:select_deployment.<locals>.best":
        "item 3: greedy; no run's space exceeds EXHAUSTIVE_LIMIT",
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
    "kernel:_Abort.__init__":
        "item 12: rollback; no command in a run aborts",
    "kernel:_exec_disconnect":
        "item 10: Disconnect, a command no run submits",
    "kernel:_exec_remove":
        "item 10: Remove, a command no run submits",
    "kernel:_exec_replace":
        "item 10: ReplaceBusiness, a command no run submits",
    "kernel:aborted":
        "item 12: rollback; no command in a run aborts",
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
    "simnet:World.runtime_restore":
        "item 12: rollback; no command in a run aborts",
    "store:ContextQuery.__post_init__":
        "items 7 and 10: the context store's query path",
    "store:ContextStore._matches":
        "items 7 and 10: the context store's query path",
    "store:ContextStore.all_objects":
        "items 7 and 10: the context store's query path",
    "store:ContextStore.history":
        "items 7 and 10: the context store's query path",
    "store:ContextStore.query":
        "items 7 and 10: the context store's query path",
}


def _functions(code: CodeType, prefix: str):
    """(qualname, code) of each function defined within `code`."""
    for const in code.co_consts:
        if type(const) is not CodeType or const.co_name.startswith("<"):
            continue                    # a lambda or a comprehension
        name = prefix + const.co_name
        if const.co_flags & inspect.CO_OPTIMIZED:   # not a class body
            yield name, const
            yield from _functions(const, name + ".<locals>.")
        else:
            yield from _functions(const, name + ".")


def _runs(tmp: str) -> None:
    """The runs whose calls count, each to exit 0; adaptsim is imported
    here, so the calls made at import count too."""
    from adaptsim import cli, trace
    import worldgen

    def main(*argv):
        if cli.main(list(argv)) != 0:
            raise SystemExit(f"adaptsim {' '.join(argv)}: nonzero exit")

    app, net, shipped = (os.path.join(DATA, f"{name}.json")
                         for name in ("app", "net", "scenario"))
    with open(shipped) as fh:
        scenario = json.load(fh)
    away = os.path.join(tmp, "away.json")
    with open(away, "w") as fh:
        json.dump(dict(scenario, events=sorted(scenario["events"] + [
            {"at": 10, "kind": "HostLeave", "host": "h1"},
            {"at": 22, "kind": "HostJoin", "host": "h1"}],
            key=lambda e: e["at"])), fh)
    for name, sc in (("shipped", shipped), ("away", away)):
        for mode in ("M1", "M2", "M3", "M4"):
            main("run", "--app", app, "--net", net, "--scenario", sc,
                 "--mode", mode,
                 "--trace", os.path.join(tmp, f"{name}-{mode}.trace"))
    main("validate", "--app", app, "--net", net)
    for query in sorted(trace.QUERIES):
        main("inspect", "--trace", os.path.join(tmp, "shipped-M3.trace"),
             "--query", query)
    for workload, w in sorted(worldgen.WORKLOADS.items()):
        paths = worldgen.write(workload, 201, 0, os.path.join(tmp, workload))
        main("run", "--app", paths["app"], "--net", paths["net"],
             "--scenario", paths["scenario"], "--mode", w.mode,
             "--trace", os.path.join(tmp, f"{workload}.trace"))


def unreached() -> list:
    """module:qualname of each src/adaptsim function the runs never
    enter; call it in an interpreter that has not imported adaptsim."""
    sys.path[:0] = [os.path.join(ROOT, "src"),
                    os.path.join(ROOT, "perfbench")]
    entered = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    sys.settrace(tracer)
    try:
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()):
            _runs(tmp)
    finally:
        sys.settrace(None)
    import adaptsim
    src = os.path.dirname(adaptsim.__file__)
    names = []
    for file in sorted(os.listdir(src)):
        if not file.endswith(".py"):
            continue
        path = os.path.join(src, file)
        with open(path) as fh:
            module = compile(fh.read(), path, "exec")
        names += [f"{file[:-3]}:{name}"
                  for name, code in _functions(module, "")
                  if (path, code.co_firstlineno, code.co_name)
                  not in entered]
    return sorted(names)


def test_the_unreached_functions_are_the_pinned_ones():
    probe = subprocess.run([sys.executable, os.path.abspath(__file__)],
                           capture_output=True, text=True, timeout=120)
    assert probe.returncode == 0, probe.stderr
    now = set(ast.literal_eval("{" + probe.stdout + "}"))
    newly, reached = sorted(now - PIN.keys()), sorted(PIN.keys() - now)
    assert not newly and not reached, (
        f"newly unreached (delete it or wire it into a decision): {newly}; "
        f"now reached (drop it from PIN): {reached}")


if __name__ == "__main__":
    for name in unreached():        # a new entry's reason is left blank
        print(f"    {json.dumps(name)}:\n"
              f"        {json.dumps(PIN.get(name, ''))},")
