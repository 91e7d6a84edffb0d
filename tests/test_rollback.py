"""Command rollback: a command that fails at any step leaves the world as
it found it, in the same objects, and the checkpoint covers only what the
command can touch."""

import itertools
import random

import pytest

from adaptsim import kernel
from adaptsim.connector import ConnectorInstance, Endpoint, FlowPolicy
from adaptsim.container import (ComponentDescriptor, ContainerInstance,
                                Lifecycle, Variant)
from adaptsim.kernel import (Add, Connect, Disconnect, HostDescriptor,
                             HostTier, Move, Remove, ReplaceBusiness,
                             reconstruct_model)
from adaptsim.simnet import World

# every call that writes runtime state inside a command
FAULT_POINTS = [(ContainerInstance, "transition"),
                (ContainerInstance, "restore"),
                (ConnectorInstance, "drain"),
                (ConnectorInstance, "refill"),
                (kernel, "_sync_model_component"),
                (kernel, "ModelConnector")]


def desc(cid, ins=(), outs=(), behavior="identity"):
    return ComponentDescriptor(
        id=cid, in_ports=tuple(ins), out_ports=tuple(outs),
        variants=(Variant("Full", 1.0, 1.0, behavior),
                  Variant("LightStd", 0.5, 0.5, behavior)))


def connect(kid, src, *sinks):
    return Connect(kid, Endpoint(*src.split(".")),
                   tuple(Endpoint(*s.split(".")) for s in sinks),
                   FlowPolicy())


HOSTS = ["h1", "h2", "h3", "h4"]


def busy_world(unrelated=0):
    """h1-h2-h3-h4 in a line (latency 2) plus h4-h1, with a running
    src -> mid -> snk chain whose connectors hold samples in flight, a
    running component without ports, and an unconnected pair, one of
    which follows mid on h2."""
    w = World(seed=3)
    for hid in HOSTS:
        w.add_host(HostDescriptor(id=hid, tier=HostTier.FULL,
                                  cpu_capacity=64.0, mem_capacity=64.0))
    for a, b in (("h1", "h2"), ("h2", "h3"), ("h3", "h4"), ("h1", "h4")):
        w.add_link(a, b, latency=2)
    setup = [Add(desc("src", outs=("o",), behavior="source"), "h1"),
             Add(desc("mid", ins=("i",), outs=("o",),
                      behavior="counter"), "h2"),
             Add(desc("snk", ins=("i",), behavior="sink"), "h3"),
             Add(desc("lone", behavior="counter"), "h4"),
             Add(desc("a", outs=("o",), behavior="source"), "h4"),
             Add(desc("b", ins=("i",), behavior="sink"), "h2"),
             connect("k1", "src.o", "mid.i"),
             connect("k2", "mid.o", "snk.i")]
    for i in range(unrelated):
        setup += [Add(desc(f"u{i}", outs=("o",), behavior="source"),
                      f"h{i % 4 + 1}"),
                  Add(desc(f"v{i}", ins=("i",), behavior="sink"),
                      f"h{(i + 1) % 4 + 1}"),
                  connect(f"ku{i}", f"u{i}.o", f"v{i}.i")]
    for cmd in setup:
        assert kernel.apply_now(w, cmd).applied
    w.run(7)
    return w


COMMANDS = {
    "add": Add(desc("new", ins=("i",)), "h4"),
    "remove": Remove("lone"),
    "move": Move("mid", "h4"),
    "move_from_down_host": Move("mid", "h4"),
    "move_connected": Move("b", "h3"),
    "connect": connect("k3", "a.o", "b.i"),
    "disconnect": Disconnect("k2"),
    "replace_behavior": ReplaceBusiness("mid", behavior="identity"),
    "replace_tier": ReplaceBusiness("mid", tier="LightStd"),
}


def prepared(name, unrelated=0):
    w = busy_world(unrelated)
    if name == "move_from_down_host":
        w.hosts["h2"].desc.up = False
    return w


def extract(w):
    """Every piece of runtime state a command may write, as plain values;
    lists keep the order of each map."""
    containers = {
        hid: [(cid, c.lifecycle, c.active_variant, c.state, c.fault,
               {p: list(v) for p, v in c.buffered_inputs.items()},
               c.pending_events(),
               {p: k.id for p, k in c.input_bindings.items()},
               {p: k.id for p, k in c.output_bindings.items()})
              for cid, c in h.containers.items()]
        for hid, h in w.hosts.items()}
    connectors = {
        kid: ({str(s): [(e.sample.seq, e.sample.payload,
                         e.sample.produced_at, e.available_at, e.path)
                        for e in q] for s, q in k._queues.items()},
              k._seq, k.pushed_count, k.delivered_count,
              k._delivered_window, k.source, list(k.sinks), k.policy)
        for kid, k in w.connectors.items()}
    return {"containers": containers, "connectors": connectors,
            "sources": {hid: sorted(h.connector_sources)
                        for hid, h in w.hosts.items()},
            "component_host": list(w.component_host.items()),
            "descriptors": list(w.descriptors.items()),
            "deferred": list(w.deferred_commands),
            "model": w.model.canonical(),
            "model_version": w.model.version}


def held_objects(w):
    return ({cid: c for h in w.hosts.values()
             for cid, c in h.containers.items()}, dict(w.connectors))


def assert_same_objects(w, held):
    containers, connectors = held
    now = {cid: c for h in w.hosts.values()
           for cid, c in h.containers.items()}
    assert now.keys() == containers.keys()
    for cid, c in now.items():
        assert c is containers[cid]
        for k in (*c.input_bindings.values(), *c.output_bindings.values()):
            assert k is w.connectors[k.id]
    assert w.connectors.keys() == connectors.keys()
    for kid, k in w.connectors.items():
        assert k is connectors[kid]


def inject(monkeypatch, n):
    """Make the n-th call to a fault point inside kernel._execute raise;
    returns the running count of such calls."""
    seen = {"active": False, "calls": 0}

    def guard(fn):
        def wrapper(*args, **kwargs):
            if seen["active"]:
                seen["calls"] += 1
                if seen["calls"] == n:
                    raise RuntimeError("injected")
            return fn(*args, **kwargs)
        return wrapper

    for owner, name in FAULT_POINTS:
        monkeypatch.setattr(owner, name, guard(getattr(owner, name)))
    execute = kernel._execute

    def watched(world, cmd):
        seen["active"] = True
        try:
            execute(world, cmd)
        finally:
            seen["active"] = False
    monkeypatch.setattr(kernel, "_execute", watched)
    return seen


def untraced_lines(w, ticks):
    w.run(ticks)
    return [line for line in w.trace_lines if "kind=CMD" not in line]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_a_fault_at_any_step_rolls_back_in_place(monkeypatch, name):
    cmd = COMMANDS[name]
    for n in itertools.count(1):
        w = prepared(name)
        before, held = extract(w), held_objects(w)
        with monkeypatch.context() as m:
            seen = inject(m, n)
            result = kernel.apply_now(w, cmd)
        if result.applied:
            break
        assert result.status == "Aborted"
        assert result.reason == "internal: RuntimeError('injected')"
        assert extract(w) == before
        assert_same_objects(w, held)
        # the rolled-back world runs on as one that never saw the command
        assert untraced_lines(w, 6) == untraced_lines(prepared(name), 6)
    assert n == seen["calls"] + 1 > 1     # each step failed once, then none
    assert extract(w) != before


def random_command(rng):
    cid = rng.choice(["src", "mid", "snk", "lone", "a", "b", "new"])
    return rng.choice([
        Add(desc(cid, ins=("i",), outs=("o",)), rng.choice(HOSTS)),
        Remove(cid), Move(cid, rng.choice(HOSTS)),
        connect(f"k{rng.randrange(5)}", f"{cid}.o",
                f"{rng.choice(['mid', 'snk', 'b', 'new'])}.i"),
        Disconnect(f"k{rng.randrange(5)}"),
        ReplaceBusiness(cid, behavior="sink")])


def test_scope_names_every_connector_touching_a_component():
    """The checkpoint finds a component's connectors by its bindings; over
    random commands they are exactly the connectors naming it."""
    rng = random.Random(5)
    for _ in range(20):
        w = busy_world()
        for _ in range(30):
            kernel.apply_now(w, random_command(rng))
            for h in w.hosts.values():
                for cid, c in h.containers.items():
                    naming = [k for kid, k in sorted(w.connectors.items())
                              if cid in {ep.component for ep in
                                         (k.source, *k.sinks)}]
                    assert kernel._bound_connectors(c) == naming


def test_random_commands_with_random_faults_roll_back(monkeypatch):
    rng = random.Random(8)
    aborted = 0
    for _ in range(15):
        w = busy_world()
        for _ in range(20):
            before, held = extract(w), held_objects(w)
            with monkeypatch.context() as m:
                inject(m, rng.randint(1, 4))
                result = kernel.apply_now(w, random_command(rng))
            if result.reason.startswith("internal"):
                aborted += 1
                assert extract(w) == before
                assert_same_objects(w, held)
            assert w.model.canonical() == reconstruct_model(w).canonical()
            if rng.random() < 0.3:
                w.step()
    assert aborted > 20


def test_a_connected_component_moves():
    """A component with an unbound port migrates without a stop, and takes
    its state along."""
    w = busy_world()
    w.hosts["h2"].containers["b"].state = {"seen": 4}
    assert kernel.apply_now(w, COMMANDS["move_connected"]).applied
    moved = w.hosts["h3"].containers["b"]
    assert w.host_of("b") == "h3"
    assert moved.lifecycle is Lifecycle.CONNECTED
    assert moved.state == {"seen": 4}
    assert w.model.components["b"].lifecycle == "Connected"


@pytest.mark.parametrize("cmd", [COMMANDS["move"], COMMANDS["disconnect"]],
                         ids=["move", "disconnect"])
def test_checkpoint_size_does_not_grow_with_the_world(monkeypatch, cmd):
    """Neither the checkpoint nor the model syncs of a command grow with
    the components it does not name."""
    taken, synced = [], []
    snapshot = World.runtime_snapshot
    sync = kernel._sync_model_component

    def record(self, *scope):
        taken.append(snapshot(self, *scope))
        return taken[-1]

    def count(world, cid, hid, c):
        synced.append(cid)
        sync(world, cid, hid, c)
    monkeypatch.setattr(World, "runtime_snapshot", record)
    monkeypatch.setattr(kernel, "_sync_model_component", count)
    sizes = []
    for unrelated in (5, 100):
        w = busy_world(unrelated)
        taken.clear()
        synced.clear()
        assert kernel.apply_now(w, cmd).applied
        sizes.append(([len(part) for part in taken[0]], sorted(synced)))
    assert sizes[0] == sizes[1]


def test_move_to_an_unreachable_host_aborts_before_any_write(monkeypatch):
    w = busy_world()
    for link in w.links.values():
        if "h4" in link.endpoints:
            link.up = False
    with monkeypatch.context() as m:
        seen = inject(m, 0)
        result = kernel.apply_now(w, Move("mid", "h4"))
    assert result.reason == "unreachable"
    assert seen["calls"] == 0
