"""What a firing and a report reuse never goes stale.

Random sequences of every command type, aborted ones and ones an
application submits while it fires included, with component faults and
hosts leaving and joining.  After each step, every container's firing plan
equals one built fresh from its bindings and variant, each host's firing
entries equal its registry, each entry's `PlatformApi` equals a fresh one
for its host and component, and each kept FLOW line head and report plan
equals a fresh one.  The trace equals that of the same run with every plan
and memo dropped before each tick.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from adaptsim import behaviors, kernel
from adaptsim.connector import Endpoint, FlowPolicy, LossKind
from adaptsim.container import ComponentDescriptor, Variant
from adaptsim.kernel import (Add, Connect, Disconnect, HostDescriptor,
                             HostTier, Move, Remove, ReplaceBusiness)
from adaptsim.simnet import PlatformApi, SimEventKind, World, sim_event

HOSTS = ("h1", "h2", "h3")
PORTS = {"src": ((), ("o",), "source"), "mid": (("i",), ("o",), "identity"),
         "snk": (("i",), (), "sink"), "app": ((), ("o",), "plans_app"),
         "tap": (("i",), (), "sink"), "x": (("i",), ("o",), "counter")}
APP_COMMANDS: list = []          # what `app` submits at its next firing


def _app(state, inputs, events, now, api):
    """Submits the queued commands, then emits like a source."""
    while APP_COMMANDS:
        api.submit_command(APP_COMMANDS.pop(0))
    return (state or 0) + 1, {"__all__": (state or 0) + 1}


def _fault(state, inputs, events, now, api):
    raise RuntimeError("plans_fault")


behaviors.register("plans_app", _app)
behaviors.register("plans_fault", _fault)


def desc(cid):
    ins, outs, behavior = PORTS[cid]
    return ComponentDescriptor(
        id=cid, in_ports=ins, out_ports=outs,
        variants=(Variant("Full", 1.0, 1.0, behavior),
                  Variant("LightStd", 0.5, 0.5, behavior)))


def world():
    w = World(seed=3)
    for hid, tier in zip(HOSTS, ("Full", "Full", "LightStd")):
        w.add_host(HostDescriptor(id=hid, tier=HostTier(tier),
                                  cpu_capacity=8.0, mem_capacity=8.0))
    w.add_link("h1", "h2")
    w.add_link("h2", "h3")
    for cid, hid in (("src", "h1"), ("mid", "h2"), ("snk", "h3"),
                     ("app", "h1"), ("tap", "h2")):
        kernel.apply_now(w, Add(desc(cid), hid))
    for kid, a, b in (("k1", "src", "mid"), ("k2", "mid", "snk"),
                      ("k3", "app", "tap")):
        kernel.apply_now(w, Connect(kid, Endpoint(a, "o"),
                                    (Endpoint(b, "i"),), FlowPolicy()))
    return w


KIDS = ("k1", "k2", "k3", "k4")
cids = st.sampled_from(sorted(PORTS))
hosts = st.sampled_from(HOSTS + ("h9",))
commands = st.one_of(
    st.builds(lambda c, h: Add(desc(c), h), cids, hosts),
    st.builds(Remove, cids),
    st.builds(Move, cids, hosts),
    st.builds(lambda kid, a, b, keep: Connect(
        kid, Endpoint(a, "o"), (Endpoint(b, "i"),),
        FlowPolicy(loss=LossKind.KEEP_LATEST if keep else LossKind.LOSSLESS,
                   capacity=2)),
        st.sampled_from(KIDS), cids, cids, st.booleans()),
    st.builds(Disconnect, st.sampled_from(KIDS)),
    st.builds(lambda c, b: ReplaceBusiness(c, behavior=b), cids,
              st.sampled_from(("identity", "counter", "plans_fault",
                               "unknown"))),
    st.builds(lambda c, t: ReplaceBusiness(c, tier=t), cids,
              st.sampled_from(("Full", "LightStd", "LightMin"))),
)
steps = st.lists(st.one_of(
    st.just(("tick",)),
    st.tuples(st.just("cmd"), commands),
    st.tuples(st.just("app"), commands),
    st.tuples(st.sampled_from(("leave", "join")), st.sampled_from(HOSTS)),
), max_size=40)


def fresh_plan(c):
    return (behaviors.resolve(c.active_variant.behavior),
            tuple((p, c.input_bindings.get(p))
                  for p in c.descriptor.in_ports),
            tuple(sorted(c.output_bindings.items())))


def assert_entries(w, hid, entries):
    """Each firing entry is a registry pair, in id order, with an api that
    equals a fresh one for its host and component."""
    assert [(cid, c) for cid, c, _ in entries] \
        == sorted(w.hosts[hid].containers.items())
    for cid, _, api in entries:
        assert vars(api) == vars(PlatformApi(w, hid, cid))


def assert_fresh(w):
    version, orders, plans = w._registry
    for hid in HOSTS:
        host = w.hosts[hid]
        for c in host.containers.values():
            if c._plan is not None:
                assert c._plan == fresh_plan(c)
        if version == w.model_version:
            if hid in orders:
                assert_entries(w, hid, orders[hid])
            if hid in plans:
                assert plans[hid] == w._report_plan(hid)
        assert_entries(w, hid, w.firing_order(hid))
    version, heads = w._heads
    if version == w.model_version:
        for (kid, op, *sink), head in heads.items():
            assert head == w._flow_head(w.connectors[kid], op,
                                        Endpoint(*sink) if sink else None)


def drop_plans(w):
    for host in w.hosts.values():
        for c in host.containers.values():
            c._plan = None
    w._registry = (None, {}, {})
    w._heads = (None, {})
    w._hops = (None, {})


def run(script, dropped):
    w = world()
    APP_COMMANDS.clear()
    for step in script + [("tick",)] * 6:     # past one more report
        if step[0] == "tick":
            if dropped:
                drop_plans(w)
            w.step()
        elif step[0] == "cmd":
            kernel.apply_now(w, step[1])
        elif step[0] == "app":
            APP_COMMANDS.append(step[1])
        else:
            kind = (SimEventKind.HOST_LEAVE if step[0] == "leave"
                    else SimEventKind.HOST_JOIN)
            w.schedule(sim_event(w.now, kind, host=step[1]))
        if not dropped:
            assert_fresh(w)
    return w.trace_lines


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(script=steps)
def test_plans_never_go_stale(script):
    assert run(script, dropped=False) == run(script, dropped=True)


def test_the_script_reaches_plans_of_every_kind():
    """One fixed script: an application moves a container and unbinds its
    own out port while it fires, a ReplaceBusiness faults a container and a
    Disconnect drops a plan, so the property is not vacuous."""
    script = [("tick",), ("app", Move("mid", "h1")),
              ("app", Disconnect("k3")), ("tick",),
              ("cmd", ReplaceBusiness("snk", behavior="plans_fault")),
              ("tick",), ("cmd", Disconnect("k1")), ("tick",),
              ("leave", "h3"), ("tick",), ("join", "h3"), ("tick",)]
    lines = run(script, dropped=False)
    assert lines == run(script, dropped=True)
    text = "\n".join(lines)
    assert "cmd=Move comp=mid target=h1 result=Applied origin=app" in text
    assert "cmd=Disconnect conn=k3 result=Applied origin=app" in text
    assert "tick=1 host=h1 kind=FLOW conn=k3" not in text
    assert "key=component.fault" in text
    assert "cmd=Disconnect conn=k1 result=Applied" in text
