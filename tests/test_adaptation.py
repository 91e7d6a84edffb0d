"""QoS scoring, placement search, and the adaptation control loop."""

import itertools
import random
import sys
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from adaptsim import adaptation, behaviors, kernel
from adaptsim.adaptation import (Coordinator, HostObs, INFEASIBLE, LinkObs,
                                 Observation, affected_components,
                                 evaluate_qos, observe, select_deployment)
from adaptsim.connector import Endpoint, FlowPolicy
from adaptsim.container import ComponentDescriptor, Variant
from adaptsim.kernel import (Add, ArchitectureModel, Battery, Connect,
                             Disconnect, HostDescriptor, HostTier,
                             ModelComponent, ModelConnector, Move,
                             ReplaceBusiness)
from adaptsim.simnet import PlatformApi, SimEventKind, World, sim_event


def desc(cid, cpu=1.0, mem=1.0, in_ports=(), out_ports=(),
         behavior="identity", tiers=("Full", "LightStd")):
    return ComponentDescriptor(
        id=cid, in_ports=tuple(in_ports), out_ports=tuple(out_ports),
        variants=tuple(Variant(t, cpu, mem, behavior) for t in tiers))


def model_of(components, connectors=()):
    m = ArchitectureModel()
    for cid, host in components.items():
        m.components[cid] = ModelComponent(host=host, tier="Full",
                                           behavior="identity",
                                           lifecycle="Running")
    for kid, (src, dst, bw) in dict(connectors).items():
        m.connectors[kid] = ModelConnector(
            source=Endpoint(src, "out"), sinks=(Endpoint(dst, "in"),),
            policy=FlowPolicy(bw_demand=bw))
    return m


def reference_score(model, obs, descriptors, affected, assignment, tiers):
    """The placement search's scoring as a full `evaluate_qos` of the
    hypothetical deployment: each affected component lifted off its host
    and charged, at its assigned tier, to its assigned host."""
    hyp = ArchitectureModel(
        components=dict(model.components),
        connectors=model.connectors, version=model.version)
    hyp_hosts = {hid: HostObs(ho.up, ho.cpu_free, ho.mem_free, ho.battery)
                 for hid, ho in obs.hosts.items()}
    for cid in affected:
        mc = model.components[cid]
        cpu_d, mem_d = adaptation._demands(descriptors, cid, mc.tier)
        old = hyp_hosts.get(mc.host)
        if old is not None and old.up:
            old.cpu_free += cpu_d
            old.mem_free += mem_d
    for cid, hid in assignment.items():
        mc = model.components[cid]
        tier = tiers[cid]
        cpu_d, mem_d = adaptation._demands(descriptors, cid, tier)
        hyp_hosts[hid].cpu_free -= cpu_d
        hyp_hosts[hid].mem_free -= mem_d
        hyp.components[cid] = ModelComponent(
            host=hid, tier=tier, behavior=mc.behavior,
            lifecycle=mc.lifecycle)
    hyp_obs = Observation(at=obs.at, hosts=hyp_hosts, links=obs.links)
    return evaluate_qos(hyp, hyp_obs, descriptors).global_score


def obs_of(hosts, links=()):
    """hosts: id -> (up, cpu_free, mem_free, battery)."""
    o = Observation(at=0)
    for hid, (up, cpu, mem, batt) in hosts.items():
        o.hosts[hid] = HostObs(up=up, cpu_free=cpu, mem_free=mem,
                               battery=batt)
    for (a, b, bw) in links:
        o.links[frozenset((a, b))] = LinkObs(up=True, bandwidth=bw,
                                             bw_free=bw)
    return o


class TestEvaluateQos:
    def test_empty_application_scores_one(self):
        r = evaluate_qos(ArchitectureModel(), obs_of({}), {})
        assert r.global_score == 1.0

    def test_all_slack_mains_scores_one(self):
        m = model_of({"a": "h1", "b": "h1"}, {"k": ("a", "b", 1.0)})
        o = obs_of({"h1": (True, 8, 8, None)})
        ds = {"a": desc("a"), "b": desc("b")}
        assert evaluate_qos(m, o, ds).global_score == 1.0

    def test_down_host_halves_resource_mean(self):
        # two components, one on a dead host, one fully-local connector,
        # mains power: 0.4 * 0.5 + 0.4 * 1 + 0.2 * 1 = 0.8
        m = model_of({"a": "h1", "b": "h2"}, {"k": ("a", "a", 1.0)})
        o = obs_of({"h1": (True, 8, 8, None), "h2": (False, 0, 0, None)})
        ds = {"a": desc("a"), "b": desc("b")}
        r = evaluate_qos(m, o, ds)
        assert r.resource == {"a": 1.0, "b": 0.0}
        assert r.global_score == pytest.approx(0.8)

    def test_half_battery_scores_point_nine(self):
        m = model_of({"a": "h1"})
        o = obs_of({"h1": (True, 8, 8, 0.5)})
        r = evaluate_qos(m, o, {"a": desc("a")})
        assert r.battery == 0.5
        assert r.global_score == pytest.approx(0.9)

    def test_resource_fit_is_min_ratio_capped(self):
        m = model_of({"a": "h1"})
        o = obs_of({"h1": (True, 1.0, 8.0, None)})
        r = evaluate_qos(m, o, {"a": desc("a", cpu=4.0)})
        assert r.resource["a"] == pytest.approx(0.25)

    def test_link_score_is_bottleneck_ratio(self):
        m = model_of({"a": "h1", "b": "h3"}, {"k": ("a", "b", 4.0)})
        o = obs_of({"h1": (True, 8, 8, None), "h2": (True, 8, 8, None),
                    "h3": (True, 8, 8, None)},
                   links=[("h1", "h2", 10.0), ("h2", "h3", 2.0)])
        r = evaluate_qos(m, o, {"a": desc("a"), "b": desc("b")})
        assert r.link["k"] == pytest.approx(0.5)    # 2 / 4 on the thin hop

    def test_broken_route_zeroes_link(self):
        m = model_of({"a": "h1", "b": "h2"}, {"k": ("a", "b", 1.0)})
        o = obs_of({"h1": (True, 8, 8, None), "h2": (True, 8, 8, None)})
        assert evaluate_qos(m, o, {"a": desc("a"),
                                   "b": desc("b")}).link["k"] == 0.0

    def test_matches_hand_formula_on_random_instances(self):
        rng = random.Random(3)
        for _ in range(50):
            hosts = {f"h{i}": (True, rng.uniform(0.5, 8),
                               rng.uniform(0.5, 8),
                               rng.choice([None, rng.random()]))
                     for i in range(rng.randint(1, 4))}
            hids = sorted(hosts)
            comps = {f"c{i}": rng.choice(hids)
                     for i in range(rng.randint(1, 5))}
            ds = {cid: desc(cid, cpu=rng.uniform(0.2, 4),
                            mem=rng.uniform(0.2, 4)) for cid in comps}
            m = model_of(comps)
            o = obs_of(hosts)
            got = evaluate_qos(m, o, ds)
            want_r = {}
            for cid, hid in comps.items():
                up, cpu, mem, _ = hosts[hid]
                v = ds[cid].variants[0]
                want_r[cid] = max(0.0, min(
                    1.0, cpu / v.cpu_demand, mem / v.mem_demand))
            levels = [hosts[h][3] for h in set(comps.values())
                      if hosts[h][3] is not None]
            want_b = min(levels) if levels else 1.0
            want_g = (0.4 * sum(want_r.values()) / len(want_r)
                      + 0.4 * 1.0 + 0.2 * want_b)
            assert got.global_score == pytest.approx(want_g)
            assert 0.0 <= got.global_score <= 1.0


class TestSelectDeployment:
    TIERS = {"h1": "Full", "h2": "Full", "h3": "Full"}

    def test_nothing_affected_returns_none(self):
        m = model_of({"a": "h1"})
        o = obs_of({"h1": (True, 8, 8, None)})
        assert select_deployment(m, o, {"a": desc("a")},
                                 {"h1": "Full"}) is None

    def test_single_candidate_host_takes_everything(self):
        m = model_of({"a": "h1", "b": "h1"})
        o = obs_of({"h1": (False, 0, 0, None), "h2": (True, 8, 8, None)})
        plan = select_deployment(m, o, {"a": desc("a"), "b": desc("b")},
                                 {"h1": "Full", "h2": "Full"})
        assert plan.assignment == {"a": "h2", "b": "h2"}
        assert len(plan.commands) == 2

    def test_infeasible_when_no_tier_fits(self):
        m = model_of({"a": "h1"})
        o = obs_of({"h1": (False, 0, 0, None), "h2": (True, 8, 8, None)})
        got = select_deployment(m, o, {"a": desc("a", tiers=("Full",))},
                                 {"h1": "Full", "h2": "LightMin"})
        assert got is INFEASIBLE

    def test_tie_breaks_to_fewest_moves(self):
        # both hosts have ample room; staying put scores the same as
        # swapping, so the plan must leave the unaffected-looking option
        m = model_of({"a": "h1"})
        m.components["a"] = ModelComponent("h1", "Full", "identity",
                                           "Running")
        o = obs_of({"h1": (True, 0.4, 8, None), "h2": (True, 0.4, 8, None)})
        ds = {"a": desc("a", cpu=1.0)}
        plan = select_deployment(m, o, ds, {"h1": "Full", "h2": "Full"})
        # equal score everywhere -> zero-move assignment wins
        assert plan.assignment == {"a": "h1"}
        assert plan.commands == []

    def brute_force(self, m, o, ds, tiers):
        report = evaluate_qos(m, o, ds)
        affected = affected_components(m, report, o)
        ups = [h for h in sorted(o.hosts) if o.hosts[h].up]
        cands = {c: [h for h in ups
                     if ds[c].variant_for(tiers[h]) is not None]
                 for c in affected}
        if any(not v for v in cands.values()):
            return "infeasible", None
        best = None
        for combo in itertools.product(*(cands[c] for c in affected)):
            a = dict(zip(affected, combo))
            s = reference_score(m, o, ds, affected, a,
                                {c: tiers[h] for c, h in a.items()})
            moves = sum(1 for c, h in a.items()
                        if m.components[c].host != h)
            key = (-s, moves, tuple(sorted(a.items())))
            if best is None or key < best[0]:
                best = (key, a, s)
        return best[2], best[1]

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(17)
        for _ in range(40):
            nh, nc = rng.randint(2, 4), rng.randint(1, 5)
            hosts = {}
            for i in range(nh):
                hosts[f"h{i}"] = (rng.random() > 0.3,
                                  rng.uniform(0.2, 6), rng.uniform(0.2, 6),
                                  rng.choice([None, rng.random()]))
            if not any(up for up, *_ in hosts.values()):
                hosts["h0"] = (True, 4, 4, None)
            hids = sorted(hosts)
            tiers = {h: "Full" for h in hids}
            comps = {f"c{i}": rng.choice(hids) for i in range(nc)}
            ds = {c: desc(c, cpu=rng.uniform(0.5, 3),
                          mem=rng.uniform(0.5, 3)) for c in comps}
            m = model_of(comps)
            o = obs_of(hosts)
            plan = select_deployment(m, o, ds, tiers)
            want_score, want_assign = self.brute_force(m, o, ds, tiers)
            if plan is None:
                assert want_assign in (None, {})
            elif plan is INFEASIBLE:
                assert want_score == "infeasible"
            else:
                assert plan.assignment == want_assign
                assert plan.expected_qos == pytest.approx(want_score)

    def test_repeated_calls_are_identical(self):
        m = model_of({"a": "h1", "b": "h2"})
        o = obs_of({"h1": (False, 0, 0, None), "h2": (True, 3, 3, None),
                    "h3": (True, 3, 3, None)})
        ds = {"a": desc("a"), "b": desc("b")}
        first = select_deployment(m, o, ds, self.TIERS)
        for _ in range(5):
            again = select_deployment(m, o, ds, self.TIERS)
            assert repr(again) == repr(first)


    @pytest.mark.parametrize("budget", [1, 2, 30, 400])
    def test_the_budget_keeps_the_best_plan_ranked_so_far(
            self, monkeypatch, budget):
        # five components stranded on a dead host, seven live candidates
        # each: 7**5 assignments, more than the budget can rank
        hosts = {"dead": (False, 0, 0, None)}
        hosts.update({f"h{i}": (True, 1.0 + i, 4.0, None) for i in range(7)})
        comps = {f"c{i}": "dead" for i in range(5)}
        ds = {c: desc(c, cpu=1.5, mem=1.0) for c in comps}
        tiers = {h: "Full" for h in hosts}
        m, o = model_of(comps), obs_of(hosts)
        monkeypatch.setattr(adaptation, "EXHAUSTIVE_LIMIT", budget)
        calls = searched(monkeypatch)
        plan = select_deployment(m, o, ds, tiers)
        assert 0 < sum(map(len, calls.values())) <= budget

        def rank(assignment):
            score = reference_score(m, o, ds, sorted(comps), assignment,
                                    {c: "Full" for c in comps})
            return -score, len(assignment), tuple(sorted(assignment.items()))
        ranked = min(rank(dict(a)) for a in calls["_score_assignment"])
        assert rank(plan.assignment) == ranked
        assert plan.expected_qos == -ranked[0]
        for _ in range(3):
            assert repr(select_deployment(m, o, ds, tiers)) == repr(plan)

    def test_a_rugged_failover_gets_the_exact_plan(self, monkeypatch):
        # 80**3 assignments; climbing by single moves from the plan of
        # fewest moves stops at 0.9122
        calls = searched(monkeypatch)
        plan = select_deployment(*rugged(37))
        assert plan.expected_qos == 1.0
        assert plan.assignment == {"mid": "h02", "s1": "h03", "s2": "h14"}
        assert {name: len(a) for name, a in calls.items()} == {
            "_bound": 168, "_score_assignment": 175}


# -- incremental scoring against the full evaluate_qos --------------------

# values whose sums round differently in different orders, and ties; a
# free capacity may be negative, a demand may not
SIZES = st.one_of(st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1.0, 2.0]),
                  st.floats(-1.0, 6.0, allow_nan=False))
DEMANDS = SIZES.map(abs)


@st.composite
def deployments(draw):
    """(model, obs, descriptors, host tiers) with affected components on
    down hosts, co-located and multi-sink connectors, zero bandwidth
    demands, sinks missing from the model, model tiers with no variant,
    and battery and mains hosts."""
    hids = [f"h{i}" for i in range(draw(st.integers(2, 4)))]
    o = Observation(at=0)
    for hid in hids:
        o.hosts[hid] = HostObs(
            up=hid == "h0" or draw(st.booleans()), cpu_free=draw(SIZES),
            mem_free=draw(SIZES),
            battery=draw(st.one_of(st.none(), st.floats(0.0, 1.0))))
    for i, a in enumerate(hids):
        for b in hids[i + 1:]:
            if draw(st.booleans()):
                bandwidth = draw(st.floats(0.5, 4.0))
                o.links[frozenset((a, b))] = LinkObs(
                    up=draw(st.booleans()), bandwidth=bandwidth,
                    bw_free=bandwidth - draw(SIZES))
    tiers = {hid: draw(st.sampled_from(["Full", "LightStd"]))
             for hid in hids}
    comps = [f"c{i}" for i in range(draw(st.integers(1, 5)))]
    m = ArchitectureModel()
    ds = {}
    for cid in comps:
        ds[cid] = ComponentDescriptor(
            id=cid, in_ports=("in",), out_ports=("out",),
            variants=tuple(Variant(t, draw(DEMANDS), draw(DEMANDS),
                                   "identity")
                           for t in ("Full", "LightStd")
                           if t == "Full" or draw(st.booleans())))
        m.components[cid] = ModelComponent(
            host=draw(st.sampled_from(hids)),
            tier=draw(st.sampled_from(["Full", "LightStd", "LightMin"])),
            behavior="identity", lifecycle="Running")
    for i in range(draw(st.integers(0, 4))):
        sinks = draw(st.lists(st.sampled_from(comps + ["ghost"]),
                              min_size=1, max_size=3))
        m.connectors[f"k{i}"] = ModelConnector(
            source=Endpoint(draw(st.sampled_from(comps)), "out"),
            sinks=tuple(Endpoint(c, "in") for c in sinks),
            policy=FlowPolicy(bw_demand=draw(
                st.sampled_from([0.0, 0.5, 1.0, 2.5]))))
    return m, o, ds, tiers


def score_cache(m, o, ds, tiers, affected, report=None):
    candidates = {c: [h for h in sorted(o.hosts) if o.hosts[h].up]
                  for c in affected}
    return adaptation._ScoreCache(m, o, ds, report or evaluate_qos(m, o, ds),
                                  affected, candidates, tiers)


def count_scoring(monkeypatch):
    """Counts, from now until `monkeypatch.undo()`, the calls to the
    resource and the link term: {"_fit": n, "_link_fit": n}."""
    counts = {"_fit": 0, "_link_fit": 0}
    for name in counts:
        fn = getattr(adaptation, name)
        monkeypatch.setattr(adaptation, name,
                            lambda *a, fn=fn, name=name:
                            counts.__setitem__(name, counts[name] + 1)
                            or fn(*a))
    return counts


def starved(free, demands):
    """Components on h0, whose cpu_free is `free`, each with its cpu demand,
    and a roomy h1 to move to."""
    return (model_of({c: "h0" for c in demands}),
            obs_of({"h0": (True, free, 8.0, None), "h1": (True, 8, 8, None)}),
            {c: desc(c, cpu=d, mem=0.5) for c, d in demands.items()},
            {"h0": "Full", "h1": "Full"})


class TestIncrementalScoring:
    @settings(max_examples=400, deadline=None)
    @given(deployments(), st.sampled_from([10_000, 2]))
    # r stays on h0 and sees the capacity a leaves there
    @example(starved(1.0, {"a": 3.0, "r": 1.5}), 10_000)
    # a and b lift off h0 in that order: the other order rounds differently
    @example(starved(0.01, {"a": 0.03, "b": 0.07}), 10_000)
    # staying put gives terms whose sum depends on the order they are
    # added in, and the model lists them out of id order
    @example(starved(0.7, {"c": 0.3, "a": 3.5, "b": 7.0}), 2)
    # only a sink moves, and its connector's link term moves with it
    @example((model_of({"s": "h1", "a": "h2"}, {"k": ("s", "a", 1.0)}),
              obs_of({h: (True, 0.2 if h == "h2" else 8, 8, None)
                      for h in ("h1", "h2", "h3")},
                     [("h1", "h2", 10.0), ("h1", "h3", 0.5)]),
              {"s": desc("s"), "a": desc("a")},
              {"h1": "Full", "h2": "Full", "h3": "Full"}), 10_000)
    def test_every_candidate_scores_what_evaluate_qos_scores(
            self, deployment, budget):
        # a budget of 2 stops the search after at most one bound
        m, o, ds, tiers = deployment
        scored = []
        score = adaptation._score_assignment
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(adaptation, "EXHAUSTIVE_LIMIT", budget)
            mp.setattr(adaptation, "_score_assignment",
                       lambda cache, a: scored.append(
                           (dict(a), score(cache, a))) or scored[-1][1])
            plan = select_deployment(m, o, ds, tiers)
        affected = affected_components(m, evaluate_qos(m, o, ds), o)
        for assignment, got in scored:
            want = reference_score(
                m, o, ds, affected, assignment,
                {c: tiers[h] for c, h in assignment.items()})
            assert got == want                 # the same float, bit for bit
        if plan is not None and plan is not INFEASIBLE:
            assert scored and plan.expected_qos in [s for _, s in scored]

    def chains(self, unrelated):
        """A stranded source and its cut-off sink, in a world with
        `unrelated` other chains on other hosts; with the affected ids."""
        hosts = {"dead": (False, 0, 0, None), "h1": (True, 8, 8, 0.9)}
        hosts.update({f"h{i}": (True, 500, 500, 0.5) for i in (2, 3, 4)})
        comps = {"a": "dead", "b": "h1"}
        conns = {"k": ("a", "b", 1.0)}
        for i in range(unrelated):
            comps[f"u{i}"] = f"h{i % 3 + 2}"
            comps[f"v{i}"] = f"h{(i + 1) % 3 + 2}"
            conns[f"ku{i}"] = (f"u{i}", f"v{i}", 1.0)
        m = model_of(comps, conns)
        o = obs_of(hosts, [("h1", "h2", 1000.0), ("h2", "h3", 1000.0),
                           ("h3", "h4", 1000.0)])
        ds = {c: desc(c) for c in comps}
        tiers = {h: "Full" for h in hosts}
        affected = affected_components(m, evaluate_qos(m, o, ds), o)
        assert affected == ["a", "b"]
        return m, o, ds, tiers, affected

    def recomputed(self, monkeypatch, unrelated):
        """(resource, link) terms computed while scoring one candidate: the
        stranded source and its cut-off sink of `chains` placed together."""
        m, o, ds, tiers, affected = self.chains(unrelated)
        cache = score_cache(m, o, ds, tiers, affected)
        counts = count_scoring(monkeypatch)
        assignment = {"a": "h1", "b": "h1"}
        got = adaptation._score_assignment(cache, assignment)
        monkeypatch.undo()
        assert got == reference_score(m, o, ds, affected, assignment,
                                      {"a": "Full", "b": "Full"})
        return counts["_fit"], counts["_link_fit"]

    def test_a_candidate_recomputes_only_the_terms_it_changes(
            self, monkeypatch):
        # a's and b's resource terms, and k's link term
        assert self.recomputed(monkeypatch, 5) == (2, 1)
        assert self.recomputed(monkeypatch, 100) == (2, 1)

    def test_the_cache_lifts_the_report_and_rescores_only_left_hosts(
            self, monkeypatch):
        worlds = [self.chains(5), self.chains(100)]
        # a leaves h0 and r stays there, so only r's term is rescored
        _, o, ds, tiers = starved(1.0, {"a": 3.0, "r": 1.5, "s": 0.1})
        m = model_of({"a": "h0", "r": "h0", "s": "h1"})
        worlds.append((m, o, ds, tiers, ["a"]))
        for m, o, ds, tiers, affected in worlds:
            report = evaluate_qos(m, o, ds)
            assert affected_components(m, report, o) == affected
            left = {m.components[c].host for c in affected
                    if o.hosts[m.components[c].host].up}
            residents = sum(1 for c, mc in m.components.items()
                            if c not in affected and mc.host in left)
            counts = count_scoring(monkeypatch)
            score_cache(m, o, ds, tiers, affected, report)
            monkeypatch.undo()
            assert counts == {"_fit": residents, "_link_fit": 0}
        assert residents == 1


# -- the exact search against ranking every assignment ---------------------

def failover(hosts, sources=("src",)):
    """A failover replan's shape: each of `sources` stranded on a down host,
    their cut-off peer `mid` on h01, and `hosts` roomy up hosts in a row of
    wide links, so every placement scores the same."""
    up = [f"h{i:02d}" for i in range(hosts)]
    spec = {"down": (False, 0, 0, None)}
    spec.update({h: (True, 8, 8, None) for h in up})
    return (model_of({"mid": "h01", **{s: "down" for s in sources}},
                     {f"k{s}": (s, "mid", 1.0) for s in sources}),
            obs_of(spec, [(a, b, 100.0) for a, b in zip(up, up[1:])]),
            {c: desc(c) for c in ("mid",) + tuple(sources)},
            {h: "Full" for h in spec})


def rugged(seed):
    """A failover replan on a rugged landscape: sources s1 and s2 stranded
    on a down host, their cut-off peer `mid` on h01, and 80 up hosts with
    cpu_free in U(1, 3), in a row of links plus 40 random ones, each of
    width in U(0.5, 2), so placements score apart."""
    rng = random.Random(seed)
    up = [f"h{i:02d}" for i in range(80)]
    spec = {"down": (False, 0, 0, None)}
    spec.update({h: (True, rng.uniform(1, 3), 8, None) for h in up})
    pairs = [*zip(up, up[1:]), *(rng.sample(up, 2) for _ in range(40))]
    return (model_of({"mid": "h01", "s1": "down", "s2": "down"},
                     {"k1": ("s1", "mid", 1.0), "k2": ("s2", "mid", 1.0)}),
            obs_of(spec, [(a, b, rng.uniform(0.5, 2)) for a, b in pairs]),
            {c: desc(c) for c in ("mid", "s1", "s2")},
            {h: "Full" for h in spec})


def search_space(m, o, ds, tiers):
    """(report, affected, candidates) as `select_deployment` finds them."""
    report = evaluate_qos(m, o, ds)
    affected = affected_components(m, report, o)
    candidates = {c: [h for h in sorted(o.hosts) if o.hosts[h].up
                      and ds[c].variant_for(tiers[h]) is not None]
                  for c in affected}
    return report, affected, candidates


def ranked_exhaustively(m, o, ds, tiers):
    """(assignment, score, commands) of the least rank key, as
    `select_deployment` ranks plans, over every candidate assignment, each
    scored by a full `evaluate_qos`; None or INFEASIBLE as it returns."""
    _, affected, candidates = search_space(m, o, ds, tiers)
    if not affected:
        return None
    if not all(candidates.values()):
        return INFEASIBLE

    def rank(a):
        score = reference_score(m, o, ds, affected, a,
                                {c: tiers[h] for c, h in a.items()})
        moves = sum(1 for c, h in a.items() if m.components[c].host != h)
        return -score, moves, tuple(sorted(a.items()))
    key, a = min(((rank(a), a) for a in (
        dict(zip(affected, combo)) for combo in
        itertools.product(*(candidates[c] for c in affected)))),
        key=lambda ranked: ranked[0])
    return a, -key[0], [Move(c, h) for c, h in sorted(a.items())
                        if m.components[c].host != h]


# b on a down host, a on h0, both ends of a cut-off connector
DOWN = (model_of({"a": "h0", "b": "h1"}, {"k": ("a", "b", 1.0)}),
        obs_of({"h0": (True, 1.5, 8, 0.4), "h1": (False, 0, 0, None),
                "h2": (True, 1.0, 8, None), "h3": (True, 2.5, 0.5, 0.9)},
               [("h0", "h2", 0.8), ("h2", "h3", 4.0)]),
        {"a": desc("a"), "b": desc("b", mem=0.5)},
        {h: "Full" for h in ("h0", "h1", "h2", "h3")})
# a runs at LightStd on a LightStd host, and has only a Full variant
NO_VARIANT = (
    model_of({"a": "h1", "b": "down"}, {"k": ("b", "a", 1.0)}),
    obs_of({"h0": (True, 1.0, 8, None), "h1": (True, 0.5, 8, None),
            "h2": (True, 4.0, 8, 0.5), "down": (False, 0, 0, None)},
           [("h0", "h1", 2.0), ("h1", "h2", 2.0)]),
    {"a": desc("a", tiers=("Full",)), "b": desc("b")},
    {"h0": "Full", "h1": "LightStd", "h2": "Full", "down": "Full"})
NO_VARIANT[0].components["a"] = replace(NO_VARIANT[0].components["a"],
                                        tier="LightStd")
# a and b starve each other on h1: moving either one off scores best, and
# the plan that moves a sorts first though the search tries b's move first
SWAP = (model_of({"a": "h1", "b": "h1"}),
        obs_of({"h0": (True, 8, 8, None), "h1": (True, 0.2, 8, None)}),
        {c: desc(c, cpu=1.0, mem=0.5) for c in "ab"},
        {"h0": "Full", "h1": "Full"})
# three components stranded: the best plan lies in the last subtree
THREE = (model_of({c: "dead" for c in "abc"}),
         obs_of({"dead": (False, 0, 0, None), "h0": (True, 2.0, 8, 0.6),
                 "h1": (True, 2.0, 8, None), "h2": (True, 9.0, 8, None)}),
         {"a": desc("a", cpu=6.0), "b": desc("b"), "c": desc("c")},
         {h: "Full" for h in ("dead", "h0", "h1", "h2")})
EXAMPLES = [failover(4),                # a flat landscape: every plan ties
            DOWN, NO_VARIANT, SWAP, THREE, failover(3, ("s1", "s2"))]


def over_deployments(test):
    """`test` over drawn deployments, and each of EXAMPLES first."""
    for deployment in EXAMPLES:
        test = example(deployment)(test)
    return settings(max_examples=300, deadline=None)(
        given(deployments())(test))


class TestDepthFirstSearch:
    @over_deployments
    def test_the_plan_is_the_least_rank_over_every_assignment(
            self, deployment):
        plan = select_deployment(*deployment)
        want = ranked_exhaustively(*deployment)
        if plan is None or plan is INFEASIBLE:
            assert plan is want
        else:
            assert (plan.assignment, plan.expected_qos, plan.commands) == want

    @over_deployments
    def test_a_bound_is_no_less_than_any_completion_scores(self, deployment):
        m, o, ds, tiers = deployment
        report, affected, candidates = search_space(m, o, ds, tiers)
        if not all(candidates.values()):
            return
        cache = adaptation._ScoreCache(m, o, ds, report, affected,
                                       candidates, tiers)
        # a partial assignment, None where a component is not placed
        bound = {}
        for partial in itertools.product(
                *([None] + candidates[c] for c in affected)):
            bound[partial] = adaptation._bound(cache, {
                c: h for c, h in zip(affected, partial) if h is not None})
        for combo in itertools.product(*(candidates[c] for c in affected)):
            score = adaptation._score_assignment(
                cache, dict(zip(affected, combo)))
            for placed in itertools.product((False, True),
                                            repeat=len(affected)):
                assert bound[tuple(h if keep else None for h, keep
                                   in zip(combo, placed))] >= score

    @over_deployments
    def test_the_search_bounds_and_scores_each_assignment_at_most_once(
            self, deployment):
        with pytest.MonkeyPatch.context() as mp:
            calls = searched(mp)
            select_deployment(*deployment)
        for name, assignments in calls.items():
            assert len(set(assignments)) == len(assignments), name

    @pytest.mark.parametrize("sources", [("src",), ("s1", "s2")])
    def test_a_failover_replan_scores_each_host_once(self, sources):
        # each host at most once: in fact one assignment, at 12 hosts and at
        # 40, where two sources give 64,000 assignments
        for hosts in (12, 40):
            with pytest.MonkeyPatch.context() as mp:
                calls = searched(mp)
                plan = select_deployment(*failover(hosts, sources))
            # every plan ties: mid stays and each source takes h00, and then
            # each node's bound cuts its next child, for its moves or for
            # sorting later, and with it every later child
            assert {name: len(a) for name, a in calls.items()} == {
                "_score_assignment": 1, "_bound": len(sources) + 1}, hosts
            assert plan.assignment == {"mid": "h01",
                                       **{s: "h00" for s in sources}}
            assert plan.commands == [Move(s, "h00") for s in sources]

def searched(mp):
    """Records, from now until `mp` is undone, the assignment each call to
    `_bound` and `_score_assignment` reads, as sorted items:
    {"_bound": [...], "_score_assignment": [...]}."""
    calls = {"_bound": [], "_score_assignment": []}
    for name, seen in calls.items():
        fn = getattr(adaptation, name)
        mp.setattr(adaptation, name,
                   lambda cache, a, fn=fn, seen=seen:
                   seen.append(tuple(sorted(a.items()))) or fn(cache, a))
    return calls


class TestMean:
    @pytest.mark.skipif(sys.version_info >= (3, 12), reason=(
        "sum() of floats is compensated from Python 3.12 on (gh-100425), "
        "so it may round otherwise than adding left to right"))
    @given(st.lists(st.floats(0.0, 1.0), min_size=1))
    def test_the_mean_is_sum_over_len(self, terms):
        values = dict(enumerate(terms)).values()
        for ts in (terms, values):
            assert adaptation._mean(ts).hex() == (sum(ts) / len(ts)).hex()

    @given(st.lists(st.floats(0.0, 1.0), min_size=1), st.data())
    def test_raising_a_term_never_lowers_the_mean(self, terms, data):
        i = data.draw(st.integers(0, len(terms) - 1))
        raised = list(terms)
        raised[i] = data.draw(st.floats(terms[i], 1.0))
        assert adaptation._mean(raised) >= adaptation._mean(terms)


def charged(obs, model, placed):
    """obs with every link's bw_free charged, as `observe` charges it, with
    each connector's demand along its route when its endpoints sit where
    `placed` (component id -> host id) puts them."""
    links = {pair: LinkObs(lo.up, lo.bandwidth, lo.bandwidth)
             for pair, lo in obs.links.items()}
    routes = kernel.Routes({h: ho.up for h, ho in obs.hosts.items()}, links)
    for mk in model.connectors.values():
        src = placed[mk.source.component]
        for sink in mk.sinks:
            path = routes.path(src, placed[sink.component])
            for a, b in zip(path or (), (path or ())[1:]):
                links[frozenset((a, b))].bw_free -= mk.policy.bw_demand
    return Observation(at=obs.at, hosts=obs.hosts, links=links)


@pytest.mark.xfail(strict=True, reason="a candidate's link terms read the "
                   "bandwidth the current routes leave, not its own")
@pytest.mark.parametrize("case", ["full link left", "idle link filled"])
def test_a_candidate_scores_the_links_its_own_routes_load(case):
    ds = {c: desc(c) for c in "abcd"}
    tiers = {h: "Full" for h in ("h1", "h2", "h3")}
    hosts = {h: (True, 8, 8, None) for h in tiers}
    if case == "full link left":
        # k1 and k2 fill h1-h2; moving b beside a leaves k2 alone on it
        m = model_of({"a": "h1", "b": "h2", "c": "h1", "d": "h2"},
                     {"k1": ("a", "b", 1.0), "k2": ("c", "d", 1.0)})
        links = [("h1", "h2", 2.0)]
        assignment = {"a": "h1", "b": "h1", "c": "h1", "d": "h2"}
    else:
        # k fills h1-h2; moving b to h3 puts k on the idle link h1-h3
        m = model_of({"a": "h1", "b": "h2"}, {"k": ("a", "b", 1.0)})
        links = [("h1", "h2", 1.0), ("h1", "h3", 1.0)]
        assignment = {"a": "h1", "b": "h3"}
    o = obs_of(hosts, links)
    o = charged(o, m, {c: mc.host for c, mc in m.components.items()})
    affected = affected_components(m, evaluate_qos(m, o, ds), o)
    assert affected == sorted(assignment)
    got = adaptation._score_assignment(
        score_cache(m, o, ds, tiers, affected), assignment)
    placed = {c: assignment.get(c, mc.host) for c, mc in m.components.items()}
    want = reference_score(m, charged(o, m, placed), ds, affected,
                           assignment, {c: "Full" for c in assignment})
    assert got == pytest.approx(want)


def seeded_world(mode="M3", battery=None):
    w = World(seed=5)
    w.add_host(HostDescriptor(id="h1", tier=HostTier.FULL,
                              cpu_capacity=8, mem_capacity=8,
                              power=Battery(battery) if battery else None))
    w.add_host(HostDescriptor(id="h2", tier=HostTier.FULL,
                              cpu_capacity=8, mem_capacity=8))
    w.add_link("h1", "h2")
    w.coordinator = Coordinator("h1", mode)
    kernel.apply_now(w, Add(desc("a", behavior="source",
                                 out_ports=("out",)), "h1"))
    kernel.apply_now(w, Add(desc("b", behavior="sink",
                                 in_ports=("in",)), "h2"))
    kernel.apply_now(w, Connect("k1", Endpoint("a", "out"),
                                (Endpoint("b", "in"),), FlowPolicy()))
    w.discard_tick_lines()
    return w


class TestCoordinator:
    def test_healthy_deployment_takes_no_action(self):
        w = seeded_world("M3")
        out = w.coordinator.run_cycle(w, 0)
        assert out.kind == "NoAction"
        assert w.last_qos.global_score == 1.0

    def test_m1_observes_but_never_plans(self):
        w = seeded_world("M1")
        w.hosts["h2"].desc.up = False
        out = w.coordinator.run_cycle(w, 0)
        assert out.kind == "NoAction"
        assert w.model.components["b"].host == "h2"   # untouched

    def test_m3_relocates_off_a_dead_host(self):
        w = seeded_world("M3")
        w.hosts["h2"].desc.up = False
        out = w.coordinator.run_cycle(w, 0)
        assert out.kind == "PlanApplied"
        assert w.model.components["b"].host == "h1"
        follow = w.coordinator.run_cycle(w, 5)
        assert follow.kind == "NoAction"
        assert w.last_qos.global_score >= 0.7

    def test_m4_waits_out_the_grace_window(self):
        w = seeded_world("M4")
        w.hosts["h2"].desc.up = False
        first = w.coordinator.run_cycle(w, 0)
        assert first.kind == "EventsEmitted"
        assert w.model.components["b"].host == "h2"
        mid = w.coordinator.run_cycle(w, 5)
        assert mid.kind == "EventsEmitted"
        late = w.coordinator.run_cycle(w, 10)
        assert late.kind == "PlanApplied"
        assert w.model.components["b"].host == "h1"

    def test_infeasible_is_flagged_and_clears(self):
        w = seeded_world("M3")
        w.hosts["h2"].desc.up = False
        w.descriptors["b"] = desc("b", behavior="sink", in_ports=("in",),
                                  tiers=("LightMin",))
        out = w.coordinator.run_cycle(w, 0)
        assert out.kind == "NoAction"
        assert w.coordinator.infeasible_outstanding is True
        w.hosts["h2"].desc.up = True
        w.coordinator.run_cycle(w, 5)
        assert w.coordinator.infeasible_outstanding is False

    def test_qos_report_is_stored_as_context(self):
        w = seeded_world("M3")
        w.coordinator.run_cycle(w, 0)
        [obj] = w.hosts["h1"].store.history("qos.global")
        assert obj.info.value.value == 1.0


class TestObserve:
    def test_bandwidth_budget_subtracts_flow_demand(self):
        w = seeded_world("M3")
        o = observe(w, 0)
        pair = frozenset(("h1", "h2"))
        assert o.links[pair].bw_free == pytest.approx(
            o.links[pair].bandwidth - 1.0)


# -- a cycle re-reads only the batteries -----------------------------------

def faulty(state, inputs, events, now, api):
    """Forwards its input, and fails at every seventh tick."""
    if now % 7 == 6:
        raise RuntimeError("kaput")
    return behaviors.resolve("identity")(state, inputs, events, now, api)


@st.composite
def scripted_worlds(draw):
    """(world, {tick: [command]}): three to five hosts in a linked line
    with extra links, mains and draining battery hosts, a source -> faulty
    -> sink chain and a second pair whose light variants may demand
    another cpu than their full ones, under a random mode, with scripted
    leaves, joins, link changes and battery sets, and app commands (moves,
    disconnects, connects, and replacements by tier or by behaviour) to
    submit before a tick."""
    hids = [f"h{i}" for i in range(draw(st.integers(3, 5)))]
    w = World(seed=0)
    for hid in hids:
        power = None
        if hid != "h0" and draw(st.booleans()):
            power = Battery(draw(st.floats(0.1, 1.0)),
                            draw(st.sampled_from([0.0, 0.01, 0.04])))
        w.add_host(HostDescriptor(
            id=hid, tier=HostTier.FULL if hid == "h0" else draw(
                st.sampled_from([HostTier.FULL, HostTier.LIGHT_STD])),
            cpu_capacity=draw(st.sampled_from([2.0, 4.0, 8.0])),
            mem_capacity=8.0, power=power))
    for a, b in zip(hids, hids[1:]):
        w.add_link(a, b, bandwidth=draw(st.sampled_from([1.0, 2.0, 10.0])))
    for a, b in itertools.combinations(hids, 2):
        if frozenset((a, b)) not in w.links and draw(st.booleans()):
            w.add_link(a, b, bandwidth=draw(st.sampled_from([1.0, 10.0])))
    w.coordinator = Coordinator("h0", draw(st.sampled_from(
        ["M1", "M2", "M3", "M4"])))
    comps = {"c0": ("source", (), ("out",)), "c1": ("faulty", ("in",),
                                                    ("out",)),
             "c2": ("sink", ("in",), ()), "d0": ("source", (), ("out",)),
             "d1": ("sink", ("in",), ())}
    for cid, (behavior, ins, outs) in comps.items():
        d = desc(cid, cpu=draw(st.sampled_from([0.5, 1.0, 3.0])),
                 in_ports=ins, out_ports=outs, behavior=behavior)
        full, light = d.variants
        d = replace(d, variants=(full, replace(light, cpu_demand=draw(
            st.sampled_from([full.cpu_demand, 0.25, 2.0])))))
        assert kernel.apply_now(w, Add(d, draw(st.sampled_from(hids)))
                                ).applied
    for kid, src, dst in (("k0", "c0", "c1"), ("k1", "c1", "c2"),
                          ("k2", "d0", "d1")):
        assert kernel.apply_now(w, Connect(
            kid, Endpoint(src, "out"), (Endpoint(dst, "in"),),
            FlowPolicy(bw_demand=draw(st.sampled_from([0.0, 1.0, 2.5]))))
            ).applied
    pairs = sorted(sorted(pair) for pair in w.links)
    for _ in range(draw(st.integers(0, 8))):
        at = draw(st.integers(1, 39))
        kind = draw(st.sampled_from([
            SimEventKind.HOST_LEAVE, SimEventKind.HOST_JOIN,
            SimEventKind.LINK_DOWN, SimEventKind.LINK_UP,
            SimEventKind.BATTERY_SET]))
        if kind in (SimEventKind.HOST_LEAVE, SimEventKind.HOST_JOIN):
            w.schedule(sim_event(at, kind, host=draw(st.sampled_from(
                hids[1:]))))
        elif kind in (SimEventKind.LINK_DOWN, SimEventKind.LINK_UP):
            w.schedule(sim_event(at, kind, endpoints=tuple(
                draw(st.sampled_from(pairs)))))
        else:
            w.schedule(sim_event(at, kind, host=draw(st.sampled_from(hids)),
                                 level=draw(st.floats(0.0, 1.0))))
    commands = {}
    for i in range(draw(st.integers(0, 4))):
        cmd = draw(st.sampled_from([
            Move(draw(st.sampled_from(sorted(comps))),
                 draw(st.sampled_from(hids))),
            Disconnect(draw(st.sampled_from(["k0", "k1", "k2"]))),
            Connect(f"app{i}", Endpoint(draw(st.sampled_from(
                ["c0", "c1", "d0"])), "out"), (Endpoint(draw(
                    st.sampled_from(["c1", "c2", "d1"])), "in"),),
                FlowPolicy()),
            ReplaceBusiness(draw(st.sampled_from(sorted(comps))),
                            tier=draw(st.sampled_from(["Full", "LightStd"]))),
            ReplaceBusiness(draw(st.sampled_from(sorted(comps))),
                            behavior=draw(st.sampled_from(
                                ["identity", "sink", "faulty"])))]))
        commands.setdefault(draw(st.integers(1, 39)), []).append(cmd)
    return w, commands


def qos_lines(w):
    return [line for line in w.trace_lines if " kind=QOS " in line]


def spoiled_world():
    """M3 with b stranded on h2, down, and no host able to run it: every
    cycle plans, finds no placement and changes nothing, while h1's
    battery drains."""
    w = seeded_world("M3")
    w.hosts["h1"].desc.power = Battery(0.9, 0.01)
    w.hosts["h2"].desc.up = False
    w.descriptors["b"] = desc("b", behavior="sink", in_ports=("in",),
                              tiers=("LightMin",))
    return w


def hard_violation(model, report, obs) -> bool:
    """The hard-violation verdict as a cycle once worked it out from its
    observation and report: a component's host down or unknown, or a
    connector scoring 0."""
    for mc in model.components.values():
        ho = obs.hosts.get(mc.host)
        if ho is None or not ho.up:
            return True
    return any(v == 0.0 for v in report.link.values())


def run_checked(w, ticks, commands=None):
    """Runs `w` for `ticks` ticks, each app command of `commands` ({tick:
    [command]}) submitted before its tick, and checks every cycle's report
    and kept hard-violation verdict against those of a fresh `observe` +
    `evaluate_qos` made as the cycle starts, and every observation a cycle
    builds against a fresh `observe`."""
    cycle = Coordinator.run_cycle
    observation = Coordinator._observation

    def checked_cycle(coord, world, now):
        fresh = observe(world, now)
        want = evaluate_qos(world.model, fresh, world.descriptors)
        hard = hard_violation(world.model, want, fresh)
        out = cycle(coord, world, now)
        # repr tells every float bit apart, -0.0 from 0.0 too
        assert repr(world.last_qos) == repr(want)
        assert coord._scored.hard is hard
        return out

    def checked_observation(coord, world, now):
        obs = observation(coord, world, now)
        fresh = observe(world, now)
        assert repr((obs.at, obs.hosts, obs.links)) \
            == repr((fresh.at, fresh.hosts, fresh.links))
        for src in obs.hosts:
            for dst in obs.hosts:
                assert adaptation._obs_path(obs, src, dst) \
                    == adaptation._obs_path(fresh, src, dst)
        return obs

    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(behaviors._CATALOG, "faulty", faulty)
        mp.setattr(Coordinator, "run_cycle", checked_cycle)
        mp.setattr(Coordinator, "_observation", checked_observation)
        for tick in range(ticks):
            for cmd in (commands or {}).get(tick, ()):
                cid = (cmd.component
                       if isinstance(cmd, (Move, ReplaceBusiness))
                       else "c0")
                PlatformApi(w, w.host_of(cid) or "h0",
                            cid).submit_command(cmd)
            w.step()


class TestCycleMemo:
    @settings(max_examples=150, deadline=None)
    @given(scripted_worlds())
    def test_every_cycle_equals_a_full_observation_and_scoring(self, made):
        w, commands = made
        run_checked(w, 40, commands)

    def test_a_repair_rescores_a_connector_whose_link_fills_up(self):
        # k0's route h0-h1 stays put; when h1-h2 goes down, k1 moves from
        # h3-h2-h1 to h3-h4-h0-h1 and leaves h0-h1 no bandwidth for k0
        w = World(seed=0)
        for hid in ("h0", "h1", "h2", "h3", "h4"):
            w.add_host(HostDescriptor(id=hid, tier=HostTier.FULL,
                                      cpu_capacity=8.0, mem_capacity=8.0))
        w.add_link("h0", "h1", bandwidth=2.0)
        for a, b in (("h1", "h2"), ("h2", "h3"), ("h3", "h4"), ("h4", "h0")):
            w.add_link(a, b)
        w.coordinator = Coordinator("h0", "M1")
        for cid, host, ins, outs in (("a", "h0", (), ("out",)),
                                     ("b", "h1", ("in",), ()),
                                     ("x", "h3", (), ("out",)),
                                     ("y", "h1", ("in",), ())):
            assert kernel.apply_now(w, Add(desc(
                cid, in_ports=ins, out_ports=outs,
                behavior="sink" if ins else "source"), host)).applied
        for kid, src, dst in (("k0", "a", "b"), ("k1", "x", "y")):
            assert kernel.apply_now(w, Connect(
                kid, Endpoint(src, "out"), (Endpoint(dst, "in"),),
                FlowPolicy(bw_demand=1.0))).applied
        assert evaluate_qos(w.model, observe(w, 0),
                            w.descriptors).link == {"k0": 1.0, "k1": 1.0}
        w.schedule(sim_event(3, SimEventKind.LINK_DOWN,
                             endpoints=("h1", "h2")))
        run_checked(w, 6)
        assert w.last_qos.link == {"k0": 0.0, "k1": 0.0}

    def test_a_registry_that_changed_order_scores_as_before(self):
        # a leaves h1 and comes back within one cycle: h1's registry reads
        # b, c, a, and in registry order its demands would add up to 0.4,
        # but a host's load adds up in firing order, which is id order
        def built(order):
            w = World(seed=0)
            for hid in ("h1", "h2"):
                w.add_host(HostDescriptor(id=hid, tier=HostTier.FULL,
                                          cpu_capacity=1.0,
                                          mem_capacity=4.0))
            w.add_link("h1", "h2")
            w.coordinator = Coordinator("h1", "M1")
            for cid in order:
                assert kernel.apply_now(w, Add(desc(
                    cid, cpu={"a": 0.1, "b": 0.2, "c": 0.3}[cid]),
                    "h1")).applied
            return w
        w = built("abc")
        assert observe(w, 0).hosts["h1"].cpu_free == 0.3999999999999999
        run_checked(w, 6, {2: [Move("a", "h2")], 3: [Move("a", "h1")]})
        assert list(w.hosts["h1"].containers) == ["b", "c", "a"]
        assert observe(w, 5).hosts["h1"].cpu_free == 0.3999999999999999
        assert observe(built("cba"), 0).hosts["h1"].cpu_free \
            == 0.3999999999999999

    def test_a_battery_given_to_a_mains_host_is_scored_at_once(self):
        # the only change between the two cycles: b's host gets a battery,
        # which moves neither version
        w = seeded_world("M1")
        w.schedule(sim_event(2, SimEventKind.BATTERY_SET, host="h2",
                             level=0.25))
        seen = []
        cycle = Coordinator.run_cycle
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Coordinator, "run_cycle", lambda coord, world, now: (
                seen.append((world.model_version, world.topology_version)),
                cycle(coord, world, now))[1])
            run_checked(w, 6)
        assert len(seen) == 2 and seen[0] == seen[1]
        report = evaluate_qos(w.model, observe(w, 5), w.descriptors)
        assert report.battery == 0.25
        first, second = qos_lines(w)
        assert first.endswith(" b=1.0000")
        assert second.endswith(" b=0.2500")
        assert f" global={report.global_score:.4f} " in second

    def test_a_battery_that_sinks_below_the_threshold_plans_as_cold(self):
        # b has no cpu left on h2, so its resource term is 0 and the mean
        # 0.5: the global score is 0.78 with h1's battery at 0.9, and 0.65
        # once a BatterySet, which moves no version, takes it to 0.25.  A
        # cold coordinator forgets its scoring before every tick
        runs = []
        for cold in (False, True):
            w = seeded_world("M3", battery=0.9)
            w.hosts["h2"].desc.cpu_capacity = 0.5
            w.schedule(sim_event(3, SimEventKind.BATTERY_SET, host="h1",
                                 level=0.25))
            w.step()
            versions = (w.model_version, w.topology_version)
            for _ in range(5):
                if cold:
                    w.coordinator._scored = None
                w.step()
            assert (w.model_version, w.topology_version) != versions
            runs.append(w)
        kept, fresh = runs
        assert kept.trace_lines == fresh.trace_lines
        first, second = qos_lines(kept)
        assert first.startswith("tick=0 ") and " global=0.7800 " in first
        assert second.startswith("tick=5 ") and " global=0.6500 " in second
        assert "tick=5 host=h1 kind=CMD cmd=Move comp=b target=h1 " \
            "result=Applied origin=platform" in kept.trace_lines

    def test_one_coordinator_scores_each_world_on_its_own(self):
        # two worlds at the same versions, where b's host differs
        worlds = [seeded_world("M1"), seeded_world("M1")]
        worlds[1].hosts["h2"].desc.cpu_capacity = 0.5
        coord = Coordinator("h1", "M1")
        for w in worlds + worlds:
            coord.run_cycle(w, 0)
            want = evaluate_qos(w.model, observe(w, 0), w.descriptors)
            assert repr(w.last_qos) == repr(want)
        assert worlds[0].last_qos.resource != worlds[1].last_qos.resource

    def test_readers_cannot_corrupt_the_memo(self):
        plain = spoiled_world()
        plain.run(16)
        w = spoiled_world()
        versions = (w.model_version, w.topology_version)
        plan_and_apply = Coordinator._plan_and_apply

        def spoiling(coord, world, obs, report):
            fresh = observe(world, obs.at)
            assert repr((obs.hosts, obs.links)) \
                == repr((fresh.hosts, fresh.links))
            assert repr(report) == repr(
                evaluate_qos(world.model, fresh, world.descriptors))
            out = plan_and_apply(coord, world, obs, report)
            for hid in obs.hosts:
                obs.hosts[hid] = HostObs(False, 0.0, 0.0, None)
            obs.links.clear()
            return out
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Coordinator, "_plan_and_apply", spoiling)
            for _ in range(16):
                w.step()
                for terms in (w.last_qos.resource, w.last_qos.link):
                    for key in terms:
                        terms[key] = 0.5
        assert (w.model_version, w.topology_version) == versions
        assert len(qos_lines(plain)) == 4
        assert sum("cmd=Plan result=Infeasible" in line
                   for line in plain.trace_lines) == 4
        assert qos_lines(w) == qos_lines(plain)
        assert w.trace_lines == plain.trace_lines
