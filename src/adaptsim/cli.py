"""Command line entry point: validate descriptors, run scenarios, inspect
traces.

Exit codes: 0 success, 1 validation or parse failure, 2 runtime failure
(including a run ending with no feasible deployment).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import descriptors as desc
from . import kernel, trace
from .adaptation import Coordinator
from .errors import DescriptorError
from .kernel import Add, Connect, HostTier
from .simnet import World


def build_world(app: desc.AppDescriptor, net: desc.NetDescriptor,
                seed: int = 0, mode: str = "M3") -> World:
    """Materialize descriptors into a ready-to-step world.

    The world gets its own copy of each host record, so running it leaves
    the descriptors, and any other world built from them, as they were.
    The initial deployment commands leave no trace.
    """
    world = World(seed=seed)
    for h in net.hosts:
        world.add_host(dataclasses.replace(h, power=None if h.power is None
                                           else dataclasses.replace(h.power)))
    for link in net.links:
        a, b = sorted(link.endpoints)
        world.add_link(a, b, latency=link.latency, bandwidth=link.bandwidth,
                       up=link.up)
    full_hosts = sorted(h.id for h in net.hosts
                        if h.tier is HostTier.FULL)
    if full_hosts:
        world.coordinator = Coordinator(full_hosts[0], mode=mode)
    for c in app.components:
        result = kernel.apply_now(world, Add(c, c.initial_host))
        if not result.applied:
            raise DescriptorError(
                f"cannot deploy {c.id} on {c.initial_host}: {result.reason}")
    for k in app.connectors:
        result = kernel.apply_now(
            world, Connect(k.id, k.source, tuple(k.sinks), k.policy))
        if not result.applied:
            raise DescriptorError(
                f"cannot connect {k.id}: {result.reason}")
    world._tick_buffer.clear()
    world._trace_seq = 0
    return world


def _load_pair(app_path: str, net_path: str):
    app, d1 = desc.parse_app(desc.load_json(app_path))
    net, d2 = desc.parse_net(desc.load_json(net_path))
    diags = d1 + d2
    if not diags:
        diags = desc.validate(app, net)
    return app, net, diags


def cmd_validate(args) -> int:
    try:
        _, _, diags = _load_pair(args.app, args.net)
    except DescriptorError as exc:
        print(exc, file=sys.stderr)
        return 1
    for d in diags:
        print(d)
    return 0 if not diags else 1


def cmd_run(args) -> int:
    try:
        app, net, diags = _load_pair(args.app, args.net)
        scenario, d3 = desc.parse_scenario(desc.load_json(args.scenario))
        diags += d3
    except DescriptorError as exc:
        print(exc, file=sys.stderr)
        return 1
    if diags:
        for d in diags:
            print(d)
        return 1
    seed = args.seed if args.seed is not None else scenario.seed
    try:
        world = build_world(app, net, seed=seed, mode=args.mode)
        for ev in scenario.events:
            world.schedule(ev)
        world.run(scenario.duration)
    except DescriptorError as exc:
        print(exc, file=sys.stderr)
        return 1
    try:
        with open(args.trace, "w") as fh:
            for line in world.trace_lines:
                fh.write(line + "\n")
        outdir = os.path.dirname(os.path.abspath(args.trace))
        for hid in sorted(world.hosts):
            log = world.hosts[hid].persist_log
            if log:
                with open(os.path.join(outdir,
                                       f"persist-{hid}.log"), "w") as fh:
                    fh.write("\n".join(log) + "\n")
    except OSError as exc:
        print(exc, file=sys.stderr)
        return 2
    if world.coordinator is not None \
            and world.coordinator.infeasible_outstanding:
        print("run ended with no feasible deployment", file=sys.stderr)
        return 2
    return 0


def cmd_inspect(args) -> int:
    try:
        out = trace.QUERIES[args.query](trace.parse_file(args.trace))
    except (DescriptorError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 1
    print(out)
    return 0


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="adaptsim",
        description="Deterministic simulator for context-aware "
                    "component applications with runtime adaptation.")
    sub = p.add_subparsers(dest="command", required=True)
    pr = sub.add_parser("run", help="simulate a scenario")
    pr.add_argument("--app", required=True)
    pr.add_argument("--net", required=True)
    pr.add_argument("--scenario", required=True)
    pr.add_argument("--mode", choices=["M1", "M2", "M3", "M4"],
                    default="M3")
    pr.add_argument("--seed", type=int, default=None,
                    help="override the scenario's seed")
    pr.add_argument("--trace", required=True)
    pr.set_defaults(func=cmd_run)
    pv = sub.add_parser("validate", help="check descriptor files")
    pv.add_argument("--app", required=True)
    pv.add_argument("--net", required=True)
    pv.set_defaults(func=cmd_validate)
    pi = sub.add_parser("inspect", help="summarize a trace file")
    pi.add_argument("--trace", required=True)
    pi.add_argument("--query", choices=sorted(trace.QUERIES),
                    required=True)
    pi.set_defaults(func=cmd_inspect)
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
