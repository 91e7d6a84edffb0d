"""adaptsim benchmark: seeded worlds driven tick by tick, closed loop.

    python3 perfbench/run.py --workload flows_steady --seed 1 --seconds 50 \
        --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

A seed expands into a few generated worlds of the workload (see
worldgen.py).  The harness runs them in blocks for about --seconds seconds,
at least one block.  A block runs every world a few times, round-robin,
so that each world's trace digests can be compared and each time can be
taken as the best of those runs.  Every run is one `adaptsim run`: parse and
validate the descriptors, `cli.build_world`, `World.step` per tick, write
the trace.  Each run is checked (see sim.py) and capped in time; a run
that raises, fails a check or hits its cap counts as failed.

--trace 0 times only set-up, `World.step` and `Coordinator.run_cycle`, and
reports the end-to-end metrics.  Its times are at the reference host speed
(see sim.py): each time is scaled by the reference pass timed right after
it, so that the shared host's drifts in speed do not pass for changes of
the program.  The raw times are printed beside them.  --trace 1 runs the
first world untraced and traced in turn, the traced run with every layer
wrapped in spans, and reports the per-layer metrics (unscaled) and the
tracing overhead.  `--workload all` runs each workload in its own
process, one after the other, and prints every metric with its unit and
sample count.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The program is taken from src/ of the checkout this file sits in; without
it the benchmark exits with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import worldgen

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench")
RUN_CAP_S = 60.0          # a single run taking longer did not finish
HARD_LIMIT_S = 150.0      # no run may end later than this after start

# name -> unit, in the order they are printed.  Those in BENCHMARK.json are
# the ones every workload has; replan_ms_p50 exists only where the placement
# search runs, and fail_ratio is carried by "attempted" and "failed".
END_TO_END = {
    "setup_s": "s", "ticks_per_s": "1/s", "tick_ms_p50": "ms",
    "tick_ms_p90": "ms", "cycle_ms_p50": "ms", "replan_ms_p50": "ms",
    "peak_rss_mb": "MB", "qos_mean": "score", "fail_ratio": "ratio",
}
NOT_IN_JSON = ("replan_ms_p50", "fail_ratio")


def import_program():
    """Import adaptsim from this checkout's src/, or exit with code 2."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import adaptsim
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import adaptsim from {src}: {exc}")
    if not os.path.abspath(adaptsim.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: adaptsim came from {adaptsim.__file__}, "
                 f"not from {src}")
    import sim
    return sim


def world_paths(workload: str, seed: int) -> list:
    w = worldgen.WORKLOADS[workload]
    return [worldgen.write(workload, seed, j,
                           os.path.join(WORK, workload, f"world{j}"))
            for j in range(w.worlds)]


def describe(run, j: int) -> str:
    c = run.counts
    qos = statistics.fmean(run.qos) if run.qos else float("nan")
    return (f"world {j}: digest={run.digest[:16]} ticks={len(run.ticks_s)} "
            f"trace_lines={run.trace_lines} "
            f"commands_applied={c.get('commands_applied', 0)} "
            f"commands_aborted={c.get('commands_aborted', 0)} "
            f"deliveries={c.get('flow_deliver', 0)} qos_mean={qos:.4f} "
            f"model_gap_ticks={run.model_gap_ticks}")


def check_digest(run, first: dict, j: int) -> None:
    """Runs of one world must write the same trace bytes."""
    if run.finished and first.setdefault(j, run.digest) != run.digest:
        run.finished = False
        run.error = (f"trace digest {run.digest[:16]} differs from "
                     f"{first[j][:16]} of the first run of world {j}")


def measure(sim, workload: str, seed: int, seconds: float):
    """Untraced blocks while the time allows, at least one.  A block runs
    every world w.repeats times, round-robin.  Returns the blocks, each a list
    of (world index, run)."""
    w = worldgen.WORKLOADS[workload]
    paths = world_paths(workload, seed)
    timer = sim.CycleTimer()
    start = time.perf_counter()
    blocks, first, block_s = [], {}, 0.0
    with sim.patched(timer.targets()):
        while not blocks or (
                time.perf_counter() - start + block_s <= seconds):
            b0 = time.perf_counter()
            block = []
            for _ in range(w.repeats):
                for j, p in enumerate(paths):
                    left = start + HARD_LIMIT_S - time.perf_counter()
                    run = sim.run_world(p, w.mode, os.path.dirname(p["app"]),
                                        min(RUN_CAP_S, left), timer=timer,
                                        speed=True)
                    check_digest(run, first, j)
                    block.append((j, run))
            blocks.append(block)
            block_s = time.perf_counter() - b0
    return blocks


def block_times(sim, block: list, scaled: bool = True):
    """Timing metrics of one block, or None when no run finished.  Each
    world's per-tick, per-cycle and set-up times are the best of its
    repeated runs, at the reference host speed unless `scaled` is false;
    the medians and percentiles are taken over those."""
    by_world = defaultdict(list)
    for j, run in block:
        if run.finished:
            by_world[j].append(run)
    if not by_world:
        return None
    ticks, cycles, replans, setups = [], [], [], []
    for runs in by_world.values():
        times = [r.times(scaled) for r in runs]
        ticks += map(min, zip(*(t["ticks_s"] for t in times)))
        cycles += map(min, zip(*(t["cycles_s"] for t in times)))
        replans += map(min, zip(*(t["replans_s"] for t in times)))
        setups.append(min(t["setup_s"] for t in times))
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "ticks_per_s": (len(ticks) / sum(ticks), len(ticks)),
        "tick_ms_p50": (sim.quantile(ticks, 0.5) * 1e3, len(ticks)),
        "tick_ms_p90": (sim.quantile(ticks, 0.9) * 1e3, len(ticks)),
        "cycle_ms_p50": (sim.quantile(cycles, 0.5) * 1e3, len(cycles)),
        "replan_ms_p50": (sim.quantile(replans, 0.5) * 1e3, len(replans)),
    }


def end_to_end(sim, blocks: list, scaled: bool = True) -> dict:
    """name -> (value, unit, sample count).  Times are the median over
    blocks; the sample count is the number of best-of times they rest on."""
    runs = [run for block in blocks for _, run in block]
    ok = [r for r in runs if r.finished]
    qos = [q for r in ok for q in r.qos]
    per_block = [t for t in (block_times(sim, b, scaled) for b in blocks)
                 if t]
    v = {}
    for name in ("setup_s", "ticks_per_s", "tick_ms_p50", "tick_ms_p90",
                 "cycle_ms_p50", "replan_ms_p50"):
        values = [t[name][0] for t in per_block]
        v[name] = (statistics.median(values) if values else math.nan,
                   sum(t[name][1] for t in per_block))
    v["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    v["qos_mean"] = (statistics.fmean(qos) if qos else math.nan, len(qos))
    v["fail_ratio"] = ((len(runs) - len(ok)) / len(runs), len(runs))
    return {k: (val, END_TO_END[k], n) for k, (val, n) in v.items()}


def per_layer(sim, workload: str, seed: int, seconds: float):
    """Pairs of runs of the first world, one untraced and one traced, while
    the time allows (at least one pair); returns (runs, metrics).  Times
    are medians over the traced runs; counts must repeat exactly.  The
    overhead compares the untraced and the traced ticks_per_s medians."""
    w = worldgen.WORKLOADS[workload]
    p = world_paths(workload, seed)[0]
    outdir = os.path.dirname(p["app"])
    start = time.perf_counter()
    runs, tables, first, pair_s = [], [], {}, 0.0
    plain, traced = [], []
    while not tables or time.perf_counter() - start + pair_s <= seconds:
        p0 = time.perf_counter()
        left = start + HARD_LIMIT_S - p0
        base = sim.run_world(p, w.mode, outdir, min(RUN_CAP_S, left))
        check_digest(base, first, 0)
        tracer = sim.Tracer()
        layers = sim.Layers(tracer)
        left = start + HARD_LIMIT_S - time.perf_counter()
        with sim.patched(layers.targets()):
            run = sim.run_world(p, w.mode, outdir, min(RUN_CAP_S, left),
                                tracer=tracer)
        check_digest(run, first, 0)
        runs += [base, run]
        table = layers.metrics(run)
        if tables and any(table[k][0] != tables[0][k][0] for k in table
                          if table[k][1] == "count"):
            run.finished = False
            run.error = "per-layer counts differ between traced runs"
        tables.append(table)
        plain.append(len(base.ticks_s) / sum(base.ticks_s)
                     if base.ticks_s else math.nan)
        traced.append(len(run.ticks_s) / sum(run.ticks_s)
                      if run.ticks_s else math.nan)
        tracer.write(os.path.join(outdir, "spans.tsv"))
        pair_s = time.perf_counter() - p0
        if not (base.finished and run.finished):
            break
    metrics = {}
    for name, (_, unit, n) in tables[0].items():
        values = [t[name][0] for t in tables]
        value = values[0] if unit == "count" else statistics.median(values)
        metrics[name] = (value, unit, n)
    metrics["ticks_per_s.traced"] = (statistics.median(traced), "1/s",
                                     len(traced))
    metrics["trace.overhead_ratio"] = (
        statistics.median(plain) / statistics.median(traced), "ratio",
        len(plain))
    return runs, metrics


def print_table(metrics: dict) -> None:
    print(f"{'metric':40} {'value':>14} {'unit':6} n")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:40} {value:14.6g} {unit:6} {'' if n is None else n}")


def run_one(args) -> int:
    sim = import_program()
    w = worldgen.WORKLOADS[args.workload]
    print(f"perfbench workload={w.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} hosts={w.hosts} "
          f"components={3 * w.chains} mode={w.mode} ticks={w.duration} "
          f"worlds={w.worlds}")
    if args.trace:
        runs, metrics = per_layer(sim, w.name, args.seed, args.seconds)
        print(f"runs: {len(runs)}, untraced and traced in turn")
        shown, emitted = metrics, metrics
    else:
        blocks = measure(sim, w.name, args.seed, args.seconds)
        runs = [run for block in blocks for _, run in block]
        print(f"blocks: {len(blocks)}, runs: {len(runs)}")
        digests = {}
        for j, run in blocks[0]:
            if j not in digests and run.finished:
                digests[j] = run.digest
                print(describe(run, j))
        joined = "".join(digests[j] for j in sorted(digests))
        print(f"seed {args.seed} trace sha256 over its worlds: "
              f"{hashlib.sha256(joined.encode()).hexdigest()}")
        passes = [p for r in runs for p in r.passes_s] or [math.nan]
        print(f"reference pass: {sim.REFERENCE_PASS_S * 1e3:.3f} ms at the "
              f"reference speed, median {statistics.median(passes) * 1e3:.3f}"
              f" ms here over {len(passes)} passes")
        raw = end_to_end(sim, blocks, scaled=False)
        print("raw times, before scaling:")
        print_table({k: raw[k] for k in ("setup_s", "ticks_per_s",
                                         "tick_ms_p50", "tick_ms_p90",
                                         "cycle_ms_p50", "replan_ms_p50")})
        print("at the reference host speed:")
        shown = end_to_end(sim, blocks)
        emitted = {k: v for k, v in shown.items() if k not in NOT_IN_JSON}
    for r in runs:
        if not r.finished:
            print(f"FAILED run: {r.error}")
    print_table(shown)
    failed = sum(not r.finished for r in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v if math.isfinite(v) else 0.0, "unit": u}
                    for k, (v, u, _) in emitted.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a process of its own, so peak_rss_mb is its own."""
    summary = {}
    for name in worldgen.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=HARD_LIMIT_S + 60)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("summary:")
    for name, result in summary.items():
        print(f"{name}: correct={result['correct']} "
              f"fail_ratio={result['failed']}/{result['attempted']}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(worldgen.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
