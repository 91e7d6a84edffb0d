"""Trace parsing and summary queries.

Trace lines are `tick=<n> host=<id> kind=<KIND> <key>=<value>...`, one
record per line, ordered by (tick, host, kind, emission order).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import DescriptorError

_LINE = re.compile(r"^tick=(\d+) host=(\S+) kind=([A-Z]+)(.*)$")


@dataclass(frozen=True)
class TraceRecord:
    tick: int
    host: str
    kind: str
    fields: tuple               # (key, value) pairs, in line order

    def get(self, key: str, default=None):
        for k, v in self.fields:
            if k == key:
                return v
        return default


def parse_line(line: str) -> TraceRecord:
    m = _LINE.match(line)
    if m is None:
        raise DescriptorError(f"malformed trace line: {line!r}")
    rest = m.group(4).strip()
    fields = []
    for tok in rest.split():
        key, eq, value = tok.partition("=")
        if eq or not fields:
            fields.append((key, value) if eq else ("_", tok))
        else:               # a value with spaces, as in `reason=host down`
            key, value = fields.pop()
            fields.append((key, f"{value} {tok}"))
    return TraceRecord(tick=int(m.group(1)), host=m.group(2),
                       kind=m.group(3), fields=tuple(fields))


def parse_file(path: str) -> list:
    records = []
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.rstrip("\n")
                if line:
                    records.append(parse_line(line))
    except UnicodeDecodeError as exc:
        raise DescriptorError(f"{path}: not UTF-8 text ({exc.reason} at "
                              f"byte {exc.start})") from None
    return records


def query_qos(records: list) -> str:
    out = []
    for r in records:
        if r.kind == "QOS":
            out.append(f"tick={r.tick} global={r.get('global')}")
    return "\n".join(out)


def query_events(records: list) -> str:
    out = []
    for r in records:
        if r.kind == "EVT":
            out.append(f"tick={r.tick} host={r.host} "
                       f"event={r.get('event')} prio={r.get('prio')} "
                       f"listener={r.get('listener')}")
    out.append(f"total={sum(1 for r in records if r.kind == 'EVT')}")
    return "\n".join(out)


def app_targeted_commands(records: list) -> list:
    """The CMD records of applied or aborted commands: each names its
    origin, platform or app.  Bootstrap commands leave no trace, so the
    filter drops only the origin-less `cmd=Plan result=Infeasible`."""
    return [r for r in records
            if r.kind == "CMD" and r.get("origin") in ("platform", "app")]


def query_commands(records: list) -> str:
    out = []
    for r in records:
        if r.kind == "CMD":
            parts = " ".join(f"{k}={v}" for k, v in r.fields)
            out.append(f"tick={r.tick} {parts}")
    applied = sum(1 for r in app_targeted_commands(records)
                  if r.get("result") == "Applied")
    out.append(f"app_targeted_applied={applied}")
    return "\n".join(out)


def flow_summary(records: list) -> dict:
    """Per (connector, sink): pushed/delivered counts, loss, reorder, dup.

    A sink's loss counts the drops at that sink; a reorder is a delivery
    whose seq is lower than the one before it, and a dup a delivery whose
    seq came before.  A connector with no delivery or drop at any sink
    gets one entry under its own id.
    """
    pushed: dict = {}
    delivered: dict = {}
    drops: dict = {}
    for r in records:
        if r.kind != "FLOW":
            continue
        conn = r.get("conn")
        op = r.get("op")
        try:
            seq = int(r.get("seq", 0))
        except ValueError:
            raise DescriptorError(
                f"tick {r.tick}: FLOW seq {r.get('seq')!r} is not an "
                f"integer") from None
        if op == "push":
            pushed.setdefault(conn, []).append(seq)
        elif op == "deliver":
            delivered.setdefault((conn, r.get("sink")), []).append(seq)
        elif op == "drop":
            key = (conn, r.get("sink"))
            drops[key] = drops.get(key, 0) + 1
    summary = {}
    for conn in sorted(pushed):
        sinks = sorted(k for k in delivered.keys() | drops.keys()
                       if k[0] == conn)
        if not sinks:
            summary[conn] = {"pushed": len(pushed[conn]), "delivered": 0,
                             "loss": 0, "reorder": 0, "dup": 0}
            continue
        for conn_sink in sinks:
            seqs = delivered.get(conn_sink, [])
            dup = len(seqs) - len(set(seqs))
            reorder = sum(1 for a, b in zip(seqs, seqs[1:]) if b < a)
            summary[f"{conn}->{conn_sink[1]}"] = {
                "pushed": len(pushed[conn]), "delivered": len(seqs),
                "loss": drops.get(conn_sink, 0), "reorder": reorder,
                "dup": dup}
    return summary


def query_flows(records: list) -> str:
    out = []
    for key, s in flow_summary(records).items():
        out.append(f"{key}: pushed={s['pushed']} delivered={s['delivered']} "
                   f"loss={s['loss']} reorder={s['reorder']} dup={s['dup']}")
    return "\n".join(out)


QUERIES = {
    "qos": query_qos,
    "events": query_events,
    "commands": query_commands,
    "flows": query_flows,
}
