"""First-class flow connectors between component containers.

A connector binds one source out-port to one or more sink in-ports,
duplicating samples per sink; the source pushes.  Policy fixes the
synchronization axis (a full lossless buffer blocks the producer or
merely refuses the sample) and the loss axis (bounded lossless queue vs.
keep-latest).  Cross-host hops add route latency.
Connectors are pure transport: they carry no platform events.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Optional

from .errors import BindingError, ValidationError

DEFAULT_LOSSLESS_CAPACITY = 16


class FlowSync(Enum):
    SYNCHRONIZED = "Synchronized"
    UNSYNCHRONIZED = "Unsynchronized"


class LossKind(Enum):
    LOSSLESS = "Lossless"
    KEEP_LATEST = "KeepLatest"


class PushResult(Enum):
    ACCEPTED = "Accepted"
    BLOCKED = "Blocked"
    OVERWROTE = "Overwrote"


@dataclass(frozen=True)
class FlowPolicy:
    sync: FlowSync = FlowSync.SYNCHRONIZED
    loss: LossKind = LossKind.LOSSLESS
    capacity: int = DEFAULT_LOSSLESS_CAPACITY
    bw_demand: float = 1.0

    def __post_init__(self):
        if self.loss is LossKind.LOSSLESS and self.capacity < 1:
            raise ValidationError("lossless capacity must be >= 1")


@dataclass(frozen=True)
class Endpoint:
    component: str
    port: str

    def __str__(self):
        return f"{self.component}.{self.port}"


@dataclass
class FlowSample:
    seq: int
    payload: Any
    produced_at: int
    producer: str


@dataclass
class _Queued:
    sample: FlowSample
    available_at: int
    path: tuple            # host ids traversed, () when local


class ConnectorInstance:
    """One flow: a source endpoint fanned out to per-sink queues.

    `transit` is an injected callable (src_component_host -> sink host)
    returning (ticks, path) for a sample in flight, or None when no route
    currently exists; the default treats everything as local.
    """

    def __init__(self, id: str, source: Endpoint, sinks: list,
                 policy: FlowPolicy,
                 transit: Optional[Callable] = None,
                 tracer=None):
        if not sinks:
            raise ValidationError(f"connector {id}: at least one sink")
        self.id = id
        self.source = source
        self.sinks: list = list(sinks)
        self.policy = policy
        self.transit = transit or (lambda sink: (0, ()))
        self.tracer = tracer
        self._seq = 0
        self._queues: dict = {s: [] for s in self.sinks}
        self.pushed_count = 0
        self.delivered_count = 0
        self._delivered_window = 0   # deliveries since last report

    # -- capacity ----------------------------------------------------------

    def _full(self, sink: Endpoint) -> bool:
        if self.policy.loss is LossKind.KEEP_LATEST:
            return len(self._queues[sink]) >= 1
        return len(self._queues[sink]) >= self.policy.capacity

    def would_block(self) -> bool:
        """True when a push right now could not be accepted.

        Drives producer-side stalling: a full synchronized lossless buffer
        holds the producer for a tick.
        """
        if (self.policy.loss is LossKind.LOSSLESS
                and self.policy.sync is FlowSync.SYNCHRONIZED):
            return any(self._full(s) for s in self.sinks)
        return False

    # -- data path ---------------------------------------------------------

    def push(self, component: str, port: str, payload: Any,
             now: int) -> PushResult:
        if Endpoint(component, port) != self.source:
            raise BindingError(
                f"{component}.{port} is not the source of {self.id}")
        if self.policy.loss is LossKind.LOSSLESS:
            if any(self._full(s) for s in self.sinks):
                return PushResult.BLOCKED
        result = PushResult.ACCEPTED
        self._seq += 1
        self.pushed_count += 1
        for sink in self.sinks:
            hop = self.transit(sink)
            # no route right now: queue locally, path None, retry en route
            ticks, path = (0, None) if hop is None else hop
            # per-sink copy: value semantics, no cross-sink aliasing
            sample = FlowSample(seq=self._seq, payload=payload,
                                produced_at=now, producer=component)
            entry = _Queued(sample=sample, available_at=now + ticks,
                            path=path)
            q = self._queues[sink]
            if self.policy.loss is LossKind.KEEP_LATEST and q:
                dropped = q.pop(0)
                self._trace(now, "drop", sink, dropped.sample.seq)
                result = PushResult.OVERWROTE
            q.append(entry)
        self._trace(now, "push", None, self._seq)
        return result

    def pull(self, component: str, port: str, now: int):
        """One sample for this sink if available; None otherwise."""
        sink = Endpoint(component, port)
        if sink not in self._queues:
            raise BindingError(f"{sink} is not a sink of {self.id}")
        q = self._queues[sink]
        if not q:
            return None
        head = q[0]
        if head.path is None:
            # was unroutable at push time; try again now
            hop = self.transit(sink)
            if hop is None:
                return None
            head.available_at = now + hop[0]
            head.path = hop[1]
        if head.available_at > now:
            return None
        q.pop(0)
        self.delivered_count += 1
        self._delivered_window += 1
        self._trace(now, "deliver", sink, head.sample.seq)
        return head.sample.payload

    def reroute_check(self, now: int, link_up: Callable) -> None:
        """Re-path in-transit samples whose route lost a link.

        Lossless samples are re-scheduled over the current route (waiting
        when none exists); keep-latest samples on a dead path are dropped.
        """
        for sink in self.sinks:
            kept = []
            for entry in self._queues[sink]:
                path = entry.path
                broken = path and any(
                    not link_up(a, b) for a, b in zip(path, path[1:]))
                if broken and entry.available_at > now:
                    if self.policy.loss is LossKind.KEEP_LATEST:
                        self._trace(now, "drop", sink, entry.sample.seq)
                        continue
                    hop = self.transit(sink)
                    if hop is None:
                        entry.path = None
                    else:
                        entry.available_at = now + hop[0]
                        entry.path = hop[1]
                kept.append(entry)
            self._queues[sink] = kept

    # -- control -----------------------------------------------------------

    def drain(self) -> dict:
        """Remove and return all buffered and in-flight samples per sink."""
        out = {}
        for sink in self.sinks:
            out[sink] = [e.sample for e in self._queues[sink]]
            self._queues[sink] = []
        return out

    def refill(self, sink: Endpoint, samples: list, now: int) -> None:
        """Re-queue drained samples at a sink, ahead of its queue."""
        if sink not in self._queues:
            raise BindingError(f"{sink} is not a sink of {self.id}")
        self._queues[sink] = (
            [_Queued(sample=s, available_at=now, path=()) for s in samples]
            + self._queues[sink])

    # -- reporting ---------------------------------------------------------

    def depth(self) -> int:
        return max((len(q) for q in self._queues.values()), default=0)

    def take_rate(self) -> int:
        rate = self._delivered_window
        self._delivered_window = 0
        return rate

    def _trace(self, now, op, sink, seq):
        if self.tracer is not None:
            self.tracer(self, now, op, sink, seq)
