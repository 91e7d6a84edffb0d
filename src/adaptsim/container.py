"""Component containers: one business component per container.

The container owns the component's lifecycle, mediates its flow I/O
through bound connectors, reports liveness context, and queues platform
events for listener components.  Connectors have no event entry point;
events only ever reach containers.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from enum import Enum
from typing import Any, Optional

from . import behaviors
from .errors import (ComponentFault, LifecycleError, ValidationError,
                     VariantError)

EVENT_QUEUE_BOUND = 32


class Lifecycle(Enum):
    CREATED = "Created"
    CONNECTED = "Connected"
    RUNNING = "Running"
    STOPPED = "Stopped"
    MIGRATING = "Migrating"
    DESTROYED = "Destroyed"


LEGAL_EDGES = {
    (Lifecycle.CREATED, Lifecycle.CONNECTED),
    (Lifecycle.CONNECTED, Lifecycle.RUNNING),
    (Lifecycle.RUNNING, Lifecycle.STOPPED),
    (Lifecycle.STOPPED, Lifecycle.RUNNING),
    (Lifecycle.STOPPED, Lifecycle.MIGRATING),
    (Lifecycle.MIGRATING, Lifecycle.CONNECTED),
    (Lifecycle.STOPPED, Lifecycle.DESTROYED),
    (Lifecycle.CONNECTED, Lifecycle.DESTROYED),
}


class EventKind(Enum):
    QOS_ALERT = "QoSAlert"


@dataclass(frozen=True)
class PlatformEvent:
    kind: EventKind
    payload: Any
    priority: int = 0

    def __post_init__(self):
        if not 0 <= self.priority <= 9:
            raise ValidationError(f"priority {self.priority} outside [0, 9]")


@dataclass(frozen=True)
class Variant:
    tier: str                   # HostTier name: Full / LightStd / LightMin
    cpu_demand: float
    mem_demand: float
    behavior: str

    def __post_init__(self):
        # the placement search's bound needs demands that take capacity
        for name in ("cpu_demand", "mem_demand"):
            value = getattr(self, name)
            if not value >= 0:
                raise ValidationError(f"{name} must be >= 0, not {value!r}")


@dataclass(frozen=True)
class ComponentDescriptor:
    id: str
    in_ports: tuple
    out_ports: tuple
    variants: tuple             # of Variant
    listener: bool = False
    initial_host: str = ""

    def __post_init__(self):
        if not self.variants:
            raise ValidationError(f"component {self.id}: no variants")
        ports = list(self.in_ports) + list(self.out_ports)
        if len(ports) != len(set(ports)):
            raise ValidationError(f"component {self.id}: duplicate port names")

    def variant_for(self, tier: str) -> Optional[Variant]:
        for v in self.variants:
            if v.tier == tier:
                return v
        return None


@dataclass
class Snapshot:
    """Frozen component state for migration; a plain value, safe to ship."""

    component_id: str
    state: Any
    pending_events: list        # of PlatformEvent


class ContainerInstance:
    def __init__(self, descriptor: ComponentDescriptor, tier: str):
        variant = descriptor.variant_for(tier)
        if variant is None:
            raise VariantError(
                f"component {descriptor.id}: no variant for tier {tier}")
        self.descriptor = descriptor
        self.active_variant = variant
        self.lifecycle = Lifecycle.CREATED
        self.state: Any = None
        self.input_bindings: dict = {}    # in_port -> ConnectorInstance
        self.output_bindings: dict = {}   # out_port -> ConnectorInstance
        # the firing plan of the variant and bindings above, built at the
        # first firing; the writers below drop it (see `firing_plan`)
        self._plan: Optional[tuple] = None
        self._events: list = []           # (neg priority, arrival seq, event)
        self._event_seq = 0
        self.fault: Optional[str] = None

    # -- lifecycle ---------------------------------------------------------

    def transition(self, target: Lifecycle) -> None:
        if (self.lifecycle, target) not in LEGAL_EDGES:
            raise LifecycleError(self.lifecycle.value, target.value)
        self.lifecycle = target

    # -- bindings and variant: the only writers, each dropping the plan ----

    def bind(self, port: str, conn) -> None:
        """Bind an in or out port (port names are unique) to a connector."""
        if port in self.descriptor.in_ports:
            self.input_bindings[port] = conn
        else:
            self.output_bindings[port] = conn
        self._plan = None

    def unbind(self, port: str) -> None:
        self.input_bindings.pop(port, None)
        self.output_bindings.pop(port, None)
        self._plan = None

    def set_variant(self, variant: Variant) -> None:
        self.active_variant = variant
        self._plan = None

    def firing_plan(self) -> tuple:
        """(behaviour, pulls, pushes) of the current variant and bindings:
        the variant's behaviour function, (in port, connector or None) in
        descriptor order, and (out port, connector) of the bound out ports
        in port order.  Built once, and again only after a writer above
        dropped it; a checkpoint saves and restores it with the bindings.
        """
        if self._plan is None:
            self._plan = (behaviors.resolve(self.active_variant.behavior),
                          tuple((port, self.input_bindings.get(port))
                                for port in self.descriptor.in_ports),
                          tuple(sorted(self.output_bindings.items())))
        return self._plan

    def all_ports_bound(self) -> bool:
        return (all(p in self.input_bindings for p in self.descriptor.in_ports)
                and all(p in self.output_bindings
                        for p in self.descriptor.out_ports))

    # -- events ------------------------------------------------------------

    def deliver_event(self, e: PlatformEvent) -> bool:
        if not self.descriptor.listener:
            return False
        if self.lifecycle not in (Lifecycle.CONNECTED, Lifecycle.RUNNING):
            return False
        self._events.append((-e.priority, self._event_seq, e))
        self._event_seq += 1
        self._events.sort(key=lambda t: (t[0], t[1]))
        if len(self._events) > EVENT_QUEUE_BOUND:
            # drop the lowest-priority, oldest entry
            victim = max(self._events, key=lambda t: (t[0], -t[1]))
            self._events.remove(victim)
        return True

    def pending_events(self) -> list:
        return [e for _, _, e in self._events]

    def _consume_events(self) -> list:
        out = [e for _, _, e in self._events]
        self._events.clear()
        return out

    # -- processing --------------------------------------------------------

    def process_step(self, now: int, api=None) -> dict:
        """Run one firing of the business function.

        Returns out_port -> emitted payload.  Raises nothing: a throwing
        business function stops this container and records the fault.
        """
        if self.lifecycle is not Lifecycle.RUNNING:
            return {}
        plan = self._plan or self.firing_plan()
        fn, pulls, pushes = plan
        # Synchronized lossless backpressure: stall the whole step while any
        # bound output cannot accept a sample.
        for _, conn in pushes:
            if conn.would_block():
                return {}
        cid = self.descriptor.id
        inputs = {}
        for port, conn in pulls:
            inputs[port] = None if conn is None else conn.pull(cid, port, now)
        events = self._consume_events() if self._events else []
        try:
            self.state, raw = fn(self.state, inputs, events, now, api)
        except Exception as exc:  # fault containment: stop only this container
            self.fault = repr(exc)
            self.transition(Lifecycle.STOPPED)
            raise ComponentFault(f"{cid}: {exc!r}") from exc
        if self._plan is not plan:
            # a command the behaviour submitted rebound a port
            pushes = self.firing_plan()[2]
        if "__all__" in raw:
            payload = raw["__all__"]
            outputs = dict.fromkeys(self.descriptor.out_ports, payload)
            for port, conn in pushes:
                conn.push(cid, port, payload, now)
        else:
            outputs = {port: payload for port, payload in raw.items()
                       if payload is not None}
            for port, conn in pushes:
                if port in outputs:
                    conn.push(cid, port, outputs[port], now)
        return outputs

    # -- migration ---------------------------------------------------------

    def snapshot(self) -> Snapshot:
        if self.lifecycle not in (Lifecycle.CONNECTED, Lifecycle.STOPPED,
                                  Lifecycle.MIGRATING):
            raise LifecycleError(self.lifecycle.value, "snapshot")
        return Snapshot(
            component_id=self.descriptor.id,
            state=copy.deepcopy(self.state),
            pending_events=self.pending_events())

    def restore(self, snap: Snapshot) -> None:
        if self.lifecycle not in (Lifecycle.CREATED, Lifecycle.CONNECTED):
            raise LifecycleError(self.lifecycle.value, "restore")
        self.state = copy.deepcopy(snap.state)
        self._events = []
        self._event_seq = 0
        for e in snap.pending_events:
            self._events.append((-e.priority, self._event_seq, e))
            self._event_seq += 1
