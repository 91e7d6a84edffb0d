"""Catalog of pluggable business functions.

A behavior is a callable
    fn(state, inputs, events, now, api) -> (new_state, outputs)
where `inputs` maps in-port name -> payload (or None when no sample was
available this tick), `events` is the ordered list of platform events
consumed this step, and `outputs` maps out-port name -> payload (ports may
be omitted or mapped to None to emit nothing).  `api` gives access to
platform services and may be None in isolated tests.

Behaviors must be deterministic functions of their arguments and keep their
state JSON-serializable so containers can snapshot it for migration.
"""

from __future__ import annotations

from .errors import ValidationError

_CATALOG: dict = {}


def register(name: str, fn) -> None:
    _CATALOG[name] = fn


def resolve(name: str):
    if name not in _CATALOG:
        raise ValidationError(f"unknown behavior {name!r}")
    return _CATALOG[name]


def known():
    """The registered names, a live view: test membership with `in`."""
    return _CATALOG.keys()


def _source(state, inputs, events, now, api):
    """Emits an incrementing integer on every out port each step."""
    n = (state or 0) + 1
    return n, {"__all__": n}


def _sink(state, inputs, events, now, api):
    """Swallows inputs, counting the samples seen."""
    n = state or 0
    n += sum(1 for v in inputs.values() if v is not None)
    return n, {}


def _identity(state, inputs, events, now, api):
    """Forwards the first in-port's sample to every out port."""
    for v in inputs.values():
        if v is not None:
            return state, {"__all__": v}
    return state, {}


def _counter(state, inputs, events, now, api):
    """Counts received samples and emits the running count."""
    n = state or 0
    got = sum(1 for v in inputs.values() if v is not None)
    if not got:
        return n, {}
    n += got
    return n, {"__all__": n}


register("source", _source)
register("sink", _sink)
register("identity", _identity)
register("counter", _counter)
