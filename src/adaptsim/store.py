"""Per-host context storage: a bounded history per key and filtered
queries over it.

One store exists per host and is only touched by that host's platform
activity.  Remote context goes through platform services, never through
direct store access.

The store pays on read, not on write.  A host's context report, and the
coordinator's QoS report, is put as one record.  Each of its readings is
filed in the same per-key ring as the objects put one by one, next to
the validity the record's readings share, so filing a reading builds
nothing.  `history`, `all_objects` and `query` build the `ContextObject`
of a reading when they are called, so a report that no one reads builds
no object.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Optional

from .context import (ContextInformation, ContextObject,
                      InformationValidity, Quantity, ValidityPolicy,
                      is_valid)
from .errors import ValidationError

DEFAULT_CAPACITY = 64


@dataclass(frozen=True)
class ContextQuery:
    key_pattern: str = ""          # exact key, or prefix when prefix=True
    prefix: bool = False
    nature_filter: Optional[frozenset] = None   # of ContextNature
    validity: ValidityPolicy = field(default_factory=ValidityPolicy)
    limit: Optional[int] = None

    def __post_init__(self):
        if self.limit is not None and self.limit < 1:
            raise ValidationError("limit must be >= 1")


class ContextStore:
    """History-preserving ring-buffer store, keyed by context key: each key
    keeps its newest `DEFAULT_CAPACITY` objects, in put order.  A key's
    ring holds two entries per object: None and the `ContextObject`, or a
    report's validity and one of its readings."""

    def __init__(self):
        self._by_key: dict[str, deque] = defaultdict(
            partial(deque, maxlen=2 * DEFAULT_CAPACITY))

    def put(self, item) -> None:
        """File a `ContextObject`, or a report record: (validity, readings),
        the validity a (timestamp, location, base confidence, owner) tuple
        that every reading shares, and each reading the (nature, key,
        value, producer) of an information, a number value standing for a
        unitless `Quantity`.  A reading is filed as its validity, then
        itself."""
        rings = self._by_key
        if type(item) is ContextObject:
            rings[item.info.key].extend((None, item))
        else:
            validity, readings = item
            for reading in readings:
                ring = rings[reading[1]]
                ring.append(validity)
                ring.append(reading)

    def all_objects(self) -> Iterable[ContextObject]:
        for key in sorted(self._by_key):
            yield from self.history(key)

    def query(self, q: ContextQuery, now: int) -> list[ContextObject]:
        """Matching objects, newest first, producer id breaking ties.  Only
        the keys the query names are read, so only their objects are
        built."""
        if q.prefix:
            keys = [k for k in sorted(self._by_key)
                    if k.startswith(q.key_pattern)]
        else:
            keys = [q.key_pattern] if q.key_pattern else sorted(self._by_key)
        natures = q.nature_filter
        hits = [o for key in keys for o in self.history(key)
                if (natures is None or o.info.nature in natures)
                and is_valid(o, now, q.validity)]
        hits.sort(key=lambda o: (-o.validity.timestamp, o.info.producer))
        if q.limit is not None:
            hits = hits[:q.limit]
        return hits

    def history(self, key: str) -> list[ContextObject]:
        """The key's objects, oldest first; a filed reading becomes its
        object here."""
        out = []
        ring = iter(self._by_key.get(key, ()))
        for validity, item in zip(ring, ring):
            if validity is not None:
                nature, _, value, producer = item
                if type(value) is not str:
                    value = Quantity(float(value), "")
                item = ContextObject(
                    ContextInformation(nature, key, value, producer),
                    InformationValidity(*validity))
            out.append(item)
        return out
