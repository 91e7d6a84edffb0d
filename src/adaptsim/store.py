"""Per-host context storage: a bounded history per key and filtered
queries over it.

One store exists per host and is only touched by that host's platform
activity.  Remote context goes through platform services, never through
direct store access.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .context import ContextObject, ValidityPolicy, is_valid
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


@dataclass(frozen=True)
class StoreConfig:
    per_key_capacity: int = DEFAULT_CAPACITY

    def __post_init__(self):
        if self.per_key_capacity < 1:
            raise ValidationError("per_key_capacity must be >= 1")


class ContextStore:
    """History-preserving ring-buffer store, keyed by context key."""

    def __init__(self, config: StoreConfig = StoreConfig()):
        self.config = config
        self._by_key: dict[str, deque] = {}

    def put(self, obj: ContextObject) -> None:
        key = obj.info.key
        if key not in self._by_key:
            self._by_key[key] = deque(maxlen=self.config.per_key_capacity)
        self._by_key[key].append(obj)

    def _matches(self, obj: ContextObject, q: ContextQuery) -> bool:
        if q.nature_filter is not None and obj.info.nature not in q.nature_filter:
            return False
        if q.prefix:
            return obj.info.key.startswith(q.key_pattern)
        return q.key_pattern == "" or obj.info.key == q.key_pattern

    def all_objects(self) -> Iterable[ContextObject]:
        for key in sorted(self._by_key):
            yield from self._by_key[key]

    def query(self, q: ContextQuery, now: int) -> list[ContextObject]:
        """Matching objects, newest first, producer id breaking ties."""
        hits = [o for o in self.all_objects()
                if self._matches(o, q) and is_valid(o, now, q.validity)]
        hits.sort(key=lambda o: (-o.validity.timestamp, o.info.producer))
        if q.limit is not None:
            hits = hits[:q.limit]
        return hits

    def history(self, key: str) -> list[ContextObject]:
        return list(self._by_key.get(key, ()))
