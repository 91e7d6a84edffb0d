"""Context objects: typed information plus a validity envelope.

A piece of context is the pairing of what was observed (nature, key, value,
producer) with when/where/how-trustworthy it was observed (timestamp,
location, confidence, owner).  Objects are immutable; history is kept by
creating new ones.  Confidence decays exponentially with age.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

from .errors import ClockSkewError, ValidationError


class ContextNature(Enum):
    USER = "User"
    HARDWARE = "Hardware"
    ENVIRONMENT = "Environment"

    @property
    def short(self) -> str:
        return self.value[0]  # U / H / E


@dataclass(frozen=True)
class Quantity:
    """A numeric context value with its unit tag."""

    value: float
    unit: str


Coordinate = tuple[float, float]
ContextValue = Union[Quantity, str, Coordinate]


@dataclass(frozen=True)
class ContextInformation:
    nature: ContextNature
    key: str
    value: ContextValue
    producer: str

    def __post_init__(self):
        if not self.key:
            raise ValidationError("context key must be non-empty")


@dataclass(frozen=True)
class Location:
    """Where a reading was taken: a host identity, coordinates, or both."""

    host: Optional[str] = None
    coords: Optional[Coordinate] = None


@dataclass(frozen=True)
class InformationValidity:
    timestamp: int
    location: Location
    base_confidence: float
    owner: str

    def __post_init__(self):
        if not 0.0 <= self.base_confidence <= 1.0:
            raise ValidationError(
                f"confidence {self.base_confidence} outside [0, 1]")
        if not self.owner:
            raise ValidationError("owner must be non-empty")
        if self.timestamp < 0:
            raise ValidationError("timestamp must be non-negative")


@dataclass(frozen=True)
class ContextObject:
    info: ContextInformation
    validity: InformationValidity

    def trace_repr(self) -> str:
        """Serialize for trace lines."""
        v = self.info.value
        if isinstance(v, Quantity):
            val = f"{v.value:g}{v.unit}"
        elif isinstance(v, tuple):
            val = f"{v[0]:g},{v[1]:g}"
        else:
            val = str(v)
        loc = self.validity.location
        if loc.coords is not None:
            where = f"{loc.coords[0]:g},{loc.coords[1]:g}"
        else:
            where = loc.host or "?"
        return (f"key={self.info.key} nature={self.info.nature.short} "
                f"val={val} t={self.validity.timestamp} loc={where} "
                f"conf={self.validity.base_confidence:g} "
                f"own={self.validity.owner}")


DEFAULT_HALF_LIFE = 32


@dataclass(frozen=True)
class ValidityPolicy:
    """Filter bounds for deciding whether a context object is still usable.

    Absent fields pass everything.  spatial_scope is either a set of host
    ids or a (center, radius) pair checked with Euclidean distance.
    """

    max_age: Optional[int] = None
    min_confidence: float = 0.0
    spatial_scope: Optional[Union[frozenset, tuple]] = None
    owner_filter: Optional[frozenset] = None
    half_life: int = DEFAULT_HALF_LIFE

    def __post_init__(self):
        if self.half_life <= 0:
            raise ValidationError("half_life must be positive")
        if not 0.0 <= self.min_confidence <= 1.0:
            raise ValidationError("min_confidence outside [0, 1]")


def stamp(info: ContextInformation, now: int, location: Location,
          owner: str, base_confidence: float) -> ContextObject:
    """Freeze a piece of information with its validity at production time."""
    validity = InformationValidity(
        timestamp=now, location=location,
        base_confidence=base_confidence, owner=owner)
    return ContextObject(info=info, validity=validity)


def freshness(obj: ContextObject, now: int) -> int:
    """Age in ticks since the object was stamped."""
    ts = obj.validity.timestamp
    if now < ts:
        raise ClockSkewError(f"now={now} precedes timestamp={ts}")
    return now - ts


def effective_confidence(obj: ContextObject, now: int,
                         half_life: int = DEFAULT_HALF_LIFE) -> float:
    """Confidence after exponential age decay: base * 2^(-age/half_life)."""
    if half_life <= 0:
        raise ValidationError("half_life must be positive")
    age = freshness(obj, now)
    return obj.validity.base_confidence * math.pow(2.0, -age / half_life)


def _in_spatial_scope(obj: ContextObject, scope) -> bool:
    loc = obj.validity.location
    if isinstance(scope, (set, frozenset)):
        return loc.host in scope
    center, radius = scope
    if loc.coords is None:
        return False
    dx = loc.coords[0] - center[0]
    dy = loc.coords[1] - center[1]
    return math.hypot(dx, dy) <= radius


def is_valid(obj: ContextObject, now: int, policy: ValidityPolicy) -> bool:
    """Conjunction of the age, confidence, spatial and ownership filters."""
    try:
        age = freshness(obj, now)
    except ClockSkewError:
        return False
    if policy.max_age is not None and age > policy.max_age:
        return False
    if effective_confidence(obj, now, policy.half_life) < policy.min_confidence:
        return False
    if policy.spatial_scope is not None and not _in_spatial_scope(
            obj, policy.spatial_scope):
        return False
    if policy.owner_filter is not None and \
            obj.validity.owner not in policy.owner_filter:
        return False
    return True
