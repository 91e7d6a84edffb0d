from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from adaptsim.context import (ContextInformation, ContextNature, Location,
                              Quantity, ValidityPolicy, effective_confidence,
                              freshness, is_valid, stamp)
from adaptsim.errors import ClockSkewError, ValidationError


def make_obj(ts=0, conf=1.0, owner="app", host="h1", key="battery.level"):
    info = ContextInformation(nature=ContextNature.HARDWARE, key=key,
                              value=Quantity(0.5, "%"), producer="sensor")
    return stamp(info, ts, Location(host=host), owner, conf)


class TestStamp:
    def test_field_copy(self):
        obj = make_obj(ts=0, conf=1.0, owner="app")
        assert obj.validity.timestamp == 0
        assert obj.validity.base_confidence == 1.0
        assert obj.validity.owner == "app"
        assert obj.info.key == "battery.level"

    def test_confidence_out_of_range(self):
        info = ContextInformation(ContextNature.USER, "k", "v", "p")
        with pytest.raises(ValidationError):
            stamp(info, 0, Location(host="h1"), "app", 1.5)
        with pytest.raises(ValidationError):
            stamp(info, 0, Location(host="h1"), "app", -0.1)

    def test_empty_owner(self):
        info = ContextInformation(ContextNature.USER, "k", "v", "p")
        with pytest.raises(ValidationError):
            stamp(info, 0, Location(host="h1"), "", 1.0)

    def test_history_distinct_objects(self):
        a = make_obj(ts=3)
        b = make_obj(ts=7)
        assert a is not b
        assert a.validity.timestamp == 3 and b.validity.timestamp == 7

    def test_empty_key_rejected(self):
        with pytest.raises(ValidationError):
            ContextInformation(ContextNature.USER, "", "v", "p")


class TestFreshness:
    def test_zero_age(self):
        assert freshness(make_obj(ts=5), 5) == 0

    def test_subtraction(self):
        assert freshness(make_obj(ts=5), 17) == 12

    def test_clock_skew(self):
        with pytest.raises(ClockSkewError):
            freshness(make_obj(ts=10), 3)


class TestEffectiveConfidence:
    def test_zero_age_identity(self):
        assert effective_confidence(make_obj(ts=0, conf=0.8), 0) == 0.8

    def test_half_life(self):
        got = effective_confidence(make_obj(ts=0, conf=1.0), 10,
                                   half_life=10)
        assert abs(got - 0.5) < 1e-12

    def test_three_half_lives(self):
        # oracle: 0.8 * 2^-3 in exact arithmetic
        expected = float(Fraction(8, 10) * Fraction(1, 8))
        got = effective_confidence(make_obj(ts=0, conf=0.8), 30,
                                   half_life=10)
        assert abs(got - expected) < 1e-12
        assert abs(got - 0.1) < 1e-12

    def test_bad_half_life(self):
        with pytest.raises(ValidationError):
            effective_confidence(make_obj(), 1, half_life=0)

    @given(base=st.floats(0.0, 1.0),
           half_life=st.integers(1, 500),
           ages=st.lists(st.integers(0, 10_000), min_size=2, max_size=30))
    def test_monotone_non_increasing(self, base, half_life, ages):
        obj = make_obj(ts=0, conf=base)
        ages = sorted(ages)
        values = [effective_confidence(obj, a, half_life) for a in ages]
        assert all(x >= y for x, y in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)


class TestIsValid:
    def test_empty_policy_passes_all(self):
        policy = ValidityPolicy()
        for obj in (make_obj(ts=0), make_obj(ts=5, conf=0.1, owner="x")):
            assert is_valid(obj, 1000, policy)

    def test_age_cutoff(self):
        policy = ValidityPolicy(max_age=10)
        assert not is_valid(make_obj(ts=0), 11, policy)
        assert is_valid(make_obj(ts=0), 10, policy)

    def test_confidence_cutoff_via_decay(self):
        # at age == half-life, confidence is half the base: 0.5 < 0.6
        policy = ValidityPolicy(min_confidence=0.6, half_life=10)
        obj = make_obj(ts=0, conf=1.0)
        assert not is_valid(obj, 10, policy)
        assert is_valid(obj, 0, policy)

    @pytest.mark.parametrize("mask", range(16))
    def test_conjunction_of_four_predicates(self, mask):
        """All 16 pass/fail combinations match the predicate conjunction."""
        age_ok = bool(mask & 1)
        conf_ok = bool(mask & 2)
        space_ok = bool(mask & 4)
        owner_ok = bool(mask & 8)
        obj = make_obj(
            ts=0,
            conf=0.9 if conf_ok else 0.1,
            host="inside" if space_ok else "outside",
            owner="alice" if owner_ok else "mallory")
        now = 5 if age_ok else 50
        policy = ValidityPolicy(
            max_age=10, min_confidence=0.5,
            spatial_scope=frozenset({"inside"}),
            owner_filter=frozenset({"alice"}),
            half_life=10_000)      # keep decay negligible here
        assert is_valid(obj, now, policy) == (
            age_ok and conf_ok and space_ok and owner_ok)

    def test_value_immutable(self):
        obj = make_obj()
        with pytest.raises(Exception):
            obj.validity = None
