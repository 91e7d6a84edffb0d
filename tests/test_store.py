import random

from adaptsim.context import (ContextInformation, ContextNature, Location,
                              Quantity, ValidityPolicy, is_valid, stamp)
from adaptsim.store import DEFAULT_CAPACITY, ContextQuery, ContextStore


def obj(key="k", ts=0, producer="p", value=None, host="h1", coords=None):
    info = ContextInformation(
        nature=ContextNature.ENVIRONMENT, key=key,
        value=value if value is not None else Quantity(1.0, "u"),
        producer=producer)
    return stamp(info, ts, Location(host=host, coords=coords), "app", 1.0)


class TestPut:
    def test_ring_eviction(self):
        s = ContextStore()
        for t in range(DEFAULT_CAPACITY + 1):
            s.put(obj(ts=t))
        assert [o.validity.timestamp for o in s.history("k")] == \
            list(range(1, DEFAULT_CAPACITY + 1))

    def test_independent_keys(self):
        s = ContextStore()
        for t in range(DEFAULT_CAPACITY + 1):
            s.put(obj(key="a", ts=t))
        s.put(obj(key="b", ts=0))
        assert len(s.history("a")) == DEFAULT_CAPACITY
        assert len(s.history("b")) == 1

    def test_round_trip(self):
        s = ContextStore()
        o = obj(ts=4)
        s.put(o)
        assert s.history("k") == [o]

    def test_eviction_never_removes_newer(self):
        s = ContextStore()
        for t in range(DEFAULT_CAPACITY + 7):
            s.put(obj(ts=t))
        kept = [o.validity.timestamp for o in s.history("k")]
        assert kept == list(range(7, DEFAULT_CAPACITY + 7))


class TestQuery:
    def test_empty_store(self):
        assert ContextStore().query(ContextQuery(), now=0) == []

    def test_age_filter(self):
        s = ContextStore()
        s.put(obj(key="a", ts=18))    # age 2
        s.put(obj(key="b", ts=0))     # age 20
        got = s.query(ContextQuery(validity=ValidityPolicy(max_age=10)),
                      now=20)
        assert [o.info.key for o in got] == ["a"]

    def test_returned_objects_satisfy_policy(self):
        s = ContextStore()
        for t in range(0, 40, 7):
            s.put(obj(key=f"k{t}", ts=t))
        policy = ValidityPolicy(max_age=15, min_confidence=0.3)
        for o in s.query(ContextQuery(validity=policy), now=40):
            assert is_valid(o, 40, policy)

    def test_limit_against_sort_oracle(self):
        rng = random.Random(7)
        s = ContextStore()
        objs = [obj(key="k", ts=rng.randrange(100), producer=f"p{i}")
                for i in range(5)]
        for o in objs:
            s.put(o)
        got = s.query(ContextQuery(key_pattern="k", limit=3), now=200)
        oracle = sorted(objs, key=lambda o: (-o.validity.timestamp,
                                             o.info.producer))[:3]
        assert got == oracle

    def test_brute_force_equivalence(self):
        rng = random.Random(99)
        s = ContextStore()
        objs = []
        for i in range(100):
            o = obj(key=f"key{rng.randrange(8)}", ts=rng.randrange(60),
                    producer=f"p{rng.randrange(4)}")
            s.put(o)
            objs.append(o)
        policy = ValidityPolicy(max_age=30)
        q = ContextQuery(key_pattern="key", prefix=True, validity=policy)
        # independent brute force over everything ever stored and retained
        retained = [o for o in s.all_objects()]
        expected = sorted(
            (o for o in retained
             if o.info.key.startswith("key") and is_valid(o, 60, policy)),
            key=lambda o: (-o.validity.timestamp, o.info.producer))
        assert s.query(q, now=60) == expected

    def test_nature_filter(self):
        s = ContextStore()
        s.put(obj(key="e", ts=1))
        q = ContextQuery(nature_filter=frozenset({ContextNature.USER}))
        assert s.query(q, now=5) == []
