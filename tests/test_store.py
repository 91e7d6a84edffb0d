import pickle
import random
from collections import deque

from hypothesis import given, settings, strategies as st

from adaptsim.context import (ContextInformation, ContextNature,
                              ContextObject, InformationValidity, Location,
                              Quantity, ValidityPolicy, is_valid, stamp)
from adaptsim.store import DEFAULT_CAPACITY, ContextQuery, ContextStore


def obj(key="k", ts=0, producer="p", value=None, host="h1"):
    info = ContextInformation(
        nature=ContextNature.ENVIRONMENT, key=key,
        value=value if value is not None else Quantity(1.0, "u"),
        producer=producer)
    return stamp(info, ts, Location(host=host), "app", 1.0)


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


class EagerStore:
    """The store as it was before it built objects on read: every object
    is built at put time.  The oracle of `TestLazyAgainstEager`."""

    def __init__(self):
        self._by_key: dict = {}

    def put(self, obj: ContextObject) -> None:
        key = obj.info.key
        if key not in self._by_key:
            self._by_key[key] = deque(maxlen=DEFAULT_CAPACITY)
        self._by_key[key].append(obj)

    def _matches(self, obj, q: ContextQuery) -> bool:
        if q.nature_filter is not None and \
                obj.info.nature not in q.nature_filter:
            return False
        if q.prefix:
            return obj.info.key.startswith(q.key_pattern)
        return q.key_pattern == "" or obj.info.key == q.key_pattern

    def all_objects(self):
        for key in sorted(self._by_key):
            yield from self._by_key[key]

    def query(self, q: ContextQuery, now: int) -> list:
        hits = [o for o in self.all_objects()
                if self._matches(o, q) and is_valid(o, now, q.validity)]
        hits.sort(key=lambda o: (-o.validity.timestamp, o.info.producer))
        if q.limit is not None:
            hits = hits[:q.limit]
        return hits

    def history(self, key: str) -> list:
        return list(self._by_key.get(key, ()))


def objects_of(record) -> list:
    """The objects a report record stands for, built as a report built
    them before the store built them on read."""
    validity, readings = record
    return [ContextObject(
        ContextInformation(nature, key, value if isinstance(value, str)
                           else Quantity(float(value), ""), producer),
        InformationValidity(*validity)) for nature, key, value, producer
        in readings]


KEYS = ("battery.level", "component.alive", "flow.rate", "temp")
validities = st.tuples(
    st.integers(0, 60), st.sampled_from((Location("h1"), Location("h2"))),
    st.sampled_from((1.0, 0.4)), st.sampled_from(("platform", "app")))
readings = st.tuples(
    st.sampled_from(list(ContextNature)), st.sampled_from(KEYS),
    st.one_of(st.sampled_from(("c1", "c2")), st.integers(0, 3),
              st.floats(0, 1)),
    st.sampled_from(("p", "q")))
# a put, a report put `times` times over, or a pickle round-trip of the
# store under test
operations = st.lists(st.one_of(
    st.tuples(st.just("put"), validities, readings),
    st.tuples(st.just("report"), validities, st.lists(readings, max_size=6),
              st.integers(1, 30)),
    st.just(("pickle",))), max_size=30)
queries = st.builds(
    ContextQuery,
    key_pattern=st.sampled_from(KEYS + ("", "flow.", "t")),
    prefix=st.booleans(),
    nature_filter=st.one_of(st.none(), st.frozensets(st.sampled_from(
        list(ContextNature)))),
    validity=st.builds(
        ValidityPolicy,
        max_age=st.one_of(st.none(), st.integers(0, 40)),
        min_confidence=st.floats(0, 1),
        spatial_scope=st.one_of(st.none(), st.just(frozenset({"h1"}))),
        owner_filter=st.one_of(st.none(), st.just(frozenset({"app"}))),
        half_life=st.integers(1, 64)),
    limit=st.one_of(st.none(), st.integers(1, 80)))


class TestLazyAgainstEager:
    def assert_same(self, lazy, eager, asked, now):
        for key in KEYS + ("absent",):
            assert lazy.history(key) == eager.history(key)
        assert list(lazy.all_objects()) == list(eager.all_objects())
        # at 60, past every timestamp, `ContextQuery()` returns every
        # object, so ties in time and producer across keys show their order
        for q in asked + [ContextQuery(), ContextQuery(prefix=True)]:
            for at in (now, 60):
                assert lazy.query(q, at) == eager.query(q, at)

    @settings(max_examples=150, deadline=None)
    @given(operations, st.lists(queries, max_size=4), st.integers(0, 70))
    def test_every_answer_equals_the_eager_stores(self, ops, asked, now):
        lazy, eager = ContextStore(), EagerStore()
        for op in ops:
            if op[0] == "put":
                [o] = objects_of((op[1], [op[2]]))
                lazy.put(o)
                eager.put(o)
            elif op[0] == "report":
                _, validity, found, times = op
                for _ in range(times):
                    lazy.put((validity, found))
                    for o in objects_of((validity, found)):
                        eager.put(o)
            else:
                lazy = pickle.loads(pickle.dumps(lazy))
            self.assert_same(lazy, eager, asked, now)

    def test_a_ring_shared_by_puts_and_reports_keeps_the_newest(self):
        """A scenario reading and a host's reports share `battery.level`;
        past the ring's capacity the oldest go first, whichever way they
        came in."""
        lazy, eager = ContextStore(), EagerStore()
        for t in range(3 * DEFAULT_CAPACITY):
            validity = (t, Location("h1"), 1.0, "platform")
            if t % 3:
                record = (validity, [
                    (ContextNature.HARDWARE, "battery.level", t / 100, "h1"),
                    (ContextNature.HARDWARE, "component.alive", "c", "c")])
                lazy.put(record)
                for o in objects_of(record):
                    eager.put(o)
            else:
                o = stamp(ContextInformation(
                    ContextNature.ENVIRONMENT, "battery.level",
                    Quantity(0.5, "V"), "sensor"), t, Location("h1"), "app",
                    1.0)
                lazy.put(o)
                eager.put(o)
        history = lazy.history("battery.level")
        assert len(history) == DEFAULT_CAPACITY
        assert [o.validity.timestamp for o in history] == list(
            range(2 * DEFAULT_CAPACITY, 3 * DEFAULT_CAPACITY))
        self.assert_same(lazy, eager, [ContextQuery(limit=70)],
                         3 * DEFAULT_CAPACITY)
