"""Property tests for the serving cache: byte-identity and staleness.

The two claims the result cache stands on, checked on arbitrary generated
instances:

* a cached :class:`~repro.serve.model.QueryResponse` is **byte-identical**
  to the answer a fresh solve of the same normalized query produces;
* after a dataset-version bump the cache can **never serve stale scores**
  — the next answer always matches the brute-force oracle on the *new*
  data, even though the old answer is still sitting in the cache's
  storage under the old version's key.
"""

from hypothesis import given, settings, strategies as st

from repro.core.naive import NaiveBRS
from repro.functions.coverage import CoverageFunction
from repro.geometry.point import Point
from repro.serve.aio import AsyncServeEngine
from repro.serve.cache import ResultCache
from repro.serve.model import QueryRequest
from repro.serve.store import DatasetStore

# Lattice coordinates deliberately provoke ties (coincident coordinates,
# objects exactly a rectangle apart) — the regime where two "equal-score"
# solves could plausibly disagree on serialization.
_coord = st.integers(min_value=0, max_value=24).map(lambda v: v / 2.0)
_points = st.lists(
    st.tuples(_coord, _coord), min_size=1, max_size=14
).map(lambda pairs: [Point(x, y) for x, y in pairs])
_rect_side = st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])


@st.composite
def instances(draw):
    points = draw(_points)
    labels = [
        draw(st.sets(st.integers(0, 5), min_size=0, max_size=3))
        for _ in points
    ]
    return points, labels, draw(_rect_side), draw(_rect_side)


def _engine(points, labels):
    store = DatasetStore()
    store.add_points("d", points, CoverageFunction(labels), fn_key="coverage")
    return AsyncServeEngine(
        store, cache=ResultCache(64), workers=1
    ).start_background()


@given(instances())
@settings(max_examples=40, deadline=None)
def test_cached_response_is_byte_identical_to_fresh_solve(instance):
    points, labels, a, b = instance
    engine = _engine(points, labels)
    try:
        req = QueryRequest(dataset="d", a=a, b=b)
        fresh = engine.query(req, timeout=60)
        cached = engine.query(req, timeout=60)
        assert fresh.status == "ok"
        assert cached.cached
        assert cached.canonical_bytes() == fresh.canonical_bytes()
        # And the cacheable cores compare equal as values too.
        assert cached == fresh
    finally:
        engine.close()


@given(instances(), instances())
@settings(max_examples=25, deadline=None)
def test_invalidation_never_serves_stale_scores(old_instance, new_instance):
    old_points, old_labels, a, b = old_instance
    new_points, new_labels, _, _ = new_instance
    engine = _engine(old_points, old_labels)
    try:
        req = QueryRequest(dataset="d", a=a, b=b)
        before = engine.query(req, timeout=60)
        oracle_old = NaiveBRS().solve(
            old_points, CoverageFunction(old_labels), a, b
        )
        assert abs(before.score - oracle_old.score) < 1e-9

        # Replace the data; replace_points bumps the version, and the
        # engine-level invalidate purges reachable entries as well.
        engine.store.replace_points(
            "d", new_points, CoverageFunction(new_labels)
        )
        engine.cache.purge_dataset("d")

        after = engine.query(req, timeout=60)
        oracle_new = NaiveBRS().solve(
            new_points, CoverageFunction(new_labels), a, b
        )
        assert not after.cached
        assert after.version == before.version + 1
        assert abs(after.score - oracle_new.score) < 1e-9
    finally:
        engine.close()


@given(instances())
@settings(max_examples=25, deadline=None)
def test_stale_entry_left_in_storage_is_unreachable(instance):
    points, labels, a, b = instance
    engine = _engine(points, labels)
    try:
        req = QueryRequest(dataset="d", a=a, b=b)
        engine.query(req, timeout=60)
        # Bump the version WITHOUT purging: the stale entry stays stored,
        # and key-embedded versions alone must keep it unservable.
        engine.store.bump_version("d")
        assert len(engine.cache) == 1
        after = engine.query(req, timeout=60)
        oracle = NaiveBRS().solve(points, CoverageFunction(labels), a, b)
        assert not after.cached
        assert abs(after.score - oracle.score) < 1e-9
    finally:
        engine.close()
