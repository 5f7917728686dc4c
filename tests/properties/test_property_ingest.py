"""Property tests for streaming ingest: never stale, regionally thrifty.

Two claims the durable ingest path stands on, checked on generated
mutation streams:

* **Never stale.**  After any batch becomes visible, a served query —
  cached or not — scores exactly what the brute-force oracle computes on
  the *current* alive objects.  Regional invalidation may keep entries a
  version bump would have dropped, but it may never keep a wrong one.
* **Regionally thrifty.**  A focused cache entry whose window misses
  every touched region survives the flip byte-identically — the whole
  point of regional over whole-dataset invalidation.
"""

from hypothesis import given, settings, strategies as st

from repro.core.naive import NaiveBRS
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.ingest.events import Delete, Insert
from repro.ingest.live import LiveDataset
from repro.ingest.pipeline import IngestPipeline
from repro.ingest.wal import IngestLog
from repro.serve.aio import AsyncServeEngine
from repro.serve.cache import ResultCache
from repro.serve.model import QueryRequest
from repro.serve.store import DatasetStore

SPACE = Rect(0.0, 12.0, 0.0, 12.0)

# Half-integer lattice coordinates provoke boundary contact between
# query windows and mutated points — the regime where an open-interval
# overlap test would under-evict.
_coord = st.integers(min_value=2, max_value=20).map(lambda v: v / 2.0)
_payload = st.lists(st.integers(0, 5), min_size=0, max_size=3).map(sorted)

_base = st.lists(
    st.tuples(_coord, _coord, _payload), min_size=3, max_size=10, unique_by=lambda t: (t[0], t[1])
)


@st.composite
def streams(draw):
    """A base instance plus 1-3 mutation batches over it."""
    base = draw(_base)
    n_batches = draw(st.integers(1, 3))
    batches = []
    n_alive = len(base)
    next_id = len(base)
    for _ in range(n_batches):
        events = []
        for _ in range(draw(st.integers(1, 3))):
            if n_alive <= 2 or draw(st.booleans()):
                events.append(
                    Insert(draw(_coord), draw(_coord), payload=draw(_payload))
                )
                next_id += 1
                n_alive += 1
            else:
                # Delete a base-era object (always alive until drawn here).
                victim = draw(st.integers(0, len(base) - 1))
                if any(
                    isinstance(e, Delete) and e.obj_id == victim
                    for batch in batches + [events]
                    for e in batch
                ):
                    continue
                events.append(Delete(victim))
                n_alive -= 1
        if events:
            batches.append(events)
    return base, batches


def _setup(tmp_path_factory, base):
    # A sentinel object outside the mutation lattice ([1, 10]²): deletes
    # only ever target generated base ids, so the focus window around it
    # stays untouched through any stream.
    live = LiveDataset(
        [Point(x, y) for x, y, _ in base] + [Point(11.5, 11.5)],
        [p for _, _, p in base] + [[0]],
        space=SPACE,
    )
    store = DatasetStore()
    cache = ResultCache(64)
    points, _, fn = live.snapshot()
    store.add_points("d", points, fn, fn_key="coverage", space=SPACE)
    engine = AsyncServeEngine(store, cache=cache, workers=1).start_background()
    wal = tmp_path_factory.mktemp("ingest") / "wal.jsonl"
    pipe = IngestPipeline(
        live,
        IngestLog(wal, sync=False),
        store=store,
        cache=cache,
        dataset_id="d",
    )
    return live, store, cache, engine, pipe


def _oracle_score(live, a, b):
    points, _, fn = live.snapshot()
    return NaiveBRS().solve(points, fn, a, b).score


@given(streams())
@settings(max_examples=25, deadline=None)
def test_served_answers_are_never_stale(tmp_path_factory, stream):
    base, batches = stream
    live, store, cache, engine, pipe = _setup(tmp_path_factory, base)
    try:
        request = QueryRequest(dataset="d", a=2.0, b=2.0)
        engine.query(request, timeout=60)  # warm the cache pre-mutation
        for events in batches:
            pipe.append(events)
            response = engine.query(request, timeout=60)
            assert response.status == "ok"
            assert response.score == _oracle_score(live, 2.0, 2.0)
    finally:
        pipe.close()
        engine.close()


@given(streams())
@settings(max_examples=25, deadline=None)
def test_untouched_focused_entries_survive_byte_identically(
    tmp_path_factory, stream
):
    base, batches = stream
    live, store, cache, engine, pipe = _setup(tmp_path_factory, base)
    try:
        # A focus window holding only the sentinel object, strictly
        # outside the mutation lattice: no batch can ever touch it.
        focus = (11.0, 12.0, 11.0, 12.0)
        request = QueryRequest(dataset="d", a=0.5, b=0.5, focus=focus)
        first = engine.query(request, timeout=60)
        for events in batches:
            pipe.append(events)
        again = engine.query(request, timeout=60)
        assert again.cached
        assert again.canonical_bytes() == first.canonical_bytes()
    finally:
        pipe.close()
        engine.close()


@given(streams())
@settings(max_examples=25, deadline=None)
def test_touched_entries_are_refreshed_not_reused(tmp_path_factory, stream):
    base, batches = stream
    live, store, cache, engine, pipe = _setup(tmp_path_factory, base)
    try:
        # A whole-space (unfocused) entry depends on every object, so any
        # visible batch must drop it; the refreshed answer matches the
        # oracle on the mutated data.
        request = QueryRequest(dataset="d", a=3.0, b=3.0)
        engine.query(request, timeout=60)
        for events in batches:
            pipe.append(events)
        response = engine.query(request, timeout=60)
        assert not response.cached
        assert response.score == _oracle_score(live, 3.0, 3.0)
    finally:
        pipe.close()
        engine.close()
