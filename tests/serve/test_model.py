"""Tests for query normalization, cache keys, and the response model."""

import pytest

from repro.runtime.errors import InvalidQueryError
from repro.serve.model import (
    QueryRequest,
    QueryResponse,
    normalize_query,
    quantize,
)


class TestQuantize:
    def test_idempotent(self):
        for value in (1.0, 3.14159265, 1234567.89, 1e-7, 0.30000000000000004):
            assert quantize(quantize(value)) == quantize(value)

    def test_collapses_float_noise(self):
        assert quantize(0.1 + 0.2) == quantize(0.3)

    def test_keeps_human_differences(self):
        assert quantize(1.5) != quantize(1.50001)


class TestQueryRequest:
    def test_explicit_sizing_validates(self):
        QueryRequest(dataset="d", a=2.0, b=3.0).validated()

    def test_k_sizing_validates(self):
        QueryRequest(dataset="d", k=1.5, aspect=2.0).validated()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},                                  # no rectangle at all
            {"a": 1.0},                          # half-specified
            {"a": 1.0, "b": 2.0, "k": 1.0},      # doubly specified
            {"a": -1.0, "b": 2.0},               # non-positive
            {"a": 1.0, "b": float("inf")},       # non-finite
            {"k": 1.0, "timeout": 0.0},          # non-positive deadline
            {"a": 1.0, "b": 1.0, "focus": (3.0, 1.0, 0.0, 2.0)},  # degenerate
        ],
    )
    def test_rejects_malformed(self, kwargs):
        with pytest.raises(InvalidQueryError):
            QueryRequest(dataset="d", **kwargs).validated()

    def test_rejects_missing_dataset(self):
        with pytest.raises(InvalidQueryError):
            QueryRequest(dataset="", a=1.0, b=1.0).validated()

    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(InvalidQueryError, match="unknown request fields"):
            QueryRequest.from_json({"dataset": "d", "a": 1, "b": 1, "wdith": 3})

    def test_json_roundtrip(self):
        req = QueryRequest(
            dataset="d", a=2.0, b=3.0, focus=(0.0, 1.0, 0.0, 1.0), timeout=5.0
        )
        assert QueryRequest.from_json(req.to_json()) == req


class TestNormalization:
    def test_noise_maps_to_same_key(self):
        k1 = normalize_query("d", 1, "coverage", 0.1 + 0.2, 1.0)
        k2 = normalize_query("d", 1, "coverage", 0.3, 1.0)
        assert k1 == k2

    def test_version_distinguishes_keys(self):
        k1 = normalize_query("d", 1, "coverage", 1.0, 1.0)
        k2 = normalize_query("d", 2, "coverage", 1.0, 1.0)
        assert k1 != k2

    def test_focus_distinguishes_keys(self):
        plain = normalize_query("d", 1, "coverage", 1.0, 2.0)
        focused = normalize_query(
            "d", 1, "coverage", 1.0, 2.0, focus=(0.0, 5.0, 0.0, 5.0)
        )
        assert plain != focused

    def test_keys_are_hashable_identities(self):
        keys = {
            normalize_query("d", 1, "coverage", 1.0, 2.0),
            normalize_query("d", 1, "coverage", 1.0000000001, 2.0),
        }
        assert len(keys) == 1

    def test_rejects_bad_sizes(self):
        with pytest.raises(InvalidQueryError):
            normalize_query("d", 1, "coverage", 0.0, 1.0)


class TestQueryResponse:
    def _response(self, **overrides):
        base = dict(
            status="ok", dataset="d", version=1, a=1.0, b=2.0,
            center=(3.0, 4.0), score=5.0, object_ids=(1, 2, 3),
            solver_status="ok",
        )
        base.update(overrides)
        return QueryResponse(**base)

    def test_envelope_excluded_from_equality_and_bytes(self):
        fresh = self._response()
        cached = fresh.with_envelope(cached=True, seconds=0.5)
        assert fresh == cached
        assert fresh.canonical_bytes() == cached.canonical_bytes()
        assert cached.cached and cached.seconds == 0.5

    def test_different_cores_differ(self):
        assert (
            self._response().canonical_bytes()
            != self._response(score=6.0).canonical_bytes()
        )

    def test_json_roundtrip_preserves_core_bytes(self):
        resp = self._response(upper_bound=9.5)
        back = QueryResponse.from_json(resp.to_json())
        assert back.canonical_bytes() == resp.canonical_bytes()
        assert back == resp
