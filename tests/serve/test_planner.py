"""Tests for in-flight dedup and the engine's global capacity."""

from repro.serve.model import normalize_query
from repro.serve.planner import BatchPlanner
from repro.serve.tenancy import TenantAdmission, TenantRegistry

import pytest

from repro.runtime.errors import AdmissionRejectedError


def _key():
    return normalize_query("d", 1, "coverage", 1.0, 2.0)


class TestDedup:
    def test_identical_queries_share_one_entry(self):
        planner = BatchPlanner()
        first, new1 = planner.submit(_key(), None)
        second, new2 = planner.submit(_key(), None)
        assert new1 and not new2
        assert first is second
        assert first.waiters == 2
        assert planner.inflight_count() == 1

    def test_duplicate_joins_an_executing_query(self):
        planner = BatchPlanner()
        first, _ = planner.submit(_key(), None)
        # Dispatch never touches the planner: the entry stays live while
        # it executes, until finish().
        late, is_new = planner.submit(_key(), None)
        assert late is first and not is_new

    def test_finish_retires_the_key(self):
        planner = BatchPlanner()
        first, _ = planner.submit(_key(), None)
        planner.finish(first)
        assert planner.inflight_count() == 0
        again, is_new = planner.submit(_key(), None)
        assert is_new and again is not first


class TestAdmission:
    """The engine's global open-query capacity, tenants aside."""

    def test_rejects_beyond_capacity(self):
        control = TenantAdmission(TenantRegistry(), capacity=2)
        control.admit(None)
        control.admit(None)
        with pytest.raises(AdmissionRejectedError) as excinfo:
            control.admit(None)
        assert excinfo.value.queue_depth == 2
        assert excinfo.value.capacity == 2

    def test_release_reopens_a_slot(self):
        control = TenantAdmission(TenantRegistry(), capacity=1)
        control.admit(None)
        control.release(None)
        control.admit(None)  # must not raise
        assert control.open_total == 1

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            TenantAdmission(TenantRegistry(), capacity=0)
