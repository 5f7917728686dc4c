"""Fixture: AsyncServeEngine reaches the columnar entry with no budget."""
from repro.columnar.solvers import columnar_best_region


class AsyncServeEngine:
    def submit_threadsafe(self, data):
        return self._dispatch(data)

    def _dispatch(self, data):
        return columnar_best_region(data)
