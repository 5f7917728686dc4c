"""Fixture: AsyncServeEngine threads a budget to the columnar entry."""
from repro.columnar.solvers import columnar_best_region


class AsyncServeEngine:
    def submit_threadsafe(self, data, budget):
        return self._dispatch(data, budget)

    def _dispatch(self, data, budget):
        return columnar_best_region(data, budget=budget)
