"""Fixture: AsyncServeEngine dispatches to the solver with no budget check."""
from repro.core.solver import solve


class AsyncServeEngine:
    def submit_threadsafe(self, grid):
        return self._dispatch(grid)

    def _dispatch(self, grid):
        return solve(grid)
