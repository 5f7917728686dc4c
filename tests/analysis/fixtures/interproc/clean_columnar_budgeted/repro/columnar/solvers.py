"""Fixture: the columnar entry point polls its budget each step."""


def columnar_best_region(data, budget=None):
    best = None
    for value in data:
        if budget is not None and budget.expired():
            break
        if best is None or value > best:
            best = value
    return best
