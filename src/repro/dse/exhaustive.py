"""Exhaustive enumeration for small (sub)spaces.

The full Table 1 spaces are hopeless to enumerate (that is the paper's
point), but a *restricted* subspace can be small enough to brute-force,
which gives a ground-truth optimum to validate the learning-based DSE
against (see ``tests/dse/test_exhaustive_validation.py``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from ..errors import DSEError
from .evaluator import Evaluation, Evaluator
from .space import DesignSpace


def enumerate_points(space: DesignSpace,
                     limit: Optional[int] = None) -> Iterator[dict]:
    """Yield every point of the space in a deterministic order.

    ``limit`` guards against accidentally enumerating a huge space.
    """
    if limit is not None and space.size() > limit:
        raise DSEError(
            f"space has {space.size():,} points, refusing to enumerate "
            f"more than {limit:,}")
    names = [p.name for p in space.parameters]
    value_lists = [p.values for p in space.parameters]
    for combo in itertools.product(*value_lists):
        yield dict(zip(names, combo))


@dataclass
class ExhaustiveResult:
    """Ground truth for a small space."""

    best_point: dict
    best_qor: float
    evaluated: int
    feasible: int


def exhaustive_search(evaluator: Evaluator, space: DesignSpace,
                      limit: int = 100_000) -> ExhaustiveResult:
    """Evaluate every point; returns the true optimum of the space."""
    best: Optional[Evaluation] = None
    evaluated = 0
    feasible = 0
    for point in enumerate_points(space, limit=limit):
        evaluation = evaluator.evaluate(point)
        evaluated += 1
        if evaluation.qor != float("inf"):
            feasible += 1
        if best is None or evaluation.qor < best.qor:
            best = evaluation
    if best is None:
        raise DSEError("the space is empty")
    return ExhaustiveResult(
        best_point=dict(best.point),
        best_qor=best.qor,
        evaluated=evaluated,
        feasible=feasible,
    )
