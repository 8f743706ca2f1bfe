"""The optimal allocation the demo compares against (Sec. IV).

With expected quality curves that are concave and non-decreasing in the
post count (which the oracle curve ``1 − a/√(k+1)`` is), the allocation
maximizing ``Σ_i q_i(c_i + x_i)`` subject to ``Σ x_i = B`` is found by
*greedy marginal allocation*: repeatedly give the next task to the
resource with the largest marginal gain.  This classic result (Fox
1966) is cross-checked against exact dynamic programming in
:mod:`repro.strategies.dp` and the EXP-OPT tests.

Two entry points:

- :class:`OracleGreedy` — a :class:`Strategy` for the online framework,
  driven by a :class:`~repro.quality.gain.GainModel` (lazy max-heap).
- :func:`greedy_allocate` — offline allocator returning the full ``x⃗``
  for a given budget, used by experiments and the DP cross-check.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..errors import StrategyError
from ..quality.gain import GainModel
from .base import AllocationContext, Strategy

__all__ = ["OracleGreedy", "greedy_allocate"]


class OracleGreedy(Strategy):
    """Online greedy on true expected marginal gains (the "optimal" line).

    Uses a lazy heap: entries carry the post count they were computed
    at; stale entries are recomputed on pop.  Gains are non-increasing
    in k, so a fresh value never beats an un-popped stale one unfairly.
    The heap ranks every resource of the corpus; entries of stopped
    resources popped by a pick are set aside and pushed back before
    :meth:`choose` returns, so a resumed resource is ranked again.
    """

    name = "optimal"

    def __init__(self, gain_model: GainModel) -> None:
        self.gain_model = gain_model
        self._heap: list[tuple[float, int, int]] = []
        self._initialized = False

    def _initialize(self, context: AllocationContext) -> None:
        self._heap = []
        for resource_id in context.corpus.resource_ids():
            k = context.post_count(resource_id)
            gain = self.gain_model.gain(resource_id, k)
            heapq.heappush(self._heap, (-gain, resource_id, k))
        self._initialized = True

    def choose(self, context: AllocationContext, count: int) -> list[int]:
        self._eligible_set(context)
        if not self._initialized:
            self._initialize(context)
        chosen: list[int] = []
        # Track within-batch increments so a batch of size > 1 accounts
        # for its own effect on marginal gains.
        pending: dict[int, int] = {}
        stopped: list[tuple[float, int, int]] = []
        while len(chosen) < count:
            if not self._heap:
                raise StrategyError("optimal strategy ran out of heap entries")
            entry = heapq.heappop(self._heap)
            neg_gain, resource_id, at_k = entry
            if resource_id not in context.eligible:
                stopped.append(entry)
                continue
            current_k = context.post_count(resource_id) + pending.get(resource_id, 0)
            if at_k != current_k:
                gain = self.gain_model.gain(resource_id, current_k)
                heapq.heappush(self._heap, (-gain, resource_id, current_k))
                continue
            chosen.append(resource_id)
            pending[resource_id] = pending.get(resource_id, 0) + 1
            next_gain = self.gain_model.gain(resource_id, current_k + 1)
            heapq.heappush(self._heap, (-next_gain, resource_id, current_k + 1))
        for entry in stopped:
            heapq.heappush(self._heap, entry)
        return chosen

    def reset(self) -> None:
        self._heap = []
        self._initialized = False


def greedy_allocate(
    gain_model: GainModel,
    initial_counts: dict[int, int],
    budget: int,
) -> dict[int, int]:
    """Offline optimal allocation ``x⃗`` via greedy marginal gains.

    Returns resource id -> number of tasks; ``Σ x_i == budget`` always
    (gains of 0 still consume budget, matching the problem statement's
    equality constraint).
    """
    if budget < 0:
        raise StrategyError(f"budget must be >= 0, got {budget}")
    if not initial_counts:
        raise StrategyError("greedy_allocate needs at least one resource")
    allocation = {resource_id: 0 for resource_id in initial_counts}
    heap: list[tuple[float, int, int]] = []
    for resource_id, count in initial_counts.items():
        gain = gain_model.gain(resource_id, count)
        heapq.heappush(heap, (-gain, resource_id, count))
    for _ in range(budget):
        neg_gain, resource_id, at_k = heapq.heappop(heap)
        allocation[resource_id] += 1
        next_k = at_k + 1
        next_gain = gain_model.gain(resource_id, next_k)
        heapq.heappush(heap, (-next_gain, resource_id, next_k))
    return allocation


def allocation_value(
    gain_model: GainModel,
    initial_counts: dict[int, int],
    allocation: dict[int, int],
) -> float:
    """Total expected quality improvement of an allocation.

    ``Σ_i [q_i(c_i + x_i) − q_i(c_i)]`` under the gain model's curve.
    """
    total = 0.0
    for resource_id, extra in allocation.items():
        start = initial_counts[resource_id]
        total += gain_model.quality(resource_id, start + extra) - gain_model.quality(
            resource_id, start
        )
    return total


__all__.append("allocation_value")
