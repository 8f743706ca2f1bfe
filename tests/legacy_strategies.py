"""Frozen MU, FP and fp-mu choose code: the oracle for the ranking walks.

Before the quality board kept maintained rankings, every call scored
and sorted every eligible resource.  This module keeps that code as it
was, so the equivalence properties can check that the board's ranking
walks pick exactly the same resources, call for call.  Do not optimize
it: its value is that it is the old, obviously-correct computation.
"""

from __future__ import annotations

import heapq

from repro.errors import StrategyError
from repro.strategies.base import AllocationContext, Strategy

__all__ = ["LegacyFewestPostsFirst", "LegacyHybridFpMu", "LegacyMostUnstableFirst"]


def _sorted_eligible(strategy: Strategy, context: AllocationContext) -> list[int]:
    ids = sorted(context.eligible)
    if not ids:
        raise StrategyError(
            f"strategy {strategy.name!r}: no eligible resources to choose from"
        )
    return ids


class LegacyMostUnstableFirst(Strategy):
    """MU by scoring and sorting every eligible resource."""

    name = "mu"

    def choose(self, context: AllocationContext, count: int) -> list[int]:
        ids = _sorted_eligible(self, context)
        eligible = set(ids)
        scored = [
            (
                -(1.0 - context.board.quality_of(resource_id)),
                context.post_count(resource_id),
                resource_id,
            )
            for resource_id in eligible
        ]
        scored.sort()
        return [resource_id for _neg, _posts, resource_id in scored[:count]]


class LegacyFewestPostsFirst(Strategy):
    """FP by ``heapq.nsmallest`` over every eligible resource."""

    name = "fp"

    def choose(self, context: AllocationContext, count: int) -> list[int]:
        ids = _sorted_eligible(self, context)
        ranked = heapq.nsmallest(
            count,
            ((context.post_count(resource_id), resource_id) for resource_id in ids),
        )
        return [resource_id for _posts, resource_id in ranked]


class LegacyHybridFpMu(Strategy):
    """fp-mu whose ``min_posts`` switch scans every eligible resource."""

    name = "fp-mu"

    def __init__(self, *, min_posts: int = 5, budget_fraction: float | None = None) -> None:
        self.min_posts = min_posts
        self.budget_fraction = budget_fraction
        self._fp = LegacyFewestPostsFirst()
        self._mu = LegacyMostUnstableFirst()
        self._switched = False

    @property
    def in_mu_phase(self) -> bool:
        return self._switched

    def _should_switch(self, context: AllocationContext) -> bool:
        if self.budget_fraction is not None:
            if context.budget_total <= 0:
                return True
            return context.budget_spent >= self.budget_fraction * context.budget_total
        return all(
            context.post_count(resource_id) >= self.min_posts
            for resource_id in context.eligible
        )

    def choose(self, context: AllocationContext, count: int) -> list[int]:
        if not self._switched and self._should_switch(context):
            self._switched = True
        active = self._mu if self._switched else self._fp
        return active.choose(context, count)

    def reset(self) -> None:
        self._switched = False
