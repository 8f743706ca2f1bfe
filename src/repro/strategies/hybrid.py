"""Hybrid FP-MU: "use FP first, then use MU" (Table I).

The paper calls this the most effective strategy for improving the tag
quality of R.  The intuition: FP cheaply gives every resource enough
posts for its instability to be *measurable*, then MU spends the rest
of the budget where stabilization is still needed.

Two switch rules are supported (ablated in EXP-H):

- ``min_posts`` (default): stay in FP until every eligible resource has
  at least ``min_posts`` posts, then switch to MU permanently.
- ``budget_fraction``: switch after spending that fraction of the
  budget in FP, regardless of coverage.
"""

from __future__ import annotations

from ..errors import StrategyError
from .base import AllocationContext, Strategy
from .fewest_posts import FewestPostsFirst
from .most_unstable import MostUnstableFirst

__all__ = ["HybridFpMu"]


class HybridFpMu(Strategy):
    """FP until the switch condition holds, then MU."""

    name = "fp-mu"

    def __init__(
        self,
        *,
        min_posts: int = 5,
        budget_fraction: float | None = None,
    ) -> None:
        if min_posts < 0:
            raise StrategyError(f"min_posts must be >= 0, got {min_posts}")
        if budget_fraction is not None and not 0.0 <= budget_fraction <= 1.0:
            raise StrategyError(
                f"budget_fraction must be in [0,1], got {budget_fraction}"
            )
        self.min_posts = min_posts
        self.budget_fraction = budget_fraction
        self._fp = FewestPostsFirst()
        self._mu = MostUnstableFirst()
        self._switched = False

    @property
    def in_mu_phase(self) -> bool:
        return self._switched

    def _should_switch(self, context: AllocationContext) -> bool:
        if self.budget_fraction is not None:
            if context.budget_total <= 0:
                return True
            return context.budget_spent >= self.budget_fraction * context.budget_total
        # the FP ranking's first eligible resource has the fewest posts
        fewest = context.board.fewest_posts_first(context.eligible, 1)
        return not fewest or context.post_count(fewest[0]) >= self.min_posts

    def choose(self, context: AllocationContext, count: int) -> list[int]:
        if not self._switched and self._should_switch(context):
            self._switched = True
        active = self._mu if self._switched else self._fp
        return active.choose(context, count)

    def reset(self) -> None:
        self._switched = False
        self._fp.reset()
        self._mu.reset()
