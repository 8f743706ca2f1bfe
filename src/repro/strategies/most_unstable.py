"""Most Unstable First (MU): "prioritize resources with most unstable rfds".

Table I: increases the number of resources that can satisfy a certain
quality requirement — the budget goes to resources whose rfds are still
moving, i.e. where a post buys the most stabilization.

Resources with fewer than the estimator's minimum posts score quality 0
(maximal instability), so MU bootstraps them with a couple of posts
before their instability becomes measurable; ties break toward fewer
posts, then lower id.  The ranking itself is maintained by the quality
board (``QualityBoard.most_unstable_first``), which moves one key per
approved post instead of re-sorting every resource per task.
"""

from __future__ import annotations

from .base import AllocationContext, Strategy

__all__ = ["MostUnstableFirst"]


class MostUnstableFirst(Strategy):
    """Pick the eligible resources with the most unstable rfds."""

    name = "mu"

    def choose(self, context: AllocationContext, count: int) -> list[int]:
        eligible = self._eligible_set(context)
        return context.board.most_unstable_first(eligible, count)
