"""Fewest Posts First (FP): "prioritize resources with fewest posts".

Table I: reduces the number of resources with low tag quality — the
untagged tail gets posts first, so the worst resources improve fastest.
Ties break by resource id for determinism.
"""

from __future__ import annotations

from .base import AllocationContext, Strategy

__all__ = ["FewestPostsFirst"]


class FewestPostsFirst(Strategy):
    """Pick the eligible resources with the fewest posts."""

    name = "fp"

    def choose(self, context: AllocationContext, count: int) -> list[int]:
        eligible = self._eligible_set(context)
        # a prefix walk of the board's (n_posts, id) ranking; a batch
        # naturally spreads over distinct resources
        return context.board.fewest_posts_first(eligible, count)
