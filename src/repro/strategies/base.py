"""Strategy interface: CHOOSERESOURCES() implementations (Sec. II).

A strategy sees an :class:`AllocationContext` — the corpus, the
observable quality board, an RNG stream, and the set of eligible
resource ids (promote/stop filtered) — and returns the resource ids to
assign next.  Strategies never see ``theta``; only the optimal
(oracle) strategy receives a gain model built from simulation truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import StrategyError
from ..quality.estimator import QualityBoard
from ..tagging.corpus import Corpus

__all__ = ["AllocationContext", "Strategy"]


@dataclass
class AllocationContext:
    """Everything a strategy may consult when choosing resources.

    ``eligible`` is the owner's live set (engine or project runtime),
    passed without a copy: strategies read it and never mutate it.
    """

    corpus: Corpus
    board: QualityBoard
    rng: np.random.Generator
    eligible: set[int] = field(default_factory=set)
    budget_total: int = 0
    budget_spent: int = 0

    def __post_init__(self) -> None:
        if not self.eligible:
            self.eligible = set(self.corpus.resource_ids())

    @property
    def budget_remaining(self) -> int:
        return self.budget_total - self.budget_spent

    def eligible_ids(self) -> list[int]:
        """Eligible resource ids in deterministic (sorted) order."""
        return sorted(self.eligible)

    def post_count(self, resource_id: int) -> int:
        return self.corpus.resource(resource_id).n_posts


class Strategy:
    """Base CHOOSERESOURCES() implementation."""

    name = "base"

    def choose(self, context: AllocationContext, count: int) -> list[int]:
        """Return up to ``count`` resource ids to assign one task each.

        Called once per framework round; may return fewer than
        ``count`` ids (but never zero while resources are eligible).
        """
        raise NotImplementedError

    def observe(self, context: AllocationContext, resource_id: int) -> None:
        """Hook called after a task on ``resource_id`` completes."""

    def reset(self) -> None:
        """Forget internal state (heaps, phase counters) between runs."""

    def _require_eligible(self, context: AllocationContext) -> list[int]:
        """The eligible ids, sorted (O(m log m)); raises when there are none."""
        return sorted(self._eligible_set(context))

    def _eligible_set(self, context: AllocationContext) -> set[int]:
        """The context's eligible set itself, neither copied nor sorted;
        raises when it is empty."""
        if not context.eligible:
            raise StrategyError(
                f"strategy {self.name!r}: no eligible resources to choose from"
            )
        return context.eligible

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
