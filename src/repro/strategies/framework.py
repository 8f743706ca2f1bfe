"""Algorithm 1 — the "choose resources → assign → update" framework.

::

    Require: Budget B, Resources R, Initial no. of posts c⃗
    1: for i ← 1 to n do x[i] ← 0
    2: while B > 0 do
    3:   Rc ← CHOOSERESOURCES()
    4:   assign Rc to taggers
    5:   ∀ri ∈ Rc. xi ← xi + 1, B ← B − 1
    6:   UPDATE()
    return x⃗

The engine owns the loop; the strategy owns step 3; the tagger
population realizes step 4; the quality board is refreshed in step 6.
It also implements the provider controls of Sec. III-A: ``promote``
(resource is chosen next round regardless of strategy), ``stop``
(resource leaves the eligible set), ``add_budget`` and
``switch_strategy`` mid-run, plus trajectory recording for monitoring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import BudgetError, StrategyError
from ..quality.estimator import QualityBoard
from ..quality.oracle import corpus_oracle_quality
from ..tagging.corpus import Corpus
from ..taggers.population import TaggerPopulation
from .base import AllocationContext, Strategy

__all__ = ["AllocationEngine", "AllocationResult", "TrajectoryPoint"]

TaskCallback = Callable[[int, int], None]  # (resource_id, budget_spent)


@dataclass(frozen=True)
class TrajectoryPoint:
    """One monitoring sample along a campaign."""

    budget_spent: int
    observable_quality: float
    oracle_quality: float | None


@dataclass
class AllocationResult:
    """Outcome of one Algorithm-1 run."""

    allocation: dict[int, int]
    budget_spent: int
    initial_observable: float
    final_observable: float
    initial_oracle: float | None
    final_oracle: float | None
    trajectory: list[TrajectoryPoint] = field(default_factory=list)
    strategy_names: list[str] = field(default_factory=list)

    @property
    def observable_improvement(self) -> float:
        return self.final_observable - self.initial_observable

    @property
    def oracle_improvement(self) -> float | None:
        if self.initial_oracle is None or self.final_oracle is None:
            return None
        return self.final_oracle - self.initial_oracle

    def series(self, kind: str = "oracle") -> tuple[list[int], list[float]]:
        """(budget, quality) series for plotting; kind: oracle|observable."""
        if kind not in ("oracle", "observable"):
            raise ValueError(f"kind must be 'oracle' or 'observable', got {kind!r}")
        xs = [point.budget_spent for point in self.trajectory]
        if kind == "oracle":
            ys = [
                point.oracle_quality if point.oracle_quality is not None else 0.0
                for point in self.trajectory
            ]
        else:
            ys = [point.observable_quality for point in self.trajectory]
        return xs, ys


class AllocationEngine:
    """Runs Algorithm 1 over a corpus with a tagger population."""

    def __init__(
        self,
        corpus: Corpus,
        population: TaggerPopulation,
        strategy: Strategy,
        *,
        budget: int,
        board: QualityBoard | None = None,
        oracle_targets: dict[int, np.ndarray] | None = None,
        rng: np.random.Generator | None = None,
        batch_size: int = 1,
        record_every: int = 25,
    ) -> None:
        if budget < 0:
            raise BudgetError(f"budget must be >= 0, got {budget}")
        if batch_size < 1:
            raise StrategyError(f"batch_size must be >= 1, got {batch_size}")
        if record_every < 1:
            raise StrategyError(f"record_every must be >= 1, got {record_every}")
        self.corpus = corpus
        self.population = population
        self.strategy = strategy
        self.board = board if board is not None else QualityBoard(corpus)
        self.oracle_targets = oracle_targets
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.batch_size = batch_size
        self.record_every = record_every
        self._budget_total = budget
        self._budget_spent = 0
        self._eligible = set(corpus.resource_ids())
        self._promoted: list[int] = []
        self._allocation: dict[int, int] = {
            resource_id: 0 for resource_id in corpus.resource_ids()
        }
        self._trajectory: list[TrajectoryPoint] = []
        self._strategy_names = [strategy.name]
        self._callbacks: list[TaskCallback] = []

    # ------------------------------------------------------------------
    # provider controls (Sec. III-A)
    # ------------------------------------------------------------------

    def promote(self, resource_id: int) -> None:
        """Ensure ``resource_id`` is chosen by the next round (Promote)."""
        if resource_id not in self._allocation:
            raise StrategyError(f"cannot promote unknown resource {resource_id}")
        self._eligible.add(resource_id)
        self._promoted.append(resource_id)

    def stop(self, resource_id: int) -> None:
        """Remove ``resource_id`` from the eligible pool (Stop)."""
        if resource_id not in self._allocation:
            raise StrategyError(f"cannot stop unknown resource {resource_id}")
        self._eligible.discard(resource_id)

    def resume(self, resource_id: int) -> None:
        """Undo a stop."""
        if resource_id not in self._allocation:
            raise StrategyError(f"cannot resume unknown resource {resource_id}")
        self._eligible.add(resource_id)

    def add_budget(self, extra: int) -> None:
        if extra < 0:
            raise BudgetError(f"extra budget must be >= 0, got {extra}")
        self._budget_total += extra

    def switch_strategy(self, strategy: Strategy) -> None:
        """Change the allocation strategy mid-run."""
        strategy.reset()
        self.strategy = strategy
        self._strategy_names.append(strategy.name)

    def on_task(self, callback: TaskCallback) -> None:
        self._callbacks.append(callback)

    @property
    def budget_remaining(self) -> int:
        return self._budget_total - self._budget_spent

    @property
    def eligible(self) -> set[int]:
        return set(self._eligible)

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------

    def _context(self) -> AllocationContext:
        return AllocationContext(
            corpus=self.corpus,
            board=self.board,
            rng=self._rng,
            eligible=self._eligible,
            budget_total=self._budget_total,
            budget_spent=self._budget_spent,
        )

    def _oracle_quality(self) -> float | None:
        if self.oracle_targets is None:
            return None
        return corpus_oracle_quality(self.corpus, self.oracle_targets)

    def _record(self, *, force: bool = False) -> None:
        due = force or self._budget_spent % self.record_every == 0
        if not due:
            return
        if self._trajectory and self._trajectory[-1].budget_spent == self._budget_spent:
            return
        self._trajectory.append(
            TrajectoryPoint(
                budget_spent=self._budget_spent,
                observable_quality=self.board.average_quality(),
                oracle_quality=self._oracle_quality(),
            )
        )

    def step(self, tasks: int = 1) -> int:
        """Run up to ``tasks`` tagging tasks; returns the number executed."""
        executed = 0
        while executed < tasks and self.budget_remaining > 0:
            if not self._eligible:
                break
            round_size = min(self.batch_size, tasks - executed, self.budget_remaining)
            chosen = self._choose(round_size)
            for resource_id in chosen:
                self._execute_task(resource_id)
                executed += 1
        return executed

    def _choose(self, round_size: int) -> list[int]:
        chosen: list[int] = []
        while self._promoted and len(chosen) < round_size:
            promoted = self._promoted.pop(0)
            if promoted in self._eligible:
                chosen.append(promoted)
        remainder = round_size - len(chosen)
        if remainder > 0:
            chosen.extend(self.strategy.choose(self._context(), remainder))
        return chosen

    def _execute_task(self, resource_id: int) -> None:
        if resource_id not in self._eligible:
            raise StrategyError(
                f"strategy chose ineligible resource {resource_id}"
            )
        resource = self.corpus.resource(resource_id)
        post = self.population.tag_resource(resource)
        self.corpus.add_post(post)
        self.board.observe(resource)
        self._allocation[resource_id] += 1
        self._budget_spent += 1
        self.strategy.observe(self._context(), resource_id)
        for callback in self._callbacks:
            callback(resource_id, self._budget_spent)
        self._record()

    def run(self) -> AllocationResult:
        """Run Algorithm 1 until the budget is exhausted."""
        initial_observable = self.board.average_quality()
        initial_oracle = self._oracle_quality()
        self._record(force=True)
        while self.budget_remaining > 0 and self._eligible:
            self.step(self.budget_remaining)
        self._record(force=True)
        spent = sum(self._allocation.values())
        if spent != self._budget_spent:
            raise BudgetError(
                f"allocation bookkeeping broke: Σx={spent} != spent={self._budget_spent}"
            )
        return AllocationResult(
            allocation=dict(self._allocation),
            budget_spent=self._budget_spent,
            initial_observable=initial_observable,
            final_observable=self.board.average_quality(),
            initial_oracle=initial_oracle,
            final_oracle=self._oracle_quality(),
            trajectory=list(self._trajectory),
            strategy_names=list(self._strategy_names),
        )
