"""Quality Manager: runs campaigns through platforms (Sec. III-A).

"After providers assign a budget ..., the Quality Manager receives the
budget together with other resource information, creates a Project, and
uses the platform that has been chosen by the provider, and executes
the best strategy to allocate resources to taggers.  It will also
constantly provide feedback to the provider during the run."

One :class:`ProjectRuntime` per running project holds the live corpus,
quality board, strategy and platform hookup; :meth:`run_tasks` performs
the Algorithm-1 loop *through the crowd layer* — publish task, collect
submission, provider approval, payment — rather than the direct
simulation loop the experiments use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import QualityConfig
from ..crowd.approval import AgreementApprovalPolicy, ApprovalBook, ApprovalPolicy
from ..crowd.payments import PaymentLedger
from ..crowd.platform import CrowdPlatform
from ..crowd.tasks import TaggingTask
from ..errors import BudgetError, ProjectError
from ..quality.estimator import QualityBoard
from ..strategies.base import AllocationContext, Strategy
from ..tagging.corpus import Corpus
from ..tagging.post import Post

__all__ = ["ProjectRuntime", "QualityManager", "TaskOutcome"]


@dataclass(frozen=True)
class TaskOutcome:
    """What happened to one executed task.

    ``post`` is the approved post as ``Corpus.add_post`` sequenced it
    (``None`` when rejected): the post to persist, whatever the live
    corpus holds by the time the task commits.
    """

    task_id: int
    resource_id: int
    worker_id: int
    approved: bool
    quality_after: float
    post: Post | None = None


@dataclass
class ProjectRuntime:
    """Live allocation state of one running project."""

    project_id: int
    provider_id: int
    corpus: Corpus
    board: QualityBoard
    strategy: Strategy
    platform: CrowdPlatform
    pay_per_task: float
    approval_policy: ApprovalPolicy = field(default_factory=AgreementApprovalPolicy)
    approval_book: ApprovalBook | None = None
    eligible: set[int] = field(default_factory=set)
    promoted: list[int] = field(default_factory=list)
    allocation: dict[int, int] = field(default_factory=dict)
    trajectory: list[tuple[int, float]] = field(default_factory=list)
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))
    #: tasks simulated so far (platform tasks and direct submissions);
    #: the budget index of the next trajectory point is one more.  It
    #: advances under the system's task mutex, so concurrent writers
    #: never share an index even though their spends commit later.
    tasks_done: int = 0

    def __post_init__(self) -> None:
        if not self.eligible:
            self.eligible = set(self.corpus.resource_ids())
        if not self.allocation:
            self.allocation = {rid: 0 for rid in self.corpus.resource_ids()}
        if self.approval_book is None:
            self.approval_book = ApprovalBook(provider_id=self.provider_id)
        for resource in self.corpus:
            self.platform.register_resource(resource)

    def context(self, budget_total: int, budget_spent: int) -> AllocationContext:
        return AllocationContext(
            corpus=self.corpus,
            board=self.board,
            rng=self.rng,
            eligible=self.eligible,
            budget_total=budget_total,
            budget_spent=budget_spent,
        )


class QualityManager:
    """Executes strategies for running projects via crowd platforms."""

    def __init__(
        self,
        ledger: PaymentLedger,
        *,
        quality_config: QualityConfig | None = None,
    ) -> None:
        self._ledger = ledger
        self._quality_config = (quality_config or QualityConfig()).validate()
        self._runtimes: dict[int, ProjectRuntime] = {}

    # ------------------------------------------------------------------

    def attach(self, runtime: ProjectRuntime) -> None:
        if runtime.project_id in self._runtimes:
            raise ProjectError(
                f"project {runtime.project_id} already has a runtime"
            )
        self._runtimes[runtime.project_id] = runtime

    def runtime(self, project_id: int) -> ProjectRuntime:
        if project_id not in self._runtimes:
            raise ProjectError(f"project {project_id} is not running")
        return self._runtimes[project_id]

    def detach(self, project_id: int) -> ProjectRuntime:
        if project_id not in self._runtimes:
            raise ProjectError(f"project {project_id} is not running")
        return self._runtimes.pop(project_id)

    def is_attached(self, project_id: int) -> bool:
        return project_id in self._runtimes

    # ------------------------------------------------------------------
    # provider controls
    # ------------------------------------------------------------------

    def promote(self, project_id: int, resource_id: int) -> None:
        runtime = self.runtime(project_id)
        if resource_id not in runtime.allocation:
            raise ProjectError(
                f"project {project_id}: unknown resource {resource_id}"
            )
        runtime.eligible.add(resource_id)
        runtime.promoted.append(resource_id)

    def stop_resource(self, project_id: int, resource_id: int) -> None:
        runtime = self.runtime(project_id)
        if resource_id not in runtime.allocation:
            raise ProjectError(
                f"project {project_id}: unknown resource {resource_id}"
            )
        runtime.eligible.discard(resource_id)

    def resume_resource(self, project_id: int, resource_id: int) -> None:
        runtime = self.runtime(project_id)
        if resource_id not in runtime.allocation:
            raise ProjectError(
                f"project {project_id}: unknown resource {resource_id}"
            )
        runtime.eligible.add(resource_id)

    def switch_strategy(self, project_id: int, strategy: Strategy) -> None:
        runtime = self.runtime(project_id)
        strategy.reset()
        runtime.strategy = strategy

    # ------------------------------------------------------------------
    # the loop (choose -> publish -> approve -> pay -> update)
    # ------------------------------------------------------------------

    def run_one_task(
        self,
        project_id: int,
        *,
        budget_total: int,
        budget_spent: int,
    ) -> TaskOutcome:
        """Execute one tagging task end-to-end; returns the outcome.

        Budget accounting and project-row updates are the caller's
        (facade's) responsibility — this method is pure campaign
        mechanics, which keeps it reusable under both the store-backed
        system and lightweight harnesses.  The trajectory point it
        appends is indexed by the runtime's task counter: a concurrent
        writer's spend may not have committed yet, so ``budget_spent``
        can lag the tasks already simulated.
        """
        runtime = self.runtime(project_id)
        if budget_spent >= budget_total:
            raise BudgetError(f"project {project_id}: budget exhausted")
        if not runtime.eligible:
            raise ProjectError(f"project {project_id}: all resources stopped")
        resource_id = self._choose(runtime, budget_total, budget_spent)
        task = TaggingTask(
            project_id=project_id,
            resource_id=resource_id,
            pay=runtime.pay_per_task,
        )
        runtime.platform.execute(task)
        runtime.approval_book.record_submission()
        resource = runtime.corpus.resource(resource_id)
        approved = runtime.approval_policy.should_approve(resource, task.post)
        worker = runtime.platform.worker(task.worker_id)
        post = None
        if approved:
            post = runtime.corpus.add_post(task.post)
            quality = runtime.board.observe(resource)
            task.approve(at=runtime.platform.now)
            fee = runtime.pay_per_task * runtime.platform.fee_rate
            self._ledger.pay_task(
                runtime.provider_id,
                worker.worker_id,
                task.task_id,
                runtime.pay_per_task,
                fee_rate=runtime.platform.fee_rate,
            )
            runtime.platform.record_fee(fee)
            worker.record_approval(runtime.pay_per_task)
        else:
            task.reject(at=runtime.platform.now)
            worker.record_rejection()
            quality = runtime.board.quality_of(resource_id)
        runtime.approval_book.record_decision(worker.worker_id, approved)
        runtime.allocation[resource_id] += 1
        runtime.strategy.observe(
            runtime.context(budget_total, budget_spent + 1), resource_id
        )
        runtime.tasks_done += 1
        runtime.trajectory.append(
            (runtime.tasks_done, runtime.board.average_quality())
        )
        return TaskOutcome(
            task_id=task.task_id,
            resource_id=resource_id,
            worker_id=worker.worker_id,
            approved=approved,
            quality_after=quality,
            post=post,
        )

    def _choose(
        self, runtime: ProjectRuntime, budget_total: int, budget_spent: int
    ) -> int:
        while runtime.promoted:
            promoted = runtime.promoted.pop(0)
            if promoted in runtime.eligible:
                return promoted
        context = runtime.context(budget_total, budget_spent)
        chosen = runtime.strategy.choose(context, 1)
        if not chosen:
            raise ProjectError(
                f"strategy {runtime.strategy.name!r} returned no resources"
            )
        return chosen[0]

    # ------------------------------------------------------------------

    def projected_gain(self, project_id: int, extra_tasks: int) -> float:
        """Projected quality gain of ``extra_tasks`` more tasks.

        The "projected quality gains" feedback of Sec. I: extrapolates
        the recent trajectory slope (robust, model-free; curve fitting
        is available via :mod:`repro.quality.gain` when more posts per
        resource exist).
        """
        runtime = self.runtime(project_id)
        if extra_tasks <= 0:
            return 0.0
        trajectory = runtime.trajectory
        if len(trajectory) < 2:
            return 0.0
        window = trajectory[-min(len(trajectory), 25):]
        spent0, quality0 = window[0]
        spent1, quality1 = window[-1]
        if spent1 == spent0:
            return 0.0
        slope = (quality1 - quality0) / (spent1 - spent0)
        return max(0.0, slope * extra_tasks)
