"""The iTag system facade: provider and tagger APIs over all managers.

Wires the Fig. 2 architecture: Resource Manager, Tag Manager, Quality
Manager and User Manager over the embedded store, with crowd platforms
and the payment ledger.  One facade instance is one deployment.

Provider workflow (Figs. 3-6)::

    system = ITagSystem(master_seed=7)
    provider = system.register_provider("alice")
    project = system.create_project(provider, "my urls", budget=200,
                                    pay_per_task=0.05, strategy="fp-mu",
                                    platform="mturk")
    system.upload_resources(project, corpus)
    system.start_project(project)
    system.run_project(project, tasks=200)
    print(system.project_status(project))

Tagger workflow (Figs. 7-8) is served by the platform simulators; the
facade exposes the project-selection data (pay, provider approval rate)
and accepts direct post submissions for the audience-participation
mode (Sec. IV).
"""

from __future__ import annotations

import threading
import time

import numpy as np

from ..config import QualityConfig
from ..crowd.mturk import MTurkPlatform
from ..crowd.payments import PaymentLedger
from ..crowd.platform import CrowdPlatform
from ..crowd.social import SocialPlatform
from ..errors import ProjectError
from ..quality.estimator import QualityBoard
from ..rng import RngRegistry
from ..store import Database, DeadlockError
from ..strategies import make_strategy
from ..tagging.corpus import Corpus
from ..tagging.post import Post
from ..taggers.noise import NoiseModel
from .models import build_system_database, ensure_system_schema
from .notifications import NotificationCenter
from .project import ProjectRegistry
from .quality_manager import ProjectRuntime, QualityManager, TaskOutcome
from .resource_manager import ResourceManager
from .tag_manager import TagManager
from .user_manager import UserManager

__all__ = ["ITagSystem", "TASK_COMMIT_RETRIES"]

#: How many times one task's commit transaction is retried after a
#: deadlock abort before the error propagates to the caller.
TASK_COMMIT_RETRIES = 5


class ITagSystem:
    """One iTag deployment: managers + store + platforms + ledger."""

    def __init__(
        self,
        *,
        master_seed: int = 0,
        database: Database | None = None,
        quality_config: QualityConfig | None = None,
        data_dir: str | None = None,
        fsync: str = "interval",
    ) -> None:
        """``data_dir`` switches the deployment to a managed durability
        directory: relational state is crash-recovered on startup and
        journaled through the commit-scoped WAL (``fsync`` picks the
        group-commit durability policy).  Mutually exclusive with an
        explicit ``database``."""
        self.rng = RngRegistry(master_seed)
        if database is not None and data_dir is not None:
            raise ProjectError("pass either database= or data_dir=, not both")
        if database is None:
            if data_dir is not None:
                database = ensure_system_schema(
                    Database.open(data_dir, name="itag", fsync=fsync)
                )
            else:
                database = build_system_database()
        self.database = database
        self.ledger = PaymentLedger()
        self.users = UserManager(self.database)
        self.resources = ResourceManager(self.database)
        self.projects = ProjectRegistry(self.database)
        self.notifications = NotificationCenter(self.database)
        self.quality_config = (quality_config or QualityConfig()).validate()
        self.quality = QualityManager(self.ledger, quality_config=self.quality_config)
        self._tag_managers: dict[int, TagManager] = {}
        self._corpora: dict[int, Corpus] = {}
        self._platforms: dict[str, CrowdPlatform] = {}
        self._noise_models: dict[int, NoiseModel] = {}
        self._clock = 0.0
        # Multi-writer support: the simulation state (runtimes, quality
        # boards, platform clocks, RNG streams) is not thread-safe, so
        # concurrent writer sessions serialize task *simulation* on this
        # mutex while the database transaction — the part that pays the
        # fsync — commits outside it, in parallel across writers.
        self._task_mutex = threading.RLock()
        #: total deadlock-abort retries absorbed by _run_single
        self.deadlock_retries = 0
        self._txn_local = threading.local()
        #: jittered deadlock-retry backoff stream: seeded from the
        #: session RNG so reruns are reproducible, locked because numpy
        #: generators are not thread-safe
        self._backoff_rng = self.rng.stream("deadlock-backoff")
        self._backoff_lock = threading.Lock()

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------

    def checkpoint(self) -> dict:
        """Persist the relational state as an incremental checkpoint
        generation in the managed directory and prune the covered WAL
        segments; returns the stats dict of :meth:`Database.checkpoint`.
        Raises ``TransactionError`` when the database is in-memory (no
        ``data_dir``)."""
        return self.database.checkpoint()

    def close(self) -> None:
        """Flush and close the durability layer (idempotent)."""
        self.database.close()

    # ------------------------------------------------------------------
    # users
    # ------------------------------------------------------------------

    def register_provider(self, name: str) -> int:
        return self.users.register(name, "provider")

    def register_tagger(self, name: str) -> int:
        return self.users.register(name, "tagger")

    # ------------------------------------------------------------------
    # platforms
    # ------------------------------------------------------------------

    def platform(self, name: str, noise_model: NoiseModel) -> CrowdPlatform:
        """Get or lazily create a platform simulator by name."""
        if name in self._platforms:
            return self._platforms[name]
        if name == "mturk":
            platform: CrowdPlatform = MTurkPlatform(
                noise_model, self.rng.stream("platform.mturk")
            )
        elif name == "social":
            platform = SocialPlatform(
                noise_model, self.rng.stream("platform.social")
            )
        else:
            raise ProjectError(
                f"unknown platform {name!r}; available: mturk, social"
            )
        self._platforms[name] = platform
        return platform

    def register_platform(self, name: str, platform: CrowdPlatform) -> None:
        """Plug in a custom platform simulator (tests, extensions)."""
        self._platforms[name] = platform

    # ------------------------------------------------------------------
    # provider API
    # ------------------------------------------------------------------

    def create_project(
        self,
        provider_id: int,
        name: str,
        *,
        budget: int,
        pay_per_task: float = 0.05,
        strategy: str = "fp-mu",
        platform: str = "mturk",
        kind: str = "url",
        description: str = "",
    ) -> int:
        """Create a draft project (the Add Project dialog, Fig. 4)."""
        self.users.get(provider_id)
        project_id = self.projects.create(
            provider_id,
            name,
            description=description,
            kind=kind,
            strategy=strategy,
            platform=platform,
            budget=budget,
            pay_per_task=pay_per_task,
            created_at=self._clock,
        )
        return project_id

    def upload_resources(self, project_id: int, corpus: Corpus) -> int:
        """Attach a corpus to a draft project (the Upload File step)."""
        row = self.projects.get(project_id)
        if row["state"] != "draft":
            raise ProjectError(
                f"project {project_id}: resources can only be uploaded in "
                f"draft state, not {row['state']}"
            )
        if project_id in self._corpora:
            raise ProjectError(f"project {project_id} already has resources")
        count = self.resources.upload(project_id, corpus)
        self._corpora[project_id] = corpus
        self._tag_managers[project_id] = TagManager(self.database, corpus.vocabulary)
        return count

    def start_project(
        self,
        project_id: int,
        *,
        noise_model: NoiseModel | None = None,
        gain_model=None,
    ) -> None:
        """Fund the escrow, build the runtime, move to running."""
        row = self.projects.get(project_id)
        corpus = self._corpora.get(project_id)
        if corpus is None:
            raise ProjectError(f"project {project_id}: upload resources first")
        if noise_model is None:
            noise_model = self._noise_models.get(project_id)
        if noise_model is None:
            noise_model = NoiseModel(len(corpus.vocabulary))
        self._noise_models[project_id] = noise_model
        platform = self.platform(row["platform"], noise_model)
        deposit = row["budget_total"] * row["pay_per_task"] * (1.0 + platform.fee_rate)
        self.ledger.deposit(row["provider_id"], deposit)
        strategy = make_strategy(row["strategy"], gain_model=gain_model)
        board = QualityBoard(corpus, self.quality_config)
        runtime = ProjectRuntime(
            project_id=project_id,
            provider_id=row["provider_id"],
            corpus=corpus,
            board=board,
            strategy=strategy,
            platform=platform,
            pay_per_task=row["pay_per_task"],
            rng=self.rng.stream(f"project.{project_id}"),
            tasks_done=row["budget_spent"],
        )
        self.quality.attach(runtime)
        self.projects.transition(project_id, "running")
        self._refresh_quality(project_id)
        self.notifications.notify(
            row["provider_id"],
            "project_state",
            f"project {row['name']!r} is running",
            ts=self._clock,
        )

    def run_project(self, project_id: int, tasks: int | None = None) -> list[TaskOutcome]:
        """Run up to ``tasks`` tagging tasks (all remaining budget if None)."""
        row = self.projects.get(project_id)
        if row["state"] != "running":
            raise ProjectError(
                f"project {project_id}: not running (state {row['state']})"
            )
        remaining = self.projects.budget_remaining(project_id)
        to_run = remaining if tasks is None else min(tasks, remaining)
        outcomes: list[TaskOutcome] = []
        for _ in range(to_run):
            outcome = self._run_single(project_id)
            outcomes.append(outcome)
            if self.projects.budget_remaining(project_id) == 0:
                self._complete(project_id)
                break
        return outcomes

    def _run_single(self, project_id: int) -> TaskOutcome:
        # Simulation half: runtimes, quality boards, clocks and RNG
        # streams are plain Python objects, so concurrent writer
        # sessions serialize this part on the task mutex.  The database
        # half below runs *outside* it — that is where the commit fsync
        # lives, and it parallelizes across writers.
        with self._task_mutex:
            row = self.projects.get(project_id)
            runtime = self.quality.runtime(project_id)
            outcome = self.quality.run_one_task(
                project_id,
                budget_total=row["budget_total"],
                budget_spent=row["budget_spent"],
            )
            self._clock = max(self._clock, runtime.platform.now)
            clock = self._clock
            resource = runtime.corpus.resource(outcome.resource_id)
            # the average run_one_task just put on the trajectory
            average = runtime.trajectory[-1][1]
        # One task = one transaction = one commit-scoped WAL record:
        # concurrent snapshot readers see the decision, the resource
        # stats, the notification and the spend together or not at all.
        # A deadlock abort (overlapping table footprints across writer
        # sessions) rolls back cleanly via the undo log; every statement
        # in the body re-reads database state, so the retry is safe.
        retries = 0
        while True:
            try:
                with self.database.transaction():
                    worker_id = self.users.ensure_tagger(outcome.worker_id)
                    self.users.record_decision(worker_id, approved=outcome.approved)
                    if outcome.approved:
                        self.resources.record_post(outcome.post, outcome.quality_after)
                        self.notifications.notify(
                            row["provider_id"],
                            "post_approved",
                            f"resource {resource.name}: post by worker "
                            f"{outcome.worker_id} approved "
                            f"(quality {outcome.quality_after:.3f})",
                            ts=clock,
                        )
                    else:
                        self.notifications.notify(
                            row["provider_id"],
                            "post_rejected",
                            f"resource {resource.name}: post by worker "
                            f"{outcome.worker_id} rejected",
                            ts=clock,
                        )
                    self.projects.record_spend(project_id, avg_quality=average)
                break
            except DeadlockError:
                retries += 1
                if retries > TASK_COMMIT_RETRIES:
                    raise
                # brief jittered backoff so the surviving transaction
                # can finish before the retry re-contends; without the
                # jitter, N victims aborted off one cycle sleep the
                # same delay and re-collide in lockstep
                time.sleep(self._retry_backoff(retries))
        self._txn_local.retries = retries
        if retries:
            with self._task_mutex:
                self.deadlock_retries += retries
        return outcome

    def _retry_backoff(self, retries: int) -> float:
        """Delay before the ``retries``-th deadlock retry: linear in the
        attempt, scaled by a seeded uniform jitter in [0.5, 1.5) so
        concurrent victims desynchronize instead of retrying in
        lockstep — reproducible across reruns via the session RNG."""
        with self._backoff_lock:
            jitter = 0.5 + float(self._backoff_rng.random())
        return 0.001 * retries * jitter

    @property
    def last_task_retries(self) -> int:
        """Deadlock retries absorbed by this thread's last task."""
        return getattr(self._txn_local, "retries", 0)

    def _complete(self, project_id: int) -> None:
        row = self.projects.get(project_id)
        self.projects.transition(project_id, "completed")
        self.quality.detach(project_id)
        refund = self.ledger.refund(row["provider_id"])
        self.notifications.notify(
            row["provider_id"],
            "budget_exhausted",
            f"project {row['name']!r} completed; {refund:.2f} refunded",
            ts=self._clock,
        )

    # ------------------------------------------------------------------
    # provider controls (Figs. 3, 5)
    # ------------------------------------------------------------------

    def pause_project(self, project_id: int) -> None:
        self.projects.transition(project_id, "paused")

    def resume_project(self, project_id: int) -> None:
        self.projects.transition(project_id, "running")

    def stop_project(self, project_id: int) -> float:
        """Stop early; refunds and returns the remaining escrow."""
        row = self.projects.get(project_id)
        self.projects.transition(project_id, "stopped")
        if self.quality.is_attached(project_id):
            self.quality.detach(project_id)
        refund = self.ledger.refund(row["provider_id"])
        self.notifications.notify(
            row["provider_id"],
            "project_state",
            f"project {row['name']!r} stopped; {refund:.2f} refunded",
            ts=self._clock,
        )
        return refund

    def add_budget(self, project_id: int, extra: int) -> None:
        row = self.projects.get(project_id)
        runtime = self.quality.runtime(project_id)
        deposit = extra * row["pay_per_task"] * (1.0 + runtime.platform.fee_rate)
        self.ledger.deposit(row["provider_id"], deposit)
        self.projects.add_budget(project_id, extra)

    def switch_strategy(self, project_id: int, strategy_name: str, *, gain_model=None) -> None:
        strategy = make_strategy(strategy_name, gain_model=gain_model)
        self.quality.switch_strategy(project_id, strategy)
        self.projects.set_strategy(project_id, strategy_name)

    def promote_resource(self, project_id: int, resource_id: int) -> None:
        self.quality.promote(project_id, resource_id)
        self.resources.set_promoted(resource_id, True)

    def stop_resource(self, project_id: int, resource_id: int) -> None:
        self.quality.stop_resource(project_id, resource_id)
        self.resources.set_stopped(resource_id, True)

    def resume_resource(self, project_id: int, resource_id: int) -> None:
        self.quality.resume_resource(project_id, resource_id)
        self.resources.set_stopped(resource_id, False)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def project_status(self, project_id: int) -> dict:
        row = self.projects.get(project_id)
        status = dict(row)
        status["budget_remaining"] = row["budget_total"] - row["budget_spent"]
        status["escrow"] = self.ledger.escrow_of(row["provider_id"])
        if self.quality.is_attached(project_id):
            runtime = self.quality.runtime(project_id)
            status["eligible_resources"] = len(runtime.eligible)
            status["provider_approval_rate"] = (
                runtime.approval_book.provider_approval_rate
            )
        return status

    def corpus_of(self, project_id: int) -> Corpus:
        if project_id not in self._corpora:
            raise ProjectError(f"project {project_id} has no resources")
        return self._corpora[project_id]

    def tag_manager_of(self, project_id: int) -> TagManager:
        if project_id not in self._tag_managers:
            raise ProjectError(f"project {project_id} has no resources")
        return self._tag_managers[project_id]

    def quality_history(self, project_id: int) -> list[tuple[int, float]]:
        """(budget spent, avg quality) trajectory (Fig. 5 chart)."""
        return list(self.quality.runtime(project_id).trajectory)

    # ------------------------------------------------------------------
    # tagger API (Figs. 7-8 / audience participation)
    # ------------------------------------------------------------------

    def read_view(self):
        """A transaction-consistent snapshot of the relational state.

        O(1) capture; the view plans the same indexed access paths as
        the live tables (copy-on-write index snapshots), so concurrent
        tagger sessions read at index speed without ever blocking — or
        being torn by — the writer.
        """
        return self.database.read_view()

    def open_projects(self, view=None) -> list[dict]:
        """Projects taggers can join, with pay and provider approval rate.

        One join planned by the join-graph order search (projects in
        state ``running`` — a hash-index probe — joined into ``users``,
        which live statistics resolve to per-row primary-key probes)
        instead of a per-row ``users.get``.  With ``view`` (a
        ``DatabaseView`` from :meth:`read_view`) the same indexed join
        runs against the frozen snapshot: the tagger project list is
        then immune to concurrent task commits mid-read.
        """
        if view is None:
            rows = self.projects.in_state_with_provider("running")
        else:
            from ..store import Eq, Query

            rows = (
                Query(view.table("projects"))
                .where(Eq("state", "running"))
                .order_by("id")
                .join(
                    view.table("users"),
                    on=("provider_id", "id"),
                    prefix_right="user_",
                )
                .all()
            )
        out = []
        for row in rows:
            entry = {
                "project_id": row["id"],
                "name": row["name"],
                "kind": row["kind"],
                "pay_per_task": row["pay_per_task"],
                "provider": row["user_name"],
                "provider_approval_rate": 1.0,
            }
            try:
                runtime = self.quality.runtime(row["id"])
            except ProjectError:
                # raced a completing project: a concurrent writer
                # detached the runtime between the join and this read
                runtime = None
            if runtime is not None:
                entry["provider_approval_rate"] = (
                    runtime.approval_book.provider_approval_rate
                )
            out.append(entry)
        return out

    def submit_post(
        self, project_id: int, tagger_id: int, resource_id: int, tag_ids: list[int]
    ) -> bool:
        """Audience-participation path: a human tagger submits a post.

        Applies the same approval/payment pipeline as platform tasks but
        consumes budget directly.  Returns True if approved.
        """
        row = self.projects.get(project_id)
        if row["state"] != "running":
            raise ProjectError(f"project {project_id} is not running")
        if self.projects.budget_remaining(project_id) <= 0:
            raise ProjectError(f"project {project_id}: no budget left")
        with self._task_mutex:
            runtime = self.quality.runtime(project_id)
            resource = runtime.corpus.resource(resource_id)
            post = Post.from_tags(
                resource_id, tagger_id, tag_ids, timestamp=self._clock
            )
            runtime.approval_book.record_submission()
            approved = runtime.approval_policy.should_approve(resource, post)
            self.users.ensure_tagger(tagger_id)
            if approved:
                post = runtime.corpus.add_post(post)
                quality = runtime.board.observe(resource)
                self.resources.record_post(post, quality)
                self.ledger.pay_task(
                    row["provider_id"], tagger_id, 0, row["pay_per_task"], fee_rate=0.0
                )
            runtime.approval_book.record_decision(tagger_id, approved)
            self.users.record_decision(tagger_id, approved=approved)
            runtime.allocation[resource_id] += 1
            runtime.strategy.observe(
                runtime.context(row["budget_total"], row["budget_spent"] + 1),
                resource_id,
            )
            average = runtime.board.average_quality()
            runtime.tasks_done += 1
            runtime.trajectory.append((runtime.tasks_done, average))
        self.projects.record_spend(project_id, avg_quality=average)
        if self.projects.budget_remaining(project_id) == 0:
            self._complete(project_id)
        return approved

    def _refresh_quality(self, project_id: int) -> None:
        runtime = self.quality.runtime(project_id)
        for resource in runtime.corpus:
            self.resources.update_quality(
                resource.resource_id, runtime.board.quality_of(resource.resource_id)
            )
        self.projects.update_quality(project_id, runtime.board.average_quality())
