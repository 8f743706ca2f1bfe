"""The closed-loop workloads and the round loop that drives them.

One run: generate the corpus (untimed), set the deployment up several
times (``setup_s``), take two checkpoints and warm up, then run whole
rounds until ``seconds`` of calibrated live time have been measured.  A
round is: one calibration slice, tagger visits, screen passes, one
pick-check task and a timed batch of tasks; a workload with restart
probes ends every ``restart_every``-th round with one, then an inline
checkpoint, and finishes its last group of rounds after the measured
window.  Every timing is stored raw with the index of the
calibration slice taken just before it and scaled at the end by the
median of the four slices around it, so a single preempted slice cannot
skew a round.
"""

from __future__ import annotations

import gc
import json
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from calib import Calibrator, REFERENCE_SLICE_S
import checks

__all__ = ["SPECS", "Spec", "Run", "OP_KINDS"]

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: operation kinds counted as attempted / failed
OP_KINDS = ("task", "screen", "visit", "checkpoint", "reopen", "resume")

#: tasks a project may spend; never reached by a run
BUDGET = 1_000_000
PAY = 0.05
TASK_KINDS = ("post_approved", "post_rejected")
#: every commit is flushed to the OS, none fsynced: the task path stays
#: CPU-bound, which the calibration loop can follow, and a copy of the
#: data directory still holds every acknowledged task
FSYNC = "never"
#: set-ups per run (``setup_s`` is their median), untimed warm-up tasks,
#: and the fewest rounds a window may have
SETUPS = 3
WARMUP = 3
MIN_ROUNDS = 3


@dataclass(frozen=True)
class Spec:
    """What one workload builds and runs."""

    name: str
    n_resources: int
    #: posts every resource gets before free-choice posts are drawn
    min_initial_posts: int
    initial_posts_total: int
    #: timed tasks per round
    batch: int
    #: fp-mu phase the whole window must stay in
    phase: str
    screens_per_round: int
    visits_per_round: int
    #: every this many rounds, reopen a copy of the data directory, try
    #: to resume the project there, then checkpoint; 0 = never.  The
    #: window ends on such a round, so every run fails the same share
    #: of its operations (the resume, which fails today)
    restart_every: int = 0


SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            name="campaign-10k", n_resources=10_000, min_initial_posts=5,
            initial_posts_total=0, batch=15, phase="mu",
            screens_per_round=1, visits_per_round=20,
        ),
        Spec(
            name="screens-1k", n_resources=1000, min_initial_posts=0,
            initial_posts_total=1000, batch=40, phase="fp",
            screens_per_round=2, visits_per_round=16, restart_every=5,
        ),
    )
}


class BenchmarkError(RuntimeError):
    """The run could not be carried out as specified."""


@dataclass
class Ops:
    attempted: dict[str, int] = field(default_factory=lambda: dict.fromkeys(OP_KINDS, 0))
    failed: dict[str, int] = field(default_factory=lambda: dict.fromkeys(OP_KINDS, 0))

    def note(self, kind: str, ok: bool = True) -> None:
        self.attempted[kind] += 1
        if not ok:
            self.failed[kind] += 1


class Run:
    """One benchmark run of one workload."""

    def __init__(
        self, spec: Spec, *, seed: int, seconds: float, trace: bool, workdir: Path
    ) -> None:
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.tally = checks.Tally()
        self.ops = Ops()
        self.failures: list[str] = []
        self.cal: Calibrator | None = None
        #: metric -> [(raw seconds, slot of the slice before it)]
        self.timings: dict[str, list[tuple[float, int]]] = {}
        #: [(slot, tasks, raw seconds, trace mode)] of every timed batch
        self.batches: list[tuple[int, int, float, str]] = []
        self.task_latencies: list[tuple[float, int]] = []
        #: traced segments: (slot, mode, tasks, seconds, calls, amounts)
        self.layer_segments: list[tuple[int, str, int, dict, dict, dict]] = []
        self.counters: dict[str, float] = {}
        #: restart probes: (raw seconds, calibration factor), and in a
        #: traced run (calibrated recovery seconds, records replayed)
        self.restarts: list[tuple[float, float]] = []
        self.recoveries: list[tuple[float, int]] = []
        self.system = None
        self.rounds = 0
        #: slot of the first calibration slice after the measured window
        self.window_end = 0
        self.phase_first: bool | None = None
        self.phase_last: bool | None = None
        self.ended_early = ""
        self.tracer = None
        self._copies = 0

    # ------------------------------------------------------------------
    # timing helpers
    # ------------------------------------------------------------------

    @property
    def slot(self) -> int:
        """Index of the most recent calibration slice."""
        return len(self.cal.slices) - 1

    def factor(self, slot: int) -> float:
        """Reference seconds per raw second for work done after slice
        ``slot``: the median of the slices before and after it and
        their neighbours."""
        slices = self.cal.slices
        around = slices[max(0, slot - 1) : slot + 3]
        return REFERENCE_SLICE_S / statistics.median(around)

    def _live_estimate(self, raw: float) -> float:
        return raw * REFERENCE_SLICE_S / statistics.median(self.cal.slices[-4:])

    # ------------------------------------------------------------------
    # deployment
    # ------------------------------------------------------------------

    def _generate(self):
        from repro.config import DatasetConfig
        from repro.datasets.generator import DatasetGenerator
        from repro.rng import RngRegistry

        config = DatasetConfig(
            n_resources=self.spec.n_resources,
            min_initial_posts=self.spec.min_initial_posts,
            initial_posts_total=self.spec.initial_posts_total,
        )
        return DatasetGenerator(config, rng=RngRegistry(self.seed)).generate()

    def _open(self, directory: Path):
        from repro.system import ITagSystem

        return ITagSystem(
            master_seed=self.seed, data_dir=str(directory), fsync=FSYNC
        )

    def _setup(self, dataset, directory: Path):
        """Empty deployment -> running project; returns the system,
        provider id and project id, and records one ``setup`` timing."""
        system = self._open(directory)
        records = system.database.wal.stats()["records"]
        started = time.perf_counter()
        provider = system.register_provider("provider")
        project = system.create_project(
            provider, "campaign", budget=BUDGET, pay_per_task=PAY,
            strategy="fp-mu", platform="mturk",
        )
        system.upload_resources(project, dataset.corpus)
        system.start_project(project, noise_model=dataset.noise_model)
        self.timings.setdefault("setup", []).append(
            (time.perf_counter() - started, self.slot)
        )
        self.counters["setup_records"] = float(
            system.database.wal.stats()["records"] - records
        )
        return system, provider, project

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    def _task(self, timed: bool):
        started = time.perf_counter()
        outcomes = self.system.run_project(self.project, tasks=1)
        elapsed = time.perf_counter() - started
        self.ops.note("task")
        for outcome in outcomes:
            self.tally.record(outcome)
        if timed:
            self.task_latencies.append((elapsed, self.slot))
        return outcomes[0]

    def _pick_check(self) -> None:
        runtime = self.system.quality.runtime(self.project)
        expected = checks.brute_force_pick(
            runtime, mu_phase=runtime.strategy.in_mu_phase
        )
        outcome = self._task(timed=False)
        self.failures += checks.check_pick(expected, outcome.resource_id)

    def _batch(self) -> float:
        """Run one timed batch of tasks; returns its raw seconds."""
        if self.trace:
            wal_bytes = self._wal_bytes()
        started = time.perf_counter()
        for _ in range(self.spec.batch):
            self._task(timed=True)
        elapsed = time.perf_counter() - started
        if self.trace:
            self._count("wal_bytes", self._wal_bytes() - wal_bytes)
        return elapsed

    def _checkpoint(self) -> float:
        """One checkpoint; returns its raw seconds."""
        started = time.perf_counter()
        self.system.checkpoint()
        self.ops.note("checkpoint")
        return time.perf_counter() - started

    def _count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def _wal_bytes(self) -> int:
        directory = Path(self.system.database.directory) / "wal.log"
        return sum(path.stat().st_size for path in directory.glob("wal-*.log"))

    def _screen(self) -> None:
        from repro.system import monitor

        resource = self.rng.randint(1, self.spec.n_resources)
        started = time.perf_counter()
        fig3 = monitor.main_provider_screen(self.system, self.provider)
        monitor.project_details_screen(self.system, self.project)
        monitor.resource_details_screen(self.system, self.project, resource)
        self.timings.setdefault("screen", []).append(
            (time.perf_counter() - started, self.slot)
        )
        self.ops.note("screen")
        self.failures += checks.check_fig3_order(checks.fig3_qualities(fig3), 3)
        if self.ops.attempted["screen"] % 10 == 1:
            # Fig. 5's join is re-run for the check on every tenth pass:
            # at 10^4 resources it costs as much as the pass itself
            rows = self.system.resources.project_posts_with_taggers(self.project)
            self.failures += checks.check_fig5_rows(self.tally, len(rows))

    def _visit(self) -> None:
        from repro.store import In, Query
        from repro.system import monitor

        resource = self.rng.randint(1, self.spec.n_resources)
        started = time.perf_counter()
        view = self.system.read_view()
        listed = self.system.open_projects(view=view)
        monitor.tagger_projects_screen(self.system)
        monitor.tagging_screen(self.system, self.project, resource)
        self.timings.setdefault("visit", []).append(
            (time.perf_counter() - started, self.slot)
        )
        self.ops.note("visit")
        if [entry["project_id"] for entry in listed] != [self.project]:
            self.failures.append(f"open_projects listed {listed!r}")
        spent = view.table("projects").get(self.project)["budget_spent"]
        notes = Query(view.table("notifications")).where(In("kind", TASK_KINDS)).count()
        self.failures += checks.check_view(spent, notes)

    def _restart(self) -> None:
        """Reopen a copy of the data directory, as a restart at this
        point would find it, in a fresh process; check what it
        recovered and try to resume the project there."""
        self._copies += 1
        copy = self.workdir / f"restart-{self._copies}"
        shutil.copytree(self.system.database.directory, copy)
        probe = {
            "src": str(SRC), "dir": str(copy), "seed": self.seed,
            "fsync": FSYNC, "project": self.project,
            "trace": self.tracer is not None,
        }
        try:
            completed = subprocess.run(
                [sys.executable, str(HERE / "restart_probe.py"), json.dumps(probe)],
                capture_output=True, text=True, timeout=150, check=False,
            )
        finally:
            shutil.rmtree(copy)
        if completed.returncode != 0:
            raise BenchmarkError(f"restart probe failed:\n{completed.stderr}")
        found = json.loads(completed.stdout.strip().splitlines()[-1])
        # scaled by the probe's own slices, two on each side of the reopen
        factor = REFERENCE_SLICE_S / statistics.median(found["slices"])
        self.restarts.append((found["seconds"], factor))
        self.ops.note("reopen")
        if self.tracer is not None:
            self.recoveries.append((found["open_seconds"] * factor, found["records"]))
        self.failures += checks.check_recovered(
            self.tally,
            budget_spent=found["budget_spent"],
            post_rows=found["post_rows"],
            approved_notes=found["approved_notes"],
            rejected_notes=found["rejected_notes"],
            n_posts_sum=found["n_posts_sum"],
        )
        if found["verify"] is not None:
            self.failures.append(f"reopened database fails verify(): {found['verify']}")
        self.ops.note("resume", ok=found["resumed"])

    # ------------------------------------------------------------------
    # the run
    # ------------------------------------------------------------------

    def execute(self) -> None:
        spec = self.spec
        dataset = self._generate()
        self.tally.initial_posts = dataset.corpus.total_posts()
        gc.collect()
        self.cal = Calibrator()
        self.cal.take()
        for index in range(SETUPS):
            if self.system is not None:
                self.system.close()
                self.system = None
                shutil.rmtree(self.workdir / f"setup-{index - 1}")
                gc.collect()
                self.cal.take()
            self.system, self.provider, self.project = self._setup(
                dataset, self.workdir / f"setup-{index}"
            )
            self.cal.take()
        # two idle draft projects give Fig. 3 a ranking to check
        for name in ("draft-a", "draft-b"):
            self.system.create_project(self.provider, name, budget=10, pay_per_task=PAY)
        runtime = self.system.quality.runtime(self.project)
        if self.trace:
            from tracing import Tracer

            self.tracer = Tracer(type(runtime.strategy))
        self._pre_window()
        for _ in range(WARMUP):
            self._task(timed=False)
        # only the window's operations are counted, so every run fails
        # the same share of them
        self.ops = Ops()
        self._window(runtime)
        self.failures += self.final_checks(self.tally)
        self.failures += checks.check_phase(
            bool(self.phase_first), bool(self.phase_last), spec.phase
        )
        self.system.close()

    def _pre_window(self) -> None:
        """Two checkpoints: the second prunes the log the set-up wrote,
        so a restart probe replays only what the window commits.  A
        traced run times them, which is the only checkpoint a workload
        without restart probes takes."""
        if self.tracer is not None:
            self.tracer.install("time")
        for _ in range(2):
            self._checkpoint()
        if self.tracer is not None:
            self.tracer.uninstall()
            self.layer_segments.append((self.slot, "time", 0, *self.tracer.drain()))

    def _window(self, runtime) -> None:
        """Whole rounds until ``seconds`` of calibrated live time (task
        batches, inline checkpoints, screen passes, visits) have been
        measured.  Counting the window in calibrated seconds keeps the
        amount of work per run the same on a slow and a fast host, so
        work that grows during the window (Fig. 5's join, the
        checkpointed tables) is compared at the same size.  A workload
        with restart probes then runs the rest of its last group of
        rounds outside the measured window: every run ends on a restart
        round, so it fails the same share of its operations, and no run
        measures more work than another.  A traced run cycles its rounds
        untraced / timed / counted."""
        spec = self.spec
        every = spec.restart_every or 1
        committed = self.tally.committed
        hits, lookups = self._plan_cache_totals()
        live = 0.0
        while self.rounds % every or self.rounds < MIN_ROUNDS or live < self.seconds:
            if not self.window_end and self.rounds >= MIN_ROUNDS and live >= self.seconds:
                self.window_end = len(self.cal.slices)
            if (
                spec.phase == "fp"
                and not self.rounds % every
                and self._fp_deficit(runtime) <= every * (spec.batch + 1)
            ):
                self.ended_early = "fp-mu would leave its FP phase before the next restart"
                break
            mode = ("off", "time", "count")[self.rounds % 3] if self.trace else "off"
            self.cal.take()
            slot = self.slot
            if mode == "time":
                self.tracer.install(mode)
            elapsed = 0.0
            # reads first and the batch last, so both sit next to a slice;
            # the short visits before the long screen passes
            for _ in range(spec.visits_per_round):
                self._visit()
                elapsed += self.timings["visit"][-1][0]
            for _ in range(spec.screens_per_round):
                self._screen()
                elapsed += self.timings["screen"][-1][0]
            if mode == "time":
                self.tracer.uninstall()
            self._pick_check()
            if self.phase_first is None:
                self.phase_first = runtime.strategy.in_mu_phase
            if mode != "off":
                self.tracer.install(mode)
            before = self.tally.committed
            raw = self._batch()
            tasks = self.tally.committed - before
            if mode == "count":
                self.tracer.uninstall()
            elapsed += raw
            self.batches.append((slot, tasks, raw, mode))
            if spec.restart_every and (self.rounds + 1) % every == 0:
                # before the checkpoint, so recovery replays the rounds
                # since the last one
                self._restart()
                self.cal.take()
                seconds = self._checkpoint()
                self.timings.setdefault("checkpoint", []).append((seconds, self.slot))
                elapsed += seconds
            if mode == "time":
                self.tracer.uninstall()
            if mode != "off":
                self.layer_segments.append((slot, mode, tasks, *self.tracer.drain()))
            self.phase_last = runtime.strategy.in_mu_phase
            live += self._live_estimate(elapsed)
            self.rounds += 1
        self.cal.take()
        self.window_end = self.window_end or len(self.cal.slices)
        end_hits, end_lookups = self._plan_cache_totals()
        self.counters["window_tasks"] = float(self.tally.committed - committed)
        self.counters["plan_hits"] = float(end_hits - hits)
        self.counters["plan_lookups"] = float(end_lookups - lookups)

    def _plan_cache_totals(self) -> tuple[int, int]:
        hits = lookups = 0
        database = self.system.database
        for name in database.table_names():
            stats = database.table(name).plan_cache.stats()
            hits += stats["hits"]
            lookups += stats["hits"] + stats["misses"]
        return hits, lookups

    @staticmethod
    def _fp_deficit(runtime) -> int:
        floor = runtime.strategy.min_posts
        corpus = runtime.corpus
        return sum(
            max(0, floor - corpus.resource(rid).n_posts) for rid in runtime.eligible
        )

    def final_checks(self, tally: checks.Tally) -> list[str]:
        """The end-of-run checks of the deployment against ``tally``
        (the run's own tally; the self-tests pass wrong ones)."""
        from repro.store import Eq, Query

        system = self.system
        database = system.database
        runtime = system.quality.runtime(self.project)
        row = system.projects.get(self.project)
        earned = {worker: system.ledger.earned_by(worker) for worker in tally.paid_tasks}
        notes = database.table("notifications")
        failures = checks.check_budget(tally, row["budget_spent"])
        failures += checks.check_ledger(
            tally,
            budget_total=row["budget_total"],
            pay=row["pay_per_task"],
            fee_rate=runtime.platform.fee_rate,
            escrow=system.ledger.escrow_of(self.provider),
            earned=earned,
        )
        failures += checks.check_posts(
            tally,
            corpus_posts=runtime.corpus.total_posts(),
            post_rows=Query(database.table("posts")).count(),
            approved_notes=Query(notes).where(Eq("kind", "post_approved")).count(),
            rejected_notes=Query(notes).where(Eq("kind", "post_rejected")).count(),
            n_posts_sum=Query(database.table("resources")).aggregate("n_posts", "sum"),
        )
        board = runtime.board
        failures += checks.check_trajectory(
            tally,
            system.quality_history(self.project)[-1],
            [board.quality_of(rid) for rid in runtime.corpus.resource_ids()],
        )
        return failures
