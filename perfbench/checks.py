"""Correctness checks of one benchmark run.

Every check compares what the program reports against the benchmark's
own tally of the ``TaskOutcome`` objects it received, or against a
property the method must have.  None compares against a stored copy of
an earlier run's output.  Each function returns a list of failure
messages; an empty list means the check passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "Tally",
    "check_budget",
    "check_ledger",
    "check_posts",
    "check_trajectory",
    "check_recovered",
    "check_fig3_order",
    "check_fig5_rows",
    "check_view",
    "check_pick",
    "check_phase",
    "fig3_qualities",
    "brute_force_pick",
]


@dataclass
class Tally:
    """The benchmark's own record of every task it ran."""

    #: posts the generated corpus held before upload
    initial_posts: int = 0
    committed: int = 0
    approved: int = 0
    rejected: int = 0
    #: worker id -> approved tasks paid to that worker
    paid_tasks: dict[int, int] = field(default_factory=dict)

    def record(self, outcome) -> None:
        self.committed += 1
        if outcome.approved:
            self.approved += 1
            self.paid_tasks[outcome.worker_id] = (
                self.paid_tasks.get(outcome.worker_id, 0) + 1
            )
        else:
            self.rejected += 1

    @property
    def posts(self) -> int:
        return self.initial_posts + self.approved


def check_budget(tally: Tally, budget_spent: int) -> list[str]:
    if budget_spent != tally.committed:
        return [f"budget_spent {budget_spent} != committed tasks {tally.committed}"]
    return []


def check_ledger(
    tally: Tally,
    *,
    budget_total: int,
    pay: float,
    fee_rate: float,
    escrow: float,
    earned: dict[int, float],
) -> list[str]:
    """Escrow = deposit - approved x pay x (1 + fee); the workers who
    were paid earned approved x pay between them, each for exactly the
    tasks the tally credits to them."""
    failures = []
    deposit = budget_total * pay * (1.0 + fee_rate)
    expected_escrow = deposit - tally.approved * pay * (1.0 + fee_rate)
    if not math.isclose(escrow, expected_escrow, rel_tol=1e-9, abs_tol=1e-6):
        failures.append(f"escrow {escrow!r} != expected {expected_escrow!r}")
    total = math.fsum(earned.get(worker, 0.0) for worker in tally.paid_tasks)
    if not math.isclose(total, tally.approved * pay, rel_tol=1e-9, abs_tol=1e-9):
        failures.append(
            f"sum of earned_by {total!r} != approved x pay {tally.approved * pay!r}"
        )
    for worker, tasks in tally.paid_tasks.items():
        if not math.isclose(earned.get(worker, 0.0), tasks * pay, rel_tol=1e-9):
            failures.append(
                f"worker {worker} earned {earned.get(worker, 0.0)!r}, "
                f"expected {tasks} x {pay}"
            )
            break
    return failures


def check_posts(
    tally: Tally,
    *,
    corpus_posts: int,
    post_rows: int,
    approved_notes: int,
    rejected_notes: int,
    n_posts_sum: int,
) -> list[str]:
    """Posts, the resources rows' post counters and the task
    notifications match the tally."""
    failures = []
    for what, value in (
        ("posts in the live corpus", corpus_posts),
        ("post rows", post_rows),
        ("sum of n_posts", n_posts_sum),
    ):
        if value != tally.posts:
            failures.append(
                f"{what} {value} != initial {tally.initial_posts} "
                f"+ approved {tally.approved}"
            )
    if approved_notes != tally.approved:
        failures.append(
            f"post_approved notifications {approved_notes} != approved {tally.approved}"
        )
    if rejected_notes != tally.rejected:
        failures.append(
            f"post_rejected notifications {rejected_notes} != rejected {tally.rejected}"
        )
    return failures


def check_trajectory(
    tally: Tally,
    last_point: tuple[int, float],
    qualities: list[float],
) -> list[str]:
    """The last trajectory point is the mean observable quality, taken
    here with ``math.fsum``, at the committed task count."""
    spent, average = last_point
    expected = math.fsum(qualities) / len(qualities)
    failures = []
    if spent != tally.committed:
        failures.append(f"last trajectory point at {spent}, expected {tally.committed}")
    if abs(average - expected) > 1e-9:
        failures.append(f"last trajectory quality {average!r} != fsum mean {expected!r}")
    return failures


def check_recovered(
    tally: Tally,
    *,
    budget_spent: int,
    post_rows: int,
    approved_notes: int,
    rejected_notes: int,
    n_posts_sum: int,
) -> list[str]:
    """A reopened deployment holds every acknowledged task."""
    return check_budget(tally, budget_spent) + check_posts(
        tally,
        corpus_posts=tally.posts,
        post_rows=post_rows,
        approved_notes=approved_notes,
        rejected_notes=rejected_notes,
        n_posts_sum=n_posts_sum,
    )


def fig3_qualities(screen: str) -> list[float]:
    """The quality column of a rendered Fig. 3 project table."""
    lines = screen.splitlines()
    header = next(index for index, line in enumerate(lines) if line.startswith("id "))
    column = [name.strip() for name in lines[header].split(" | ")].index("quality")
    values = []
    for line in lines[header + 2 :]:
        if line.startswith("["):
            break
        values.append(float(line.split(" | ")[column]))
    return values


def check_fig3_order(qualities: list[float], projects: int) -> list[str]:
    failures = []
    if len(qualities) != projects:
        failures.append(f"Fig. 3 lists {len(qualities)} projects, expected {projects}")
    if any(later > earlier for earlier, later in zip(qualities, qualities[1:])):
        failures.append(f"Fig. 3 qualities not non-increasing: {qualities}")
    return failures


def check_fig5_rows(tally: Tally, rows: int) -> list[str]:
    if rows != tally.posts:
        return [f"Fig. 5 activity join returned {rows} rows, tallied {tally.posts} posts"]
    return []


def check_view(budget_spent: int, task_notes: int) -> list[str]:
    if budget_spent != task_notes:
        return [
            f"view budget_spent {budget_spent} != its task notifications {task_notes}"
        ]
    return []


def brute_force_pick(runtime, *, mu_phase: bool) -> int:
    """The resource fp-mu must pick next, ranked here from public state:
    MU takes the highest instability, then fewest posts, then lowest
    id; FP takes the fewest posts, then lowest id."""
    board = runtime.board
    corpus = runtime.corpus
    if mu_phase:
        return min(
            runtime.eligible,
            key=lambda rid: (
                -(1.0 - board.quality_of(rid)),
                corpus.resource(rid).n_posts,
                rid,
            ),
        )
    return min(runtime.eligible, key=lambda rid: (corpus.resource(rid).n_posts, rid))


def check_pick(expected: int, picked: int) -> list[str]:
    if expected != picked:
        return [f"strategy picked resource {picked}, brute force picks {expected}"]
    return []


def check_phase(first_mu: bool, last_mu: bool, expected: str) -> list[str]:
    failures = []
    if first_mu != last_mu:
        failures.append("fp-mu switched phase inside the measured window")
    if first_mu != (expected == "mu"):
        failures.append(
            f"fp-mu is in its {'MU' if first_mu else 'FP'} phase, "
            f"the workload needs {expected.upper()}"
        )
    return failures
