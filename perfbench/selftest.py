"""Self-tests of the benchmark: reduced-size runs of every workload.

    python3 perfbench/selftest.py

Each workload runs at a few hundred resources for a few rounds, with
and without tracing; the printed metric names and units must match
BENCHMARK.json.  Every correctness check must pass on the run's own
tally and fail when fed a deliberately wrong one.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import SPECS, Run  # noqa: E402

SMALL = {
    "campaign-10k": dict(n_resources=400, batch=5),
    "screens-1k": dict(n_resources=150, initial_posts_total=150, batch=4,
                       visits_per_round=2),
}
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def small(name: str):
    return dataclasses.replace(SPECS[name], **SMALL[name])


def result_of(spec, trace: bool) -> tuple[dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.execute(spec, seed=5, seconds=0.2, trace=trace)
    # the result must survive the JSON line run.py prints
    return json.loads(json.dumps(result)), out.getvalue()


class ReducedRuns(unittest.TestCase):
    def check_result(self, name: str, trace: bool) -> None:
        spec = small(name)
        result, text = result_of(spec, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], text)
        declared = BENCHMARK["per_layer" if trace else "end_to_end"]
        self.assertEqual(
            {name: metric["unit"] for name, metric in result["metrics"].items()},
            {metric["name"]: metric["unit"] for metric in declared},
        )
        if not trace:
            for metric, value in result["metrics"].items():
                self.assertGreater(value["value"], 0.0, metric)
        if spec.restart_every:
            # per restart: that many rounds of visits, screens, a
            # pick-check and a batch, then a reopen, one failed resume
            # and a checkpoint
            round_ops = spec.visits_per_round + spec.screens_per_round + 1 + spec.batch
            per_restart = spec.restart_every * round_ops + 3
            self.assertGreater(result["failed"], 0)
            self.assertEqual(result["failed"] * per_restart, result["attempted"], text)
        else:
            self.assertEqual(result["failed"], 0, text)

    def test_campaign(self) -> None:
        self.check_result("campaign-10k", trace=False)
        self.check_result("campaign-10k", trace=True)

    def test_screens(self) -> None:
        self.check_result("screens-1k", trace=False)
        self.check_result("screens-1k", trace=True)


class ChecksRejectWrongTallies(unittest.TestCase):
    """Each check passes on what the run saw and fails on a wrong tally."""

    @classmethod
    def setUpClass(cls) -> None:
        cls.workdir = ROOT / ".perfbench-work" / "selftest"
        shutil.rmtree(cls.workdir, ignore_errors=True)
        cls.workdir.mkdir(parents=True)
        cls.bench = Run(small("screens-1k"), seed=7, seconds=0.2, trace=False,
                      workdir=cls.workdir)
        cls.bench.execute()

    @classmethod
    def tearDownClass(cls) -> None:
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def wrong(self, **changes) -> checks.Tally:
        return dataclasses.replace(self.bench.tally, **changes)

    def test_final_checks(self) -> None:
        tally = self.bench.tally
        self.assertEqual(self.bench.failures, [])
        self.assertEqual(self.bench.final_checks(tally), [])
        moved = dict(tally.paid_tasks)
        worker = next(iter(moved))
        moved[worker] -= 1
        moved[-1] = 1
        for wrong in (
            self.wrong(committed=tally.committed + 1),
            self.wrong(committed=tally.committed + 1, rejected=tally.rejected + 1),
            self.wrong(approved=tally.approved + 1, rejected=tally.rejected - 1),
            self.wrong(initial_posts=tally.initial_posts + 1),
            self.wrong(paid_tasks=moved),
        ):
            self.assertNotEqual(self.bench.final_checks(wrong), [], wrong)

    def test_each_check(self) -> None:
        tally = self.bench.tally
        more = self.wrong(approved=tally.approved + 1, rejected=tally.rejected - 1)
        self.assertNotEqual(checks.check_budget(self.wrong(committed=0), tally.committed), [])
        self.assertNotEqual(checks.check_fig5_rows(more, tally.posts), [])
        recovered = dict(
            budget_spent=tally.committed, post_rows=tally.posts,
            approved_notes=tally.approved, rejected_notes=tally.rejected,
            n_posts_sum=tally.posts,
        )
        self.assertEqual(checks.check_recovered(tally, **recovered), [])
        self.assertNotEqual(checks.check_recovered(more, **recovered), [])
        self.assertNotEqual(
            checks.check_recovered(self.wrong(committed=tally.committed - 1), **recovered), []
        )
        self.assertEqual(checks.check_trajectory(tally, (tally.committed, 0.5), [0.4, 0.6]), [])
        self.assertNotEqual(
            checks.check_trajectory(self.wrong(committed=1), (tally.committed, 0.5), [0.4, 0.6]),
            [],
        )
        self.assertNotEqual(checks.check_trajectory(tally, (tally.committed, 0.5), [0.4, 0.7]), [])
        self.assertEqual(checks.check_view(12, 12), [])
        self.assertNotEqual(checks.check_view(12, 13), [])
        self.assertEqual(checks.check_pick(4, 4), [])
        self.assertNotEqual(checks.check_pick(4, 5), [])
        self.assertEqual(checks.check_phase(False, False, "fp"), [])
        self.assertNotEqual(checks.check_phase(False, True, "fp"), [])
        self.assertNotEqual(checks.check_phase(True, True, "fp"), [])
        self.assertEqual(checks.check_fig3_order([0.4, 0.0, 0.0], 3), [])
        self.assertNotEqual(checks.check_fig3_order([0.0, 0.4, 0.0], 3), [])
        self.assertNotEqual(checks.check_fig3_order([0.4, 0.0], 3), [])

    def test_brute_force_pick_ranks_public_state(self) -> None:
        runtime = self.bench.system.quality.runtime(self.bench.project)
        fp = checks.brute_force_pick(runtime, mu_phase=False)
        counts = {rid: runtime.corpus.resource(rid).n_posts for rid in runtime.eligible}
        self.assertEqual(counts[fp], min(counts.values()))
        self.assertEqual(fp, min(rid for rid, count in counts.items() if count == counts[fp]))


if __name__ == "__main__":
    unittest.main(verbosity=2)
