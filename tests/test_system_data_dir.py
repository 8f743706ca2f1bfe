"""A durable deployment's data directory: schema revisions applied on
reopen.

A data directory written before the ``posts.ts`` order index existed
(simulated by dropping it) reopens with the index, and Fig. 5 then
plans its recent activity as a top-k walk over it.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.datasets import make_delicious_like
from repro.store.query import JoinQuery
from repro.system import ITagSystem, project_details_screen


def _campaign(data_dir: Path, tasks: int = 15):
    data = make_delicious_like(
        n_resources=20, initial_posts_total=90, master_seed=31, population_size=20
    )
    system = ITagSystem(master_seed=31, data_dir=str(data_dir), fsync="never")
    provider = system.register_provider("durable-provider")
    project = system.create_project(
        provider, "durable", budget=60, pay_per_task=0.05,
        strategy="fp-mu", platform="mturk", kind="image",
    )
    system.upload_resources(project, data.provider_corpus)
    system.start_project(project, noise_model=data.dataset.noise_model)
    system.run_project(project, tasks=tasks)
    return system, project


@pytest.mark.parametrize("checkpointed", [True, False], ids=["checkpoint", "wal-only"])
def test_reopen_restores_the_posts_ts_index_and_the_top_k_plan(
    tmp_path, monkeypatch, checkpointed
):
    state = tmp_path / "state"
    system, project = _campaign(state)
    system.database.table("posts").drop_index("ts")
    if checkpointed:
        system.checkpoint()
    system.close()

    reopened = ITagSystem(master_seed=31, data_dir=str(state), fsync="never")
    assert "ts" in reopened.database.table("posts").index_columns()
    plans = []
    build = JoinQuery._build_plan

    def recording(self):
        plan = build(self)
        plans.append(plan.render())
        return plan

    monkeypatch.setattr(JoinQuery, "_build_plan", recording)
    screen = project_details_screen(reopened, project)
    monkeypatch.undo()
    assert len(plans) == 1
    assert plans[0].splitlines()[0].startswith("index-nl-join(posts.post_tagger_id = users.id")
    # 20 resources window the walk to the 5 newest posts
    assert plans[0].splitlines()[-2:] == [
        "    top-k(posts.ts desc, k=5)",
        "      sorted-index-order(posts.ts desc)",
    ]
    full = reopened.resources.project_posts_with_taggers(project)
    newest = sorted(full, key=lambda row: (-row["post_ts"], row["post_id"]))[:3]
    lines = screen.splitlines()
    start = lines.index("recent activity:") + 1
    assert [line.rsplit(" tagged ", 1)[1] for line in lines[start : start + 3]] == [
        row["name"] for row in reversed(newest)
    ]
    reopened.database.verify()
    reopened.close()
