"""Integration tests: the ITagSystem facade end-to-end (Sec. III)."""

import pytest

from repro.datasets import make_delicious_like
from repro.errors import ProjectError
from repro.system import ITagSystem, export_project_csv, export_project_json


@pytest.fixture()
def campaign():
    data = make_delicious_like(
        n_resources=15, initial_posts_total=100, master_seed=11, population_size=25
    )
    system = ITagSystem(master_seed=11)
    provider = system.register_provider("alice")
    project = system.create_project(
        provider, "urls", budget=60, pay_per_task=0.05,
        strategy="fp-mu", platform="mturk",
    )
    system.upload_resources(project, data.provider_corpus)
    system.start_project(project, noise_model=data.dataset.noise_model)
    return data, system, provider, project


class TestCampaignFlow:
    def test_run_spends_budget_and_updates_rows(self, campaign):
        data, system, _provider, project = campaign
        initial_posts = sum(
            row["n_posts"] for row in system.resources.of_project(project)
        )
        assert initial_posts == data.split.provider_post_count
        outcomes = system.run_project(project, tasks=30)
        assert len(outcomes) == 30
        status = system.project_status(project)
        assert status["budget_spent"] == 30
        assert status["state"] == "running"
        total_row_posts = sum(
            row["n_posts"] for row in system.resources.of_project(project)
        )
        approved = sum(1 for outcome in outcomes if outcome.approved)
        assert total_row_posts == initial_posts + approved

    def test_completion_refunds_escrow(self, campaign):
        _data, system, provider, project = campaign
        system.run_project(project)
        status = system.project_status(project)
        assert status["state"] == "completed"
        assert status["budget_spent"] == 60
        assert system.ledger.escrow_of(provider) == pytest.approx(0.0)
        system.ledger.verify_conservation()

    def test_rejected_posts_do_not_pay(self, campaign):
        _data, system, provider, project = campaign
        outcomes = system.run_project(project, tasks=60)
        rejected = [outcome for outcome in outcomes if not outcome.approved]
        paid = sum(system.ledger.worker_balance.values())
        approved = [outcome for outcome in outcomes if outcome.approved]
        assert paid == pytest.approx(len(approved) * 0.05)
        # Rejected workers got nothing for those tasks.
        if rejected:
            assert len(approved) < len(outcomes)

    def test_quality_improves_over_campaign(self, campaign):
        _data, system, _provider, project = campaign
        before = system.projects.get(project)["avg_quality"]
        system.run_project(project)
        after = system.projects.get(project)["avg_quality"]
        assert after > before

    def test_run_requires_running_state(self, campaign):
        _data, system, _provider, project = campaign
        system.pause_project(project)
        with pytest.raises(ProjectError, match="not running"):
            system.run_project(project, tasks=1)
        system.resume_project(project)
        assert len(system.run_project(project, tasks=1)) == 1

    def test_stop_project_refunds(self, campaign):
        _data, system, provider, project = campaign
        system.run_project(project, tasks=10)
        refund = system.stop_project(project)
        assert refund > 0
        assert system.project_status(project)["state"] == "stopped"
        system.ledger.verify_conservation()
        with pytest.raises(ProjectError):
            system.run_project(project, tasks=1)


class TestProviderControls:
    def test_promote_and_stop(self, campaign):
        data, system, _provider, project = campaign
        ids = data.provider_corpus.resource_ids()
        system.promote_resource(project, ids[3])
        system.stop_resource(project, ids[5])
        outcomes = system.run_project(project, tasks=10)
        assert outcomes[0].resource_id == ids[3]
        assert all(outcome.resource_id != ids[5] for outcome in outcomes)
        assert system.resources.get(ids[3])["promoted"] is True
        assert system.resources.get(ids[5])["stopped"] is True
        system.resume_resource(project, ids[5])
        assert system.resources.get(ids[5])["stopped"] is False

    def test_switch_strategy_persists(self, campaign):
        _data, system, _provider, project = campaign
        system.switch_strategy(project, "mu")
        assert system.projects.get(project)["strategy"] == "mu"
        system.run_project(project, tasks=5)

    def test_add_budget_funds_escrow(self, campaign):
        _data, system, provider, project = campaign
        escrow_before = system.ledger.escrow_of(provider)
        system.add_budget(project, 10)
        assert system.projects.get(project)["budget_total"] == 70
        assert system.ledger.escrow_of(provider) > escrow_before

    def test_upload_twice_rejected(self, campaign):
        data, system, _provider, project = campaign
        with pytest.raises(ProjectError, match="can only be uploaded in"):
            system.upload_resources(project, data.provider_corpus.copy())

    def test_cross_project_id_collision_rejected(self, campaign):
        from repro.errors import ResourceNotFoundError

        data, system, provider, _project = campaign
        second = system.create_project(provider, "again", budget=5)
        with pytest.raises(ResourceNotFoundError, match="renumber"):
            system.upload_resources(second, data.provider_corpus.copy())

    def test_start_requires_resources(self, campaign):
        _data, system, provider, _project = campaign
        empty = system.create_project(provider, "empty", budget=5)
        with pytest.raises(ProjectError, match="upload resources first"):
            system.start_project(empty)


class TestTaggerApi:
    def test_open_projects_lists_running(self, campaign):
        _data, system, _provider, project = campaign
        entries = system.open_projects()
        assert [entry["project_id"] for entry in entries] == [project]
        assert entries[0]["pay_per_task"] == 0.05

    def test_submit_post_approval_and_pay(self, campaign):
        data, system, _provider, project = campaign
        tagger = system.register_tagger("dana")
        resource = data.provider_corpus.resource(1)
        import numpy as np

        good_tags = list(np.flatnonzero(resource.theta)[:2])
        approved = system.submit_post(project, tagger, 1, good_tags)
        assert approved
        assert system.ledger.earned_by(tagger) == pytest.approx(0.05)
        assert system.projects.get(project)["budget_spent"] == 1

    def test_submit_post_requires_running(self, campaign):
        _data, system, _provider, project = campaign
        tagger = system.register_tagger("dana")
        system.pause_project(project)
        with pytest.raises(ProjectError):
            system.submit_post(project, tagger, 1, [0])


class TestStrategyFeedback:
    def test_every_system_task_reaches_the_strategy(self):
        """Both system task paths call ``Strategy.observe``, so
        adaptive refits on its schedule: with ``refit_every=25``, 150
        tasks refit at tasks 1, 26, 51, 76, 101 and 126, as in the
        engine, and a tagger's post counts as a task too."""
        data = make_delicious_like(
            n_resources=50, initial_posts_total=300, master_seed=11, population_size=25
        )
        system = ITagSystem(master_seed=11)
        provider = system.register_provider("alice")
        project = system.create_project(
            provider, "urls", budget=200, strategy="adaptive"
        )
        system.upload_resources(project, data.provider_corpus)
        system.start_project(project, noise_model=data.dataset.noise_model)
        strategy = system.quality.runtime(project).strategy
        refits = []
        refit = strategy._refit
        strategy._refit = lambda context: refits.append(refit(context))
        system.run_project(project, tasks=150)
        assert len(refits) == 6
        since_fit = strategy._tasks_since_fit
        system.submit_post(project, system.register_tagger("dana"), 1, [0])
        assert strategy._tasks_since_fit == since_fit + 1


class TestExport:
    def test_json_export(self, campaign, tmp_path):
        _data, system, _provider, project = campaign
        system.run_project(project, tasks=20)
        path = export_project_json(system, project, tmp_path / "out.json")
        import json

        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["project"]["id"] == project
        assert len(payload["resources"]) == 15
        assert all("tags" in resource for resource in payload["resources"])

    def test_csv_export(self, campaign, tmp_path):
        _data, system, _provider, project = campaign
        path = export_project_csv(system, project, tmp_path / "out.csv")
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0].startswith("resource_id,name")
        assert len(lines) == 16

    def test_export_empty_project_rejected(self, campaign, tmp_path):
        _data, system, provider, _project = campaign
        empty = system.create_project(provider, "empty", budget=1)
        with pytest.raises(ProjectError):
            export_project_json(system, empty, tmp_path / "never.json")
