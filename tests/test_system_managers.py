"""Unit tests: user/resource/tag managers, projects, notifications."""

import pytest

from repro.errors import ApprovalError, ProjectError, ResourceNotFoundError
from repro.system import (
    NotificationCenter,
    ProjectRegistry,
    ResourceManager,
    TagManager,
    UserManager,
    build_system_database,
)
from repro.tagging import Corpus, Post, TaggedResource, Vocabulary


@pytest.fixture()
def database():
    return build_system_database()


@pytest.fixture()
def loaded(database):
    vocabulary = Vocabulary(["python", "db", "web", "noise"])
    corpus = Corpus(vocabulary)
    resource = TaggedResource(1, "url-1")
    resource.add_post(Post.from_tags(1, 50, [0, 1]))
    resource.add_post(Post.from_tags(1, 51, [0]))
    corpus.add_resource(resource)
    corpus.add_resource(TaggedResource(2, "url-2"))
    manager = ResourceManager(database)
    manager.upload(77, corpus)
    return database, corpus, manager


class TestUserManager:
    def test_register_roles(self, database):
        users = UserManager(database)
        provider = users.register("alice", "provider")
        tagger = users.register("bob", "tagger")
        assert users.get(provider)["role"] == "provider"
        assert [row["name"] for row in users.by_role("tagger")] == ["bob"]

    def test_bad_role_rejected(self, database):
        with pytest.raises(ApprovalError, match="role"):
            UserManager(database).register("x", "admin")

    def test_duplicate_name_rejected(self, database):
        users = UserManager(database)
        users.register("alice", "provider")
        from repro.store import DuplicateKeyError

        with pytest.raises(DuplicateKeyError):
            users.register("alice", "tagger")

    def test_ensure_tagger_idempotent(self, database):
        users = UserManager(database)
        assert users.ensure_tagger(10_001) == 10_001
        assert users.ensure_tagger(10_001) == 10_001
        assert users.get(10_001)["role"] == "tagger"

    def test_approval_rate_updates(self, database):
        users = UserManager(database)
        worker = users.ensure_tagger(500)
        users.record_decision(worker, approved=True)
        users.record_decision(worker, approved=True)
        users.record_decision(worker, approved=False)
        assert users.approval_rate(worker) == pytest.approx(2 / 3)


class TestResourceManager:
    def test_upload_persists_rows_and_posts(self, loaded):
        database, corpus, manager = loaded
        rows = manager.of_project(77)
        assert [row["id"] for row in rows] == [1, 2]
        assert rows[0]["n_posts"] == 2
        assert len(manager.posts_of(1)) == 2

    def test_record_post_appends(self, loaded):
        _database, corpus, manager = loaded
        resource = corpus.resource(1)
        post = resource.add_post(Post.from_tags(1, 52, [2]))
        manager.record_post(post, quality=0.7)
        row = manager.get(1)
        assert row["n_posts"] == 3
        assert row["quality"] == 0.7
        assert len(manager.posts_of(1)) == 3

    def test_record_post_out_of_order_keeps_newest(self, loaded):
        # two writers: the task that simulated post 3 commits after the
        # one that simulated post 4
        _database, corpus, manager = loaded
        resource = corpus.resource(1)
        third = resource.add_post(Post.from_tags(1, 52, [2]))
        fourth = resource.add_post(Post.from_tags(1, 53, [0]))
        manager.record_post(fourth, quality=0.8)
        manager.record_post(third, quality=0.7)
        row = manager.get(1)
        assert row["n_posts"] == 4
        assert row["quality"] == 0.8
        assert [p["seq"] for p in manager.posts_of(1)] == [1, 2, 3, 4]
        assert [p["tagger_id"] for p in manager.posts_of(1)][2:] == [52, 53]

    def test_promote_stop_flags(self, loaded):
        _database, _corpus, manager = loaded
        manager.set_promoted(1, True)
        manager.set_stopped(2, True)
        assert manager.get(1)["promoted"] is True
        assert manager.get(2)["stopped"] is True

    def test_missing_resource(self, loaded):
        _database, _corpus, manager = loaded
        with pytest.raises(ResourceNotFoundError):
            manager.get(99)

    def test_posts_with_taggers_joins_user_rows(self, loaded):
        database, _corpus, manager = loaded
        users = UserManager(database)
        users.ensure_tagger(50, name="carol")
        joined = manager.posts_with_taggers(1)
        assert [row["seq"] for row in joined] == [1, 2]
        assert joined[0]["tagger_id"] == 50
        assert joined[0]["user_name"] == "carol"
        # tagger 51 never registered: left join pads, post still shows
        assert joined[1]["user_name"] is None


class TestTagManager:
    def test_frequencies_sorted(self, loaded):
        database, corpus, _manager = loaded
        tags = TagManager(database, corpus.vocabulary)
        assert tags.tag_frequencies(1) == [("python", 2), ("db", 1)]
        assert tags.top_tags(1, 1) == [("python", 2)]

    def test_empty_resource(self, loaded):
        database, corpus, _manager = loaded
        tags = TagManager(database, corpus.vocabulary)
        assert tags.tag_frequencies(2) == []

    def test_corpus_view_matches_store_view(self, loaded):
        database, corpus, _manager = loaded
        tags = TagManager(database, corpus.vocabulary)
        assert tags.resource_tags_from_corpus(corpus, 1, 5) == tags.top_tags(1, 5)

    def test_rename_view(self, loaded):
        database, corpus, _manager = loaded
        tags = TagManager(database, corpus.vocabulary)
        assert tags.rename_view([0, 2]) == ["python", "web"]

    def test_contributors_join_counts_posts_per_tagger(self, loaded):
        database, corpus, _manager = loaded
        UserManager(database).ensure_tagger(50, name="carol")
        tags = TagManager(database, corpus.vocabulary)
        assert tags.contributors(1) == [("carol", 1), ("worker-51", 1)]
        assert tags.contributors(2) == []


class TestProjectRegistry:
    def test_lifecycle_happy_path(self, database):
        projects = ProjectRegistry(database)
        pid = projects.create(1, "p", budget=10)
        assert projects.get(pid)["state"] == "draft"
        projects.transition(pid, "running")
        projects.transition(pid, "paused")
        projects.transition(pid, "running")
        projects.transition(pid, "completed")

    def test_illegal_transitions(self, database):
        projects = ProjectRegistry(database)
        pid = projects.create(1, "p", budget=10)
        with pytest.raises(ProjectError, match="illegal transition"):
            projects.transition(pid, "completed")
        projects.transition(pid, "running")
        with pytest.raises(ProjectError):
            projects.transition(pid, "draft")

    def test_unknown_state(self, database):
        projects = ProjectRegistry(database)
        pid = projects.create(1, "p", budget=10)
        with pytest.raises(ProjectError, match="unknown project state"):
            projects.transition(pid, "archived")

    def test_budget_spend_guard(self, database):
        projects = ProjectRegistry(database)
        pid = projects.create(1, "p", budget=1)
        projects.transition(pid, "running")
        projects.record_spend(pid, avg_quality=0.5)
        with pytest.raises(ProjectError, match="exceeds budget"):
            projects.record_spend(pid, avg_quality=0.5)

    def test_add_budget_rules(self, database):
        projects = ProjectRegistry(database)
        pid = projects.create(1, "p", budget=5)
        projects.add_budget(pid, 5)
        assert projects.budget_remaining(pid) == 10
        projects.transition(pid, "running")
        projects.transition(pid, "stopped")
        with pytest.raises(ProjectError, match="cannot add budget"):
            projects.add_budget(pid, 1)

    def test_quality_sort(self, database):
        projects = ProjectRegistry(database)
        low = projects.create(1, "low", budget=1)
        high = projects.create(1, "high", budget=1)
        projects.update_quality(low, 0.2)
        projects.update_quality(high, 0.9)
        ordered = [row["name"] for row in projects.list_by_quality()]
        assert ordered == ["high", "low"]

    def test_in_state_with_provider_joins_user_row(self, database):
        users = UserManager(database)
        alice = users.register("alice", "provider")
        bob = users.register("bob", "provider")
        projects = ProjectRegistry(database)
        first = projects.create(alice, "p1", budget=1)
        second = projects.create(bob, "p2", budget=1)
        projects.create(alice, "draft-only", budget=1)
        projects.transition(first, "running")
        projects.transition(second, "running")
        joined = projects.in_state_with_provider("running")
        assert [(row["id"], row["user_name"]) for row in joined] == [
            (first, "alice"), (second, "bob"),
        ]

    def test_validation(self, database):
        projects = ProjectRegistry(database)
        with pytest.raises(ProjectError):
            projects.create(1, "p", budget=-1)
        with pytest.raises(ProjectError):
            projects.create(1, "p", pay_per_task=-0.1)


class TestNotifications:
    def test_feed_and_read_flow(self, database):
        center = NotificationCenter(database)
        center.notify(1, "post_approved", "m1", ts=1.0)
        center.notify(1, "quality_up", "m2", ts=2.0)
        center.notify(2, "post_approved", "other", ts=3.0)
        feed = center.feed(1)
        assert [row["message"] for row in feed] == ["m2", "m1"]
        assert center.unread_count(1) == 2
        center.mark_read(feed[0]["id"])
        assert center.unread_count(1) == 1
        assert center.mark_all_read(1) == 1
        assert center.unread_count(1) == 0

    def test_unread_only_filter(self, database):
        center = NotificationCenter(database)
        identifier = center.notify(1, "post_rejected", "m", ts=0.0)
        center.mark_read(identifier)
        assert center.feed(1, unread_only=True) == []

    def test_unknown_kind_rejected(self, database):
        center = NotificationCenter(database)
        with pytest.raises(ValueError, match="unknown notification kind"):
            center.notify(1, "smoke_signal", "m")
