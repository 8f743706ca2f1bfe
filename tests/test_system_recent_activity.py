"""Fig. 5's recent activity: a top-k join over the ``posts.ts`` index.

``ResourceManager.recent_activity`` walks the deployment's newest posts
on a read view, windowed to one post per ``RESOURCES_PER_WALKED_POST``
project resources, probes each post's resource and tagger, and stops
after the rows it returns; when the window misses, it ranks the
project's own posts instead.  These tests hold it to a brute force over
the full ``project_posts_with_taggers`` join, ranked by
``(-ts, post id)``:

- a hypothesis property over several projects whose posts interleave
  in ``ts``, ties included, with wide and narrow windows (and, whenever
  the newest three are unambiguous, equality with the old
  sort-the-whole-join selection);
- an idle project beside an active one reads its window and its own
  posts, not the active project's; an active one reads a few posts;
- the screen text of a real campaign (oldest of the three first);
- a walk during which a live writer splits the index chunk it reads.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import make_delicious_like
from repro.store.plan import OrderedScan
from repro.store.views import ReadView
from repro.system import ITagSystem, build_system_database, project_details_screen
from repro.system import resource_manager
from repro.system.resource_manager import ResourceManager

#: tagger 4 has no user row: the left-outer join pads its columns
_REGISTERED_TAGGERS = (1, 2, 3)


def _deployment(resource_counts, posts):
    """A system database with ``len(resource_counts)`` projects, the
    given number of resources each, and ``posts`` inserted in order as
    ``(resource index, ts, tagger id)``."""
    database = build_system_database()
    for tagger in _REGISTERED_TAGGERS:
        database.table("users").insert(
            {"id": tagger, "name": f"tagger-{tagger}", "role": "tagger"}
        )
    resource_ids = []
    for project, count in enumerate(resource_counts, start=1):
        for _ in range(count):
            resource_id = len(resource_ids) + 1
            database.table("resources").insert(
                {"id": resource_id, "project_id": project, "name": f"r{resource_id}"}
            )
            resource_ids.append(resource_id)
    for position, (resource_index, ts, tagger) in enumerate(posts):
        database.table("posts").insert(
            {
                "resource_id": resource_ids[resource_index % len(resource_ids)],
                "tagger_id": tagger,
                "tag_ids": [position],
                "seq": position,
                "ts": float(ts),
            }
        )
    return database, ResourceManager(database)


def _brute_force_top(rows, count=3):
    return sorted(rows, key=lambda row: (-row["post_ts"], row["post_id"]))[:count]


def _newest_are_unambiguous(rows, count=3):
    """The newest ``count`` posts have distinct ``ts``, each newer than
    every other post: any tie order picks the same rows."""
    stamps = sorted((row["post_ts"] for row in rows), reverse=True)
    top = stamps[:count]
    return len(set(top)) == len(top) and (len(stamps) <= count or top[-1] > stamps[count])


@given(
    st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=3),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=23),
            st.integers(min_value=0, max_value=6),  # few stamps: many ties
            st.integers(min_value=1, max_value=4),
        ),
        max_size=30,
    ),
    # 1: windows wide enough that walks often succeed; 4: the default
    st.sampled_from([1, 4]),
)
@settings(max_examples=80, deadline=None)
def test_recent_activity_is_the_brute_force_top_three(resource_counts, posts, per_post):
    _database, manager = _deployment(resource_counts, posts)
    for project in range(1, len(resource_counts) + 1):
        full = manager.project_posts_with_taggers(project)
        with mock.patch.object(resource_manager, "RESOURCES_PER_WALKED_POST", per_post):
            recent = manager.recent_activity(project, 3)
        assert recent == _brute_force_top(full)
        if _newest_are_unambiguous(full):
            # the selection the screen made before: sort the whole join
            # by ts and print the last three, oldest first
            oldest_first = sorted(full, key=lambda row: row["post_ts"])[-3:]
            assert list(reversed(recent)) == oldest_first


def _count_post_fetches(monkeypatch):
    """Every ``posts`` row the read views fetch, by post id."""
    fetched = []
    refs_for_pks = ReadView.refs_for_pks

    def counting(self, pks):
        for row in refs_for_pks(self, pks):
            if self.name == "posts":
                fetched.append(row["id"])
            yield row

    monkeypatch.setattr(ReadView, "refs_for_pks", counting)
    return fetched


def _idle_beside_active():
    """Two projects of 40 resources: project 1's 40 posts are all older
    than the 1 200 posts of project 2."""
    posts = [(index, index, 1) for index in range(40)]
    posts += [(40 + offset % 40, 100 + offset, 2) for offset in range(1200)]
    return _deployment([40, 40], posts)


def test_idle_project_beside_an_active_one_reads_its_own_posts(monkeypatch):
    _database, manager = _idle_beside_active()
    expected = _brute_force_top(manager.project_posts_with_taggers(1))
    fetched = _count_post_fetches(monkeypatch)
    assert manager.recent_activity(1, 3) == expected
    window = 40 // resource_manager.RESOURCES_PER_WALKED_POST
    # the window, project 1's 40 posts, then the 3 winners again: none
    # of the 1 190 active posts past the window
    assert len(fetched) == window + 40 + 3
    assert sum(post_id > 40 for post_id in fetched) == window


def test_active_project_reads_only_the_posts_it_shows(monkeypatch):
    _database, manager = _idle_beside_active()
    expected = _brute_force_top(manager.project_posts_with_taggers(2))
    fetched = _count_post_fetches(monkeypatch)
    assert manager.recent_activity(2, 3) == expected
    assert fetched == [1240, 1239, 1238]


def test_tagger_without_a_user_row_is_padded():
    _database, manager = _deployment([1], [(0, 1, 4), (0, 2, 1)])
    recent = manager.recent_activity(1, 3)
    assert [row["post_tagger_id"] for row in recent] == [1, 4]
    assert recent[0]["user_name"] == "tagger-1"
    assert recent[1]["user_name"] is None


def test_screen_prints_the_newest_three_oldest_first():
    data = make_delicious_like(
        n_resources=12, initial_posts_total=80, master_seed=23, population_size=20
    )
    system = ITagSystem(master_seed=23)
    provider = system.register_provider("activity-provider")
    project = system.create_project(
        provider, "activity", budget=40, pay_per_task=0.05,
        strategy="fp-mu", platform="mturk", kind="image",
    )
    system.upload_resources(project, data.provider_corpus)
    system.start_project(project, noise_model=data.dataset.noise_model)
    system.run_project(project, tasks=20)
    screen = project_details_screen(system, project)
    lines = screen.splitlines()
    start = lines.index("recent activity:") + 1
    expected = [
        f"  {row['user_name'] or 'worker-' + str(row['post_tagger_id'])} "
        f"tagged {row['name']}"
        for row in reversed(
            _brute_force_top(system.resources.project_posts_with_taggers(project))
        )
    ]
    assert lines[start : start + 3] == expected


def test_walk_reads_its_view_while_a_writer_splits_the_index(monkeypatch):
    """Project 1's three posts are older than 1 200 posts of project 2,
    and its 1 210 resources window the walk past them, so the
    descending walk crosses chunk boundaries of the ``posts.ts`` index.
    Between two rows of the walk a live writer appends 1 024 posts (the
    last chunk splits) and inserts a project-1 post inside the span the
    walk has yet to read.  The walk must neither crash nor see either
    write: it lists the top three as of the capture."""
    monkeypatch.setattr(resource_manager, "RESOURCES_PER_WALKED_POST", 1)
    posts = [(0, ts, 1) for ts in (1, 2, 3)]
    posts += [(1210, 10 + offset, 2) for offset in range(1200)]
    database, manager = _deployment([1210, 1], posts)
    expected = _brute_force_top(manager.project_posts_with_taggers(1))
    live_posts = database.table("posts")
    walked = []
    iter_pks = OrderedScan.iter_pks

    def walk_then_write(self):
        for pk in iter_pks(self):
            walked.append(pk)
            if len(walked) == 5:
                for offset in range(1024):
                    live_posts.insert(
                        {"resource_id": 1211, "tagger_id": 2, "tag_ids": [],
                         "seq": 0, "ts": 5000.0 + offset}
                    )
                live_posts.insert(
                    {"resource_id": 1, "tagger_id": 3, "tag_ids": [], "seq": 0,
                     "ts": 5.5}
                )
            yield pk

    monkeypatch.setattr(OrderedScan, "iter_pks", walk_then_write)
    assert manager.recent_activity(1, 3) == expected
    assert len(walked) == 1203  # the walk crossed every post of project 2
    monkeypatch.undo()
    live_posts._indexes["ts"].verify_structure()
    # a fresh capture sees the writer's project-1 post
    assert manager.recent_activity(1, 1)[0]["post_ts"] == 5.5
