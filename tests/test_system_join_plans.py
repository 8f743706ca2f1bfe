"""The join plans the system issues, pinned.

Every join the system reads goes through the join-graph planner:
Fig. 5's recent activity (a top-k ``posts ⋈ resources ⟕ users`` on a
view), the full activity join (``resources ⋈ posts ⟕ users``),
Fig. 6's contributors and post list (``posts ⟕ users``) and Fig. 7's
open projects (``projects ⋈ users``, live and on a snapshot view).  This
test drives a small campaign through those screens, records the plan
of every ``JoinQuery`` the system compiles, and asserts each operator
tree (estimates elided) and its ``[join-order: ...]`` line — the
standing record of the traffic the join planner serves, so a planner
change that moves a system plan fails here.
"""

from __future__ import annotations

import re

import pytest

from repro.datasets import make_delicious_like
from repro.store.query import JoinQuery
from repro.system import (
    ITagSystem,
    project_details_screen,
    resource_details_screen,
    tagger_projects_screen,
)

_ESTIMATE = re.compile(r"est~\d+")


@pytest.fixture(scope="module")
def campaign():
    data = make_delicious_like(
        n_resources=12, initial_posts_total=80, master_seed=19, population_size=20
    )
    system = ITagSystem(master_seed=19)
    provider = system.register_provider("plan-provider")
    project = system.create_project(
        provider, "plan-project", budget=50, pay_per_task=0.07,
        strategy="fp-mu", platform="mturk", kind="image",
    )
    system.upload_resources(project, data.provider_corpus)
    system.start_project(project, noise_model=data.dataset.noise_model)
    system.run_project(project, tasks=25)
    resource_id = system.resources.of_project(project)[0]["id"]
    return system, project, resource_id


@pytest.fixture()
def planned(monkeypatch):
    """Every join plan compiled while the test runs, rendered as
    ``explain()`` prints it, minus the estimates and cache line."""
    plans: list[str] = []
    build = JoinQuery._build_plan

    def recording(self):
        plan = build(self)
        order = " -> ".join(self._order_info["order"])
        algorithm = self._order_info["algorithm"]
        plans.append(
            f"{_ESTIMATE.sub('est', plan.render())}\n"
            f"[join-order: {order} ({algorithm})]"
        )
        return plan

    monkeypatch.setattr(JoinQuery, "_build_plan", recording)
    return plans


_ACTIVITY = """\
hash-join(resources.post_tagger_id = users.id, how=left, build=right, est)
  index-nl-join(resources.id = posts.resource_id via hash-index, how=inner, est)
    hash-index(resources.project_id=1, est)
  full-scan(users, rows=26)
[join-order: resources -> posts -> users (dp)]"""

_RECENT_ACTIVITY = """\
index-nl-join(posts.post_tagger_id = users.id via pk, how=left, est)
  index-nl-join(posts.resource_id = resources.id via pk, how=inner, est, right-filter=Eq(column='project_id', value=1))
    top-k(posts.ts desc, k=3)
      sorted-index-order(posts.ts desc)
[join-order: posts -> resources -> users (dp)]"""

_CONTRIBUTORS = """\
index-nl-join(posts.tagger_id = users.id via pk, how=left, est)
  hash-index(posts.resource_id=1, est)
[join-order: posts -> users (dp)]"""

_POSTS = """\
index-nl-join(posts.tagger_id = users.id via pk, how=left, est)
  sort(posts.seq asc)
    hash-index(posts.resource_id=1, est)
[join-order: posts -> users (dp)]"""

_OPEN_PROJECTS = """\
index-nl-join(projects.provider_id = users.id via pk, how=inner, est)
  sort(projects.id asc)
    hash-index(projects.state='running', est)
[join-order: projects -> users (dp)]"""


@pytest.mark.parametrize(
    ("call", "expected"),
    [
        pytest.param(
            lambda system, project, resource: project_details_screen(system, project),
            [_RECENT_ACTIVITY],
            id="fig5-project-activity",
        ),
        pytest.param(
            lambda system, project, resource: system.resources.project_posts_with_taggers(
                project
            ),
            [_ACTIVITY],
            id="project-posts-with-taggers",
        ),
        pytest.param(
            lambda system, project, resource: resource_details_screen(
                system, project, resource
            ),
            [_CONTRIBUTORS],
            id="fig6-contributors",
        ),
        pytest.param(
            lambda system, project, resource: system.resources.posts_with_taggers(
                resource
            ),
            [_POSTS],
            id="posts-with-taggers",
        ),
        pytest.param(
            lambda system, project, resource: tagger_projects_screen(system),
            [_OPEN_PROJECTS],
            id="fig7-open-projects",
        ),
        pytest.param(
            lambda system, project, resource: system.open_projects(
                view=system.read_view()
            ),
            [_OPEN_PROJECTS],
            id="open-projects-on-a-view",
        ),
        pytest.param(
            lambda system, project, resource: system.projects.in_state_with_provider(
                "running"
            ),
            [_OPEN_PROJECTS],
            id="in-state-with-provider",
        ),
    ],
)
def test_system_join_plans_are_pinned(campaign, planned, call, expected):
    system, project, resource_id = campaign
    call(system, project, resource_id)
    assert planned == expected
