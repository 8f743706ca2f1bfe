"""Resource Manager: upload, bookkeeping and control of resources.

"The resources are then managed by the Resource Manager, which is in
charge of controlling the operations on resources and their related
tags, and is responsible for storing resource and tagging information"
(Sec. III-A).  Rows live in the store; the live rfd state lives in the
per-project :class:`~repro.tagging.corpus.Corpus` held by the Quality
Manager — this manager keeps the two in sync.
"""

from __future__ import annotations

import heapq

from ..errors import ResourceNotFoundError
from ..store import And, Database, Eq, Ge, In, Query
from ..tagging.corpus import Corpus
from ..tagging.post import Post

__all__ = ["ResourceManager"]

#: Fig. 5's recent-activity walk reads at most one of the deployment's
#: newest posts per this many project resources before it ranks the
#: project's own posts instead (see ``ResourceManager.recent_activity``)
RESOURCES_PER_WALKED_POST = 4


class ResourceManager:
    """CRUD over the ``resources`` table, synced with live corpora."""

    def __init__(self, database: Database) -> None:
        self._database = database
        self._resources = database.table("resources")
        self._posts = database.table("posts")
        self._users = database.table("users")

    # ------------------------------------------------------------------

    def upload(self, project_id: int, corpus: Corpus) -> int:
        """Register every corpus resource under a project; returns count.

        Pre-existing posts (the provider's own tagging data, Sec. IV)
        are persisted as post rows too.  Resource ids are global across
        the deployment: uploading a corpus whose ids are already taken
        (typically a second project reusing ids 1..n) is rejected with
        a pointer to renumbering.
        """
        taken = [
            resource.resource_id
            for resource in corpus
            if self._resources.contains(resource.resource_id)
        ]
        if taken:
            raise ResourceNotFoundError(
                f"resource ids already registered: {taken[:5]}"
                f"{'...' if len(taken) > 5 else ''}; resource ids are global "
                "across projects — renumber the corpus before uploading"
            )
        count = 0
        for resource in corpus:
            self._resources.apply(
                "insert",
                resource.resource_id,
                {
                    "id": resource.resource_id,
                    "project_id": project_id,
                    "name": resource.name,
                    "kind": resource.kind.value,
                    "n_posts": resource.n_posts,
                    "quality": 0.0,
                    "promoted": False,
                    "stopped": False,
                },
            )
            for post in resource.posts:
                self._posts.insert(
                    {
                        "resource_id": post.resource_id,
                        "tagger_id": post.tagger_id,
                        "tag_ids": list(post.tag_ids),
                        "seq": post.index,
                        "ts": post.timestamp,
                    }
                )
            count += 1
        return count

    def get(self, resource_id: int) -> dict:
        row = self._resources.get_or_none(resource_id)
        if row is None:
            raise ResourceNotFoundError(f"no resource row {resource_id}")
        return row

    def of_project(self, project_id: int) -> list[dict]:
        return (
            Query(self._resources)
            .where(Eq("project_id", project_id))
            .order_by("id")
            .all()
        )

    def active_of_project(self, project_id: int) -> list[dict]:
        """A project's not-yet-stopped resources (planner pushdown for
        the promote-suggestion screen)."""
        return (
            Query(self._resources)
            .where(And(Eq("project_id", project_id), Eq("stopped", False)))
            .all()
        )

    def stop_candidates(self, project_id: int, *, min_quality: float) -> list[dict]:
        """Active resources at or above ``min_quality``; the planner
        intersects the project hash index with the quality range."""
        return (
            Query(self._resources)
            .where(
                And(
                    Eq("project_id", project_id),
                    Eq("stopped", False),
                    Ge("quality", min_quality),
                )
            )
            .all()
        )

    # ------------------------------------------------------------------

    def record_post(self, post: Post, quality: float) -> None:
        """Persist one approved post and its effect on the resource row.

        ``post`` is the sequenced copy ``Corpus.add_post`` returned, not
        the live corpus's latest post: with two writers, another task's
        simulation may have added posts since, and its commit may land
        first.  So the row keeps the larger post count, and takes
        ``quality`` only from a post at least as new as the row (read
        and updated inside the caller's transaction, under the row
        lock).  With one writer the row ends up as ``n_posts =
        post.index`` and ``quality``.
        """
        self._posts.insert(
            {
                "resource_id": post.resource_id,
                "tagger_id": post.tagger_id,
                "tag_ids": list(post.tag_ids),
                "seq": post.index,
                "ts": post.timestamp,
            }
        )
        row = self.get(post.resource_id)
        changes: dict = {"n_posts": max(row["n_posts"], post.index)}
        if post.index >= row["n_posts"]:
            changes["quality"] = quality
        self._resources.update(post.resource_id, changes)

    def update_quality(self, resource_id: int, quality: float) -> None:
        self._resources.update(resource_id, {"quality": quality})

    def set_promoted(self, resource_id: int, promoted: bool) -> None:
        self.get(resource_id)
        self._resources.update(resource_id, {"promoted": promoted})

    def set_stopped(self, resource_id: int, stopped: bool) -> None:
        self.get(resource_id)
        self._resources.update(resource_id, {"stopped": stopped})

    def posts_of(self, resource_id: int) -> list[dict]:
        return (
            Query(self._posts)
            .where(Eq("resource_id", resource_id))
            .order_by("seq")
            .all()
        )

    def posts_with_taggers(self, resource_id: int) -> list[dict]:
        """A resource's posts joined with their tagger's user row, in
        post order (``user_name``, ``user_approval_rate``, ...).

        Routed through the join-graph planner, which picks both the
        access paths and the physical join (here: posts hash index on
        the left, one primary-key probe into ``users`` per post).
        Left-outer so posts from taggers that never made it into the
        users table (pre-existing provider data) still show.
        """
        return (
            Query(self._posts)
            .where(Eq("resource_id", resource_id))
            .order_by("seq")
            .join(self._users, on=("tagger_id", "id"), prefix_right="user_", how="left")
            .all()
        )

    def project_posts_with_taggers(self, project_id: int) -> list[dict]:
        """Every post of a project's resources, with resource and
        tagger context — a three-relation join graph.

        ``resources ⋈ posts ⟕ users``, written left-deep but planned by
        the join-order search: the project hash index narrows
        resources, posts chain in through their ``resource_id`` index,
        and the taggers are hashed in (left-outer, as above).  Columns
        come back raw for resources, ``post_``-prefixed for posts and
        ``user_``-prefixed for taggers.  It reads every post of the
        project, so no screen calls it; it is the full-activity check
        (every approved post joined exactly once) that
        :meth:`recent_activity` is tested and benchmarked against.
        """
        return (
            Query(self._resources)
            .where(Eq("project_id", project_id))
            .join(self._posts, on=("id", "resource_id"), prefix_right="post_")
            .join(
                self._users,
                on=("post_tagger_id", "id"),
                prefix_right="user_",
                how="left",
            )
            .all()
        )

    def recent_activity(self, project_id: int, count: int) -> list[dict]:
        """A project's ``count`` newest posts, newest first, with
        resource and tagger context (Fig. 5's recent activity).

        Newest means ``ts`` descending; posts with equal ``ts`` rank by
        ascending post id (the order a descending ``posts.ts`` index
        walk streams ties in).  Columns are named as in
        :meth:`project_posts_with_taggers`.  Everything reads one read
        view, so concurrent task commits cannot move the index under
        the walk.

        First a top-k join: the deployment's newest posts, windowed to
        one per :data:`RESOURCES_PER_WALKED_POST` project resources,
        each probing its resource by primary key (kept when it belongs
        to the project) and its tagger (left-outer), stopping after
        ``count`` rows.  A project that owns the newest posts is served
        by reading about ``count`` posts.  When the window holds fewer
        than ``count`` of the project's posts (an idle project beside
        an active one), the project's own posts are ranked through its
        resources and the same join runs once per winner, from its
        primary key; the window keeps such a miss cheaper than the full
        project-scoped join (docs/performance.md, "Provider screens").
        """
        view = self._database.read_view()
        posts = view.table("posts")
        project = Query(view.table("resources")).where(Eq("project_id", project_id))

        def newest(candidates: Query) -> list[dict]:
            return (
                candidates.order_by("ts", descending=True)
                .join(project, on=("resource_id", "id"), prefix_left="post_")
                .join(
                    view.table("users"),
                    on=("post_tagger_id", "id"),
                    prefix_right="user_",
                    how="left",
                )
                .limit(count)
                .all()
            )

        window = project.count() // RESOURCES_PER_WALKED_POST
        recent = newest(Query(posts).limit(window))
        if len(recent) == count or len(posts) <= window:
            return recent
        # rank the project's own posts, then join each winner by its key
        own = Query(posts).where(In("resource_id", project.pks()))
        top = heapq.nsmallest(
            count,
            own.select(["id", "ts"]).all(),
            key=lambda post: (-post["ts"], post["id"]),
        )
        return [
            row for post in top for row in newest(Query(posts).where(Eq("id", post["id"])))
        ]
