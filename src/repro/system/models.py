"""Relational schemas of the iTag system (the MySQL DDL of Fig. 2).

Tables:

- ``users``       — providers and taggers with approval statistics
- ``projects``    — one provider campaign: budget, pay/task, strategy,
                    platform, lifecycle state
- ``resources``   — uploaded resources with live post counts/quality
- ``posts``       — approved posts (tag ids as a JSON array)
- ``tasks``       — the HIT audit trail (state, worker, timestamps)
- ``notifications`` — the Notification section feed (Fig. 6)
"""

from __future__ import annotations

from typing import Callable

from ..store import Column, Database, DataType, Schema

__all__ = ["build_system_database", "ensure_system_schema", "PROJECT_STATES"]

PROJECT_STATES = ("draft", "running", "paused", "completed", "stopped")


def build_system_database(name: str = "itag") -> Database:
    """A fresh in-memory database with all system tables and indexes."""
    return ensure_system_schema(Database(name))


def ensure_system_schema(database: Database) -> Database:
    """Create any system tables missing from ``database`` (idempotent).

    Used both for fresh in-memory databases and for databases recovered
    from a durability directory (``Database.open``), where some or all
    tables already exist via checkpoint/WAL-DDL replay — existing
    tables are left untouched, except that indexes added in later
    schema revisions are created on them (index DDL is journaled, so a
    recovered deployment converges to the current access paths).
    """
    for table_name, builder in _TABLE_BUILDERS.items():
        if not database.has_table(table_name):
            builder(database)
    # per-task notification kinds are the tagger read path's hottest
    # filter (session consistency sweeps count them per pass)
    notifications = database.table("notifications")
    if "kind" not in notifications.index_columns():
        notifications.create_index("kind", kind="hash")
    # Fig. 5's recent activity walks posts newest first
    posts = database.table("posts")
    if "ts" not in posts.index_columns():
        posts.create_index("ts", kind="sorted")
    return database


def _build_users(database: Database) -> None:
    database.create_table(
        "users",
        Schema(
            [
                Column("id", DataType.INT),
                Column("name", DataType.TEXT, unique=True),
                Column("role", DataType.TEXT),  # provider | tagger
                Column("approved", DataType.INT, default=0, has_default=True),
                Column("rejected", DataType.INT, default=0, has_default=True),
                Column("approval_rate", DataType.FLOAT, default=1.0, has_default=True),
            ],
            primary_key="id",
        ),
    )
    database.table("users").create_index("role", kind="hash")


def _build_projects(database: Database) -> None:
    database.create_table(
        "projects",
        Schema(
            [
                Column("id", DataType.INT),
                Column("provider_id", DataType.INT),
                Column("name", DataType.TEXT),
                Column("description", DataType.TEXT, default="", has_default=True),
                Column("kind", DataType.TEXT, default="url", has_default=True),
                Column("state", DataType.TEXT, default="draft", has_default=True),
                Column("strategy", DataType.TEXT, default="fp-mu", has_default=True),
                Column("platform", DataType.TEXT, default="mturk", has_default=True),
                Column("budget_total", DataType.INT, default=0, has_default=True),
                Column("budget_spent", DataType.INT, default=0, has_default=True),
                Column("pay_per_task", DataType.FLOAT, default=0.05, has_default=True),
                Column("avg_quality", DataType.FLOAT, default=0.0, has_default=True),
                Column("created_at", DataType.TIMESTAMP, default=0.0, has_default=True),
            ],
            primary_key="id",
        ),
    )
    database.table("projects").create_index("provider_id", kind="hash")
    database.table("projects").create_index("state", kind="hash")
    database.table("projects").create_index("avg_quality", kind="sorted")


def _build_resources(database: Database) -> None:
    database.create_table(
        "resources",
        Schema(
            [
                Column("id", DataType.INT),
                Column("project_id", DataType.INT),
                Column("name", DataType.TEXT),
                Column("kind", DataType.TEXT, default="url", has_default=True),
                Column("n_posts", DataType.INT, default=0, has_default=True),
                Column("quality", DataType.FLOAT, default=0.0, has_default=True),
                Column("promoted", DataType.BOOL, default=False, has_default=True),
                Column("stopped", DataType.BOOL, default=False, has_default=True),
            ],
            primary_key="id",
        ),
    )
    database.table("resources").create_index("project_id", kind="hash")
    database.table("resources").create_index("quality", kind="sorted")
    database.table("resources").create_index("n_posts", kind="sorted")


def _build_posts(database: Database) -> None:
    database.create_table(
        "posts",
        Schema(
            [
                Column("id", DataType.INT),
                Column("resource_id", DataType.INT),
                Column("tagger_id", DataType.INT),
                Column("tag_ids", DataType.JSON),
                Column("seq", DataType.INT),
                Column("ts", DataType.TIMESTAMP, default=0.0, has_default=True),
            ],
            primary_key="id",
        ),
    )
    database.table("posts").create_index("resource_id", kind="hash")
    database.table("posts").create_index("ts", kind="sorted")


def _build_tasks(database: Database) -> None:
    database.create_table(
        "tasks",
        Schema(
            [
                Column("id", DataType.INT),
                Column("project_id", DataType.INT),
                Column("resource_id", DataType.INT),
                Column("worker_id", DataType.INT, nullable=True),
                Column("state", DataType.TEXT),
                Column("pay", DataType.FLOAT),
                Column("submitted_at", DataType.TIMESTAMP, nullable=True),
                Column("resolved_at", DataType.TIMESTAMP, nullable=True),
            ],
            primary_key="id",
        ),
    )
    database.table("tasks").create_index("project_id", kind="hash")
    database.table("tasks").create_index("state", kind="hash")


def _build_notifications(database: Database) -> None:
    database.create_table(
        "notifications",
        Schema(
            [
                Column("id", DataType.INT),
                Column("recipient_id", DataType.INT),
                Column("kind", DataType.TEXT),
                Column("message", DataType.TEXT),
                Column("ts", DataType.TIMESTAMP, default=0.0, has_default=True),
                Column("read", DataType.BOOL, default=False, has_default=True),
            ],
            primary_key="id",
        ),
    )
    database.table("notifications").create_index("recipient_id", kind="hash")
    database.table("notifications").create_index("kind", kind="hash")


_TABLE_BUILDERS: dict[str, Callable[[Database], None]] = {
    "users": _build_users,
    "projects": _build_projects,
    "resources": _build_resources,
    "posts": _build_posts,
    "tasks": _build_tasks,
    "notifications": _build_notifications,
}
