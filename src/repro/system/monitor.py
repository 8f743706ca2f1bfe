"""Text renderings of the iTag UI screens (Figs. 3-8).

The original demo is a PHP web UI; every screen is a view over system
state, so we reproduce each as a formatted text report.  EXP-UI's
integration tests drive a campaign and assert these screens reflect the
documented operations (sort by quality, promote/stop, approve feed,
quality evolution, tagger project selection).
"""

from __future__ import annotations

from ..analysis.ascii_plot import line_plot
from ..analysis.tables import render_table
from .itag import ITagSystem

__all__ = [
    "main_provider_screen",
    "add_project_summary",
    "project_details_screen",
    "resource_details_screen",
    "tagger_projects_screen",
    "tagging_screen",
    "suggest_promotions",
    "suggest_stops",
]


def suggest_promotions(
    system: ITagSystem, project_id: int, count: int = 5
) -> list[dict]:
    """Resources the provider should consider promoting (lowest quality).

    Backs the Promote workflow of Fig. 3: "further decide to invest more
    on those of low quality".  Already-stopped resources are excluded.
    """
    rows = system.resources.active_of_project(project_id)
    rows.sort(key=lambda row: (row["quality"], row["n_posts"], row["id"]))
    return rows[:count]


def suggest_stops(
    system: ITagSystem, project_id: int, count: int = 5, *, min_quality: float = 0.9
) -> list[dict]:
    """Resources good enough to stop investing in (highest quality).

    Backs the Stop workflow: "stop investing certain resources of good
    tagging quality".  Only resources at or above ``min_quality`` are
    suggested.
    """
    rows = system.resources.stop_candidates(project_id, min_quality=min_quality)
    rows.sort(key=lambda row: (-row["quality"], -row["n_posts"], row["id"]))
    return rows[:count]


def main_provider_screen(system: ITagSystem, provider_id: int) -> str:
    """Fig. 3: the provider's project list, sorted by tagging quality."""
    provider = system.users.get(provider_id)
    rows = system.projects.of_provider_by_quality(provider_id)
    table_rows = [
        [
            row["id"],
            row["name"],
            row["kind"],
            row["state"],
            f"{row['budget_spent']}/{row['budget_total']}",
            f"{row['avg_quality']:.3f}",
            row["strategy"],
            row["platform"],
        ]
        for row in rows
    ]
    header = ["id", "project", "type", "state", "budget", "quality", "strategy", "platform"]
    lines = [
        f"=== iTag provider console — {provider['name']} ===",
        render_table(header, table_rows),
        "[Add Project]  [More Details <id>]  [Stop <id>]  [Add Budget <id>]",
    ]
    return "\n".join(lines)


def add_project_summary(system: ITagSystem, project_id: int) -> str:
    """Fig. 4: the Add Project dialog's confirmation view."""
    row = system.projects.get(project_id)
    resources = system.resources.of_project(project_id)
    return "\n".join(
        [
            "=== Add Project ===",
            f"name        : {row['name']}",
            f"type        : {row['kind']}",
            f"description : {row['description'] or '(none)'}",
            f"budget      : {row['budget_total']} tasks",
            f"pay/task    : {row['pay_per_task']:.3f}",
            f"platform    : {row['platform']}",
            f"strategy    : {row['strategy']} (recommended)",
            f"resources   : {len(resources)} uploaded",
        ]
    )


def project_details_screen(system: ITagSystem, project_id: int) -> str:
    """Fig. 5: quality-evolution chart + strategy/platform controls.

    "recent activity" lists the project's three newest posts, oldest
    first: newest means ``ts`` descending, and posts with equal ``ts``
    rank by ascending post id (see ``ResourceManager.recent_activity``).
    """
    row = system.projects.get(project_id)
    lines = [f"=== Project details — {row['name']} ==="]
    lines.append(
        f"state {row['state']} | strategy {row['strategy']} | "
        f"platform {row['platform']} | budget {row['budget_spent']}"
        f"/{row['budget_total']} | avg quality {row['avg_quality']:.3f}"
    )
    if system.quality.is_attached(project_id):
        trajectory = system.quality_history(project_id)
        if len(trajectory) >= 2:
            xs = [float(point[0]) for point in trajectory]
            ys = [point[1] for point in trajectory]
            lines.append("quality over budget:")
            lines.append(line_plot(xs, ys, width=60, height=10))
        gain = system.quality.projected_gain(project_id, 100)
        lines.append(f"projected gain of +100 tasks: {gain:+.4f}")
    # recent activity: the three newest posts (ts descending, ties by
    # ascending post id), read by a top-k join that stops after them
    # (ResourceManager.recent_activity), printed oldest first
    recent = system.resources.recent_activity(project_id, 3)
    if recent:
        lines.append("recent activity:")
        for row in reversed(recent):
            tagger = row["user_name"] or f"worker-{row['post_tagger_id']}"
            lines.append(f"  {tagger} tagged {row['name']}")
    lines.append("[Switch Strategy]  [Choose Platform]  [Pause]  [Stop]")
    return "\n".join(lines)


def resource_details_screen(
    system: ITagSystem, project_id: int, resource_id: int, *, top: int = 10
) -> str:
    """Fig. 6: per-resource tags, frequencies, quality, notifications."""
    resource_row = system.resources.get(resource_id)
    tag_manager = system.tag_manager_of(project_id)
    frequencies = tag_manager.top_tags(resource_id, top)
    lines = [f"=== Resource — {resource_row['name']} ({resource_row['kind']}) ==="]
    lines.append(
        f"posts {resource_row['n_posts']} | quality {resource_row['quality']:.3f} | "
        f"promoted {resource_row['promoted']} | stopped {resource_row['stopped']}"
    )
    if frequencies:
        lines.append(
            render_table(
                ["tag", "count"],
                [[tag, count] for tag, count in frequencies],
            )
        )
    else:
        lines.append("(no tags yet)")
    contributors = tag_manager.contributors(resource_id, count=5)
    if contributors:
        lines.append(
            "contributors: "
            + ", ".join(f"{name} ({posts})" for name, posts in contributors)
        )
    if system.quality.is_attached(project_id):
        history = system.quality.runtime(project_id).board.history_of(resource_id)
        if len(history) >= 2:
            lines.append("quality evolution (by posts):")
            lines.append(
                line_plot(
                    [float(point[0]) for point in history],
                    [point[1] for point in history],
                    width=50,
                    height=8,
                )
            )
    project_row = system.projects.get(project_id)
    feed = system.notifications.feed(project_row["provider_id"], limit=5)
    if feed:
        lines.append("notifications:")
        lines.extend(
            f"  [{row['kind']}] {row['message']}" for row in feed
        )
    lines.append("[Promote]  [Stop]  [Approve]  [Disapprove]")
    return "\n".join(lines)


def tagger_projects_screen(system: ITagSystem) -> str:
    """Fig. 7: the tagger's project-selection screen."""
    entries = system.open_projects()
    rows = [
        [
            entry["project_id"],
            entry["name"],
            entry["kind"],
            f"{entry['pay_per_task']:.3f}",
            entry["provider"],
            f"{entry['provider_approval_rate']:.2f}",
        ]
        for entry in entries
    ]
    header = ["id", "project", "type", "pay/task", "provider", "approval"]
    return "\n".join(
        [
            "=== Available tagging projects ===",
            render_table(header, rows),
            "[View in Detail <id>]",
        ]
    )


def tagging_screen(
    system: ITagSystem, project_id: int, resource_id: int, *, top: int = 8
) -> str:
    """Fig. 8: what a tagger sees when tagging one resource."""
    resource_row = system.resources.get(resource_id)
    tag_manager = system.tag_manager_of(project_id)
    current = tag_manager.top_tags(resource_id, top)
    lines = [
        f"=== Tagging — {resource_row['name']} ({resource_row['kind']}) ===",
        f"existing tags: {', '.join(tag for tag, _count in current) or '(none)'}",
        "[Add Tag]  [View my pending tags]  [History]",
    ]
    return "\n".join(lines)
