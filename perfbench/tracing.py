"""Timing proxies installed from outside the program (``--trace 1``).

A :class:`Tracer` replaces public entry points of each layer with thin
wrappers that add their wall time (or just their call count) to
per-key totals, and restores the originals on :meth:`uninstall`.
Nothing here runs in an untraced run.
"""

from __future__ import annotations

import os
import threading
import time
from collections import defaultdict

__all__ = ["Tracer"]


class Tracer:
    """Per-key raw seconds and call counts of the wrapped entry points."""

    def __init__(self, strategy_class: type) -> None:
        self._strategy_class = strategy_class
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.amounts: dict[str, float] = defaultdict(float)

    # ------------------------------------------------------------------

    def drain(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """Return and reset the totals gathered since the last drain."""
        with self._lock:
            drained = (dict(self.seconds), dict(self.calls), dict(self.amounts))
            self.seconds.clear()
            self.calls.clear()
            self.amounts.clear()
        return drained

    def _add(self, key: str, seconds: float, amount: float = 0.0) -> None:
        """Add one call's time and amount to ``key``'s totals."""
        with self._lock:
            self.seconds[key] += seconds
            self.calls[key] += 1
            self.amounts[key] += amount

    def _patch(self, owner: object, name: str, replacement: object) -> None:
        # a class keeps the raw descriptor (classmethod, function) so
        # uninstall restores exactly what was there
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def _timed(self, key: str, function, amount=None):
        add = self._add

        def proxy(*args, **kwargs):
            started = time.perf_counter()
            result = function(*args, **kwargs)
            add(key, time.perf_counter() - started, amount(result) if amount else 0.0)
            return result

        return proxy

    # ------------------------------------------------------------------

    def install(self, mode: str) -> None:
        """``mode="time"`` times every layer; ``mode="count"`` only counts
        ``QualityBoard.quality_of`` calls, whose per-call proxy cost
        would otherwise swamp the timings it is nested in."""
        from repro.crowd.platform import CrowdPlatform
        from repro.quality.estimator import QualityBoard
        from repro.store.transaction import Transaction
        from repro.system import ITagSystem, monitor
        from repro.system.resource_manager import ResourceManager

        if mode == "count":
            quality_of = QualityBoard.quality_of
            calls = self.calls

            # quality_of only runs under ITagSystem's task mutex, so the
            # unlocked increment cannot race
            def counted(board, resource_id):
                calls["quality_of"] += 1
                return quality_of(board, resource_id)

            self._patch(QualityBoard, "quality_of", counted)
            return

        timed = self._timed
        self._patch(
            self._strategy_class, "choose",
            timed("choose", self._strategy_class.choose),
        )
        self._patch(
            QualityBoard, "average_quality", timed("average", QualityBoard.average_quality)
        )
        self._patch(QualityBoard, "observe", timed("observe", QualityBoard.observe))
        self._patch(CrowdPlatform, "execute", timed("execute", CrowdPlatform.execute))
        self._patch(os, "fsync", timed("fsync", os.fsync))
        self._patch(
            ITagSystem, "checkpoint",
            timed(
                "checkpoint", ITagSystem.checkpoint,
                lambda stats: float(stats.get("bytes_written", 0)),
            ),
        )
        self._patch(ITagSystem, "open_projects", timed("open_projects", ITagSystem.open_projects))
        self._patch(ITagSystem, "read_view", timed("capture", ITagSystem.read_view))
        self._patch(
            ResourceManager, "project_posts_with_taggers",
            timed(
                "activity", ResourceManager.project_posts_with_taggers,
                lambda rows: float(len(rows)),
            ),
        )
        for key, name in (
            ("fig3", "main_provider_screen"),
            ("fig5", "project_details_screen"),
            ("fig6", "resource_details_screen"),
            ("fig7", "tagger_projects_screen"),
            ("fig8", "tagging_screen"),
        ):
            self._patch(monitor, name, timed(key, getattr(monitor, name)))

        enter = Transaction.__enter__
        exit_ = Transaction.__exit__
        local = self._local

        def enter_proxy(transaction):
            result = enter(transaction)
            local.body_started = time.perf_counter()
            return result

        def exit_proxy(transaction, exc_type, exc, tb):
            started = time.perf_counter()
            self._add("txn_body", started - local.body_started)
            try:
                return exit_(transaction, exc_type, exc, tb)
            finally:
                self._add("commit", time.perf_counter() - started)

        self._patch(Transaction, "__enter__", enter_proxy)
        self._patch(Transaction, "__exit__", exit_proxy)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
