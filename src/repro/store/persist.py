"""Persistence helpers: atomic file writes, CSV export.

Writes are **atomic**: the payload goes to a temp file in the target
directory, is fsynced, and is moved over the destination with
``os.replace`` (plus a best-effort directory fsync).  A crash mid-write
therefore leaves the previous file intact instead of a truncated
half-written one — which is what makes persist-then-truncate
checkpointing safe (see ``Database.checkpoint``).
"""

from __future__ import annotations

import csv
import json
import os
from pathlib import Path
from typing import Any

from .database import Database
from .wal import fsync_directory as _fsync_directory

__all__ = [
    "export_table_csv",
    "write_text_atomic",
    "write_bytes_atomic",
]


def write_bytes_atomic(path: str | Path, payload: bytes) -> Path:
    """Write ``payload`` to ``path`` atomically (temp + ``os.replace``)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_directory(path.parent)
    return path


def write_text_atomic(path: str | Path, payload: str) -> Path:
    return write_bytes_atomic(path, payload.encode("utf-8"))


def export_table_csv(database: Database, table_name: str, path: str | Path) -> Path:
    """Export one table to CSV with a header row.

    JSON columns are serialized as compact JSON strings so the CSV stays
    one-value-per-cell.
    """
    table = database.table(table_name)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = table.schema.column_names
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in table.scan():
            writer.writerow([_cell(row[name]) for name in columns])
    return path


def _cell(value: Any) -> Any:
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    return value
