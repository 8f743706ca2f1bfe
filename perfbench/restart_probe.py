"""Restart probe: reopen a copy of a deployment's data directory in a
fresh process, as a real restart would, try to resume the project
there, and report what it found.

Started by ``workloads.Run`` with one JSON argument (``src``, ``dir``,
``seed``, ``fsync``, ``project``, ``trace``); prints one JSON object.
A fresh process keeps the benchmark's own heap (the live deployment,
the corpus) out of the reopen's garbage collections.  Two
calibration slices are taken right before and two right after the
reopen, in this process, and returned with its raw time.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    args = json.loads(sys.argv[1])
    sys.path.insert(0, args["src"])
    from repro.errors import ProjectError
    from repro.store import ConstraintError, Database, Eq, Query
    from repro.system import ITagSystem

    from calib import Calibrator

    calibrator = Calibrator()
    calibrator.take()
    calibrator.take()
    opened: list[float] = []
    if args["trace"]:
        open_database = Database.__dict__["open"].__func__

        def timed_open(cls, *positional, **keywords):
            started = time.perf_counter()
            database = open_database(cls, *positional, **keywords)
            opened.append(time.perf_counter() - started)
            return database

        Database.open = classmethod(timed_open)
    started = time.perf_counter()
    system = ITagSystem(master_seed=args["seed"], data_dir=args["dir"], fsync=args["fsync"])
    seconds = time.perf_counter() - started
    calibrator.take()
    calibrator.take()
    database = system.database
    notes = database.table("notifications")
    result = {
        "seconds": seconds,
        "slices": calibrator.slices,
        "open_seconds": sum(opened),
        "records": database.recovery.records_replayed,
        "budget_spent": system.projects.get(args["project"])["budget_spent"],
        "post_rows": Query(database.table("posts")).count(),
        "n_posts_sum": Query(database.table("resources")).aggregate("n_posts", "sum"),
        "approved_notes": Query(notes).where(Eq("kind", "post_approved")).count(),
        "rejected_notes": Query(notes).where(Eq("kind", "post_rejected")).count(),
        "verify": None,
        "resumed": None,
    }
    try:
        database.verify()
    except ConstraintError as exc:
        result["verify"] = str(exc)
    try:
        system.run_project(args["project"], tasks=1)
        result["resumed"] = True
    except ProjectError:
        result["resumed"] = False
    system.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
