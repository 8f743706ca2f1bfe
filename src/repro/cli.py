"""Command-line interface: ``itag`` (or ``python -m repro``).

Subcommands::

    itag list-experiments
    itag run-experiment EXP-T1 [--fast] [--save out.json]
    itag generate-dataset --resources 300 --posts 3000 --seed 7 \\
        [--out corpus.json.gz] [--report]
    itag demo [--seed 11]
    itag store explain TABLE [--where "quality>=0.5" ...] \\
        [--order-by COL] [--descending] [--limit N] \\
        [--join TABLE --on LEFT=RIGHT [--how inner|left]]... [--rows N]
    itag store recover --dir STATE_DIR [--fsync POLICY]
    itag store checkpoint --dir STATE_DIR [--fsync POLICY] [--stats]
    itag store smoke [--readers N] [--writers N] [--tasks N] [--seed N] \\
        [--same-table]
    itag lint [PATH ...] [--rule ID]... [--baseline check|update|ignore] \\
        [--baseline-file PATH] [--format text|json] [--list-rules]
    itag version

``store explain`` prints the physical plan the cost-based planner picks
for a query over the system schema (populated with ``--rows`` synthetic
rows per table so index statistics are meaningful).  ``--join``/``--on``
repeat: each pair chains another relation onto the join graph, and the
printed tree shows the *planner-chosen* join order — the
``[join-order: ...]`` line names the order and search algorithm, and
``[plan-cache: ...]`` reports compiled-plan reuse.

``store recover`` opens a managed durability directory, reports what
crash recovery did (checkpoint loaded, committed records replayed, torn
tail discarded/repaired), and exits 0 when the recovered state passes
the store's consistency checks.  ``store checkpoint`` writes one
incremental checkpoint generation (manifest + per-table files, clean
tables reused), then prunes covered WAL segments; ``--stats`` prints
the rewritten/reused split, bytes, segment counts and timing.  ``store
smoke``
runs the concurrent-session driver (N writers vs N snapshot readers)
on a small synthetic campaign, reporting per-writer commit/abort/
deadlock-retry counters plus the lock manager's deadlock/victim/
timeout/escalation totals, and fails on any torn read.  With
``--same-table`` the writers instead increment disjoint rows of one
shared counter table — the per-row-locking hot path — and the run
additionally fails on any lost update.

``itag lint`` runs the engine invariant linter
(:mod:`repro.analysis.lint`) over the package source (or the given
paths) and exits 1 on any finding not covered by the committed baseline
— the same contract as ``scripts/lint_gate.py``, which CI runs before
the test suite.  ``--baseline update`` rewrites the baseline file to
accept the current findings; ``--format json`` emits the CI artifact.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .errors import ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="itag",
        description="Reproduction of 'iTag: Incentive-Based Tagging' (ICDE 2014)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("version", help="print the package version")

    subparsers.add_parser(
        "list-experiments", help="list reproducible tables/figures"
    )

    run_parser = subparsers.add_parser(
        "run-experiment", help="run one experiment and print its report"
    )
    run_parser.add_argument("experiment_id", help="e.g. EXP-T1 (see list-experiments)")
    run_parser.add_argument(
        "--fast", action="store_true", help="CI-sized variant (seconds, looser stats)"
    )
    run_parser.add_argument("--save", metavar="PATH", help="save the result as JSON")

    run_all_parser = subparsers.add_parser(
        "run-all", help="run every experiment, write reports + SUMMARY.md"
    )
    run_all_parser.add_argument("--fast", action="store_true")
    run_all_parser.add_argument("--out", metavar="DIR", help="report directory")
    run_all_parser.add_argument(
        "--only", nargs="+", metavar="EXP", help="subset of experiment ids"
    )

    dataset_parser = subparsers.add_parser(
        "generate-dataset", help="generate a Delicious-like corpus"
    )
    dataset_parser.add_argument("--resources", type=int, default=300)
    dataset_parser.add_argument("--posts", type=int, default=3000)
    dataset_parser.add_argument("--seed", type=int, default=0)
    dataset_parser.add_argument("--out", metavar="PATH", help="write corpus JSON(.gz)")
    dataset_parser.add_argument(
        "--report", action="store_true", help="print skew statistics"
    )

    demo_parser = subparsers.add_parser(
        "demo", help="run the scripted provider/tagger demo (Figs. 3-8)"
    )
    demo_parser.add_argument("--seed", type=int, default=11)

    store_parser = subparsers.add_parser(
        "store", help="embedded-store debugging tools"
    )
    store_sub = store_parser.add_subparsers(dest="store_command", required=True)
    explain_parser = store_sub.add_parser(
        "explain", help="print the physical plan for a query over the system schema"
    )
    explain_parser.add_argument("table", help="system table (e.g. resources, posts)")
    explain_parser.add_argument(
        "--where", action="append", default=[], metavar="EXPR",
        help="predicate like 'kind=url', 'quality>=0.5', 'name~needle' "
        "(repeatable; combined with AND)",
    )
    explain_parser.add_argument("--order-by", metavar="COL")
    explain_parser.add_argument("--descending", action="store_true")
    explain_parser.add_argument("--limit", type=int)
    explain_parser.add_argument("--offset", type=int, default=0)
    explain_parser.add_argument(
        "--join", action="append", default=[], metavar="TABLE",
        help="join with another system table (repeatable: each --join "
        "TABLE pairs with the --on at the same position and chains "
        "onto the join graph)",
    )
    explain_parser.add_argument(
        "--on", action="append", default=[], metavar="LEFT=RIGHT",
        help="join keys for the matching --join; LEFT is an output "
        "column (prefixed for chained joins), e.g. id=resource_id "
        "then posts_tagger_id=id",
    )
    explain_parser.add_argument(
        "--how", action="append", default=[], choices=("inner", "left"),
        help="join kind for the matching --join (default inner)",
    )
    explain_parser.add_argument(
        "--rows", type=int, default=500,
        help="synthetic rows per table backing the index statistics (default 500)",
    )

    def add_durability_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--dir", required=True, metavar="STATE_DIR",
            help="managed durability directory (checkpoints + wal.log)",
        )
        sub.add_argument(
            "--fsync", choices=("always", "interval", "never"), default="interval",
            help="group-commit fsync policy (default interval)",
        )

    recover_parser = store_sub.add_parser(
        "recover",
        help="crash-recover a durability directory and report what happened",
    )
    add_durability_flags(recover_parser)

    checkpoint_parser = store_sub.add_parser(
        "checkpoint",
        help="write a checkpoint generation and prune covered WAL segments",
    )
    add_durability_flags(checkpoint_parser)
    checkpoint_parser.add_argument(
        "--stats", action="store_true",
        help="print per-checkpoint stats (tables rewritten vs reused, "
        "bytes, wal segments dropped/live, timing)",
    )

    smoke_parser = store_sub.add_parser(
        "smoke",
        help="concurrent-session smoke: N writers vs N snapshot readers",
    )
    smoke_parser.add_argument("--readers", type=int, default=3)
    smoke_parser.add_argument("--writers", type=int, default=1)
    smoke_parser.add_argument("--tasks", type=int, default=40)
    smoke_parser.add_argument("--seed", type=int, default=7)
    smoke_parser.add_argument(
        "--same-table",
        action="store_true",
        help="writers increment disjoint rows of ONE shared table "
        "(per-row locking hot path) instead of running tagging tasks",
    )
    smoke_parser.add_argument(
        "--durable",
        action="store_true",
        help="journal the run to a temporary durability directory and "
        "report checkpoint timing plus WAL segment counts",
    )

    lint_parser = subparsers.add_parser(
        "lint",
        help="engine invariant linter (concurrency/copy/durability rules)",
    )
    lint_parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: the repro package)",
    )
    lint_parser.add_argument(
        "--rule", action="append", default=[], metavar="ID", dest="rules",
        help="run only this rule (repeatable; see --list-rules)",
    )
    lint_parser.add_argument(
        "--baseline", choices=("check", "update", "ignore"), default="check",
        help="check against the committed baseline (default), rewrite it "
        "to accept current findings, or ignore it",
    )
    lint_parser.add_argument(
        "--baseline-file", metavar="PATH",
        help="baseline location (default: lint_baseline.json at the repo root)",
    )
    lint_parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt",
        help="report format (json is the CI artifact)",
    )
    lint_parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule pack (id, invariant, scope) and exit",
    )
    return parser


def _cmd_version() -> int:
    print(f"repro {__version__}")
    return 0


def _cmd_list_experiments() -> int:
    from .experiments import list_experiments

    rows = list_experiments()
    width = max(len(row[0]) for row in rows)
    for experiment_id, title, artifact in rows:
        print(f"{experiment_id.ljust(width)}  {title}  [{artifact}]")
    return 0


def _cmd_run_experiment(args: argparse.Namespace) -> int:
    from .experiments import run_experiment

    result = run_experiment(args.experiment_id, fast=args.fast)
    print(result.to_text())
    if args.save:
        path = result.save(args.save)
        print(f"saved: {path}")
    return 0 if result.all_claims_pass else 1


def _cmd_run_all(args: argparse.Namespace) -> int:
    from .experiments.runner import run_all

    summary = run_all(fast=args.fast, out_dir=args.out, only=args.only)
    passed, total = summary.total_claims()
    for experiment_id in sorted(summary.results):
        result = summary.results[experiment_id]
        ok = sum(1 for claim in result.claims if claim.passed)
        print(
            f"{experiment_id:8s} {ok}/{len(result.claims)} claims  "
            f"({summary.elapsed_seconds[experiment_id]:.1f}s)  {result.title}"
        )
    for experiment_id, message in sorted(summary.errors.items()):
        print(f"{experiment_id:8s} ERROR: {message}")
    print(f"total: {passed}/{total} claims pass")
    if args.out:
        print(f"reports: {args.out}/SUMMARY.md")
    return 0 if summary.all_claims_pass else 1


def _cmd_generate_dataset(args: argparse.Namespace) -> int:
    from .datasets import dataset_report, make_delicious_like, save_corpus

    data = make_delicious_like(
        n_resources=args.resources,
        initial_posts_total=args.posts,
        master_seed=args.seed,
    )
    print(data.describe())
    if args.report:
        print(dataset_report(data.dataset.corpus))
    if args.out:
        path = save_corpus(data.dataset.corpus, args.out)
        print(f"saved: {path}")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from .experiments.harness import CampaignSpec
    from .experiments.system_screens import run as run_screens

    result = run_screens(
        CampaignSpec(
            n_resources=30,
            initial_posts_total=200,
            population_size=40,
            budget=150,
            seeds=(args.seed,),
        )
    )
    print(result.to_text())
    return 0 if result.all_claims_pass else 1


def _synthetic_value(column, position: int, total: int):
    """A deterministic value for one schema column of one synthetic row."""
    from .store import DataType

    if column.dtype is DataType.INT:
        return position % max(1, total // 10)
    if column.dtype is DataType.FLOAT:
        return (position % 100) / 100.0
    if column.dtype is DataType.BOOL:
        return position % 2 == 0
    if column.dtype is DataType.TIMESTAMP:
        return float(position)
    if column.dtype is DataType.JSON:
        return []
    if column.unique:
        return f"{column.name}-{position}"
    return f"{column.name}-{position % 7}"


def _populate_system_database(rows: int):
    """The system schema filled with ``rows`` synthetic rows per table,
    so ``store explain`` runs against meaningful index statistics."""
    from .system.models import build_system_database

    database = build_system_database("explain")
    for table_name in database.table_names():
        table = database.table(table_name)
        schema = table.schema
        for position in range(rows):
            row = {
                column.name: _synthetic_value(column, position, rows)
                for column in schema.columns
                if column.name != schema.primary_key
            }
            row[schema.primary_key] = position + 1
            table.insert(row)
    return database


_WHERE_OPS = ("<=", ">=", "!=", "~", "=", "<", ">")


def _parse_where(schema, expression: str):
    """One ``--where`` expression compiled to a predicate."""
    from .store import Contains, Eq, Ge, Gt, Le, Lt, Ne, QueryError

    for op in _WHERE_OPS:
        column, separator, raw = expression.partition(op)
        if separator:
            break
    else:
        raise QueryError(
            f"cannot parse --where {expression!r}; expected COL OP VALUE "
            f"with OP in {_WHERE_OPS}"
        )
    column = column.strip()
    if not schema.has_column(column):
        from .store import UnknownColumnError

        raise UnknownColumnError(f"--where references unknown column {column!r}")
    if op == "~":
        return Contains(column, raw.strip())
    value = _coerce_cli_value(schema.column(column), raw.strip())
    by_op = {"=": Eq, "!=": Ne, "<": Lt, "<=": Le, ">": Gt, ">=": Ge}
    return by_op[op](column, value)


def _coerce_cli_value(column, raw: str):
    from .store import DataType

    if raw.lower() in ("null", "none"):
        return None
    if column.dtype is DataType.INT:
        return int(raw)
    if column.dtype in (DataType.FLOAT, DataType.TIMESTAMP):
        return float(raw)
    if column.dtype is DataType.BOOL:
        return raw.lower() in ("1", "true", "yes")
    return raw


def _cmd_store_recover(args: argparse.Namespace) -> int:
    from .store import Database

    database = Database.open(args.dir, fsync=args.fsync)
    try:
        report = database.recovery
        print(report.describe())
        database.verify()
        rows = {
            name: len(database.table(name)) for name in database.table_names()
        }
        print(f"  tables: {rows if rows else 'none'}")
        print("  verify: ok")
    finally:
        database.close()
    return 0


def _cmd_store_checkpoint(args: argparse.Namespace) -> int:
    from .store import Database

    database = Database.open(args.dir, fsync=args.fsync)
    try:
        print(database.recovery.describe())
        records_before = len(database.wal)
        stats = database.checkpoint()
        print(
            f"checkpoint written: {database.last_checkpoint_path.name} "
            f"(wal records {records_before} -> {len(database.wal)})"
        )
        if args.stats:
            print(
                f"  generation {stats['generation']} (wal_lsn {stats['wal_lsn']})"
            )
            print(
                f"  tables: {stats['tables_rewritten']} rewritten, "
                f"{stats['tables_reused']} reused of {stats['tables_total']}"
            )
            print(
                f"  wal: {stats['wal_records_dropped']} records pruned, "
                f"{stats['wal_segments']} segment(s) live"
            )
            print(
                f"  wrote {stats['bytes_written']} bytes "
                f"in {stats['duration_s'] * 1000.0:.1f} ms"
            )
    finally:
        database.close()
    return 0


def _cmd_store_smoke(args: argparse.Namespace) -> int:
    import contextlib
    import tempfile
    from pathlib import Path

    from .datasets import make_delicious_like
    from .system import ITagSystem, SessionDriver

    data = make_delicious_like(
        n_resources=12,
        initial_posts_total=80,
        master_seed=args.seed,
        population_size=20,
    )
    with contextlib.ExitStack() as stack:
        system_args = {}
        if args.durable:
            tmp = stack.enter_context(tempfile.TemporaryDirectory())
            system_args["data_dir"] = Path(tmp) / "state"
        system = ITagSystem(master_seed=args.seed, **system_args)
        provider = system.register_provider("smoke-provider")
        project = system.create_project(provider, "smoke", budget=args.tasks * 3)
        system.upload_resources(project, data.provider_corpus)
        system.start_project(project, noise_model=data.dataset.noise_model)
        driver = SessionDriver(
            system,
            project,
            readers=args.readers,
            writer_tasks=args.tasks,
            writers=args.writers,
            same_table=args.same_table,
        )
        report = driver.run()
        if args.durable:
            system.database.close()
        print(report.describe())
        return 0 if report.consistent else 1


def _default_lint_root() -> "Path":
    from pathlib import Path

    return Path(__file__).resolve().parent


def _default_baseline_path() -> "Path":
    """``lint_baseline.json`` at the repo root of a src-layout checkout
    (``src/repro`` -> two levels up); callers may override."""
    from pathlib import Path

    return Path(__file__).resolve().parent.parent.parent / "lint_baseline.json"


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis.lint import (
        Baseline,
        all_rules,
        render_json,
        render_text,
        rule_ids,
        run_lint,
    )
    from .errors import ReproError

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}: {rule.summary}")
        return 0
    unknown = [rule for rule in args.rules if rule not in rule_ids()]
    if unknown:
        raise ReproError(
            f"unknown lint rule(s) {unknown}; have {rule_ids()}"
        )
    roots = args.paths or [_default_lint_root()]
    baseline_path = args.baseline_file or _default_baseline_path()
    baseline = (
        Baseline.load(baseline_path) if args.baseline != "ignore" else None
    )
    result = run_lint(roots, rule_ids=args.rules or None, baseline=baseline)
    if args.baseline == "update":
        updated = Baseline.from_findings(
            result.all_raw_findings(), previous=baseline
        )
        updated.save(baseline_path)
        print(
            f"baseline updated: {baseline_path} "
            f"({len(updated.entries)} entr{'y' if len(updated.entries) == 1 else 'ies'})"
        )
        return 0
    print(render_json(result) if args.fmt == "json" else render_text(result))
    return 0 if result.clean else 1


def _cmd_store(args: argparse.Namespace) -> int:
    if args.store_command == "recover":
        return _cmd_store_recover(args)
    if args.store_command == "checkpoint":
        return _cmd_store_checkpoint(args)
    if args.store_command == "smoke":
        return _cmd_store_smoke(args)
    return _cmd_store_explain(args)


def _cmd_store_explain(args: argparse.Namespace) -> int:
    from .store import Query, QueryError

    database = _populate_system_database(max(args.rows, 0))
    table = database.table(args.table)
    query = Query(table)
    for expression in args.where:
        query = query.where(_parse_where(table.schema, expression))
    if args.order_by:
        query = query.order_by(args.order_by, descending=args.descending)
    if (args.on or args.how) and not args.join:
        raise QueryError("--on/--how require a matching --join TABLE")
    if args.join:
        if len(args.on) != len(args.join):
            raise QueryError(
                f"--join needs one --on LEFT=RIGHT per join "
                f"(got {len(args.join)} join(s), {len(args.on)} --on)"
            )
        if args.how and len(args.how) != len(args.join):
            # argparse cannot see flag interleaving, so partial --how
            # lists pair by position — demand one per join instead of
            # silently guessing which join the user meant
            raise QueryError(
                f"--how must be given once per --join or not at all "
                f"(got {len(args.join)} join(s), {len(args.how)} --how)"
            )
        joined = None
        for position, (join_table, on) in enumerate(zip(args.join, args.on)):
            left_key, separator, right_key = on.partition("=")
            if not separator:
                raise QueryError(f"cannot parse --on {on!r}; expected LEFT=RIGHT")
            how = args.how[position] if position < len(args.how) else "inner"
            join_args = dict(
                on=(left_key.strip(), right_key.strip()),
                how=how,
                prefix_right=f"{join_table}_",
            )
            if joined is None:
                joined = query.join(database.table(join_table), **join_args)
            else:
                joined = joined.join(database.table(join_table), **join_args)
        if args.offset:
            joined = joined.offset(args.offset)
        if args.limit is not None:
            joined = joined.limit(args.limit)
        print(joined.explain())
        return 0
    if args.offset:
        query = query.offset(args.offset)
    if args.limit is not None:
        query = query.limit(args.limit)
    print(query.explain())
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "version":
            return _cmd_version()
        if args.command == "list-experiments":
            return _cmd_list_experiments()
        if args.command == "run-experiment":
            return _cmd_run_experiment(args)
        if args.command == "run-all":
            return _cmd_run_all(args)
        if args.command == "generate-dataset":
            return _cmd_generate_dataset(args)
        if args.command == "demo":
            return _cmd_demo(args)
        if args.command == "store":
            return _cmd_store(args)
        if args.command == "lint":
            return _cmd_lint(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    parser.error(f"unknown command {args.command!r}")
    return 2  # pragma: no cover - parser.error raises


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
