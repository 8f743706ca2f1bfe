"""The engine invariant rule pack.

Each rule machine-checks one load-bearing convention of the storage
engine (see docs/invariants.md for the contracts and their rationale):

``copy-discipline``
    Plan execution streams row *references*; the single copy happens at
    the public API boundary (docs/performance.md).  No copying inside
    ``store/plan.py`` execution iterators, and no mutation of rows
    obtained from a ref-yielding surface anywhere.
``lock-discipline``
    Table internals (``_rows``, ``_indexes``) are mutated only by the
    table/transaction/WAL-recovery machinery, and durability syscalls
    (``fsync``/``os.replace``) never run while an ``RWLock`` context is
    held in the same function (docs/durability.md).
``ddl-in-transaction``
    Table/index DDL autocommits its own WAL record and is rejected at
    runtime inside transactions; calling it lexically inside a
    ``with db.transaction():`` body is always a bug.
``except-hygiene``
    No bare ``except:`` and no silently-swallowed broad ``except
    Exception:`` in the engine and system layers.
``api-boundary``
    Public ``Query``/``JoinQuery`` methods never leak zero-copy row
    references; results route through ``_execute`` / ``iter_rows`` /
    fresh-dict construction.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .rules import Finding, Rule, register
from .walker import (
    Scope,
    SourceFile,
    attribute_base,
    call_name,
    shallow_walk,
    target_names,
)

__all__ = [
    "CopyDisciplineRule",
    "LockDisciplineRule",
    "DdlInTransactionRule",
    "ExceptHygieneRule",
    "ApiBoundaryRule",
]

#: Calls yielding streams of row references (zero-copy internal surface).
REF_STREAM_CALLS = frozenset(
    {"iter_rows_refs", "scan_refs", "refs_for_pks", "_iter_row_refs"}
)
#: Calls yielding a single row reference.
REF_SINGLE_CALLS = frozenset({"ref_or_none"})
#: dict methods that mutate the receiver in place.
DICT_MUTATORS = frozenset({"update", "pop", "popitem", "setdefault", "clear"})


def _is_ref_stream_call(node: ast.AST) -> bool:
    return call_name(node) in REF_STREAM_CALLS


def _comprehension_generators(node: ast.AST) -> list[ast.comprehension]:
    if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
        return list(node.generators)
    return []


class _RefBindings:
    """Names in one scope bound to row references or ref iterators.

    ``rows`` holds names that are row references (loop targets over a
    ref stream, results of ``ref_or_none``); ``iterators`` holds names
    bound to a ref stream itself.  A name lexically re-bound from a
    ``dict(...)``/``.copy()`` call is dropped from ``rows`` — copying
    first is exactly the sanctioned pattern.
    """

    def __init__(self, scope: Scope) -> None:
        self.rows: set[str] = set()
        self.iterators: set[str] = set()
        rebound: set[str] = set()
        for node in scope.walk():
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if self._is_ref_iter(node.iter):
                    self.rows.update(target_names(node.target))
            elif isinstance(node, ast.Assign):
                names = [
                    name
                    for target in node.targets
                    for name in target_names(target)
                ]
                if _is_ref_stream_call(node.value):
                    self.iterators.update(names)
                elif call_name(node.value) in REF_SINGLE_CALLS:
                    self.rows.update(names)
                elif call_name(node.value) in {"dict", "copy", "deepcopy"}:
                    rebound.update(names)
            for generator in _comprehension_generators(node):
                if self._is_ref_iter(generator.iter):
                    self.rows.update(target_names(generator.target))
        self.rows -= rebound

    def _is_ref_iter(self, node: ast.AST) -> bool:
        if _is_ref_stream_call(node):
            return True
        return isinstance(node, ast.Name) and node.id in self.iterators


def _row_mutations(
    scope: Scope, row_names: set[str]
) -> Iterator[tuple[int, str]]:
    """(line, description) for each in-place mutation of a row name."""
    for node in scope.walk():
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in row_names
                ):
                    yield node.lineno, f"item assignment on row ref {target.value.id!r}"
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in row_names
                ):
                    yield node.lineno, f"del on row ref {target.value.id!r}"
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in DICT_MUTATORS
                and isinstance(func.value, ast.Name)
                and func.value.id in row_names
            ):
                yield node.lineno, (
                    f".{func.attr}() on row ref {func.value.id!r}"
                )


@register
class CopyDisciplineRule(Rule):
    """Boundary-copy-exactly-once on the read path."""

    id = "copy-discipline"
    summary = (
        "plan execution iterators stream row references (no per-stage "
        "copies) and row refs are never mutated"
    )
    hint = (
        "copy once at the public boundary (Query._execute / "
        "Plan.iter_rows) or bind a fresh dict before mutating; see "
        "docs/performance.md 'Boundary-copy discipline'"
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        in_plan_module = source.relpath.endswith("store/plan.py")
        for scope in source.scopes():
            bindings = _RefBindings(scope)
            # (b) mutating a yielded row reference corrupts shared state
            for line, description in _row_mutations(scope, bindings.rows):
                yield self.finding(
                    source, line, f"{description} (rows from a ref-yielding "
                    "iterator are shared engine state)"
                )
            # (a) copies inside plan.py execution iterators defeat the
            # zero-copy pipeline
            if not (in_plan_module and scope.name == "iter_rows_refs"):
                continue
            for node in scope.walk():
                if not isinstance(node, ast.Call):
                    continue
                name = call_name(node)
                if name == "deepcopy":
                    yield self.finding(
                        source, node.lineno,
                        "deepcopy inside a plan execution iterator",
                    )
                elif (
                    name == "copy"
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in bindings.rows
                ):
                    yield self.finding(
                        source, node.lineno,
                        f".copy() on row ref {node.func.value.id!r} inside "
                        "a plan execution iterator",
                    )
                elif (
                    name == "dict"
                    and len(node.args) == 1
                    and not node.keywords
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id in bindings.rows
                ):
                    yield self.finding(
                        source, node.lineno,
                        f"dict() copy of row ref {node.args[0].id!r} inside "
                        "a plan execution iterator",
                    )


#: Files allowed to mutate table internals: the table itself, the
#: undo-log rollback path, and WAL recovery/replay.
_TABLE_INTERNALS_OWNERS = (
    "store/table.py",
    "store/transaction.py",
    "store/wal.py",
)
_TABLE_INTERNALS = frozenset({"_rows", "_indexes"})
#: The lock manager's two-level lock table and wait-for-graph state are
#: owned by store/lockmgr.py alone: every mutation happens under its
#: condition mutex, and a foreign write would corrupt deadlock
#: detection (a phantom edge or a leaked holder wedges every later
#: waiter) or desynchronize the O(1) row-lock counters that escalation
#: and verify() rely on.
_LOCKMGR_INTERNALS_OWNER = "store/lockmgr.py"
_LOCKMGR_INTERNALS = frozenset(
    {
        "_holders",
        "_waiting",
        "_victims",
        "_row_holders",
        "_owner_row_pks",
        "_row_owner_counts",
        "_row_x_counts",
    }
)
#: Calls that hit the disk durability path (directly or via the atomic
#: write helpers, which fsync + os.replace internally).
_DURABILITY_CALLS = frozenset(
    {
        "fsync",
        "replace",
        "fsync_directory",
        "write_text_atomic",
        "write_bytes_atomic",
    }
)


def _internals_attribute(
    node: ast.AST, internals: frozenset[str] = _TABLE_INTERNALS
) -> ast.Attribute | None:
    """``x._rows`` / ``x._indexes`` attribute node, unwrapping any
    subscript nesting (``x._rows[pk]``, ``x._row_holders[table][pk]``
    — the lock manager's two-level maps take two subscripts)."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr in internals:
        return node
    return None


@register
class LockDisciplineRule(Rule):
    """Lock-then-mutate on tables; no fsync under an RWLock."""

    id = "lock-discipline"
    summary = (
        "table internals are mutated only by table/transaction/WAL "
        "machinery, lock-manager state only by store/lockmgr.py, and "
        "durability syscalls never run under an RWLock"
    )
    hint = (
        "route mutations through Table's public methods (they take the "
        "write lock) and lock state through LockManager's acquire/"
        "release_all, and stage durable writes outside lock scopes as "
        "group commit does; see docs/durability.md"
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        table_protected = not any(
            source.relpath.endswith(owner) for owner in _TABLE_INTERNALS_OWNERS
        )
        lockmgr_protected = not source.relpath.endswith(
            _LOCKMGR_INTERNALS_OWNER
        )
        for scope in source.scopes():
            if table_protected:
                yield from self._internal_mutations(
                    source, scope, _TABLE_INTERNALS,
                    "the table/transaction/WAL machinery",
                )
            if lockmgr_protected:
                yield from self._internal_mutations(
                    source, scope, _LOCKMGR_INTERNALS,
                    "the lock manager (store/lockmgr.py)",
                )
            yield from self._fsync_under_lock(source, scope)

    def _internal_mutations(
        self,
        source: SourceFile,
        scope: Scope,
        internals: frozenset[str],
        owner_label: str,
    ) -> Iterator[Finding]:
        for node in scope.walk():
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    attribute = _internals_attribute(target, internals)
                    if attribute is None:
                        continue
                    # a class initializing ITS OWN storage attribute
                    # (e.g. ReadView.__init__) is not touching a Table
                    if (
                        scope.name == "__init__"
                        and attribute_base(attribute) == "self"
                        and isinstance(target, ast.Attribute)
                    ):
                        continue
                    yield self.finding(
                        source, node.lineno,
                        f"assignment into .{attribute.attr} outside "
                        f"{owner_label}",
                    )
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    attribute = _internals_attribute(target, internals)
                    if attribute is not None:
                        yield self.finding(
                            source, node.lineno,
                            f"del on .{attribute.attr} outside "
                            f"{owner_label}",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in DICT_MUTATORS | {"add", "remove", "discard"}
                ):
                    attribute = _internals_attribute(func.value, internals)
                    if attribute is not None:
                        yield self.finding(
                            source, node.lineno,
                            f".{attribute.attr}.{func.attr}() outside "
                            f"{owner_label}",
                        )

    def _fsync_under_lock(
        self, source: SourceFile, scope: Scope
    ) -> Iterator[Finding]:
        for node in scope.walk():
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            holds_rwlock = any(
                call_name(item.context_expr) in {"read_locked", "write_locked"}
                for item in node.items
            )
            if not holds_rwlock:
                continue
            for child in node.body:
                for inner in ast.walk(child):
                    name = call_name(inner)
                    if name in _DURABILITY_CALLS:
                        yield self.finding(
                            source, inner.lineno,
                            f"{name}() while an RWLock context is held "
                            "(durability I/O under a lock serializes "
                            "readers behind the disk)",
                        )


@register
class DdlInTransactionRule(Rule):
    """DDL autocommits; inside a transaction body it journals out of
    order with the commit record (and is rejected at runtime)."""

    id = "ddl-in-transaction"
    summary = "no create_table/create_index/drop_* inside a transaction body"
    hint = (
        "run DDL before opening the transaction (the runtime raises "
        "TransactionError for table DDL here); see docs/durability.md "
        "'Transactions'"
    )

    _DDL_CALLS = frozenset(
        {"create_table", "create_index", "drop_table", "drop_index"}
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        if source.tree is None:
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            in_transaction = any(
                call_name(item.context_expr) == "transaction"
                for item in node.items
            )
            if not in_transaction:
                continue
            for child in node.body:
                for inner in ast.walk(child):
                    name = call_name(inner)
                    if isinstance(inner, ast.Call) and name in self._DDL_CALLS:
                        yield self.finding(
                            source, inner.lineno,
                            f"{name}() lexically inside a transaction body",
                        )


@register
class ExceptHygieneRule(Rule):
    """No bare excepts; broad catches must re-raise or be justified."""

    id = "except-hygiene"
    summary = (
        "no bare 'except:' and no broad 'except Exception:' that "
        "swallows without re-raising in the engine/system layers"
    )
    hint = (
        "narrow the exception type, re-raise, or suppress inline with a "
        "comment explaining why swallowing is intentional"
    )

    def applies_to(self, relpath: str) -> bool:
        parts = relpath.split("/")
        return (
            "store" in parts
            or "system" in parts
            or parts[-1] == "store_ops.py"
        )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        if source.tree is None:
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    source, node.lineno,
                    "bare 'except:' (catches SystemExit/KeyboardInterrupt)",
                )
                continue
            caught = self._caught_names(node.type)
            broad = caught & {"Exception", "BaseException"}
            if not broad:
                continue
            if any(isinstance(sub, ast.Raise) for sub in ast.walk(node)):
                continue
            only_pass = all(
                isinstance(statement, ast.Pass)
                or (
                    isinstance(statement, ast.Expr)
                    and isinstance(statement.value, ast.Constant)
                )
                for statement in node.body
            )
            what = "swallowed by 'pass'" if only_pass else "never re-raised"
            yield self.finding(
                source, node.lineno,
                f"broad 'except {'/'.join(sorted(broad))}' {what}",
            )

    @staticmethod
    def _caught_names(node: ast.AST) -> set[str]:
        names = set()
        candidates = node.elts if isinstance(node, ast.Tuple) else [node]
        for candidate in candidates:
            if isinstance(candidate, ast.Name):
                names.add(candidate.id)
            elif isinstance(candidate, ast.Attribute):
                names.add(candidate.attr)
        return names


@register
class ApiBoundaryRule(Rule):
    """Public query methods never leak zero-copy row references."""

    id = "api-boundary"
    summary = (
        "public Query/JoinQuery methods route rows through the single "
        "copy point, never returning/yielding raw references"
    )
    hint = (
        "return through _execute()/iter_rows() (which copy exactly "
        "once) or project into fresh dicts; raw refs alias live engine "
        "state"
    )

    _QUERY_CLASSES = frozenset({"Query", "JoinQuery"})

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for scope in source.scopes():
            if scope.class_name not in self._QUERY_CLASSES:
                continue
            if scope.name.startswith("_") and scope.name != "__iter__":
                continue
            bindings = _RefBindings(scope)
            yield from self._leaks(source, scope, bindings)

    def _leaks(
        self, source: SourceFile, scope: Scope, bindings: _RefBindings
    ) -> Iterator[Finding]:
        for node in scope.walk():
            if isinstance(node, ast.Return) and node.value is not None:
                if self._is_ref_stream(node.value, bindings):
                    yield self.finding(
                        source, node.lineno,
                        f"public method {scope.name}() returns a raw row-ref "
                        "stream",
                    )
                elif self._is_ref_element_comp(node.value, bindings):
                    yield self.finding(
                        source, node.lineno,
                        f"public method {scope.name}() returns row refs "
                        "unprojected from a comprehension",
                    )
            elif isinstance(node, ast.Expr) and isinstance(
                node.value, (ast.Yield, ast.YieldFrom)
            ):
                inner = node.value
                if isinstance(inner, ast.YieldFrom) and self._is_ref_stream(
                    inner.value, bindings
                ):
                    yield self.finding(
                        source, node.lineno,
                        f"public method {scope.name}() yields from a raw "
                        "row-ref stream",
                    )
                elif (
                    isinstance(inner, ast.Yield)
                    and isinstance(inner.value, ast.Name)
                    and inner.value.id in bindings.rows
                ):
                    yield self.finding(
                        source, node.lineno,
                        f"public method {scope.name}() yields row ref "
                        f"{inner.value.id!r}",
                    )

    def _is_ref_stream(self, node: ast.AST, bindings: _RefBindings) -> bool:
        """The expression evaluates to a stream of raw row refs."""
        if _is_ref_stream_call(node):
            return True
        if isinstance(node, ast.Name) and node.id in bindings.iterators:
            return True
        if (
            isinstance(node, ast.Call)
            and call_name(node) in {"list", "tuple", "iter", "sorted"}
            and len(node.args) == 1
            and self._is_ref_stream(node.args[0], bindings)
        ):
            return True
        return False

    def _is_ref_element_comp(
        self, node: ast.AST, bindings: _RefBindings
    ) -> bool:
        """A comprehension whose element is the bare row-ref target,
        e.g. ``[row for row in self._iter_row_refs()]``."""
        generators = _comprehension_generators(node)
        if not generators:
            return False
        element = getattr(node, "elt", None)
        if not isinstance(element, ast.Name):
            return False
        source_generators = [
            generator
            for generator in generators
            if _is_ref_stream_call(generator.iter)
            or (
                isinstance(generator.iter, ast.Name)
                and generator.iter.id in bindings.iterators
            )
        ]
        for generator in source_generators:
            if element.id in set(target_names(generator.target)):
                return True
        return False
