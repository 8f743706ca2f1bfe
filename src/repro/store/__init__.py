"""Embedded relational store — the MySQL substitute for the iTag system.

Public surface::

    from repro.store import Database, Schema, Column, DataType, Query, Eq

    db = Database("itag")
    db.create_table("resources", Schema([
        Column("id", DataType.INT),
        Column("name", DataType.TEXT, unique=True),
        Column("quality", DataType.FLOAT, nullable=True),
    ], primary_key="id"))
"""

from .database import CHECKPOINT_KEEP, Database, RecoveryReport
from .errors import (
    ConstraintError,
    DeadlockError,
    DuplicateKeyError,
    QueryError,
    RowNotFoundError,
    SchemaError,
    StoreError,
    TransactionError,
    UnknownColumnError,
    UnknownTableError,
    WalError,
)
from .index import (
    HashIndex,
    HashIndexSnapshot,
    SortedIndex,
    SortedIndexSnapshot,
)
from .joinorder import JoinEdge, JoinGraph, Relation, plan_join_graph
from .locking import ActivityBarrier, RWLock
from .lockmgr import (
    DEFAULT_LOCK_TIMEOUT,
    LOCK_EXCLUSIVE,
    LOCK_SHARED,
    LockManager,
)
from .persist import export_table_csv, write_bytes_atomic, write_text_atomic
from .plan import (
    Empty,
    Filter,
    FullScan,
    HashJoin,
    HashLookup,
    IndexIn,
    IndexNestedLoopJoin,
    Intersect,
    OrderedScan,
    PkLookup,
    Plan,
    RebindError,
    Sort,
    SortedRange,
    TopK,
    Union,
)
from .plancache import PlanCache
from .query import (
    And,
    Between,
    Contains,
    Eq,
    Ge,
    Gt,
    In,
    JoinQuery,
    Le,
    Lt,
    Ne,
    Not,
    Or,
    Predicate,
    Query,
    TruePredicate,
)
from .schema import Column, Schema
from .stats import EquiWidthHistogram, MostCommonValues
from .table import Table
from .transaction import Transaction
from .types import DataType
from .views import DatabaseView, ReadView
from .wal import (
    DEFAULT_SEGMENT_BYTES,
    FSYNC_POLICIES,
    WalRecord,
    WriteAheadLog,
)

__all__ = [
    "Database", "Table", "Schema", "Column", "DataType", "Transaction",
    "WriteAheadLog", "WalRecord", "FSYNC_POLICIES", "DEFAULT_SEGMENT_BYTES",
    "RecoveryReport",
    "CHECKPOINT_KEEP", "ReadView", "DatabaseView", "RWLock",
    "ActivityBarrier", "LockManager", "LOCK_SHARED", "LOCK_EXCLUSIVE",
    "DEFAULT_LOCK_TIMEOUT",
    "write_text_atomic", "write_bytes_atomic",
    "Query", "JoinQuery", "Predicate", "TruePredicate",
    "Eq", "Ne", "Lt", "Le", "Gt", "Ge", "In", "Between", "Contains",
    "And", "Or", "Not",
    "Plan", "FullScan", "Empty", "PkLookup", "HashLookup", "IndexIn",
    "SortedRange", "OrderedScan", "TopK", "Intersect", "Union", "Filter",
    "Sort", "HashJoin", "IndexNestedLoopJoin",
    "PlanCache", "RebindError",
    "JoinGraph", "JoinEdge", "Relation", "plan_join_graph",
    "HashIndex", "SortedIndex", "HashIndexSnapshot", "SortedIndexSnapshot",
    "EquiWidthHistogram", "MostCommonValues",
    "export_table_csv",
    "StoreError", "SchemaError", "ConstraintError", "DuplicateKeyError",
    "RowNotFoundError", "UnknownTableError", "UnknownColumnError",
    "TransactionError", "DeadlockError", "QueryError", "WalError",
]
