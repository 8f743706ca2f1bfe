"""Multi-way join ordering: a join graph compiled to the cheapest
left-deep plan.

``Query.join(...).join(...)`` does not nest binary plans in whatever
order the caller wrote them.  It accumulates a :class:`JoinGraph` —
relations, equi-join edges, pushed-down per-relation predicates — and
this module picks the join *order* and one physical operator per step.

One candidate generator prices every way to fold a relation into a
partial plan: an index nested-loop join, or a hash join built on
either input.  Two order strategies fold relations in with it:

* **DP over subsets** (≤ :data:`MAX_DP_RELATIONS` reorderable
  relations): dynamic programming on connected relation subsets, each
  subset's plan extending a smaller subset's plan by one relation.
* **Written order**: the caller-written order, with only the operator
  per step chosen.  It serves graphs whose order is pinned — output
  column names that collide across relations (reordering would change
  which relation wins the collision), an inner edge that references
  the null-supplying side of a left-outer join, or more reorderable
  relations than the DP cutoff — and appends the left-outer tail
  after the DP has ordered the inner core.

Cost model.  Cardinalities come from the same statistics the
single-table planner uses — access-plan estimates (index
cardinalities, histogram/MCV-backed selectivity) for per-relation
inputs, and ``|L| · |R| / max(ndv(L.k), ndv(R.k))`` for join output
(``ndv`` from the maintained per-index distinct counters, ``√rows``
when unindexed).  Operator costs:

* index nested-loop: ``card(probe) · (1 + avg matches per probe)``,
* hash: ``card(probe) + HASH_BUILD_FACTOR · card(build)`` — building
  a bucket table costs more per row than streaming through one, so the
  cheaper build is always over the smaller input.

LIMIT costing.  An ordered graph whose query caps its output
(``limit`` + ``offset``) reads only the first rows of the join, so
each candidate also carries a *startup* cost — what it spends before
its first row: the hash builds under it and a ``Sort`` root — and
candidates are ranked by ``startup + (total − startup) · min(1,
cap / card)`` (PostgreSQL's LIMIT costing).  A top-k over an order
index then probes row by row instead of hashing a whole input it will
barely read.  Graphs without a cap are ranked by total cost.  The rule
assumes the surviving rows are spread evenly along the root's order;
a caller that cannot rely on that bounds the walk with a root window
(an ordered root query with a ``limit`` of its own, see ``JoinQuery``).

Ordering contracts.  A root query with ``order_by`` pins relation 0
first and restricts every step to order-preserving operators (index
nested-loop, hash with the build on the right).  A hash join built on
the partial plan streams the new relation instead, so its rows follow
that relation's order.  Left-outer (null-supplying) relations are
never reordered across their preserved side: the inner core is
ordered freely, then outer relations are appended in written order.

The entry point is :func:`plan_join_graph`; :mod:`repro.store.query`
owns the fluent API and the join plan cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Any, Callable, Iterable

from .errors import QueryError
from .plan import Filter, HashJoin, IndexNestedLoopJoin, Limit, Plan, Sort

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .query import Predicate

__all__ = [
    "JoinGraph", "Relation", "JoinEdge", "plan_join_graph",
    "MAX_DP_RELATIONS", "HASH_BUILD_FACTOR",
]

#: DP over subsets up to this many reorderable relations; written
#: order above.
MAX_DP_RELATIONS = 6

#: Building a hash table costs this much more per row than probing it.
HASH_BUILD_FACTOR = 1.25


@dataclass
class Relation:
    """One relation of a join graph.

    ``predicate`` is the *effective* pushed-down predicate (the
    relation input's own WHERE plus any single-relation conjuncts
    pushed out of the join-level filter), with raw column names.
    """

    position: int
    table: Any  # Table or ReadView (duck-typed planner surface)
    predicate: "Predicate | None"
    prefix: str
    outer: bool = False  # null-supplying side of a left-outer edge

    def output_columns(self) -> list[str]:
        return [f"{self.prefix}{name}" for name in self.table.schema.column_names]


@dataclass
class JoinEdge:
    """One equi-join edge; ``right`` is the relation the edge added."""

    left: int
    left_column: str
    right: int
    right_column: str
    how: str = "inner"


class JoinGraph:
    """Relations + equi-join edges, as accumulated by ``JoinQuery``."""

    def __init__(
        self,
        relations: list[Relation],
        edges: list[JoinEdge],
        *,
        ordered: bool = False,
    ) -> None:
        self.relations = relations
        self.edges = edges
        #: the root query has an ``order_by``, which pins relation 0
        #: first and every step to order-preserving operators
        self.ordered = ordered

    # ------------------------------------------------------------------

    def has_column_collisions(self) -> bool:
        """True when two relations produce the same output column name
        (reordering would change which relation wins the collision)."""
        seen: set[str] = set()
        for relation in self.relations:
            for name in relation.output_columns():
                if name in seen:
                    return True
                seen.add(name)
        return False

    def inner_edge_touches_outer(self) -> bool:
        """True when an inner edge references a null-supplying relation
        (its key columns may be NULL-padded, so it cannot be reordered
        ahead of the padding join)."""
        for edge in self.edges:
            if edge.how != "inner":
                continue
            if self.relations[edge.left].outer or self.relations[edge.right].outer:
                return True
        return False

    def edge_between(self, position: int, joined: frozenset) -> JoinEdge | None:
        """The inner edge connecting ``position`` to the joined set."""
        for edge in self.edges:
            if edge.how != "inner":
                continue
            if edge.right == position and edge.left in joined:
                return edge
            if edge.left == position and edge.right in joined:
                return edge
        return None

    def outer_edge_of(self, position: int) -> JoinEdge:
        for edge in self.edges:
            if edge.how == "left" and edge.right == position:
                return edge
        raise QueryError(f"relation {position} has no left-outer edge")


# ----------------------------------------------------------------------
# cost / statistics helpers
# ----------------------------------------------------------------------


def _access_cost(plan: Plan) -> float:
    """Rows a single-relation access plan touches (its input cost) —
    a residual Filter/Sort, or a root window over a sort, costs what
    its child streams, not what survives."""
    if isinstance(plan, (Filter, Sort, Limit)):
        return _access_cost(plan.child)
    return max(plan.estimate(), 0.0)


def _access_startup(plan: Plan, cost: float) -> float:
    """What an access plan spends before its first row: all of it for
    an in-memory sort (windowed or not), nothing for a stream."""
    if isinstance(plan, Limit):
        plan = plan.child
    return cost if isinstance(plan, Sort) else 0.0


def _ndv(relation: Relation, column: str) -> float:
    """Distinct-value estimate for one relation column: exact for
    primary keys and indexed columns (maintained counters), √rows
    otherwise (the classic guess for an unknown key column)."""
    table = relation.table
    rows = len(table)
    if rows == 0:
        return 1.0
    if column == table.schema.primary_key:
        return float(rows)
    index = table.index_for(column)
    if index is not None:
        return float(max(index.n_distinct(), 1))
    return max(float(rows) ** 0.5, 1.0)


def _join_cardinality(
    left_card: float,
    right_card: float,
    ndv_left: float,
    ndv_right: float,
    how: str,
) -> float:
    card = left_card * right_card / max(ndv_left, ndv_right, 1.0)
    if how == "left":
        card = max(card, left_card)
    return card


# ----------------------------------------------------------------------
# candidates
# ----------------------------------------------------------------------


@dataclass
class _Candidate:
    """One partial join plan over a relation subset."""

    cost: float
    card: float
    plan: Plan
    order: tuple[int, ...]  # join sequence, for explain
    #: the part of ``cost`` spent before the first row comes out
    startup: float

    def key_for(self, graph: JoinGraph, position: int, column: str) -> str:
        """The name ``column`` of relation ``position`` carries in this
        candidate's output rows (joined rows carry prefixed names)."""
        if len(self.order) > 1:
            return f"{graph.relations[position].prefix}{column}"
        return column

    def prefix(self, graph: JoinGraph) -> str:
        """The rename this candidate's rows still need (none once the
        rows are combined)."""
        if len(self.order) > 1:
            return ""
        return graph.relations[self.order[0]].prefix


def _oriented(edge: JoinEdge, new_position: int) -> tuple[int, str, str]:
    """(existing relation, its column, new relation's column)."""
    if edge.right == new_position:
        return edge.left, edge.left_column, edge.right_column
    return edge.right, edge.right_column, edge.left_column


def _extension_candidates(
    graph: JoinGraph,
    base: _Candidate,
    addition: _Candidate,
    edge: JoinEdge,
) -> "Iterable[_Candidate]":
    """Every physical way to fold one relation into a partial plan.

    ``addition`` must be a single-relation candidate.  Yields in
    preference order — ties in cost keep the first yielded (index
    nested-loop, then hash built on the new relation, then hash built
    on the partial plan).  Of the two hash joins the build on the
    right is the cheaper iff ``card(addition) <= card(base)``.
    """
    position = addition.order[0]
    relation = graph.relations[position]
    anchor, anchor_column, new_column = _oriented(edge, position)
    how = edge.how
    card = _join_cardinality(
        base.card,
        addition.card,
        min(_ndv(graph.relations[anchor], anchor_column), max(base.card, 1.0)),
        min(_ndv(relation, new_column), max(addition.card, 1.0)),
        how,
    )
    common = dict(
        left_key=base.key_for(graph, anchor, anchor_column), right_key=new_column,
        prefix_left=base.prefix(graph), prefix_right=relation.prefix,
        how=how, right_columns=relation.table.schema.column_names,
    )
    order = base.order + (position,)

    # 1. index nested-loop: probe the new relation's index per row
    if (
        new_column == relation.table.schema.primary_key
        or relation.table.index_for(new_column) is not None
    ):
        node = IndexNestedLoopJoin(
            base.plan, relation.table,
            right_predicate=relation.predicate, **common,
        )
        cost = base.cost + base.card * (1.0 + node.avg_matches())
        yield _Candidate(cost, card, node, order, base.startup)

    # 2. hash join, build over the new relation (preserves left order)
    node = HashJoin(base.plan, addition.plan, build_side="right", **common)
    cost = base.cost + addition.cost + base.card + HASH_BUILD_FACTOR * addition.card
    startup = base.startup + addition.cost + HASH_BUILD_FACTOR * addition.card
    yield _Candidate(cost, card, node, order, startup)

    # 3. hash join, build over the partial plan: rows follow the new
    #    relation (inner only; breaks left-row order)
    if how == "inner" and not graph.ordered:
        node = HashJoin(base.plan, addition.plan, build_side="left", **common)
        cost = base.cost + addition.cost + addition.card + HASH_BUILD_FACTOR * base.card
        startup = base.cost + HASH_BUILD_FACTOR * base.card + addition.startup
        yield _Candidate(cost, card, node, order, startup)


def _ranking(graph: JoinGraph, cap: int | None) -> "Callable[[_Candidate], float]":
    """The cost candidates are compared by: total cost, or for an
    ordered graph under a row cap the LIMIT-costed share of it."""
    if cap is None or not graph.ordered:
        return lambda candidate: candidate.cost

    def capped(candidate: _Candidate) -> float:
        if candidate.card <= cap:
            return candidate.cost
        share = cap / candidate.card
        return candidate.startup + (candidate.cost - candidate.startup) * share

    return capped


def _cheapest(
    candidates: "Iterable[_Candidate]",
    rank: "Callable[[_Candidate], float]",
    best: _Candidate | None = None,
) -> _Candidate | None:
    """The lowest-ranked candidate; a tie keeps the earlier one."""
    for challenger in candidates:
        if best is None or rank(challenger) < rank(best):
            best = challenger
    return best


# ----------------------------------------------------------------------
# order strategies
# ----------------------------------------------------------------------


def _search_dp(
    graph: JoinGraph,
    base: dict[int, _Candidate],
    core: list[int],
    rank: "Callable[[_Candidate], float]",
) -> _Candidate:
    """Dynamic programming over connected subsets of the core: each
    subset's plan folds one relation into the best plan of the rest.
    An ordered root keeps relation 0 first."""
    dp: dict[frozenset, _Candidate] = {
        frozenset({position}): base[position]
        for position in core
        if position == 0 or not graph.ordered
    }
    for size in range(2, len(core) + 1):
        for subset in combinations(core, size):
            state = frozenset(subset)
            if graph.ordered and 0 not in state:
                continue
            best: _Candidate | None = None
            for position in subset:
                rest = state - {position}
                partial = dp.get(rest)
                edge = graph.edge_between(position, rest)
                if partial is None or edge is None:
                    continue
                best = _cheapest(
                    _extension_candidates(graph, partial, base[position], edge),
                    rank,
                    best,
                )
            if best is not None:
                dp[state] = best
    result = dp.get(frozenset(core))
    if result is None:
        raise QueryError("join graph is disconnected; add a join edge")
    return result


def _fold(
    graph: JoinGraph,
    current: _Candidate,
    base: dict[int, _Candidate],
    positions: list[int],
    rank: "Callable[[_Candidate], float]",
) -> _Candidate:
    """Fold ``positions`` into ``current`` in the order given, choosing
    only the physical operator per step."""
    for position in positions:
        joined = frozenset(current.order)
        edge = graph.edge_between(position, joined) or graph.outer_edge_of(position)
        current = _cheapest(
            _extension_candidates(graph, current, base[position], edge), rank
        )
    return current


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def plan_join_graph(
    graph: JoinGraph,
    plan_relation: "Callable[[Relation], Plan]",
    *,
    cap: int | None = None,
) -> tuple[Plan, dict]:
    """Compile a join graph to a physical plan.

    ``plan_relation`` is the single-table planner (supplied by the
    query layer to avoid an import cycle): it compiles one relation's
    pushed-down predicate — plus, for relation 0, the root ordering —
    into an access plan.  ``cap`` is the number of rows the query
    reads (its ``offset + limit``); an ordered graph under a cap is
    LIMIT-costed (see the module docstring).

    Returns ``(plan, info)`` where ``info`` carries the chosen relation
    ``order`` (table names, join sequence) and the ``algorithm`` that
    ordered it (``dp`` / ``written``).
    """
    base: dict[int, _Candidate] = {}
    for relation in graph.relations:
        plan = plan_relation(relation)
        cost = _access_cost(plan)
        base[relation.position] = _Candidate(
            cost=cost,
            card=max(plan.estimate(), 0.0),
            plan=plan,
            order=(relation.position,),
            startup=_access_startup(plan, cost),
        )
    rank = _ranking(graph, cap)
    core = [r.position for r in graph.relations if not r.outer]
    if (
        len(core) > MAX_DP_RELATIONS
        or graph.has_column_collisions()
        or graph.inner_edge_touches_outer()
    ):
        current = base[0]
        tail = [r.position for r in graph.relations[1:]]
        algorithm = "written"
    else:
        current = _search_dp(graph, base, core, rank)
        tail = [r.position for r in graph.relations if r.outer]
        algorithm = "dp"
    final = _fold(graph, current, base, tail, rank)
    info = {
        "algorithm": algorithm,
        "order": tuple(
            graph.relations[position].table.name for position in final.order
        ),
    }
    return final.plan, info
