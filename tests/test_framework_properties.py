"""Property-based tests: Algorithm-1 engine invariants under random
provider-control sequences (promote/stop/resume/add-budget/switch/step,
plus stop-all-but-one and resume-all, which reach the one-eligible
states a heap-ranked strategy must survive).

Invariants:
- budget conservation: Σ x_i == budget_spent <= budget_total, always;
- stopped resources receive no tasks while stopped;
- the corpus gains exactly one post per executed task;
- the engine never crashes while at least one resource stays eligible;
- equivalence: a twin engine running the frozen pre-ranking MU, FP and
  fp-mu code (``legacy_strategies``) makes the same allocation and the
  same trajectory, bit for bit, and both quality boards' maintained
  rankings match a rebuild from scratch after every operation.
"""

from __future__ import annotations

import copy

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from legacy_strategies import (
    LegacyFewestPostsFirst,
    LegacyHybridFpMu,
    LegacyMostUnstableFirst,
)

from repro.datasets import make_delicious_like
from repro.quality import AnalyticGain, QualityBoard
from repro.strategies import (
    STRATEGY_NAMES,
    AdaptiveEstimatedGain,
    AllocationEngine,
    UniformRandom,
    make_strategy,
)

_ops = st.lists(
    st.tuples(
        st.sampled_from([
            "step", "promote", "stop", "resume", "stop_all_but", "resume_all",
            "add_budget", "switch",
        ]),
        st.integers(min_value=0, max_value=9),
    ),
    min_size=1,
    max_size=30,
)

_DATA = make_delicious_like(
    n_resources=10, initial_posts_total=60, master_seed=99, population_size=10
)


_GAIN = AnalyticGain(_DATA.dataset.oracle_targets(), _DATA.dataset.mean_post_size)


def _strategy_pair(name: str):
    """(strategy under test, its oracle) for one registered name.

    MU, FP and fp-mu meet their frozen pre-ranking copies; adaptive
    meets itself with the frozen FP as its exploration phase; the rest
    meet a second instance of themselves, so every registered strategy
    runs through the shared context and board path on both sides.
    """
    if name == "fp":
        return make_strategy(name), LegacyFewestPostsFirst()
    if name == "mu":
        return make_strategy(name), LegacyMostUnstableFirst()
    if name == "fp-mu":
        tested = make_strategy(name)
        return tested, LegacyHybridFpMu(min_posts=tested.min_posts)
    if name == "adaptive":
        oracle = AdaptiveEstimatedGain()
        oracle._fp = LegacyFewestPostsFirst()
        return AdaptiveEstimatedGain(), oracle
    return (
        make_strategy(name, gain_model=_GAIN),
        make_strategy(name, gain_model=_GAIN),
    )


def _build_engine(strategy, batch_size: int = 1) -> AllocationEngine:
    corpus = _DATA.split.provider_corpus.copy()
    return AllocationEngine(
        corpus,
        # each engine draws its posts from its own copy of one state
        copy.deepcopy(_DATA.dataset.population),
        strategy,
        budget=40,
        board=QualityBoard(corpus),
        rng=np.random.default_rng(0),
        batch_size=batch_size,
        record_every=10,
    )


def _apply(engine: AllocationEngine, op: str, argument: int, resource_id: int, switch_to):
    if op == "step":
        engine.step(1 + argument % 3)
    elif op == "promote":
        engine.promote(resource_id)
    elif op == "stop":
        engine.stop(resource_id)
    elif op == "resume":
        engine.resume(resource_id)
    elif op == "stop_all_but":
        # exactly ``resource_id`` stays eligible
        engine.resume(resource_id)
        for other in engine.corpus.resource_ids():
            if other != resource_id:
                engine.stop(other)
    elif op == "resume_all":
        for other in engine.corpus.resource_ids():
            engine.resume(other)
    elif op == "add_budget":
        engine.add_budget(argument)
    elif op == "run":
        engine.run()
    else:
        engine.switch_strategy(switch_to)


def _apply_both(engine, twin, op, argument, resource_id, switch_to) -> None:
    """Apply one operation to both engines; any error fails the test."""
    for target, strategy in ((engine, switch_to[0]), (twin, switch_to[1])):
        _apply(target, op, argument, resource_id, strategy)


@given(st.sampled_from(STRATEGY_NAMES), st.integers(min_value=1, max_value=3), _ops)
# random op lists reach a one-eligible pick followed by a different
# eligible set only now and then; this shape, which broke the heap of
# OracleGreedy, runs on every invocation
@example(
    "optimal", 1,
    [("stop_all_but", 0), ("step", 0), ("resume_all", 0), ("stop_all_but", 1), ("step", 0)],
)
# and this one: FP placed resource 1 before its first post, then
# adaptive (switch 7) fits a curve to its history, which must hold
# the samples the frozen FP code left, not an extra one from the walk
@example(
    "fp", 1,
    [("step", 0), ("step", 0), ("step", 1), ("stop_all_but", 0), ("switch", 7), ("promote", 1)],
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_engine_invariants_under_any_control_sequence(name, batch_size, ops):
    tested, oracle = _strategy_pair(name)
    engine = _build_engine(tested, batch_size)
    twin = _build_engine(oracle, batch_size)
    corpus = engine.corpus
    ids = corpus.resource_ids()
    posts_before = corpus.total_posts()
    stopped: set[int] = set()
    stopped_alloc_at_stop: dict[int, int] = {}
    executed = []
    engine.on_task(lambda rid, _spent: executed.append(rid))
    for op, argument in ops:
        resource_id = ids[argument % len(ids)]
        if op == "stop" and len(stopped | {resource_id}) == len(ids):
            continue  # keep one eligible
        switch_to = _strategy_pair(STRATEGY_NAMES[argument % len(STRATEGY_NAMES)])
        _apply_both(engine, twin, op, argument, resource_id, switch_to)
        if op in ("promote", "resume"):
            stopped.discard(resource_id)
        elif op == "stop" and resource_id not in stopped:
            stopped.add(resource_id)
            stopped_alloc_at_stop[resource_id] = engine._allocation[resource_id]
        elif op == "stop_all_but":
            stopped.discard(resource_id)
            for other in ids:
                if other != resource_id and other not in stopped:
                    stopped.add(other)
                    stopped_alloc_at_stop[other] = engine._allocation[other]
        elif op == "resume_all":
            stopped.clear()
        # Invariant: allocation of currently-stopped resources is frozen.
        for frozen_id in stopped:
            assert engine._allocation[frozen_id] == stopped_alloc_at_stop[frozen_id]
        # Invariant: budget books balance at every point.
        assert sum(engine._allocation.values()) == engine._budget_spent
        assert engine._budget_spent <= engine._budget_total
        # Equivalence: same picks and same trajectory as the oracle twin.
        assert engine._allocation == twin._allocation
        assert engine._trajectory == twin._trajectory
        engine.board.verify()
        twin.board.verify()
    # Invariant: every executed task added exactly one post.
    assert corpus.total_posts() == posts_before + len(executed)
    assert len(executed) == engine._budget_spent
    _apply_both(engine, twin, "run", 0, ids[0], (None, None))
    assert engine._allocation == twin._allocation
    assert engine._trajectory == twin._trajectory
    engine.board.verify()


@given(st.integers(min_value=0, max_value=60))
@settings(max_examples=20, deadline=None)
def test_run_spends_exactly_min_of_budget_and_available(budget):
    corpus = _DATA.split.provider_corpus.copy()
    engine = AllocationEngine(
        corpus,
        _DATA.dataset.population,
        UniformRandom(),
        budget=budget,
        board=QualityBoard(corpus),
        rng=np.random.default_rng(1),
    )
    result = engine.run()
    assert result.budget_spent == budget
    assert sum(result.allocation.values()) == budget
