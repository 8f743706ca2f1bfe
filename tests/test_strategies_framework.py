"""Unit tests: the Algorithm-1 engine (budget, controls, trajectories)."""

import numpy as np
import pytest

from repro.errors import BudgetError, StrategyError
from repro.quality import AnalyticGain, QualityBoard
from repro.strategies import (
    AllocationEngine,
    FewestPostsFirst,
    MostUnstableFirst,
    OracleGreedy,
    make_strategy,
)


def make_engine(data, corpus, *, budget=50, strategy=None, record_every=10, seed=0):
    return AllocationEngine(
        corpus,
        data.dataset.population,
        strategy if strategy is not None else FewestPostsFirst(),
        budget=budget,
        board=QualityBoard(corpus),
        oracle_targets=data.dataset.oracle_targets(),
        rng=np.random.default_rng(seed),
        record_every=record_every,
    )


class TestBudgetAccounting:
    def test_budget_fully_spent(self, small_data, small_data_copy):
        engine = make_engine(small_data, small_data_copy, budget=40)
        result = engine.run()
        assert result.budget_spent == 40
        assert sum(result.allocation.values()) == 40

    def test_zero_budget_noop(self, small_data, small_data_copy):
        before = small_data_copy.total_posts()
        result = make_engine(small_data, small_data_copy, budget=0).run()
        assert result.budget_spent == 0
        assert small_data_copy.total_posts() == before

    def test_negative_budget_rejected(self, small_data, small_data_copy):
        with pytest.raises(BudgetError):
            make_engine(small_data, small_data_copy, budget=-1)

    def test_add_budget_mid_run(self, small_data, small_data_copy):
        engine = make_engine(small_data, small_data_copy, budget=10)
        engine.step(10)
        assert engine.budget_remaining == 0
        engine.add_budget(5)
        assert engine.budget_remaining == 5
        result = engine.run()
        assert result.budget_spent == 15

    def test_posts_added_match_budget(self, small_data, small_data_copy):
        before = small_data_copy.total_posts()
        make_engine(small_data, small_data_copy, budget=25).run()
        assert small_data_copy.total_posts() == before + 25


class TestTrajectory:
    def test_recording_cadence(self, small_data, small_data_copy):
        engine = make_engine(small_data, small_data_copy, budget=30, record_every=10)
        result = engine.run()
        spent = [point.budget_spent for point in result.trajectory]
        assert spent == [0, 10, 20, 30]

    def test_series_accessors(self, small_data, small_data_copy):
        result = make_engine(small_data, small_data_copy, budget=20).run()
        xs, ys = result.series("oracle")
        assert len(xs) == len(ys) >= 2
        xs2, ys2 = result.series("observable")
        assert xs2 == xs
        with pytest.raises(ValueError):
            result.series("bogus")

    def test_improvements_consistent(self, small_data, small_data_copy):
        result = make_engine(small_data, small_data_copy, budget=30).run()
        assert result.oracle_improvement == pytest.approx(
            result.final_oracle - result.initial_oracle
        )
        assert result.observable_improvement == pytest.approx(
            result.final_observable - result.initial_observable
        )

    def test_no_oracle_targets_is_fine(self, small_data, small_data_copy):
        engine = AllocationEngine(
            small_data_copy,
            small_data.dataset.population,
            FewestPostsFirst(),
            budget=10,
            rng=np.random.default_rng(0),
        )
        result = engine.run()
        assert result.initial_oracle is None
        assert result.oracle_improvement is None


class TestProviderControls:
    def test_promote_takes_next_slot(self, small_data, small_data_copy):
        engine = make_engine(small_data, small_data_copy, budget=10)
        target = max(
            small_data_copy.resource_ids(),
            key=lambda rid: small_data_copy.resource(rid).n_posts,
        )
        engine.promote(target)
        chosen = []
        engine.on_task(lambda rid, _spent: chosen.append(rid))
        engine.step(1)
        assert chosen == [target]

    def test_stop_excludes_resource(self, small_data, small_data_copy):
        engine = make_engine(small_data, small_data_copy, budget=30)
        victim = small_data_copy.resource_ids()[0]
        engine.stop(victim)
        result = engine.run()
        assert result.allocation[victim] == 0

    def test_resume_restores(self, small_data, small_data_copy):
        engine = make_engine(small_data, small_data_copy, budget=5)
        victim = small_data_copy.resource_ids()[0]
        engine.stop(victim)
        engine.resume(victim)
        assert victim in engine.eligible

    def test_stop_all_halts_early(self, small_data, small_data_copy):
        engine = make_engine(small_data, small_data_copy, budget=50)
        for resource_id in small_data_copy.resource_ids():
            engine.stop(resource_id)
        result = engine.run()
        assert result.budget_spent == 0

    def test_unknown_resource_controls_raise(self, small_data, small_data_copy):
        engine = make_engine(small_data, small_data_copy)
        with pytest.raises(StrategyError):
            engine.promote(9999)
        with pytest.raises(StrategyError):
            engine.stop(9999)

    def test_switch_strategy_mid_run(self, small_data, small_data_copy):
        engine = make_engine(small_data, small_data_copy, budget=30)
        engine.step(10)
        engine.switch_strategy(MostUnstableFirst())
        result = engine.run()
        assert result.strategy_names == ["fp", "mu"]
        assert result.budget_spent == 30


class TestOracleGreedyOnline:
    def test_runs_and_allocates(self, small_data, small_data_copy):
        gain = AnalyticGain(
            small_data.dataset.oracle_targets(), small_data.dataset.mean_post_size
        )
        engine = make_engine(
            small_data, small_data_copy, budget=40, strategy=OracleGreedy(gain)
        )
        result = engine.run()
        assert result.budget_spent == 40
        # Greedy on concave gains spreads across under-tagged resources.
        assert max(result.allocation.values()) < 40

    def test_heap_respects_stop(self, small_data, small_data_copy):
        gain = AnalyticGain(
            small_data.dataset.oracle_targets(), small_data.dataset.mean_post_size
        )
        engine = make_engine(
            small_data, small_data_copy, budget=20, strategy=OracleGreedy(gain)
        )
        victim = small_data_copy.resource_ids()[0]
        engine.stop(victim)
        result = engine.run()
        assert result.allocation[victim] == 0

    def test_resumed_resources_are_ranked_again(self, small_data, small_data_copy):
        """Heap entries of stopped resources popped on the way to a
        pick go back on the heap.  Step, stop all but the lowest-gain
        resource, step, resume the others and stop that one: the next
        step picks the best resumed resource instead of running dry."""
        gain = AnalyticGain(
            small_data.dataset.oracle_targets(), small_data.dataset.mean_post_size
        )
        engine = make_engine(
            small_data, small_data_copy, budget=20, strategy=OracleGreedy(gain)
        )
        ids = small_data_copy.resource_ids()
        picks = []
        engine.on_task(lambda resource_id, _spent: picks.append(resource_id))

        def rank(resource_id):
            """The heap's order: highest current gain first, then lowest id."""
            k = small_data_copy.resource(resource_id).n_posts
            return (-gain.gain(resource_id, k), resource_id)

        engine.step(1)
        lowest = max(ids, key=rank)
        others = [resource_id for resource_id in ids if resource_id != lowest]
        for resource_id in others:
            engine.stop(resource_id)
        engine.step(1)
        for resource_id in others:
            engine.resume(resource_id)
        engine.stop(lowest)
        best = min(others, key=rank)
        assert engine.step(1) == 1
        assert picks[-1] == best

    def test_resource_stopped_before_the_first_pick_is_ranked(
        self, small_data, small_data_copy
    ):
        gain = AnalyticGain(
            small_data.dataset.oracle_targets(), small_data.dataset.mean_post_size
        )
        engine = make_engine(
            small_data, small_data_copy, budget=20, strategy=OracleGreedy(gain)
        )
        ids = small_data_copy.resource_ids()
        picks = []
        engine.on_task(lambda resource_id, _spent: picks.append(resource_id))
        engine.stop(ids[0])
        engine.step(1)
        engine.resume(ids[0])
        for resource_id in ids[1:]:
            engine.stop(resource_id)
        assert engine.step(1) == 1
        assert picks == [picks[0], ids[0]]

    def test_reset_reinitializes(self, small_data, small_data_copy):
        gain = AnalyticGain(
            small_data.dataset.oracle_targets(), small_data.dataset.mean_post_size
        )
        strategy = OracleGreedy(gain)
        make_engine(small_data, small_data_copy, budget=5, strategy=strategy).run()
        strategy.reset()
        assert not strategy._initialized
