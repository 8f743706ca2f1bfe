"""The quality board's maintained MU/FP rankings.

- The ranking walks return exactly what the frozen pre-ranking code
  (``legacy_strategies``) computes by scoring and sorting everything.
- ``QualityBoard.verify`` rebuilds both rankings and catches a post the
  board was never told of.
- A walk is not a read: the quality history keeps the samples the
  frozen code read, whatever the walks scored to place resources.
- Flat work: in fp-mu's MU phase one ``choose`` scores nothing, at 10³
  and at 2×10⁴ resources alike, and one system task averages the
  corpus quality once.
- fp-mu through ``ITagSystem.run_project`` makes the same picks, rows
  and trajectory as the frozen oracle swapped into the runtime.
"""

from __future__ import annotations

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from legacy_strategies import (
    LegacyFewestPostsFirst,
    LegacyHybridFpMu,
    LegacyMostUnstableFirst,
)

from repro.datasets import make_delicious_like
from repro.errors import ReproError
from repro.quality import QualityBoard
from repro.store import Query
from repro.strategies import AllocationContext, HybridFpMu
from repro.system import ITagSystem
from repro.tagging import Corpus, Post, TaggedResource, Vocabulary


def _corpus(post_tags: list[list[int]]) -> Corpus:
    """Resource ``i + 1`` gets one single-tag post per entry of
    ``post_tags[i]``."""
    corpus = Corpus(Vocabulary(["a", "b", "c", "d"]))
    for index, tags in enumerate(post_tags):
        resource = TaggedResource(index + 1, f"r{index + 1}")
        for position, tag in enumerate(tags):
            resource.add_post(Post.from_tags(index + 1, position, [tag]))
        corpus.add_resource(resource)
    return corpus


def _context(corpus: Corpus, board: QualityBoard, eligible: set[int]) -> AllocationContext:
    return AllocationContext(
        corpus=corpus,
        board=board,
        rng=np.random.default_rng(0),
        eligible=eligible,
    )


_corpora = st.lists(
    st.lists(st.integers(min_value=0, max_value=3), max_size=6), min_size=1, max_size=25
)


class TestWalks:
    @given(_corpora, st.data())
    @settings(max_examples=60, deadline=None)
    def test_walks_match_full_sorts_for_any_count(self, post_tags, data):
        corpus = _corpus(post_tags)
        board = QualityBoard(corpus)
        ids = corpus.resource_ids()
        eligible = set(data.draw(st.lists(st.sampled_from(ids), min_size=1)))
        count = data.draw(st.integers(min_value=1, max_value=len(ids) + 2))
        expected_fp = [
            resource_id
            for _posts, resource_id in heapq.nsmallest(
                count,
                ((corpus.resource(rid).n_posts, rid) for rid in sorted(eligible)),
            )
        ]
        assert board.fewest_posts_first(eligible, count) == expected_fp
        context = _context(corpus, board, eligible)
        expected_mu = LegacyMostUnstableFirst().choose(context, count)
        assert board.most_unstable_first(eligible, count) == expected_mu
        board.verify()

    @given(_corpora, st.lists(st.integers(min_value=0, max_value=99), max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_observed_posts_keep_rankings_exact(self, post_tags, arrivals):
        corpus = _corpus(post_tags)
        board = QualityBoard(corpus)
        ids = corpus.resource_ids()
        eligible = set(ids)
        for step, arrival in enumerate(arrivals):
            resource = corpus.resource(ids[arrival % len(ids)])
            corpus.add_post(Post.from_tags(resource.resource_id, step, [arrival % 4]))
            board.observe(resource)
            board.verify()
            context = _context(corpus, board, eligible)
            assert board.most_unstable_first(eligible, 3) == (
                LegacyMostUnstableFirst().choose(context, 3)
            )

    def test_verify_catches_an_unobserved_post(self, tiny_corpus):
        board = QualityBoard(tiny_corpus)
        board.fewest_posts_first({1, 2, 3}, 1)
        board.verify()
        tiny_corpus.add_post(Post.from_tags(3, 9, [0]))
        with pytest.raises(ReproError, match="without observe"):
            board.verify()
        board.observe(tiny_corpus.resource(3))
        board.verify()

    def test_history_keeps_the_samples_the_frozen_code_read(self, tiny_corpus):
        ranked, frozen = QualityBoard(tiny_corpus), QualityBoard(tiny_corpus)
        # FP scores every resource to place it but reads no score; MU
        # reads the score of every eligible resource
        assert ranked.fewest_posts_first({1, 2, 3}, 1) == [3]
        assert LegacyFewestPostsFirst().choose(
            _context(tiny_corpus, frozen, {1, 2, 3}), 1
        ) == [3]
        assert ranked.most_unstable_first({2}, 1) == [2]
        assert LegacyMostUnstableFirst().choose(_context(tiny_corpus, frozen, {2}), 1) == [2]
        for resource_id in (1, 2, 3):
            tiny_corpus.add_post(Post.from_tags(resource_id, 9, [0]))
            ranked.observe(tiny_corpus.resource(resource_id))
            frozen.observe(tiny_corpus.resource(resource_id))
        assert [k for k, _quality in frozen.history_of(2)] == [1, 2]
        for resource_id in (1, 2, 3):
            assert ranked.history_of(resource_id) == frozen.history_of(resource_id)
        ranked.verify()

    def test_stopped_resources_are_skipped(self, tiny_corpus):
        board = QualityBoard(tiny_corpus)
        assert board.fewest_posts_first({1, 2, 3}, 3) == [3, 2, 1]
        assert board.fewest_posts_first({1, 2}, 3) == [2, 1]
        assert board.most_unstable_first({1}, 2) == [1]
        assert board.most_unstable_first(set(), 2) == []


def _flat_corpus(n: int) -> Corpus:
    """``n`` resources with three posts each, all past fp-mu's switch."""
    return _corpus([[rid % 4, (rid * 7) % 4, (rid * 3) % 4] for rid in range(n)])


class TestFlatWork:
    @pytest.mark.parametrize("n", [1_000, 20_000])
    def test_mu_phase_choose_scores_nothing(self, n):
        corpus = _flat_corpus(n)
        board = QualityBoard(corpus)
        strategy = HybridFpMu(min_posts=3)
        context = _context(corpus, board, set(corpus.resource_ids()))
        strategy.choose(context, 1)  # the first walk ranks the corpus
        assert strategy.in_mu_phase
        scored: list[int] = []
        quality_of = board.quality_of
        board.quality_of = lambda resource_id: (scored.append(resource_id), quality_of(resource_id))[1]
        for step in range(5):
            picked = strategy.choose(context, 1)[0]
            assert scored == []
            corpus.add_post(Post.from_tags(picked, 10 + step, [step % 4]))
            board.observe(corpus.resource(picked))
            assert scored == [picked]  # only the resource being rescored
            scored.clear()
        del board.quality_of
        assert strategy.choose(context, 2) == LegacyMostUnstableFirst().choose(context, 2)
        board.verify()

    def test_system_task_averages_quality_once(self):
        system, project = _system(master_seed=3)
        board = system.quality.runtime(project).board
        averages: list[float] = []
        average_quality = board.average_quality
        board.average_quality = lambda: averages.append(0.0) or average_quality()
        system.run_project(project, tasks=3)
        assert len(averages) == 3


def _system(*, master_seed: int, oracle: bool = False, budget: int = 140):
    data = make_delicious_like(
        n_resources=12, initial_posts_total=40, master_seed=11, population_size=12
    )
    system = ITagSystem(master_seed=master_seed)
    provider = system.register_provider("p")
    project = system.create_project(provider, "campaign", budget=budget, strategy="fp-mu")
    system.upload_resources(project, data.provider_corpus.copy())
    system.start_project(project, noise_model=data.dataset.noise_model)
    if oracle:
        runtime = system.quality.runtime(project)
        runtime.strategy = LegacyHybridFpMu(min_posts=runtime.strategy.min_posts)
    return system, project


def _rows(system: ITagSystem, table: str) -> list[dict]:
    return Query(system.database.table(table)).order_by("id").all()


class TestSystemEquivalence:
    def test_fp_mu_matches_the_frozen_oracle_through_run_project(self):
        runs = []
        for oracle in (False, True):
            system, project = _system(master_seed=5, oracle=oracle)
            runtime = system.quality.runtime(project)
            system.run_project(project, tasks=30)
            system.stop_resource(project, 4)
            system.promote_resource(project, 9)
            system.run_project(project, tasks=40)
            system.resume_resource(project, 4)
            runtime.board.verify()
            mu_phase = runtime.strategy.in_mu_phase
            allocation = dict(runtime.allocation)
            trajectory = system.quality_history(project)
            system.run_project(project)
            runs.append(
                (
                    mu_phase,
                    allocation,
                    trajectory,
                    _rows(system, "resources"),
                    _rows(system, "posts"),
                    system.projects.get(project),
                )
            )
        assert runs[0][0], "the campaign never reached fp-mu's MU phase"
        assert runs[0] == runs[1]
