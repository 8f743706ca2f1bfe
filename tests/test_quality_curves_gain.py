"""Unit tests: quality curves, gain models, the quality board."""

import numpy as np
import pytest

from repro.config import QualityConfig
from repro.quality import (
    AnalyticGain,
    EstimatedGain,
    QualityBoard,
    QualityCurve,
    expected_quality_at,
    fit_quality_curve,
)
from repro.tagging import Post


class TestQualityCurve:
    def test_validation(self):
        with pytest.raises(ValueError):
            QualityCurve(q_max=1.2, a=0.1, b=1.0)
        with pytest.raises(ValueError):
            QualityCurve(q_max=0.9, a=-0.1, b=1.0)
        with pytest.raises(ValueError):
            QualityCurve(q_max=0.9, a=0.1, b=0.0)

    def test_monotone_and_concave(self):
        curve = QualityCurve(q_max=0.95, a=0.8, b=2.0)
        assert curve.is_concave()
        values = curve.evaluate(np.arange(50))
        assert np.all(np.diff(values) > 0)

    def test_marginal_matches_difference(self):
        curve = QualityCurve(q_max=0.9, a=0.5, b=1.0)
        assert curve.marginal(4) == pytest.approx(
            float(curve.evaluate(5)) - float(curve.evaluate(4))
        )

    def test_marginals_vector(self):
        curve = QualityCurve(q_max=0.9, a=0.5, b=1.0)
        gains = curve.marginals(0, 10)
        assert len(gains) == 10
        assert np.all(np.diff(gains) < 0)

    def test_dict_roundtrip(self):
        curve = QualityCurve(q_max=0.9, a=0.5, b=1.0)
        assert QualityCurve.from_dict(curve.to_dict()) == curve

    def test_fit_recovers_parameters(self):
        truth = QualityCurve(q_max=0.92, a=0.7, b=2.5)
        ks = np.arange(0, 60, 3)
        fitted = fit_quality_curve(ks, np.asarray(truth.evaluate(ks)))
        check = np.arange(0, 80, 7)
        assert np.allclose(fitted.evaluate(check), truth.evaluate(check), atol=0.02)

    def test_fit_requires_samples(self):
        with pytest.raises(ValueError, match=">= 3 samples"):
            fit_quality_curve([1, 2], [0.1, 0.2])
        with pytest.raises(ValueError, match="shape"):
            fit_quality_curve([1, 2, 3], [0.1, 0.2])
        with pytest.raises(ValueError, match=">= 0"):
            fit_quality_curve([-1, 2, 3], [0.1, 0.2, 0.3])


class TestAnalyticGain:
    def build(self):
        targets = {
            1: np.array([0.5, 0.5, 0.0, 0.0]),
            2: np.array([0.25, 0.25, 0.25, 0.25]),
        }
        return AnalyticGain(targets, mean_post_size=2.0)

    def test_gains_positive_and_decreasing(self):
        gain = self.build()
        gains = [gain.gain(1, k) for k in range(10)]
        assert all(value > 0 for value in gains)
        assert all(b <= a for a, b in zip(gains, gains[1:]))

    def test_spread_distribution_needs_more_posts(self):
        gain = self.build()
        # Resource 2 (4-tag uniform) has a larger coefficient than
        # resource 1 (2-tag uniform): lower quality at equal k.
        assert gain.quality(2, 10) < gain.quality(1, 10)

    def test_quality_matches_formula(self):
        gain = self.build()
        coefficient = gain.coefficient(1)
        assert gain.quality(1, 7) == pytest.approx(
            float(expected_quality_at(7, coefficient))
        )

    def test_unknown_resource(self):
        with pytest.raises(KeyError):
            self.build().gain(99, 0)

    def test_gain_table(self):
        table = self.build().gain_table(1, 0, 5)
        assert table.shape == (5,)
        assert np.all(table > 0)

    def test_from_corpus_requires_theta(self, tiny_corpus):
        gain = AnalyticGain.from_corpus(tiny_corpus, 2.0)
        assert gain.gain(1, 0) > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            AnalyticGain({1: np.array([1.0])}, mean_post_size=0.0)


class TestEstimatedGain:
    def test_fit_from_samples(self):
        truth = QualityCurve(q_max=0.9, a=0.6, b=2.0)
        samples = {
            1: [(k, float(truth.evaluate(k))) for k in range(0, 40, 4)],
            2: [(0, 0.1), (5, 0.2)],  # too few -> no curve
        }
        estimated = EstimatedGain.fit(samples)
        assert estimated.has_curve(1)
        assert not estimated.has_curve(2)
        assert estimated.gain(1, 3) == pytest.approx(truth.marginal(3), abs=0.01)
        with pytest.raises(KeyError):
            estimated.curve(2)


class TestQualityBoard:
    def test_average_over_resources(self, tiny_corpus):
        board = QualityBoard(tiny_corpus)
        ids = tiny_corpus.resource_ids()
        average = sum(board.quality_of(rid) for rid in ids) / len(ids)
        assert board.average_quality() == pytest.approx(average)

    def test_cache_invalidated_by_new_posts(self, tiny_corpus):
        board = QualityBoard(tiny_corpus)
        resource = tiny_corpus.resource(1)
        before = board.quality_of(1)
        for _ in range(8):
            tiny_corpus.add_post(Post.from_tags(1, 5, [0]))
            board.observe(resource)
        assert board.quality_of(1) != before or board.quality_of(1) > 0.0
        assert board.quality_of(1) > before

    def test_history_tracks_post_counts(self, tiny_corpus):
        board = QualityBoard(tiny_corpus)
        board.quality_of(1)
        tiny_corpus.add_post(Post.from_tags(1, 5, [0]))
        board.observe(tiny_corpus.resource(1))
        history = board.history_of(1)
        assert [k for k, _q in history] == [2, 3]

    def test_threshold_buckets(self, tiny_corpus):
        board = QualityBoard(tiny_corpus)
        below = set(board.below(0.99))
        at_least = set(board.at_least(0.99))
        assert below | at_least == set(tiny_corpus.resource_ids())
        assert below & at_least == set()
