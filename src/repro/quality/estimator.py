"""System-facing quality facade.

The Quality Manager (Sec. III-A) needs, for every resource: the current
observable quality, the corpus average, the quality history (for the
project-details chart, Fig. 5), and threshold bucketing (good / low
quality) for the promote/stop UI.  This facade owns a stability
estimator and caches per-resource scores keyed by post count, so
repeated reads during one allocation round are O(1).

The board also keeps the two rankings Algorithm 1's CHOOSERESOURCES
step reads (MU and FP, Table I), so a strategy takes its next pick off
the front of a sorted list instead of scoring and sorting every
resource on each task.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Container
from itertools import chain

from ..config import QualityConfig
from ..errors import ReproError
from ..tagging.corpus import Corpus
from ..tagging.resource import TaggedResource
from .stability import StabilityEstimator, make_estimator

__all__ = ["QualityBoard"]


class QualityBoard:
    """Tracks observable quality for every resource of a corpus.

    Two rankings of the corpus are kept, one sorted list of keys each:

    - MU (Most Unstable First): ``(-(1.0 - q), n_posts, id)``.  The
      key is stored as ``-(1.0 - q)``, not ``q``: the rounding of
      ``1.0 - q`` merges scores that differ in their last bits, and
      those ties break by post count, which a key on ``q`` would not;
    - FP (Fewest Posts First): ``(n_posts, id)``.

    A resource's keys move in one place, the cache-miss path of
    :meth:`quality_of`: the old key is found by bisection and deleted,
    the new one is inserted with ``insort`` — O(log n) comparisons plus
    one pointer memmove per ranking.  Resources scored for the first
    time are appended and the lists are sorted once before the next
    walk, so the initial build is one O(n log n) sort.

    A walk is not a read.  The history records a score when a caller
    reads it (:meth:`quality_of`, :meth:`observe`, :meth:`history_of`)
    or when the MU walk ranks on it; a resource a walk only had to
    score to place it waits outside the cache, unread, until then.  FP
    ranks by post count and reads no score, so the history holds the
    samples the scoring MU and FP code read before the rankings were
    kept.

    **Contract.**  Whoever adds a post to the watched corpus calls
    :meth:`observe` on that resource before the next ranking walk: a
    post the board never hears of leaves a stale key, and the walks
    would rank that resource as it stood before the post.  In ``repro``
    every ``Corpus.add_post`` made while a board watches the corpus is
    followed by ``observe()``: ``QualityManager.run_one_task``,
    ``ITagSystem.submit_post``, ``AllocationEngine._execute_task``, the
    convergence experiment's tagging loop, and ``replay_free_choice``
    after ``TracePlayer.play_one``.  :meth:`verify` checks the
    contract and both rankings.
    """

    def __init__(
        self,
        corpus: Corpus,
        config: QualityConfig | None = None,
        estimator: StabilityEstimator | None = None,
    ) -> None:
        self.corpus = corpus
        self.config = (config or QualityConfig()).validate()
        self.estimator = estimator if estimator is not None else make_estimator(self.config)
        # cache: resource id -> (n_posts when scored, score)
        self._cache: dict[int, tuple[int, float]] = {}
        self._history: dict[int, list[tuple[int, float]]] = {}
        # entries a walk scored that no one has read since; the first
        # read moves one into the cache and records its sample
        self._unread: dict[int, tuple[int, float]] = {}
        # one key per scored resource; see the class docstring
        self._mu: list[tuple[float, int, int]] = []
        self._fp: list[tuple[int, int]] = []
        self._unsorted = False

    # ------------------------------------------------------------------

    def quality_of(self, resource_id: int) -> float:
        """Observable quality of one resource (cached by post count).

        A cache miss rescores the resource and moves its ranking keys.
        """
        resource = self.corpus.resource(resource_id)
        cached = self._cache.get(resource_id)
        if cached is not None and cached[0] == resource.n_posts:
            return cached[1]
        if cached is None:
            cached = self._unread.pop(resource_id, None)
        if cached is not None and cached[0] == resource.n_posts:
            score = cached[1]  # a walk scored it at this post count
        else:
            score = self.estimator.quality(resource)
            self._rerank(resource_id, cached, resource.n_posts, score)
        self._cache[resource_id] = (resource.n_posts, score)
        history = self._history.setdefault(resource_id, [])
        if not history or history[-1][0] != resource.n_posts:
            history.append((resource.n_posts, score))
        return score

    def qualities(self) -> dict[int, float]:
        return {
            resource_id: self.quality_of(resource_id)
            for resource_id in self.corpus.resource_ids()
        }

    def average_quality(self) -> float:
        """The paper's q(R, k⃗) on observable scores."""
        ids = self.corpus.resource_ids()
        if not ids:
            return 0.0
        return sum(self.quality_of(resource_id) for resource_id in ids) / len(ids)

    # ------------------------------------------------------------------

    def history_of(self, resource_id: int) -> list[tuple[int, float]]:
        """(post count, quality) samples observed so far (Fig. 6 chart)."""
        self.quality_of(resource_id)
        return list(self._history.get(resource_id, []))

    def below(self, threshold: float) -> list[int]:
        """Resource ids with quality < threshold (the low-quality set)."""
        return [
            resource_id
            for resource_id in self.corpus.resource_ids()
            if self.quality_of(resource_id) < threshold
        ]

    def at_least(self, threshold: float) -> list[int]:
        """Resource ids satisfying the quality requirement (MU's target)."""
        return [
            resource_id
            for resource_id in self.corpus.resource_ids()
            if self.quality_of(resource_id) >= threshold
        ]

    def observe(self, resource: TaggedResource) -> float:
        """Refresh and return the score after a new post.

        The new post count misses the cache, so this rescores the
        resource and moves its MU and FP keys.
        """
        return self.quality_of(resource.resource_id)

    # ------------------------------------------------------------------
    # rankings
    # ------------------------------------------------------------------

    def most_unstable_first(self, eligible: Container[int], count: int) -> list[int]:
        """Up to ``count`` ids of ``eligible`` in MU order: highest
        instability, then fewest posts, then lowest id.

        Walks the ranking from the front, skipping ids not in
        ``eligible``: O(count + s), where s counts the ineligible
        (stopped) resources ranked ahead of the last pick.
        """
        self._complete()
        if self._unread:
            # MU ranks every eligible resource on its score: read them
            for resource_id in [r for r in self._unread if r in eligible]:
                self.quality_of(resource_id)
        return _walk(self._mu, eligible, count)

    def fewest_posts_first(self, eligible: Container[int], count: int) -> list[int]:
        """Up to ``count`` ids of ``eligible`` in FP order: fewest posts,
        then lowest id — the ids ``heapq.nsmallest`` over
        ``(n_posts, id)`` returns.  Same O(count + s) walk as
        :meth:`most_unstable_first`.
        """
        self._complete()
        return _walk(self._fp, eligible, count)

    def verify(self) -> None:
        """Rebuild both rankings from scratch and compare.

        Raises :class:`~repro.errors.ReproError` if a ranked resource
        gained a post the board was not told of, if a cached score
        differs from a fresh estimate, or if either ranking differs from
        the one rebuilt from the cache.
        """
        mu: list[tuple[float, int, int]] = []
        fp: list[tuple[int, int]] = []
        for resource_id, (n_posts, score) in chain(
            self._cache.items(), self._unread.items()
        ):
            resource = self.corpus.resource(resource_id)
            if resource.n_posts != n_posts:
                raise ReproError(
                    f"quality board: resource {resource_id} was scored at "
                    f"{n_posts} posts but has {resource.n_posts}; a post "
                    "was added without observe()"
                )
            fresh = self.estimator.quality(resource)
            if fresh != score:
                raise ReproError(
                    f"quality board: resource {resource_id} cached {score!r}, "
                    f"fresh estimate {fresh!r}"
                )
            mu.append((-(1.0 - score), n_posts, resource_id))
            fp.append((n_posts, resource_id))
        mu.sort()
        fp.sort()
        for name, kept, rebuilt in (("MU", self._mu, mu), ("FP", self._fp, fp)):
            if (sorted(kept) if self._unsorted else kept) != rebuilt:
                raise ReproError(
                    f"quality board: {name} ranking differs from its rebuild"
                )

    def _rerank(
        self,
        resource_id: int,
        old: tuple[int, float] | None,
        n_posts: int,
        score: float,
    ) -> None:
        mu_key = (-(1.0 - score), n_posts, resource_id)
        fp_key = (n_posts, resource_id)
        if old is None:
            self._mu.append(mu_key)
            self._fp.append(fp_key)
            self._unsorted = True
            return
        self._sort()
        old_posts, old_score = old
        _discard(self._mu, (-(1.0 - old_score), old_posts, resource_id))
        _discard(self._fp, (old_posts, resource_id))
        insort(self._mu, mu_key)
        insort(self._fp, fp_key)

    def _complete(self) -> None:
        """Score (unread) any resource not ranked yet, then sort if needed."""
        if len(self._cache) + len(self._unread) < len(self.corpus):
            for resource_id in self.corpus.resource_ids():
                if resource_id not in self._cache and resource_id not in self._unread:
                    resource = self.corpus.resource(resource_id)
                    score = self.estimator.quality(resource)
                    self._unread[resource_id] = (resource.n_posts, score)
                    self._rerank(resource_id, None, resource.n_posts, score)
        self._sort()

    def _sort(self) -> None:
        if self._unsorted:
            self._mu.sort()
            self._fp.sort()
            self._unsorted = False


def _walk(ranking: list, eligible: Container[int], count: int) -> list[int]:
    picked: list[int] = []
    if count <= 0:
        return picked
    for key in ranking:
        resource_id = key[-1]
        if resource_id in eligible:
            picked.append(resource_id)
            if len(picked) == count:
                break
    return picked


def _discard(ranking: list, key: tuple) -> None:
    index = bisect_left(ranking, key)
    if index == len(ranking) or ranking[index] != key:
        raise ReproError(f"quality board: ranking key {key!r} is missing")
    del ranking[index]
