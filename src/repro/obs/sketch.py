"""Mergeable streaming quantile sketch (t-digest).

``ServingReport.from_requests`` historically materialized every TTFT /
latency sample to call :func:`repro.serve.metrics.percentile` — fine
for a hundred requests, hopeless for the million-request traces the
roadmap asks for, and structurally wrong for fleet aggregation (each
replica would have to ship its full sample list to the front-end).
:class:`QuantileSketch` replaces the lists behind the opt-in
``streaming=True`` path: constant memory per stream, and ``merge()``
combines replicas' sketches without ever touching raw samples.

The sketch is a t-digest (Dunning & Ertl): sorted centroids
``(mean, weight)`` whose permitted weight shrinks toward the
distribution's tails, so extreme quantiles stay near-exact while the
middle compresses aggressively.  With the default ``compression`` of
200 the *rank* error of ``quantile(q)`` is a small fraction of a
percentile point near the tails and well under one percentile point at
the median; the value error this translates to depends on the local
density of the data (see ``docs/observability.md`` for the bounds the
test suite enforces).
"""

from __future__ import annotations

import math
from typing import List, Tuple

__all__ = ["QuantileSketch"]


class QuantileSketch:
    """Constant-memory percentile estimator with lossless-ish ``merge``.

    ``add`` buffers raw values and periodically folds them into the
    centroid list; ``quantile(q)`` interpolates between centroid
    centers (``q`` in ``[0, 100]``, mirroring
    :func:`repro.serve.metrics.percentile`).  Exact minimum and maximum
    are tracked separately so ``quantile(0)`` / ``quantile(100)`` are
    always exact.
    """

    __slots__ = ("compression", "count", "_means", "_weights",
                 "_buffer", "_flush_at", "_min", "_max")

    def __init__(self, compression: int = 200):
        if compression < 20:
            raise ValueError(
                f"compression must be >= 20, got {compression}")
        self.compression = compression
        self.count = 0
        self._means: List[float] = []
        self._weights: List[float] = []
        self._buffer: List[float] = []
        self._flush_at = 4 * compression
        self._min = float("inf")
        self._max = float("-inf")

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def add(self, value: float) -> None:
        """Fold one sample into the sketch."""
        value = float(value)
        self.count += 1
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        self._buffer.append(value)
        if len(self._buffer) >= self._flush_at:
            self._compress()

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into this sketch in place; returns ``self``.

        Both operands' centroids are re-clustered together, so
        ``a.merge(b)`` and ``b.merge(a)`` summarize the identical
        weighted point set (their quantiles agree up to the sketch's
        own rank tolerance).
        """
        other._compress()
        self._compress()
        self._means.extend(other._means)
        self._weights.extend(other._weights)
        self.count += other.count
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        self._compress(force=True)
        return self

    # ------------------------------------------------------------------
    # Compression
    # ------------------------------------------------------------------
    def _compress(self, force: bool = False) -> None:
        """Re-cluster buffered samples + centroids under the size bound."""
        if not self._buffer and not force:
            return
        points: List[Tuple[float, float]] = list(
            zip(self._means, self._weights))
        points.extend((v, 1.0) for v in self._buffer)
        self._buffer.clear()
        if not points:
            return
        points.sort()
        total = float(sum(w for _, w in points))
        if total <= 2.0 * self.compression:
            # Small streams stay uncompressed: still within the memory
            # bound, and all-singleton sketches answer quantiles
            # exactly (see :meth:`quantile`).
            self._means = [m for m, _ in points]
            self._weights = [w for _, w in points]
            return
        means: List[float] = []
        weights: List[float] = []
        cur_mean, cur_weight = points[0]
        seen = 0.0  # weight fully to the left of the open cluster
        k_left = self._k_scale(0.0)
        for mean, weight in points[1:]:
            proposed = cur_weight + weight
            # k1 scale function: a cluster may span at most one unit of
            # k(q) = (c/2π)·asin(2q−1).  k is steep at the tails, so
            # extreme clusters pinch to singletons while the middle
            # compresses hard — and the total k-range is c/2, which
            # caps the centroid count independent of stream length.
            q_right = (seen + proposed) / total
            if self._k_scale(q_right) - k_left <= 1.0:
                cur_mean += (mean - cur_mean) * (weight / proposed)
                cur_weight = proposed
            else:
                means.append(cur_mean)
                weights.append(cur_weight)
                seen += cur_weight
                k_left = self._k_scale(seen / total)
                cur_mean, cur_weight = mean, weight
        means.append(cur_mean)
        weights.append(cur_weight)
        self._means = means
        self._weights = weights

    def _k_scale(self, q: float) -> float:
        """The t-digest k1 scale function (tail-emphasizing)."""
        q = min(max(q, 0.0), 1.0)
        return self.compression * math.asin(2.0 * q - 1.0) / (2.0 * math.pi)

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def quantile(self, q: float) -> float:
        """Estimated percentile ``q`` in [0, 100] (0.0 if empty)."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        self._compress()
        if q == 0.0:
            return self._min
        if q == 100.0:
            return self._max
        means, weights = self._means, self._weights
        if len(means) == 1:
            return means[0]
        if len(means) == self.count:
            # Every centroid is still a singleton — the sketch holds
            # the full sorted sample list, so answer with the exact
            # order statistic, float-identical to metrics.percentile.
            rank = (self.count - 1) * q / 100.0
            lo = int(rank)
            hi = min(lo + 1, self.count - 1)
            frac = rank - lo
            return means[lo] * (1.0 - frac) + means[hi] * frac
        total = float(sum(weights))
        target = q / 100.0 * total
        # Centroid i's center sits at cumulative rank C_i + w_i/2.
        cum = 0.0
        prev_center = 0.0
        prev_value = self._min
        for mean, weight in zip(means, weights):
            center = cum + weight / 2.0
            if target <= center:
                span = center - prev_center
                if span <= 0.0:
                    return mean
                frac = (target - prev_center) / span
                return prev_value + (mean - prev_value) * frac
            cum += weight
            prev_center = center
            prev_value = mean
        # Past the last centroid's center: interpolate toward the max.
        span = total - prev_center
        if span <= 0.0:
            return self._max
        frac = (target - prev_center) / span
        return prev_value + (self._max - prev_value) * frac

    @property
    def centroid_count(self) -> int:
        """Live centroids (the sketch's memory footprint, in pairs)."""
        self._compress()
        return len(self._means)

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return (f"QuantileSketch(count={self.count}, "
                f"centroids={len(self._means)}, "
                f"buffered={len(self._buffer)})")
