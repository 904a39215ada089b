"""The t-digest quantile sketch: accuracy, merging, edge cases.

The sketch's contract is *rank* accuracy: its answer for quantile q
must be a value whose exact rank is within a small band around q.
Hypothesis drives random and adversarial streams through that check,
plus the merge laws (commutes, matches one-shot ingestion) and the
small-stream exactness guarantee the serving reports rely on.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import QuantileSketch
from repro.serve.metrics import percentile

QS = (50.0, 90.0, 95.0, 99.0)

floats = st.floats(min_value=-1e9, max_value=1e9,
                   allow_nan=False, allow_infinity=False)


def extend(sketch, values):
    """Fold many samples into ``sketch``, one ``add`` each."""
    for value in values:
        sketch.add(value)


def rank_of(sorted_values, x) -> float:
    """Fraction of values <= x (a value's exact quantile position)."""
    import bisect
    return bisect.bisect_right(sorted_values, x) / len(sorted_values)


def assert_rank_close(values, sketch, q, tol=0.03):
    """sketch.quantile(q) must sit within ``tol`` rank of q.

    Rank tolerance (not value tolerance) is the right yardstick:
    adversarial streams can make tiny rank errors arbitrarily large in
    value space, and vice versa.
    """
    data = sorted(values)
    got = sketch.quantile(q)
    lo = percentile(data, max(0.0, q - 100.0 * tol), presorted=True)
    hi = percentile(data, min(100.0, q + 100.0 * tol), presorted=True)
    # The band edges come from a different float grouping than the
    # sketch's interpolation; allow a last-ulp relative slop.  The
    # abs_tol floor covers subnormal streams, where halving a value in
    # the lerp underflows to 0.0 and no rel_tol can bridge the gap.
    assert (lo <= got <= hi
            or math.isclose(got, lo, rel_tol=1e-9, abs_tol=1e-300)
            or math.isclose(got, hi, rel_tol=1e-9, abs_tol=1e-300)), (
        f"q={q}: sketch {got} outside exact band [{lo}, {hi}] "
        f"(rank {rank_of(data, got):.4f})")


class TestBasics:
    def test_empty(self):
        sketch = QuantileSketch()
        assert len(sketch) == 0
        assert sketch.quantile(50.0) == 0.0

    def test_single_value(self):
        sketch = QuantileSketch()
        sketch.add(3.5)
        for q in (0.0, 50.0, 100.0):
            assert sketch.quantile(q) == 3.5

    def test_rejects_tiny_compression(self):
        with pytest.raises(ValueError):
            QuantileSketch(compression=5)

    def test_quantile_range_checked(self):
        sketch = QuantileSketch()
        sketch.add(1.0)
        with pytest.raises(ValueError):
            sketch.quantile(-1.0)
        with pytest.raises(ValueError):
            sketch.quantile(101.0)

    def test_min_max_exact(self):
        rng = random.Random(7)
        values = [rng.lognormvariate(0.0, 2.0) for _ in range(5000)]
        sketch = QuantileSketch(compression=100)
        extend(sketch, values)
        assert sketch.quantile(0.0) == min(values)
        assert sketch.quantile(100.0) == max(values)

    def test_small_streams_are_exact(self):
        """Below ~2x compression every centroid is a singleton, so the
        sketch interpolates the same order statistics percentile()
        does at the probed quantiles."""
        rng = random.Random(3)
        values = [rng.uniform(-50.0, 50.0) for _ in range(200)]
        sketch = QuantileSketch(compression=200)
        extend(sketch, values)
        data = sorted(values)
        for q in QS:
            assert sketch.quantile(q) == pytest.approx(
                percentile(data, q, presorted=True), rel=1e-9, abs=1e-9)

    def test_bounded_memory(self):
        sketch = QuantileSketch(compression=100)
        extend(sketch, (float(i % 977) for i in range(50_000)))
        sketch._compress(force=True)
        assert sketch.centroid_count <= 2 * 100
        assert len(sketch) == 50_000


class TestAccuracy:
    @given(st.lists(floats, min_size=1, max_size=2000))
    @settings(max_examples=60)
    def test_rank_accuracy_random_streams(self, values):
        sketch = QuantileSketch(compression=100)
        extend(sketch, values)
        for q in QS:
            assert_rank_close(values, sketch, q)

    @pytest.mark.parametrize("name,values", [
        ("sorted-ascending", [float(i) for i in range(8000)]),
        ("sorted-descending", [float(-i) for i in range(8000)]),
        ("constant", [42.0] * 8000),
        ("two-point-mass", [0.0] * 7000 + [1e9] * 1000),
        ("alternating-extremes", [(-1e9 if i % 2 else 1e9)
                                  for i in range(8000)]),
        ("heavy-tail", [math.exp(i % 23) for i in range(8000)]),
    ])
    def test_rank_accuracy_adversarial(self, name, values):
        sketch = QuantileSketch(compression=100)
        extend(sketch, values)
        for q in QS:
            assert_rank_close(values, sketch, q)

    def test_relative_error_10k_lognormal(self):
        """The acceptance bar: p50/p95/p99 within 1% relative error of
        exact on a 10k-sample latency-shaped stream."""
        rng = random.Random(0)
        values = [rng.lognormvariate(0.0, 1.0) for _ in range(10_000)]
        sketch = QuantileSketch(compression=200)
        extend(sketch, values)
        data = sorted(values)
        for q in (50.0, 95.0, 99.0):
            exact = percentile(data, q, presorted=True)
            got = sketch.quantile(q)
            assert abs(got - exact) / exact < 0.01, \
                f"p{q:g}: {got} vs exact {exact}"


class TestMerge:
    @given(st.lists(floats, min_size=1, max_size=600),
           st.lists(floats, min_size=1, max_size=600))
    @settings(max_examples=40)
    def test_merge_commutes_on_rank(self, a, b):
        """merge(A, B) and merge(B, A) both answer within tolerance of
        the exact combined stream (t-digest merging is not bitwise
        symmetric; its *contract* — rank accuracy — is)."""
        ab = QuantileSketch(compression=100)
        extend(ab, a)
        other_b = QuantileSketch(compression=100)
        extend(other_b, b)
        ab.merge(other_b)

        ba = QuantileSketch(compression=100)
        extend(ba, b)
        other_a = QuantileSketch(compression=100)
        extend(other_a, a)
        ba.merge(other_a)

        combined = a + b
        assert len(ab) == len(ba) == len(combined)
        for q in QS:
            assert_rank_close(combined, ab, q, tol=0.04)
            assert_rank_close(combined, ba, q, tol=0.04)

    def test_merge_matches_single_sketch_counters(self):
        rng = random.Random(11)
        values = [rng.expovariate(0.2) for _ in range(4000)]
        whole = QuantileSketch(compression=150)
        extend(whole, values)
        left = QuantileSketch(compression=150)
        extend(left, values[:1500])
        right = QuantileSketch(compression=150)
        extend(right, values[1500:])
        left.merge(right)
        assert len(left) == len(whole)
        assert left.quantile(0.0) == whole.quantile(0.0) == min(values)
        assert left.quantile(100.0) == whole.quantile(100.0) == max(values)
        for q in QS:
            assert_rank_close(values, left, q)

    def test_merge_empty_is_identity(self):
        sketch = QuantileSketch()
        extend(sketch, [1.0, 2.0, 3.0])
        before = [sketch.quantile(q) for q in (0.0, 50.0, 100.0)]
        sketch.merge(QuantileSketch())
        assert [sketch.quantile(q) for q in (0.0, 50.0, 100.0)] == before

    def test_merge_into_empty(self):
        empty = QuantileSketch()
        full = QuantileSketch()
        extend(full, [5.0, 6.0, 7.0])
        empty.merge(full)
        assert len(empty) == 3
        assert empty.quantile(50.0) == 6.0
