"""Property tests for the log-bucketed histogram.

These pin the quantile error bound and the wire round-trip (a client
rebuilds the daemon's exact distribution from ``state()``) with
hypothesis-generated streams, including the edge cases a latency stream
actually produces: empty histograms, single values, zeros, negatives,
and values past the clamp range.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import Histogram

# Latency-like positive magnitudes, spanning the representable range and
# a little past it (forcing index clamping at both ends).
positive_values = st.floats(
    min_value=1e-12, max_value=1e12, allow_nan=False, allow_infinity=False
)
# Within the clamp range [GROWTH**MIN_INDEX, GROWTH**MAX_INDEX]: the
# one-bucket error bound only holds where no index clamping occurs.
representable_values = st.floats(
    min_value=1e-9, max_value=1e9, allow_nan=False, allow_infinity=False
)
# Anything observable: zeros and negatives land in the zero bucket.
any_values = st.floats(
    min_value=-1e9, max_value=1e12, allow_nan=False, allow_infinity=False
)
streams = st.lists(any_values, max_size=200)
quantiles = st.sampled_from([0.01, 0.25, 0.50, 0.90, 0.99, 0.999])


def build(values, name="h"):
    h = Histogram(name)
    for v in values:
        h.observe(v)
    return h


class TestQuantileAccuracy:
    @given(st.lists(representable_values, min_size=1, max_size=200), quantiles)
    @settings(max_examples=200, deadline=None)
    def test_quantile_within_bucket_error_of_true_percentile(self, xs, q):
        """The estimate lands in the same bucket as the true order
        statistic, so it is within one GROWTH factor (~19%)."""
        h = build(xs)
        est = h.quantile(q)
        ordered = sorted(xs)
        k = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered) - 1e-9) - 1))
        true = ordered[k]
        # One bucket of relative error, with epsilon slack for the float
        # boundary between adjacent buckets.
        bound = Histogram.GROWTH * (1 + 1e-9)
        assert true / bound <= est <= true * bound

    @given(st.lists(positive_values, min_size=1, max_size=200), quantiles)
    @settings(max_examples=100, deadline=None)
    def test_quantile_clamped_to_observed_range(self, xs, q):
        h = build(xs)
        assert h.min <= h.quantile(q) <= h.max

    @given(st.lists(positive_values, min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_quantile_monotone_in_q(self, xs):
        h = build(xs)
        qs = [0.0, 0.1, 0.5, 0.9, 0.99, 1.0]
        estimates = [h.quantile(q) for q in qs]
        assert estimates == sorted(estimates)


class TestEdges:
    def test_empty_histogram(self):
        h = Histogram("h")
        assert h.count == 0
        assert h.quantile(0.5) == 0.0
        assert h.state()["buckets"] == {}

    def test_single_value_every_quantile_is_that_value(self):
        h = build([0.125])
        for q in (0.0, 0.01, 0.5, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(0.125)

    def test_zero_and_negative_values_use_zero_bucket(self):
        h = build([0.0, -3.0, 5.0])
        assert h.zero_count == 2
        assert sum(h.buckets.values()) == 1
        assert h.min == -3.0
        # The zero bucket covers the p50 target; negatives clamp there.
        assert h.quantile(0.5) == -3.0

    def test_overflow_clamps_and_counts(self):
        huge = 1e30
        h = build([huge])
        assert h.overflow == 1
        assert h.buckets == {Histogram.MAX_INDEX: 1}
        # Clamping to max keeps the estimate truthful anyway.
        assert h.quantile(0.9) == huge

    def test_underflow_clamps_low_without_overflow_count(self):
        h = build([1e-40])
        assert h.overflow == 0
        assert h.buckets == {Histogram.MIN_INDEX: 1}

    @given(streams)
    @settings(max_examples=100, deadline=None)
    def test_state_round_trips(self, xs):
        h = build(xs)
        clone = Histogram.from_state("h", h.state())
        assert clone.state() == h.state()
        # And the clone quantiles like the original.
        assert clone.quantile(0.9) == h.quantile(0.9)

    def test_state_survives_json(self):
        import json

        h = build([0.001, 0.5, 3.0, 3.0, 700.0])
        wired = json.loads(json.dumps(h.state()))
        assert Histogram.from_state("h", wired).state() == h.state()
