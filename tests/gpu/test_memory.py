"""Water-filling bandwidth allocation tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gpu.memory import FlowDemand, waterfill


class TestWaterfillUnit:
    def test_single_flow_under_capacity(self):
        alloc = waterfill([FlowDemand("a", 100.0)], 500.0)
        assert alloc["a"] == pytest.approx(100.0)

    def test_single_flow_over_capacity(self):
        alloc = waterfill([FlowDemand("a", 900.0)], 500.0)
        assert alloc["a"] == pytest.approx(500.0)

    def test_two_equal_flows_split_evenly(self):
        alloc = waterfill([FlowDemand("a", 400.0), FlowDemand("b", 400.0)], 500.0)
        assert alloc["a"] == pytest.approx(250.0)
        assert alloc["b"] == pytest.approx(250.0)

    def test_small_flow_satisfied_rest_to_big(self):
        alloc = waterfill([FlowDemand("small", 50.0), FlowDemand("big", 900.0)], 500.0)
        assert alloc["small"] == pytest.approx(50.0)
        assert alloc["big"] == pytest.approx(450.0)

    def test_three_way_redistribution(self):
        flows = [FlowDemand("a", 10.0), FlowDemand("b", 100.0), FlowDemand("c", 1000.0)]
        alloc = waterfill(flows, 300.0)
        assert alloc["a"] == pytest.approx(10.0)
        # Remaining 290 split: b wants 100 < 145, satisfied; c gets the rest.
        assert alloc["b"] == pytest.approx(100.0)
        assert alloc["c"] == pytest.approx(190.0)

    def test_zero_demand_flow_gets_zero(self):
        alloc = waterfill([FlowDemand("z", 0.0), FlowDemand("a", 100.0)], 50.0)
        assert alloc["z"] == 0.0
        assert alloc["a"] == pytest.approx(50.0)

    def test_empty_flow_list(self):
        assert waterfill([], 100.0) == {}

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            waterfill([FlowDemand("a", 1.0), FlowDemand("a", 2.0)], 10.0)

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            FlowDemand("a", -1.0)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            waterfill([], -1.0)


demand_lists = st.lists(
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
    min_size=1,
    max_size=20,
)


@given(demands=demand_lists, capacity=st.floats(min_value=1.0, max_value=1e12))
def test_waterfill_never_exceeds_demand_or_capacity(demands, capacity):
    flows = [FlowDemand(i, d) for i, d in enumerate(demands)]
    alloc = waterfill(flows, capacity)
    tol = 1e-6 * max(capacity, 1.0)
    for f in flows:
        assert alloc[f.key] <= f.demand + tol
    assert sum(alloc.values()) <= capacity + tol


@given(demands=demand_lists, capacity=st.floats(min_value=1.0, max_value=1e12))
def test_waterfill_is_work_conserving(demands, capacity):
    """Allocations total min(capacity, total demand)."""
    flows = [FlowDemand(i, d) for i, d in enumerate(demands)]
    alloc = waterfill(flows, capacity)
    expected = min(capacity, sum(demands))
    assert sum(alloc.values()) == pytest.approx(expected, rel=1e-6, abs=1e-3)


@given(demands=demand_lists, capacity=st.floats(min_value=1.0, max_value=1e12))
def test_waterfill_is_max_min_fair(demands, capacity):
    """Every throttled flow gets >= every other flow's allocation - tol."""
    flows = [FlowDemand(i, d) for i, d in enumerate(demands)]
    alloc = waterfill(flows, capacity)
    tol = 1e-6 * max(capacity, 1.0) + 1e-9
    throttled = [f for f in flows if alloc[f.key] < f.demand - tol]
    for t in throttled:
        for other in flows:
            assert alloc[t.key] >= alloc[other.key] - tol
