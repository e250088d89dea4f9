"""Wide co-runs: rate derivation over an input vector of co-resident kernels.

``derive_rates`` serves every co-run width through one evaluator,
``_derive_rates_scalar`` (the reference semantics), behind one memo.  The
experiment goldens and decision traces are byte-frozen, so the memoized
public path must reproduce the reference *bits* for input vectors as wide
as any committed workload co-runs (4) and wider: on the miss that derives
them, and on a later hit under renamed keys (memo keys are positionised).
Every comparison is ``==`` on raw float bits, never ``approx``.
"""

import dataclasses
import random
import struct

import pytest

from repro.config import TITAN_XP, CostModel
from repro.gpu.cache import LocalityModel
from repro.gpu.rates import (
    RateInput,
    SchedulingMode,
    _derive_rates_scalar,
    configure_rates_cache,
    derive_rates,
    rates_cache_info,
    reset_rates_cache,
)

COSTS = CostModel()


@pytest.fixture(autouse=True)
def fresh_cache():
    reset_rates_cache()
    yield
    configure_rates_cache(4096)


def random_input(rng: random.Random, key: int) -> RateInput:
    slate = rng.random() < 0.5
    return RateInput(
        key=key,
        flops_per_block=rng.uniform(0, 5e7) if rng.random() < 0.9 else 0.0,
        bytes_per_block=rng.uniform(0, 2e6) if rng.random() < 0.9 else 0.0,
        locality=LocalityModel(
            reuse_fraction=rng.uniform(0.0, 1.0),
            order_sensitivity=rng.uniform(0.0, 1.0),
            footprint=rng.choice([0.0, rng.uniform(0, 8e6)]),
        ),
        dram_efficiency=rng.uniform(0.3, 1.0),
        min_block_time=rng.choice([0.0, rng.uniform(0, 1e-5)]),
        mode=SchedulingMode.SLATE if slate else SchedulingMode.HARDWARE,
        blocks_per_sm=rng.randint(1, 32),
        n_sms=rng.randint(1, 30),
        parallelism=rng.randint(1, 480),
        task_size=rng.randint(1, 64) if slate else 1,
        inject_frac=rng.choice([0.0, rng.uniform(0, 0.5)]),
        order_factor=rng.choice([0.25, 1.0, rng.uniform(0, 1)]),
    )


def reference(inputs):
    """The scalar evaluator's outputs, keyed like ``derive_rates``'."""
    outputs = _derive_rates_scalar(inputs, TITAN_XP, COSTS)
    return {inp.key: out for inp, out in zip(inputs, outputs)}


def assert_outputs_bit_equal(a, b):
    assert a.keys() == b.keys()
    for key in a:
        for field in ("block_time", "rate", "throttle", "dram_bytes_per_block", "demand"):
            va, vb = getattr(a[key], field), getattr(b[key], field)
            assert va == vb, f"{field} mismatch for {key}: {va!r} != {vb!r}"
            # Same bits, not merely numerically close (catches -0.0 drift).
            assert struct.pack("<d", va) == struct.pack("<d", vb)


def assert_memo_reproduces_reference(inputs):
    """Miss, then renamed-key hit: both carry the reference bits."""
    expect = reference(inputs)
    assert_outputs_bit_equal(derive_rates(inputs, TITAN_XP, COSTS), expect)
    renamed = [dataclasses.replace(inp, key=("renamed", inp.key)) for inp in inputs]
    hit = derive_rates(renamed, TITAN_XP, COSTS)
    assert_outputs_bit_equal({key[1]: out for key, out in hit.items()}, expect)
    info = rates_cache_info()
    assert (info["hits"], info["misses"]) == (1, 1)


@pytest.mark.parametrize("width", [4, 5, 8, 16])
@pytest.mark.parametrize("seed", range(8))
def test_vector_matches_scalar_bitwise(width, seed):
    rng = random.Random(1000 * width + seed)
    assert_memo_reproduces_reference([random_input(rng, k) for k in range(width)])


def test_vector_matches_scalar_on_identical_inputs():
    """Equal-demand flows exercise the waterfill tie branches."""
    proto = random_input(random.Random(7), 0)
    assert_memo_reproduces_reference(
        [dataclasses.replace(proto, key=k) for k in range(6)]
    )


def test_vector_zero_demand_lane():
    """A pure-compute kernel (zero DRAM demand) inside a wide co-run."""
    rng = random.Random(11)
    inputs = [random_input(rng, k) for k in range(4)]
    inputs[2] = dataclasses.replace(
        inputs[2], bytes_per_block=0.0, locality=LocalityModel()
    )
    assert_memo_reproduces_reference(inputs)


def test_invalid_order_factor_raises_scalar_error():
    """Out-of-range inputs raise the evaluator's error and memoize nothing."""
    rng = random.Random(9)
    inputs = [random_input(rng, k) for k in range(4)]
    inputs[1] = dataclasses.replace(inputs[1], order_factor=1.5)
    for _ in range(2):
        with pytest.raises(ValueError, match="order_factor must be in"):
            derive_rates(inputs, TITAN_XP, COSTS)
    assert rates_cache_info()["currsize"] == 0


def test_derive_rates_end_to_end_width_sweep():
    """Public API: memoized calls of every width agree with the evaluator."""
    rng = random.Random(21)
    for width in range(1, 9):
        inputs = [random_input(rng, k) for k in range(width)]
        reset_rates_cache()
        assert_outputs_bit_equal(derive_rates(inputs, TITAN_XP, COSTS), reference(inputs))
