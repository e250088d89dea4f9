"""Pure rate derivation for co-resident kernels.

The epoch-fluid executor (:mod:`repro.gpu.device`) and the predictive
partitioner (:mod:`repro.slate.predict`) share this function: given the
set of kernels currently on the device — their SM allocations, scheduling
mode and task size — derive each kernel's steady block-completion rate:

1. roofline block service time = max(compute, issue, latency floor) plus
   the per-block scheduling overhead of the mode;
2. L2-pressure-adjusted DRAM traffic per block (locality filtering);
3. max-min fair (water-filled) DRAM bandwidth allocation across kernels;
4. block time stretched by the DRAM share; Slate rates additionally capped
   by the serialized atomic task-pull throughput.
"""

from __future__ import annotations

import enum
import itertools
from collections import OrderedDict
from dataclasses import dataclass

from repro.config import CostModel, DeviceConfig
from repro.gpu.cache import LocalityModel, dram_fraction, l2_pressure
from repro.gpu.memory import FlowDemand, waterfill

__all__ = [
    "SchedulingMode",
    "RateInput",
    "RateOutput",
    "derive_rates",
    "configure_rates_cache",
    "memo_config",
    "rate_input_signature",
    "rate_memo",
    "rates_cache_info",
    "reset_rates_cache",
    "signature_id",
]

_EPS = 1e-12


class SchedulingMode(str, enum.Enum):
    """Block scheduling regime (mirrors ExecutionMode, import-cycle-free)."""

    HARDWARE = "hardware"
    SLATE = "slate"


@dataclass(frozen=True)
class RateInput:
    """One co-resident kernel's static execution parameters."""

    key: object
    #: Per-block demands (duck-typed: any object with the KernelWork fields).
    flops_per_block: float
    bytes_per_block: float
    locality: LocalityModel
    dram_efficiency: float
    min_block_time: float
    mode: SchedulingMode
    #: Resident blocks per SM (occupancy) and SM count of the allocation.
    blocks_per_sm: int
    n_sms: int
    #: Concurrently-executing blocks: min(resident, remaining task count).
    parallelism: int
    task_size: int = 1
    inject_frac: float = 0.0
    order_factor: float = 1.0


@dataclass(frozen=True)
class RateOutput:
    """Derived steady-state execution rates for one kernel."""

    block_time: float
    #: Block completions per second.
    rate: float
    #: Fraction of DRAM demand unmet (the memory-throttle stall metric).
    throttle: float
    dram_bytes_per_block: float
    #: DRAM-side demand (bytes/s) before arbitration.
    demand: float


def _block_time_unconstrained(inp: RateInput, device: DeviceConfig, costs: CostModel) -> float:
    compute_rate = device.sm_flops / inp.blocks_per_sm
    compute = inp.flops_per_block * (1.0 + inp.inject_frac) / compute_rate
    issue_rate = device.sm_bw_limit / inp.blocks_per_sm
    issue = inp.bytes_per_block / issue_rate if inp.bytes_per_block else 0.0
    base = max(compute, issue, inp.min_block_time)
    if inp.mode is SchedulingMode.HARDWARE:
        overhead = costs.block_launch_overhead
    else:
        overhead = costs.atomic_latency / inp.task_size
    return base + overhead


class _RatesMemo:
    """Bounded memo over :func:`derive_rates`: the rate path's one result cache.

    Long traces repeat the same co-run signatures endlessly (the same
    kernels on the same SM splits), so the pure derivation is cached under
    a tuple of small interned ints: the config id of the device and cost
    model (:func:`memo_config`), then one signature id per input in input
    order (:func:`signature_id`).  An input's opaque ``key`` never enters
    it, so renamed kernels with identical physics share an entry.  Values
    are the per-position :class:`RateOutput` tuple — frozen, so sharing
    cached instances is safe.  A hit leaves the order alone: past
    ``maxsize`` the entry stored first is evicted.
    """

    __slots__ = ("maxsize", "hits", "misses", "data")

    def __init__(self, maxsize: int = 4096) -> None:
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        #: key -> outputs.  A hit is one ``data.get(key)``; whoever probes
        #: counts it (:func:`derive_rates`, or the device inline).
        self.data: OrderedDict = OrderedDict()

    def put(self, key, value) -> None:
        data = self.data
        data[key] = value
        if len(data) > self.maxsize:
            data.popitem(last=False)

    def clear(self) -> None:
        self.data.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self.data)


_MEMO = _RatesMemo()

#: Interned ids, all drawn from one counter that is never reset.  An id
#: dropped with its table is never issued again, so an id a caller kept
#: (the device keeps them on its allocation records) still names the same
#: inputs and config; it only misses until its entry is derived again.
_next_id = itertools.count(1).__next__
#: :func:`rate_input_signature` tuple -> id.  Keyed by value: nothing to
#: pin.  Past ``_SIG_LIMIT`` signatures everything interned is dropped.
_SIG_IDS: dict[tuple, int] = {}
_SIG_LIMIT = 1 << 16
#: ``(id(device), id(costs))`` -> id.  Hashing the frozen dataclasses on
#: every lookup would cost more than the rest of a probe, so the config
#: enters by identity: equal-valued but distinct objects get distinct ids
#: (they miss, never corrupt).
_CONFIG_IDS: dict[tuple[int, int], int] = {}
#: Strong references to every device and cost-model object whose ``id`` is
#: in a :data:`_CONFIG_IDS` key, so no other object can take that id while
#: the key exists.  Bounded: past ``_PIN_LIMIT`` objects the pins, both
#: intern tables and the memo entries are dropped together.
_PINS: dict[int, object] = {}
_PIN_LIMIT = 128


def _drop_interned() -> None:
    """Forget every interned id, pin and memo entry (the counters run on)."""
    _SIG_IDS.clear()
    _CONFIG_IDS.clear()
    _PINS.clear()
    _MEMO.data.clear()


def configure_rates_cache(maxsize: int | None = 4096) -> None:
    """Set the memo bound (entries). ``0``/``None`` disables memoization."""
    _MEMO.maxsize = int(maxsize) if maxsize else 0
    _MEMO.clear()


def reset_rates_cache() -> None:
    """Drop every memo entry and interned id, and zero the hit/miss counters."""
    _drop_interned()
    _MEMO.clear()


def rates_cache_info() -> dict[str, int]:
    """Module-wide memo counters: hits, misses, current and max size."""
    return {
        "hits": _MEMO.hits,
        "misses": _MEMO.misses,
        "currsize": len(_MEMO),
        "maxsize": _MEMO.maxsize,
    }


def rate_memo() -> _RatesMemo:
    """The process-wide rate memo (for a caller that probes it inline)."""
    return _MEMO


def rate_input_signature(inp: RateInput) -> tuple:
    """Flat hashable fingerprint of one input, with its opaque ``key`` dropped.

    Locality is flattened to its scalar fields, so interning hashes plain
    numbers, never dataclasses.
    """
    loc = inp.locality
    return (
        inp.flops_per_block,
        inp.bytes_per_block,
        loc.reuse_fraction,
        loc.order_sensitivity,
        loc.footprint,
        inp.dram_efficiency,
        inp.min_block_time,
        inp.mode is SchedulingMode.SLATE,
        inp.blocks_per_sm,
        inp.n_sms,
        inp.parallelism,
        inp.task_size,
        inp.inject_frac,
        inp.order_factor,
    )


def signature_id(signature: tuple) -> int:
    """The interned id of one :func:`rate_input_signature` tuple."""
    sid = _SIG_IDS.get(signature)
    if sid is None:
        if len(_SIG_IDS) >= _SIG_LIMIT:
            _drop_interned()
        sid = _SIG_IDS[signature] = _next_id()
    return sid


def memo_config(device: DeviceConfig, costs: CostModel) -> int:
    """The config id that leads every memo key for ``device`` and ``costs``.

    Pins both objects.  A caller that derives against one fixed device and
    cost model (the simulated GPU) takes it once, interns each input's
    signature once (:func:`signature_id`), and so builds a key
    ``(config id, *signature ids)`` from ints alone.
    """
    key = (id(device), id(costs))
    cid = _CONFIG_IDS.get(key)
    if cid is None:
        if len(_PINS) + 2 > _PIN_LIMIT:
            _drop_interned()
        _PINS[id(device)] = device
        _PINS[id(costs)] = costs
        cid = _CONFIG_IDS[key] = _next_id()
    return cid


def derive_rates(
    inputs: list[RateInput],
    device: DeviceConfig,
    costs: CostModel,
    stats=None,
    key: tuple[int, ...] | None = None,
) -> dict[object, RateOutput]:
    """Derive every kernel's rate given the full co-residency picture.

    The derivation is pure, so results are memoized under interned ids of
    the inputs and config (see :class:`_RatesMemo`); call
    :func:`configure_rates_cache` with ``0`` to force full derivations.

    ``key`` (optional) is the precomputed memo key
    ``(memo_config(device, costs), *signature ids of inputs)`` — the
    device builds it from ids kept on its allocation records.

    ``stats`` (optional) is an :class:`repro.sim.engine.EnvironmentStats`;
    when given, memo hits and misses are counted in its ``rate_memo_hits``
    / ``rate_memo_misses`` fields and (on a miss) the full derivation in
    ``rate_scalar_evals`` and its two water-filling passes in
    ``waterfill_calls``.  A memo hit performs no water-filling, so
    ``waterfill_calls`` stays put on hits.
    """
    memo = _MEMO
    if not memo.maxsize:
        outputs = _derive_rates_scalar(inputs, device, costs, stats)
        return {inp.key: out for inp, out in zip(inputs, outputs)}
    if key is None:
        key = (
            memo_config(device, costs),
            *[signature_id(rate_input_signature(i)) for i in inputs],
        )
    outputs = memo.data.get(key)
    if outputs is not None:
        memo.hits += 1
        if stats is not None:
            stats.rate_memo_hits += 1
    else:
        memo.misses += 1
        if stats is not None:
            stats.rate_memo_misses += 1
        outputs = _derive_rates_scalar(inputs, device, costs, stats)
        memo.put(key, outputs)
    return {inp.key: out for inp, out in zip(inputs, outputs)}


def _derive_rates_scalar(
    inputs: list[RateInput],
    device: DeviceConfig,
    costs: CostModel,
    stats=None,
) -> tuple[RateOutput, ...]:
    """One full derivation; outputs in input order."""
    if stats is not None:
        stats.rate_scalar_evals += 1
        stats.waterfill_calls += 2
    total_footprint = sum(i.locality.footprint for i in inputs)

    bt0: dict[object, float] = {}
    dram_pb: dict[object, float] = {}
    flows: list[FlowDemand] = []
    for inp in inputs:
        others = total_footprint - inp.locality.footprint
        pressure = l2_pressure(inp.locality.footprint, others, device.l2_capacity)
        frac = dram_fraction(inp.locality, inp.order_factor, pressure)
        dram_pb[inp.key] = inp.bytes_per_block * frac
        bt = _block_time_unconstrained(inp, device, costs)
        bt0[inp.key] = bt
        demand = inp.parallelism * (dram_pb[inp.key] / inp.dram_efficiency) / bt
        flows.append(FlowDemand(inp.key, demand))

    # First-pass allocation, then apply DRAM stream-interference: each
    # kernel's effective efficiency drops with the fraction of DRAM traffic
    # the *other* kernels move (row-buffer locality lost to interleaving).
    alloc0 = waterfill(flows, device.dram_bandwidth)
    penalty = costs.dram_interference_penalty
    eff_scale: dict[object, float] = {}
    for inp in inputs:
        other_traffic = sum(v for k, v in alloc0.items() if k != inp.key)
        other_frac = min(1.0, other_traffic / device.dram_bandwidth)
        eff_scale[inp.key] = max(0.1, 1.0 - penalty * other_frac)
    flows = [
        FlowDemand(f.key, f.demand / eff_scale[f.key]) for f in flows
    ]
    alloc = waterfill(flows, device.dram_bandwidth)
    demands = {f.key: f.demand for f in flows}

    outputs: list[RateOutput] = []
    for inp in inputs:
        base = bt0[inp.key]
        demand = demands[inp.key]
        allocated = alloc[inp.key]
        if demand > _EPS and allocated > _EPS:
            effective_efficiency = inp.dram_efficiency * eff_scale[inp.key]
            dram_time = (
                (dram_pb[inp.key] / effective_efficiency) * inp.parallelism / allocated
            )
            block_time = max(base, dram_time)
        else:
            block_time = base
        rate = inp.parallelism / block_time
        if inp.mode is SchedulingMode.SLATE:
            rate = min(rate, inp.task_size / costs.atomic_service_time)
        throttle = (
            max(0.0, 1.0 - allocated / demand) if demand > _EPS else 0.0
        )
        outputs.append(
            RateOutput(
                block_time=block_time,
                rate=rate,
                throttle=throttle,
                dram_bytes_per_block=dram_pb[inp.key],
                demand=demand,
            )
        )
    return tuple(outputs)
