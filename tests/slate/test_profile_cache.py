"""Property-based tests for profile persistence and the on-disk cache.

Two invariants the caching layer stands on:

* serialization is **lossless** — a profile that round-trips through
  :class:`ProfileCache` compares equal, floats bit for bit (JSON's
  shortest-repr float encoding);
* cache keys are **exact** — any change to the kernel spec, device or
  cost model fingerprints to a different key, so hits can never be stale.
"""

import enum
import hashlib
import json
import tempfile
from dataclasses import dataclass, fields, is_dataclass
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import config
from repro.cache import JsonCache
from repro.config import CostModel, TITAN_XP, fingerprint
from repro.gpu.occupancy import BlockResources
from repro.kernels.kernel import GridDim, KernelSpec
from repro.slate.classify import IntensityClass
from repro.slate.profiler import KernelProfile, ProfileCache

finite = st.floats(
    min_value=0.0, max_value=1e15, allow_nan=False, allow_infinity=False
)

profiles = st.builds(
    KernelProfile,
    name=st.text(
        alphabet=st.characters(whitelist_categories=("L", "N"), max_codepoint=0x2FF),
        min_size=1,
        max_size=16,
    ),
    gflops=finite,
    mem_bw=finite,
    throttle_fraction=st.floats(
        min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
    ),
    intensity=st.sampled_from(IntensityClass),
    elapsed=finite,
)


def spec_for(name: str) -> KernelSpec:
    return KernelSpec(
        name=name,
        grid=GridDim(64),
        block=BlockResources(128),
        flops_per_block=1e6,
        bytes_per_block=1e5,
    )


class TestProfileRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(profile=profiles)
    def test_profile_cache_round_trip_is_lossless(self, profile):
        spec, costs = spec_for("synthetic"), CostModel()
        with tempfile.TemporaryDirectory() as tmp:
            cache = ProfileCache(root=tmp, enabled=True)
            cache.put(profile, spec, TITAN_XP, costs, 10, "device")
            assert cache.get(spec, TITAN_XP, costs, 10, "device") == profile
            # Any key ingredient change misses instead of serving this entry.
            assert cache.get(spec, TITAN_XP, costs, 11, "device") is None
            assert cache.get(spec, TITAN_XP, costs, 10, "per_sm") is None
            assert cache.get(spec.scaled(0.5), TITAN_XP, costs, 10, "device") is None

    def test_undecodable_entry_is_simulated_once(self, tmp_path):
        """A profile file that parses but no longer decodes (an older
        payload shape) is re-simulated and rewritten by the first call;
        the later calls read the rewritten file."""
        from repro.slate import profiler

        spec, costs = spec_for("synthetic"), CostModel()
        key = ProfileCache._key(spec, TITAN_XP, costs, 10, "device")
        JsonCache(root=tmp_path, enabled=True).put({"name": "x"}, *key)
        cache = ProfileCache(root=tmp_path, enabled=True)
        before = profiler.PROFILE_SIMULATIONS.value
        results = [
            profiler.offline_profile(spec, TITAN_XP, costs, cache=cache)
            for _ in range(4)
        ]
        assert profiler.PROFILE_SIMULATIONS.value - before == 1
        assert results.count(results[0]) == 4


class TestJsonCacheProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        payload=st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.floats(allow_nan=False, allow_infinity=False) | st.integers() | st.text(max_size=8),
            max_size=6,
        ),
        key=st.lists(st.integers() | st.text(max_size=8), min_size=1, max_size=4),
    )
    def test_put_get_round_trip(self, payload, key):
        with tempfile.TemporaryDirectory() as tmp:
            cache = JsonCache(root=tmp, enabled=True)
            cache.put(payload, *key)
            assert cache.path_for(*key).parent == cache.directory
            assert cache.directory.name == "profiles"
            assert cache.get(*key) == payload

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = JsonCache(root=tmp_path, enabled=True)
        cache.put({"x": 1}, "k")
        path = cache.path_for("k")
        path.write_text("{not json")
        assert cache.get("k") is None
        assert not path.exists()
        # The miss kept nothing: a later put is read back.
        cache.put({"x": 2}, "k")
        assert cache.get("k") == {"x": 2}

    def test_file_is_read_once(self, tmp_path):
        cache = JsonCache(root=tmp_path, enabled=True)
        cache.put({"x": 1}, "k")
        first = cache.get("k")
        assert first == {"x": 1}
        cache.path_for("k").unlink()
        # The payload read from disk is kept: the key is still a hit, and
        # the same object.
        assert cache.get("k") is first
        # Another instance reads the disk, where the entry is gone.
        assert JsonCache(root=tmp_path, enabled=True).get("k") is None

    def test_put_does_not_fill_the_kept_store(self, tmp_path):
        cache = JsonCache(root=tmp_path, enabled=True)
        cache.put({"x": 1}, "k")
        cache.path_for("k").unlink()
        assert cache.get("k") is None
        # A put after a get drops the kept payload: the next get reads the
        # new file.
        cache.put({"x": 1}, "k")
        assert cache.get("k") == {"x": 1}
        cache.put({"x": 2}, "k")
        assert cache.get("k") == {"x": 2}


class TestFingerprint:
    def test_stable_across_calls_and_processes(self):
        # Pure function of the canonical JSON: pin values so an accidental
        # canonicalization change (which would re-key every on-disk cache)
        # shows up here.  Each is checked twice, because a frozen config
        # keeps its rendering after the first call.
        from repro.kernels.registry import by_name

        pinned = {
            ("x", 1, 2.5): "62f375df9f780eb3c890db25",
            (TITAN_XP,): "9a07c322be65ab639c45f31f",
            (CostModel(),): "a6fd790b3ae9854d5bb8b09e",
            (
                "offline_profile", by_name("BS"), TITAN_XP, CostModel(), 10, "device",
            ): "b0b6f14dd9a21fb5491f516b",
        }
        for parts, digest in pinned.items():
            assert fingerprint(*parts) == digest
            assert fingerprint(*parts) == digest

    def test_mutable_config_is_rendered_afresh(self):
        # PolicyTable has a dict field, so its rendering is never kept.
        from repro.slate.classify import IntensityClass as C
        from repro.slate.policy import PolicyTable

        policy = PolicyTable(table={(C.H_C, C.H_M): "corun"})
        before = fingerprint(policy)
        policy.table[(C.H_C, C.H_M)] = "solo"
        assert fingerprint(policy) != before

    def test_sensitive_to_every_dataclass_field(self):
        from dataclasses import replace

        base = fingerprint(TITAN_XP)
        assert fingerprint(replace(TITAN_XP, num_sms=29)) != base
        assert fingerprint(replace(TITAN_XP, sm_bw_limit=60.8001e9)) != base
        assert fingerprint(CostModel()) != base  # different type, same-ish shape

    def test_float_exactness_through_json(self):
        # JSON round-trips doubles exactly via shortest repr — the property
        # byte-identical cached results depend on.
        for value in (0.1, 1 / 3, 547.6e9, 2**-52):
            assert json.loads(json.dumps(value)) == value


def dict_rendering(obj):
    """The rendering a fingerprint hashed before frozen configs kept their
    JSON text: the reference the kept text must match byte for byte."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__class__": type(obj).__name__,
            **{f.name: dict_rendering(getattr(obj, f.name)) for f in fields(obj)},
        }
    if isinstance(obj, enum.Enum):
        return [type(obj).__name__, obj.value]
    if isinstance(obj, dict):
        return {str(k): dict_rendering(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset, range)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [dict_rendering(v) for v in items]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return repr(obj)


def reference_json(obj) -> str:
    return json.dumps(dict_rendering(obj), sort_keys=True, separators=(",", ":"))


class Shade(enum.Enum):
    DARK = "dark"
    LIGHT = 2


@dataclass(frozen=True)
class Leaf:
    x: float
    name: str
    flag: bool
    n: int
    shade: Optional[Shade]


@dataclass(frozen=True)
class Node:
    leaf: Leaf
    pair: tuple
    ids: frozenset
    z: float = 0.0


@dataclass(frozen=True)
class FrozenHolder:
    """Frozen, but its dict field does not hash: rendered on every call."""

    table: dict
    node: Node


@dataclass
class MutableHolder:
    node: Node
    values: list


_floats = st.floats(allow_nan=True, allow_infinity=True)
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), _floats, st.text(max_size=6),
    st.sampled_from(Shade),
)
_keys = st.one_of(st.text(max_size=4), st.integers(-3, 3), st.sampled_from(Shade))
_leaves = st.builds(
    Leaf, x=_floats, name=st.text(max_size=6), flag=st.booleans(),
    n=st.integers(), shade=st.none() | st.sampled_from(Shade),
)
_nodes = st.builds(
    Node, leaf=_leaves, pair=st.tuples(_scalars, _scalars),
    ids=st.frozensets(st.integers(), max_size=4), z=_floats,
)
_values = st.recursive(
    _scalars | _leaves | _nodes,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.tuples(children, children),
        st.dictionaries(_keys, children, max_size=3),
        st.builds(
            FrozenHolder, table=st.dictionaries(_keys, children, max_size=3),
            node=_nodes,
        ),
        st.builds(MutableHolder, node=_nodes, values=st.lists(children, max_size=3)),
    ),
    max_leaves=12,
)


class TestKeptText:
    @settings(max_examples=200, deadline=None)
    @given(parts=st.lists(_values, max_size=4))
    def test_kept_text_equals_json_of_the_dict_rendering(self, parts):
        """Every part renders to the reference text, on the first call and
        again from what a frozen config kept, so every digest and on-disk
        key is the one the dict rendering gave."""
        expected = [reference_json(p) for p in parts]
        payload = json.dumps(
            [dict_rendering(p) for p in parts], sort_keys=True, separators=(",", ":")
        )
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]
        for _ in range(2):
            assert [config._canonical(p) for p in parts] == expected
            assert fingerprint(*parts) == digest

    def test_only_frozen_hashable_dataclasses_keep_text(self):
        leaf = Leaf(0.5, "a", True, 3, Shade.DARK)
        node = Node(leaf, (1, "x"), frozenset({2, 1}))
        holders = (FrozenHolder({"k": 1}, node), MutableHolder(node, [1.5]))
        fingerprint(node, *holders)
        assert node.__dict__["_canonical"] == reference_json(node)
        assert leaf.__dict__["_canonical"] == reference_json(leaf)
        for holder in holders:
            assert "_canonical" not in holder.__dict__
