"""Multi-GPU fleet tests: the placement book and the shards it places on."""

import functools

import pytest

from repro.config import TESLA_V100
from repro.experiments.cluster_study import run_on_fleet
from repro.kernels import blackscholes, gaussian, quasirandom
from repro.slate.classify import IntensityClass as C
from repro.slate.placement import PlacementBook, Shard
from repro.workloads.app import AppSpec


@functools.cache
def _default_shard() -> Shard:
    """A default-configured shard, which classifies hints for its fleet."""
    return Shard(0)


def place(book, name, hint=None):
    """Place and note one session as ``hello`` does; returns its shard."""
    candidate = _default_shard().classify(hint)
    index, _ = book.place(candidate)
    book.note_open(index, name, candidate)
    return index


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            PlacementBook(0)
        with pytest.raises(ValueError):
            PlacementBook(2, placement="random")

    def test_independent_devices(self):
        shards = [Shard(i) for i in range(3)]
        assert len({id(shard.env) for shard in shards}) == 3
        assert len({id(shard.runtime.gpu) for shard in shards}) == 3


class TestShardClassify:
    def test_classifies_with_its_runtime_settings(self):
        """A shard classifies a hint from the profile its own runtime
        would take (device, cost model, basis), not a default one."""
        shard = Shard(0, device=TESLA_V100, classification_basis="per_sm")
        for name in ("GS", "MM", "TR"):
            assert shard.classify(name) is C.M_M
            assert shard.classify(name) is shard.runtime.profiles.get(name).intensity
        assert shard.classify(None) is None

    def test_classify_writes_no_profile(self):
        """Only ``open_session`` preloads a hint into the runtime's table."""
        shard = Shard(0)
        assert "KM" not in shard.runtime.profiles
        assert shard.classify("KM") is not None
        assert "KM" not in shard.runtime.profiles
        shard.open_session("km-app", kernel_hint="KM")
        assert "KM" in shard.runtime.profiles


class TestPlacementPolicies:
    def test_round_robin_cycles(self):
        book = PlacementBook(2, placement="round-robin")
        assert [place(book, name) for name in "abcd"] == [0, 1, 0, 1]

    def test_least_loaded_balances(self):
        book = PlacementBook(2, placement="least-loaded")
        a = place(book, "a", "BS")
        b = place(book, "b", "BS")
        assert a != b
        # Closing releases the slot.
        book.note_close(a, "a")
        assert place(book, "c", "BS") == a

    def test_class_aware_separates_memory_hogs(self):
        """Two memory kernels land on different devices; the light RG
        joins a memory tenant it complements."""
        book = PlacementBook(2, placement="contention")
        assert place(book, "bs-app", "BS") != place(book, "tr-app", "TR")
        # RG is compatible with both; both have one resident, so it lands
        # on the first compatible device.
        assert place(book, "rg-app", "RG") in (0, 1)

    def test_class_aware_without_hint_falls_back(self):
        book = PlacementBook(2, placement="contention")
        assert place(book, "anon") == 0

    @pytest.mark.parametrize("placement", ["least-loaded", "contention"])
    def test_sessions_without_hints_spread_by_load(self, placement):
        """Every open session counts toward a shard's load, hinted or
        not: four hint-less sessions alternate over two shards, and a
        closed one frees its slot."""
        book = PlacementBook(2, placement=placement)
        assert [place(book, name) for name in "abcd"] == [0, 1, 0, 1]
        assert [shard.load for shard in book.shards] == [2, 2]
        book.note_close(1, "b")
        assert book.shards[1].load == 1
        assert place(book, "e") == 1

    def test_class_aware_counts_hintless_sessions_in_its_load(self):
        """A hint-less session adds load but no class: an L_C kernel that
        complements nothing avoids the shard it makes busier."""
        book = PlacementBook(2, placement="contention")
        assert place(book, "anon") == 0
        assert place(book, "rg-app", "RG") == 1


class TestEndToEnd:
    def make_apps(self):
        return [
            AppSpec(name="pricing", kernel=blackscholes(), reps=4),
            AppSpec(name="mc1", kernel=quasirandom(), reps=4),
            AppSpec(name="solver", kernel=gaussian(), reps=4),
            AppSpec(name="mc2", kernel=quasirandom(num_blocks=48_000), reps=4),
        ]

    def test_four_apps_two_gpus_class_aware(self):
        results, placed, shards = run_on_fleet(self.make_apps(), "contention")
        assert len(results) == 4
        # The two memory-intensive apps ended on different devices.
        assert placed[0] != placed[2]
        # Each device co-ran its (memory, light) pair.
        assert sum(s.runtime.scheduler.corun_launches for s in shards) >= 4

    def test_class_aware_beats_round_robin_on_adversarial_order(self):
        """Arrival order BS, RG, GS, RG: round-robin lands both memory
        hogs (BS, GS) on device 0 and both RGs on device 1; class-aware
        pairs each hog with a light kernel and wins on makespan."""
        apps = [
            AppSpec(name="bs", kernel=blackscholes(), reps=5),
            AppSpec(name="rg1", kernel=quasirandom(), reps=5),
            AppSpec(name="gs", kernel=gaussian(), reps=5),
            AppSpec(name="rg2", kernel=quasirandom(num_blocks=48_000), reps=5),
        ]
        rr, rr_placed, _ = run_on_fleet(apps, "round-robin")
        ca, ca_placed, _ = run_on_fleet(apps, "contention")
        # Round-robin co-locates the hogs on this order; class-aware splits.
        assert rr_placed[0] == rr_placed[2]
        assert ca_placed[0] != ca_placed[2]
        assert max(r.end for r in ca) < 0.95 * max(r.end for r in rr)

    def test_single_device_cluster_equals_plain_runtime(self):
        results, placed, shards = run_on_fleet(
            self.make_apps()[:2], "contention", num_shards=1
        )
        assert placed == [0, 0]
        assert shards[0].runtime.scheduler.corun_launches >= 1
        assert len(results) == 2
