"""Multi-GPU cluster placement tests."""

import pytest

from repro.kernels import blackscholes, gaussian, quasirandom, transpose
from repro.sim import Environment
from repro.slate.cluster import SlateCluster
from repro.workloads.app import AppSpec, run_application


def run_cluster_apps(cluster, specs, reps=4):
    """Run one app per spec through the cluster; returns results by name."""
    env = cluster.env
    procs = []
    for spec in specs:
        session = cluster.create_session(spec.name, spec_hint=spec.kernel)
        procs.append(
            env.process(
                run_application(env, session, spec, cluster.runtime(0).costs)
            )
        )
    env.run(until=env.all_of(procs))
    return {p.value.name: p.value for p in procs}


class TestConstruction:
    def test_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            SlateCluster(env, num_devices=0)
        with pytest.raises(ValueError):
            SlateCluster(env, placement="random")

    def test_independent_devices(self):
        env = Environment()
        cluster = SlateCluster(env, num_devices=3)
        assert cluster.num_devices == 3
        gpus = {id(cluster.runtime(i).gpu) for i in range(3)}
        assert len(gpus) == 3


class TestPlacementPolicies:
    def test_round_robin_cycles(self):
        env = Environment()
        cluster = SlateCluster(env, num_devices=2, placement="round-robin")
        for i, name in enumerate("abcd"):
            cluster.create_session(name)
        assert [cluster.placements[n] for n in "abcd"] == [0, 1, 0, 1]

    def test_least_loaded_balances(self):
        env = Environment()
        cluster = SlateCluster(env, num_devices=2, placement="least-loaded")
        bs = blackscholes()
        cluster.preload_profiles([bs])
        s1 = cluster.create_session("a", spec_hint=bs)
        s2 = cluster.create_session("b", spec_hint=bs)
        assert cluster.placements["a"] != cluster.placements["b"]
        # Closing releases the slot.
        s1.close()
        cluster.create_session("c", spec_hint=bs)
        assert cluster.placements["c"] == cluster.placements["a"]

    def test_class_aware_separates_memory_hogs(self):
        """Two memory kernels land on different devices; the light RG
        joins a memory tenant it complements."""
        env = Environment()
        cluster = SlateCluster(env, num_devices=2, placement="class-aware")
        bs, tr, rg = blackscholes(), transpose(), quasirandom()
        cluster.preload_profiles([bs, tr, rg])
        cluster.create_session("bs-app", spec_hint=bs)
        cluster.create_session("tr-app", spec_hint=tr)
        assert cluster.placements["bs-app"] != cluster.placements["tr-app"]
        cluster.create_session("rg-app", spec_hint=rg)
        # RG is compatible with both; it joins the less loaded... both have
        # one resident, so it lands on the first compatible device.
        assert cluster.placements["rg-app"] in (0, 1)

    def test_class_aware_without_hint_falls_back(self):
        env = Environment()
        cluster = SlateCluster(env, num_devices=2, placement="class-aware")
        cluster.create_session("anon")
        assert cluster.placements["anon"] == 0

    @pytest.mark.parametrize("placement", ["least-loaded", "class-aware"])
    def test_sessions_without_hints_spread_by_load(self, placement):
        """Every open session counts toward a device's load, hinted or
        not, as in the serving router: four hint-less sessions alternate
        over two devices, and a closed one frees its slot."""
        env = Environment()
        cluster = SlateCluster(env, num_devices=2, placement=placement)
        sessions = [cluster.create_session(name) for name in "abcd"]
        assert [cluster.placements[n] for n in "abcd"] == [0, 1, 0, 1]
        assert [cluster.load(i) for i in (0, 1)] == [2, 2]
        sessions[1].close()
        assert cluster.load(1) == 1
        cluster.create_session("e")
        assert cluster.placements["e"] == 1

    def test_class_aware_counts_hintless_sessions_in_its_load(self):
        """A hint-less session adds load but no class: an L_C kernel that
        complements nothing avoids the device it makes busier."""
        env = Environment()
        cluster = SlateCluster(env, num_devices=2, placement="class-aware")
        rg = quasirandom()
        cluster.preload_profiles([rg])
        cluster.create_session("anon")
        cluster.create_session("rg-app", spec_hint=rg)
        assert cluster.placements["anon"] == 0
        assert cluster.placements["rg-app"] == 1


class TestEndToEnd:
    def make_apps(self):
        return [
            AppSpec(name="pricing", kernel=blackscholes(), reps=4),
            AppSpec(name="mc1", kernel=quasirandom(), reps=4),
            AppSpec(name="solver", kernel=gaussian(), reps=4),
            AppSpec(name="mc2", kernel=quasirandom(num_blocks=48_000), reps=4),
        ]

    def test_four_apps_two_gpus_class_aware(self):
        env = Environment()
        cluster = SlateCluster(env, num_devices=2, placement="class-aware")
        apps = self.make_apps()
        cluster.preload_profiles([a.kernel for a in apps])
        results = run_cluster_apps(cluster, apps)
        assert len(results) == 4
        # The two memory-intensive apps ended on different devices.
        assert cluster.placements["pricing"] != cluster.placements["solver"]
        # Each device co-ran its (memory, light) pair.
        total_coruns = sum(
            cluster.runtime(i).scheduler.corun_launches for i in range(2)
        )
        assert total_coruns >= 4

    def test_class_aware_beats_round_robin_on_adversarial_order(self):
        """Arrival order BS, RG, GS, RG: round-robin lands both memory
        hogs (BS, GS) on device 0 and both RGs on device 1; class-aware
        pairs each hog with a light kernel and wins on makespan."""

        def run(placement):
            env = Environment()
            cluster = SlateCluster(env, num_devices=2, placement=placement)
            apps = [
                AppSpec(name="bs", kernel=blackscholes(), reps=5),
                AppSpec(name="rg1", kernel=quasirandom(), reps=5),
                AppSpec(name="gs", kernel=gaussian(), reps=5),
                AppSpec(name="rg2", kernel=quasirandom(num_blocks=48_000), reps=5),
            ]
            cluster.preload_profiles([a.kernel for a in apps])
            results = run_cluster_apps(cluster, apps)
            return max(r.end for r in results.values()), cluster

        makespan_rr, cluster_rr = run("round-robin")
        makespan_ca, cluster_ca = run("class-aware")
        # Round-robin co-locates the hogs on this order; class-aware splits.
        assert cluster_rr.placements["bs"] == cluster_rr.placements["gs"]
        assert cluster_ca.placements["bs"] != cluster_ca.placements["gs"]
        assert makespan_ca < 0.95 * makespan_rr

    def test_single_device_cluster_equals_plain_runtime(self):
        env = Environment()
        cluster = SlateCluster(env, num_devices=1)
        apps = self.make_apps()[:2]
        cluster.preload_profiles([a.kernel for a in apps])
        results = run_cluster_apps(cluster, apps)
        assert all(cluster.placements[a.name] == 0 for a in apps)
        assert cluster.runtime(0).scheduler.corun_launches >= 1
        assert len(results) == 2
