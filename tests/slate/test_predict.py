"""Tests for the predictive partitioner."""

import pytest

from repro.kernels import blackscholes, gaussian, quasirandom, transpose
from repro.slate.partition import MIN_SHARE
from repro.slate.predict import choose_partition_predictive, predict_corun_rates


class TestPredictRates:
    def test_rates_positive(self):
        ra, rb = predict_corun_rates(blackscholes(), quasirandom(), 12)
        assert ra > 0 and rb > 0

    def test_invalid_split_rejected(self):
        with pytest.raises(ValueError):
            predict_corun_rates(blackscholes(), quasirandom(), 0)
        with pytest.raises(ValueError):
            predict_corun_rates(blackscholes(), quasirandom(), 29)

    def test_bs_rate_saturates_beyond_knee(self):
        """Above ~its saturation count, BS gains nothing from more SMs."""
        bs, rg = blackscholes(), quasirandom()
        at_12, _ = predict_corun_rates(bs, rg, 12)
        at_20, _ = predict_corun_rates(bs, rg, 20)
        assert at_20 < at_12 * 1.12

    def test_rg_scales_with_its_share(self):
        bs, rg = blackscholes(), quasirandom()
        _, rg_small = predict_corun_rates(bs, rg, 26)  # RG gets 4
        _, rg_big = predict_corun_rates(bs, rg, 10)  # RG gets 20
        assert rg_big > 3 * rg_small

    @pytest.mark.parametrize("n_a", [3, 10, 15, 27])
    def test_equals_the_devices_first_epoch_rates(self, n_a):
        """The predictor builds the device's rate inputs: for the split it
        predicts, the device co-running the pair (launched as the scheduler
        launches) derives exactly the predicted rates, for every ordered
        pair of paper benchmarks."""
        from dataclasses import replace

        from repro.config import TITAN_XP, CostModel
        from repro.gpu.device import (
            DEFAULT_TASK_SIZE,
            SLATE_INJECT_FRAC,
            ExecutionMode,
            SimulatedGPU,
        )
        from repro.kernels.registry import SHORT_NAMES, by_name
        from repro.sim import Environment

        for a in SHORT_NAMES:
            for b in SHORT_NAMES:
                gpu = SimulatedGPU(Environment(), TITAN_XP, CostModel())
                for key, bench, sms in (
                    ("a", a, range(n_a)),
                    ("b", b, range(n_a, TITAN_XP.num_sms)),
                ):
                    gpu.launch(
                        replace(by_name(bench).work(), name=key),
                        sm_ids=sms,
                        mode=ExecutionMode.SLATE,
                        task_size=DEFAULT_TASK_SIZE,
                        inject_frac=SLATE_INJECT_FRAC,
                    )
                _, rates = gpu.rate_trace[-1]
                predicted = predict_corun_rates(by_name(a), by_name(b), n_a)
                assert (rates["a"], rates["b"]) == predicted, (a, b)


class TestChoosePredictive:
    def test_split_covers_device(self):
        split = choose_partition_predictive(blackscholes(), quasirandom())
        assert split.n_a + split.n_b == 30
        assert split.n_a >= MIN_SHARE and split.n_b >= MIN_SHARE

    def test_bs_rg_gives_bs_its_saturation_share(self):
        split = choose_partition_predictive(blackscholes(), quasirandom())
        # BS saturates around 10-14 SMs; RG should get the majority.
        assert 8 <= split.n_a <= 16
        assert split.n_b > split.n_a

    def test_predicted_stp_beats_time_slicing(self):
        """For a complementary pair, predicted STP must exceed 1.0."""
        split = choose_partition_predictive(blackscholes(), quasirandom())
        assert split.predicted_stp > 1.3

    def test_linear_pair_has_flat_stp(self):
        """Two linearly-scaling kernels: corun STP ~ 1 at any split."""
        split = choose_partition_predictive(quasirandom(), quasirandom())
        assert split.predicted_stp == pytest.approx(1.0, abs=0.1)

    def test_partition_object(self):
        split = choose_partition_predictive(blackscholes(), quasirandom())
        part = split.partition_for_a_primary()
        assert len(part.primary_sms) == split.n_a
        assert set(part.primary_sms) & set(part.secondary_sms) == set()

    def test_memory_pair_low_stp(self):
        """Two memory hogs predict poorly (the policy's solo rationale)."""
        split = choose_partition_predictive(gaussian(), transpose())
        assert split.predicted_stp < 1.15


class TestSearchMemo:
    def test_strategy_and_online_policy_run_one_search_per_input(self, monkeypatch):
        """The ``predictive`` strategy and ``online-predictive`` share one
        value-keyed memo: each distinct input is searched once, however often
        either asks for it (each search takes both solo rates once)."""
        from repro.slate import predict
        from repro.workloads.harness import app_for, run_pair

        cached = predict.choose_partition_predictive
        solo_rate = predict._solo_rate
        requests, searches = [], []

        def requested(spec_a, spec_b, *args, **kwargs):
            requests.append((spec_a, spec_b, args, tuple(sorted(kwargs.items()))))
            return cached(spec_a, spec_b, *args, **kwargs)

        def searched(spec, *args):
            searches.append(spec.name)
            return solo_rate(spec, *args)

        monkeypatch.setattr(predict, "choose_partition_predictive", requested)
        monkeypatch.setattr(predict, "_solo_rate", searched)
        cached.cache_clear()
        apps = (app_for("BS", reps=6), app_for("RG", reps=6))
        run_pair("Slate", *apps, partition_strategy="predictive")
        distinct = set(requests)
        assert len(requests) > len(distinct) == len(searches) // 2 > 0
        asked_by_strategy = len(requests)
        run_pair("Slate", *apps, policy="online-predictive")
        assert len(requests) > asked_by_strategy
        assert set(requests) == distinct
        assert len(searches) // 2 == len(distinct)


class TestPredictionErrorBounds:
    """The analytic rate model vs the simulated GPU, on synthetic pairs.

    ``choose_partition_predictive`` is only useful if its predicted system
    throughput tracks what the simulation actually delivers; these bounds
    are what lets the online-predictive policy trust it for admission and
    resplitting.
    """

    @staticmethod
    def _measured_stp(a: str, b: str) -> float:
        from repro.metrics.antt import stp
        from repro.workloads.harness import app_for, run_pair, run_solo

        solo = {
            name: run_solo("CUDA", app_for(bench, name=name))[0].app_time
            for name, bench in ((a, a), (b + "2", b))
        }
        results, _ = run_pair(
            "Slate",
            app_for(a),
            app_for(b, name=b + "2"),
            partition_strategy="predictive",
        )
        return stp({k: v.app_time for k, v in results.items()}, solo)

    @pytest.mark.parametrize(
        "pair,bound",
        [
            (("BS", "RG"), 0.05),  # complementary: the model's home turf
            (("RG", "RG"), 0.05),  # linear pair: STP ~ 1 on both sides
            (("BS", "TR"), 0.25),  # interfering: host costs dilute, stay sane
        ],
        ids=["BS-RG", "RG-RG", "BS-TR"],
    )
    def test_predicted_stp_tracks_simulation(self, pair, bound):
        from repro.workloads.harness import app_for

        a, b = pair
        split = choose_partition_predictive(app_for(a).kernel, app_for(b).kernel)
        measured = self._measured_stp(a, b)
        assert abs(split.predicted_stp - measured) / measured <= bound

    def test_rates_sum_is_split_invariant_for_linear_kernels(self):
        """A linearly-scaling kernel pair: total predicted rate is nearly
        constant across splits (the model has no free-lunch splits)."""
        rg = quasirandom()
        totals = [
            sum(predict_corun_rates(rg, rg, n_a)) for n_a in (6, 10, 15, 20, 24)
        ]
        assert max(totals) <= min(totals) * 1.05


class TestOnlinePredictivePolicy:
    """The policy layer riding on predict.py: estimation and fallback."""

    def test_ema_runtime_estimation(self):
        from types import SimpleNamespace

        from repro.slate.policy import make_policy

        policy = make_policy("online-predictive")
        ticket = SimpleNamespace(profile_key="k")
        policy.on_complete(ticket, SimpleNamespace(elapsed=2.0))
        assert policy.observed["k"] == (2.0, 1)  # first sample taken verbatim
        policy.on_complete(ticket, SimpleNamespace(elapsed=4.0))
        ema, count = policy.observed["k"]
        assert count == 2 and ema == pytest.approx(3.0)  # 0.5-weighted EMA
        assert policy.observations(ticket) == 2

    def test_falls_back_to_table1_with_no_completions(self):
        """Until the first completion there is no evidence; decisions must
        be byte-identical to table1 (the pairing below happens before any
        kernel finishes)."""
        from tests.slate.difftrace import scheduler_trace
        from repro.slate.scheduler import SlateScheduler, SlateTicket

        workload = [(0.0, "RG", 0, None), (0.1e-3, "RG", 0, None)]
        predictive, sched = scheduler_trace(
            workload, SlateScheduler, SlateTicket, policy="online-predictive"
        )
        table1, _ = scheduler_trace(workload, SlateScheduler, SlateTicket)
        assert predictive == table1
        assert sched.policy.repairings == 0
        assert any(row[1] == "corun" for row in predictive)

    def test_diverges_from_table1_once_evidence_arrives(self):
        """Table I co-runs L_C with itself; the rate model predicts STP ~ 1
        for the linear pair, so once both arrivals have observed runtimes
        the policy refuses the pairing table1 would have made."""
        from tests.slate.difftrace import scheduler_trace
        from repro.slate.scheduler import SlateScheduler, SlateTicket

        workload = [
            (0.0, "RG", 0, None),
            (0.1e-3, "RG", 0, None),
            # Second wave arrives after the first completions.
            (60e-3, "RG", 0, None),
            (60.1e-3, "RG", 0, None),
        ]
        predictive, sched = scheduler_trace(
            workload, SlateScheduler, SlateTicket, policy="online-predictive"
        )
        table1, _ = scheduler_trace(workload, SlateScheduler, SlateTicket)
        assert predictive != table1
        assert sched.policy.repairings > 0
        # The second wave ran solo under the predictive policy...
        assert sum(row[1] == "corun" for row in predictive) < sum(
            row[1] == "corun" for row in table1
        )

    def test_resplit_of_a_wide_corun_remnant_lands_on_the_prediction(
        self, monkeypatch
    ):
        """A pair left over from a 3-wide co-run holds less than the whole
        device.  Each re-split still gives the tenants exactly the predicted
        counts, as one contiguous range each, and the grants stay disjoint
        after every ``resize_entry``."""
        from repro.slate.policy import OnlinePredictivePolicy
        from repro.slate.scheduler import SlateScheduler
        from repro.workloads.harness import app_for, run_many

        resize_entry = SlateScheduler.resize_entry
        reconsider = OnlinePredictivePolicy.reconsider
        landed = []

        def audited_resize(sched, entry, sms):
            resize_entry(sched, entry, sms)
            granted: set[int] = set()
            for running in sched.running_entries():
                grant = running.sms
                assert grant == tuple(range(grant[0], grant[-1] + 1)), grant
                assert not granted & set(grant), "overlapping SM grants"
                granted |= set(grant)

        def recorded_reconsider(policy):
            before = policy.resplits
            reconsider(policy)
            if policy.resplits > before:
                a, b = policy.scheduler.running_entries()
                split = policy._predicted_split(a.ticket, b.ticket)
                n = policy.scheduler.device.num_sms
                landed.append(((len(a.sms), len(b.sms)), (split.n_a, n - split.n_a)))

        monkeypatch.setattr(SlateScheduler, "resize_entry", audited_resize)
        monkeypatch.setattr(OnlinePredictivePolicy, "reconsider", recorded_reconsider)
        apps = [
            app_for(b, name=f"{b}#{i}", reps=12)
            for i, b in enumerate(("BS", "RG", "RG"))
        ]
        results, runtime = run_many(
            "Slate", apps, policy="online-predictive", max_corun=3
        )

        assert landed
        for held, predicted in landed:
            assert held == predicted
        sched = runtime.scheduler
        assert sched.solo_launches + sched.corun_launches == 36
        for result in results.values():
            assert result.launches == 12 and result.rejected_launches == 0
            assert len(result.counters) == 12
