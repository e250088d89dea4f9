"""Tests for the extension experiments: ablations and generalization."""

import pytest

from repro.experiments import ablations, generalization


class TestAblations:
    @pytest.fixture(scope="class")
    def policy(self):
        return ablations.run_policy_ablation()

    @pytest.fixture(scope="class")
    def partition(self):
        return ablations.run_partition_ablation()

    def test_table1_beats_blind_variants(self, policy):
        assert policy.average("table1") < policy.average("always")
        assert policy.average("table1") < policy.average("never")

    def test_always_corun_hurts_memory_pairs(self, policy):
        for pair in ("GS-GS", "TR-TR", "MM-MM"):
            assert policy.rows[pair]["always"] > policy.rows[pair]["table1"]

    def test_never_corun_forfeits_rg_wins(self, policy):
        for pair in ("BS-RG", "GS-RG", "MM-RG"):
            assert policy.rows[pair]["never"] > policy.rows[pair]["table1"]
        assert policy.rows["BS-RG"]["never"] > policy.rows["BS-RG"]["table1"] * 1.2

    def test_heuristic_partition_best_on_average(self, partition):
        assert partition.average("heuristic") <= partition.average("predictive") + 1e-9
        assert partition.average("heuristic") < partition.average("even")

    def test_prediction_refines_the_saturating_pair(self, partition):
        rows = partition.rows["BS-RG"]
        assert rows["predictive"] <= rows["heuristic"] + 0.02

    def test_locality_ablation_isolates_table3(self):
        result = ablations.run_locality_ablation()
        assert 1.15 <= result.speedup_from_ordering <= 1.45
        assert result.in_order_bw > result.scattered_bw

    def test_resizing_helps(self):
        result = ablations.run_resizing_ablation()
        assert result.average("grow") < result.average("no_grow")
        # Growing the survivor onto freed SMs never hurts a pairing.
        for label, row in result.rows.items():
            assert row["grow"] <= row["no_grow"] + 0.01, label

    def test_task_size_tuning_gains(self):
        result = ablations.run_task_size_ablation()
        # GS is the big winner (short blocks want bigger tasks than 10);
        # no benchmark regresses under the tuner.
        assert result.gain("GS") > 0.08
        for bench in result.rows:
            assert result.gain(bench) >= -0.005, bench
        assert result.average_gain() > 0.02

    def test_formatters(self, policy, partition):
        assert "Table I" in ablations.format_policy_ablation(policy)
        assert "heuristic" in ablations.format_partition_ablation(partition)


class TestGeneralization:
    @pytest.fixture(scope="class")
    def result(self):
        return generalization.run()

    def test_both_devices_present(self, result):
        assert set(result.tables) == {"Titan Xp", "Tesla V100"}

    def test_gains_persist_on_v100(self, result):
        """Slate's mechanism is not Titan-Xp-specific."""
        assert result.average_gain("Tesla V100") > 0.08
        assert result.gain("Tesla V100", "BS-RG") > 0.15
        assert result.gain("Tesla V100", "GS-RG") > 0.15

    def test_every_titan_pairing_gains_over_mps(self, result):
        for pair in generalization.PAIRS:
            assert result.gain("Titan Xp", "-".join(pair), over="MPS") > 0

    def test_best_case_grows_on_v100_and_rg_tr_is_a_near_tie(self, result):
        assert result.gain("Tesla V100", "GS-RG") > result.gain("Titan Xp", "GS-RG")
        # HBM2 headroom leaves MPS little to lose on RG-TR.
        assert abs(result.gain("Tesla V100", "RG-TR")) < 0.05

    def test_titan_matches_fig7(self, result):
        assert result.gain("Titan Xp", "BS-RG") == pytest.approx(0.27, abs=0.06)

    def test_format(self, result):
        out = generalization.format_result(result)
        assert "Tesla V100" in out and "Titan Xp" in out
