"""Shape tests for every reproduced table and figure.

These assert the paper's qualitative results — who wins, by roughly what
factor, where crossovers fall — on the full experiment pipeline.
"""

import pytest

from repro.experiments import (
    fig1_stream,
    fig5_tasksize,
    fig6_overhead,
    fig7_pairings,
    tab1_policy,
    tab2_profiles,
    tab3_gaussian,
    tab4_bsrg,
)


@pytest.fixture(scope="module")
def fig1():
    return fig1_stream.run(sm_counts=(1, 2, 4, 6, 8, 9, 10, 12, 20, 30))


@pytest.fixture(scope="module")
def tab2():
    return tab2_profiles.run()


@pytest.fixture(scope="module")
def tab3():
    return tab3_gaussian.run()


@pytest.fixture(scope="module")
def tab4():
    return tab4_bsrg.run()


@pytest.fixture(scope="module")
def fig5():
    return fig5_tasksize.run()


@pytest.fixture(scope="module")
def fig6():
    return fig6_overhead.run()


@pytest.fixture(scope="module")
def fig7():
    return fig7_pairings.run()


class TestFig1:
    def test_knee_at_nine_sms(self, fig1):
        assert fig1_stream.knee_point(fig1) == 9

    def test_linear_rise_then_flat(self, fig1):
        assert fig1.bandwidth(2) == pytest.approx(2 * fig1.bandwidth(1), rel=0.05)
        assert fig1.bandwidth(12) == pytest.approx(fig1.bandwidth(30), rel=0.03)

    def test_plateau_near_peak(self, fig1):
        assert fig1.plateau > 0.9 * fig1.device.dram_bandwidth

    def test_format(self, fig1):
        out = fig1_stream.format_result(fig1)
        assert "knee" in out and "GB/s" in out


class TestTab1:
    @pytest.fixture(scope="class")
    def tab1(self):
        return tab1_policy.run()

    def test_load_bearing_cells_agree(self, tab1):
        assert tab1.agreement_on(tab1_policy.LOAD_BEARING_CELLS) == 1.0

    def test_overall_agreement_strong(self, tab1):
        assert tab1.agreement() >= 0.75

    def test_representatives_realize_their_classes(self, tab1):
        for intended, realized in tab1.realized_classes.items():
            assert intended is realized

    def test_format(self, tab1):
        out = tab1_policy.format_result(tab1)
        assert "agreement" in out


class TestTab2:
    @pytest.mark.parametrize("name", list(tab2_profiles.PAPER_TABLE_II))
    def test_rates_within_ten_percent(self, tab2, name):
        row = tab2.row(name)
        _, _, gflops, bw = tab2_profiles.PAPER_TABLE_II[name]
        if gflops:
            assert row.gflops == pytest.approx(gflops, rel=0.10)
        assert row.mem_bw_gbps == pytest.approx(bw, rel=0.10)

    @pytest.mark.parametrize("name", list(tab2_profiles.PAPER_TABLE_II))
    def test_intensity_levels_match(self, tab2, name):
        row = tab2.row(name)
        compute, memory, _, _ = tab2_profiles.PAPER_TABLE_II[name]
        assert row.compute_level == compute
        assert row.memory_level == memory

    def test_format(self, tab2):
        assert "Table II" in tab2_profiles.format_result(tab2)


class TestTab3:
    def test_speedup_matches_paper(self, tab3):
        assert 1.15 <= tab3.speedup <= 1.45  # paper +28%

    def test_bandwidth_gain(self, tab3):
        assert 1.2 <= tab3.bw_gain <= 1.5  # paper +38%

    def test_ipc_improves(self, tab3):
        gain = tab3.ipc_slate / tab3.ipc_cuda
        assert 1.2 <= gain <= 1.5  # paper +30%

    def test_throttle_vanishes(self, tab3):
        assert tab3.cuda.mem_throttle_fraction > 0.08
        assert tab3.slate.mem_throttle_fraction == pytest.approx(0.0, abs=1e-9)

    def test_format(self, tab3):
        assert "Gaussian" in tab3_gaussian.format_result(tab3)


class TestTab4:
    def test_throughput_gain_near_thirty_percent(self, tab4):
        assert 0.20 <= tab4.throughput_gain <= 0.40  # paper 30.55%

    def test_l2_throughput_rises(self, tab4):
        assert tab4.slate.l2_throughput() > tab4.mps.l2_throughput()

    def test_ldst_drops(self, tab4):
        ratio = tab4.slate.ldst / tab4.mps.ldst
        assert 0.88 <= ratio <= 0.97  # paper -9%

    def test_ipc_rises_substantially(self, tab4):
        gain = tab4.slate.ipc(tab4.device) / tab4.mps.ipc(tab4.device)
        assert gain > 1.2  # paper +71%

    def test_format(self, tab4):
        assert "BS-RG" in tab4_bsrg.format_result(tab4)


class TestFig5:
    def test_gs_roughly_halves_by_task_ten(self, fig5):
        norm = fig5.normalized("GS")
        assert norm[10] < 0.6  # "almost halves"

    def test_gs_monotone_improvement(self, fig5):
        norm = fig5.normalized("GS")
        assert norm[1] > norm[2] > norm[5] > norm[10]

    def test_bs_prefers_task_one(self, fig5):
        norm = fig5.normalized("BS")
        assert norm[10] > norm[1]
        assert min(norm, key=norm.get) == 1

    def test_format(self, fig5):
        assert "task size" in fig5_tasksize.format_result(fig5)


class TestFig6:
    def test_mps_app_time_slightly_larger_than_cuda(self, fig6):
        for bench in ("BS", "GS", "MM", "RG", "TR"):
            cuda = fig6.bar(bench, "CUDA").app_time
            mps = fig6.bar(bench, "MPS").app_time
            assert cuda < mps < cuda * 1.1

    def test_gs_best_case_gain(self, fig6):
        cuda = fig6.bar("GS", "CUDA").app_time
        slate = fig6.bar("GS", "Slate").app_time
        assert 1.10 <= cuda / slate <= 1.40  # paper: 28%

    def test_worst_case_near_parity(self, fig6):
        """Paper: 'In the worst case, Slate has the same application
        execution time as CUDA.'"""
        for bench in ("BS", "MM", "RG", "TR"):
            cuda = fig6.bar(bench, "CUDA").app_time
            slate = fig6.bar(bench, "Slate").app_time
            assert slate < cuda * 1.06

    def test_slate_overhead_fractions(self, fig6):
        assert 0.01 <= fig6.average_comm_fraction() <= 0.08  # paper ~4%
        assert 0.003 <= fig6.average_compile_fraction() <= 0.03  # paper ~1.5%

    def test_kernel_time_below_app_time(self, fig6):
        for b in fig6.bars:
            assert 0 < b.kernel_time < b.app_time

    def test_format(self, fig6):
        assert "Figure 6" in fig6_overhead.format_result(fig6)


class TestFig7:
    def test_slate_beats_cuda_on_every_pairing(self, fig7):
        assert fig7.wins("CUDA") == 15

    def test_slate_beats_mps_on_most_pairings(self, fig7):
        assert fig7.wins("MPS") >= 9  # paper: 14/15; our losses are <3% each

    def test_mm_bs_is_a_small_loss(self, fig7):
        """The paper's one exception: MM-BS about -2% vs MPS."""
        row = fig7.row("MM", "BS")
        assert -0.05 <= row.gain("MPS") <= 0.01

    def test_average_gains(self, fig7):
        assert 0.06 <= fig7.average_gain("MPS") <= 0.15  # paper 11%
        assert 0.09 <= fig7.average_gain("CUDA") <= 0.22  # paper 18%

    def test_best_pair_involves_rg(self, fig7):
        best = fig7.best_pair("MPS")
        assert "RG" in best.pair
        assert 0.25 <= best.gain("MPS") <= 0.40  # paper: 35% (RG-GS)

    def test_gs_gs_gains_from_scheduling_alone(self, fig7):
        """Paper: GS-GS gains 24% with consecutive solo runs."""
        row = fig7.row("GS", "GS")
        assert 0.15 <= row.gain("MPS") <= 0.30

    def test_mps_beats_cuda_overall(self, fig7):
        mps_avg = sum(r.antt_by_runtime["MPS"] for r in fig7.rows) / 15
        cuda_avg = sum(r.antt_by_runtime["CUDA"] for r in fig7.rows) / 15
        assert 0.90 <= mps_avg / cuda_avg <= 0.99  # paper: ~6% better

    def test_rg_pairs_all_corun_gains(self, fig7):
        """RG coruns with every distinct partner profitably."""
        for partner in ("BS", "GS", "MM", "TR"):
            assert fig7.row("RG", partner).gain("MPS") > 0.05

    def test_format(self, fig7):
        out = fig7_pairings.format_result(fig7)
        assert "avg gain" in out and "BS-RG" in out

    def test_cells_simulate_under_their_cost_model(self):
        """The cost model of a cell reaches its simulation: a costlier
        daemon round trip moves Slate's ANTT, a slower app setup the
        solo baselines."""
        from dataclasses import replace

        from repro.config import TITAN_XP, CostModel
        from repro.workloads.harness import pair_antt, solo_times

        base = CostModel()
        costly = replace(base, pipe_roundtrip=10 * base.pipe_roundtrip)
        solo = solo_times(("MM", "BS"), TITAN_XP, base)
        assert pair_antt("Slate", "MM", "BS", solo, TITAN_XP, costly) != (
            pair_antt("Slate", "MM", "BS", solo, TITAN_XP, base)
        )
        slower_setup = replace(base, app_setup_time=2 * base.app_setup_time)
        assert solo_times(("BS",), TITAN_XP, slower_setup)["BS"] > solo["BS"]
