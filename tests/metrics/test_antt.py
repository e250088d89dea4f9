"""ANTT/STP metric tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics import (
    antt,
    normalized_times,
    paper_antt_concurrent,
    paper_antt_consecutive,
    stp,
)


class TestNormalizedTimes:
    def test_basic(self):
        ratios = normalized_times({"a": 2.0, "b": 3.0}, {"a": 1.0, "b": 1.5})
        assert ratios == {"a": 2.0, "b": 2.0}

    def test_missing_baseline(self):
        with pytest.raises(KeyError):
            normalized_times({"a": 1.0}, {})

    def test_invalid_times(self):
        with pytest.raises(ValueError):
            normalized_times({"a": 1.0}, {"a": 0.0})
        with pytest.raises(ValueError):
            normalized_times({"a": -1.0}, {"a": 1.0})


class TestAnttStp:
    def test_no_interference(self):
        shared = {"a": 1.0, "b": 2.0}
        assert antt(shared, shared) == pytest.approx(1.0)
        assert stp(shared, shared) == pytest.approx(2.0)

    def test_perfect_time_slicing(self):
        solo = {"a": 1.0, "b": 1.0}
        shared = {"a": 2.0, "b": 2.0}
        assert antt(shared, solo) == pytest.approx(2.0)
        assert stp(shared, solo) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            antt({}, {})
        with pytest.raises(ValueError):
            stp({}, {})

    @given(
        solo=st.dictionaries(
            st.sampled_from(list("abcdef")),
            st.floats(min_value=0.01, max_value=100),
            min_size=1,
        ),
        factor=st.floats(min_value=1.0, max_value=10.0),
    )
    def test_uniform_slowdown(self, solo, factor):
        shared = {k: v * factor for k, v in solo.items()}
        assert antt(shared, solo) == pytest.approx(factor)
        assert stp(shared, solo) == pytest.approx(len(solo) / factor)

    @given(
        solo=st.dictionaries(
            st.sampled_from(list("abcd")),
            st.floats(min_value=0.01, max_value=100),
            min_size=2,
        ),
    )
    def test_antt_stp_bounds(self, solo):
        """With slowdowns >= 1, ANTT >= 1 and STP <= n."""
        shared = {k: v * 1.5 for k, v in solo.items()}
        assert antt(shared, solo) >= 1.0
        assert stp(shared, solo) <= len(solo)


class TestPaperForms:
    def test_consecutive_is_sum(self):
        assert paper_antt_consecutive([2.0, 3.0]) == 5.0

    def test_concurrent_is_max(self):
        assert paper_antt_concurrent([2.0, 3.0]) == 3.0

    def test_complementarity_criterion(self):
        """T' < T means the pair is complementary (paper definition)."""
        t_solo = [1.0, 1.0]
        t_corun_good = [1.2, 1.1]
        t_corun_bad = [2.5, 2.4]
        assert paper_antt_concurrent(t_corun_good) < paper_antt_consecutive(t_solo)
        assert paper_antt_concurrent(t_corun_bad) > paper_antt_consecutive(t_solo)

    def test_validation(self):
        with pytest.raises(ValueError):
            paper_antt_consecutive([])
        with pytest.raises(ValueError):
            paper_antt_concurrent([-1.0])


class TestFormatTable:
    def test_renders_aligned(self):
        from repro.metrics import format_table

        out = format_table(["name", "value"], [["a", 1.5], ["bb", 20000.0]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[2]
        assert "20,000" in out

    def test_row_width_mismatch(self):
        from repro.metrics import format_table

        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])


class TestFairness:
    def test_jain_index_even(self):
        from repro.metrics import fairness_index

        solo = {"a": 1.0, "b": 2.0}
        shared = {"a": 2.0, "b": 4.0}  # both slowed 2x
        assert fairness_index(shared, solo) == pytest.approx(1.0)

    def test_jain_index_skewed(self):
        from repro.metrics import fairness_index

        solo = {"a": 1.0, "b": 1.0}
        shared = {"a": 1.0, "b": 100.0}  # b starved
        idx = fairness_index(shared, solo)
        assert 0.5 < idx < 0.52  # approaches 1/n for 2 apps

    def test_max_slowdown_and_spread(self):
        from repro.metrics import max_slowdown, speedup_spread

        solo = {"a": 1.0, "b": 1.0}
        shared = {"a": 1.5, "b": 3.0}
        assert max_slowdown(shared, solo) == pytest.approx(3.0)
        assert speedup_spread(shared, solo) == pytest.approx(2.0)

    def test_empty_rejected(self):
        from repro.metrics import fairness_index, max_slowdown, speedup_spread

        for fn in (fairness_index, max_slowdown, speedup_spread):
            with pytest.raises(ValueError):
                fn({}, {})

    @given(
        solo=st.dictionaries(
            st.sampled_from(list("abcd")),
            st.floats(min_value=0.01, max_value=10),
            min_size=2,
        ),
        factors=st.lists(st.floats(min_value=1.0, max_value=10), min_size=4, max_size=4),
    )
    def test_jain_bounds(self, solo, factors):
        from repro.metrics import fairness_index

        shared = {k: v * factors[i] for i, (k, v) in enumerate(solo.items())}
        idx = fairness_index(shared, solo)
        n = len(solo)
        assert 1.0 / n - 1e-9 <= idx <= 1.0 + 1e-9

    def test_slate_is_fair_on_complementary_pair(self):
        """BS-RG under Slate: both tenants fare better than time slicing,
        and the fairness index stays high."""
        from repro.metrics import fairness_index
        from repro.workloads.harness import app_for, run_pair, run_solo

        solo = {
            b: run_solo("CUDA", app_for(b))[0].app_time for b in ("BS", "RG")
        }
        results, _ = run_pair("Slate", app_for("BS"), app_for("RG"))
        shared = {k: v.app_time for k, v in results.items()}
        assert fairness_index(shared, solo) > 0.9
