"""Timeline renderer tests."""

from repro.config import TITAN_XP
from repro.metrics.timeline import TimelineRow, build_timeline, render_timeline


LOG = [
    (0.0, {"GS": (0, 29)}),
    (1.0e-3, {"GS": (0, 26), "RG": (27, 29)}),
    (1.05e-3, {"GS": (0, 26), "RG": (27, 29)}),  # duplicate
    (2.0e-3, {"GS": (0, 29)}),
    (3.0e-3, {}),
]


class TestBuild:
    def test_deduplicates_identical_rows(self):
        rows = build_timeline(LOG)
        assert len(rows) == 4

    def test_coalesce_window_merges_transients(self):
        log = [
            (0.0, {"A": (0, 29)}),
            (1.0e-3, {"A": (0, 14)}),
            (1.1e-3, {"A": (0, 14), "B": (15, 29)}),
        ]
        rows = build_timeline(log, coalesce_window=0.5e-3)
        assert len(rows) == 2
        assert rows[-1].allocation == {"A": (0, 14), "B": (15, 29)}

    def test_empty_log(self):
        assert build_timeline([]) == []


class TestLane:
    def test_lane_letters(self):
        row = TimelineRow(start=0.0, allocation={"GS": (0, 26), "RG": (27, 29)})
        lane = row.lane(30)
        assert lane == "G" * 27 + "R" * 3

    def test_idle_dots(self):
        row = TimelineRow(start=0.0, allocation={"BS": (0, 11)})
        lane = row.lane(30)
        assert lane == "B" * 12 + "." * 18

    def test_overlap_marked(self):
        row = TimelineRow(start=0.0, allocation={"A": (0, 10), "B": (5, 15)})
        assert "#" in row.lane(30)


class TestRender:
    def test_render_structure(self):
        out = render_timeline(LOG, TITAN_XP)
        assert "SM allocation timeline" in out
        assert "GS[0-26], RG[27-29]" in out
        assert "idle" in out  # the final empty row

    def test_max_rows_truncation(self):
        log = [(i * 1e-3, {"A": (0, i % 29)}) for i in range(50)]
        out = render_timeline(log, TITAN_XP, max_rows=10)
        assert "more rows" in out

    def test_empty(self):
        assert render_timeline([]) == "(empty timeline)"

    def test_scheduler_log_renders(self):
        """End-to-end: a real scheduler run produces a renderable log."""
        from repro.workloads.harness import app_for, run_pair

        _, runtime = run_pair("Slate", app_for("BS", reps=3), app_for("RG", reps=3))
        out = render_timeline(runtime.scheduler.allocation_log, coalesce_window=0.2e-3)
        assert "B" in out and "R" in out
