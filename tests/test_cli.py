"""CLI smoke tests (python -m repro)."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for cmd, extra in [
            ("experiments", []),
            ("profile", ["BS"]),
            ("transform", ["-"]),
            ("pair", ["BS", "RG"]),
            ("serve", []),
            ("client", ["MM"]),
            ("loadgen", []),
        ]:
            args = parser.parse_args([cmd, *extra])
            assert callable(args.func)

    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "--socket", "/tmp/s.sock", "--shards", "2",
             "--max-inflight", "8", "--duration", "0.5"]
        )
        assert args.socket == "/tmp/s.sock"
        assert args.shards == 2
        assert args.max_inflight == 8
        assert args.duration == 0.5

    def test_loadgen_flags(self):
        args = build_parser().parse_args(
            ["loadgen", "--clients", "16", "--mode", "open", "--rate", "50",
             "--mix", "BS:2,MM:1", "--threads", "--json", "out.json"]
        )
        assert args.clients == 16
        assert args.mode == "open"
        assert args.threads is True
        assert args.json == "out.json"

    def test_loadgen_rejects_bad_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loadgen", "--mode", "bursty"])


class TestCommands:
    def test_profile_command(self, capsys):
        assert main(["profile", "RG", "--launches", "1"]) == 0
        out = capsys.readouterr().out
        assert "==PROF==" in out
        assert "intensity class: L_C" in out

    def test_profile_slate_mode(self, capsys):
        assert main(["profile", "GS", "--slate", "--launches", "1"]) == 0
        assert "M_M" in capsys.readouterr().out

    def test_transform_command(self, capsys, monkeypatch, tmp_path):
        src = tmp_path / "k.cu"
        src.write_text("__global__ void k(float* p) { p[blockIdx.x] = 1.f; }\n")
        assert main(["transform", str(src)]) == 0
        out = capsys.readouterr().out
        assert "k_slate" in out
        assert "atomicAdd(&slateIdx, SLATE_ITERS)" in out

    def test_transform_no_kernels(self, capsys, tmp_path):
        src = tmp_path / "host.c"
        src.write_text("int main() { return 0; }\n")
        assert main(["transform", str(src)]) == 1

    def test_pair_command(self, capsys):
        assert main(["pair", "rg", "rg"]) == 0
        out = capsys.readouterr().out
        assert "CUDA" in out and "Slate" in out and "ANTT" in out

    def test_experiments_selected_key(self, capsys):
        assert main(["experiments", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "knee" in out
        assert "Figure 1" in out


class TestOccupancyCommand:
    def test_occupancy_report(self, capsys):
        from repro.__main__ import main

        assert main(["occupancy", "256", "--regs", "64", "--smem", "16384"]) == 0
        out = capsys.readouterr().out
        assert "limited by registers" in out
        assert "block-size sweep" in out

    def test_occupancy_v100(self, capsys):
        from repro.__main__ import main

        assert main(["occupancy", "128", "--device", "v100"]) == 0
        assert "V100" in capsys.readouterr().out


class TestReportCommand:
    def test_report_writes_selected_experiments(self, capsys, tmp_path):
        from repro.__main__ import main

        out_path = tmp_path / "report.md"
        assert main(["report", "--output", str(out_path), "fig1", "fig3"]) == 0
        text = out_path.read_text()
        assert "# Slate reproduction" in text
        assert "Figure 1" in text and "knee" in text
        assert "Figure 3" in text and "isomorphic" in text
        assert "Figure 7" not in text  # not selected


class TestTraceAndTune:
    def test_tune_command(self, capsys):
        from repro.__main__ import main

        assert main(["tune", "GS"]) == 0
        out = capsys.readouterr().out
        assert "<-- best" in out
        assert "vs the paper's fixed 10" in out

    def test_trace_command_with_chrome_export(self, capsys, tmp_path):
        import json

        from repro.__main__ import main

        chrome = tmp_path / "trace.json"
        assert (
            main(
                [
                    "trace",
                    "--apps",
                    "4",
                    "--pattern",
                    "bursty",
                    "--seed",
                    "2",
                    "--export",
                    "perfetto",
                    str(chrome),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "SM allocation timeline" in out
        assert "utilization" in out
        events = json.loads(chrome.read_text())["traceEvents"]
        # The per-SM tracks carry the allocation intervals.
        sm_spans = [e for e in events if e.get("cat") == "sm"]
        assert sm_spans and all(e["ph"] == "X" for e in sm_spans)

    def test_trace_under_cuda(self, capsys):
        from repro.__main__ import main

        assert main(["trace", "--runtime", "CUDA", "--apps", "3"]) == 0
        assert "makespan" in capsys.readouterr().out

    def test_trace_export_perfetto_is_valid(self, capsys, tmp_path):
        import json

        from repro.__main__ import main
        from repro.obs.validate import validate_file

        out = tmp_path / "perfetto.json"
        assert (
            main(
                ["trace", "--apps", "4", "--pattern", "bursty", "--export",
                 "perfetto", str(out)]
            )
            == 0
        )
        assert "perfetto trace written" in capsys.readouterr().out
        assert validate_file(out) == []
        payload = json.loads(out.read_text())
        assert payload["traceEvents"]
        assert payload["metadata"]["pattern"] == "bursty"

    def test_trace_export_jsonl(self, capsys, tmp_path):
        import json

        from repro.__main__ import main

        out = tmp_path / "trace.jsonl"
        assert main(["trace", "--apps", "2", "--export", "jsonl", str(out)]) == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert lines[0]["type"] == "meta"
        assert any(line["type"] == "event" for line in lines[1:])

    def test_trace_export_unknown_format(self, capsys, tmp_path):
        from repro.__main__ import main

        rc = main(["trace", "--apps", "2", "--export", "svg", str(tmp_path / "x")])
        assert rc == 2
        assert "unknown export format" in capsys.readouterr().err

    def test_trace_empty_apps_exits_cleanly(self, capsys):
        """Regression: a degenerate arrival trace must not stack-trace."""
        from repro.__main__ import main

        assert main(["trace", "--apps", "0"]) == 0
        out = capsys.readouterr().out
        assert "(empty timeline)" in out
        assert "0 tenants" in out

    def test_trace_empty_apps_still_writes_valid_export(self, capsys, tmp_path):
        from repro.__main__ import main
        from repro.obs.validate import validate_file

        out = tmp_path / "empty.json"
        assert main(["trace", "--apps", "0", "--export", "perfetto", str(out)]) == 0
        assert validate_file(out) == []


@pytest.fixture
def live_server(tmp_path):
    from repro.serve.server import ServeConfig, ServerThread

    sock = str(tmp_path / "slate.sock")
    assert len(sock) < 100
    with ServerThread(ServeConfig(socket_path=sock)):
        yield sock


class TestServeCommands:
    def test_client_command_end_to_end(self, capsys, live_server):
        assert main(
            ["client", "MM", "--socket", live_server, "--reps", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "registered MM" in out
        assert "launch 1:" in out and "launch 2:" in out
        assert "server:" in out

    def test_loadgen_command_end_to_end(self, capsys, live_server):
        assert main(
            ["loadgen", "--socket", live_server, "--clients", "2",
             "--requests", "3", "--threads"]
        ) == 0
        out = capsys.readouterr().out
        assert "completed" in out
        assert "p99" in out

    def test_loadgen_json_output(self, capsys, live_server, tmp_path):
        import json

        path = tmp_path / "report.json"
        assert main(
            ["loadgen", "--socket", live_server, "--clients", "1",
             "--requests", "2", "--threads", "--json", str(path)]
        ) == 0
        body = json.loads(path.read_text())
        assert body["completed"] == 2
        assert body["errors"] == 0

    def test_client_command_unreachable_socket(self, capsys, tmp_path):
        rc = main(
            ["client", "MM", "--socket", str(tmp_path / "nope.sock"),
             "--connect-retries", "0"]
        )
        assert rc == 1
        assert "could not connect" in capsys.readouterr().err


class TestUserErrors:
    """A mistyped name or a refused request exits 2 with one error line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["profile", "XX"],
            ["tune", "XX"],
            ["pair", "MM", "XX"],
            ["loadgen", "--mix", "XX:1"],
            ["client", "XX", "--socket", "{socket}"],
            ["client", "MM", "--task-size", "0", "--socket", "{socket}"],
        ],
        ids=["profile", "tune", "pair", "loadgen", "client-kernel", "client-task-size"],
    )
    def test_reported_without_traceback(self, argv, capsys, request):
        if "{socket}" in argv:
            sock = request.getfixturevalue("live_server")
            argv = [sock if a == "{socket}" else a for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "Traceback" not in captured.err + captured.out


class TestObsCommand:
    def test_obs_dump_is_json(self, capsys):
        import json

        from repro.__main__ import main

        assert main(["obs", "dump"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert set(snapshot) == {"counters", "gauges", "histograms", "sources"}
        assert "engine" in snapshot["sources"]

    def test_obs_dump_recent_needs_socket(self, capsys, tmp_path):
        """The flight recorder lives in the daemon, so ``--recent``
        without ``--socket`` is a usage error."""
        from repro.__main__ import main

        out = tmp_path / "recent.json"
        assert main(["obs", "dump", "--recent", "5", "--out", str(out)]) == 2
        assert "--socket" in capsys.readouterr().err
        assert not out.exists()

    def test_obs_dump_recent_over_socket(self, capsys, tmp_path):
        from repro.__main__ import main
        from repro.obs import trace as obs_trace
        from repro.obs.validate import validate_file
        from repro.serve.client import SlateClient
        from repro.serve.server import ServeConfig, ServerThread

        sock = str(tmp_path / "slate.sock")
        out = tmp_path / "recent.json"
        obs_trace.set_sink(obs_trace.TraceSink(capacity=64, detail="light"))
        try:
            with ServerThread(ServeConfig(socket_path=sock)):
                with SlateClient(sock, name="r") as client:
                    client.launch("MM")
                argv = ["obs", "dump", "--socket", sock, "--recent", "2",
                        "--out", str(out)]
                assert main(argv) == 0
        finally:
            obs_trace.set_sink(None)
        assert "2 recent event(s)" in capsys.readouterr().out
        assert validate_file(out) == []

    def test_obs_validate_accepts_good_trace(self, capsys, tmp_path):
        from repro.__main__ import main

        out = tmp_path / "t.json"
        assert main(["trace", "--apps", "2", "--export", "chrome", str(out)]) == 0
        capsys.readouterr()
        assert main(["obs", "validate", str(out)]) == 0
        assert "valid trace-event JSON" in capsys.readouterr().out

    def test_obs_validate_rejects_bad_file(self, capsys, tmp_path):
        import json

        from repro.__main__ import main

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{"ph": "i"}]))
        assert main(["obs", "validate", str(bad)]) == 1
        assert "problem" in capsys.readouterr().err
