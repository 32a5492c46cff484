"""The ensembler CLI (Figure 5c): ./user_app_gpu -f arguments.txt -n 4 -t 128."""

import pytest

from repro.host.cli import build_parser, main


@pytest.fixture
def argfile(tmp_path):
    f = tmp_path / "arguments.txt"
    f.write_text("-p 8 -n 2 -l 16 -s 1\n-p 8 -n 2 -l 16 -s 2\n")
    return str(f)


class TestParser:
    def test_paper_flags_accepted(self):
        args = build_parser().parse_args(
            ["--app", "rsbench", "-f", "a.txt", "-n", "4", "-t", "128"]
        )
        assert args.app == "rsbench"
        assert args.arg_file == "a.txt"
        assert args.num_instances == 4
        assert args.thread_limit == 128

    def test_defaults(self):
        args = build_parser().parse_args(["--app", "xsbench", "-f", "x"])
        assert args.num_instances is None
        assert args.thread_limit == 1024
        assert args.pack == 1
        assert args.devices == 1
        assert args.max_batch is None
        assert args.retries == 2
        assert args.no_timing is False

    def test_scheduler_flags_accepted(self):
        args = build_parser().parse_args(
            ["--app", "rsbench", "-f", "a.txt", "--devices", "4",
             "--max-batch", "8", "--max-steps", "5000", "--retries", "0"]
        )
        assert args.devices == 4
        assert args.max_batch == 8
        assert args.max_steps == 5000
        assert args.retries == 0


class TestExecution:
    def test_list_apps(self, capsys):
        assert main(["--app", "xsbench", "--list-apps"]) == 0
        out = capsys.readouterr().out
        for name in ("xsbench", "rsbench", "amgmk", "pagerank"):
            assert name in out

    def test_unknown_app_errors(self, argfile):
        with pytest.raises(SystemExit):
            main(["--app", "doom", "-f", argfile])

    def test_missing_argfile_errors(self):
        with pytest.raises(SystemExit):
            main(["--app", "rsbench"])

    def test_full_run(self, argfile, capsys):
        code = main(
            ["--app", "rsbench", "-f", argfile, "-n", "2", "-t", "32", "--heap-mb", "4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "RSBench checksum" in out
        assert "ensemble: 2 instances, 2 teams x 32 threads" in out

    def test_quiet_suppresses_instance_stdout(self, argfile, capsys):
        main(["--app", "rsbench", "-f", argfile, "-t", "32", "--quiet",
              "--heap-mb", "4"])
        out = capsys.readouterr().out
        assert "RSBench checksum" not in out
        assert "exit 0" in out

    def test_script_mode(self, tmp_path, capsys):
        script = tmp_path / "gen.args"
        script.write_text("@foreach i in 1..2\n-p 8 -n 2 -l 16 -s {i}\n@end\n")
        code = main(
            ["--app", "rsbench", "-f", str(script), "--script", "-t", "32",
             "--heap-mb", "4"]
        )
        assert code == 0
        assert "2 instances" in capsys.readouterr().out

    def test_packed_mapping_flag(self, argfile, capsys):
        code = main(
            ["--app", "rsbench", "-f", argfile, "-t", "64", "--pack", "2",
             "--heap-mb", "4", "--quiet"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "1 teams x 64 threads" in out  # 2 instances packed into 1 team

    def test_oom_exit_code(self, tmp_path, capsys):
        f = tmp_path / "args.txt"
        f.write_text("\n".join("-n 16384 -d 8 -i 1 -s %d" % i for i in range(8)) + "\n")
        code = main(
            ["--app", "pagerank", "-f", str(f), "-t", "32", "--heap-mb", "2",
             "--quiet"]
        )
        assert code == 2
        assert "out of memory" in capsys.readouterr().err


class TestSchedulerRouting:
    def test_multi_device_run(self, argfile, capsys):
        code = main(
            ["--app", "rsbench", "-f", argfile, "-t", "32", "--devices", "2",
             "--heap-mb", "4", "--quiet"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "campaign: 2 instances (all ok)" in out
        assert "scheduler: 2 devices" in out
        assert "utilization" in out

    def test_zero_devices_rejected(self, argfile):
        with pytest.raises(SystemExit):
            main(["--app", "rsbench", "-f", argfile, "--devices", "0"])

    def test_max_batch_routes_through_campaign_runner(self, argfile, capsys):
        code = main(
            ["--app", "rsbench", "-f", argfile, "-t", "32", "--max-batch", "1",
             "--heap-mb", "4", "--quiet"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "campaign: 2 instances (all ok)" in out
        assert "2 batches" in out

    def test_no_timing_prints_untimed(self, argfile, capsys):
        code = main(
            ["--app", "rsbench", "-f", argfile, "-t", "32", "--no-timing",
             "--heap-mb", "4", "--quiet"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "untimed" in out  # cycles=None no longer crashes the summary

    def test_nonzero_exit_propagates_from_scheduler(self, tmp_path, capsys):
        # pagerank rejects -n 0 ("bad arguments") with a nonzero exit code
        f = tmp_path / "args.txt"
        f.write_text("-n 0\n-n 0\n")
        code = main(
            ["--app", "pagerank", "-f", str(f), "-t", "32", "--devices", "2",
             "--heap-mb", "4", "--quiet"]
        )
        assert code == 1
        assert "failed" in capsys.readouterr().out


class TestObservabilityFlags:
    def test_trace_and_metrics_out(self, argfile, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        code = main(
            ["--app", "rsbench", "-f", argfile, "-t", "32", "--devices", "2",
             "--heap-mb", "4", "--quiet",
             "--trace-out", str(trace), "--metrics-out", str(metrics)]
        )
        assert code == 0
        assert validate_chrome_trace(json.loads(trace.read_text())) == []
        names = {m["name"] for m in json.loads(metrics.read_text())["metrics"]}
        assert "sched.jobs.completed" in names
        assert "rpc.calls" in names
        err = capsys.readouterr().err
        assert "wrote trace" in err and "wrote metrics" in err

    def test_metrics_lines_suffix_selects_line_protocol(self, argfile, tmp_path):
        metrics = tmp_path / "metrics.lines"
        code = main(
            ["--app", "rsbench", "-f", argfile, "-t", "32", "--heap-mb", "4",
             "--quiet", "--metrics-out", str(metrics)]
        )
        assert code == 0
        assert "device.launches,device=" in metrics.read_text()

    def test_outputs_written_on_failure_paths(self, tmp_path):
        f = tmp_path / "args.txt"
        f.write_text("-n 0\n")
        metrics = tmp_path / "metrics.json"
        code = main(
            ["--app", "pagerank", "-f", str(f), "-t", "32", "--heap-mb", "4",
             "--quiet", "--metrics-out", str(metrics)]
        )
        assert code == 1  # the instance exits nonzero...
        assert metrics.exists()  # ...but the dump is still flushed


class TestBackendFlag:
    def test_backend_flag_accepted(self):
        args = build_parser().parse_args(
            ["--app", "rsbench", "-f", "a.txt", "--backend", "compiled"]
        )
        assert args.backend == "compiled"

    def test_backend_defaults_to_compiled(self):
        args = build_parser().parse_args(["--app", "rsbench", "-f", "a.txt"])
        assert args.backend == "compiled"

    def test_unknown_backend_rejected_by_argparse(self, argfile):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["--app", "rsbench", "-f", argfile, "--backend", "jit"]
            )

    def test_compiled_run_matches_interp_output(self, argfile, capsys):
        outputs = {}
        for backend in ("interp", "compiled"):
            code = main(
                ["--app", "rsbench", "-f", argfile, "-t", "32",
                 "--heap-mb", "4", "--no-timing", "--backend", backend]
            )
            assert code == 0
            outputs[backend] = capsys.readouterr().out
        assert outputs["compiled"] == outputs["interp"]

    def test_backend_flag_routes_through_scheduler(self, argfile, capsys):
        code = main(
            ["--app", "rsbench", "-f", argfile, "-t", "32", "--devices", "2",
             "--heap-mb", "4", "--quiet", "--backend", "compiled"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "campaign: 2 instances (all ok)" in out


class TestAutoMode:
    """--auto SCRIPT[:FUNC]: natural driver loops through the CLI."""

    @pytest.fixture
    def safe_script(self, tmp_path):
        f = tmp_path / "drv.py"
        f.write_text(
            "def driver(run):\n"
            "    total = 0\n"
            "    for seed in range(1, 3):\n"
            "        r = run(['-n', '256', '-i', '1', '-s', str(seed)])\n"
            "        total += r.exit_code\n"
            "    return total\n"
        )
        return str(f)

    def test_auto_runs_ensemble(self, safe_script, capsys):
        code = main(
            ["--app", "stencil", "--auto", safe_script, "-t", "32",
             "--no-timing", "--heap-mb", "4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Stencil1D checksum" in out
        assert "driver driver() -> 2 instances" in out
        assert "1 reduction(s) replayed in loop order" in out
        assert "driver value: 0" in out

    def test_auto_explicit_function(self, safe_script, capsys):
        code = main(
            ["--app", "stencil", "--auto", safe_script + ":driver", "-t",
             "32", "--no-timing", "--heap-mb", "4", "--quiet"]
        )
        assert code == 0

    def test_auto_rejects_dependent_loop(self, tmp_path, capsys):
        f = tmp_path / "bad.py"
        f.write_text(
            "def driver(run):\n"
            "    last = None\n"
            "    for seed in range(1, 3):\n"
            "        run(['-s', str(seed)])\n"
            "        last = seed\n"
            "    return last\n"
        )
        code = main(
            ["--app", "stencil", "--auto", str(f), "-t", "32", "--no-timing"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "auto-ensemble rejected" in err
        assert "output dependence" in err
        assert "'last'" in err

    def test_auto_and_argfile_mutually_exclusive(self, safe_script, argfile):
        with pytest.raises(SystemExit):
            main(["--app", "stencil", "--auto", safe_script, "-f", argfile])

    def test_auto_missing_script_is_usage_error(self):
        with pytest.raises(SystemExit):
            main(["--app", "stencil", "--auto", "/nonexistent/drv.py"])

    def test_auto_unknown_function_is_usage_error(self, safe_script):
        with pytest.raises(SystemExit):
            main(["--app", "stencil", "--auto", safe_script + ":missing"])

    def test_auto_ambiguous_script_is_usage_error(self, tmp_path):
        f = tmp_path / "two.py"
        f.write_text(
            "def a(run):\n    for s in range(2):\n        run([str(s)])\n"
            "def b(run):\n    for s in range(2):\n        run([str(s)])\n"
        )
        with pytest.raises(SystemExit):
            main(["--app", "stencil", "--auto", str(f)])
