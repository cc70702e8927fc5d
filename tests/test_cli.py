"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main


#: flags of deleted features, each an argparse error (exit 2)
_REMOVED_FLAGS = [
    ("simulate", "--aggregate-on-arrival"),
    ("simulate", "--streaming-encode"),
    ("simulate", "--streaming"),
    ("simulate", "--tree-fanout"),
    ("simulate", "--profile-cache"),
    ("compress", "--profile-cache"),
]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compress_defaults(self):
        args = build_parser().parse_args(["compress"])
        assert args.command == "compress"
        assert args.model == "alexnet"
        assert args.bound == pytest.approx(1e-2)

    def test_simulate_options(self):
        args = build_parser().parse_args(["simulate", "--rounds", "3", "--clients", "2",
                                          "--dataset", "fmnist"])
        assert args.rounds == 3
        assert args.clients == 2
        assert args.dataset == "fmnist"

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compress", "--model", "vgg"])

    def test_select_bounds_list(self):
        args = build_parser().parse_args(["select", "--bounds", "1e-2", "1e-4"])
        assert args.bounds == [1e-2, 1e-4]

    def test_round_engine_flags(self):
        args = build_parser().parse_args(["simulate", "--workers", "4",
                                          "--participation", "0.5",
                                          "--straggler", "0.2", "--dropout", "0.1"])
        assert args.workers == 4
        assert args.participation == 0.5
        assert args.straggler == pytest.approx(0.2)
        assert args.dropout == pytest.approx(0.1)

    def test_round_engine_flag_defaults_are_sequential(self):
        args = build_parser().parse_args(["simulate"])
        assert args.workers == 1
        assert args.participation == 1.0
        assert args.straggler == 0.0 and args.dropout == 0.0

    @pytest.mark.parametrize("command, flag", _REMOVED_FLAGS, ids=[
        flag if command == "simulate" else f"{command}-{flag}"
        for command, flag in _REMOVED_FLAGS])
    def test_removed_engine_flags_rejected(self, command, flag, capsys):
        # every ship is encode, transfer, then decode, the round engine
        # always aggregates once per round through flat FedAvg, and the
        # profiler's cache lives in memory only
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, flag])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_entropy_flags(self):
        for command in ("compress", "simulate"):
            args = build_parser().parse_args([command, "--entropy-chunk", "4096"])
            assert args.entropy_chunk == 4096
        defaults = build_parser().parse_args(["compress"])
        assert defaults.entropy_chunk == 65536

    def test_backend_flag(self):
        for command in ("compress", "simulate"):
            args = build_parser().parse_args([command, "--backend", "process"])
            assert args.backend == "process"
            assert build_parser().parse_args([command]).backend == "thread"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compress", "--backend", "mpi"])

    def test_plan_flags(self):
        for command in ("compress", "simulate"):
            args = build_parser().parse_args([command, "--policy", "mixed-codec",
                                              "--pipeline-workers", "4",
                                              "--small-tensor-codec", "zfp"])
            assert args.policy == "mixed-codec"
            assert args.pipeline_workers == 4
            assert args.small_tensor_codec == "zfp"
        defaults = build_parser().parse_args(["compress"])
        assert defaults.policy == "uniform"
        assert defaults.pipeline_workers == 1
        assert defaults.small_tensor_codec == "szx"

    def test_profiled_policy_flags(self):
        args = build_parser().parse_args(["compress", "--policy", "profiled",
                                          "--bandwidth", "250"])
        assert args.policy == "profiled"
        assert args.bandwidth == pytest.approx(250.0)
        assert build_parser().parse_args(["compress"]).bandwidth == pytest.approx(10.0)

    def test_bandwidth_spread_flag(self):
        args = build_parser().parse_args(["simulate", "--bandwidth-spread", "20"])
        assert args.bandwidth_spread == pytest.approx(20.0)
        assert build_parser().parse_args(["simulate"]).bandwidth_spread == 1.0

    def test_participation_accepts_counts_and_fractions(self):
        parse = build_parser().parse_args
        assert parse(["simulate", "--participation", "3"]).participation == 3
        assert isinstance(parse(["simulate", "--participation", "3"]).participation, int)
        assert parse(["simulate", "--participation", "1"]).participation == 1.0
        assert isinstance(parse(["simulate", "--participation", "1"]).participation, float)
        with pytest.raises(SystemExit):
            parse(["simulate", "--participation", "lots"])


class TestCommands:
    def test_compress_command_output(self, capsys):
        exit_code = main(["compress", "--model", "simplecnn", "--bound", "1e-2"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "FedSZ bitstream" in out
        assert "ratio" in out
        assert "max abs error" in out

    def test_compress_with_alternative_compressor(self, capsys):
        exit_code = main(["compress", "--model", "mlp", "--compressor", "szx"])
        assert exit_code == 0
        assert "szx" in capsys.readouterr().out

    def test_compress_with_mixed_codec_policy(self, capsys):
        exit_code = main(["compress", "--model", "simplecnn", "--policy", "mixed-codec",
                          "--pipeline-workers", "2"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "mixed-codec policy" in out

    def test_compress_with_profiled_policy(self, capsys):
        # a fast link sends the profiled plan to the verbatim fallback tier
        exit_code = main(["compress", "--model", "simplecnn", "--policy", "profiled",
                          "--bandwidth", "100000"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "profiled policy" in out
        assert "verbatim" in out

    @pytest.mark.parametrize("argv", [
        ["compress", "--model", "simplecnn"],
        ["simulate", "--model", "mlp", "--rounds", "1", "--clients", "2",
         "--samples", "60", "--image-size", "8"],
    ], ids=["compress", "simulate"])
    def test_profiled_run_prints_cache_hits_and_misses(self, argv, capsys):
        exit_code = main(argv + ["--policy", "profiled"])
        out = capsys.readouterr().out
        assert exit_code == 0
        line = next(line for line in out.splitlines()
                    if line.startswith("profile cache:"))
        counters = re.fullmatch(r"profile cache:\s+(\d+) hits / (\d+) misses", line)
        assert counters is not None, line
        assert int(counters.group(2)) > 0

    def test_compress_profiled_on_slow_link_compresses(self, capsys):
        exit_code = main(["compress", "--model", "simplecnn", "--policy", "profiled",
                          "--bandwidth", "1"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "verbatim" not in out

    @pytest.mark.parametrize("flags,fragment", [
        (["--policy", "round-robin"], "unknown plan policy"),
        (["--lossless", "snappy"], "unknown lossless codec"),
        (["--compressor", "fpzip"], "unknown lossy compressor"),
        (["--policy", "mixed-codec", "--small-tensor-codec", "nope"],
         "unknown lossy compressor"),
        (["--pipeline-workers", "0"], "pipeline_workers"),
    ])
    def test_unknown_names_get_one_line_errors(self, capsys, flags, fragment):
        exit_code = main(["compress", "--model", "mlp", *flags])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "repro compress: error:" in err and fragment in err
        assert "Traceback" not in err

    def test_simulate_unknown_policy_is_clean(self, capsys):
        exit_code = main(["simulate", "--model", "mlp", "--samples", "80",
                          "--image-size", "8", "--policy", "nope"])
        assert exit_code == 2
        assert "unknown plan policy" in capsys.readouterr().err

    def test_simulate_command_output(self, capsys):
        exit_code = main(["simulate", "--model", "mlp", "--rounds", "2", "--clients", "2",
                          "--samples", "120", "--image-size", "8"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "final accuracy" in out
        assert "upload volume" in out
        assert "x reduction" in out

    def test_simulate_engine_range_errors_are_clean(self, capsys):
        exit_code = main(["simulate", "--model", "mlp", "--samples", "80",
                          "--image-size", "8", "--clients", "4", "--participation", "9"])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "repro simulate: error:" in err and "participation count" in err

        exit_code = main(["simulate", "--model", "mlp", "--samples", "80",
                          "--image-size", "8", "--workers", "0"])
        assert exit_code == 2
        assert "max_workers" in capsys.readouterr().err

    def test_simulate_with_round_engine_flags(self, capsys):
        exit_code = main(["simulate", "--model", "mlp", "--rounds", "2", "--clients", "4",
                          "--samples", "120", "--image-size", "8", "--workers", "2",
                          "--participation", "0.5"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "final accuracy" in out

    def test_simulate_profiled_heterogeneous_fleet(self, capsys):
        exit_code = main(["simulate", "--model", "mlp", "--rounds", "1", "--clients", "3",
                          "--samples", "120", "--image-size", "8",
                          "--policy", "profiled", "--bandwidth", "50",
                          "--bandwidth-spread", "200"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "per-client plans (final round):" in out
        assert "Mbps -> codecs" in out

    def test_select_command_output(self, capsys):
        exit_code = main(["select", "--model", "simplecnn", "--bounds", "1e-2"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "recommended:" in out
        assert "Mbps" in out
        for name in ("sz2", "sz3", "szx", "zfp"):
            assert name in out
