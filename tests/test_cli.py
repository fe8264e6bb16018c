"""Tests for the command-line interface."""

import inspect

import pytest

from repro import cli
from repro.cli import build_parser, main

from .serve.conftest import make_tiny_dcn


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_table(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "7"])

    def test_attack_defaults(self):
        args = build_parser().parse_args(["attack"])
        assert args.dataset == "mnist-fast"
        assert args.attack_name == "cw-l2"
        assert not args.untargeted

    def test_run_worker_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.workers == 1
        assert args.lease_ttl == 30.0
        assert not args.resume

    def test_run_workers_flags(self):
        args = build_parser().parse_args(
            ["run", "--only", "table45", "--workers", "4", "--lease-ttl", "5", "--resume"]
        )
        assert args.workers == 4
        assert args.lease_ttl == 5.0
        assert args.resume

    def test_bench_requires_compare(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench", "--compare", "BENCH_x.json"])
        assert args.compare == "BENCH_x.json"
        assert args.current is None
        assert args.threshold == 0.10
        assert not args.warn_only

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.requests == 256
        assert args.adv_fraction == 0.05
        assert args.max_batch == 64
        assert args.max_queue == 128
        assert args.overload == "shed"
        assert args.burst == 32

    def test_serve_rejects_unknown_overload_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--overload", "panic"])

    def test_serve_listen_flags(self):
        args = build_parser().parse_args(["serve"])
        assert args.listen is None  # local synthetic stream by default
        assert args.max_restarts == 0
        args = build_parser().parse_args(
            ["serve", "--listen", "0.0.0.0:9000", "--workers", "2",
             "--max-restarts", "3", "--restart-window", "10",
             "--default-deadline-ms", "500"]
        )
        assert args.listen == "0.0.0.0:9000"
        assert args.max_restarts == 3
        assert args.restart_window == 10.0
        assert args.default_deadline_ms == 500.0

    def test_loadgen_connect_flags(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.connect is None
        args = build_parser().parse_args(
            ["loadgen", "--connect", "127.0.0.1:9000", "--clients", "8",
             "--deadline-ms", "250", "--retries", "1"]
        )
        assert args.connect == "127.0.0.1:9000"
        assert args.clients == 8
        assert args.deadline_ms == 250.0
        assert args.retries == 1

    def test_hostport_parsing(self):
        from repro.cli import _parse_hostport

        assert _parse_hostport("127.0.0.1:9000") == ("127.0.0.1", 9000)
        assert _parse_hostport("localhost:0") == ("localhost", 0)
        with pytest.raises(SystemExit):
            _parse_hostport("no-port-here")
        with pytest.raises(SystemExit):
            _parse_hostport("host:not-a-number")

    def test_loadgen_flags(self):
        args = build_parser().parse_args(
            ["loadgen", "--requests", "64", "--adv-fraction", "0.1", "--window", "16"]
        )
        assert args.requests == 64
        assert args.adv_fraction == 0.1
        assert args.window == 16
        assert args.max_size == 1  # single-row requests by default


class TestCommands:
    def test_info_lists_registries(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "mnist-like" in out
        assert "cw-l2" in out
        assert "cnn-paper" in out
        assert "REPRO_SCALE" in out

    def test_train_reports_accuracy(self, capsys):
        assert main(["train", "--dataset", "mnist-fast"]) == 0
        out = capsys.readouterr().out
        assert "test accuracy" in out
        assert "%" in out

    def test_attack_targeted(self, capsys):
        code = main(["attack", "--dataset", "mnist-fast", "--attack", "igsm", "--seeds", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "igsm (targeted)" in out
        assert "linf" in out

    def test_attack_untargeted_native(self, capsys):
        code = main(["attack", "--dataset", "mnist-fast", "--attack", "deepfool", "--seeds", "4"])
        assert code == 0
        assert "deepfool (untargeted)" in capsys.readouterr().out

    def test_attack_untargeted_wrapper(self, capsys):
        code = main(
            ["attack", "--dataset", "mnist-fast", "--attack", "fgsm", "--seeds", "4", "--untargeted"]
        )
        assert code == 0
        assert "fgsm (untargeted)" in capsys.readouterr().out


class TestVerifyCommand:
    @pytest.mark.parametrize("cases", ["0", "-3"])
    def test_refuses_fewer_than_one_case(self, cases, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--cases", cases])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert "--cases" in err
        assert "agree" not in out + err


_COUNT_FLAGS = [
    ("run", "--workers"),
    ("run", "--chunk"),
    ("serve", "--min-size"),
    ("loadgen", "--min-size"),
    ("serve", "--requests"),
    ("serve", "--burst"),
    ("serve", "--workers"),
    ("serve", "--max-batch"),
    ("serve", "--max-queue"),
    ("loadgen", "--requests"),
    ("loadgen", "--window"),
    ("loadgen", "--clients"),
    ("loadgen", "--max-batch"),
]


class TestCountFlags:
    @pytest.mark.parametrize("value", ["0", "-2"])
    @pytest.mark.parametrize("command,flag", _COUNT_FLAGS)
    def test_refuses_non_positive_counts(self, command, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["serve", "loadgen"])
    def test_refuses_min_size_above_max_size(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--min-size", "3", "--max-size", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--min-size" in err and "--max-size" in err


class _StubFront:
    """Stands in for the serving backend: no stream, zero counters."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def telemetry_snapshot(self):
        return {"counters": {"examples": 0}, "latency": {"p50_ms": 0.0, "p95_ms": 0.0}}


class TestServeCommand:
    def test_serve_forwards_restart_budget_to_the_pool(self, monkeypatch, capsys):
        front_signature = inspect.signature(cli._build_front)
        seen = {}

        def fake_build_front(*args, **kwargs):
            seen.update(front_signature.bind(*args, **kwargs).arguments)
            return _StubFront()

        monkeypatch.setattr(cli, "_serve_stream", lambda *args: (None, []))
        monkeypatch.setattr(cli, "_build_front", fake_build_front)
        assert main(["serve", "--workers", "2", "--max-restarts", "3",
                     "--restart-window", "12"]) == 0
        assert seen["workers"] == 2
        assert seen.get("max_restarts") == 3
        assert seen.get("restart_window_s") == 12.0
        assert "[2 workers]" in capsys.readouterr().out


@pytest.fixture()
def tiny_cli_dcn(tiny_correct, monkeypatch):
    """Point serve/loadgen at the tiny test DCN and a 12-request stream."""
    from repro.serve import StreamSpec, build_stream

    network, x, _ = tiny_correct
    dcn = make_tiny_dcn(network)
    stream = build_stream(x, None, StreamSpec(requests=12, max_size=3, seed=7))
    monkeypatch.setattr(cli, "_serve_stream", lambda *args: (dcn, stream))
    return dcn


class TestServeEndToEnd:
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_serve_reports_every_request(self, tiny_cli_dcn, workers, capsys):
        assert main(["serve", "--workers", workers, "--burst", "5"]) == 0
        out = capsys.readouterr().out
        assert "served 12/12" in out
        assert "statuses: ok=12" in out

    def test_loadgen_in_process(self, tiny_cli_dcn, capsys):
        assert main(["loadgen"]) == 0
        assert "bitwise-identical to offline DCN.classify: True" in capsys.readouterr().out

    def test_loadgen_connect(self, tiny_cli_dcn, capsys):
        from repro.serve import DCNServer, DCNService

        with DCNService(tiny_cli_dcn, max_batch=8) as service:
            with DCNServer(service) as server:
                host, port = server.address
                code = main(["loadgen", "--connect", f"{host}:{port}", "--clients", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "statuses: served=12 shed=0" in out
        assert "bitwise-identical to offline DCN.classify: True" in out


class TestPaperArtifactCommands:
    """These rely on the warmed .artifacts cache and stay read-only."""

    def test_figure_1(self, capsys):
        assert main(["figure", "1"]) == 0
        out = capsys.readouterr().out
        assert "logits" in out
        assert "*" in out  # maximum marked, as in the paper's Fig. 1

    def test_table_2(self, capsys):
        assert main(["table", "2"]) == 0
        out = capsys.readouterr().out
        assert "FALSE RATE OF DETECTOR" in out
        assert "mnist-fast" in out and "cifar-fast" in out
