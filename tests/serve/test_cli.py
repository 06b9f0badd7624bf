"""CLI surface of the serving subsystem: serve, loadtest, --version."""

import json

import pytest

from repro import __version__
from repro.cli import main
from tests.serve.conftest import SCALE


SERVE_ARGS = ["--scale", str(SCALE), "--model", "GCN",
              "--hidden-dim", "16", "--layers", "2"]


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out


class TestServeCommand:
    def test_serve_prints_predictions_and_report(self, capsys):
        code = main(["serve", *SERVE_ARGS, "--no-cache",
                     "--requests", "6", "--show", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fresh weights" in out
        assert "request 0:" in out
        assert "6/6 served on 1/1 replicas" in out

    def test_serve_json_report(self, capsys):
        code = main(["serve", *SERVE_ARGS, "--no-cache",
                     "--requests", "4", "--show", "0", "--json"])
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["served"] == 4
        assert payload["attempts"] == payload["admitted"] + \
            payload["rejected"]


class TestLoadtestCommand:
    def test_loadtest_deterministic_json(self, capsys, tmp_path):
        argv = ["loadtest", *SERVE_ARGS,
                "--requests", "24", "--pool", "4", "--seed", "3",
                "--process", "bursty", "--json"]
        assert main([*argv, "--cache-dir", str(tmp_path / "a")]) == 0
        first = capsys.readouterr().out
        assert main([*argv, "--cache-dir", str(tmp_path / "b")]) == 0
        second = capsys.readouterr().out
        assert first == second           # byte-identical replay
        payload = json.loads(first[first.index("{"):])
        assert payload["received"] == 24

    def test_loadtest_summary(self, capsys):
        code = main(["loadtest", *SERVE_ARGS, "--no-cache",
                     "--requests", "12", "--pool", "3", "--rate", "300"])
        assert code == 0
        out = capsys.readouterr().out
        assert "loadtest: 12 requests" in out
        assert "schedule cache:" in out


class TestExitCodes:
    def test_repro_error_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "nope.npz"
        code = main(["serve", *SERVE_ARGS, "--no-cache",
                     "--requests", "2", "--checkpoint", str(missing)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "nope.npz" in err

    def test_bad_loadtest_pool_exits_2(self, capsys):
        # Pool of zero graphs is a ConfigError, not a traceback.
        code = main(["loadtest", *SERVE_ARGS, "--no-cache",
                     "--requests", "4", "--pool", "0"])
        assert code == 2
        assert "error:" in capsys.readouterr().err
