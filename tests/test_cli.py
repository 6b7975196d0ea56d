"""Tests for the ``python -m repro.bench`` command-line figure runner."""

import argparse
import json
import subprocess
import sys

import pytest

from repro.bench.__main__ import _resolve_artifact_out, build_parser, main


def run_cli(*args, timeout=240):
    proc = subprocess.run(
        [sys.executable, "-m", "repro.bench", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_micro_defaults(self):
        args = build_parser().parse_args(["micro"])
        assert args.machine == "intel"
        assert args.ops == 150

    def test_machine_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["micro", "--machine", "cray"])

    def test_gups_options(self):
        args = build_parser().parse_args(
            ["gups", "--machine", "ibm", "--ranks", "4", "--updates", "8"]
        )
        assert (args.machine, args.ranks, args.updates) == ("ibm", 4, 8)


class TestInProcess:
    def test_micro_prints_figure(self, capsys):
        main(["micro", "--machine", "intel", "--ops", "20",
              "--samples", "1"])
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "eager speedup" in out

    def test_gups_prints_figure(self, capsys):
        main(["gups", "--machine", "marvell", "--ranks", "4",
              "--table-log2", "10", "--updates", "16", "--batch", "8"])
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "rma_future" in out

    def test_offnode(self, capsys):
        main(["offnode", "--ops", "5"])
        out = capsys.readouterr().out
        assert "Off-node" in out
        assert "delta" in out

    def test_matching_small(self, capsys):
        main(["matching", "--ranks", "2", "--scale", "1"])
        out = capsys.readouterr().out
        assert "Figure 8" in out
        assert "youtube" in out


class TestArtifactParsers:
    def test_ab_defaults(self):
        args = build_parser().parse_args(["ab"])
        assert args.spec is None and args.out is None
        assert not args.quick and not args.gate and not args.force

    def test_ab_spec_repeatable(self):
        args = build_parser().parse_args(
            ["ab", "--spec", "wake_scan", "--spec", "eager_defer"]
        )
        assert args.spec == ["wake_scan", "eager_defer"]

    def test_ab_unknown_spec_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ab", "--spec", "nope"])

    def test_artifact_out_defaults_to_none(self):
        # --out None lets quick runs pick BENCH_<name>.quick.json
        for cmd in ("serve", "ab"):
            args = build_parser().parse_args([cmd])
            assert args.out is None and not args.force

    def test_validate_paths(self):
        args = build_parser().parse_args(["validate", "a.json", "b.json"])
        assert args.paths == ["a.json", "b.json"]


class TestQuickArtifactNaming:
    def _args(self, **kw):
        base = dict(out=None, quick=False, force=False)
        base.update(kw)
        return argparse.Namespace(**base)

    def test_full_default_is_canonical(self):
        assert _resolve_artifact_out("serve", self._args()) == (
            "BENCH_serve.json"
        )

    def test_quick_default_has_quick_marker(self):
        assert _resolve_artifact_out("serve", self._args(quick=True)) == (
            "BENCH_serve.quick.json"
        )

    def test_quick_refuses_to_clobber_full_artifact(self, tmp_path):
        target = tmp_path / "BENCH_x.json"
        target.write_text(json.dumps({"bench": "serve", "quick": False}))
        with pytest.raises(SystemExit, match="refusing to overwrite"):
            _resolve_artifact_out(
                "serve", self._args(out=str(target), quick=True)
            )

    def test_force_overrides_refusal(self, tmp_path):
        target = tmp_path / "BENCH_x.json"
        target.write_text(json.dumps({"bench": "serve", "quick": False}))
        out = _resolve_artifact_out(
            "serve", self._args(out=str(target), quick=True, force=True)
        )
        assert out == str(target)

    def test_quick_over_quick_is_fine(self, tmp_path):
        target = tmp_path / "BENCH_x.quick.json"
        target.write_text(json.dumps({"bench": "serve", "quick": True}))
        out = _resolve_artifact_out(
            "serve", self._args(out=str(target), quick=True)
        )
        assert out == str(target)

    def test_explicit_out_to_fresh_path_is_fine(self, tmp_path):
        out = _resolve_artifact_out(
            "serve", self._args(out=str(tmp_path / "new.json"), quick=True)
        )
        assert out.endswith("new.json")


class TestAbInProcess:
    def test_ab_out_with_multiple_specs_rejected(self):
        with pytest.raises(SystemExit, match="single spec"):
            main(["ab", "--out", "x.json"])

    def test_ab_gate_missing_baseline_fails(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit, match="unreadable"):
            main(["ab", "--spec", "wake_scan", "--quick", "--gate"])

    def test_ab_quick_writes_quick_artifact_and_gates(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        main(["ab", "--spec", "wake_scan", "--quick"])
        art = tmp_path / "BENCH_ab_wake_scan.quick.json"
        assert art.exists()
        doc = json.loads(art.read_text())
        assert doc["quick"] is True and doc["bench"] == "ab"
        # second run gates clean against the first (determinism)
        main(["ab", "--spec", "wake_scan", "--quick", "--gate",
              "--baseline", str(art)])
        assert "gate OK" in capsys.readouterr().out

    def test_validate_runs_over_artifacts(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        main(["validate"])
        assert "no BENCH_" in capsys.readouterr().out


class TestSubprocess:
    def test_help(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        assert "micro" in proc.stdout and "matching" in proc.stdout

    def test_micro_subprocess(self):
        proc = run_cli("micro", "--machine", "ibm", "--ops", "20",
                       "--samples", "1")
        assert proc.returncode == 0
        assert "Figure 3" in proc.stdout
