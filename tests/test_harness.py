import csv
import json
import multiprocessing
import os

import pytest

import mks.harness
import mks.operators
from mks.cli import main
from mks.config import parse_config
from mks.errors import WorkerLostError
from mks.harness import reaggregate, run_experiment, verify_suite

ZERO_INPUT = """
[grid]
points = 8
length = 6.283185307179586

[model]
q = 2.0
mode = strong
equation = tsee

[noise]
count = 1
B_1 = zero
b_1 = zero
u0 = zero

[scheme]
type = euler_maruyama
dt = 0.125
cutoff = 2
horizon = 0.5

[monte_carlo]
paths = 3
base_seed = 11
"""

SMALL_RUN = """
[grid]
points = 8
length = 6.283185307179586

[model]
q = 2.0
mode = strong
equation = tsee

[noise]
count = 1
B_1 = plane-wave(amplitude=0.2, mode=1 0 0)
b_1 = constant(value=0.1) * cos(1.0)
J = band-limited-random(seed=3, amplitude=0.1, max_mode=1)
u0 = band-limited-random(seed=5, amplitude=0.5, max_mode=1)

[scheme]
type = euler_maruyama
dt = 0.03125
cutoff = 2
horizon = 0.25

[monte_carlo]
paths = 4
base_seed = 77
"""

BLOWUP_RUN = """
[grid]
points = 8
length = 6.283185307179586

[model]
q = 2.0
mode = strong
equation = msee
nonlinearity = off

[noise]
count = 1
B_1 = zero
b_1 = zero
J = constant(value=1e7)
u0 = zero

[scheme]
type = euler_maruyama
dt = 0.125
cutoff = 2
horizon = 0.5

[monte_carlo]
paths = 2
base_seed = 5
"""


class TestRunExperiment:
    def test_zero_inputs_all_zero(self, tmp_path):
        cfg = parse_config(ZERO_INPUT)
        report, status = run_experiment(cfg, workers=1, out_dir=tmp_path)
        assert status == 0
        assert report.sup_l2_squared.mean == 0.0
        assert report.sup_lambda_squared.mean == 0.0
        with open(tmp_path / "series.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r["l2"]) == 0.0 for r in rows)

    def test_worker_count_is_invisible(self, tmp_path):
        cfg = parse_config(SMALL_RUN)
        _, s1 = run_experiment(cfg, workers=1, out_dir=tmp_path / "w1")
        _, s2 = run_experiment(cfg, workers=4, out_dir=tmp_path / "w4")
        assert s1 == s2 == 0
        assert (tmp_path / "w1" / "series.csv").read_bytes() == \
            (tmp_path / "w4" / "series.csv").read_bytes()
        assert (tmp_path / "w1" / "summary.csv").read_bytes() == \
            (tmp_path / "w4" / "summary.csv").read_bytes()

    def test_serial_run_builds_the_runtime_once(self, tmp_path, monkeypatch):
        calls = []
        original = mks.harness.build_runtime

        def counted(cfg):
            calls.append(cfg)
            return original(cfg)

        monkeypatch.setattr(mks.harness, "build_runtime", counted)
        cfg = parse_config(SMALL_RUN)
        run_experiment(cfg, workers=1, out_dir=tmp_path)
        assert cfg.paths == 4 and len(calls) == 1

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched run_path reaches workers by fork")
    def test_lost_worker_names_the_path(self, tmp_path, monkeypatch):
        original = mks.harness.run_path

        def dies_on_path_one(*args, **kwargs):
            if kwargs["path_index"] == 1:
                os._exit(3)
            return original(*args, **kwargs)

        monkeypatch.setattr(mks.harness, "run_path", dies_on_path_one)
        cfg = parse_config(SMALL_RUN)
        cfg.paths = 3
        with pytest.raises(WorkerLostError) as info:
            run_experiment(cfg, workers=2, out_dir=tmp_path)
        # the pool stops its other workers when one dies; only the path
        # whose worker exited is named as running
        assert info.value.running == [1]
        assert 1 in info.value.lost
        assert str(info.value).startswith(
            "[workers] a worker process exited while running path 1;")

    def test_blowup_is_logged_not_fatal(self, tmp_path):
        cfg = parse_config(BLOWUP_RUN)
        report, status = run_experiment(cfg, workers=1, out_dir=tmp_path)
        assert status == 1
        assert any(e["kind"] == "blowup" for e in report.events)
        # partial outputs kept
        assert (tmp_path / "summary.csv").exists()

    def test_checkpoints_written(self, tmp_path):
        cfg = parse_config(SMALL_RUN.replace("base_seed = 77",
                                             "base_seed = 77\n") + "")
        cfg.save_fields = True
        cfg.paths = 1
        report, status = run_experiment(cfg, workers=1, out_dir=tmp_path)
        index = tmp_path / "checkpoints" / "index.csv"
        assert index.exists()
        with open(index) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9  # 8 steps + initial state
        from mks.grid import read_checkpoint

        state = read_checkpoint(tmp_path / "checkpoints" / rows[0]["file"])
        assert state.grid.points_per_axis == 8

    def test_reaggregate_matches_summary(self, tmp_path):
        cfg = parse_config(SMALL_RUN)
        run_experiment(cfg, workers=1, out_dir=tmp_path)
        rows = dict(reaggregate(tmp_path))
        with open(tmp_path / "summary.csv") as fh:
            summary = {r["metric"]: r["value"] for r in csv.DictReader(fh)}
        expected = ["paths"] + [
            f"{name}_{part}"
            for name in ("sup_l2_squared", "integral_power",
                         "sup_lambda_squared", "terminal_residual")
            for part in ("mean", "variance", "ci_half_width")]
        assert sorted(rows) == sorted(expected)
        for key in expected:
            assert rows[key] == summary[key], key

    def test_assumption_echo_written(self, tmp_path):
        cfg = parse_config(SMALL_RUN)
        run_experiment(cfg, workers=1, out_dir=tmp_path)
        with open(tmp_path / "assumptions.csv") as fh:
            tags = {r["tag"] for r in csv.DictReader(fh)}
        assert {"M1", "M5", "M6", "W3"} <= tags


class TestVerifySuite:
    def test_fast_level_all_pass(self):
        checks = verify_suite("fast")
        failed = [c for c in checks if not c["passed"]]
        assert failed == []
        names = {c["name"] for c in checks}
        assert any("skew" in n for n in names)
        assert any("sandwich" in n for n in names)
        assert any("dense" in n for n in names)

    def test_broken_curl_is_caught(self, monkeypatch):
        # mutation probe: flip the sign convention and the suite must fail
        original = mks.operators.curl

        def bad_curl(grid, u3, zero_nyquist=False):
            return -original(grid, u3, zero_nyquist)

        monkeypatch.setattr(mks.operators, "curl", bad_curl)
        checks = verify_suite("fast")
        failed = {c["name"] for c in checks if not c["passed"]}
        assert any("square_is_laplacian" in n or "dense" in n for n in failed)


class TestCli:
    def test_run_verb(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(SMALL_RUN)
        rc = main(["run", "--config", str(cfg_file), "--paths", "2",
                   "--out", str(tmp_path / "out"), "--workers", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "E sup ||y||^2" in out
        assert (tmp_path / "out" / "series.csv").exists()

    def test_verify_verb_writes_json(self, tmp_path, capsys):
        rc = main(["verify", "--level", "fast",
                   "--out", str(tmp_path / "checks.json")])
        assert rc == 0
        data = json.loads((tmp_path / "checks.json").read_text())
        assert all(c["passed"] for c in data)

    def test_report_verb(self, tmp_path, capsys):
        cfg = parse_config(SMALL_RUN)
        run_experiment(cfg, workers=1, out_dir=tmp_path)
        rc = main(["report", "--out", str(tmp_path)])
        assert rc == 0
        assert "sup_l2_squared_mean" in capsys.readouterr().out

    def test_convergence_verb(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(SMALL_RUN.replace("dt = 0.03125", "dt = 0.0625"))
        rc = main(["convergence", "--config", str(cfg_file), "--mode", "dt",
                   "--dts", "1/16 1/32 1/64", "--paths", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fitted slope" in out or "exact" in out

    def test_invalid_config_is_reported(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(SMALL_RUN.replace("q = 2.0", "q = 3.0"))
        rc = main(["run", "--config", str(cfg_file)])
        assert rc == 2
        assert "[M1]" in capsys.readouterr().err
