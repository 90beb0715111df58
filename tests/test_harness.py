import csv
import json
import multiprocessing
import os
import tracemalloc
from pathlib import Path

import pytest

import mks.harness
import mks.operators
import mks.stepping
from mks.cli import main
from mks.config import parse_config
from mks.errors import ConfigurationError, UsageError, WorkerLostError
from mks.harness import (
    dense_battery,
    kerr_battery,
    memory_battery,
    operator_battery,
    reaggregate,
    run_experiment,
    verify_suite,
)

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

    def test_worker_count_is_invisible(self, tmp_path, monkeypatch):
        # one path per batch, so four workers each write checkpoints
        monkeypatch.setattr(mks.stepping, "BATCH_VALUES", 6 * 8**3)
        cfg = parse_config(SMALL_RUN)
        cfg.save_fields = True
        _, s1 = run_experiment(cfg, workers=1, out_dir=tmp_path / "w1")
        _, s2 = run_experiment(cfg, workers=4, out_dir=tmp_path / "w4")
        assert s1 == s2 == 0
        assert (tmp_path / "w1" / "series.csv").read_bytes() == \
            (tmp_path / "w4" / "series.csv").read_bytes()
        assert (tmp_path / "w1" / "summary.csv").read_bytes() == \
            (tmp_path / "w4" / "summary.csv").read_bytes()
        files = sorted(f.name for f in (tmp_path / "w1" / "checkpoints").iterdir())
        assert len(files) == 4 * 9 + 1 and "index.csv" in files
        assert sorted(f.name for f in
                      (tmp_path / "w4" / "checkpoints").iterdir()) == files
        for name in files:
            assert (tmp_path / "w1" / "checkpoints" / name).read_bytes() == \
                (tmp_path / "w4" / "checkpoints" / name).read_bytes(), name

    def test_run_memory_does_not_grow_with_the_horizon(self, tmp_path):
        # checkpoints are written as they are produced: no saved level is
        # held, so the traced peak barely moves from 8 to 64 steps
        config = Path(__file__).resolve().parents[1] / "configs" / \
            "example_strong.cfg"
        text = config.read_text().replace("save_fields = off",
                                          "save_fields = on")

        def traced_peak(horizon):
            cfg = parse_config(text.replace("horizon = 0.5",
                                            f"horizon = {horizon}"))
            tracemalloc.start()
            try:
                run_experiment(cfg, workers=1, out_dir=tmp_path / str(horizon))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced_peak(0.125)  # caches and imports
        short, long = traced_peak(0.125), traced_peak(1.0)
        assert len(list((tmp_path / "1.0" / "checkpoints").glob("*.mks"))) \
            == 4 * 65
        assert long - short < 0.25 * 2**20

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

    @staticmethod
    def _dies_on_path_one(monkeypatch, paths_per_batch):
        """Batches of the given size on 8^3; the batch holding path 1 kills
        its worker."""
        monkeypatch.setattr(mks.stepping, "BATCH_VALUES",
                            paths_per_batch * 6 * 8**3)
        original = mks.harness.run_paths

        def dies_on_path_one(*args, **kwargs):
            if 1 in kwargs["path_indices"]:
                os._exit(3)
            return original(*args, **kwargs)

        monkeypatch.setattr(mks.harness, "run_paths", dies_on_path_one)

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched run_paths reaches workers by fork")
    def test_lost_worker_names_the_path(self, tmp_path, monkeypatch):
        self._dies_on_path_one(monkeypatch, paths_per_batch=1)
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

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched run_paths reaches workers by fork")
    def test_lost_worker_names_every_path_of_its_batch(self, tmp_path,
                                                        monkeypatch):
        self._dies_on_path_one(monkeypatch, paths_per_batch=2)
        cfg = parse_config(SMALL_RUN)
        cfg.paths = 4
        with pytest.raises(WorkerLostError) as info:
            run_experiment(cfg, workers=2, out_dir=tmp_path)
        assert info.value.running == [0, 1]
        assert {0, 1} <= set(info.value.lost)
        assert str(info.value).startswith(
            "[workers] a worker process exited while running paths 0, 1;")

    def test_blowup_is_logged_not_fatal(self, tmp_path):
        cfg = parse_config(BLOWUP_RUN)
        cfg.save_fields = True
        report, status = run_experiment(cfg, workers=1, out_dir=tmp_path)
        assert status == 1
        assert any(e["kind"] == "blowup" for e in report.events)
        # partial outputs kept; the blown-up paths leave no checkpoint
        assert (tmp_path / "summary.csv").exists()
        assert list((tmp_path / "checkpoints").glob("*.mks")) == []
        assert (tmp_path / "checkpoints" / "index.csv").read_bytes() == \
            b"path,step,time,file\r\n"

    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=(
        pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                           reason="the patched threshold reaches workers "
                                  "by fork")))])
    def test_blown_up_path_leaves_no_checkpoints(self, tmp_path, monkeypatch,
                                                 workers):
        # a threshold between the paths' largest norms blows up some of them
        monkeypatch.setattr(mks.stepping, "BATCH_VALUES", 2 * 6 * 8**3)
        cfg = parse_config(SMALL_RUN)
        cfg.save_fields = True
        run_experiment(cfg, workers=1, out_dir=tmp_path / "all")
        with open(tmp_path / "all" / "series.csv") as fh:
            sups = {}
            for row in csv.DictReader(fh):
                if row["step"] != "0":
                    p = int(row["path"])
                    sups[p] = max(sups.get(p, 0.0), float(row["l2"]))
        middle = sum(sorted(sups.values())[1:3]) / 2
        monkeypatch.setattr(mks.stepping, "BLOWUP_THRESHOLD", middle)
        _, status = run_experiment(cfg, workers=workers,
                                   out_dir=tmp_path / "some")
        survivors = sorted(p for p, sup in sups.items() if sup < middle)
        assert status == 1 and len(survivors) == 2
        root = tmp_path / "some" / "checkpoints"
        with open(root / "index.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert sorted({int(r["path"]) for r in rows}) == survivors
        assert sorted(f.name for f in root.glob("*.mks")) == \
            sorted(r["file"] for r in rows)
        for r in rows:
            assert (root / r["file"]).read_bytes() == \
                (tmp_path / "all" / "checkpoints" / r["file"]).read_bytes()

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

    def test_stride_keeps_every_third_level(self, tmp_path):
        # 8 steps at stride 3 write steps 0, 3 and 6 as levels 0, 1 and 2:
        # the bytes and index rows of those steps of a stride-1 run
        cfg = parse_config(SMALL_RUN)
        cfg.save_fields = True
        run_experiment(cfg, workers=1, out_dir=tmp_path / "every")
        cfg.stride = 3
        run_experiment(cfg, workers=1, out_dir=tmp_path / "third")
        every, third = (tmp_path / name / "checkpoints"
                        for name in ("every", "third"))
        with open(every / "index.csv") as fh:
            expected = [{**row, "step": str(int(row["step"]) // 3),
                         "file": row["file"].replace(
                             f"step{int(row['step']):06d}",
                             f"step{int(row['step']) // 3:06d}")}
                        for row in csv.DictReader(fh)
                        if int(row["step"]) % 3 == 0]
        with open(third / "index.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows == expected and len(rows) == 4 * 3
        assert sorted(f.name for f in third.glob("*.mks")) == \
            sorted(row["file"] for row in rows)
        for row in rows:
            step = 3 * int(row["step"])
            source = every / f"path{int(row['path']):04d}_step{step:06d}.mks"
            assert (third / row["file"]).read_bytes() == source.read_bytes()

    def test_checkpoints_take_no_back_transformed_record(self, tmp_path,
                                                         monkeypatch):
        # checkpoints hold the tsee state y; no u = exp(iPhi) y is formed
        directions = []
        original = mks.stepping.apply_gauge

        def recording(u, phase, direction="forward"):
            directions.append(direction)
            return original(u, phase, direction)

        monkeypatch.setattr(mks.stepping, "apply_gauge", recording)
        cfg = parse_config(SMALL_RUN)
        cfg.save_fields = True
        cfg.paths = 1
        run_experiment(cfg, workers=1, out_dir=tmp_path)
        assert (tmp_path / "checkpoints" / "index.csv").exists()
        assert "inverse" not in directions

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

    def test_summary_counts_the_paths_left_out(self, tmp_path, monkeypatch):
        # tau_m = 0.2 freezes the bundles of paths 0, 1 and 3 (at t =
        # 0.09375, 0.125 and 0.125) and a threshold of 1.5 blows up path 0
        # alone, so two of the three surviving paths were truncated
        monkeypatch.setattr(mks.stepping, "BLOWUP_THRESHOLD", 1.5)
        cfg = parse_config(SMALL_RUN.replace(
            "horizon = 0.25", "horizon = 0.25\ntau_m = 0.2"))
        _, status = run_experiment(cfg, workers=1, out_dir=tmp_path)
        assert status == 1
        with open(tmp_path / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert dict(rows[1:])["paths"] == "3"
        assert rows[-4:] == [["q", "2"], ["blowup_paths", "1"],
                             ["truncated_paths", "2"],
                             ["first_truncation_time", "0.125"]]

    def test_summary_without_blowups_or_truncation(self, tmp_path):
        run_experiment(parse_config(ZERO_INPUT), workers=1, out_dir=tmp_path)
        with open(tmp_path / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[-3:] == [["blowup_paths", "0"], ["truncated_paths", "0"],
                             ["first_truncation_time", "none"]]

    def test_assumption_echo_written(self, tmp_path):
        cfg = parse_config(SMALL_RUN)
        run_experiment(cfg, workers=1, out_dir=tmp_path)
        with open(tmp_path / "assumptions.csv") as fh:
            tags = {r["tag"] for r in csv.DictReader(fh)}
        assert {"M1", "M5", "M6", "W3"} <= tags


class TestPathBatches:
    def test_batches_are_contiguous_and_cover_the_paths(self):
        for points, paths in ((8, 6), (8, 40), (16, 5), (32, 3)):
            batches = mks.harness.path_batches(points, paths)
            assert [p for b in batches for p in b] == list(range(paths))
            assert all(b.step == 1 for b in batches)

    def test_batch_size_follows_the_grid(self):
        # all paths of an 8^3 run of six in one batch, one path per batch
        # at 32^3
        assert mks.harness.path_batches(8, 6) == [range(0, 6)]
        assert [len(b) for b in mks.harness.path_batches(32, 3)] == [1, 1, 1]

    def test_every_blown_up_path_of_a_batch_is_logged(self, tmp_path):
        cfg = parse_config(BLOWUP_RUN)
        assert len(mks.harness.path_batches(cfg.grid_points, cfg.paths)) == 1
        report, status = run_experiment(cfg, workers=1, out_dir=tmp_path)
        assert status == 1
        assert sorted(e["path"] for e in report.events
                      if e["kind"] == "blowup") == [0, 1]


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

        def bad_curl(grid, u3):
            return -original(grid, u3)

        monkeypatch.setattr(mks.operators, "curl", bad_curl)
        checks = verify_suite("fast")
        failed = {c["name"] for c in checks if not c["passed"]}
        assert any("square_is_laplacian" in n or "dense" in n for n in failed)

    def test_full_level_runs_the_criteria_records(self):
        checks = verify_suite("full")
        assert [c["name"] for c in checks if not c["passed"]] == []
        # criteria 1, 2, 3 and 7 assert these records; "full" must hold
        # each of them, measured with the same seeds and counts
        criteria = (operator_battery(16, 100) + dense_battery()
                    + kerr_battery() + memory_battery())
        assert [c for c in criteria if c not in checks] == []

    def test_unknown_level_rejected(self):
        with pytest.raises(UsageError, match="medium"):
            verify_suite("medium")


class TestWorkers:
    @pytest.mark.parametrize("raw", ["abc", "2.5", "0", "-1"])
    def test_bad_environment_value_rejected(self, monkeypatch, raw):
        monkeypatch.setenv(mks.harness.WORKERS_ENV, raw)
        with pytest.raises(ConfigurationError, match="MKS_WORKERS"):
            mks.harness.default_workers()

    def test_environment_value_used(self, monkeypatch):
        monkeypatch.setenv(mks.harness.WORKERS_ENV, " 3 ")
        assert mks.harness.default_workers() == 3
        monkeypatch.setenv(mks.harness.WORKERS_ENV, "")
        assert mks.harness.default_workers() == 1
        monkeypatch.delenv(mks.harness.WORKERS_ENV)
        assert mks.harness.default_workers() == 1


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

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_run_verb_makes_a_new_nested_out(self, tmp_path, capsys,
                                             monkeypatch, workers):
        # the output directory and checkpoints/ are made once, before any
        # batch or worker starts; one path per batch gives two workers work
        monkeypatch.setattr(mks.stepping, "BATCH_VALUES", 6 * 8**3)
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(SMALL_RUN + "\n[outputs]\nsave_fields = on\n")
        out = tmp_path / "a" / "b" / "c"
        rc = main(["run", "--config", str(cfg_file), "--paths", "2",
                   "--out", str(out), "--workers", workers])
        assert rc == 0
        assert (out / "series.csv").exists()
        files = sorted(f.name for f in (out / "checkpoints").iterdir())
        assert len(files) == 2 * 9 + 1 and "index.csv" in files

    def test_unwritable_run_out_is_reported(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(SMALL_RUN)
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "sub"
        assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 2
        self._one_error_line(capsys, f"[outputs] cannot write {out}: ")

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

    def test_convergence_verb_galerkin_mode(self, capsys):
        config = Path(__file__).resolve().parents[1] / "configs" / \
            "example_strong.cfg"
        rc = main(["convergence", "--config", str(config), "--mode",
                   "galerkin", "--levels", "1 2"])
        assert rc == 0
        assert capsys.readouterr().out == (
            "levels 1->2: mean sup gap 3.422578e-01\ndecreasing: True\n")

    @pytest.mark.parametrize("name, gap", [("strong", "3.422578e-01"),
                                           ("weak", "2.776096e-01")])
    def test_default_levels_follow_the_grid(self, capsys, name, gap):
        # 8^3 on [0, 2 pi): Nyquist 4 resolves levels 1 and 2
        config = Path(__file__).resolve().parents[1] / "configs" / \
            f"example_{name}.cfg"
        rc = main(["convergence", "--config", str(config), "--mode",
                   "galerkin"])
        assert rc == 0
        assert capsys.readouterr().out == (
            f"levels 1->2: mean sup gap {gap}\ndecreasing: True\n")

    @pytest.mark.parametrize("levels", ["1", "2 2"])
    def test_galerkin_mode_needs_two_distinct_levels(self, capsys, levels):
        config = Path(__file__).resolve().parents[1] / "configs" / \
            "example_strong.cfg"
        rc = main(["convergence", "--config", str(config), "--mode",
                   "galerkin", "--levels", levels])
        assert rc == 2
        assert "need at least two distinct cutoff levels" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (["--dts", "1/0 1/32 1/64"], "--dts: cannot read '1/0 1/32 1/64'"),
        (["--dts", "abc"], "--dts: cannot read 'abc'"),
        (["--dts", "0 1/32 1/64"], "dts must be positive"),
        (["--dts", "nan 1/32 1/64"], "dts must be positive"),
        (["--dts", "inf inf inf"], "dts must be finite"),
        (["--dts", "1e-300 5e-301 2.5e-301"],
         "dts: the reference step 6.25e-302 takes more than 1048576 steps "
         "over horizon=0.5"),
        (["--dts", "0.3 0.15 0.075"],
         "dts: the coarsest step 0.3 does not divide horizon=0.5"),
        (["--dts", "1 0.5 0.25"],
         "dts: the coarsest step 1 is longer than horizon=0.5"),
        (["--mode", "galerkin", "--levels", "1 x"],
         "--levels: cannot read '1 x'"),
    ], ids=["dts-zero-denominator", "dts-word", "dts-zero", "dts-nan",
            "dts-inf", "dts-tiny", "dts-coarse-not-dividing",
            "dts-coarse-too-long", "levels-word"])
    def test_malformed_sweep_is_reported(self, capsys, args, message):
        config = Path(__file__).resolve().parents[1] / "configs" / \
            "example_strong.cfg"
        rc = main(["convergence", "--config", str(config)] + args)
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"

    def test_invalid_config_is_reported(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(SMALL_RUN.replace("q = 2.0", "q = 3.0"))
        rc = main(["run", "--config", str(cfg_file)])
        assert rc == 2
        assert "[M1]" in capsys.readouterr().err

    @staticmethod
    def _one_error_line(capsys, start):
        err = capsys.readouterr().err
        assert err.startswith(f"error: {start}") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize("verb", ["run", "convergence"])
    def test_missing_config_is_reported(self, tmp_path, capsys, verb):
        missing = tmp_path / "missing.cfg"
        assert main([verb, "--config", str(missing)]) == 2
        self._one_error_line(capsys, f"[config] cannot read {missing}: ")

    HEADER = "path,step,time,l2,power_norm,lambda_l2,energy_residual\n"

    @pytest.mark.parametrize("series, message", [
        (None, "cannot read"),
        ("path,step,time,power_norm,lambda_l2,energy_residual\n0,0,0,1,1,0\n",
         "has no 'l2' column"),
        (HEADER + "0,0,0,abc,1,1,0\n", "line 2: could not convert"),
        (HEADER + "0,0,0,1,1,1,0\nx,1,0.5,1,1,1,0\n", "line 3: invalid"),
        (HEADER + "0,0,0,1,1\n", "line 2: float() argument"),
    ], ids=["missing", "no-l2-column", "word", "word-path", "short-row"])
    def test_unreadable_series_is_reported(self, tmp_path, capsys, series,
                                           message):
        if series is not None:
            (tmp_path / "series.csv").write_text(series)
        assert main(["report", "--out", str(tmp_path)]) == 2
        err = self._one_error_line(capsys, "[report] ")
        assert message in err

    def test_unwritable_verify_report_is_reported(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "sub" / "checks.json"
        assert main(["verify", "--level", "fast", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # refused before any check ran
        assert captured.err.startswith(
            f"error: [verify] cannot write {out}: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("flag, value", [("--workers", "2"),
                                             ("--out", "elsewhere")])
    def test_convergence_takes_no_run_flags(self, capsys, flag, value):
        # the sweeps run serially and write no files
        config = Path(__file__).resolve().parents[1] / "configs" / \
            "example_strong.cfg"
        with pytest.raises(SystemExit) as info:
            main(["convergence", "--config", str(config), flag, value])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--paths", "0", "[monte_carlo] paths must be >= 1"),
        ("--paths", "-2", "[monte_carlo] paths must be >= 1"),
        ("--workers", "0", "[workers] worker count must be >= 1, got 0"),
    ], ids=["paths-0", "paths-negative", "workers-0"])
    def test_bad_override_is_reported(self, tmp_path, capsys, flag, value,
                                      message):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(SMALL_RUN)
        rc = main(["run", "--config", str(cfg_file), flag, value,
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
