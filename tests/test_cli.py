"""End-to-end command-line checks (subprocess level)."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import synth_image_u8
from nrsr.imageio import load_raw, read_pgm, write_pgm

TOP_HELP_SNAPSHOT = """\
usage: nrsr [-h] command ...

Non-regular sampling sensor simulation and neural reconstruction.

positional arguments:
  command
    mask       generate a sampling mask file
    sample     simulate a sensor on one image
    train      two-phase training (LFCR, then frozen-LFCR + VDSR)
    reconstruct
               reconstruct image(s) from a checkpoint
    evaluate   PSNR/SSIM report over a dataset directory
    gradcheck  finite-difference validation of every operator
    curves     shift-augmentation PSNR-gain curve CSV

options:
  -h, --help   show this help message and exit
"""


def run_cli(*args, **kwargs):
    env = dict(os.environ, COLUMNS="100")
    env.update(kwargs.pop("env", {}))
    return subprocess.run([sys.executable, "-m", "nrsr.cli", *map(str, args)],
                          capture_output=True, text=True, env=env, **kwargs)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    data.mkdir()
    # 56x56 so every shift in {0,2,4,6}^2 still fits one 48x48 patch
    for i in range(2):
        write_pgm(data / f"t{i}.pgm", synth_image_u8(60 + i, 56, 56))
    holdout = root / "holdout"
    holdout.mkdir()
    write_pgm(holdout / "h0.pgm", synth_image_u8(70, 48, 48))
    mask = root / "mask.nrsmask"
    res = run_cli("mask", "--kind", "quarter", "--seed", "7", "--out", mask)
    assert res.returncode == 0
    return root


class TestHelp:
    def test_top_level_snapshot(self):
        res = run_cli("--help")
        assert res.returncode == 0
        assert res.stdout == TOP_HELP_SNAPSHOT

    @pytest.mark.parametrize("command,flags", [
        ("mask", ["--kind", "--seed", "--out"]),
        ("sample", ["--sensor", "--mask", "--in", "--out"]),
        ("train", ["--sensor", "--mask", "--data", "--config", "--out", "--epochs",
                   "--batch-size", "--lr", "--shift-da", "--no-flips", "--phase",
                   "--seed", "--resume", "--threads"]),
        ("reconstruct", ["--sensor", "--mask", "--checkpoint", "--in", "--out",
                         "--stage", "--threads"]),
        ("evaluate", ["--dataset", "--methods", "--checkpoint", "--out", "--summary",
                      "--threads"]),
        ("gradcheck", ["--seed", "--tolerance"]),
        ("curves", ["--dataset", "--factors", "--checkpoint-pattern", "--stage",
                    "--out", "--threads"]),
    ])
    def test_subcommand_help_lists_all_flags(self, command, flags):
        res = run_cli(command, "--help")
        assert res.returncode == 0
        for flag in flags:
            assert flag in res.stdout, f"{command} help missing {flag}"

    def test_unknown_flag_rejected(self):
        res = run_cli("mask", "--kind", "quarter", "--out", "/tmp/x", "--bogus")
        assert res.returncode == 2

    def test_unknown_command_rejected(self):
        assert run_cli("frobnicate").returncode == 2


class TestMaskCommand:
    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.nrsmask", tmp_path / "b.nrsmask"
        r1 = run_cli("mask", "--kind", "quarter", "--seed", "7", "--out", a)
        r2 = run_cli("mask", "--kind", "quarter", "--seed", "7", "--out", b)
        assert r1.returncode == 0 and r2.returncode == 0
        assert a.read_bytes() == b.read_bytes()
        assert "quadrant histogram" in r1.stdout

    def test_three_quarter_accepted(self, tmp_path):
        res = run_cli("mask", "--kind", "three-quarter", "--out", tmp_path / "tq.nrsmask")
        assert res.returncode == 0

    def test_invalid_kind_exits_2_with_usage(self, tmp_path):
        res = run_cli("mask", "--kind", "half", "--out", tmp_path / "x.nrsmask")
        assert res.returncode == 2
        assert "usage" in res.stderr

    def test_unwritable_path_exits_2(self):
        res = run_cli("mask", "--kind", "quarter", "--out", "/nonexistent-dir/x.nrsmask")
        assert res.returncode == 2


class TestSampleCommand:
    def test_quarter_writes_raw_and_sidecar(self, workdir, tmp_path):
        out = tmp_path / "sampled"
        res = run_cli("sample", "--sensor", "quarter", "--mask", workdir / "mask.nrsmask",
                      "--in", workdir / "data" / "t0.pgm", "--out", out)
        assert res.returncode == 0
        values, meta = load_raw(out)
        assert values.shape == (56, 56)
        assert meta["sensor"] == "quarter"
        assert np.count_nonzero(values) <= 56 * 56 // 4

    def test_three_quarter_grid_dims(self, workdir, tmp_path):
        out = tmp_path / "tq"
        mask = tmp_path / "tq.nrsmask"
        run_cli("mask", "--kind", "three-quarter", "--seed", "1", "--out", mask)
        res = run_cli("sample", "--sensor", "three-quarter", "--mask", mask,
                      "--in", workdir / "data" / "t0.pgm", "--out", out)
        assert res.returncode == 0
        values, _ = load_raw(out)
        assert values.shape == (28, 28)

    def test_low_resolution_needs_no_mask(self, workdir, tmp_path):
        res = run_cli("sample", "--sensor", "low-resolution",
                      "--in", workdir / "data" / "t0.pgm", "--out", tmp_path / "lr")
        assert res.returncode == 0

    def test_missing_mask_exits_2(self, workdir, tmp_path):
        res = run_cli("sample", "--sensor", "quarter",
                      "--in", workdir / "data" / "t0.pgm", "--out", tmp_path / "x")
        assert res.returncode == 2
        assert "--mask is required" in res.stderr


@pytest.fixture(scope="module")
def trained(workdir):
    """One fast full training run (both phases, 1 epoch, no augmentation)."""
    out = workdir / "run"
    res = run_cli("train", "--sensor", "quarter", "--mask", workdir / "mask.nrsmask",
                  "--data", workdir / "data", "--out", out,
                  "--epochs", "1", "--shift-da", "1", "--no-flips", "--seed", "5",
                  "--threads", "1")
    assert res.returncode == 0, res.stderr
    return out, res.stdout


class TestTrainCommand:
    def test_smoke_writes_checkpoints_and_logs(self, trained):
        out, stdout = trained
        assert (out / "checkpoints" / "lfcr-epoch0001.nrsr").exists()
        assert (out / "checkpoints" / "vdsr-epoch0001.nrsr").exists()
        assert (out / "final.nrsr").exists()
        assert (out / "train_config.txt").exists()
        lfcr_log = (out / "lfcr_train_log.csv").read_text().splitlines()
        assert lfcr_log[0] == "epoch,step,lr,loss"
        assert len(lfcr_log) == 2  # 2 patches, batch 64 -> 1 step
        assert "training samples: 2 " in stdout

    def test_shift_da_multiplies_sample_count(self, workdir, tmp_path):
        res = run_cli("train", "--sensor", "quarter", "--mask", workdir / "mask.nrsmask",
                      "--data", workdir / "data", "--out", tmp_path / "r16",
                      "--epochs", "1", "--shift-da", "16", "--no-flips",
                      "--phase", "lfcr", "--seed", "5")
        assert res.returncode == 0
        assert "training samples: 32 " in res.stdout  # 16x the --shift-da 1 count

    def test_resume_continues_steps(self, workdir, tmp_path):
        out = tmp_path / "resume"
        common = ["--sensor", "quarter", "--mask", workdir / "mask.nrsmask",
                  "--data", workdir / "data", "--out", out,
                  "--shift-da", "1", "--no-flips", "--phase", "lfcr", "--seed", "5"]
        r1 = run_cli("train", *common, "--epochs", "2")
        assert r1.returncode == 0
        r2 = run_cli("train", *common, "--epochs", "4", "--resume")
        assert r2.returncode == 0, r2.stderr
        assert "resuming from" in r2.stdout
        log = (out / "lfcr_train_log.csv").read_text().splitlines()[1:]
        steps = [int(line.split(",")[1]) for line in log]
        assert steps == [3, 4]

    def test_missing_data_dir_exits_2(self, workdir, tmp_path):
        res = run_cli("train", "--sensor", "quarter", "--mask", workdir / "mask.nrsmask",
                      "--data", tmp_path / "nope", "--out", tmp_path / "o", "--epochs", "1")
        assert res.returncode == 2

    def test_divergence_exits_3_referencing_checkpoint(self, workdir, tmp_path):
        res = run_cli("train", "--sensor", "quarter", "--mask", workdir / "mask.nrsmask",
                      "--data", workdir / "data", "--out", tmp_path / "diverge",
                      "--epochs", "8", "--shift-da", "1", "--no-flips",
                      "--phase", "lfcr", "--lr", "1e18", "--seed", "0")
        assert res.returncode == 3
        assert "numerical failure" in res.stderr


class TestReconstructCommand:
    def test_output_dims_match_input(self, workdir, trained, tmp_path):
        out_img = tmp_path / "rec.pgm"
        res = run_cli("reconstruct", "--sensor", "quarter", "--mask", workdir / "mask.nrsmask",
                      "--checkpoint", trained[0] / "final.nrsr",
                      "--in", workdir / "holdout" / "h0.pgm", "--out", out_img)
        assert res.returncode == 0, res.stderr
        assert read_pgm(out_img).shape == (48, 48)

    def test_stage_lfcr_differs_from_full(self, workdir, trained, tmp_path):
        a, b = tmp_path / "full.f32", tmp_path / "lfcr.f32"
        base = ["--sensor", "quarter", "--mask", workdir / "mask.nrsmask",
                "--checkpoint", trained[0] / "final.nrsr",
                "--in", workdir / "holdout" / "h0.pgm"]
        assert run_cli("reconstruct", *base, "--out", a).returncode == 0
        assert run_cli("reconstruct", *base, "--out", b, "--stage", "lfcr").returncode == 0
        full, _ = load_raw(tmp_path / "full")
        lfcr_only, _ = load_raw(tmp_path / "lfcr")
        assert not np.array_equal(full, lfcr_only)

    def test_mask_mismatch_exits_2(self, workdir, trained, tmp_path):
        wrong = tmp_path / "wrong.nrsmask"
        run_cli("mask", "--kind", "quarter", "--seed", "99", "--out", wrong)
        res = run_cli("reconstruct", "--sensor", "quarter", "--mask", wrong,
                      "--checkpoint", trained[0] / "final.nrsr",
                      "--in", workdir / "holdout" / "h0.pgm", "--out", tmp_path / "x.pgm")
        assert res.returncode == 2
        assert "does not match" in res.stderr

    def test_sensor_mismatch_exits_2(self, workdir, trained, tmp_path):
        res = run_cli("reconstruct", "--sensor", "low-resolution",
                      "--checkpoint", trained[0] / "final.nrsr",
                      "--in", workdir / "holdout" / "h0.pgm", "--out", tmp_path / "x.pgm")
        assert res.returncode == 2


class TestEvaluateCommand:
    def test_bicubic_needs_no_checkpoint(self, workdir, tmp_path):
        out = tmp_path / "eval.csv"
        summary = tmp_path / "summary.json"
        res = run_cli("evaluate", "--dataset", workdir / "holdout",
                      "--methods", "bicubic,reference", "--out", out, "--summary", summary)
        assert res.returncode == 0, res.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "image,method,sensor,psnr_db,ssim"
        assert len(lines) == 3
        data = json.loads(summary.read_text())
        assert set(data) == {"bicubic", "reference"}

    def test_missing_checkpoint_marks_absent_exit_0(self, workdir, tmp_path):
        out = tmp_path / "eval.csv"
        res = run_cli("evaluate", "--dataset", workdir / "holdout",
                      "--methods", "bicubic,lfcr", "--checkpoint", tmp_path / "nope.nrsr",
                      "--out", out)
        assert res.returncode == 0
        assert "absent,lfcr,absent,absent,absent" in out.read_text()
        assert "marked absent" in res.stdout

    def test_trained_checkpoint_evaluated(self, workdir, trained, tmp_path):
        res = run_cli("evaluate", "--dataset", workdir / "holdout",
                      "--methods", "lfcr,lfcr+vdsr", "--checkpoint", trained[0] / "final.nrsr",
                      "--out", tmp_path / "e.csv")
        assert res.returncode == 0, res.stderr
        lines = (tmp_path / "e.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_unknown_method_exits_2(self, workdir):
        res = run_cli("evaluate", "--dataset", workdir / "holdout", "--methods", "fsr")
        assert res.returncode == 2


@pytest.fixture(scope="module")
def resumable_checkpoint(tmp_path_factory):
    """Records of a phase-2 checkpoint with Adam state, as `nrsr train` writes them."""
    from nrsr.checkpoint import read_records, save_checkpoint
    from nrsr.lfcr import build_lfcr
    from nrsr.masks import generate_mask
    from nrsr.optim import AdamState
    from nrsr.vdsr import build_vdsr

    vdsr = build_vdsr(seed=0)
    path = tmp_path_factory.mktemp("ck") / "good.nrsr"
    save_checkpoint(path, lfcr=build_lfcr(generate_mask("quarter", 7), "quarter", seed=0),
                    vdsr=vdsr, adam=AdamState.for_params(vdsr.named_parameters()),
                    epoch=1, phase="vdsr")
    return read_records(path)


class TestBadCheckpoint:
    @pytest.mark.parametrize("name,value", [
        ("meta/sensor_kind", np.float32(7)),
        ("meta/phase", np.float32(5)),
        ("vdsr/conv03/bias", None),
        ("vdsr/conv05/slopes", None),
        ("opt/vdsr/conv02/weights/v", None),
        ("vdsr/conv03/weights", np.zeros((64, 32, 3, 3), dtype=np.float32)),
        ("meta/epoch", np.array([1, 2], dtype=np.float32)),
        ("meta/mask_seed", np.array([7, 7], dtype=np.float32)),
        ("opt/step", np.zeros((2, 2), dtype=np.float32)),
        ("meta/epoch", np.float32(np.nan)),
        ("lfcr/fc05/weights", np.zeros((192, 100, 1, 1), dtype=np.float32)),
    ])
    def test_evaluate_exits_2_naming_the_record(self, workdir, resumable_checkpoint, tmp_path,
                                                name, value):
        from nrsr.checkpoint import write_records

        records = dict(resumable_checkpoint)
        if value is None:
            del records[name]
        else:
            records[name] = value
        bad = tmp_path / "bad.nrsr"
        write_records(bad, records)
        res = run_cli("evaluate", "--dataset", workdir / "holdout", "--methods", "lfcr+vdsr",
                      "--checkpoint", bad, "--out", tmp_path / "e.csv")
        assert res.returncode == 2
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
        assert name in res.stderr and "Traceback" not in res.stderr
        assert not (tmp_path / "e.csv").exists()


class TestGradcheckCommand:
    def test_passes_at_default_tolerance(self):
        res = run_cli("gradcheck", "--seed", "0")
        assert res.returncode == 0, res.stdout + res.stderr
        assert "all gradient checks passed" in res.stdout
        for op in ("conv2d", "deconv2d", "prelu", "concat_channels", "mse_loss", "linear",
                   "lfcr_16x16", "vdsr_depth4"):
            assert op in res.stdout

    def test_impossible_tolerance_exits_3(self):
        res = run_cli("gradcheck", "--seed", "0", "--tolerance", "1e-30")
        assert res.returncode == 3


class TestCurvesCommand:
    def test_rows_per_factor_with_absent(self, workdir, trained, tmp_path):
        # factor 1 -> the trained run; other factors have no checkpoint
        pattern = str(trained[0] / "final.nrsr").replace("run", "run-f{factor}")
        link = workdir / "run-f1"
        if not link.exists():
            import shutil

            shutil.copytree(trained[0], link)
        out = tmp_path / "curves.csv"
        res = run_cli("curves", "--dataset", workdir / "holdout",
                      "--factors", "1,4,8,16", "--checkpoint-pattern", pattern,
                      "--out", out)
        assert res.returncode == 0, res.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "factor,psnr_db,gain_db"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "1" and float(first[2]) == 0.0
        for line in lines[2:]:
            factor, p, g = line.split(",")
            assert p == "absent" and g == "absent"


class TestThreadControl:
    def test_threads_env_accepted(self, workdir, tmp_path):
        res = run_cli("evaluate", "--dataset", workdir / "holdout", "--methods", "reference",
                      "--out", tmp_path / "x.csv", env={"NRSR_THREADS": "1"})
        assert res.returncode == 0

    @pytest.mark.parametrize("argv,env", [
        (("mask", "--kind", "quarter"), {"NRSR_THREADS": "abc"}),
        (("mask", "--kind", "quarter"), {"NRSR_THREADS": "0"}),
        (("evaluate", "--dataset", ".", "--threads", "0"), {}),
        (("evaluate", "--dataset", ".", "--threads", "-2"), {}),
    ])
    def test_invalid_thread_count_exits_2(self, tmp_path, argv, env):
        out = tmp_path / "m.nrsmask"
        res = run_cli(*argv, "--out", out, env=env)
        assert res.returncode == 2
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
        assert "Traceback" not in res.stderr
        assert not out.exists()

    def test_invalid_thread_count_sets_no_thread_variables(self, monkeypatch):
        from nrsr import cli

        names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
        for name in names:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("NRSR_THREADS", "abc")
        assert cli.main(["gradcheck", "--tolerance", "1e-4"]) == 2
        assert not any(name in os.environ for name in names)
