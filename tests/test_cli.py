"""End-to-end command-line checks (subprocess level)."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import synth_image_u8
from nrsr.checkpoint import load_checkpoint
from nrsr.imageio import load_raw, read_pgm, write_pgm
from nrsr.masks import generate_mask
from nrsr.sensors import build_vectorizing_kernel

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


def assert_same_params(a, b):
    assert [n for n, _ in a.named_parameters()] == [n for n, _ in b.named_parameters()]
    for (name, p), (_, q) in zip(a.named_parameters(), b.named_parameters()):
        assert np.array_equal(p.data, q.data), name


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

    def test_negative_seed_exits_2_naming_it(self, tmp_path):
        res = run_cli("mask", "--kind", "quarter", "--seed", "-1", "--out", tmp_path / "x.nrsmask")
        assert res.returncode == 2
        assert res.stderr == "error: --seed must be >= 0, got -1\n"
        assert not (tmp_path / "x.nrsmask").exists()


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

    @pytest.mark.parametrize("header, message", [
        (b"P5\n4", "truncated header"),
        (b"P5\nx4 4\n255\n" + bytes(16), "bad header token b'x4'"),
    ])
    def test_bad_header_exits_2_naming_the_file(self, tmp_path, header, message):
        image = tmp_path / "bad.pgm"
        image.write_bytes(header)
        res = run_cli("sample", "--sensor", "low-resolution", "--in", image,
                      "--out", tmp_path / "x")
        assert res.returncode == 2
        assert res.stderr == f"error: {image}: {message}\n"


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
        assert steps == [1, 2, 3, 4]

    def test_resumed_log_equals_uninterrupted_log(self, workdir, tmp_path):
        common = ["--sensor", "quarter", "--mask", workdir / "mask.nrsmask",
                  "--data", workdir / "data", "--shift-da", "1", "--no-flips",
                  "--batch-size", "8", "--phase", "lfcr", "--threads", "1"]
        whole, split = tmp_path / "whole", tmp_path / "split"
        assert run_cli("train", *common, "--out", whole, "--epochs", "2").returncode == 0
        assert run_cli("train", *common, "--out", split, "--epochs", "1").returncode == 0
        res = run_cli("train", *common, "--out", split, "--epochs", "2", "--resume")
        assert res.returncode == 0, res.stderr
        log = (whole / "lfcr_train_log.csv").read_bytes()
        assert log.count(b"\n") == 3
        assert (split / "lfcr_train_log.csv").read_bytes() == log

    def test_phase_vdsr_starts_from_the_phase_1_lfcr(self, workdir, tmp_path):
        out = tmp_path / "split"
        common = ["--sensor", "quarter", "--mask", workdir / "mask.nrsmask",
                  "--data", workdir / "data", "--out", out, "--epochs", "1",
                  "--shift-da", "1", "--no-flips", "--seed", "5", "--threads", "1"]
        assert run_cli("train", *common, "--phase", "lfcr").returncode == 0
        res = run_cli("train", *common, "--phase", "vdsr")
        assert res.returncode == 0, res.stderr
        assert "starting from" in res.stdout
        final = load_checkpoint(out / "final.nrsr")
        assert final.vdsr is not None
        phase_1 = load_checkpoint(out / "checkpoints" / "lfcr-epoch0001.nrsr")
        assert_same_params(final.lfcr, phase_1.lfcr)

    def test_phase_vdsr_without_phase_1_checkpoint_exits_2(self, workdir, tmp_path):
        res = run_cli("train", "--sensor", "quarter", "--mask", workdir / "mask.nrsmask",
                      "--data", workdir / "data", "--out", tmp_path / "o", "--epochs", "1",
                      "--phase", "vdsr")
        assert res.returncode == 2
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
        assert "lfcr-epoch" in res.stderr
        assert not (tmp_path / "o" / "final.nrsr").exists()

    def test_resume_keeps_the_vdsr(self, workdir, trained, tmp_path):
        out = tmp_path / "run"
        shutil.copytree(trained[0], out)
        res = run_cli("train", "--sensor", "quarter", "--mask", workdir / "mask.nrsmask",
                      "--data", workdir / "data", "--out", out, "--epochs", "1",
                      "--shift-da", "1", "--no-flips", "--seed", "5", "--phase", "lfcr", "--resume")
        assert res.returncode == 0, res.stderr
        final = load_checkpoint(out / "final.nrsr")
        assert final.vdsr is not None
        resumed = load_checkpoint(out / "checkpoints" / "vdsr-epoch0001.nrsr")
        assert_same_params(final.vdsr, resumed.vdsr)

    @pytest.mark.parametrize("sensor,seed,message", [
        ("three-quarter", 7, "checkpoint was trained for sensor 'quarter', not 'three-quarter'"),
        ("quarter", 99, "mask file does not match the checkpoint's mask pattern"),
    ])
    def test_resume_refuses_another_sensor_or_mask(self, workdir, trained, tmp_path,
                                                   sensor, seed, message):
        out = tmp_path / "run"
        shutil.copytree(trained[0], out)
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        mask = tmp_path / "other.nrsmask"
        assert run_cli("mask", "--kind", sensor, "--seed", seed, "--out", mask).returncode == 0
        res = run_cli("train", "--sensor", sensor, "--mask", mask, "--data", workdir / "data",
                      "--out", out, "--epochs", "2", "--shift-da", "1", "--no-flips", "--resume")
        assert res.returncode == 2
        assert res.stderr == f"error: {message}\n"
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_resume_without_adam_record_exits_2(self, workdir, tmp_path):
        from nrsr.checkpoint import read_records, write_records

        out = tmp_path / "run"
        common = ["--sensor", "quarter", "--mask", workdir / "mask.nrsmask",
                  "--data", workdir / "data", "--out", out, "--shift-da", "1", "--no-flips",
                  "--phase", "lfcr", "--seed", "5", "--threads", "1"]
        assert run_cli("train", *common, "--epochs", "1").returncode == 0
        path = out / "checkpoints" / "lfcr-epoch0001.nrsr"
        records = read_records(path)
        del records["opt/lfcr/fc03/bias/m"], records["opt/lfcr/fc03/bias/v"]
        write_records(path, records)
        res = run_cli("train", *common, "--epochs", "2", "--resume")
        assert res.returncode == 2
        assert res.stderr == "error: missing record 'opt/lfcr/fc03/bias/m'\n"
        assert not (out / "checkpoints" / "lfcr-epoch0002.nrsr").exists()

    def test_resume_with_malformed_log_exits_2_before_training(self, workdir, tmp_path):
        out = tmp_path / "run"
        common = ["--sensor", "quarter", "--mask", workdir / "mask.nrsmask",
                  "--data", workdir / "data", "--out", out, "--shift-da", "1", "--no-flips",
                  "--phase", "lfcr", "--seed", "5", "--threads", "1"]
        assert run_cli("train", *common, "--epochs", "1").returncode == 0
        log = out / "lfcr_train_log.csv"
        log.write_text("epoch,step,lr,loss\n1,x,0.1,2\n")
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        res = run_cli("train", *common, "--epochs", "3", "--resume")
        assert res.returncode == 2
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, res.stderr
        assert "lfcr_train_log.csv" in res.stderr and "Traceback" not in res.stderr
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_missing_data_dir_exits_2(self, workdir, tmp_path):
        res = run_cli("train", "--sensor", "quarter", "--mask", workdir / "mask.nrsmask",
                      "--data", tmp_path / "nope", "--out", tmp_path / "o", "--epochs", "1")
        assert res.returncode == 2

    @pytest.mark.parametrize("source, value", [
        ("--lr", "nan"), ("--lr", "inf"), ("config", "initial_lr=nan"),
        ("config", "lr_decay_factor=inf"), ("config", "lr_floor=-1e-8")])
    def test_bad_learning_rate_exits_2_before_training(self, workdir, tmp_path, source, value):
        if source == "config":
            (tmp_path / "cfg.txt").write_text(value + "\n")
            extra = ["--config", tmp_path / "cfg.txt"]
        else:
            extra = [source, value]
        out = tmp_path / "out"
        res = run_cli("train", "--sensor", "quarter", "--mask", workdir / "mask.nrsmask",
                      "--data", workdir / "data", "--out", out, "--epochs", "1",
                      "--no-flips", "--phase", "lfcr", *extra)
        assert res.returncode == 2
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, res.stderr
        assert not (out / "final.nrsr").exists()

    @pytest.mark.parametrize("source", ["--seed", "config"])
    def test_negative_seed_exits_2_before_writing(self, workdir, tmp_path, source):
        if source == "config":
            (tmp_path / "cfg.txt").write_text("seed=-2\n")
            extra = ["--config", tmp_path / "cfg.txt"]
        else:
            extra = ["--seed", "-1"]
        out = tmp_path / "out"
        res = run_cli("train", "--sensor", "quarter", "--mask", workdir / "mask.nrsmask",
                      "--data", workdir / "data", "--out", out, "--epochs", "1", *extra)
        assert res.returncode == 2
        assert res.stderr.startswith("error: seed must be >= 0"), res.stderr
        assert res.stderr.count("\n") == 1, res.stderr
        assert not out.exists()

    def test_shift_beyond_the_image_is_skipped(self, workdir, tmp_path):
        # the 56x56 images fit no patch at shift (56, 0): skipped like an undersized image
        (tmp_path / "cfg.txt").write_text("shift_set=0:0,56:0\n")
        res = run_cli("train", "--sensor", "quarter", "--mask", workdir / "mask.nrsmask",
                      "--data", workdir / "data", "--out", tmp_path / "out", "--epochs", "1",
                      "--no-flips", "--phase", "lfcr", "--config", tmp_path / "cfg.txt")
        assert res.returncode == 0, res.stderr
        assert "training samples: 2 " in res.stdout
        assert "t0.pgm: 0x56 smaller than patch size 48, skipped" in res.stderr

    def test_every_crop_too_small_exits_2(self, workdir, tmp_path):
        (tmp_path / "cfg.txt").write_text("shift_set=56:0,10:0\n")
        res = run_cli("train", "--sensor", "quarter", "--mask", workdir / "mask.nrsmask",
                      "--data", workdir / "data", "--out", tmp_path / "out", "--epochs", "1",
                      "--phase", "lfcr", "--config", tmp_path / "cfg.txt")
        assert res.returncode == 2
        assert res.stderr.endswith("\nerror: empty patch set\n"), res.stderr
        assert not (tmp_path / "out" / "final.nrsr").exists()

    def test_undersized_image_leaves_no_output_and_one_line_warnings(self, workdir, tmp_path):
        data = tmp_path / "small"
        data.mkdir()
        write_pgm(data / "s.pgm", synth_image_u8(3, 40, 40))
        out = tmp_path / "out"
        res = run_cli("train", "--sensor", "quarter", "--mask", workdir / "mask.nrsmask",
                      "--data", data, "--out", out, "--epochs", "1", "--phase", "lfcr")
        assert res.returncode == 2
        assert not out.exists()
        *warned, last = res.stderr.splitlines()
        assert last == "error: empty patch set"
        assert warned and all(ln.startswith("warning: s.pgm: ") for ln in warned), res.stderr
        assert "warning: s.pgm: 32x32 smaller than patch size 48, skipped" in warned

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
        ("lfcr/vec/weights", np.zeros((64, 1, 16, 16), dtype=np.float32)),
        ("meta/sensor_kind", None),
        ("meta/mask_pattern", np.full((8, 8), 5, dtype=np.float32)),
        ("meta/mask_pattern", np.zeros((8, 7), dtype=np.float32)),
        ("meta/mask_pattern", None),
        # the kernel of another sensor, as if swapped in from another checkpoint
        ("lfcr/vec/weights",
         build_vectorizing_kernel(generate_mask("three-quarter", 7), "three-quarter")),
        # every digit raised by 0.5: truncating would load the same mask
        ("meta/mask_pattern", generate_mask("quarter", 7).pattern.astype(np.float32) + 0.5),
        # Adam state is read for every parameter of the saved phase, at its shape
        ("opt/vdsr/conv02/weights/m", None),
        ("opt/vdsr/conv02/bias/v", np.zeros(3, dtype=np.float32)),
        # records that no parameter table, meta/ field or optimizer state names
        ("lfcr/fc10/weights", np.zeros((5, 5), dtype=np.float32)),
        ("vdsr/conv22/weights", np.zeros((64, 64, 3, 3), dtype=np.float32)),
        ("meta/bogus", np.float32(1)),
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
                   "conv2d_prelu", "lfcr_16x16", "vdsr_depth4"):
            assert op in res.stdout

    def test_impossible_tolerance_exits_3(self):
        res = run_cli("gradcheck", "--seed", "0", "--tolerance", "1e-30")
        assert res.returncode == 3

    def test_negative_seed_exits_2_naming_it(self):
        res = run_cli("gradcheck", "--seed", "-1")
        assert res.returncode == 2
        assert res.stderr == "error: --seed must be >= 0, got -1\n"
        assert res.stdout == ""


class TestCurvesCommand:
    @pytest.mark.parametrize("pattern", [
        "run-{f}/final.nrsr", "run-{0}/final.nrsr", "run-f{factor}-{}/final.nrsr",
        # no {factor}: one checkpoint would be scored for every factor
        "run/final.nrsr",
    ])
    def test_pattern_without_just_factor_exits_2(self, workdir, trained, tmp_path, pattern):
        out = tmp_path / "curves.csv"
        res = run_cli("curves", "--dataset", workdir / "holdout", "--factors", "1,4",
                      "--checkpoint-pattern", trained[0].parent / pattern, "--out", out)
        assert res.returncode == 2
        assert res.stderr.startswith("error: --checkpoint-pattern ") and res.stderr.count("\n") == 1
        assert "Traceback" not in res.stderr
        assert not out.exists()

    def test_rows_per_factor_with_absent(self, workdir, trained, tmp_path):
        # factor 1 -> the trained run; other factors have no checkpoint
        pattern = str(trained[0] / "final.nrsr").replace("run", "run-f{factor}")
        link = workdir / "run-f1"
        if not link.exists():
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
