"""End-to-end command-line checks (subprocess level)."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import sample_low_resolution_oracle, sample_three_quarter_oracle, synth_image_u8
from nrsr.checkpoint import load_checkpoint
from nrsr.imageio import load_raw, read_image_gray, write_pgm
from nrsr.masks import expand_mask, generate_mask, load_mask
from nrsr.sensors import sensitivity_tile, vectorizing_kernel

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


def one_nan(shape):
    """Zeros of ``shape`` with one NaN."""
    arr = np.zeros(shape, dtype=np.float32)
    arr.flat[arr.size // 2] = np.nan
    return arr


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
        assert meta["mask"] == "mask.nrsmask"
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

    def test_low_resolution_records_no_mask(self, workdir, tmp_path):
        # the low-resolution sensor reads no mask, so a --mask given with it is not recorded
        res = run_cli("sample", "--sensor", "low-resolution", "--mask", workdir / "mask.nrsmask",
                      "--in", workdir / "data" / "t0.pgm", "--out", tmp_path / "lr")
        assert res.returncode == 0, res.stderr
        assert load_raw(tmp_path / "lr")[1]["mask"] is None

    @pytest.mark.parametrize("out, base", [
        ("run.v2", "run.v2"), ("meas", "meas"), ("meas.f32", "meas"), ("m.f32.f32", "m.f32")])
    def test_out_names_the_base_of_both_files(self, workdir, tmp_path, out, base):
        res = run_cli("sample", "--sensor", "low-resolution",
                      "--in", workdir / "data" / "t0.pgm", "--out", tmp_path / out)
        assert res.returncode == 0, res.stderr
        raw, sidecar = tmp_path / f"{base}.f32", tmp_path / f"{base}.json"
        assert sorted(tmp_path.iterdir()) == [raw, sidecar]
        assert res.stdout == f"wrote {raw} and {sidecar}\n"

    @pytest.mark.parametrize("sensor", ["quarter", "three-quarter", "low-resolution"])
    def test_writes_the_oracle_values(self, workdir, tmp_path, sensor):
        image = workdir / "data" / "t0.pgm"
        f = read_image_gray(image)
        mask = None if sensor == "low-resolution" else tmp_path / "m.nrsmask"
        if mask:
            assert run_cli("mask", "--kind", sensor, "--seed", "3", "--out", mask).returncode == 0
        res = run_cli("sample", "--sensor", sensor, *(["--mask", mask] if mask else []),
                      "--in", image, "--out", tmp_path / "s")
        assert res.returncode == 0, res.stderr
        if sensor == "quarter":
            want = f * expand_mask(load_mask(mask), 56, 56)
        elif sensor == "three-quarter":
            want = sample_three_quarter_oracle(f, load_mask(mask))
        else:
            want = sample_low_resolution_oracle(f)
        values, _ = load_raw(tmp_path / "s")
        assert values.tobytes() == want.astype("<f4").tobytes()

    @pytest.mark.parametrize("sensor", ["quarter", "three-quarter", "low-resolution"])
    def test_odd_image_dims_exit_2(self, workdir, tmp_path, sensor):
        image = tmp_path / "odd.pgm"
        write_pgm(image, synth_image_u8(1, 57, 56))
        mask = tmp_path / "m.nrsmask"
        if sensor != "low-resolution":
            assert run_cli("mask", "--kind", sensor, "--out", mask).returncode == 0
        res = run_cli("sample", "--sensor", sensor, *(["--mask", mask] if mask.exists() else []),
                      "--in", image, "--out", tmp_path / "s")
        assert res.returncode == 2
        assert res.stderr == "error: image dims must be multiples of 2, got (57, 56)\n"
        assert not (tmp_path / "s.f32").exists()

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


# runs nrsr.cli.main with a CSV writer that is interrupted halfway through the log's
# second epoch-2 row, after part of it is written, as a kill during the write would be
KILL_IN_EPOCH_2_LOG_WRITE = """
import csv, sys
from nrsr import cli

write_csv = csv.writer

class Interrupted:
    def __init__(self, fh, *args, **kwargs):
        self.fh, self.rows, self.writer = fh, 0, write_csv(fh, *args, **kwargs)

    def writerow(self, row):
        self.rows += row[0] == 2
        if self.rows == 2:
            self.fh.write("2,")
            raise KeyboardInterrupt
        self.writer.writerow(row)

csv.writer = Interrupted
sys.exit(cli.main(sys.argv[1:]))
"""


def train_both_phases(workdir, out):
    """One fast full training run (both phases, 1 epoch, no augmentation) into ``out``."""
    return run_cli("train", "--sensor", "quarter", "--mask", workdir / "mask.nrsmask",
                   "--data", workdir / "data", "--out", out,
                   "--epochs", "1", "--shift-da", "1", "--no-flips", "--seed", "5",
                   "--threads", "1")


@pytest.fixture(scope="module")
def trained(workdir):
    out = workdir / "run"
    res = train_both_phases(workdir, out)
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

    def test_rerun_writes_byte_identical_files(self, workdir, trained, tmp_path):
        # both phases, not just the phase-1 loss log, repeat bit for bit under --threads 1
        first, again = trained[0], tmp_path / "again"
        res = train_both_phases(workdir, again)
        assert res.returncode == 0, res.stderr
        files = sorted(str(p.relative_to(first)) for p in first.rglob("*") if p.is_file())
        assert files == sorted(str(p.relative_to(again)) for p in again.rglob("*") if p.is_file())
        assert files == ["checkpoints/lfcr-epoch0001.nrsr", "checkpoints/vdsr-epoch0001.nrsr",
                         "final.nrsr", "lfcr_train_log.csv", "train_config.txt",
                         "vdsr_train_log.csv"]
        for name in files:
            assert (again / name).read_bytes() == (first / name).read_bytes(), name

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
                      "--shift-da", "1", "--no-flips", "--seed", "5", "--resume")
        assert res.returncode == 0, res.stderr
        final = load_checkpoint(out / "final.nrsr")
        assert final.vdsr is not None
        resumed = load_checkpoint(out / "checkpoints" / "vdsr-epoch0001.nrsr")
        assert_same_params(final.vdsr, resumed.vdsr)

    def test_phase_lfcr_resume_continues_phase_1(self, workdir, trained, tmp_path):
        # a phase-2 checkpoint cannot continue phase 1, so --phase lfcr resumes lfcr-epoch*
        out, fresh = tmp_path / "run", tmp_path / "fresh"
        shutil.copytree(trained[0], out)
        common = ["--sensor", "quarter", "--mask", workdir / "mask.nrsmask",
                  "--data", workdir / "data", "--epochs", "2", "--shift-da", "1", "--no-flips",
                  "--seed", "5", "--threads", "1", "--phase", "lfcr"]
        res = run_cli("train", *common, "--out", out, "--resume")
        assert res.returncode == 0, res.stderr
        assert (f"resuming from {out / 'checkpoints' / 'lfcr-epoch0001.nrsr'} "
                "(phase lfcr, epoch 1)") in res.stdout
        assert run_cli("train", *common, "--out", fresh).returncode == 0
        for name in ("checkpoints/lfcr-epoch0002.nrsr", "lfcr_train_log.csv", "final.nrsr"):
            assert (out / name).read_bytes() == (fresh / name).read_bytes(), name

    @pytest.mark.parametrize("runs", [
        [["--phase", "lfcr", "--epochs", "2"], ["--epochs", "2"]],   # phase 1 extended first
        [["--epochs", "2"]],                                          # both phases at once
    ], ids=["phase-lfcr-then-both", "both"])
    def test_resume_continues_each_phase_from_its_own_checkpoint(self, workdir, trained, tmp_path,
                                                                 runs):
        # phase 1 continues lfcr-epoch0001; vdsr-epoch0001 holds that older LFCR, so phase 2
        # starts afresh, and the run ends as a fresh two-epoch run does
        out, fresh = tmp_path / "run", tmp_path / "fresh"
        shutil.copytree(trained[0], out)
        common = ["--sensor", "quarter", "--mask", workdir / "mask.nrsmask",
                  "--data", workdir / "data", "--shift-da", "1", "--no-flips", "--seed", "5",
                  "--threads", "1"]
        for args in runs:
            res = run_cli("train", *common, "--out", out, *args, "--resume")
            assert res.returncode == 0, res.stderr
        assert "phase vdsr starts afresh: its epoch-1 checkpoint holds another LFCR\n" in res.stdout
        assert run_cli("train", *common, "--out", fresh, "--epochs", "2").returncode == 0
        files = sorted(str(p.relative_to(fresh)) for p in fresh.rglob("*") if p.is_file())
        assert files == sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
        for name in files:
            assert (out / name).read_bytes() == (fresh / name).read_bytes(), name

    def test_restarted_phase_2_is_continued_not_restarted_again(self, workdir, tmp_path):
        # vdsr-epoch0003.nrsr holds the epoch-3 LFCR; once phase 2 restarts on the epoch-4
        # LFCR, a later --resume continues vdsr-epoch0002.nrsr, the newest on that LFCR
        out = tmp_path / "run"
        common = ["--sensor", "quarter", "--mask", workdir / "mask.nrsmask",
                  "--data", workdir / "data", "--out", out, "--shift-da", "1", "--no-flips",
                  "--seed", "5", "--threads", "1"]
        for args in (["--epochs", "3"], ["--phase", "lfcr", "--epochs", "4", "--resume"],
                     ["--epochs", "2", "--resume"]):
            res = run_cli("train", *common, *args)
            assert res.returncode == 0, res.stderr
        assert "phase vdsr starts afresh: its epoch-3 checkpoint holds another LFCR\n" in res.stdout
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        res = run_cli("train", *common, "--epochs", "2", "--resume")
        assert res.returncode == 0, res.stderr
        assert "starts afresh" not in res.stdout
        assert (f"resuming from {out / 'checkpoints' / 'vdsr-epoch0002.nrsr'} "
                "(phase vdsr, epoch 2)\n") in res.stdout
        assert "phase vdsr done: 0 steps\n" in res.stdout
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_killed_log_write_keeps_the_last_whole_log(self, workdir, tmp_path):
        whole, cut = tmp_path / "whole", tmp_path / "cut"
        # 8 patches in batches of 2: four rows per epoch
        common = ["train", "--sensor", "quarter", "--mask", workdir / "mask.nrsmask",
                  "--data", workdir / "data", "--shift-da", "4", "--no-flips", "--batch-size", "2",
                  "--phase", "lfcr", "--seed", "5", "--threads", "1", "--epochs", "2"]
        assert run_cli(*common, "--out", whole).returncode == 0
        log = (whole / "lfcr_train_log.csv").read_bytes()
        assert log.count(b"\n") == 1 + 2 * 4
        killed = subprocess.run([sys.executable, "-c", KILL_IN_EPOCH_2_LOG_WRITE,
                                 *map(str, common), "--out", cut], capture_output=True, text=True)
        assert "KeyboardInterrupt" in killed.stderr and killed.returncode != 0, killed.stderr
        # the epoch-1 log is whole, its checkpoint saved, and the cut write left no temporary
        assert (cut / "lfcr_train_log.csv").read_bytes() == b"".join(log.splitlines(True)[:5])
        assert sorted(p.name for p in cut.rglob("*.nrsr")) == ["lfcr-epoch0001.nrsr"]
        assert not list(cut.rglob("*.tmp"))
        res = run_cli(*common, "--out", cut, "--resume")
        assert res.returncode == 0, res.stderr
        assert (cut / "lfcr_train_log.csv").read_bytes() == log

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

    def test_resume_picks_the_highest_epoch_number(self, workdir, tmp_path):
        # zero-padded to four digits, epoch 9999 sorts after epoch 10000 by name
        from nrsr.checkpoint import save_checkpoint
        from nrsr.lfcr import build_lfcr
        from nrsr.masks import load_mask
        from nrsr.optim import AdamState

        out = tmp_path / "run"
        ckdir = out / "checkpoints"
        ckdir.mkdir(parents=True)
        mask = load_mask(workdir / "mask.nrsmask")
        for epoch in (9999, 10000):
            model = build_lfcr(mask, "quarter", seed=epoch)
            save_checkpoint(ckdir / f"lfcr-epoch{epoch:04d}.nrsr", lfcr=model,
                            adam=AdamState.for_params(model.named_parameters()),
                            epoch=epoch, phase="lfcr")
        res = run_cli("train", "--sensor", "quarter", "--mask", workdir / "mask.nrsmask",
                      "--data", workdir / "data", "--out", out, "--shift-da", "1", "--no-flips",
                      "--phase", "lfcr", "--epochs", "10000", "--resume")
        assert res.returncode == 0, res.stderr
        newest = ckdir / "lfcr-epoch10000.nrsr"
        assert f"resuming from {newest} (phase lfcr, epoch 10000)" in res.stdout
        assert_same_params(load_checkpoint(out / "final.nrsr").lfcr, load_checkpoint(newest).lfcr)

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
        ("config", "lr_decay_factor=inf"), ("config", "lr_floor=-1e-8"),
        ("config", "lr_decay_factor=1e-200")])
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
        out = tmp_path / "diverge"
        res = run_cli("train", "--sensor", "quarter", "--mask", workdir / "mask.nrsmask",
                      "--data", workdir / "data", "--out", out,
                      "--epochs", "8", "--shift-da", "1", "--no-flips",
                      "--phase", "lfcr", "--lr", "1e18", "--seed", "0")
        assert res.returncode == 3
        assert "numerical failure" in res.stderr
        # epoch 1 (one step) finished and was saved; its row survives the failure at step 2
        assert res.stderr.endswith(
            f"at step 2; last good checkpoint: {out / 'checkpoints' / 'lfcr-epoch0001.nrsr'}\n")
        log = (out / "lfcr_train_log.csv").read_text().splitlines()
        assert log[0] == "epoch,step,lr,loss"
        assert [line.split(",")[:3] for line in log[1:]] == [["1", "1", "1e+18"]]


class TestReconstructCommand:
    def test_output_dims_match_input(self, workdir, trained, tmp_path):
        out_img = tmp_path / "rec.pgm"
        res = run_cli("reconstruct", "--sensor", "quarter", "--mask", workdir / "mask.nrsmask",
                      "--checkpoint", trained[0] / "final.nrsr",
                      "--in", workdir / "holdout" / "h0.pgm", "--out", out_img)
        assert res.returncode == 0, res.stderr
        assert out_img.read_bytes().startswith(b"P5")
        assert read_image_gray(out_img).shape == (48, 48)

    def test_stage_lfcr_differs_from_full(self, workdir, trained, tmp_path):
        # dotted bases: each output keeps its own .f32 and .json
        a, b = tmp_path / "h0.full.f32", tmp_path / "h0.lfcr.f32"
        base = ["--sensor", "quarter", "--mask", workdir / "mask.nrsmask",
                "--checkpoint", trained[0] / "final.nrsr",
                "--in", workdir / "holdout" / "h0.pgm"]
        res = run_cli("reconstruct", *base, "--out", a)
        assert res.returncode == 0 and res.stdout == f"wrote {a}\n"
        assert run_cli("reconstruct", *base, "--out", b, "--stage", "lfcr").returncode == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "h0.full.f32", "h0.full.json", "h0.lfcr.f32", "h0.lfcr.json"]
        full, full_meta = load_raw(a)
        lfcr_only, lfcr_meta = load_raw(tmp_path / "h0.lfcr")
        assert (full_meta["stage"], lfcr_meta["stage"]) == ("full", "lfcr")
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
         vectorizing_kernel(sensitivity_tile(generate_mask("three-quarter", 7), "three-quarter"))),
        # every digit raised by 0.5: truncating would load the same mask
        ("meta/mask_pattern", generate_mask("quarter", 7).pattern.astype(np.float32) + 0.5),
        # Adam state is read for every parameter of the saved phase, at its shape
        ("opt/vdsr/conv02/weights/m", None),
        ("opt/vdsr/conv02/bias/v", np.zeros(3, dtype=np.float32)),
        # records that no parameter table, meta/ field or optimizer state names
        ("lfcr/fc10/weights", np.zeros((5, 5), dtype=np.float32)),
        ("vdsr/conv22/weights", np.zeros((64, 64, 3, 3), dtype=np.float32)),
        ("meta/bogus", np.float32(1)),
        # a record holding a NaN or an infinity
        ("lfcr/fc03/weights", one_nan((192, 192, 1, 1))),
        ("vdsr/conv05/weights", one_nan((64, 64, 3, 3))),
        ("opt/vdsr/conv02/weights/m", one_nan((64, 64, 3, 3))),
        ("lfcr/deconv/bias", np.full(1, np.inf, dtype=np.float32)),
        # a negative count: a resumed Adam step at t <= 0 would divide by a bias correction <= 0
        ("meta/epoch", np.float32(-4)),
        ("opt/step", np.float32(-2)),
        # values that decode, but that saving the decoded checkpoint would not write back
        ("meta/epoch", np.float32(2.5)),
        ("opt/step", np.float32(3.7)),
        ("meta/mask_seed", np.float32(2.5)),
        ("meta/epoch", np.ones(1, dtype=np.float32)),
        ("meta/epoch", np.float32(0)),
        ("lfcr/vec/weights", None),
        ("meta/mask_seed", None),
        # a digit too large for an integer cast: one error line, no cast warning
        ("meta/mask_pattern", np.full((8, 8), 1e30, dtype=np.float32)),
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

    @pytest.mark.parametrize("name", ["lfcr/fc03/weights", "vdsr/conv05/weights"])
    def test_reconstruct_exits_2_naming_a_non_finite_record(self, workdir, resumable_checkpoint,
                                                            tmp_path, name):
        from nrsr.checkpoint import write_records

        records = dict(resumable_checkpoint)
        records[name] = one_nan(records[name].shape)
        bad = tmp_path / "bad.nrsr"
        write_records(bad, records)
        out = tmp_path / "r.f32"
        res = run_cli("reconstruct", "--sensor", "quarter", "--mask", workdir / "mask.nrsmask",
                      "--checkpoint", bad, "--in", workdir / "holdout" / "h0.pgm", "--out", out)
        assert res.returncode == 2
        assert res.stderr == f"error: {name} holds a non-finite value\n"
        assert not out.exists()


class TestNonFiniteReconstruction:
    """Finite weights whose output overflows: a numerical failure, exit 3, nothing written."""

    @pytest.fixture(scope="class")
    def overflowing(self, resumable_checkpoint, tmp_path_factory):
        from nrsr.checkpoint import write_records

        records = dict(resumable_checkpoint)
        records["vdsr/conv20/weights"] = records["vdsr/conv20/weights"] * np.float32(1e37)
        assert np.isfinite(records["vdsr/conv20/weights"]).all()
        path = tmp_path_factory.mktemp("overflow") / "big.nrsr"
        write_records(path, records)
        return path

    @pytest.mark.parametrize("suffix", [".f32", ".pgm"])
    def test_reconstruct_exits_3(self, workdir, overflowing, tmp_path, suffix):
        out = tmp_path / f"r{suffix}"
        res = run_cli("reconstruct", "--sensor", "quarter", "--mask", workdir / "mask.nrsmask",
                      "--checkpoint", overflowing, "--in", workdir / "holdout" / "h0.pgm",
                      "--out", out)
        assert res.returncode == 3
        assert res.stderr == "numerical failure: the lfcr+vdsr reconstruction is not finite\n"
        assert list(tmp_path.iterdir()) == []

    def test_evaluate_exits_3_naming_the_image(self, workdir, overflowing, tmp_path):
        res = run_cli("evaluate", "--dataset", workdir / "holdout", "--methods", "lfcr,lfcr+vdsr",
                      "--checkpoint", overflowing, "--out", tmp_path / "e.csv",
                      "--summary", tmp_path / "s.json")
        assert res.returncode == 3
        assert res.stderr == ("numerical failure: h0.pgm: the lfcr+vdsr reconstruction is "
                              "not finite\n")
        assert list(tmp_path.iterdir()) == []


class TestGradcheckCommand:
    def test_passes_at_default_tolerance(self):
        res = run_cli("gradcheck", "--seed", "0")
        assert res.returncode == 0, res.stdout + res.stderr
        assert "all gradient checks passed" in res.stdout
        # one line per check, named in its first column
        assert [line.split()[0] for line in res.stdout.splitlines()[:-1]] == [
            "conv2d", "deconv2d", "prelu", "concat_channels", "mse_loss", "linear",
            "conv2d_prelu", "take_channels", "add", "scale", "add_channel_bias",
            "vectorize_tensor", "lfcr_16x16", "vdsr_depth4"]

    def test_impossible_tolerance_exits_3(self):
        res = run_cli("gradcheck", "--seed", "0", "--tolerance", "1e-30")
        assert res.returncode == 3

    def test_nan_result_fails_and_exits_3(self, monkeypatch, capsys):
        from nrsr import cli, gradcheck

        monkeypatch.delenv("NRSR_THREADS", raising=False)
        monkeypatch.setattr(gradcheck, "run_standard_checks",
                            lambda seed: {"conv2d": float("nan"), "linear": 1e-9})
        assert cli.main(["gradcheck"]) == 3
        out = capsys.readouterr().out
        assert "FAIL" in out and "all gradient checks passed" not in out

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

    def test_full_stage_of_an_lfcr_only_checkpoint_is_absent(self, workdir, trained, tmp_path):
        (tmp_path / "run-f1").mkdir()
        shutil.copy(trained[0] / "checkpoints" / "lfcr-epoch0001.nrsr",
                    tmp_path / "run-f1" / "final.nrsr")
        rows = {}
        for stage in ("full", "lfcr"):
            res = run_cli("curves", "--dataset", workdir / "holdout", "--factors", "1",
                          "--checkpoint-pattern", tmp_path / "run-f{factor}" / "final.nrsr",
                          "--stage", stage)
            assert res.returncode == 0, res.stderr
            rows[stage] = res.stdout.splitlines()[1].split(",")
        assert rows["full"] == ["1", "absent", "absent"]
        assert rows["lfcr"][1] != "absent" and rows["lfcr"][2] == "0.0000"


class TestThreadControl:
    def test_cli_imports_no_numpy_before_the_thread_cap(self):
        # --threads must be applied before numpy loads, so none of this may load it
        code = ("import sys, nrsr, nrsr.cli; nrsr.cli.build_parser(); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "[]\n"

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
