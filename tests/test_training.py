"""Patch pipeline, schedule, and the two-phase training loop."""

import ctypes
import os
import platform
import re
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from conftest import synth_image
from nrsr import training
from nrsr.checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from nrsr.lfcr import build_lfcr, lfcr_forward
from nrsr.masks import generate_mask
from nrsr.metrics import psnr
from nrsr.training import (SHIFT_FACTORS, ConfigError, LogRow, NonFiniteLossError, PatchSet,
                           TrainConfig, build_patch_set, load_config, lr_schedule, read_log_csv,
                           resume_point, save_config, train_lfcr, train_vdsr, write_log_csv)
from nrsr.vdsr import build_vdsr, vdsr_forward


class TestConfig:
    def test_defaults_match_protocol(self):
        cfg = TrainConfig()
        assert cfg.patch_size == 48 and cfg.patch_stride == 40
        assert len(cfg.shift_set) == 16
        assert cfg.epochs == 100 and cfg.initial_lr == 1e-4
        assert cfg.lr_decay_every == 10 and cfg.lr_decay_factor == 10.0
        assert cfg.batch_size == 64

    def test_alignment_validated(self):
        with pytest.raises(ConfigError, match="multiples of 8"):
            TrainConfig(patch_size=44)
        with pytest.raises(ConfigError, match="even"):
            TrainConfig(shift_set=((1, 0),))

    def test_file_round_trip(self, tmp_path):
        cfg = TrainConfig(patch_size=16, patch_stride=8, epochs=3, seed=7,
                          shift_set=((0, 0), (2, 4)), flips_rotations=False)
        path = tmp_path / "cfg.txt"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("patch_size=48\nmomentum=0.9\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("epochs=ten\n")
        with pytest.raises(ConfigError, match="bad value"):
            load_config(path)

    @pytest.mark.parametrize("line", [
        "initial_lr=nan", "initial_lr=inf", "lr_decay_factor=nan", "lr_decay_factor=inf",
        "lr_floor=nan", "lr_floor=inf", "lr_floor=-1e-8"])
    def test_non_finite_or_negative_lr_rejected(self, tmp_path, line):
        path = tmp_path / "cfg.txt"
        path.write_text(line + "\n")
        with pytest.raises(ConfigError, match="must be finite|lr_floor must be >= 0"):
            load_config(path)

    @pytest.mark.parametrize("line", [
        "lr_decay_factor=1e-200", "lr_decay_factor=0.5", "lr_decay_factor=0",
        "lr_decay_factor=-10"])
    def test_lr_decay_factor_below_one_rejected(self, tmp_path, line):
        # a factor < 1 raises the lr at every decay, until factor ** -decays overflows
        path = tmp_path / "cfg.txt"
        path.write_text(line + "\n")
        with pytest.raises(ConfigError, match="lr_decay_factor must be >= 1"):
            load_config(path)

    def test_undecodable_config_names_the_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_bytes(b"epochs=\xff\xfe\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: "):
            load_config(path)

    def test_zero_lr_floor_accepted(self):
        assert lr_schedule(100, TrainConfig(lr_floor=0.0)) == pytest.approx(1e-13)

    def test_shift_factor_sets(self):
        for factor, shifts in SHIFT_FACTORS.items():
            assert len(shifts) == factor
            assert len(set(shifts)) == factor
            assert all(dy % 2 == 0 and dx % 2 == 0 for dy, dx in shifts)
        assert SHIFT_FACTORS[16] == TrainConfig().shift_set


def dihedral(patch: np.ndarray, tag: int) -> np.ndarray:
    turned = np.rot90(patch, tag % 4)
    return np.fliplr(turned) if tag >= 4 else turned


def one_shift(**kwargs) -> TrainConfig:
    return TrainConfig(shift_set=((0, 0),), flips_rotations=False, **kwargs)


class TestExtractPatches:
    def test_offsets_grid(self):
        ps = build_patch_set([synth_image(0, 96, 96)], one_shift())
        assert len(ps) == 4
        assert ps.index.tolist() == [[0, 0, 0, 0], [0, 0, 40, 0], [0, 40, 0, 0], [0, 40, 40, 0]]

    def test_exact_fit_single_patch(self):
        ps = build_patch_set([synth_image(1, 48, 48)], one_shift())
        assert ps.index.tolist() == [[0, 0, 0, 0]]

    def test_offsets_are_multiples_of_8(self):
        cfg = TrainConfig(patch_size=16, patch_stride=24, shift_set=((0, 0), (2, 4)),
                          flips_rotations=False)
        ps = build_patch_set([synth_image(2, 90, 70)], cfg)
        assert len(ps) > 0
        shifts = {(y % 8, x % 8) for _, y, x, _ in ps.index}
        assert shifts == {(0, 0), (2, 4)}
        for _, y, x, _ in ps.index:
            assert (y - y % 8) % 24 == 0 and (x - x % 8) % 24 == 0  # stride multiples

    def test_undersized_skipped_with_warning(self):
        with pytest.warns(UserWarning, match="40x40 smaller than patch size 48, skipped"):
            ps = build_patch_set([synth_image(3, 40, 40)], one_shift())
        assert len(ps) == 0 and len(ps.sources) == 0

    def test_patch_content_matches_source(self):
        img = synth_image(4, 96, 96)
        ps = build_patch_set([img], TrainConfig())
        batch = ps.batch(np.arange(len(ps)))
        assert batch.shape == (len(ps), 48, 48) and batch.dtype == np.float32
        for patch, (src, y, x, tag) in zip(batch, ps.index):
            assert src == 0
            assert np.array_equal(patch, dihedral(img[y : y + 48, x : x + 48], tag))


class TestAugmentations:
    def test_flip_rotate_count_and_constant(self):
        cfg = TrainConfig(patch_size=8, patch_stride=8, shift_set=((0, 0),))
        ps = build_patch_set([np.full((8, 8), 9.0)], cfg)
        assert ps.index[:, 3].tolist() == list(range(8))
        assert np.all(ps.batch(np.arange(8)) == 9.0)

    def test_flip_rotate_closed_under_composition(self):
        cfg = TrainConfig(patch_size=16, patch_stride=8, shift_set=((0, 0),))
        first = build_patch_set([synth_image(5, 16, 16)], cfg).batch(np.arange(8))
        keys = {p.tobytes() for p in first}
        assert len(keys) == 8  # generic patch: all eight distinct
        index = np.array([(i, 0, 0, tag) for i in range(8) for tag in range(8)])
        twice = PatchSet(list(first), index, 16).batch(np.arange(len(index)))
        assert {q.tobytes() for q in twice} == keys

    def test_shift_identity_and_count(self):
        img = synth_image(6, 96, 96)
        cfg = TrainConfig(patch_size=16, patch_stride=8, flips_rotations=False)
        ps = build_patch_set([img], cfg)
        rows = iter(ps.index.tolist())
        for dy, dx in cfg.shift_set:
            # each shift crop is trimmed to multiples of 8 before the grid is laid
            ch, cw = (96 - dy) // 8 * 8, (96 - dx) // 8 * 8
            for y in range(dy, dy + ch - 16 + 1, 8):
                for x in range(dx, dx + cw - 16 + 1, 8):
                    assert next(rows) == [0, y, x, 0]
        assert next(rows, None) is None
        assert np.array_equal(ps.batch(np.array([0])), img[None, :16, :16])

    def test_shift_changes_sampling_but_not_constants(self):
        from nrsr.sensors import sample, sensitivity_tile

        tile = sensitivity_tile(generate_mask("quarter", 3), "quarter")
        cfg = TrainConfig(patch_size=56, patch_stride=8, shift_set=((0, 0), (2, 0)),
                          flips_rotations=False)

        def at_origin(img):
            ps = build_patch_set([img], cfg)
            rows = [i for i, (_, y, x, _) in enumerate(ps.index) if (y, x) in ((0, 0), (2, 0))]
            return ps.batch(np.array(rows))

        a, b = at_origin(synth_image(7, 64, 64))
        assert not np.array_equal(sample(a, tile), sample(b, tile))
        ca, cb = at_origin(np.full((64, 64), 50.0, dtype=np.float32))
        assert np.array_equal(sample(ca, tile), sample(cb, tile))

    def test_oversized_shift_skipped(self):
        # a shift at or beyond the image's dims is one more crop smaller than a patch
        cfg = TrainConfig(patch_size=8, patch_stride=8, shift_set=((0, 0), (8, 0), (10, 2)),
                          flips_rotations=False)
        with pytest.warns(UserWarning, match="smaller than patch size 8") as record:
            ps = build_patch_set([np.zeros((8, 8), dtype=np.float32)], cfg)
        assert [str(w.message) for w in record] == [
            "image000: 0x8 smaller than patch size 8, skipped",
            "image000: 0x0 smaller than patch size 8, skipped"]
        assert ps.index.tolist() == [[0, 0, 0, 0]]

    def test_total_sample_count(self):
        # large enough that every shift keeps the same patch grid
        img = synth_image(8, 104, 104)
        base = build_patch_set([img], one_shift())
        assert len(build_patch_set([img], TrainConfig())) == len(base) * 8 * 16
        no_flips = build_patch_set([img], TrainConfig(flips_rotations=False))
        assert len(no_flips) == len(base) * 16


class TestPatchSet:
    def test_patches_batch_is_indexing(self):
        a = np.random.default_rng(0).uniform(0, 255, (6, 16, 16))
        ps = PatchSet(patches=a)
        assert len(ps) == 6 and ps.size == 16
        for rows in (np.array([4, 0, 5]), np.arange(6), np.array([2])):
            out = ps.batch(rows)
            assert out.dtype == a.dtype and np.array_equal(out, a[rows])

    def test_patches_must_be_square(self):
        with pytest.raises(ConfigError, match="size, size"):
            PatchSet(patches=np.zeros((2, 16, 24)))

    def test_sources_are_kept_once_and_rows_indexed_across_images(self):
        imgs = [synth_image(9 + k, 56, 64).astype(np.float32) for k in range(2)]
        with pytest.warns(UserWarning, match="small: .* smaller than patch size"):
            ps = build_patch_set([imgs[0], np.zeros((40, 40)), imgs[1]], TrainConfig(),
                                 image_ids=["a", "small", "b"])
        assert len(ps.sources) == 2
        assert ps.sources[0] is imgs[0] and ps.sources[1] is imgs[1]  # float32 in, no copy
        half = len(ps) // 2
        assert set(ps.index[:half, 0]) == {0} and set(ps.index[half:, 0]) == {1}

    def test_build_memory_scales_with_sources_not_augmentation(self):
        # the x128 (16 shifts x 8 tags) augmentation costs 32 bytes per index row,
        # 0.4x these sources; stored patches would take 115x them
        imgs = [synth_image(20 + k, 160, 240).astype(np.float32) for k in range(4)]
        source_bytes = sum(img.nbytes for img in imgs)
        tracemalloc.start()
        try:
            ps = build_patch_set(imgs, TrainConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * source_bytes, (peak, source_bytes)
        assert len(ps) == 4 * 15 * 128 and ps.index.nbytes == 32 * len(ps)


class TestLrSchedule:
    def test_paper_values(self):
        cfg = TrainConfig()
        assert lr_schedule(1, cfg) == 1e-4
        assert lr_schedule(10, cfg) == 1e-4
        assert lr_schedule(11, cfg) == pytest.approx(1e-5, rel=1e-12)
        assert lr_schedule(21, cfg) == pytest.approx(1e-6, rel=1e-12)

    def test_floor_clamp(self):
        cfg = TrainConfig()
        assert lr_schedule(100, cfg) == 1e-8

    def test_constant_when_factor_one(self):
        cfg = TrainConfig(lr_decay_factor=1.0)
        assert lr_schedule(500, cfg) == 1e-4

    def test_epoch_must_be_positive(self):
        with pytest.raises(ConfigError):
            lr_schedule(0, TrainConfig())


def micro_patches(n=4, size=48):
    return np.stack([synth_image(40 + k, size, size) for k in range(n)])


class TestTrainLfcr:
    def test_constant_patches_learned_fast(self):
        model = build_lfcr(generate_mask("quarter", 1), "quarter", seed=0)
        patches = np.full((4, 48, 48), 100.0, dtype=np.float32)
        cfg = TrainConfig(epochs=200, batch_size=8, initial_lr=1e-3,
                          lr_decay_factor=1.0, seed=0)
        res = train_lfcr(model, PatchSet(patches=patches), cfg)
        assert res.rows[-1].loss < 2.0
        assert res.rows[-1].loss < 1e-4 * res.rows[0].loss
        # reconstruction of a constant image is near-constant after the micro-run
        out = lfcr_forward(model, np.full((48, 48), 100.0, dtype=np.float32))
        assert np.mean(np.abs(out - 100.0)) < 2.0
        assert np.max(np.abs(out - 100.0)) < 15.0

    def test_loss_curve_finite_and_logged(self):
        model = build_lfcr(generate_mask("quarter", 2), "quarter", seed=1)
        cfg = TrainConfig(epochs=5, batch_size=2, lr_decay_factor=1.0, seed=0)
        res = train_lfcr(model, PatchSet(patches=micro_patches()), cfg)
        assert len(res.rows) == 5 * 2  # 4 patches, batch 2 -> 2 steps/epoch
        assert len(res.epoch_losses) == 5
        assert all(np.isfinite(r.loss) for r in res.rows)
        assert [r.step for r in res.rows] == list(range(1, 11))

    def test_reproducible_bit_exact(self):
        cfg = TrainConfig(epochs=10, batch_size=2, seed=3)
        runs = []
        for _ in range(2):
            model = build_lfcr(generate_mask("quarter", 3), "quarter", seed=2)
            res = train_lfcr(model, PatchSet(patches=micro_patches()), cfg)
            runs.append([r.loss for r in res.rows])
        assert runs[0] == runs[1]

    def test_checkpoints_written_per_epoch(self, tmp_path):
        model = build_lfcr(generate_mask("quarter", 4), "quarter", seed=0)
        cfg = TrainConfig(epochs=3, batch_size=8, seed=0)
        res = train_lfcr(model, PatchSet(patches=micro_patches(2)), cfg,
                         checkpoint_dir=tmp_path)
        assert len(res.checkpoints) == 3
        ck = load_checkpoint(res.checkpoints[-1])
        assert ck.epoch == 3 and ck.phase == "lfcr"
        assert ck.adam is not None and ck.adam.step == 3

    def test_non_finite_loss_aborts_with_checkpoint(self, tmp_path):
        model = build_lfcr(generate_mask("quarter", 5), "quarter", seed=0)
        cfg = TrainConfig(epochs=30, batch_size=8, initial_lr=1e18,
                          lr_decay_factor=1.0, seed=0)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises((NonFiniteLossError, RuntimeError)) as exc_info:
                train_lfcr(model, PatchSet(patches=micro_patches(2)), cfg,
                           checkpoint_dir=tmp_path)
        if isinstance(exc_info.value, NonFiniteLossError):
            assert exc_info.value.last_checkpoint is not None

    def test_non_finite_loss_names_the_failing_step(self):
        model = build_lfcr(generate_mask("quarter", 5), "quarter", seed=0)
        patches = np.full((2, 48, 48), np.nan, dtype=np.float32)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NonFiniteLossError, match="non-finite loss at step 1$") as exc_info:
                train_lfcr(model, PatchSet(patches=patches), TrainConfig(epochs=1, batch_size=8))
        assert exc_info.value.step == 1 and exc_info.value.last_checkpoint is None

    def test_resume_continues_step_counter(self, tmp_path):
        cfg = TrainConfig(epochs=4, batch_size=8, seed=1)
        model = build_lfcr(generate_mask("quarter", 6), "quarter", seed=0)
        patches = PatchSet(patches=micro_patches(2))
        train_lfcr(model, patches, cfg, checkpoint_dir=tmp_path)
        ck = load_checkpoint(tmp_path / "lfcr-epoch0002.nrsr")
        cfg6 = TrainConfig(epochs=6, batch_size=8, seed=1)
        res = train_lfcr(ck.lfcr, patches, cfg6, checkpoint_dir=tmp_path, resume_from=ck)
        assert [r.step for r in res.rows] == [3, 4, 5, 6]
        assert [r.epoch for r in res.rows] == [3, 4, 5, 6]


    def test_resume_from_the_other_phase_rejected(self):
        model = build_lfcr(generate_mask("quarter", 6), "quarter", seed=0)
        patches, cfg = PatchSet(patches=micro_patches(2)), TrainConfig(epochs=1, batch_size=8)
        with pytest.raises(ConfigError, match="^phase lfcr cannot resume a phase-vdsr checkpoint$"):
            train_lfcr(model, patches, cfg, resume_from=Checkpoint(lfcr=model, phase="vdsr"))
        with pytest.raises(ConfigError, match="^phase vdsr cannot resume a phase-lfcr checkpoint$"):
            train_vdsr(model, build_vdsr(seed=1, depth=3), patches, cfg,
                       resume_from=Checkpoint(lfcr=model, phase="lfcr"))


class TestTrainVdsr:
    def test_lfcr_frozen_and_phase2_lr(self):
        mask = generate_mask("quarter", 7)
        lfcr_model = build_lfcr(mask, "quarter", seed=0)
        vdsr_model = build_vdsr(seed=1)
        before = {name: p.data.copy() for name, p in lfcr_model.named_parameters()}
        patches = PatchSet(patches=micro_patches(1, size=16))
        cfg = TrainConfig(epochs=2, batch_size=4, seed=0)
        res = train_vdsr(lfcr_model, vdsr_model, patches, cfg)
        for name, p in lfcr_model.named_parameters():
            assert np.array_equal(p.data, before[name]), name
        assert res.rows[0].lr == pytest.approx(1e-5, rel=1e-12)

    def test_vdsr_improves_over_lfcr_on_overfit_set(self):
        # direction of the full-scale result, at desk scale: the residual
        # stage lifts PSNR above the LFCR-only reconstruction
        mask = generate_mask("quarter", 1)
        imgs = micro_patches(2, size=16)
        lfcr_model = build_lfcr(mask, "quarter", seed=1)
        cfg1 = TrainConfig(epochs=120, batch_size=8, initial_lr=1e-3,
                           lr_decay_factor=1.0, seed=0)
        train_lfcr(lfcr_model, PatchSet(patches=imgs), cfg1)
        f_hat = lfcr_forward(lfcr_model, imgs)
        psnr_lfcr = psnr(imgs, f_hat)

        vdsr_model = build_vdsr(seed=2)
        cfg2 = TrainConfig(epochs=400, batch_size=8, initial_lr=1e-2,
                           lr_decay_factor=1.0, seed=0)
        train_vdsr(lfcr_model, vdsr_model, PatchSet(patches=imgs), cfg2)
        _, f_tilde = vdsr_forward(vdsr_model, f_hat)
        psnr_full = psnr(imgs, f_tilde)
        assert psnr_full > psnr_lfcr


def test_log_csv_format(tmp_path):
    model = build_lfcr(generate_mask("quarter", 8), "quarter", seed=0)
    cfg = TrainConfig(epochs=2, batch_size=8, seed=0)
    res = train_lfcr(model, PatchSet(patches=micro_patches(2)), cfg)
    path = tmp_path / "log.csv"
    write_log_csv(path, res.rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,step,lr,loss"
    assert len(lines) == 1 + len(res.rows)
    epoch, step, lr, loss = lines[1].split(",")
    assert int(epoch) == 1 and int(step) == 1
    assert float(lr) == res.rows[0].lr
    assert float(loss) == res.rows[0].loss
    assert read_log_csv(path) == res.rows


@pytest.mark.parametrize("tail", [
    # an opening quote runs the field past csv's 131072-character limit
    b'"' + b"1,2,0.1,0.5\n" * 12000,
    b"1,2,\xff,0.5\n",
], ids=["past-field-limit", "undecodable"])
def test_malformed_log_names_the_file(tmp_path, tail):
    path = tmp_path / "log.csv"
    path.write_bytes(b"epoch,step,lr,loss\n" + tail)
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: malformed training log"):
        read_log_csv(path)


@pytest.mark.parametrize("row", ["-7,3,nan,inf", "1,-2,-0.5,nan", "0,1,0.1,0.5", "1,0,0.1,0.5",
                                 "1,1,inf,0.5", "1,1,0.1,-0.0001"])
def test_log_rows_training_never_writes_rejected(tmp_path, row):
    path = tmp_path / "log.csv"
    path.write_text(f"epoch,step,lr,loss\n1,1,0.1,0.5\n{row}\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: malformed training log"):
        read_log_csv(path)


# Run-directory states for resume_point. A checkpoint is file name -> (phase, epoch, k), where
# k names the LFCR it holds: LFCR k stands for the LFCR after phase-1 epoch k. None is the
# partial file of a killed save. A log is its epochs (one row each) or its raw text.
ONE_EPOCH_RUN = {"lfcr-epoch0001.nrsr": ("lfcr", 1, 1), "vdsr-epoch0001.nrsr": ("vdsr", 1, 1)}
ONE_EPOCH_LOGS = {"lfcr": [1], "vdsr": [1]}
# `--epochs 1`, then `--phase lfcr --epochs 2 --resume`
PHASE_1_EXTENDED = {**ONE_EPOCH_RUN, "lfcr-epoch0002.nrsr": ("lfcr", 2, 2)}
# `--epochs 3`, `--phase lfcr --epochs 4 --resume`, `--epochs 2 --resume`: the third run
# restarted phase 2 on LFCR 4 and overwrote vdsr-epoch0001 and -0002; vdsr-epoch0003 holds LFCR 3
FOUR_RUNS = {**{f"lfcr-epoch{e:04d}.nrsr": ("lfcr", e, e) for e in (1, 2, 3, 4)},
             "vdsr-epoch0001.nrsr": ("vdsr", 1, 4), "vdsr-epoch0002.nrsr": ("vdsr", 2, 4),
             "vdsr-epoch0003.nrsr": ("vdsr", 3, 3)}
CUT_LOG = "epoch,step,lr,loss\n1,1,0.0001,0.5\n2,"

# state, logs, phase, the LFCR phase 2 trains on (None: any), log, and the result: the epoch
# continued (None: a fresh start), the epochs of the rows kept, the files loaded in order
RESUME_STATES = {
    "fresh-phase-1": ({}, {}, "lfcr", None, True, (None, [], [])),
    "fresh-phase-2": ({}, {}, "vdsr", 1, True, (None, [], [])),
    "resume-phase-1": (ONE_EPOCH_RUN, ONE_EPOCH_LOGS, "lfcr", None, True,
                       (1, [1], ["lfcr-epoch0001.nrsr"])),
    "resume-phase-2-early-check": (ONE_EPOCH_RUN, ONE_EPOCH_LOGS, "vdsr", None, True,
                                   (1, [1], ["vdsr-epoch0001.nrsr"])),
    "resume-phase-2-same-lfcr": (ONE_EPOCH_RUN, ONE_EPOCH_LOGS, "vdsr", 1, True,
                                 (1, [1], ["vdsr-epoch0001.nrsr"])),
    "resume-phase-2-after-phase-1-trained-on": (ONE_EPOCH_RUN, ONE_EPOCH_LOGS, "vdsr", 2, True,
                                                (None, [], ["vdsr-epoch0001.nrsr"])),
    "phase-lfcr-resumed-then-phase-1": (PHASE_1_EXTENDED, {"lfcr": [1, 2], "vdsr": [1]}, "lfcr",
                                        None, True, (2, [1, 2], ["lfcr-epoch0002.nrsr"])),
    "phase-lfcr-resumed-then-phase-2": (PHASE_1_EXTENDED, {"lfcr": [1, 2], "vdsr": [1]}, "vdsr",
                                        2, True, (None, [], ["vdsr-epoch0001.nrsr"])),
    "four-runs-restarted-phase-2": (FOUR_RUNS, {"lfcr": [1, 2, 3, 4], "vdsr": [1, 2]}, "vdsr", 4,
                                    True, (2, [1, 2], ["vdsr-epoch0003.nrsr",
                                                       "vdsr-epoch0002.nrsr"])),
    "phase-1-deleted-phase-1": ({"vdsr-epoch0001.nrsr": ("vdsr", 1, 1)}, ONE_EPOCH_LOGS, "lfcr",
                                None, True, (None, [], [])),
    "phase-1-deleted-phase-2": ({"vdsr-epoch0001.nrsr": ("vdsr", 1, 1)}, ONE_EPOCH_LOGS, "vdsr",
                                1, True, (1, [1], ["vdsr-epoch0001.nrsr"])),
    "stale-tmp-ignored": ({**ONE_EPOCH_RUN, "vdsr-epoch0004.nrsr.tmp": None}, ONE_EPOCH_LOGS,
                          "vdsr", 1, True, (1, [1], ["vdsr-epoch0001.nrsr"])),
    "epoch-10000-newer-than-9999": ({"lfcr-epoch9999.nrsr": ("lfcr", 9999, 1),
                                     "lfcr-epoch10000.nrsr": ("lfcr", 10000, 2)}, {}, "lfcr",
                                    None, True, (10000, [], ["lfcr-epoch10000.nrsr"])),
    "log-rows-past-the-checkpoint": (ONE_EPOCH_RUN, {"lfcr": [1, 2, 3]}, "lfcr", None, True,
                                     (1, [1], ["lfcr-epoch0001.nrsr"])),
    "log-false-leaves-the-log-unread": (ONE_EPOCH_RUN, {"lfcr": CUT_LOG}, "lfcr", None, False,
                                        (1, [], ["lfcr-epoch0001.nrsr"])),
}


@pytest.fixture(scope="module")
def resume_models():
    """LFCRs 1..4 and one VDSR, untrained."""
    mask = generate_mask("quarter", 3)
    return {k: build_lfcr(mask, "quarter", seed=k) for k in range(1, 5)}, build_vdsr(seed=1, depth=3)


def run_dir_state(root, models, files, logs):
    """Write the checkpoints ``files`` and the logs ``logs`` into the run directory ``root``."""
    lfcrs, vdsr = models
    ckdir = root / "checkpoints"
    ckdir.mkdir()
    for name, spec in files.items():
        if spec is None:
            (ckdir / name).write_bytes(b"NRSR1\x07")
            continue
        phase, epoch, k = spec
        save_checkpoint(ckdir / name, lfcr=lfcrs[k], vdsr=vdsr if phase == "vdsr" else None,
                        epoch=epoch, phase=phase)
    for phase, epochs in logs.items():
        log = root / f"{phase}_train_log.csv"
        if isinstance(epochs, str):
            log.write_text(epochs)
        else:
            write_log_csv(log, [LogRow(e, e, 1e-4, 0.5) for e in epochs])
    loaded = []

    def load(path):
        loaded.append(path.name)
        return load_checkpoint(path)

    return load, loaded


@pytest.mark.parametrize("files, logs, phase, lfcr, log, want", RESUME_STATES.values(),
                         ids=RESUME_STATES.keys())
def test_resume_point(tmp_path, resume_models, files, logs, phase, lfcr, log, want):
    load, loaded = run_dir_state(tmp_path, resume_models, files, logs)
    point = resume_point(tmp_path, phase, load, lfcr and resume_models[0][lfcr], log=log)
    epoch, row_epochs, loaded_names = want
    if epoch is None:
        assert point is None
    else:
        path, ck, rows = point
        assert path == tmp_path / "checkpoints" / f"{phase}-epoch{epoch:04d}.nrsr"
        assert (ck.phase, ck.epoch) == (phase, epoch)
        assert [row.epoch for row in rows] == row_epochs
    assert loaded == loaded_names
    assert sorted(p.name for p in (tmp_path / "checkpoints").iterdir()) == sorted(files)


@pytest.mark.parametrize("files, logs, phase, error, named", [
    (ONE_EPOCH_RUN, {"lfcr": CUT_LOG}, "lfcr", ConfigError, "lfcr_train_log.csv"),
    ({**ONE_EPOCH_RUN, "vdsr-epoch0001.nrsr": ("lfcr", 1, 1)}, {}, "vdsr", CheckpointError,
     "vdsr-epoch0001.nrsr"),
    ({"lfcr-epoch0005.nrsr": ("lfcr", 2, 1)}, {}, "lfcr", CheckpointError, "lfcr-epoch0005.nrsr"),
], ids=["log-cut-inside-its-last-row", "phase-1-checkpoint-named-phase-2",
        "epoch-2-checkpoint-named-epoch-5"])
def test_resume_point_refuses(tmp_path, resume_models, files, logs, phase, error, named):
    load, _ = run_dir_state(tmp_path, resume_models, files, logs)
    with pytest.raises(error, match=f"^{re.escape(str(tmp_path))}/.*{re.escape(named)}"):
        resume_point(tmp_path, phase, load)


class FakeMallopt:
    """Stands in for libc's ``mallopt``: records its calls and answers ``answer``."""

    def __init__(self, answer: int = 1):
        self.calls = []
        self.answer = answer

    def __call__(self, param, value):
        self.calls.append((param, value))
        return self.answer


class TestKeepFreedMemory:
    @pytest.fixture
    def tune(self, monkeypatch):
        """``keep_freed_memory`` uncached, with no malloc settings in the environment."""
        for key in list(os.environ):
            if key.startswith("MALLOC_") or key == "GLIBC_TUNABLES":
                monkeypatch.delenv(key)
        training.keep_freed_memory.cache_clear()
        yield training.keep_freed_memory
        training.keep_freed_memory.cache_clear()

    def use_libc(self, monkeypatch, libc) -> None:
        monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)

    def use_mallopt(self, monkeypatch, answer: int = 1) -> FakeMallopt:
        mallopt = FakeMallopt(answer)
        self.use_libc(monkeypatch, types.SimpleNamespace(mallopt=mallopt))
        return mallopt

    def test_sets_the_mmap_then_the_trim_threshold(self, tune, monkeypatch):
        mallopt = self.use_mallopt(monkeypatch)
        assert tune() is True
        assert mallopt.calls == [(training.M_MMAP_THRESHOLD, 32 << 20),
                                 (training.M_TRIM_THRESHOLD, 1 << 30)]

    def test_no_trim_threshold_when_mallopt_refuses_the_mmap_one(self, tune, monkeypatch):
        mallopt = self.use_mallopt(monkeypatch, answer=0)
        assert tune() is False
        assert mallopt.calls == [(training.M_MMAP_THRESHOLD, 32 << 20)]

    @pytest.mark.parametrize("key, value", [
        ("MALLOC_TRIM_THRESHOLD_", "131072"),
        ("MALLOC_TOP_PAD_", "0"),
        ("GLIBC_TUNABLES", "glibc.malloc.mmap_threshold=65536"),
    ])
    def test_user_settings_win(self, tune, monkeypatch, key, value):
        mallopt = self.use_mallopt(monkeypatch)
        monkeypatch.setenv(key, value)
        assert tune() is False
        assert mallopt.calls == []

    def test_other_tunables_do_not_stop_it(self, tune, monkeypatch):
        self.use_mallopt(monkeypatch)
        monkeypatch.setenv("GLIBC_TUNABLES", "glibc.rtld.nns=2")
        assert tune() is True

    def test_silent_without_mallopt(self, tune, monkeypatch):
        self.use_libc(monkeypatch, object())  # a libc without the symbol, as off glibc
        assert tune() is False

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt tuning is glibc-only")
    def test_batch_64_lfcr_steps_stop_page_faulting(self):
        # per-step minor faults of train_lfcr, counted between consecutive Adam steps
        script = """if True:
            import resource
            import numpy as np
            from nrsr import training
            from nrsr.lfcr import build_lfcr
            from nrsr.masks import generate_mask

            faults = []
            adam_step = training.adam_step

            def counted(*args):
                adam_step(*args)
                faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

            training.adam_step = counted
            patches = np.random.default_rng(0).uniform(0, 255, (64, 48, 48)).astype(np.float32)
            model = build_lfcr(generate_mask("three-quarter", 1), "three-quarter", seed=1)
            config = training.TrainConfig(epochs=8, batch_size=64, seed=1)
            training.train_lfcr(model, training.PatchSet(patches=patches), config)
            print(int(np.median(np.diff(faults)[1:])))  # steps 3..8
        """
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([str(Path(training.__file__).parents[1]),
                                               env.get("PYTHONPATH", "")]))
        res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=env, timeout=300)
        assert res.returncode == 0, res.stderr
        assert int(res.stdout) < 1000
