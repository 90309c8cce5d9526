"""Patch pipeline, schedule, and the two-phase training loop."""

import numpy as np
import pytest

from conftest import synth_image
from nrsr.checkpoint import load_checkpoint
from nrsr.lfcr import build_lfcr, lfcr_forward
from nrsr.masks import generate_mask
from nrsr.metrics import psnr
from nrsr.training import (SHIFT_FACTORS, ConfigError, NonFiniteLossError, PatchSet, TrainConfig,
                           augment_flip_rotate, augment_shift, build_patch_set, extract_patches,
                           load_config, lr_schedule, save_config, train_lfcr, train_vdsr,
                           write_log_csv)
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

    def test_shift_factor_sets(self):
        for factor, shifts in SHIFT_FACTORS.items():
            assert len(shifts) == factor
            assert len(set(shifts)) == factor
            assert all(dy % 2 == 0 and dx % 2 == 0 for dy, dx in shifts)
        assert SHIFT_FACTORS[16] == TrainConfig().shift_set


class TestExtractPatches:
    def test_offsets_grid(self):
        cfg = TrainConfig()
        ps = extract_patches([synth_image(0, 96, 96)], cfg)
        assert len(ps) == 4
        assert sorted(p.offset for p in ps.provenance) == [(0, 0), (0, 40), (40, 0), (40, 40)]

    def test_exact_fit_single_patch(self):
        ps = extract_patches([synth_image(1, 48, 48)], TrainConfig())
        assert len(ps) == 1
        assert ps.provenance[0].offset == (0, 0)

    def test_offsets_are_multiples_of_8(self):
        cfg = TrainConfig(patch_size=16, patch_stride=24)
        ps = extract_patches([synth_image(2, 90, 70)], cfg)
        assert len(ps) > 0
        for info in ps.provenance:
            assert info.offset[0] % 8 == 0 and info.offset[1] % 8 == 0

    def test_undersized_skipped_with_warning(self):
        with pytest.warns(UserWarning, match="smaller than patch size"):
            ps = extract_patches([synth_image(3, 40, 40)], TrainConfig())
        assert len(ps) == 0

    def test_patch_content_matches_source(self):
        img = synth_image(4, 96, 96)
        ps = extract_patches([img], TrainConfig())
        for patch, info in zip(ps.patches, ps.provenance):
            y, x = info.offset
            assert np.array_equal(patch, img[y : y + 48, x : x + 48])


class TestAugmentations:
    def test_flip_rotate_count_and_constant(self):
        out = augment_flip_rotate(np.full((8, 8), 9.0, dtype=np.float32))
        assert len(out) == 8
        for p in out:
            assert np.all(p == 9.0)

    def test_flip_rotate_closed_under_composition(self):
        patch = synth_image(5, 16, 16)
        first = augment_flip_rotate(patch)
        keys = {p.tobytes() for p in first}
        assert len(keys) == 8  # generic patch: all eight distinct
        twice = {q.tobytes() for p in first for q in augment_flip_rotate(p)}
        assert twice == keys

    def test_shift_identity_and_count(self):
        img = synth_image(6, 96, 96)
        shifts = TrainConfig().shift_set
        out = augment_shift(img, shifts)
        assert len(out) == 16
        assert np.array_equal(out[0], img[:96, :96])
        for (dy, dx), crop in zip(shifts, out):
            assert crop.shape == ((96 - dy) // 8 * 8, (96 - dx) // 8 * 8)
            assert np.array_equal(crop, img[dy : dy + crop.shape[0], dx : dx + crop.shape[1]])

    def test_shift_changes_sampling_but_not_constants(self):
        from nrsr.sensors import sample_quarter

        mask = generate_mask("quarter", 3)
        img = synth_image(7, 64, 64)
        crops = augment_shift(img, ((0, 0), (2, 0)))
        a = sample_quarter(crops[0][:56, :56], mask)
        b = sample_quarter(crops[1][:56, :56], mask)
        assert not np.array_equal(a, b)
        const = np.full((64, 64), 50.0, dtype=np.float32)
        ca, cb = augment_shift(const, ((0, 0), (2, 0)))
        assert np.array_equal(sample_quarter(ca[:56, :56], mask),
                              sample_quarter(cb[:56, :56], mask))

    def test_oversized_shift_rejected(self):
        with pytest.raises(ConfigError, match="exceeds"):
            augment_shift(np.zeros((8, 8)), ((8, 0),))

    def test_total_sample_count(self):
        # large enough that every shift keeps the same patch grid
        cfg = TrainConfig()
        img = synth_image(8, 104, 104)
        ps = build_patch_set([img], cfg)
        base = extract_patches([img], cfg)
        assert len(ps) == len(base) * 8 * 16
        no_flips = build_patch_set([img], TrainConfig(flips_rotations=False))
        assert len(no_flips) == len(base) * 16


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
        res = train_lfcr(ck.lfcr, patches, cfg6, checkpoint_dir=tmp_path,
                         state=ck.adam, start_epoch=ck.epoch)
        assert [r.step for r in res.rows] == [3, 4, 5, 6]
        assert [r.epoch for r in res.rows] == [3, 4, 5, 6]


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
