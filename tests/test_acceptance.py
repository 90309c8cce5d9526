"""Acceptance suite: one test per criterion, each with a pass/fail line
in the terminal summary and an explicit runtime budget.

Criterion 8 (direction-of-effect experiment) is informational and only
runs when NRSR_RUN_INFORMATIONAL=1; everything else runs by default.

Full-scale figures from the literature protocol (100-epoch Set291
training, Urban100/Tecnick evaluation) are context only and not desk
reproducible; see the evaluation module docs for the recorded targets.
"""

import math
import os
import time

import numpy as np
import pytest

from conftest import integer_image, record_acceptance, smooth_image, synth_image, vectorize_oracle
from nrsr.gradcheck import run_standard_checks
from nrsr.lfcr import build_lfcr, lfcr_forward
from nrsr.masks import generate_mask
from nrsr.metrics import psnr, ssim
from nrsr.netutil import param_count
from nrsr.sensors import central_channel_indices, sensitivity_tile, vectorize_tensor
from nrsr.tensor import Tensor
from nrsr.training import PatchSet, TrainConfig, build_patch_set, train_lfcr, write_log_csv
from nrsr.vdsr import build_vdsr


class Crit:
    """Times a criterion, records its summary line, enforces the budget."""

    def __init__(self, number: int, label: str, budget_s: float):
        self.number = number
        self.label = label
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        record_acceptance(
            f"criterion {self.number}: {status}  {self.label} ({elapsed:.1f}s, budget {self.budget_s:.0f}s)")
        if exc_type is None:
            assert elapsed < self.budget_s, f"criterion {self.number} exceeded budget: {elapsed:.1f}s"
        return False


def test_criterion_1_parameter_counts():
    with Crit(1, "parameter counts 3.6e5 / 6.6e5", budget_s=1.0):
        lfcr = build_lfcr(generate_mask("quarter", 0), "quarter", seed=0)
        vdsr = build_vdsr(seed=0)
        n_lfcr = param_count(lfcr)
        n_vdsr = param_count(vdsr)
        assert 3.42e5 <= n_lfcr <= 3.78e5, n_lfcr
        assert 6.27e5 <= n_vdsr <= 6.93e5, n_vdsr


def test_criterion_2_channel_geometry():
    with Crit(2, "hidden width 192, vectorizing depth 64, concat +16", budget_s=1.0):
        model = build_lfcr(generate_mask("three-quarter", 1), "three-quarter", seed=0)
        assert model.vec_kernel.shape[0] == 64
        for blk in model.blocks:
            assert blk.weights.shape[0] == 192
        assert model.deconv_weights.shape[0] == 192 + 16
        assert len(central_channel_indices()) == 16


def test_criterion_3_measurement_oracle_equivalence():
    with Crit(3, "vectorize == gather/average oracle, bit-exact on integers", budget_s=30.0):
        for kind in ("quarter", "three-quarter", "low-resolution"):
            for mask_seed in range(10):
                mask = None if kind == "low-resolution" else generate_mask(kind, mask_seed)
                tile = sensitivity_tile(mask, kind)
                for img_seed in range(10):
                    f = integer_image(1000 * mask_seed + img_seed, 16, 16)
                    # the op the LFCR runs: one (blocks, 64) row per target block
                    got = vectorize_tensor(Tensor(f[None, None]), tile).data
                    want = vectorize_oracle(f, mask, kind).reshape(64, -1).T.astype(np.float32)
                    assert np.array_equal(got, want), (kind, mask_seed, img_seed)
                if kind == "low-resolution":
                    break  # maskless: one tile covers all image seeds


def test_criterion_4_gradient_validation():
    with Crit(4, "grad_check <= 1e-4 for all ops, LFCR 16x16, VDSR depth 4", budget_s=120.0):
        results = run_standard_checks(seed=0)
        for name in ("conv2d", "deconv2d", "prelu", "mse_loss", "concat_channels",
                     "lfcr_16x16", "vdsr_depth4"):
            assert results[name] <= 1e-4, (name, results[name])


def test_criterion_5_period8_equivariance():
    with Crit(5, "toroidal (8,8) shift equivariance <= 1e-4 over 20 cases", budget_s=60.0):
        kinds = ("quarter", "three-quarter", "low-resolution")
        for case in range(20):
            kind = kinds[case % 3]
            mask = None if kind == "low-resolution" else generate_mask(kind, 50 + case)
            model = build_lfcr(mask, kind, seed=case)
            f = synth_image(500 + case, 48, 48)
            shifted = np.roll(np.roll(f, 8, axis=0), 8, axis=1)
            out_of_shifted = lfcr_forward(model, shifted)
            shifted_out = np.roll(np.roll(lfcr_forward(model, f), 8, axis=0), 8, axis=1)
            dev = np.max(np.abs(out_of_shifted[16:40, 16:40] - shifted_out[16:40, 16:40]))
            assert dev <= 1e-4, (case, kind, dev)


MICRO_OVERFIT_STEPS = 2000


def run_micro_overfit():
    """Criterion 6 recipe: 8 patches, quarter sampling, 2000 steps at lr 1e-4."""
    start = time.monotonic()
    base = smooth_image(302, 96, 96)
    offsets = [(0, 0), (0, 40), (40, 0), (40, 40), (8, 8), (16, 16), (24, 24), (32, 32)]
    patches = np.stack([base[y : y + 48, x : x + 48] for y, x in offsets])
    mask = generate_mask("quarter", 11)
    model = build_lfcr(mask, "quarter", seed=7)
    config = TrainConfig(epochs=MICRO_OVERFIT_STEPS, batch_size=64, initial_lr=1e-4,
                         lr_decay_factor=1.0, seed=3)
    result = train_lfcr(model, PatchSet(patches=patches), config)
    return model, patches, result, time.monotonic() - start


@pytest.fixture(scope="module")
def micro_overfit():
    return run_micro_overfit()


def test_criterion_6_micro_overfit(micro_overfit):
    model, patches, result, train_elapsed = micro_overfit
    with Crit(6, f"2000-step overfit (train {train_elapsed:.0f}s): "
                 "MSE < 1% of initial, PSNR > 35 dB", budget_s=900.0):
        assert train_elapsed < 900.0
        assert len(result.rows) == MICRO_OVERFIT_STEPS
        first, last = result.rows[0].loss, result.rows[-1].loss
        assert last < 0.01 * first, (first, last)
        reconstruction = lfcr_forward(model, patches)
        value = psnr(patches, reconstruction)
        assert value > 35.0, value


def test_criterion_7_metric_correctness():
    with Crit(7, "PSNR/SSIM closed forms and the 1.32 dB scaling identity", budget_s=10.0):
        a = np.zeros((16, 16))
        assert abs(psnr(a, a + 16.0) - 24.05) <= 0.01

        rng = np.random.default_rng(0)
        ref = rng.uniform(0, 255, (24, 24))
        diff = rng.uniform(-30, 30, (24, 24))
        gain = psnr(ref, ref + diff * (219.0 / 255.0)) - psnr(ref, ref + diff)
        assert abs(gain - 20 * math.log10(255.0 / 219.0)) < 1e-9
        assert round(gain, 2) == 1.32

        f = synth_image(3, 16, 16)
        assert ssim(f, f) == pytest.approx(1.0, abs=1e-12)

        c1 = (0.01 * 255) ** 2
        expected = (2 * 100 * 110 + c1) / (100**2 + 110**2 + c1)
        got = ssim(np.full((16, 16), 100.0), np.full((16, 16), 110.0))
        assert abs(got - expected) <= 1e-9


@pytest.mark.informational
@pytest.mark.skipif(os.environ.get("NRSR_RUN_INFORMATIONAL") != "1",
                    reason="informational experiment; set NRSR_RUN_INFORMATIONAL=1 to run")
def test_criterion_8_three_quarter_beats_quarter():
    with Crit(8, "TQS holdout PSNR >= QS after 5 epochs on 30 images", budget_s=3 * 3600.0):
        train_images = [synth_image(800 + i, 96, 96) for i in range(30)]
        holdout = np.stack([synth_image(900 + i, 96, 96) for i in range(10)])
        config = TrainConfig(epochs=5, batch_size=64, seed=1)
        scores = {}
        for kind in ("three-quarter", "quarter"):
            mask = generate_mask(kind, 4)
            model = build_lfcr(mask, kind, seed=2)
            patch_set = build_patch_set(train_images, config)
            train_lfcr(model, patch_set, config)
            recon = lfcr_forward(model, holdout)
            scores[kind] = float(np.mean([psnr(h, r) for h, r in zip(holdout, recon)]))
        record_acceptance(
            f"criterion 8 detail: TQS {scores['three-quarter']:.2f} dB vs QS {scores['quarter']:.2f} dB")
        assert scores["three-quarter"] >= scores["quarter"], scores


def test_criterion_9_determinism(micro_overfit, tmp_path):
    _, _, first_run, first_elapsed = micro_overfit
    with Crit(9, "criterion-6 reruns produce bit-identical loss logs", budget_s=1800.0):
        _, _, second_run, second_elapsed = run_micro_overfit()
        assert first_elapsed + second_elapsed < 1800.0
        losses_a = [r.loss for r in first_run.rows]
        losses_b = [r.loss for r in second_run.rows]
        assert losses_a == losses_b
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_log_csv(pa, first_run.rows)
        write_log_csv(pb, second_run.rows)
        assert pa.read_bytes() == pb.read_bytes()
