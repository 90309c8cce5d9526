"""Dataset evaluation reports."""

import math

import numpy as np
import pytest

from conftest import synth_image_u8
from nrsr.evaluate import EvalReport, evaluate, pad_to_multiple, reconstruct_image
from nrsr.imageio import write_pgm
from nrsr.lfcr import build_lfcr
from nrsr.masks import generate_mask
from nrsr.vdsr import build_vdsr


@pytest.fixture
def dataset(tmp_path):
    d = tmp_path / "data"
    d.mkdir()
    for i, (h, w) in enumerate([(48, 48), (50, 35), (64, 48)]):
        write_pgm(d / f"img{i}.pgm", synth_image_u8(i, h, w))
    return d


def test_reference_method_perfect_scores(dataset):
    rep = evaluate("reference", dataset)
    assert len(rep.rows) == 3
    assert all(math.isinf(r.psnr_db) for r in rep.rows)
    assert all(abs(r.ssim - 1.0) < 1e-12 for r in rep.rows)


def test_row_count_matches_images_and_order(dataset):
    rep = evaluate("bicubic", dataset)
    assert [r.image for r in rep.rows] == ["img0.pgm", "img1.pgm", "img2.pgm"]
    assert rep.sensor == "low-resolution"
    assert rep.runtime_s > 0


def test_bicubic_reasonable_quality(dataset):
    rep = evaluate("bicubic", dataset)
    assert all(r.psnr_db > 20 for r in rep.rows)
    assert all(0 < r.ssim <= 1 for r in rep.rows)


def test_unreadable_file_skipped(dataset):
    (dataset / "broken.pgm").write_bytes(b"P5\n9 9\n255\nshort")
    rep = evaluate("bicubic", dataset)
    assert len(rep.rows) == 3
    assert len(rep.skipped) == 1 and "broken.pgm" in rep.skipped[0]


@pytest.mark.parametrize("method", ["bicubic", "lfcr"])
def test_image_too_small_to_score_skipped(dataset, method):
    write_pgm(dataset / "tiny.pgm", synth_image_u8(5, 8, 10))
    lfcr = build_lfcr(generate_mask("quarter", 0), "quarter", seed=0)
    rep = evaluate(method, dataset, lfcr=lfcr)
    assert [r.image for r in rep.rows] == ["img0.pgm", "img1.pgm", "img2.pgm"]
    assert rep.skipped == ["tiny.pgm: 8x10 is smaller than the 11x11 SSIM window"]


def test_csv_deterministic_and_inf_serialization(dataset):
    a = evaluate("reference", dataset).to_csv()
    b = evaluate("reference", dataset).to_csv()
    assert a == b
    lines = a.splitlines()
    assert lines[0] == "image,method,sensor,psnr_db,ssim"
    assert lines[1].split(",")[3] == "inf"


def test_summary_json_round_trips(dataset):
    import json

    summary = evaluate("bicubic", dataset).summary()
    assert summary["images"] == 3
    assert isinstance(summary["mean_psnr_db"], float)
    ref = evaluate("reference", dataset).summary()
    assert ref["mean_psnr_db"] == "inf"
    for s in (summary, ref):
        assert json.loads(json.dumps(s)) == s


def test_padding_round_trip_preserves_dims():
    f = synth_image_u8(9, 50, 35).astype(np.float32)
    padded, dims = pad_to_multiple(f)
    assert padded.shape == (64, 48)
    assert dims == (50, 35)
    assert np.array_equal(padded[:50, :35], f)
    # bottom/right padding only: the mask phase at (0,0) is untouched
    mask = generate_mask("quarter", 0)
    model = build_lfcr(mask, "quarter", seed=0)
    out = reconstruct_image(f, "lfcr", lfcr=model)
    assert out.shape == (50, 35)


def test_lfcr_methods_require_models(dataset):
    with pytest.raises(ValueError, match="needs an LFCR"):
        reconstruct_image(np.zeros((16, 16), dtype=np.float32), "lfcr")
    model = build_lfcr(generate_mask("quarter", 0), "quarter", seed=0)
    with pytest.raises(ValueError, match="needs a VDSR"):
        reconstruct_image(np.zeros((16, 16), dtype=np.float32), "lfcr+vdsr", lfcr=model)
    with pytest.raises(ValueError, match="unknown method"):
        reconstruct_image(np.zeros((16, 16), dtype=np.float32), "fsr")


def test_full_pipeline_runs(dataset):
    mask = generate_mask("three-quarter", 1)
    model = build_lfcr(mask, "three-quarter", seed=0)
    vdsr = build_vdsr(seed=0)
    for _, p in vdsr.named_parameters():
        p.data[:] = 0.0  # identity enhancer: scores must match LFCR-only
    rep_l = evaluate("lfcr", dataset, lfcr=model)
    rep_f = evaluate("lfcr+vdsr", dataset, lfcr=model, vdsr=vdsr)
    for a, b in zip(rep_l.rows, rep_f.rows):
        assert a.psnr_db == pytest.approx(b.psnr_db, abs=1e-9)
    assert rep_l.sensor == "three-quarter"


def test_empty_report_means_are_nan():
    rep = EvalReport(method="bicubic", sensor="low-resolution")
    assert math.isnan(rep.mean_psnr) and math.isnan(rep.mean_ssim)


def test_empty_report_summary_is_strict_json():
    # a NaN mean would serialize as NaN, which is not JSON
    import json

    summary = EvalReport(method="bicubic", sensor="low-resolution").summary()
    assert summary["mean_psnr_db"] is None and summary["mean_ssim"] is None
    json.dumps(summary, allow_nan=False)
