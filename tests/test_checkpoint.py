"""NRSR1 checkpoint container round trips."""

import re
import struct
from dataclasses import replace

import numpy as np
import pytest

from conftest import synth_image
from nrsr.checkpoint import (MAGIC, CheckpointError, load_checkpoint, read_records,
                             save_checkpoint, write_records)
from nrsr import lfcr, vdsr
from nrsr.lfcr import build_lfcr, lfcr_forward
from nrsr.masks import generate_mask
from nrsr.optim import AdamState
from nrsr.vdsr import build_vdsr, vdsr_forward


def test_record_round_trip(tmp_path):
    path = tmp_path / "r.nrsr"
    rng = np.random.default_rng(0)
    records = {
        "a/weights": rng.standard_normal((2, 3, 4, 5)).astype(np.float32),
        "b/bias": rng.standard_normal(7).astype(np.float32),
        "scalar": np.float32(3.25),
    }
    write_records(path, records)
    assert path.read_bytes()[:5] == MAGIC
    back = read_records(path)
    assert set(back) == set(records)
    for name in records:
        assert np.array_equal(back[name], np.asarray(records[name], dtype=np.float32))
        assert back[name].shape == np.asarray(records[name]).shape


def test_model_round_trip_bit_exact_forward(tmp_path):
    mask = generate_mask("three-quarter", 5)
    model = build_lfcr(mask, "three-quarter", seed=2)
    vdsr = build_vdsr(seed=3)
    path = tmp_path / "m.nrsr"
    save_checkpoint(path, lfcr=model, vdsr=vdsr, epoch=4, phase="vdsr")
    ck = load_checkpoint(path)
    assert ck.lfcr.sensor_kind == "three-quarter"
    assert ck.epoch == 4 and ck.phase == "vdsr"
    assert np.array_equal(ck.lfcr.mask.pattern, mask.pattern)
    assert ck.lfcr.mask.seed == 5

    f = synth_image(0, 32, 32)
    assert np.array_equal(lfcr_forward(ck.lfcr, f), lfcr_forward(model, f))
    r1, _ = vdsr_forward(ck.vdsr, f)
    r2, _ = vdsr_forward(vdsr, f)
    assert np.array_equal(r1, r2)


def test_layer_names_match_convention(tmp_path):
    model = build_lfcr(generate_mask("quarter", 0), "quarter", seed=0)
    vdsr = build_vdsr(seed=0)
    path = tmp_path / "names.nrsr"
    save_checkpoint(path, lfcr=model, vdsr=vdsr)
    names = set(read_records(path))
    assert "lfcr/vec/weights" in names
    for i in range(10):
        assert f"lfcr/fc{i:02d}/weights" in names
    assert "lfcr/deconv/weights" in names and "lfcr/deconv/bias" in names
    assert "vdsr/conv01/weights" in names and "vdsr/conv20/weights" in names
    assert "vdsr/conv20/slopes" not in names


def test_optimizer_state_round_trip(tmp_path):
    model = build_lfcr(generate_mask("quarter", 1), "quarter", seed=1)
    params = model.named_parameters()
    state = AdamState.for_params(params)
    rng = np.random.default_rng(0)
    state.step = 17
    for name, p in params:
        state.m[name] = rng.standard_normal(p.data.shape).astype(np.float32)
        state.v[name] = rng.uniform(0, 1, p.data.shape).astype(np.float32)
    path = tmp_path / "opt.nrsr"
    save_checkpoint(path, lfcr=model, adam=state, epoch=2, phase="lfcr")
    ck = load_checkpoint(path)
    assert ck.adam is not None and ck.adam.step == 17
    for name, _ in params:
        assert np.array_equal(ck.adam.m[name], state.m[name])
        assert np.array_equal(ck.adam.v[name], state.v[name])


def test_low_resolution_checkpoint_has_no_mask(tmp_path):
    model = build_lfcr(None, "low-resolution", seed=0)
    path = tmp_path / "lr.nrsr"
    save_checkpoint(path, lfcr=model)
    ck = load_checkpoint(path)
    assert ck.lfcr.sensor_kind == "low-resolution"
    assert ck.lfcr.mask is None
    assert ck.lfcr is not None


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.nrsr"
    path.write_bytes(b"XXXXX" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        read_records(path)


def test_truncation_rejected(tmp_path):
    path = tmp_path / "trunc.nrsr"
    write_records(path, {"w": np.ones((4, 4), dtype=np.float32)})
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(CheckpointError, match="truncated"):
        read_records(path)


def test_huge_dims_read_as_truncated_not_wrapped(tmp_path):
    # 2**31 * 2**31 * 4 entries wrap to 0 in int64; the reader must ask for them all
    path = tmp_path / "huge.nrsr"
    name = b"vdsr/conv01/weights"
    path.write_bytes(MAGIC + struct.pack("<IH", 1, len(name)) + name
                     + struct.pack("<B3I", 3, 2**31, 2**31, 4) + b"\x00" * 16)
    with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: truncated checkpoint$"):
        read_records(path)


def test_failed_write_leaves_the_older_file_and_no_temporary(tmp_path):
    path = tmp_path / "lfcr-epoch0002.nrsr"
    # the second record cannot convert to float32, after the first is written
    bad = {"w": np.ones(3, dtype=np.float32), "x": "not a number"}
    with pytest.raises(ValueError):
        write_records(path, bad)
    assert list(tmp_path.iterdir()) == []
    write_records(path, {"w": np.full(3, 2.0, dtype=np.float32)})
    before = path.read_bytes()
    with pytest.raises(ValueError):
        write_records(path, bad)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_repeated_record_rejected(tmp_path):
    def record_bytes(name, arr):  # one record as write_records encodes it
        one = tmp_path / "one.nrsr"
        write_records(one, {name: arr})
        return one.read_bytes()[len(MAGIC) + 4:]

    path = tmp_path / "vdsr.nrsr"
    save_checkpoint(path, vdsr=build_vdsr(seed=0, depth=3))
    records = read_records(path)
    name = "vdsr/conv01/weights"
    body = b"".join(record_bytes(n, a) for n, a in
                    [(name, np.full_like(records[name], 7)), *records.items()])
    path.write_bytes(MAGIC + struct.pack("<I", len(records) + 1) + body)
    with pytest.raises(CheckpointError,
                       match=f"^{re.escape(str(path))}: repeated record '{name}'$"):
        load_checkpoint(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "trail.nrsr"
    write_records(path, {"w": np.ones(3, dtype=np.float32)})
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(CheckpointError, match="trailing"):
        read_records(path)


def test_missing_lfcr_layer_detected(tmp_path):
    model = build_lfcr(generate_mask("quarter", 0), "quarter", seed=0)
    path = tmp_path / "partial.nrsr"
    save_checkpoint(path, lfcr=model)
    records = read_records(path)
    del records["lfcr/fc03/bias"]
    write_records(path, records)
    with pytest.raises(CheckpointError, match="missing record 'lfcr/fc03/bias'"):
        load_checkpoint(path)


@pytest.mark.parametrize("name,shape", [
    ("lfcr/fc00/weights", (192, 100, 1, 1)),
    ("lfcr/fc05/weights", (192, 100, 1, 1)),
    ("lfcr/fc09/weights", (192, 192)),
    ("lfcr/fc03/bias", (191,)),
    ("lfcr/fc07/slopes", (192, 1)),
    ("lfcr/deconv/weights", (208, 2, 8, 8)),
    ("lfcr/deconv/weights", (192, 1, 8, 8)),
    ("lfcr/deconv/bias", (2,)),
    ("lfcr/vec/weights", (64, 1, 8, 8)),
])
def test_lfcr_layer_shapes_checked_on_load(tmp_path, name, shape):
    path = tmp_path / "shapes.nrsr"
    save_checkpoint(path, lfcr=build_lfcr(generate_mask("quarter", 0), "quarter", seed=0))
    records = read_records(path)
    records[name] = np.zeros(shape, dtype=np.float32)
    write_records(path, records)
    with pytest.raises(CheckpointError, match=name):
        load_checkpoint(path)


@pytest.mark.parametrize("name,shape", [
    ("vdsr/conv03/weights", (64, 32, 3, 3)),   # does not chain from conv02's 64 outputs
    ("vdsr/conv01/weights", (64, 2, 3, 3)),    # input is one channel
    ("vdsr/conv02/weights", (64, 64, 3, 5)),   # kernels are square
    ("vdsr/conv02/weights", (64, 64, 2, 2)),   # and odd
    ("vdsr/conv04/weights", (2, 64, 3, 3)),    # output is one channel
    ("vdsr/conv02/bias", (32,)),
    ("vdsr/conv03/slopes", (64, 1)),
])
def test_vdsr_layer_shapes_checked_on_load(tmp_path, name, shape):
    path = tmp_path / "shapes.nrsr"
    save_checkpoint(path, vdsr=build_vdsr(seed=0, depth=4))
    assert load_checkpoint(path).vdsr.depth == 4  # reduced depths load
    records = read_records(path)
    records[name] = np.zeros(shape, dtype=np.float32)
    write_records(path, records)
    with pytest.raises(CheckpointError, match=name):
        load_checkpoint(path)


@pytest.mark.parametrize("prefix,model,table", [
    ("lfcr/", lambda: build_lfcr(generate_mask("quarter", 0), "quarter", seed=0),
     lfcr.parameter_shapes()),
    ("vdsr/", lambda: build_vdsr(seed=0, depth=2), vdsr.parameter_shapes(2)),
    ("vdsr/", lambda: build_vdsr(seed=0, depth=4), vdsr.parameter_shapes(4)),
    ("vdsr/", lambda: build_vdsr(seed=0, depth=20), vdsr.parameter_shapes(20)),
])
def test_named_parameters_follow_the_table_in_saved_order(tmp_path, prefix, model, table):
    model = model()
    named = [(name, p.shape) for name, p in model.named_parameters()]
    assert named == list(table.items())
    path = tmp_path / "order.nrsr"
    save_checkpoint(path, **{prefix[:-1]: model})
    saved = [(name, arr.shape) for name, arr in read_records(path).items()
             if name.startswith(prefix) and name != "lfcr/vec/weights"]
    assert saved == named


@pytest.mark.parametrize("name,model,rebuild,table", [
    ("lfcr", lambda: build_lfcr(generate_mask("quarter", 0), "quarter", seed=0),
     lambda m, params: lfcr.LfcrModel(m.sensor_kind, m.mask, params), lfcr.parameter_shapes()),
    ("vdsr", lambda: build_vdsr(seed=0, depth=4),
     lambda m, params: vdsr.VdsrModel(params), vdsr.parameter_shapes(4)),
])
def test_parameters_given_in_reverse_order_are_held_in_table_order(tmp_path, name, model,
                                                                   rebuild, table):
    model = model()
    rebuilt = rebuild(model, dict(reversed(model.named_parameters())))
    assert [n for n, _ in rebuilt.named_parameters()] == list(table)
    save_checkpoint(tmp_path / "table.nrsr", **{name: model})
    save_checkpoint(tmp_path / "reverse.nrsr", **{name: rebuilt})
    assert (tmp_path / "reverse.nrsr").read_bytes() == (tmp_path / "table.nrsr").read_bytes()


@pytest.mark.parametrize("width,kernel", [(32, 3), (64, 5)])
def test_vdsr_loads_only_the_pipeline_widths_and_kernels(tmp_path, width, kernel):
    # a consistent 4-layer chain, but not the table's 64-wide 3x3 layers
    widths = [1, width, width, width, 1]
    records = {}
    for i in range(1, 5):
        records[f"vdsr/conv{i:02d}/weights"] = np.zeros((widths[i], widths[i - 1], kernel, kernel),
                                                        dtype=np.float32)
        records[f"vdsr/conv{i:02d}/bias"] = np.zeros(widths[i], dtype=np.float32)
        if i < 4:
            records[f"vdsr/conv{i:02d}/slopes"] = np.zeros(widths[i], dtype=np.float32)
    path = tmp_path / "narrow.nrsr"
    write_records(path, records)
    with pytest.raises(CheckpointError, match="^vdsr/conv01/weights has shape"):
        load_checkpoint(path)


def test_optimizer_state_needs_the_model_of_its_phase(tmp_path):
    model = build_lfcr(generate_mask("quarter", 1), "quarter", seed=1)
    path = tmp_path / "opt.nrsr"
    save_checkpoint(path, lfcr=model, adam=AdamState.for_params(model.named_parameters()),
                    epoch=1, phase="vdsr")
    with pytest.raises(CheckpointError, match="opt/"):
        load_checkpoint(path)


@pytest.mark.parametrize("kind", ["quarter", "three-quarter", "low-resolution"])
@pytest.mark.parametrize("phase", [None, "lfcr", "vdsr"])
def test_every_saved_file_loads(tmp_path, kind, phase):
    # loading rejects unnamed records, so every record save_checkpoint writes must be named
    mask = None if kind == "low-resolution" else generate_mask(kind, 3)
    models = {"lfcr": build_lfcr(mask, kind, seed=1), "vdsr": build_vdsr(seed=2)}
    adam = None if phase is None else AdamState.for_params(models[phase].named_parameters())
    path = tmp_path / "all.nrsr"
    save_checkpoint(path, **models, adam=adam, epoch=3, phase=phase)
    ck = load_checkpoint(path)
    assert ck.lfcr.sensor_kind == kind and ck.vdsr.depth == 20
    assert (ck.adam is None) == (phase is None)
    for name, model in models.items():
        save_checkpoint(path, **{name: model})
        assert getattr(load_checkpoint(path), name) is not None
    # save -> load -> save writes the same bytes, whatever the mask's seed
    for seed in (3, -5, "external", "tag7", 16777217):
        seeded = None if mask is None else replace(mask, seed=seed)
        models["lfcr"] = build_lfcr(seeded, kind, seed=1)
        save_checkpoint(path, **models, adam=adam, epoch=3, phase=phase)
        ck = load_checkpoint(path)
        again = tmp_path / "again.nrsr"
        save_checkpoint(again, lfcr=ck.lfcr, vdsr=ck.vdsr, adam=ck.adam, epoch=ck.epoch,
                        phase=ck.phase)
        assert again.read_bytes() == path.read_bytes(), seed


@pytest.mark.parametrize("seed,loaded", [(16777216, 16777216), (2**25, 2**25), (-16777216, -16777216),
                                         (16777217, "external"), (-16777217, "external"),
                                         pytest.param(10**40, "external", id="1e40")])
def test_mask_seed_float32_cannot_hold_loads_as_a_tag(tmp_path, seed, loaded):
    # meta/mask_seed is a float32 record, exact for integers of 24 significant bits
    path = tmp_path / "seed.nrsr"
    mask = replace(generate_mask("quarter", 3), seed=seed)
    save_checkpoint(path, lfcr=build_lfcr(mask, "quarter", seed=1))
    ck = load_checkpoint(path)
    assert ck.lfcr.mask.seed == loaded and np.array_equal(ck.lfcr.mask.pattern, mask.pattern)


def test_low_resolution_checkpoint_with_a_mask_pattern_rejected(tmp_path):
    path = tmp_path / "lr.nrsr"
    save_checkpoint(path, lfcr=build_lfcr(None, "low-resolution", seed=0))
    records = read_records(path)
    records["meta/mask_pattern"] = generate_mask("quarter", 0).pattern.astype(np.float32)
    write_records(path, records)
    with pytest.raises(CheckpointError, match="^unexpected record 'meta/mask_pattern'"):
        load_checkpoint(path)
