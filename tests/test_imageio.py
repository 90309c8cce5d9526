"""PGM/PPM parsing and the raw-float sidecar format."""

import gc
import warnings

import numpy as np
import pytest

from conftest import synth_image_u8
from nrsr.imageio import ImageFormatError, load_raw, read_image_gray, save_raw, write_pgm
from nrsr.metrics import to_grayscale


def test_pgm_round_trip(tmp_path):
    img = synth_image_u8(0, 24, 31)
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    back = read_image_gray(path)
    assert back.dtype == np.uint8
    assert np.array_equal(back, img)


def test_pgm_float_input_clipped_and_rounded(tmp_path):
    path = tmp_path / "f.pgm"
    write_pgm(path, np.array([[-3.2, 99.6], [260.0, 0.4]]))
    back = read_image_gray(path)
    assert back.dtype == np.uint8
    assert np.array_equal(back, np.array([[0, 100], [255, 0]], dtype=np.uint8))


def test_pgm_header_comments(tmp_path):
    img = synth_image_u8(1, 5, 7)
    path = tmp_path / "c.pgm"
    raw = b"P5\n# a comment\n7 5\n# another\n255\n" + img.tobytes()
    path.write_bytes(raw)
    assert np.array_equal(read_image_gray(path), img)


def test_ppm_read_and_grayscale(tmp_path):
    # three different channels, so a reader that swapped them would not match
    rgb = np.stack([synth_image_u8(seed, 3, 4) for seed in (2, 3, 4)], axis=-1)
    assert len({rgb[..., c].tobytes() for c in range(3)}) == 3
    path = tmp_path / "rgb.ppm"
    path.write_bytes(b"P6\n4 3\n255\n" + rgb.tobytes())
    assert np.array_equal(read_image_gray(path), to_grayscale(rgb))


@pytest.mark.parametrize("magic", [b"P5", b"P6", b"P2"])
def test_read_image_gray_closes_its_file(tmp_path, magic):
    path = tmp_path / "x.img"
    path.write_bytes(magic + b"\n1 1\n255\n" + b"\x80" * (3 if magic == b"P6" else 1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        try:
            read_image_gray(path)
        except ImageFormatError:
            assert magic == b"P2"
        gc.collect()
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


@pytest.mark.parametrize("magic", [b"P5", b"P6"])
def test_read_image_gray_opens_its_file_once(tmp_path, monkeypatch, magic):
    import builtins
    import io

    path = tmp_path / "x.img"
    path.write_bytes(magic + b"\n2 1\n255\n" + b"\x80" * (6 if magic == b"P6" else 2))
    opened = []

    def counting_open(file, *args, _open=io.open, **kwargs):
        opened.append(str(file))
        return _open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    image = read_image_gray(path)
    assert image.shape == (1, 2)
    assert opened == [str(path)]


def test_wrong_magic_rejected(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P2\n2 2\n255\n....")
    with pytest.raises(ImageFormatError, match="unsupported"):
        read_image_gray(path)


def test_truncated_raster_rejected(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 7)
    with pytest.raises(ImageFormatError, match="truncated"):
        read_image_gray(path)


def test_unsupported_maxval_rejected(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
    with pytest.raises(ImageFormatError, match="maxval"):
        read_image_gray(path)


def test_raw_sidecar_round_trip(tmp_path):
    values = np.random.default_rng(0).uniform(0, 255, (6, 9)).astype(np.float32)
    meta = {"sensor": "three-quarter", "mask": "m.nrsmask"}
    raw, sidecar = save_raw(tmp_path / "out", values, meta)
    assert raw.suffix == ".f32" and sidecar.suffix == ".json"
    back, loaded_meta = load_raw(tmp_path / "out")
    assert np.array_equal(back, values)
    assert loaded_meta["sensor"] == "three-quarter"
    assert loaded_meta["shape"] == [6, 9]
    assert loaded_meta["dtype"] == "float32"
