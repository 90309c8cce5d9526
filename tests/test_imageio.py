"""PGM/PPM parsing and the raw-float sidecar format."""

import builtins
import gc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import synth_image_u8
from nrsr import cli
from nrsr.checkpoint import write_records
from nrsr.imageio import ImageFormatError, load_raw, read_image_gray, save_raw, write_pgm
from nrsr.masks import generate_mask, save_mask
from nrsr.metrics import to_grayscale
from nrsr.training import LogRow, TrainConfig, save_config, write_log_csv


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


def run_command(*argv):
    """A CLI command's handler on ``argv``; unlike ``cli.main`` it lets an OSError through."""
    args = cli.build_parser().parse_args([str(a) for a in argv])
    args.func(args)


def dataset(root: Path) -> Path:
    data = root / "data"
    data.mkdir(exist_ok=True)
    write_pgm(data / "a.pgm", synth_image_u8(1, 16, 16))
    return data


# every writer of an output file: (file it writes, call that writes version n of it)
WRITERS = {
    "write_pgm": ("img.pgm", lambda root, n: write_pgm(root / "img.pgm", synth_image_u8(n, 8, 8))),
    "save_raw.f32": ("s.f32", lambda root, n: save_raw(root / "s", np.full(4, n), {"n": n})),
    "save_raw.json": ("s.json", lambda root, n: save_raw(root / "s", np.full(4, n), {"n": n})),
    "save_config": ("c.txt", lambda root, n: save_config(TrainConfig(seed=n), root / "c.txt")),
    "save_mask": ("m.nrsmask", lambda root, n: save_mask(generate_mask("quarter", n),
                                                          root / "m.nrsmask")),
    "write_records": ("r.nrsr", lambda root, n: write_records(root / "r.nrsr",
                                                              {"w": np.full(3, n)})),
    "write_log_csv": ("log.csv", lambda root, n: write_log_csv(root / "log.csv",
                                                               [LogRow(1, 1, 0.1, n)] * (n + 1))),
    "evaluate --out": ("e.csv", lambda root, n: run_command(
        "evaluate", "--dataset", dataset(root), "--methods", ("bicubic", "bicubic,lfcr")[n],
        "--out", root / "e.csv")),
    "evaluate --summary": ("e.json", lambda root, n: run_command(
        "evaluate", "--dataset", dataset(root), "--methods", ("bicubic", "bicubic,lfcr")[n],
        "--summary", root / "e.json")),
    "curves --out": ("k.csv", lambda root, n: run_command(
        "curves", "--dataset", dataset(root), "--factors", ("1", "1,4")[n],
        "--checkpoint-pattern", root / "f{factor}.nrsr", "--out", root / "k.csv")),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_a_write_that_fails_halfway_keeps_the_older_file(tmp_path, monkeypatch, capsys, writer):
    name, write = WRITERS[writer]
    write(tmp_path, 0)
    before = (tmp_path / name).read_bytes()
    real_open = builtins.open

    class HalfThenFail:
        """A file whose first write stores half of its data, then raises."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def __getattr__(self, attr):
            return getattr(self.fh, attr)

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise OSError("disk full")

    def opener(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return HalfThenFail(fh) if "w" in mode and Path(file).name.startswith(name) else fh

    with monkeypatch.context() as patched:
        patched.setattr(builtins, "open", opener)
        with pytest.raises(OSError, match="disk full"):
            write(tmp_path, 1)
    assert (tmp_path / name).read_bytes() == before
    assert not list(tmp_path.rglob("*.tmp"))
    write(tmp_path, 1)  # the second version differs from the first
    assert (tmp_path / name).read_bytes() != before
