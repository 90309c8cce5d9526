"""Mutated input files: every run ends in exit 0 with finite output, or exit 2/3 in one line.

Each parser gets seeded truncate/overwrite/insert/delete mutations of a
valid file, run in-process through the command that reads it: an NRSR1
checkpoint through `nrsr reconstruct --stage lfcr`, and an NRSMASK file
and a P5 and a P6 image through `nrsr sample`. The key=value training
config and the CSV training log are fed to their parsers directly,
since a mutated but valid config can ask `nrsr train` for any number of
epochs; each of those ends in a return or in a ValueError, which
`nrsr` turns into exit 2.
"""

import struct

import numpy as np
import pytest

from conftest import synth_image_u8
from nrsr import cli
from nrsr.checkpoint import save_checkpoint
from nrsr.imageio import load_raw, write_pgm
from nrsr.lfcr import build_lfcr
from nrsr.masks import generate_mask, save_mask
from nrsr.training import LogRow, TrainConfig, load_config, read_log_csv, save_config, write_log_csv

MUTATIONS = 200


def mutate(data: bytes, rng, lo: int, hi: int) -> bytes:
    """One truncate, overwrite, insert or delete of 1-8 bytes at a position in [lo, hi)."""
    pos = int(rng.integers(lo, hi))
    span = int(rng.integers(1, 9))
    junk = rng.integers(0, 256, span, dtype=np.uint8).tobytes()
    kind = rng.integers(4)
    if kind == 0:
        return data[:pos]
    if kind == 1:
        return data[:pos] + junk + data[pos + span :]
    if kind == 2:
        return data[:pos] + junk + data[pos:]
    return data[:pos] + data[pos + span :]


def record_headers(data: bytes) -> list[tuple[int, int]]:
    """(start, end) byte ranges of the count field and every record header of an NRSR1 file."""
    (count,) = struct.unpack_from("<I", data, 5)
    spans, off = [(0, 9)], 9
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", data, off)
        ndim = data[off + 2 + name_len]
        dims = struct.unpack_from(f"<{ndim}I", data, off + 3 + name_len)
        end = off + 3 + name_len + 4 * ndim
        spans.append((off, end))
        off = end + 4 * int(np.prod(dims))
    return spans


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    mask = generate_mask("quarter", 7)
    save_mask(mask, root / "mask.nrsmask")
    save_checkpoint(root / "lfcr.nrsr", lfcr=build_lfcr(mask, "quarter", seed=0))
    write_pgm(root / "image.pgm", synth_image_u8(3, 16, 24))
    rgb = np.stack([synth_image_u8(s, 16, 24) for s in (4, 5, 6)], axis=-1)
    (root / "image.ppm").write_bytes(b"P6\n24 16\n255\n" + rgb.tobytes())
    save_config(TrainConfig(), root / "config.txt")
    write_log_csv(root / "log.csv", [LogRow(e, 3 * e, 1e-4 / e, 0.5 / e) for e in range(1, 6)])
    return root


def check_run(argv, out_base, capsys) -> int:
    """Run ``nrsr argv`` and check how it ended; returns the exit code."""
    for suffix in (".f32", ".json"):
        out_base.with_suffix(suffix).unlink(missing_ok=True)
    code = cli.main([str(a) for a in argv])
    err = capsys.readouterr().err
    if code == 0:
        assert np.isfinite(load_raw(out_base)[0]).all()
    else:
        assert code in (2, 3), err
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert "Traceback" not in err
    return code


def fuzz(original: bytes, spans, run, seed: int) -> dict[int, int]:
    """Exit-code counts over MUTATIONS mutations, half of them inside ``spans``."""
    rng = np.random.default_rng(seed)
    codes: dict[int, int] = {}
    for i in range(MUTATIONS):
        lo, hi = spans[rng.integers(len(spans))] if i % 2 else (0, len(original))
        code = run(mutate(original, rng, lo, hi))
        codes[code] = codes.get(code, 0) + 1
    return codes


def parse_run(parse, path):
    """A ``fuzz`` run of ``parse`` on the mutated bytes: 0 if it returns, 2 on a ValueError."""

    def run(data):
        path.write_bytes(data)
        try:
            parse(path)
        except ValueError:
            return 2
        return 0

    return run


@pytest.fixture(autouse=True)
def _no_thread_env(monkeypatch):
    monkeypatch.delenv("NRSR_THREADS", raising=False)


def test_mutated_checkpoints(inputs, tmp_path, capsys):
    original = (inputs / "lfcr.nrsr").read_bytes()
    bad, out = tmp_path / "bad.nrsr", tmp_path / "out"

    def run(data):
        bad.write_bytes(data)
        return check_run(["reconstruct", "--sensor", "quarter", "--mask", inputs / "mask.nrsmask",
                          "--checkpoint", bad, "--in", inputs / "image.pgm", "--stage", "lfcr",
                          "--out", out.with_suffix(".f32")], out, capsys)

    codes = fuzz(original, record_headers(original), run, seed=1601)
    assert codes.get(2, 0) > MUTATIONS // 2  # most mutations must be caught, not just survived


def test_mutated_masks(inputs, tmp_path, capsys):
    original = (inputs / "mask.nrsmask").read_bytes()
    bad, out = tmp_path / "bad.nrsmask", tmp_path / "out"

    def run(data):
        bad.write_bytes(data)
        return check_run(["sample", "--sensor", "quarter", "--mask", bad,
                          "--in", inputs / "image.pgm", "--out", out], out, capsys)

    codes = fuzz(original, [(0, original.index(b"\n"))], run, seed=1602)
    assert codes.get(2, 0) > MUTATIONS // 2


def test_mutated_images(inputs, tmp_path, capsys):
    original = (inputs / "image.pgm").read_bytes()
    bad, out = tmp_path / "bad.pgm", tmp_path / "out"

    def run(data):
        bad.write_bytes(data)
        return check_run(["sample", "--sensor", "quarter", "--mask", inputs / "mask.nrsmask",
                          "--in", bad, "--out", out], out, capsys)

    header_end = len(b"P5\n24 16\n255\n")
    codes = fuzz(original, [(0, header_end)], run, seed=1603)
    assert codes.get(0, 0) > 0 and codes.get(2, 0) > 0


def test_mutated_color_images(inputs, tmp_path, capsys):
    original = (inputs / "image.ppm").read_bytes()
    bad, out = tmp_path / "bad.ppm", tmp_path / "out"

    def run(data):
        bad.write_bytes(data)
        return check_run(["sample", "--sensor", "quarter", "--mask", inputs / "mask.nrsmask",
                          "--in", bad, "--out", out], out, capsys)

    codes = fuzz(original, [(0, len(b"P6\n24 16\n255\n"))], run, seed=1701)
    assert codes.get(0, 0) > 0 and codes.get(2, 0) > 0


def test_mutated_configs(inputs, tmp_path):
    original = (inputs / "config.txt").read_bytes()
    # the values, where a mutation is most likely to leave a line that still parses
    spans, off = [], 0
    for line in original.splitlines(keepends=True):
        spans.append((off + line.index(b"=") + 1, off + len(line)))
        off += len(line)
    codes = fuzz(original, spans, parse_run(load_config, tmp_path / "bad.txt"), seed=1702)
    assert codes.get(0, 0) > 0 and codes.get(2, 0) > 0


def test_mutated_logs(inputs, tmp_path):
    original = (inputs / "log.csv").read_bytes()
    codes = fuzz(original, [(0, original.index(b"\n"))],
                 parse_run(read_log_csv, tmp_path / "bad.csv"), seed=1703)
    assert codes.get(0, 0) > 0 and codes.get(2, 0) > 0
