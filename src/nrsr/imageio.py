"""The image reader and writer plus the raw-float sidecar format.

Grayscale images travel as binary P5 PGM with maxval 255 and round-trip
losslessly. Color inputs (binary P6 PPM) are accepted for reading only.
Every image is read through ``read_image_gray``, which returns a PGM as
its uint8 raster and a PPM as float luma.
Sampled sensor outputs are stored as raw little-endian 32-bit floats
next to a JSON sidecar describing dims, sensor kind and mask reference.
``write_whole`` writes a file whole or not at all; every file the
package writes goes through it.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class ImageFormatError(ValueError):
    """Raised for unreadable or unsupported image files."""


@contextmanager
def write_whole(path: str | Path, mode: str, newline: str | None = None):
    """Open ``<path>.tmp`` for writing in ``mode``, then rename it onto ``path``.

    The file streams to disk as it is written. ``path`` holds the old
    file until the block ends, and the new one in whole after; a block
    that raises leaves the old file and no temporary.
    """
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # gone after a rename; a partial file after an error


def _read_header_tokens(data: bytes, count: int, path: str | Path) -> tuple[list[int], int]:
    """Parse `count` whitespace-separated integer tokens after the magic, skipping comments."""
    tokens: list[int] = []
    i = 2  # past magic
    while len(tokens) < count:
        if i >= len(data):
            raise ImageFormatError(f"{path}: truncated header")
        c = data[i : i + 1]
        if c == b"#":
            while i < len(data) and data[i : i + 1] not in (b"\n", b"\r"):
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j : j + 1].isspace():
                j += 1
            tok = data[i:j]
            if not tok.isdigit():
                raise ImageFormatError(f"{path}: bad header token {tok!r}")
            tokens.append(int(tok))
            i = j
    return tokens, i + 1  # single whitespace byte separates header from raster


_NETPBM = {b"P5": 1, b"P6": 3}   # magic: channels (binary PGM and PPM)


def _parse_netpbm(data: bytes, path: str | Path) -> np.ndarray:
    """The uint8 raster of a binary PGM (H, W) or PPM (H, W, 3) file's bytes."""
    channels = _NETPBM[data[:2]]
    (w, h, maxval), off = _read_header_tokens(data, 3, path)
    if maxval != 255:
        raise ImageFormatError(f"{path}: only maxval 255 supported, got {maxval}")
    size = w * h * channels
    raster = data[off : off + size]
    if len(raster) != size:
        raise ImageFormatError(f"{path}: truncated raster")
    shape = (h, w) if channels == 1 else (h, w, channels)
    return np.frombuffer(raster, dtype=np.uint8).reshape(shape).copy()


def write_pgm(path: str | Path, image: np.ndarray) -> None:
    arr = np.asarray(image)
    if arr.ndim != 2:
        raise ImageFormatError(f"PGM output must be 2-D, got {arr.shape}")
    if arr.dtype != np.uint8:
        arr = np.clip(np.rint(arr), 0, 255).astype(np.uint8)
    h, w = arr.shape
    with write_whole(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


def read_image_gray(path: str | Path) -> np.ndarray:
    """Read PGM or PPM; color inputs are converted to float luma, PGM stays uint8."""
    from .metrics import to_grayscale

    data = Path(path).read_bytes()
    if data[:2] not in _NETPBM:
        raise ImageFormatError(f"{path}: unsupported format (need binary P5/P6)")
    image = _parse_netpbm(data, path)
    return image if image.ndim == 2 else to_grayscale(image)


def _raw_paths(base_path: str | Path) -> tuple[Path, Path]:
    """<base>.f32 and <base>.json: ``base_path`` less one trailing .f32; other dots stay."""
    base = str(base_path).removesuffix(".f32")
    return Path(base + ".f32"), Path(base + ".json")


def save_raw(base_path: str | Path, values: np.ndarray, meta: dict) -> tuple[Path, Path]:
    """Write <base>.f32 (little-endian float32) and <base>.json sidecar."""
    raw_path, json_path = _raw_paths(base_path)
    arr = np.ascontiguousarray(values, dtype="<f4")
    with write_whole(raw_path, "wb") as fh:
        fh.write(arr.tobytes())
    sidecar = {"dtype": "float32", "shape": list(arr.shape), **meta}
    with write_whole(json_path, "w") as fh:
        fh.write(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    return raw_path, json_path


def load_raw(base_path: str | Path) -> tuple[np.ndarray, dict]:
    raw_path, json_path = _raw_paths(base_path)
    meta = json.loads(json_path.read_text())
    arr = np.frombuffer(raw_path.read_bytes(), dtype="<f4")
    return arr.reshape(meta["shape"]).copy(), meta
