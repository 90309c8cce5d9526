"""PGM/PPM readers and writers plus the raw-float sidecar format.

Grayscale images travel as binary P5 PGM with maxval 255 and round-trip
losslessly. Color inputs (binary P6 PPM) are accepted for reading only.
Sampled sensor outputs are stored as raw little-endian 32-bit floats
next to a JSON sidecar describing dims, sensor kind and mask reference.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


class ImageFormatError(ValueError):
    """Raised for unreadable or unsupported image files."""


def _read_header_tokens(data: bytes, count: int) -> tuple[list[int], int]:
    """Parse `count` whitespace-separated integer tokens after the magic, skipping comments."""
    tokens: list[int] = []
    i = 2  # past magic
    while len(tokens) < count:
        if i >= len(data):
            raise ImageFormatError("truncated header")
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
                raise ImageFormatError(f"bad header token {tok!r}")
            tokens.append(int(tok))
            i = j
    return tokens, i + 1  # single whitespace byte separates header from raster


def read_pgm(path: str | Path) -> np.ndarray:
    data = Path(path).read_bytes()
    if data[:2] != b"P5":
        raise ImageFormatError(f"{path}: not a binary PGM (P5) file")
    (w, h, maxval), off = _read_header_tokens(data, 3)
    if maxval != 255:
        raise ImageFormatError(f"{path}: only maxval 255 supported, got {maxval}")
    raster = data[off : off + w * h]
    if len(raster) != w * h:
        raise ImageFormatError(f"{path}: truncated raster")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w).copy()


def write_pgm(path: str | Path, image: np.ndarray) -> None:
    arr = np.asarray(image)
    if arr.ndim != 2:
        raise ImageFormatError(f"PGM output must be 2-D, got {arr.shape}")
    if arr.dtype != np.uint8:
        arr = np.clip(np.rint(arr), 0, 255).astype(np.uint8)
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


def read_ppm(path: str | Path) -> np.ndarray:
    data = Path(path).read_bytes()
    if data[:2] != b"P6":
        raise ImageFormatError(f"{path}: not a binary PPM (P6) file")
    (w, h, maxval), off = _read_header_tokens(data, 3)
    if maxval != 255:
        raise ImageFormatError(f"{path}: only maxval 255 supported, got {maxval}")
    raster = data[off : off + w * h * 3]
    if len(raster) != w * h * 3:
        raise ImageFormatError(f"{path}: truncated raster")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w, 3).copy()


def read_image_gray(path: str | Path) -> np.ndarray:
    """Read PGM or PPM; color inputs are converted to float luma, PGM stays uint8."""
    from .metrics import to_grayscale

    with open(path, "rb") as fh:
        magic = fh.read(2)
    if magic == b"P5":
        return read_pgm(path)
    if magic == b"P6":
        return to_grayscale(read_ppm(path))
    raise ImageFormatError(f"{path}: unsupported format (need binary P5/P6)")


def save_raw(base_path: str | Path, values: np.ndarray, meta: dict) -> tuple[Path, Path]:
    """Write <base>.f32 (little-endian float32) and <base>.json sidecar."""
    base = Path(base_path)
    raw_path = base.with_suffix(".f32")
    json_path = base.with_suffix(".json")
    arr = np.ascontiguousarray(values, dtype="<f4")
    raw_path.write_bytes(arr.tobytes())
    sidecar = {"dtype": "float32", "shape": list(arr.shape), **meta}
    json_path.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    return raw_path, json_path


def load_raw(base_path: str | Path) -> tuple[np.ndarray, dict]:
    base = Path(base_path)
    meta = json.loads(base.with_suffix(".json").read_text())
    arr = np.frombuffer(base.with_suffix(".f32").read_bytes(), dtype="<f4")
    return arr.reshape(meta["shape"]).copy(), meta
