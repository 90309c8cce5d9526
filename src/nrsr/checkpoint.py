"""Model checkpoint container.

Binary layout, little endian throughout::

    magic   5 bytes  b"NRSR1"
    count   uint32   number of records
    record  repeated:
        name_len  uint16
        name      utf-8 bytes
        ndim      uint8
        dims      uint32 * ndim
        payload   float32 * prod(dims)

Network parameters are named and shaped by each network's parameter
table; loading rebuilds the models through their ``from_parameters``.
Sensor metadata rides along under "meta/", and optimizer state saved
mid-training is "opt/step" plus "opt/<param>/m" and "opt/<param>/v" for
every parameter of the model that "meta/phase" names. The fixed
vectorizing kernel is still written, first, as "lfcr/vec/weights"; it
must equal the kernel of "meta/sensor_kind" and "meta/mask_pattern".
Loading rejects a record that breaks any of this, that holds a NaN or
infinite value, or that none of these names (a "vdsr/convNN" after a
gap in the numbering among them), naming it.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .lfcr import LfcrModel
from .masks import (LOW_RESOLUTION, MASKED_KINDS, QUARTER, THREE_QUARTER, MaskFormatError,
                    SamplingMask)
from .optim import AdamState
from .sensors import build_vectorizing_kernel
from .tensor import ShapeMismatchError, Tensor
from .vdsr import VdsrModel

MAGIC = b"NRSR1"

SENSOR_CODES = {QUARTER: 0, THREE_QUARTER: 1, LOW_RESOLUTION: 2}
SENSOR_FROM_CODE = {v: k for k, v in SENSOR_CODES.items()}
PHASE_CODES = {"lfcr": 0, "vdsr": 1}
PHASE_FROM_CODE = {v: k for k, v in PHASE_CODES.items()}
META_FIELDS = ("meta/sensor_kind", "meta/mask_pattern", "meta/mask_seed", "meta/epoch",
               "meta/phase")


class CheckpointError(ValueError):
    """Raised for malformed checkpoint files or incompatible contents."""


class _Records(dict):
    """Records by name; looking up a missing name raises CheckpointError naming it."""

    def __missing__(self, name: str):
        raise CheckpointError(f"missing record '{name}'")


def write_records(path: str | Path, records: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(records)))
        for name, arr in records.items():
            a = np.asarray(arr, dtype="<f4")  # tobytes() serializes C-order
            nb = name.encode("utf-8")
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<B", a.ndim))
            for d in a.shape:
                fh.write(struct.pack("<I", d))
            fh.write(a.tobytes())


def read_records(path: str | Path) -> dict[str, np.ndarray]:
    data = Path(path).read_bytes()
    if data[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not an NRSR1 checkpoint")
    off = len(MAGIC)

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(data):
            raise CheckpointError(f"{path}: truncated checkpoint")
        chunk = data[off : off + n]
        off += n
        return chunk

    (count,) = struct.unpack("<I", take(4))
    records = _Records()
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        name = take(name_len).decode("utf-8")
        (ndim,) = struct.unpack("<B", take(1))
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim))
        arr = np.frombuffer(take(4 * math.prod(dims)), dtype="<f4").reshape(dims).copy()
        records[name] = arr
    if off != len(data):
        raise CheckpointError(f"{path}: {len(data) - off} trailing bytes")
    return records


@dataclass
class Checkpoint:
    """Decoded checkpoint contents; either model may be absent."""

    lfcr: LfcrModel | None = None
    vdsr: VdsrModel | None = None
    adam: AdamState | None = None
    epoch: int = 0
    phase: str | None = None


def _meta_records(lfcr: LfcrModel | None, epoch: int, phase: str | None) -> dict[str, np.ndarray]:
    recs: dict[str, np.ndarray] = {}
    mask = lfcr.mask if lfcr is not None else None
    if lfcr is not None:
        recs["meta/sensor_kind"] = np.float32(SENSOR_CODES[lfcr.sensor_kind])
    if mask is not None:
        recs["meta/mask_pattern"] = mask.pattern.astype(np.float32)
        seed = mask.seed if isinstance(mask.seed, int) else -1
        recs["meta/mask_seed"] = np.float32(seed)
    if epoch:
        recs["meta/epoch"] = np.float32(epoch)
    if phase is not None:
        recs["meta/phase"] = np.float32(PHASE_CODES[phase])
    return recs


def save_checkpoint(path: str | Path, lfcr: LfcrModel | None = None,
                    vdsr: VdsrModel | None = None, adam: AdamState | None = None,
                    epoch: int = 0, phase: str | None = None) -> None:
    records: dict[str, np.ndarray] = {}
    if lfcr is not None:
        records["lfcr/vec/weights"] = lfcr.vec_kernel
        for name, p in lfcr.named_parameters():
            records[name] = p.data
    if vdsr is not None:
        for name, p in vdsr.named_parameters():
            records[name] = p.data
    records.update(_meta_records(lfcr, epoch, phase))
    if adam is not None:
        records["opt/step"] = np.float32(adam.step)
        for name, m in adam.m.items():
            records[f"opt/{name}/m"] = m
            records[f"opt/{name}/v"] = adam.v[name]
    write_records(path, records)


def _model(records: dict[str, np.ndarray], prefix: str, build):
    """``build`` applied to the ``prefix`` records, wrapped as trainable tensors."""
    params = _Records({name: Tensor(arr, requires_grad=True)
                       for name, arr in records.items() if name.startswith(prefix)})
    try:
        return build(params)
    except ShapeMismatchError as exc:
        raise CheckpointError(str(exc)) from exc


def _adam_state(records: dict[str, np.ndarray], model: LfcrModel | VdsrModel | None) -> AdamState:
    """The ``opt/`` records of every parameter of ``model``, the model of the saved phase."""
    if model is None:
        raise CheckpointError("opt/ records without the model of the phase that meta/phase names")
    st = AdamState(step=_count(records, "opt/step"))
    for name, p in model.named_parameters():
        for moment, buffers in (("m", st.m), ("v", st.v)):
            arr = records[f"opt/{name}/{moment}"]
            if arr.shape != p.shape:
                raise CheckpointError(f"opt/{name}/{moment} has shape {arr.shape}, "
                                      f"expected {p.shape}")
            buffers[name] = arr
    return st


def _decode(records: dict[str, np.ndarray], name: str, table: dict) -> str:
    """Value that the scalar code record ``name`` stands for in ``table``."""
    arr = records[name]
    if arr.size != 1 or arr.item() not in table:
        raise CheckpointError(f"unknown {name} code {arr.tolist()} (known: {sorted(table)})")
    return table[arr.item()]


def _count(records: dict[str, np.ndarray], name: str) -> int:
    """Integer value of the scalar record ``name`` (an epoch, seed or step)."""
    arr = records[name]
    if arr.size != 1:
        raise CheckpointError(f"{name} must be one number, got {arr.tolist()}")
    return int(arr.item())


def _sensor(records: dict[str, np.ndarray]) -> tuple[str | None, SamplingMask | None]:
    """Sensor kind and mask that the meta/ records name; an LFCR needs both."""
    if not records.keys() & {"meta/sensor_kind", "meta/mask_pattern", "lfcr/vec/weights"}:
        return None, None
    kind = _decode(records, "meta/sensor_kind", SENSOR_FROM_CODE)
    if kind not in MASKED_KINDS:
        return kind, None
    seed = _count(records, "meta/mask_seed") if "meta/mask_seed" in records else -1
    pattern = records["meta/mask_pattern"]
    if not np.array_equal(pattern, np.trunc(pattern)):
        raise CheckpointError("meta/mask_pattern: quadrant digits must be whole numbers")
    try:
        return kind, SamplingMask(kind=kind, pattern=pattern.astype(np.int64),
                                  seed=seed if seed >= 0 else "external")
    except MaskFormatError as exc:
        raise CheckpointError(f"meta/mask_pattern: {exc}") from exc


def load_checkpoint(path: str | Path) -> Checkpoint:
    records = read_records(path)
    for name, arr in records.items():
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{name} holds a non-finite value")
    ck = Checkpoint()
    sensor_kind, mask = _sensor(records)
    if "meta/epoch" in records:
        ck.epoch = _count(records, "meta/epoch")
    if "meta/phase" in records:
        ck.phase = _decode(records, "meta/phase", PHASE_FROM_CODE)
    if "lfcr/vec/weights" in records:
        if not np.array_equal(records["lfcr/vec/weights"],
                              build_vectorizing_kernel(mask, sensor_kind)):
            raise CheckpointError(f"lfcr/vec/weights is not the vectorizing kernel of the "
                                  f"'{sensor_kind}' sensor that the meta/ records name")
        ck.lfcr = _model(records, "lfcr/",
                         lambda params: LfcrModel.from_parameters(mask, sensor_kind, params))
    if any(name.startswith("vdsr/") for name in records):
        ck.vdsr = _model(records, "vdsr/", VdsrModel.from_parameters)
    if "opt/step" in records:
        ck.adam = _adam_state(records, {"lfcr": ck.lfcr, "vdsr": ck.vdsr}.get(ck.phase))
    named = {"lfcr/vec/weights", *META_FIELDS}
    for model in (m for m in (ck.lfcr, ck.vdsr) if m is not None):
        named.update(name for name, _ in model.named_parameters())
    if ck.adam is not None:
        named.update(["opt/step"] + [f"opt/{name}/{mv}" for name in ck.adam.m for mv in "mv"])
    unnamed = [name for name in records if name not in named]
    if unnamed:
        raise CheckpointError(f"unexpected record '{unnamed[0]}': no parameter table, meta/ "
                              f"field or optimizer state of this checkpoint names it")
    return ck
