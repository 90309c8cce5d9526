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

``_records`` is the one statement of what a checkpoint holds: the fixed
vectorizing kernel "lfcr/vec/weights", every parameter of each network
by its parameter table, sensor metadata under "meta/", and, when saved
mid-training, "opt/step" plus "opt/<param>/m" and "opt/<param>/v" for
every parameter of the model that "meta/phase" names. Saving writes
those records, whole or not at all. Loading rejects a repeated record
name or a record that holds a NaN or an infinite value, decodes the
models, metadata and optimizer state, and then accepts exactly the
records that saving the decoded checkpoint would write back, value for
value, naming the first record that differs, is missing or is unexpected.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .imageio import write_whole
from .lfcr import LfcrModel
from .masks import (LOW_RESOLUTION, MASKED_KINDS, QUARTER, THREE_QUARTER, MaskFormatError,
                    SamplingMask)
from .optim import AdamState
from .tensor import ShapeMismatchError, Tensor
from .vdsr import VdsrModel

MAGIC = b"NRSR1"

SENSOR_CODES = {QUARTER: 0, THREE_QUARTER: 1, LOW_RESOLUTION: 2}
SENSOR_FROM_CODE = {v: k for k, v in SENSOR_CODES.items()}
PHASE_CODES = {"lfcr": 0, "vdsr": 1}
PHASE_FROM_CODE = {v: k for k, v in PHASE_CODES.items()}


class CheckpointError(ValueError):
    """Raised for malformed checkpoint files or incompatible contents."""


class _Records(dict):
    """Records by name; looking up a missing name raises CheckpointError naming it."""

    def __missing__(self, name: str):
        raise CheckpointError(f"missing record '{name}'")


def write_records(path: str | Path, records: dict[str, np.ndarray]) -> None:
    """Write ``records`` whole, through ``<path>.tmp``, which no ``*.nrsr`` glob matches."""
    with write_whole(path, "wb") as fh:
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
        if name in records:
            raise CheckpointError(f"{path}: repeated record '{name}'")
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


def _records(ck: Checkpoint) -> dict[str, np.ndarray]:
    """Every record of ``ck``, in file order: the one statement of what a checkpoint holds."""
    recs: dict[str, np.ndarray] = {}
    if ck.lfcr is not None:
        recs["lfcr/vec/weights"] = ck.lfcr.vec_kernel
    for model in (m for m in (ck.lfcr, ck.vdsr) if m is not None):
        recs.update((name, p.data) for name, p in model.named_parameters())
    if ck.lfcr is not None:
        recs["meta/sensor_kind"] = np.float32(SENSOR_CODES[ck.lfcr.sensor_kind])
        mask = ck.lfcr.mask
        if mask is not None:
            recs["meta/mask_pattern"] = mask.pattern.astype(np.float32)
            seed = mask.seed if isinstance(mask.seed, int) else -1  # a tag such as "external"
            if abs(seed) > 2**127 or int(np.float32(seed)) != seed:
                seed = -1  # a seed float32 cannot hold saves as a tag, not as another seed
            recs["meta/mask_seed"] = np.float32(seed)
    if ck.epoch:
        recs["meta/epoch"] = np.float32(ck.epoch)
    if ck.phase is not None:
        recs["meta/phase"] = np.float32(PHASE_CODES[ck.phase])
    if ck.adam is not None:
        recs["opt/step"] = np.float32(ck.adam.step)
        for name, m in ck.adam.m.items():
            recs[f"opt/{name}/m"] = m
            recs[f"opt/{name}/v"] = ck.adam.v[name]
    return recs


def save_checkpoint(path: str | Path, lfcr: LfcrModel | None = None,
                    vdsr: VdsrModel | None = None, adam: AdamState | None = None,
                    epoch: int = 0, phase: str | None = None) -> None:
    write_records(path, _records(Checkpoint(lfcr, vdsr, adam, epoch, phase)))


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


def _count(records: dict[str, np.ndarray], name: str, signed: bool = False) -> int:
    """Integer value of the scalar record ``name``: an epoch or step count, or a signed seed."""
    arr = records[name]
    if arr.size != 1 or (arr.item() < 0 and not signed):
        raise CheckpointError(f"{name} must be one {'' if signed else 'non-negative '}number, "
                              f"got {arr.tolist()}")
    return int(arr.item())


def _sensor(records: dict[str, np.ndarray]) -> tuple[str | None, SamplingMask | None]:
    """Sensor kind and mask that the meta/ records name; an LFCR needs both."""
    if not records.keys() & {"meta/sensor_kind", "meta/mask_pattern", "lfcr/vec/weights"}:
        return None, None
    kind = _decode(records, "meta/sensor_kind", SENSOR_FROM_CODE)
    if kind not in MASKED_KINDS:
        return kind, None
    seed = _count(records, "meta/mask_seed", signed=True)
    # clipped to just outside the digits, so a huge value fails the range check, not the cast
    pattern = np.clip(records["meta/mask_pattern"], -1, 4).astype(np.int64)
    try:
        return kind, SamplingMask(kind=kind, pattern=pattern,
                                  seed="external" if seed == -1 else seed)
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
    if sensor_kind is not None:
        ck.lfcr = _model(records, "lfcr/", lambda params: LfcrModel(sensor_kind, mask, params))
    if any(name.startswith("vdsr/") for name in records):
        ck.vdsr = _model(records, "vdsr/", VdsrModel)
    if "opt/step" in records:
        ck.adam = _adam_state(records, {"lfcr": ck.lfcr, "vdsr": ck.vdsr}.get(ck.phase))
    # the file must hold exactly what saving the decoded checkpoint writes back
    expected = _records(ck)
    for name in [*records, *(n for n in expected if n not in records)]:
        if name not in expected:
            raise CheckpointError(f"unexpected record '{name}': saving would not write it")
        if not np.array_equal(records[name], expected[name]):
            raise CheckpointError(f"{name} is not what saving this checkpoint would write")
    return ck
