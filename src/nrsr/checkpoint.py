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

Network parameters use their layer names ("lfcr/fc00/weights",
"vdsr/conv01/bias", ...). Sensor metadata rides along as scalar or small
records under "meta/" (sensor kind code, mask pattern, mask seed), and
optimizer state saved mid-training uses "opt/step" plus
"opt/<param>/m" and "opt/<param>/v" records. The fixed vectorizing
kernel is still written, first, as "lfcr/vec/weights"; it must equal
the kernel of "meta/sensor_kind" and "meta/mask_pattern", and loading
rejects any other.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .lfcr import DECONV_IN, HIDDEN_CHANNELS, NUM_FC_LAYERS, FcBlock, LfcrModel
from .masks import (LOW_RESOLUTION, MASKED_KINDS, QUARTER, THREE_QUARTER, MaskFormatError,
                    SamplingMask)
from .optim import AdamState
from .sensors import TARGET, VEC_CHANNELS, build_vectorizing_kernel
from .tensor import Tensor
from .vdsr import ConvLayer, VdsrModel

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
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim)) if ndim else ()
        size = int(np.prod(dims)) if ndim else 1
        arr = np.frombuffer(take(4 * size), dtype="<f4").reshape(dims).copy()
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


def _lfcr_record_shapes() -> dict[str, tuple[int, ...]]:
    """Name and shape of every trained LFCR record, in the order the model uses them."""
    shapes: dict[str, tuple[int, ...]] = {}
    in_ch = VEC_CHANNELS
    for i in range(NUM_FC_LAYERS):
        prefix = f"lfcr/fc{i:02d}"
        shapes[f"{prefix}/weights"] = (HIDDEN_CHANNELS, in_ch, 1, 1)
        shapes[f"{prefix}/bias"] = (HIDDEN_CHANNELS,)
        shapes[f"{prefix}/slopes"] = (HIDDEN_CHANNELS,)
        in_ch = HIDDEN_CHANNELS
    shapes["lfcr/deconv/weights"] = (DECONV_IN, 1, TARGET, TARGET)
    shapes["lfcr/deconv/bias"] = (1,)
    return shapes


def _rebuild_lfcr(records: dict[str, np.ndarray], sensor_kind: str,
                  mask: SamplingMask | None) -> LfcrModel:
    if not np.array_equal(records["lfcr/vec/weights"], build_vectorizing_kernel(mask, sensor_kind)[0]):
        raise CheckpointError(f"lfcr/vec/weights is not the vectorizing kernel of the "
                              f"'{sensor_kind}' sensor that the meta/ records name")
    for name, shape in _lfcr_record_shapes().items():
        if records[name].shape != shape:
            raise CheckpointError(f"{name} has shape {records[name].shape}, expected {shape}")

    def param(name: str) -> Tensor:
        return Tensor(records[name], requires_grad=True)

    blocks = [FcBlock(weights=param(f"lfcr/fc{i:02d}/weights"), bias=param(f"lfcr/fc{i:02d}/bias"),
                      slopes=param(f"lfcr/fc{i:02d}/slopes"))
              for i in range(NUM_FC_LAYERS)]
    return LfcrModel(
        sensor_kind=sensor_kind, mask=mask, blocks=blocks,
        deconv_weights=param("lfcr/deconv/weights"), deconv_bias=param("lfcr/deconv/bias"),
    )


def _rebuild_vdsr(records: dict[str, np.ndarray]) -> VdsrModel:
    """Layers conv01, conv02, ... up to the last consecutive weights record.

    Any depth loads, but the layers must chain from 1 input channel to 1
    output channel through square odd kernels, with a bias and (on all
    but the last layer) PReLU slopes of their output width.
    """
    depth = 0
    while f"vdsr/conv{depth + 1:02d}/weights" in records:
        depth += 1
    if not depth:
        raise CheckpointError("no VDSR records present")
    layers = []
    channels = 1
    for i in range(1, depth + 1):
        prefix = f"vdsr/conv{i:02d}"
        final = i == depth
        w = records[f"{prefix}/weights"]
        if (w.ndim != 4 or w.shape[1] != channels or (final and w.shape[0] != 1)
                or w.shape[2] != w.shape[3] or w.shape[2] % 2 == 0):
            raise CheckpointError(f"{prefix}/weights has shape {w.shape}, expected "
                                  f"({1 if final else 'out'}, {channels}, k, k) with k odd")
        channels = w.shape[0]
        bias = records[f"{prefix}/bias"]
        slopes = None if final else records[f"{prefix}/slopes"]
        for part, v in (("bias", bias), ("slopes", slopes)):
            if v is not None and v.shape != (channels,):
                raise CheckpointError(f"{prefix}/{part} has shape {v.shape}, expected ({channels},)")
        layers.append(ConvLayer(
            weights=Tensor(w, requires_grad=True),
            bias=Tensor(bias, requires_grad=True),
            slopes=None if final else Tensor(slopes, requires_grad=True),
        ))
    return VdsrModel(layers=layers)


def _decode(records: dict[str, np.ndarray], name: str, table: dict) -> str:
    """Value that the scalar code record ``name`` stands for in ``table``."""
    arr = records[name]
    if arr.size != 1 or arr.item() not in table:
        raise CheckpointError(f"unknown {name} code {arr.tolist()} (known: {sorted(table)})")
    return table[arr.item()]


def _count(records: dict[str, np.ndarray], name: str) -> int:
    """Integer value of the scalar record ``name`` (an epoch, seed or step)."""
    arr = records[name]
    if arr.size != 1 or not np.isfinite(arr).all():
        raise CheckpointError(f"{name} must be one finite number, got {arr.tolist()}")
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
    if not (np.isfinite(pattern).all() and np.array_equal(pattern, np.trunc(pattern))):
        raise CheckpointError("meta/mask_pattern: quadrant digits must be whole numbers")
    try:
        return kind, SamplingMask(kind=kind, pattern=pattern.astype(np.int64),
                                  seed=seed if seed >= 0 else "external")
    except MaskFormatError as exc:
        raise CheckpointError(f"meta/mask_pattern: {exc}") from exc


def load_checkpoint(path: str | Path) -> Checkpoint:
    records = read_records(path)
    ck = Checkpoint()
    sensor_kind, mask = _sensor(records)
    if "meta/epoch" in records:
        ck.epoch = _count(records, "meta/epoch")
    if "meta/phase" in records:
        ck.phase = _decode(records, "meta/phase", PHASE_FROM_CODE)
    if "lfcr/vec/weights" in records:
        ck.lfcr = _rebuild_lfcr(records, sensor_kind, mask)
    if "vdsr/conv01/weights" in records:
        ck.vdsr = _rebuild_vdsr(records)
    if "opt/step" in records:
        st = AdamState(step=_count(records, "opt/step"))
        for name, arr in records.items():
            if name.startswith("opt/") and name.endswith("/m"):
                pname = name[len("opt/") : -len("/m")]
                st.m[pname] = arr
                st.v[pname] = records[f"opt/{pname}/v"]
        ck.adam = st
    return ck
