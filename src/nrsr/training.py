"""Patch sets, the learning-rate schedule and the two-phase training loop.

Phase 1 fits the LFCR alone (loss between its output and the
reference); phase 2 freezes the LFCR and fits the VDSR on the combined
output at a tenfold reduced initial learning rate. The joint
fine-tuning phase is intentionally absent.

A patch set stores no patches: it keeps the source images and one
``(source, y, x, tag)`` row per patch, and each batch crops its rows and
applies their flip/rotate tag when the loop asks for it. Shift
augmentation crops the reference at small even offsets before the patch
grid is laid, so a row's ``(y, x)`` is shift plus grid offset. The sensor
mask stays anchored to the patch origin, so the same content meets the
mask in up to 16 different alignments while every patch keeps mask
phase (0, 0).
"""

from __future__ import annotations

import csv
import ctypes
import functools
import math
import os
import warnings
from collections.abc import Sequence
from dataclasses import InitVar, dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import Checkpoint, save_checkpoint
from .imageio import write_whole
from .lfcr import LfcrModel, lfcr_forward
from .optim import AdamState, adam_step
from .tensor import Tensor, mse_loss
from .vdsr import VdsrModel

DEFAULT_SHIFTS = tuple((dy, dx) for dy in (0, 2, 4, 6) for dx in (0, 2, 4, 6))

# Shift sets for reduced augmentation factors (the full factor-16 set is
# the {0,2,4,6}^2 grid; smaller factors use even sub-grids / diagonals).
SHIFT_FACTORS: dict[int, tuple[tuple[int, int], ...]] = {
    1: ((0, 0),),
    2: ((0, 0), (4, 4)),
    4: tuple((dy, dx) for dy in (0, 4) for dx in (0, 4)),
    8: tuple((dy, dx) for dy in (0, 2, 4, 6) for dx in (0, 2, 4, 6) if (dy + dx) % 4 == 0),
    16: DEFAULT_SHIFTS,
}


class ConfigError(ValueError):
    """Raised for invalid or unknown training-config entries."""


class NonFiniteLossError(RuntimeError):
    """Raised when the training loss turns NaN/inf; carries the last good checkpoint."""

    def __init__(self, step: int, last_checkpoint: str | None):
        msg = f"non-finite loss at step {step}"
        if last_checkpoint:
            msg += f"; last good checkpoint: {last_checkpoint}"
        super().__init__(msg)
        self.step = step
        self.last_checkpoint = last_checkpoint


@dataclass(frozen=True)
class TrainConfig:
    patch_size: int = 48
    patch_stride: int = 40
    shift_set: tuple[tuple[int, int], ...] = DEFAULT_SHIFTS
    flips_rotations: bool = True
    epochs: int = 100
    initial_lr: float = 1e-4
    lr_decay_every: int = 10
    lr_decay_factor: float = 10.0
    lr_floor: float = 1e-8
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.patch_size % 8 or self.patch_stride % 8:
            raise ConfigError("patch_size and patch_stride must be multiples of 8")
        if self.patch_size < 8 or self.patch_stride < 8:
            raise ConfigError("patch_size and patch_stride must be >= 8")
        for dy, dx in self.shift_set:
            if dy % 2 or dx % 2 or dy < 0 or dx < 0:
                raise ConfigError(f"shifts must be non-negative and even, got ({dy},{dx})")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if not np.all(np.isfinite([self.initial_lr, self.lr_decay_factor, self.lr_floor])):
            raise ConfigError("initial_lr, lr_decay_factor and lr_floor must be finite")
        if self.initial_lr <= 0 or self.lr_decay_every < 1:
            raise ConfigError("learning-rate schedule values must be positive")
        if self.lr_decay_factor < 1:
            raise ConfigError(f"lr_decay_factor must be >= 1, so a decay never raises the lr, "
                              f"got {self.lr_decay_factor}")
        if self.lr_floor < 0:
            raise ConfigError(f"lr_floor must be >= 0, got {self.lr_floor}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


_CONFIG_FIELDS = {
    "patch_size": int, "patch_stride": int, "epochs": int, "lr_decay_every": int,
    "batch_size": int, "seed": int, "initial_lr": float, "lr_decay_factor": float,
    "lr_floor": float, "flips_rotations": None, "shift_set": None,
}


def save_config(config: TrainConfig, path: str | Path) -> None:
    lines = []
    for name in _CONFIG_FIELDS:
        value = getattr(config, name)
        if name == "shift_set":
            value = ",".join(f"{dy}:{dx}" for dy, dx in value)
        elif name == "flips_rotations":
            value = "true" if value else "false"
        lines.append(f"{name}={value}")
    with write_whole(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_config(path: str | Path) -> TrainConfig:
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    kwargs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got '{line}'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        if key == "shift_set":
            try:
                pairs = tuple(tuple(int(p) for p in item.split(":")) for item in value.split(","))
                kwargs[key] = tuple((dy, dx) for dy, dx in pairs)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad shift_set '{value}'") from exc
        elif key == "flips_rotations":
            if value not in ("true", "false"):
                raise ConfigError(f"{path}:{lineno}: flips_rotations must be true/false")
            kwargs[key] = value == "true"
        else:
            try:
                kwargs[key] = _CONFIG_FIELDS[key](value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: '{value}'") from exc
    return TrainConfig(**kwargs)


@dataclass
class PatchSet:
    """Training patches as an index into their source images, nothing copied.

    Row ``(source, y, x, tag)`` of ``index`` is the ``size``-square crop of
    ``sources[source]`` at ``(y, x)``, turned by the dihedral ``tag``:
    ``rot90`` ``tag % 4`` times, then ``fliplr`` for tags 4..7.
    ``PatchSet(patches=a)`` indexes each ``a[i]`` as one whole patch at
    ``(0, 0)``, tag 0.
    """

    sources: Sequence[np.ndarray] = ()
    index: np.ndarray = field(default_factory=lambda: np.zeros((0, 4), dtype=np.int64))
    size: int = 0
    patches: InitVar[np.ndarray | None] = None

    def __post_init__(self, patches):
        if patches is not None:
            patches = np.asarray(patches)
            if patches.ndim != 3 or patches.shape[1] != patches.shape[2]:
                raise ConfigError(f"patches must be (N, size, size), got {patches.shape}")
            self.sources, self.size = patches, patches.shape[1]
            self.index = np.zeros((len(patches), 4), dtype=np.int64)
            self.index[:, 0] = np.arange(len(patches))

    def __len__(self) -> int:
        return len(self.index)

    def batch(self, rows) -> np.ndarray:
        """The patches of ``index[rows]``, stacked as ``(len(rows), size, size)``."""
        s = self.size
        out = []
        for src, y, x, tag in self.index[rows].tolist():
            crop = np.rot90(self.sources[src][y : y + s, x : x + s], tag % 4)
            out.append(np.fliplr(crop) if tag >= 4 else crop)
        return np.stack(out)


def build_patch_set(images: list[np.ndarray], config: TrainConfig,
                    image_ids: list[str] | None = None) -> PatchSet:
    """Index every (image, shift, y, x, tag) patch, in that order.

    Each shift ``(dy, dx)`` crops the image at that origin, trimmed to
    multiples of 8, and patches sit at stride multiples inside the crop;
    ``y``, ``x`` are source coordinates. A crop smaller than a patch is
    skipped with a warning.
    """
    ids = image_ids or [f"image{i:03d}" for i in range(len(images))]
    ps, stride = config.patch_size, config.patch_stride
    tags = np.arange(8 if config.flips_rotations else 1)
    sources, blocks = [], []
    for img, image_id in zip(images, ids):
        img = np.asarray(img, dtype=np.float32)
        h, w = img.shape
        used = len(blocks)
        for dy, dx in config.shift_set:
            ch, cw = max(h - dy, 0) // 8 * 8, max(w - dx, 0) // 8 * 8
            if ch < ps or cw < ps:
                warnings.warn(f"{image_id}: {ch}x{cw} smaller than patch size {ps}, skipped")
                continue
            grid = np.meshgrid([len(sources)], np.arange(dy, dy + ch - ps + 1, stride),
                               np.arange(dx, dx + cw - ps + 1, stride), tags, indexing="ij")
            blocks.append(np.stack(grid, axis=-1).reshape(-1, 4))
        if len(blocks) > used:
            sources.append(img)
    index = np.concatenate(blocks) if blocks else np.zeros((0, 4), dtype=np.int64)
    return PatchSet(sources, index, ps)


def lr_schedule(epoch: int, config: TrainConfig) -> float:
    """lr = max(initial * factor^-floor((epoch-1)/every), floor), epochs counted from 1."""
    if epoch < 1:
        raise ConfigError(f"epoch must be >= 1, got {epoch}")
    decays = (epoch - 1) // config.lr_decay_every
    return max(config.initial_lr * config.lr_decay_factor ** (-decays), config.lr_floor)


@dataclass(frozen=True)
class LogRow:
    epoch: int
    step: int
    lr: float
    loss: float


@dataclass
class TrainResult:
    rows: list[LogRow]
    epoch_losses: list[float]
    checkpoints: list[str] = field(default_factory=list)


def write_log_csv(path: str | Path, rows: list[LogRow]) -> None:
    """Write a log of ``rows``, whole or not at all (``write_whole``)."""
    with write_whole(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "step", "lr", "loss"])
        for row in rows:
            writer.writerow([row.epoch, row.step, repr(row.lr), repr(row.loss)])


def read_log_csv(path: str | Path) -> list[LogRow]:
    """Rows of a log that ``write_log_csv`` wrote.

    Training writes epochs and steps from 1 and a finite, non-negative
    lr and loss; any other row is rejected.
    """
    try:
        with open(path, newline="") as fh:
            lines = list(csv.reader(fh))[1:]
        rows = [LogRow(int(e), int(s), float(lr), float(loss)) for e, s, lr, loss in lines]
    except (ValueError, csv.Error) as exc:  # a UnicodeDecodeError is a ValueError
        raise ConfigError(f"{path}: malformed training log ({exc})") from exc
    for row in rows:
        if (min(row.epoch, row.step) < 1
                or not (0 <= row.lr < math.inf and 0 <= row.loss < math.inf)):
            raise ConfigError(f"{path}: malformed training log (training never writes {row})")
    return rows


# glibc's mallopt parameters (malloc.h) and the values training runs with
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
TRIM_THRESHOLD = 1 << 30
MMAP_THRESHOLD = 32 << 20   # the largest older glibc accepts: HEAP_MAX_SIZE / 2 on 64-bit


@functools.cache
def keep_freed_memory() -> bool:
    """Let glibc keep freed heap memory for the rest of the process; True if it now does.

    Each training step frees its whole graph. By default glibc serves
    large buffers with mmap and trims the freed heap top back to the OS,
    so the next step page-faults the same memory in again. Raising both
    thresholds keeps that memory in the heap. Both are needed: setting
    the trim threshold turns off glibc's dynamic mmap threshold, so
    alone it sends every large buffer to mmap. The call does nothing
    when the user set a ``MALLOC_*_`` variable or a ``glibc.malloc.``
    tunable, whose settings win, or when libc has no ``mallopt``, and it
    never raises.
    """
    if (any(k.startswith("MALLOC_") and k.endswith("_") for k in os.environ)
            or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # not a POSIX libc, or not glibc
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # mallopt returns 1 on success; no trim threshold without the mmap one
    return (mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
            and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1)


def _epoch_batches(n: int, batch_size: int, rng: np.random.Generator):
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start : start + batch_size]


def _run_phase(phase: str, models: dict, loss_fn, patch_set: PatchSet, config: TrainConfig,
               lr_scale: float, checkpoint_dir: str | Path | None,
               resume_from: Checkpoint | None, log_path: str | Path | None) -> TrainResult:
    """The training loop of both phases: fit ``models[phase]`` to ``loss_fn``.

    ``loss_fn`` maps a batch of reference patches to the scalar loss
    Tensor. Every model in ``models`` (keyed like ``save_checkpoint``'s
    arguments) goes into the per-epoch ``<phase>-epochNNNN.nrsr``
    checkpoint, together with the Adam state. A phase continues the
    ``resume_from`` checkpoint, saved in the same phase (else
    ConfigError), from its Adam state after its epoch. ``log_path`` is a
    log that ``write_log_csv`` started; after each epoch the phase
    rewrites it whole with that epoch's rows added, before that epoch's
    checkpoint is saved, so a phase that stops early, even inside the
    write, keeps a whole log of its finished epochs. Every phase calls
    ``keep_freed_memory``, which tunes the allocator once per process.
    """
    if len(patch_set) == 0:
        raise ConfigError("empty patch set")
    resume_from = resume_from or Checkpoint(phase=phase)  # a fresh start: epoch 0, no state
    if resume_from.phase != phase:
        raise ConfigError(f"phase {phase} cannot resume a phase-{resume_from.phase} checkpoint")
    keep_freed_memory()
    params = models[phase].named_parameters()
    state = resume_from.adam or AdamState.for_params(params)
    if checkpoint_dir is not None:
        checkpoint_dir = Path(checkpoint_dir)
        checkpoint_dir.mkdir(parents=True, exist_ok=True)
    saved: list[str] = []

    def step(batch: np.ndarray, lr: float) -> float:
        # the graph lives in this frame only, so it is freed before the next forward
        loss = loss_fn(batch)
        value = float(loss.data.reshape(()))
        if not np.isfinite(value):
            raise NonFiniteLossError(state.step + 1, saved[-1] if saved else None)
        for _, p in params:
            p.zero_grad()
        loss.backward()
        adam_step(params, state, lr)
        return value

    rng = np.random.default_rng(config.seed)
    logged = read_log_csv(log_path) if log_path is not None else []
    rows: list[LogRow] = []
    epoch_losses: list[float] = []
    for epoch in range(1, config.epochs + 1):
        lr = lr_schedule(epoch, config) * lr_scale
        if epoch <= resume_from.epoch:
            # keep the data-order stream aligned when resuming
            for _ in _epoch_batches(len(patch_set), config.batch_size, rng):
                pass
            continue
        losses = []
        for batch_idx in _epoch_batches(len(patch_set), config.batch_size, rng):
            loss = step(patch_set.batch(batch_idx), lr)
            rows.append(LogRow(epoch=epoch, step=state.step, lr=lr, loss=loss))
            losses.append(loss)
        epoch_losses.append(float(np.mean(losses)))
        if log_path is not None:
            write_log_csv(log_path, logged + rows)
        if checkpoint_dir is not None:
            path = checkpoint_dir / f"{phase}-epoch{epoch:04d}.nrsr"
            save_checkpoint(path, **models, adam=state, epoch=epoch, phase=phase)
            saved.append(str(path))
    return TrainResult(rows=rows, epoch_losses=epoch_losses, checkpoints=saved)


def train_lfcr(model: LfcrModel, patch_set: PatchSet, config: TrainConfig,
               checkpoint_dir: str | Path | None = None,
               resume_from: Checkpoint | None = None,
               log_path: str | Path | None = None) -> TrainResult:
    """Phase 1: fit the LFCR to its own sampling, from scratch or from ``resume_from``."""

    def loss_fn(batch: np.ndarray) -> Tensor:
        return mse_loss(model.forward_t(Tensor(batch[:, None])), Tensor(batch[:, None]))

    return _run_phase("lfcr", {"lfcr": model}, loss_fn, patch_set, config, 1.0,
                      checkpoint_dir, resume_from, log_path)


def train_vdsr(lfcr_model: LfcrModel, vdsr_model: VdsrModel, patch_set: PatchSet,
               config: TrainConfig, checkpoint_dir: str | Path | None = None,
               resume_from: Checkpoint | None = None,
               log_path: str | Path | None = None) -> TrainResult:
    """Phase 2: fit the VDSR on the frozen LFCR at lr / 10, from scratch or ``resume_from``."""

    def loss_fn(batch: np.ndarray) -> Tensor:
        f_hat = lfcr_forward(lfcr_model, batch)  # frozen: plain values, no graph
        _, f_tilde = vdsr_model.forward_t(Tensor(f_hat[:, None]))
        return mse_loss(f_tilde, Tensor(batch[:, None]))

    return _run_phase("vdsr", {"lfcr": lfcr_model, "vdsr": vdsr_model}, loss_fn, patch_set,
                      config, 0.1, checkpoint_dir, resume_from, log_path)
