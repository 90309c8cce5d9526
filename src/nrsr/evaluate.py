"""Dataset-level evaluation reports.

Each image in a dataset directory is reconstructed by a method, which METHODS
maps to the checkpoint models it runs on, and scored with PSNR and SSIM
against the grayscale reference. Images whose dims are not multiples of 16 are
reflection-padded on the bottom and right (keeping the mask anchored at the
origin) and cropped back before scoring. Unreadable files, and images smaller
than the SSIM window, are skipped with one warning each; a NaN or an infinity
in a reconstruction raises NonFiniteReconstructionError, naming the image.

Full-scale reference targets from the literature protocol (Urban100 /
Tecnick, 100-epoch training on Set291) are context only and not
reproduced here; e.g. three-quarter sampling with LFCR+VDSR reaches
30.03 dB / 0.9421 on Urban100 at that scale.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .imageio import ImageFormatError, read_image_gray
from .lfcr import LfcrModel, lfcr_forward
from .masks import LOW_RESOLUTION
from .metrics import SSIM_WINDOW, bicubic_upscale, psnr, ssim
from .sensors import sample, sensitivity_tile
from .vdsr import VdsrModel, vdsr_forward

METHODS = {"reference": (), "bicubic": (), "lfcr": ("lfcr",), "lfcr+vdsr": ("lfcr", "vdsr")}

PAD_MULTIPLE = 16


class NonFiniteReconstructionError(RuntimeError):
    """Raised when a method's reconstruction holds a NaN or an infinity."""


@dataclass(frozen=True)
class EvalRow:
    image: str
    psnr_db: float
    ssim: float


@dataclass
class EvalReport:
    method: str
    sensor: str
    rows: list[EvalRow] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    runtime_s: float = 0.0

    @property
    def mean_psnr(self) -> float:
        return float(np.mean([r.psnr_db for r in self.rows])) if self.rows else math.nan

    @property
    def mean_ssim(self) -> float:
        return float(np.mean([r.ssim for r in self.rows])) if self.rows else math.nan

    def to_csv(self) -> str:
        lines = ["image,method,sensor,psnr_db,ssim"]
        for r in self.rows:
            lines.append(f"{r.image},{self.method},{self.sensor},{r.psnr_db:.4f},{r.ssim:.6f}")
        return "\n".join(lines) + "\n"

    def summary(self) -> dict:
        mp = self.mean_psnr
        return {
            "method": self.method,
            "sensor": self.sensor,
            "images": len(self.rows),
            "skipped": self.skipped,
            "mean_psnr_db": None if not self.rows else "inf" if math.isinf(mp) else round(mp, 4),
            "mean_ssim": round(self.mean_ssim, 6) if self.rows else None,
            "runtime_s": round(self.runtime_s, 3),
        }

    def table(self) -> str:
        lines = [f"{'image':24s} {'psnr_db':>10s} {'ssim':>8s}"]
        for r in self.rows:
            lines.append(f"{r.image:24s} {r.psnr_db:10.2f} {r.ssim:8.4f}")
        lines.append(f"{'mean':24s} {self.mean_psnr:10.2f} {self.mean_ssim:8.4f}")
        return "\n".join(lines) + "\n"


def pad_to_multiple(f: np.ndarray) -> tuple[np.ndarray, tuple[int, int]]:
    """Reflect-pad bottom/right to multiples of PAD_MULTIPLE; returns padded and original dims."""
    h, w = f.shape
    ph = (-h) % PAD_MULTIPLE
    pw = (-w) % PAD_MULTIPLE
    if ph or pw:
        f = np.pad(f, ((0, ph), (0, pw)), mode="symmetric")
    return f, (h, w)


def reconstruct_image(f: np.ndarray, method: str, lfcr: LfcrModel | None = None,
                      vdsr: VdsrModel | None = None) -> np.ndarray:
    """Run one method on a grayscale reference image; output dims equal input dims.

    Raises NonFiniteReconstructionError if the output is not all finite;
    that one check stands for numpy's overflow and invalid-value warnings
    on the way, which are not shown.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method '{method}' (expected one of {tuple(METHODS)})")
    models = {"lfcr": lfcr, "vdsr": vdsr}
    for name in METHODS[method]:
        if models[name] is None:
            article = "an" if name == "lfcr" else "a"
            raise ValueError(f"method '{method}' needs {article} {name.upper()} model")
    f = np.asarray(f, dtype=np.float32)
    padded, (h, w) = pad_to_multiple(f)
    with np.errstate(over="ignore", invalid="ignore"):
        if method == "reference":
            out = padded
        elif method == "bicubic":
            out = bicubic_upscale(sample(padded, sensitivity_tile(None, LOW_RESOLUTION)))
        else:
            out = lfcr_forward(lfcr, padded)
            if method == "lfcr+vdsr":
                _, out = vdsr_forward(vdsr, out)
        out = np.array(out[:h, :w], dtype=np.float32)
    if not np.isfinite(out).all():
        raise NonFiniteReconstructionError(f"the {method} reconstruction is not finite")
    return out


def list_dataset(dataset_dir: str | Path) -> list[Path]:
    paths = [p for p in sorted(Path(dataset_dir).iterdir())
             if p.suffix.lower() in (".pgm", ".ppm")]
    return paths


def evaluate(method: str, dataset_dir: str | Path, lfcr: LfcrModel | None = None,
             vdsr: VdsrModel | None = None) -> EvalReport:
    """Score one method over every readable image of a dataset directory."""
    sensor = ("low-resolution" if method == "bicubic"
              else lfcr.sensor_kind if lfcr is not None else "none")
    report = EvalReport(method=method, sensor=sensor)
    start = time.perf_counter()
    for path in list_dataset(dataset_dir):
        try:
            ref = np.asarray(read_image_gray(path), dtype=np.float64)
        except (ImageFormatError, OSError) as exc:
            reason = str(exc)
        else:
            reason = None if min(ref.shape) >= SSIM_WINDOW else (
                f"{ref.shape[0]}x{ref.shape[1]} is smaller than the "
                f"{SSIM_WINDOW}x{SSIM_WINDOW} SSIM window")
        if reason is not None:
            report.skipped.append(f"{path.name}: {reason}")
            warnings.warn(f"{path.name}: {reason}; skipped")
            continue
        try:
            rec = reconstruct_image(ref.astype(np.float32), method, lfcr=lfcr, vdsr=vdsr)
        except NonFiniteReconstructionError as exc:
            raise NonFiniteReconstructionError(f"{path.name}: {exc}") from None
        report.rows.append(EvalRow(path.name, psnr_db=psnr(ref, rec), ssim=ssim(ref, rec)))
    report.runtime_s = time.perf_counter() - start
    return report


def models_for(method: str, ck) -> dict | None:
    """Keyword arguments of the models ``method`` runs on; None if ``ck`` is None or lacks one."""
    models = {name: getattr(ck, name, None) for name in METHODS[method]}
    return None if any(m is None for m in models.values()) else models
