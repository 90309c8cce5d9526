"""One workload in a fresh process: set up, warm up, run timed units, check.

``run.py`` starts this file once per measurement so that ``ru_maxrss``
and cold costs belong to one workload. It imports nrsr from the
checkout's ``src/`` and drives only the entry points ``nrsr train`` and
``nrsr evaluate`` use: ``training.build_patch_set`` / ``train_lfcr`` /
``train_vdsr``, ``checkpoint.save_checkpoint`` / ``load_checkpoint`` and
``evaluate.evaluate``. The result is written as JSON to ``--result``.

Warm-up rule (fixed, the same on every commit): the first two training
steps, or the first evaluation pass, are warm-up. Their wall time is
recorded as ``cold_s`` and never enters the throughput metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import nrsr  # noqa: E402
from nrsr import checkpoint, evaluate, imageio, lfcr, masks, optim, tensor, training, vdsr  # noqa: E402
from tracing import (Patcher, TimeUp, Tracer, UnitClock, install_ops, layer_metrics,  # noqa: E402
                     tail_percentile)

METHODS = ("bicubic", "lfcr", "lfcr+vdsr")
WARMUP_UNITS = {"train-lfcr": 2, "train-vdsr": 2, "reconstruct": 1}

# Image sizes are fixed per workload; the seed only changes content, so it
# must not move the timings. Evaluation sizes include dims that are not
# multiples of 16 (reflection pad and crop) and one colour P6 (luma path).
SIZES = {
    "full": {
        "train-lfcr": dict(phase="lfcr", sensor="three-quarter", patch=48, stride=40, batch=64,
                           shifts=16, images=[(96, 96)] * 4),
        "train-vdsr": dict(phase="vdsr", sensor="quarter", patch=48, stride=40, batch=8,
                           shifts=4, images=[(56, 56)]),
        "reconstruct": dict(sensor="three-quarter", images=[
            (96, 96, "P5"), (96, 120, "P5"), (104, 136, "P5"), (112, 112, "P6"),
            (120, 152, "P5"), (192, 256, "P5")]),
    },
    "tiny": {
        "train-lfcr": dict(phase="lfcr", sensor="three-quarter", patch=16, stride=8, batch=4,
                           shifts=1, images=[(24, 24)]),
        "train-vdsr": dict(phase="vdsr", sensor="quarter", patch=16, stride=8, batch=2,
                           shifts=1, images=[(24, 24)]),
        "reconstruct": dict(sensor="three-quarter", images=[(24, 40, "P5"), (32, 32, "P6")]),
    },
}


def synth_image(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """Gratings, flat rectangles (edges) and mild noise on the 0..255 scale."""
    y, x = np.mgrid[0:h, 0:w].astype(np.float64)
    img = np.full((h, w), rng.uniform(60.0, 190.0))
    for _ in range(3):
        fy, fx = rng.uniform(-0.2, 0.2, 2)
        img += rng.uniform(10.0, 40.0) * np.sin(2 * np.pi * (fy * y + fx * x) + rng.uniform(0, 2 * np.pi))
    for _ in range(6):
        y0, x0 = rng.integers(0, h), rng.integers(0, w)
        img[y0 : y0 + rng.integers(4, h // 2 + 1), x0 : x0 + rng.integers(4, w // 2 + 1)] += rng.uniform(-60, 60)
    img += rng.normal(0.0, 4.0, (h, w))
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def write_ppm(path: Path, rgb: np.ndarray) -> None:
    h, w, _ = rgb.shape
    path.write_bytes(f"P6\n{w} {h}\n255\n".encode("ascii") + rgb.astype(np.uint8).tobytes())


class Workload:
    """Shared bookkeeping: units attempted, failures and the output checks."""

    def __init__(self, size: dict, seed: int, workdir: Path, tracer: Tracer, patcher: Patcher):
        self.size, self.seed, self.workdir = size, seed, workdir
        self.tracer, self.patcher = tracer, patcher
        self.rng = np.random.default_rng(seed)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.clock: UnitClock | None = None

    def fail(self, message: str, units: int = 1) -> None:
        self.failed += units
        self.failures.append(message)


class TrainWorkload(Workload):
    def install_base(self) -> None:
        def clocked_adam(params, state, lr):
            sid = self.tracer.begin("optim.adam_step") if self.tracer.ops_on else None
            try:
                optim.adam_step(params, state, lr)
            finally:
                if sid is not None:
                    self.tracer.end(sid)
            if not self.clock.unit_done():
                raise TimeUp

        def loss_seen(pred, target):
            out = tensor.mse_loss(pred, target)
            self.losses.append(float(out.data.reshape(())))
            self.batches.append(pred.shape[0])
            return out

        self.losses: list[float] = []
        self.batches: list[int] = []
        self.patcher.set(training, "adam_step", clocked_adam)
        self.patcher.set(training, "mse_loss", loss_seen)

    def setup(self) -> None:
        s = self.size
        mask = masks.generate_mask(s["sensor"], self.seed)
        images = [synth_image(self.rng, h, w).astype(np.float32) for h, w in s["images"]]
        self.config = training.TrainConfig(
            patch_size=s["patch"], patch_stride=s["stride"], shift_set=training.SHIFT_FACTORS[s["shifts"]],
            epochs=1_000_000, batch_size=s["batch"], seed=self.seed)
        self.patch_set = training.build_patch_set(images, self.config)
        self.lfcr = lfcr.build_lfcr(mask, s["sensor"], seed=self.seed)
        self.vdsr = vdsr.build_vdsr(seed=self.seed) if s["phase"] == "vdsr" else None

    def run(self) -> None:
        trained = self.vdsr if self.vdsr is not None else self.lfcr
        frozen = self.lfcr if self.vdsr is not None else None
        before = {n: p.data.copy() for m in (self.lfcr, self.vdsr) if m for n, p in m.named_parameters()}
        ckdir = self.workdir / "checkpoints"
        self.clock.start()
        try:
            if frozen is None:
                training.train_lfcr(self.lfcr, self.patch_set, self.config, checkpoint_dir=ckdir)
            else:
                training.train_vdsr(self.lfcr, self.vdsr, self.patch_set, self.config, checkpoint_dir=ckdir)
        except TimeUp:
            pass
        except Exception as exc:  # a failing step is a measured outcome, not a crash
            self.fail(f"step {len(self.clock.units)} raised {type(exc).__name__}: {exc}")
            self.attempted += 1
        finally:
            self.tracer.close_all()
        self.attempted += len(self.clock.units)

        if not all(math.isfinite(v) for v in self.losses):
            self.fail("non-finite training loss")
        for name, p in trained.named_parameters():
            if not np.all(np.isfinite(p.data)):
                self.fail(f"{name} is not finite after training")
            elif np.array_equal(p.data, before[name]):
                self.fail(f"{name} did not change during training")
        if frozen is not None:
            for name, p in frozen.named_parameters():
                if not np.array_equal(p.data, before[name]):
                    self.fail(f"frozen {name} changed during phase 2")

    def unit_mpix(self, i: int) -> float:
        return self.batches[i] * self.size["patch"] ** 2 / 1e6

    def extras(self, phase: str) -> dict:
        timed = [i for i, u in enumerate(self.clock.units) if u[0] == phase]
        per_epoch = max(len(self.patch_set) // self.size["batch"], 1)
        last = [self.losses[i] for i in timed[-per_epoch:]]
        return {"loss_final": statistics.fmean(last) if last else math.nan,
                "patches": len(self.patch_set), "steps_per_epoch": per_epoch,
                "batch": self.size["batch"], "patch": self.size["patch"]}


class ReconstructWorkload(Workload):
    def install_base(self) -> None:
        def checked(f, method, *args, **kwargs):
            out = inner(f, method, *args, **kwargs)
            self.attempted += 1
            if out.shape != np.shape(f) or not np.all(np.isfinite(out)):
                self.fail(f"{method}: reconstruction of a {np.shape(f)} image has shape "
                          f"{out.shape} or non-finite values")
            return out

        inner = evaluate.reconstruct_image
        self.patcher.set(evaluate, "reconstruct_image", checked)

    def setup(self) -> None:
        s = self.size
        self.data_dir = self.workdir / "dataset"
        self.data_dir.mkdir(parents=True)
        for i, (h, w, fmt) in enumerate(s["images"]):
            gray = synth_image(self.rng, h, w)
            if fmt == "P6":
                tint = self.rng.uniform(-25.0, 25.0, 3)
                rgb = np.clip(gray[..., None] + tint, 0, 255)
                write_ppm(self.data_dir / f"img{i}.ppm", rgb)
            else:
                imageio.write_pgm(self.data_dir / f"img{i}.pgm", gray)
        self.images = len(s["images"])
        self.mpix_per_eval = sum(h * w for h, w, _ in s["images"]) / 1e6
        mask = masks.generate_mask(s["sensor"], self.seed)
        path = self.workdir / "model.nrsr"
        checkpoint.save_checkpoint(path, lfcr=lfcr.build_lfcr(mask, s["sensor"], seed=self.seed),
                                   vdsr=vdsr.build_vdsr(seed=self.seed))
        # loaded parameters carry requires_grad=True, as in `nrsr evaluate`
        self.ck = checkpoint.load_checkpoint(path)

    def run(self) -> None:
        self.method_time = {m: 0.0 for m in METHODS}
        self.method_calls = {m: 0 for m in METHODS}
        self.psnr: dict[str, float] = {}
        self.clock.start()
        try:
            while True:
                phase = self.clock.phase
                for method in METHODS:
                    models = {} if method == "bicubic" else {"lfcr": self.ck.lfcr, "vdsr": self.ck.vdsr}
                    t = time.perf_counter()
                    report = evaluate.evaluate(method, self.data_dir, **models)
                    if phase == self.timed_phase:
                        self.method_time[method] += time.perf_counter() - t
                        self.method_calls[method] += 1
                    self.check(method, report)
                if not self.clock.unit_done():
                    break
        except Exception as exc:
            self.fail(f"pass {len(self.clock.units)} raised {type(exc).__name__}: {exc}")
        finally:
            self.tracer.close_all()

    def check(self, method: str, report) -> None:
        good = [r for r in report.rows if math.isfinite(r.psnr_db) and math.isfinite(r.ssim)]
        if len(good) != self.images or report.skipped:
            self.fail(f"{method}: {len(good)} finite rows for {self.images} images, "
                      f"skipped {report.skipped}", units=max(self.images - len(good), 1))
        self.psnr[method] = report.mean_psnr

    def unit_mpix(self, i: int) -> float:
        return len(METHODS) * self.mpix_per_eval

    def extras(self, phase: str) -> dict:
        out = {f"psnr_db_{m}": v for m, v in self.psnr.items()}
        for m in METHODS:
            busy = self.method_time[m]
            out[f"mpix_per_s_{m}"] = self.mpix_per_eval * self.method_calls[m] / busy if busy else math.nan
        out["images"] = self.images
        out["mpix_per_pass"] = self.unit_mpix(0)
        return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=WARMUP_UNITS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=SIZES, default="full")
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--t0", type=float, required=True, help="time.monotonic() when the parent spawned us")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    if not Path(nrsr.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"worker: imported nrsr from {nrsr.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    tracer, patcher = Tracer(), Patcher()
    cls = ReconstructWorkload if args.workload == "reconstruct" else TrainWorkload
    wl = cls(SIZES[args.size][args.workload], args.seed, args.workdir, tracer, patcher)
    wl.install_base()
    mark = patcher.mark()

    def tracing_on():
        install_ops(tracer, patcher, nrsr)

    def tracing_off():
        patcher.restore(mark)
        tracer.ops_on = False

    if args.trace:
        tracing_on()
    wl.setup()
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "env": {"numpy": np.__version__, "blas": blas_version()}}
    if not args.setup_only:
        warmup = ("warmup", "units", WARMUP_UNITS[args.workload], None)
        if args.trace:
            half = args.seconds / 2
            phases = [warmup, ("untraced", "seconds", half, tracing_off),
                      ("traced", "seconds", half, tracing_on)]
        else:
            phases = [warmup, ("timed", "seconds", args.seconds, None)]
        wl.timed_phase = phases[-1][0]
        wl.clock = UnitClock(tracer, phases, data_wait=cls is TrainWorkload)
        wl.run()
        patcher.restore()
        result.update(measure(wl, args.trace))
        if args.trace:
            spans = args.result.with_name(args.result.stem + "-spans.json")
            spans.write_text(json.dumps(tracer.spans))
    args.result.write_text(json.dumps(result))
    return 0


def measure(wl: Workload, trace: int) -> dict:
    clock = wl.clock
    phase = wl.timed_phase
    idx = [i for i, u in enumerate(clock.units) if u[0] == phase]
    walls = clock.durations(phase)
    if not walls:
        wl.fail("no timed unit completed")
    extras = wl.extras(phase)
    tail = tail_percentile(walls)
    extras["unit_ms_tail"] = None if tail is None else {"percentile": tail[0], "ms": 1e3 * tail[1]}
    extras["cold_s"] = sum(clock.durations("warmup"))
    out = {"attempted": wl.attempted, "failed": wl.failed, "failures": wl.failures,
           "units": {p: len(clock.durations(p)) for p, *_ in clock.phases},
           "unit_walls_ms": {p: [1e3 * d for d in clock.durations(p)] for p, *_ in clock.phases},
           "extras": extras, "metrics": {}}
    if trace and walls:
        out["metrics"] = layer_metrics(wl.tracer, clock, getattr(wl, "mpix_per_eval", 0.0))
    elif walls:
        out["metrics"] = {
            "mpix_per_s": sum(wl.unit_mpix(i) for i in idx) / sum(walls),
            "unit_ms_p50": 1e3 * statistics.median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return out


def blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
