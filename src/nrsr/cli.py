"""Command-line entry point.

Subcommands cover the whole pipeline: mask generation, sensor
simulation, two-phase training, reconstruction, evaluation, gradient
checking and shift-augmentation curves. Exit codes: 0 success, 2
usage/config error, 3 numerical failure.

Heavy imports happen inside the command handlers so that --threads (or
the NRSR_THREADS environment variable) can cap the BLAS thread pools
before numpy loads; --threads 1 gives the bit-exact single-threaded
mode.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import warnings

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

SENSOR_CHOICES = ("quarter", "three-quarter", "low-resolution")
SHIFT_FACTOR_CHOICES = (1, 2, 4, 8, 16)
STAGE_METHODS = {"lfcr": "lfcr", "full": "lfcr+vdsr"}   # --stage: the method it runs


def _set_threads(threads: int | None) -> None:
    """Cap the BLAS pools; a value that is not an integer >= 1 is a usage error."""
    if threads is None:
        env = os.environ.get("NRSR_THREADS")
        if not env:
            return
        try:
            threads = int(env)
        except ValueError:
            raise UsageError(f"NRSR_THREADS must be an integer >= 1, got '{env}'") from None
        source = "NRSR_THREADS"
    else:
        source = "--threads"
    if threads < 1:
        raise UsageError(f"{source} must be an integer >= 1, got {threads}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(threads)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nrsr",
        description="Non-regular sampling sensor simulation and neural reconstruction.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    p = sub.add_parser("mask", help="generate a sampling mask file")
    p.add_argument("--kind", required=True, choices=("quarter", "three-quarter"),
                   help="sensor kind the mask is for")
    p.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    p.add_argument("--out", required=True, help="output NRSMASK file")
    p.set_defaults(func=cmd_mask)

    p = sub.add_parser("sample", help="simulate a sensor on one image")
    p.add_argument("--sensor", required=True, choices=SENSOR_CHOICES, help="sensor kind")
    p.add_argument("--mask", help="NRSMASK file (required unless low-resolution)")
    p.add_argument("--in", dest="input", required=True, help="input PGM/PPM image")
    p.add_argument("--out", required=True, help="output base path (.f32 + .json sidecar)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("train", help="two-phase training (LFCR, then frozen-LFCR + VDSR)")
    p.add_argument("--sensor", required=True, choices=SENSOR_CHOICES, help="sensor kind")
    p.add_argument("--mask", help="NRSMASK file (required unless low-resolution)")
    p.add_argument("--data", required=True, help="directory of grayscale training images")
    p.add_argument("--config", help="key=value training config file")
    p.add_argument("--out", required=True, help="output directory (checkpoints + CSV logs)")
    p.add_argument("--epochs", type=int, help="override config epochs")
    p.add_argument("--batch-size", type=int, help="override config batch size")
    p.add_argument("--lr", type=float, help="override config initial learning rate")
    p.add_argument("--shift-da", type=int, choices=SHIFT_FACTOR_CHOICES,
                   help="shift data-augmentation factor (default: config shift set)")
    p.add_argument("--no-flips", action="store_true", help="disable flip/rotate augmentation")
    p.add_argument("--phase", choices=("both", "lfcr", "vdsr"), default="both",
                   help="which training phase(s) to run (default both)")
    p.add_argument("--seed", type=int, help="override config seed")
    p.add_argument("--resume", action="store_true",
                   help="continue from the latest checkpoint in --out")
    p.add_argument("--threads", type=int, help="BLAS thread cap (1 = bit-exact mode)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("reconstruct", help="reconstruct image(s) from a checkpoint")
    p.add_argument("--sensor", required=True, choices=SENSOR_CHOICES, help="sensor kind")
    p.add_argument("--mask", help="NRSMASK file (required unless low-resolution)")
    p.add_argument("--checkpoint", required=True, help="NRSR1 checkpoint file")
    p.add_argument("--in", dest="input", required=True, help="input PGM/PPM image")
    p.add_argument("--out", required=True, help="output image (.pgm) or raw base (.f32)")
    p.add_argument("--stage", choices=("lfcr", "full"), default="full",
                   help="stop after LFCR or run LFCR+VDSR (default full)")
    p.add_argument("--threads", type=int, help="BLAS thread cap (1 = bit-exact mode)")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("evaluate", help="PSNR/SSIM report over a dataset directory")
    p.add_argument("--dataset", required=True, help="directory of PGM/PPM images")
    p.add_argument("--methods", default="bicubic",
                   help="comma list of reference,bicubic,lfcr,lfcr+vdsr (default bicubic)")
    p.add_argument("--checkpoint", help="NRSR1 checkpoint for the lfcr/lfcr+vdsr methods")
    p.add_argument("--out", help="write per-image CSV here (default stdout table)")
    p.add_argument("--summary", help="write dataset-mean summary JSON here")
    p.add_argument("--threads", type=int, help="BLAS thread cap (1 = bit-exact mode)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gradcheck", help="finite-difference validation of every operator")
    p.add_argument("--seed", type=int, default=0, help="seed for shapes and samples")
    p.add_argument("--tolerance", type=float, default=1e-4,
                   help="max relative error accepted (default 1e-4)")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("curves", help="shift-augmentation PSNR-gain curve CSV")
    p.add_argument("--dataset", required=True, help="directory of PGM/PPM images")
    p.add_argument("--factors", default="1,4,8,16",
                   help="comma list of shift factors (default 1,4,8,16)")
    p.add_argument("--checkpoint-pattern", required=True,
                   help="checkpoint path template with {factor}, e.g. run-f{factor}/final.nrsr")
    p.add_argument("--stage", choices=("lfcr", "full"), default="full",
                   help="reconstruction stage to score (default full)")
    p.add_argument("--out", help="write curve CSV here (default stdout)")
    p.add_argument("--threads", type=int, help="BLAS thread cap (1 = bit-exact mode)")
    p.set_defaults(func=cmd_curves)

    return parser


def _load_mask_for(sensor: str, mask_path: str | None):
    from .masks import load_mask

    if sensor == "low-resolution":
        return None
    if not mask_path:
        raise UsageError(f"--mask is required for sensor '{sensor}'")
    mask = load_mask(mask_path)
    if mask.kind != sensor:
        raise UsageError(f"mask kind '{mask.kind}' does not match sensor '{sensor}'")
    return mask


class UsageError(ValueError):
    pass


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise UsageError(f"--seed must be >= 0, got {seed}")


def cmd_mask(args) -> int:
    from .masks import generate_mask, quadrant_histogram, save_mask

    _check_seed(args.seed)
    mask = generate_mask(args.kind, args.seed)
    save_mask(mask, args.out)
    hist = quadrant_histogram(mask)
    print(f"wrote {args.out}")
    print("quadrant histogram: " + " ".join(f"{q}:{hist[q]}" for q in range(4)))
    return EXIT_OK


def cmd_sample(args) -> int:
    import numpy as np

    from .imageio import read_image_gray, save_raw
    from .sensors import sample, sensitivity_tile

    mask = _load_mask_for(args.sensor, args.mask)
    image = np.asarray(read_image_gray(args.input), dtype=np.float32)
    meta = {"sensor": args.sensor, "source": os.path.basename(args.input),
            "mask": os.path.basename(args.mask) if args.mask else None,
            "hr_dims": list(image.shape)}
    values = sample(image, sensitivity_tile(mask, args.sensor))
    raw, sidecar = save_raw(args.out, values, meta)
    print(f"wrote {raw} and {sidecar}")
    return EXIT_OK


def _load_dataset_images(data_dir: str):
    import numpy as np

    from .evaluate import list_dataset
    from .imageio import read_image_gray

    paths = list_dataset(data_dir)
    if not paths:
        raise UsageError(f"no PGM/PPM images found in {data_dir}")
    images = [np.asarray(read_image_gray(p), dtype=np.float32) for p in paths]
    return images, [p.name for p in paths]


def _checkpoint_for(path, sensor: str | None = None, mask=None):
    """Load ``path``; with ``sensor`` (and ``mask``), check it was trained for them."""
    import numpy as np

    from .checkpoint import load_checkpoint

    ck = load_checkpoint(path)
    if ck.lfcr is None:
        raise UsageError(f"{path}: no LFCR model records")
    if sensor is not None and ck.lfcr.sensor_kind != sensor:
        raise UsageError(f"checkpoint was trained for sensor '{ck.lfcr.sensor_kind}', not '{sensor}'")
    if mask is not None and not np.array_equal(mask.pattern, ck.lfcr.mask.pattern):
        raise UsageError("mask file does not match the checkpoint's mask pattern")
    return ck


def _models_for(method: str, ck) -> dict | None:
    """The models ``method`` runs on, as keyword arguments; None when ``ck`` lacks them."""
    if method not in STAGE_METHODS.values():
        return {}
    if ck is None or (method == "lfcr+vdsr" and ck.vdsr is None):
        return None
    return {"lfcr": ck.lfcr, "vdsr": ck.vdsr}


def _newest_checkpoint(args, ckdir, mask, phase: str):
    """The newest ``<phase>-epochNNNN.nrsr`` in ``ckdir``, or None if there is none.

    Newest means the highest epoch number. It must match --sensor and
    --mask. With --resume each phase that runs continues its own newest
    checkpoint; --phase vdsr trains on the LFCR of the newest phase-1 one.
    """
    by_epoch = {int(m[1]): path for path in ckdir.glob(f"{phase}-epoch*.nrsr")
                if (m := re.fullmatch(rf"{phase}-epoch(\d+)\.nrsr", path.name))}
    if not by_epoch:
        return None
    path = by_epoch[max(by_epoch)]
    ck = _checkpoint_for(path, args.sensor, mask)
    print(f"{'resuming' if args.resume else 'starting'} from {path} "
          f"(phase {ck.phase}, epoch {ck.epoch})")
    return ck


def cmd_train(args) -> int:
    from dataclasses import replace
    from pathlib import Path

    from .checkpoint import save_checkpoint
    from .lfcr import build_lfcr
    from .training import (SHIFT_FACTORS, ConfigError, TrainConfig, build_patch_set, load_config,
                           read_log_csv, save_config, train_lfcr, train_vdsr, write_log_csv)
    from .vdsr import build_vdsr

    mask = _load_mask_for(args.sensor, args.mask)
    config = load_config(args.config) if args.config else TrainConfig()
    overrides = {}
    if args.epochs is not None:
        overrides["epochs"] = args.epochs
    if args.batch_size is not None:
        overrides["batch_size"] = args.batch_size
    if args.lr is not None:
        overrides["initial_lr"] = args.lr
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.shift_da is not None:
        overrides["shift_set"] = SHIFT_FACTORS[args.shift_da]
    if args.no_flips:
        overrides["flips_rotations"] = False
    if overrides:
        config = replace(config, **overrides)

    out = Path(args.out)
    ckdir = out / "checkpoints"
    # with --resume each phase that runs continues its own newest checkpoint, if it has one
    resumed = {phase: _newest_checkpoint(args, ckdir, mask, phase) for phase in ("lfcr", "vdsr")
               if args.resume and args.phase in ("both", phase)}
    start = resumed.get("lfcr")
    if args.phase == "vdsr" and not (start := _newest_checkpoint(args, ckdir, mask, "lfcr")):
        raise UsageError(f"--phase vdsr needs a phase-1 checkpoint (lfcr-epoch*.nrsr) in {ckdir}")
    # a resumed phase keeps the logged rows of the epochs its checkpoint covers
    kept = {}
    for phase, ck in resumed.items():
        log = out / f"{phase}_train_log.csv"
        kept[phase] = ([row for row in read_log_csv(log) if row.epoch <= ck.epoch]
                       if ck and ck.epoch and log.exists() else [])
    # read the data before anything is written to --out
    images, ids = _load_dataset_images(args.data)
    patch_set = build_patch_set(images, config, image_ids=ids)
    if len(patch_set) == 0:
        raise ConfigError("empty patch set")
    out.mkdir(parents=True, exist_ok=True)
    save_config(config, out / "train_config.txt")
    print(f"training samples: {len(patch_set)} "
          f"({len(images)} images, shift x{len(config.shift_set)}, "
          f"flips {'x8' if config.flips_rotations else 'off'})")

    lfcr_model = start.lfcr if start else build_lfcr(mask, args.sensor, seed=config.seed)
    vdsr_model = None

    def run(phase: str, train, *models) -> None:
        # the phase adds each finished epoch's rows to the kept ones
        log = out / f"{phase}_train_log.csv"
        write_log_csv(log, kept.get(phase, []))
        res = train(*models, patch_set, config, checkpoint_dir=ckdir, log_path=log,
                    resume_from=resumed.get(phase))
        print(f"phase {phase} done: {len(res.rows)} steps" + (
            f", final epoch loss {res.epoch_losses[-1]:.6g}" if res.epoch_losses else ""))

    if args.phase != "vdsr":
        run("lfcr", train_lfcr, lfcr_model)
    if args.phase != "lfcr":
        # phase 2 continues its checkpoint only on the LFCR it is about to train on
        ck = resumed.get("vdsr")
        if ck and not all(p.data.tobytes() == q.data.tobytes() for (_, p), (_, q)
                          in zip(ck.lfcr.named_parameters(), lfcr_model.named_parameters())):
            print(f"phase vdsr starts afresh: its epoch-{ck.epoch} checkpoint holds another LFCR")
            ck = resumed["vdsr"] = None
            kept["vdsr"] = []
        vdsr_model = ck.vdsr if ck else build_vdsr(seed=config.seed + 1)
        run("vdsr", train_vdsr, lfcr_model, vdsr_model)

    final = out / "final.nrsr"
    save_checkpoint(final, lfcr=lfcr_model, vdsr=vdsr_model)
    print(f"wrote {final}")
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    from .evaluate import reconstruct_image
    from .imageio import read_image_gray, save_raw, write_pgm

    mask = _load_mask_for(args.sensor, args.mask)
    method = STAGE_METHODS[args.stage]
    models = _models_for(method, _checkpoint_for(args.checkpoint, args.sensor, mask))
    if models is None:
        raise UsageError(f"{args.checkpoint}: no VDSR records; use --stage lfcr")

    image = read_image_gray(args.input)
    out = reconstruct_image(image, method, **models)
    if args.out.endswith(".f32"):
        save_raw(args.out, out,
                 {"sensor": args.sensor, "stage": args.stage,
                  "source": os.path.basename(args.input)})
    else:
        write_pgm(args.out, out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    from pathlib import Path

    from .evaluate import METHODS, evaluate

    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in METHODS:
            raise UsageError(f"unknown method '{m}' (choose from {', '.join(METHODS)})")

    ck = None
    if args.checkpoint and Path(args.checkpoint).exists():
        ck = _checkpoint_for(args.checkpoint)

    reports = []
    absent = []
    for method in methods:
        models = _models_for(method, ck)
        if models is None:
            absent.append(method)
        else:
            reports.append(evaluate(method, args.dataset, **models))

    csv_lines = ["image,method,sensor,psnr_db,ssim"]
    for rep in reports:
        csv_lines.extend(rep.to_csv().splitlines()[1:])
    for method in absent:
        csv_lines.append(f"absent,{method},absent,absent,absent")
    csv_text = "\n".join(csv_lines) + "\n"
    if args.out:
        Path(args.out).write_text(csv_text)
        print(f"wrote {args.out}")
    else:
        for rep in reports:
            print(f"== {rep.method} (sensor {rep.sensor}) ==")
            print(rep.table(), end="")
    if args.summary:
        import json

        summary = {rep.method: rep.summary() for rep in reports}
        for method in absent:
            summary[method] = {"method": method, "absent": True}
        Path(args.summary).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.summary}")
    for method in absent:
        print(f"method {method}: checkpoint missing, marked absent")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    from .gradcheck import run_standard_checks

    _check_seed(args.seed)
    results = run_standard_checks(seed=args.seed)
    worst = 0.0
    for name, err in results.items():
        status = "ok" if err <= args.tolerance else "FAIL"
        print(f"{name:24s} max rel err {err:.3e}  {status}")
        worst = max(worst, math.inf if math.isnan(err) else err)  # max() would skip a NaN
    if worst > args.tolerance:
        print(f"gradient check failed: {worst:.3e} > {args.tolerance:.1e}")
        return EXIT_NUMERIC
    print("all gradient checks passed")
    return EXIT_OK


def cmd_curves(args) -> int:
    import string
    from pathlib import Path

    from .evaluate import evaluate

    factors = []
    for part in args.factors.split(","):
        part = part.strip()
        if part:
            try:
                factors.append(int(part))
            except ValueError:
                raise UsageError(f"bad factor '{part}'")

    # {factor} and no other field: without it one checkpoint would stand for every factor
    pattern = args.checkpoint_pattern
    try:
        fields = {name for _, name, _, _ in string.Formatter().parse(pattern) if name is not None}
        paths = {factor: Path(pattern.format(factor=factor)) for factor in factors}
    except (ValueError, KeyError, IndexError):
        fields = None
    if fields != {"factor"}:
        raise UsageError(f"--checkpoint-pattern must contain {{factor}} and no other field, "
                         f"got '{pattern}'")

    method = STAGE_METHODS[args.stage]
    results: dict[int, float] = {}
    for factor, path in paths.items():
        # like evaluate, a checkpoint without the stage's models scores as absent (NaN)
        models = _models_for(method, _checkpoint_for(path) if path.exists() else None)
        results[factor] = (math.nan if models is None
                           else evaluate(method, args.dataset, **models).mean_psnr)

    base = results[factors[0]] if factors else math.nan
    lines = ["factor,psnr_db,gain_db"]
    for factor in factors:
        v = results[factor]
        if math.isnan(v):
            lines.append(f"{factor},absent,absent")
        elif math.isnan(base):
            lines.append(f"{factor},{v:.4f},absent")
        else:
            lines.append(f"{factor},{v:.4f},{v - base:.4f}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def _warning_line(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _set_threads(getattr(args, "threads", None))
        with warnings.catch_warnings():
            warnings.showwarning = _warning_line
            return args.func(args)
    except BrokenPipeError:
        return EXIT_OK
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        # covers usage, config, mask/checkpoint/image format and shape errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        # non-finite losses/gradients and friends
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
