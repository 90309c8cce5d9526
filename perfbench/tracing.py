"""Spans, unit clock and the wrappers that trace nrsr from outside.

Nothing here edits the program. Wrappers are installed as module
attributes where each name is looked up at call time (``nrsr.lfcr.conv2d``,
``nrsr.training.adam_step``, ...), because the modules bind names with
``from .tensor import conv2d``; patching ``nrsr.tensor.conv2d`` alone would
miss every call. Backward time is caught by wrapping the ``_backward``
closure of each Tensor a traced op returns.

A span is ``[name, start, end, parent, unit, extra]``: the parent is the
index of the enclosing span, the unit the index of the timed unit (a
training step or an evaluation pass) it ran in, and ``extra`` holds counts
measured at the same boundary (computed FLOPs and bytes).
"""

from __future__ import annotations

import math
import os
import statistics
import time


class TimeUp(Exception):
    """Raised from inside a training step once the measured window is over."""


class Tracer:
    """Span recorder; spans stay in memory until the run writes them out."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.unit: int | None = None
        self.ops_on = False

    def begin(self, name: str, extra: dict | None = None) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.unit, extra])
        self.stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        if self.stack.pop() != sid:
            raise RuntimeError(f"span {self.spans[sid][0]} closed out of order")

    def end_if_top(self, name: str) -> None:
        if self.stack and self.spans[self.stack[-1]][0] == name:
            self.end(self.stack[-1])

    def close_all(self) -> None:
        """End every open span, e.g. after a step raised."""
        while self.stack:
            self.end(self.stack[-1])


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[3] is not None:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out = []
    for sid, s in enumerate(spans):
        start, end = s[1], s[2]
        covered, reach = 0.0, start
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append(end - start - covered)
    return out


def tail_percentile(values: list[float], beyond: int = 10):
    """Highest of the usual percentiles with at least ``beyond`` samples above it.

    Returns ``(percentile, value)`` with the nearest-rank value, so it is
    always a measured sample, or ``None`` when even the median has fewer
    than ``beyond`` samples above it.
    """
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(n * p / 100.0)
        if rank >= 1 and n - rank >= beyond:
            return p, sorted(values)[rank - 1]
    return None


class Patcher:
    """Sets attributes and puts the previous values back in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, obj, name: str, value) -> None:
        self._saved.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def mark(self) -> int:
        return len(self._saved)

    def restore(self, mark: int = 0) -> None:
        while len(self._saved) > mark:
            obj, name, old = self._saved.pop()
            setattr(obj, name, old)


class UnitClock:
    """Marks timed units and runs the warm-up / timed phase schedule.

    ``phases`` is a list of ``(name, kind, amount, on_start)``: kind
    ``"units"`` ends after ``amount`` units, kind ``"seconds"`` ends once
    another unit of median length would overrun ``amount`` seconds (after
    at least ``min_units`` units). ``on_start`` runs when the phase begins,
    between units.
    """

    def __init__(self, tracer: Tracer, phases, min_units: int = 2, data_wait: bool = False):
        self.tracer = tracer
        self.phases = phases
        self.min_units = min_units
        self.data_wait = data_wait
        self.units: list[tuple[str, float, float]] = []   # (phase, start, end)
        self._phase = 0
        self._phase_start = 0.0
        self._sid = None
        self._start = 0.0

    @property
    def phase(self) -> str:
        return self.phases[self._phase][0]

    def start(self) -> None:
        self._begin_phase(0)
        self._begin_unit()

    def _begin_phase(self, i: int) -> None:
        self._phase = i
        hook = self.phases[i][3]
        if hook is not None:
            hook()
        self._phase_start = time.perf_counter()

    def _begin_unit(self) -> None:
        self.tracer.unit = len(self.units)
        self._sid = self.tracer.begin("unit")
        self._start = self.tracer.spans[self._sid][1]
        if self.data_wait and self.tracer.ops_on:
            self.tracer.begin("training.data_wait")

    def unit_done(self) -> bool:
        """Close the current unit; open the next one and return True unless the run is over."""
        self.tracer.end_if_top("training.data_wait")
        self.tracer.end(self._sid)
        end = self.tracer.spans[self._sid][2]
        name, kind, amount, _ = self.phases[self._phase]
        self.units.append((name, self._start, end))
        done = [e - s for p, s, e in self.units if p == name]
        if kind == "units":
            over = len(done) >= amount
        else:
            over = (len(done) >= self.min_units
                    and end - self._phase_start + statistics.median(done) > amount)
        if over:
            if self._phase + 1 == len(self.phases):
                self.tracer.unit = None
                return False
            self._begin_phase(self._phase + 1)
        self._begin_unit()
        return True

    def durations(self, phase: str) -> list[float]:
        return [e - s for p, s, e in self.units if p == phase]


# ---------------------------------------------------------------- wrappers

METHOD_LABEL = {"bicubic": "bicubic", "lfcr": "lfcr", "lfcr+vdsr": "full"}


def _conv_counts(x, weights, bias, spec) -> dict:
    b, c, h, w = x.data.shape
    oh, ow = spec.out_size(h, w)
    taps = c * spec.kernel_h * spec.kernel_w * b * oh * ow
    return {"flop": 2 * spec.out_channels * taps, "cols_bytes": taps * x.data.itemsize}


def _op(tracer: Tracer, fn, name, counts=None):
    """Trace a Tensor op: a span for the call, one for its backward closure."""

    def traced(*args, **kwargs):
        base = name(*args) if callable(name) else name
        extra = counts(*args) if counts is not None else {}
        sid = tracer.begin(base + ".fwd", extra)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(sid)
        if out._parents:
            extra["graph_bytes"] = out.data.nbytes
        inner = out._backward
        if inner is not None:
            bwd = base + ".bwd"

            def traced_backward(g):
                s = tracer.begin(bwd)
                try:
                    inner(g)
                finally:
                    tracer.end(s)

            out._backward = traced_backward
        return out

    return traced


def _call(tracer: Tracer, fn, name, after=None, close_wait=False):
    """Trace a plain call; ``after(args, result, extra)`` adds counts."""

    def traced(*args, **kwargs):
        if close_wait:
            tracer.end_if_top("training.data_wait")
        extra = {}
        sid = tracer.begin(name(*args) if callable(name) else name, extra)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(sid)
        if after is not None:
            after(args, out, extra)
        return out

    return traced


def _file_bytes(args, out, extra) -> None:
    extra["bytes"] = os.path.getsize(args[0])


def _image_name(args, out, extra) -> None:
    extra["image"] = os.path.basename(str(args[0]))


def install_ops(tracer: Tracer, patcher: Patcher, nrsr) -> None:
    """Wrap every traced public function of ``nrsr`` where its callers look it up."""
    conv_name = lambda x, w, b, spec: f"tensor.conv2d_k{spec.kernel_h}"  # noqa: E731
    by_method = lambda prefix: lambda method, *a: f"{prefix}.{METHOD_LABEL.get(method, method)}"  # noqa: E731
    recon_name = lambda f, method, *a: f"evaluate.reconstruct_image.{METHOD_LABEL.get(method, method)}"  # noqa: E731
    other = "tensor.other"
    ops = {
        nrsr.lfcr: {"conv2d": (conv_name, _conv_counts), "prelu": ("tensor.prelu", None),
                    "deconv2d": ("tensor.deconv2d", None), "scale": (other, None),
                    "concat_channels": (other, None), "take_channels": (other, None),
                    "add_channel_bias": (other, None)},
        nrsr.vdsr: {"conv2d": (conv_name, _conv_counts), "prelu": ("tensor.prelu", None),
                    "scale": (other, None), "add": (other, None),
                    "add_channel_bias": (other, None)},
        nrsr.sensors: {"vectorize_tensor": ("sensors.vectorize_tensor", None)},
        nrsr.training: {"mse_loss": ("tensor.mse_loss", None)},
    }
    for module, table in ops.items():
        for attr, (name, counts) in table.items():
            patcher.set(module, attr, _op(tracer, getattr(module, attr), name, counts))
    calls = [
        (nrsr.training, "build_patch_set", "training.build_patch_set", None),
        (nrsr.training, "save_checkpoint", "checkpoint.save_checkpoint", _file_bytes),
        (nrsr.checkpoint, "save_checkpoint", "checkpoint.save_checkpoint", _file_bytes),
        (nrsr.checkpoint, "load_checkpoint", "checkpoint.load_checkpoint", None),
        (nrsr.evaluate, "evaluate", by_method("evaluate.evaluate"), None),
        (nrsr.evaluate, "reconstruct_image", recon_name, None),
        (nrsr.evaluate, "pad_to_multiple", "evaluate.pad_to_multiple", None),
        (nrsr.evaluate, "read_image_gray", "imageio.read_image_gray", _image_name),
        (nrsr.evaluate, "bicubic_upscale", "metrics.bicubic_upscale", None),
        (nrsr.evaluate, "psnr", "metrics.psnr", None),
        (nrsr.evaluate, "ssim", "metrics.ssim", None),
        (nrsr.tensor.Tensor, "backward", "tensor.backward", None),
        (nrsr.vdsr.VdsrModel, "forward_t", "vdsr.forward_t", None),
    ]
    for obj, attr, name, after in calls:
        patcher.set(obj, attr, _call(tracer, getattr(obj, attr), name, after))
    # the first model call of a training step ends the wait for its batch
    patcher.set(nrsr.lfcr.LfcrModel, "forward_t",
                _call(tracer, nrsr.lfcr.LfcrModel.forward_t, "lfcr.forward_t", close_wait=True))
    tracer.ops_on = True


# ----------------------------------------------------------------- metrics

FWD_BWD_OPS = ("tensor.conv2d_k1", "tensor.conv2d_k3", "tensor.prelu", "tensor.deconv2d",
               "sensors.vectorize_tensor", "tensor.mse_loss", "tensor.other")
COUNTED = ("tensor.conv2d_k1", "tensor.conv2d_k3", "tensor.prelu", "tensor.deconv2d",
           "sensors.vectorize_tensor")
PER_UNIT_SELF = {
    "tensor.backward.self_ms": "tensor.backward",
    "lfcr.forward_t.self_ms": "lfcr.forward_t",
    "vdsr.forward_t.self_ms": "vdsr.forward_t",
    "optim.adam_step.ms": "optim.adam_step",
    "training.data_wait_ms": "training.data_wait",
    "evaluate.pad_to_multiple.ms": "evaluate.pad_to_multiple",
    "metrics.ssim.ms": "metrics.ssim",
    "metrics.psnr.ms": "metrics.psnr",
    "metrics.bicubic_upscale.ms": "metrics.bicubic_upscale",
    "imageio.read_image_gray.ms": "imageio.read_image_gray",
}
MIB = float(1 << 20)


def layer_metrics(tracer: Tracer, clock: UnitClock, mpix_per_eval: float) -> dict[str, float]:
    """Per-layer metrics from the spans of the units of the ``traced`` phase.

    Times are summed self time per unit in ms unless the name says
    otherwise; ``.calls`` counts per unit; ``*_mb`` are computed bytes per
    unit (MiB). Set-up spans (outside any unit) give the ``.s`` / load
    figures; checkpoint saves are averaged per save over every traced save.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    units = {i for i, (p, _, _) in enumerate(clock.units) if p == "traced"}
    n = max(len(units), 1)
    self_sum: dict[str, float] = {}
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    extra: dict[str, float] = {}
    saves = []
    setup: dict[str, float] = {}
    for s, own in zip(spans, selfs):
        name, start, end, _, unit, ex = s
        if name == "checkpoint.save_checkpoint":
            saves.append((end - start, ex["bytes"]))
        if unit is None:
            setup[name] = setup.get(name, 0.0) + end - start
            continue
        if unit not in units or name == "unit":
            continue
        self_sum[name] = self_sum.get(name, 0.0) + own
        total[name] = total.get(name, 0.0) + end - start
        calls[name] = calls.get(name, 0) + 1
        for key, value in (ex or {}).items():
            if key != "image":
                extra[f"{name}.{key}"] = extra.get(f"{name}.{key}", 0.0) + value

    m: dict[str, float] = {}
    for op in FWD_BWD_OPS:
        m[f"{op}.fwd_ms"] = 1e3 * self_sum.get(op + ".fwd", 0.0) / n
        m[f"{op}.bwd_ms"] = 1e3 * self_sum.get(op + ".bwd", 0.0) / n
    for op in COUNTED:
        m[f"{op}.calls"] = calls.get(op + ".fwd", 0) / n
    k3 = self_sum.get("tensor.conv2d_k3.fwd", 0.0)
    m["tensor.conv2d_k3.gflop_per_s"] = extra.get("tensor.conv2d_k3.fwd.flop", 0.0) / k3 / 1e9 if k3 else 0.0
    m["tensor.conv2d_k3.cols_mb"] = extra.get("tensor.conv2d_k3.fwd.cols_bytes", 0.0) / n / MIB
    m["tensor.graph_mb"] = sum(v for k, v in extra.items() if k.endswith(".graph_bytes")) / n / MIB
    m["tensor.backward.calls"] = calls.get("tensor.backward", 0) / n
    for metric, name in PER_UNIT_SELF.items():
        m[metric] = 1e3 * self_sum.get(name, 0.0) / n
    m["optim.adam_step.calls"] = calls.get("optim.adam_step", 0) / n
    m["training.build_patch_set.s"] = setup.get("training.build_patch_set", 0.0)
    m["checkpoint.load_checkpoint.ms"] = 1e3 * setup.get("checkpoint.load_checkpoint", 0.0)
    m["checkpoint.save_checkpoint.ms"] = 1e3 * statistics.fmean(d for d, _ in saves) if saves else 0.0
    m["checkpoint.save_checkpoint.mb"] = statistics.fmean(b for _, b in saves) / MIB if saves else 0.0
    m["checkpoint.save_checkpoint.calls"] = calls.get("checkpoint.save_checkpoint", 0) / n
    for label in METHOD_LABEL.values():
        m[f"evaluate.reconstruct_image.{label}.ms"] = (
            1e3 * total.get(f"evaluate.reconstruct_image.{label}", 0.0) / n)
        busy = total.get(f"evaluate.evaluate.{label}", 0.0)
        m[f"evaluate.evaluate.{label}.mpix_per_s"] = (
            mpix_per_eval * calls.get(f"evaluate.evaluate.{label}", 0) / busy if busy else 0.0)

    walls = clock.durations("traced")
    m["trace.coverage"] = sum(self_sum.values()) / sum(walls) if walls else 0.0
    base = clock.durations("untraced")
    m["trace.unit_ms"] = 1e3 * statistics.median(walls) if walls else 0.0
    m["trace.overhead_ms"] = m["trace.unit_ms"] - 1e3 * statistics.median(base) if base and walls else 0.0
    return m
