"""Periodic sampling masks for quarter and three-quarter sensors.

A mask assigns one quadrant index to every 2x2 cell of the high
resolution grid: the measured quadrant for quarter sampling, the
covered quadrant for three-quarter sampling. The stored pattern is an
8x8 grid of quadrant digits covering a 16x16 HR tile (one support
block), but the expanded binary mask must repeat every 8 HR pixels, so
the pattern carries a 4x4-cell periodicity: entry (r, c) equals entries
(r+4, c) and (r, c+4). Generation draws the free 4x4 tile and repeats
it; external mask files are validated against the same constraint.

Quadrant digits index the 2x2 cell row-major: 0 top-left, 1 top-right,
2 bottom-left, 3 bottom-right.

File format (text)::

    NRSMASK <kind> <seed>
    <8 lines of 8 quadrant digits>
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

QUARTER = "quarter"
THREE_QUARTER = "three-quarter"
LOW_RESOLUTION = "low-resolution"
MASKED_KINDS = (QUARTER, THREE_QUARTER)
SENSOR_KINDS = (QUARTER, THREE_QUARTER, LOW_RESOLUTION)

PATTERN_CELLS = 8   # pattern grid is 8x8 cells (16x16 HR pixels)
PERIOD_CELLS = 4    # free tile is 4x4 cells (8x8 HR pixels)


class MaskFormatError(ValueError):
    """Raised for malformed or inconsistent mask data."""


@dataclass(frozen=True)
class SamplingMask:
    kind: str
    pattern: np.ndarray  # (8, 8) int array of quadrant digits
    seed: int | str = "external"

    def __post_init__(self):
        if self.kind not in MASKED_KINDS:
            raise MaskFormatError(f"unknown mask kind '{self.kind}'")
        pat = np.asarray(self.pattern, dtype=np.int64)
        if pat.shape != (PATTERN_CELLS, PATTERN_CELLS):
            raise MaskFormatError(f"pattern must be {PATTERN_CELLS}x{PATTERN_CELLS}, got {pat.shape}")
        if pat.min() < 0 or pat.max() > 3:
            raise MaskFormatError("quadrant digits must be in 0..3")
        if not (np.array_equal(pat, np.roll(pat, PERIOD_CELLS, axis=0))
                and np.array_equal(pat, np.roll(pat, PERIOD_CELLS, axis=1))):
            raise MaskFormatError(
                "pattern must repeat every 4 cells so the expanded mask has period 8 HR pixels"
            )
        pat.setflags(write=False)
        object.__setattr__(self, "pattern", pat)

    def cell_quadrants(self, cells_h: int, cells_w: int) -> np.ndarray:
        """Quadrant digit per cell for a cells_h x cells_w grid anchored at the origin."""
        rows = np.arange(cells_h) % PATTERN_CELLS
        cols = np.arange(cells_w) % PATTERN_CELLS
        return self.pattern[np.ix_(rows, cols)]


def generate_mask(kind: str, seed: int) -> SamplingMask:
    """Seeded uniform quadrant choice per free cell, tiled to the 8x8 pattern.

    Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    tile = rng.integers(0, 4, size=(PERIOD_CELLS, PERIOD_CELLS))
    pattern = np.tile(tile, (PATTERN_CELLS // PERIOD_CELLS, PATTERN_CELLS // PERIOD_CELLS))
    return SamplingMask(kind=kind, pattern=pattern, seed=seed)


def expand_mask(mask: SamplingMask, h: int, w: int) -> np.ndarray:
    """Binary HR mask b of shape (h, w): 1 = measured (quarter) / uncovered (three-quarter)."""
    if h % 2 or w % 2:
        raise MaskFormatError(f"dimensions must be multiples of 2, got {h}x{w}")
    quad = mask.cell_quadrants(h // 2, w // 2)
    b = np.zeros((h, w), dtype=np.uint8)
    for q in range(4):
        dy, dx = divmod(q, 2)
        plane = b[dy::2, dx::2]
        if mask.kind == QUARTER:
            plane[quad == q] = 1
        else:
            plane[quad != q] = 1
    return b


def save_mask(mask: SamplingMask, path: str | Path) -> None:
    lines = [f"NRSMASK {mask.kind} {mask.seed}"]
    for row in mask.pattern:
        lines.append("".join(str(int(d)) for d in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_mask(path: str | Path) -> SamplingMask:
    text = Path(path).read_text()
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("NRSMASK"):
        raise MaskFormatError(f"{path}: missing NRSMASK header")
    head = lines[0].split()
    if len(head) != 3:
        raise MaskFormatError(f"{path}: header must be 'NRSMASK <kind> <seed>'")
    _, kind, seed_s = head
    try:
        seed: int | str = int(seed_s)
    except ValueError:
        seed = seed_s  # a tag such as "external"
    if len(lines) != 1 + PATTERN_CELLS:
        raise MaskFormatError(f"{path}: expected {PATTERN_CELLS} pattern lines")
    rows = []
    for ln in lines[1:]:
        if len(ln) != PATTERN_CELLS or not set(ln) <= set("0123"):
            raise MaskFormatError(f"{path}: bad pattern line '{ln}'")
        rows.append([int(ch) for ch in ln])
    return SamplingMask(kind=kind, pattern=np.array(rows), seed=seed)


def quadrant_histogram(mask: SamplingMask) -> dict[int, int]:
    """Count of each quadrant digit over the 8x8 pattern."""
    return {q: int(np.sum(mask.pattern == q)) for q in range(4)}
