"""Sampling mask generation, expansion and the NRSMASK file format."""

import numpy as np
import pytest

from nrsr.masks import (MaskFormatError, SamplingMask, expand_mask, generate_mask, load_mask,
                        quadrant_histogram, save_mask)


def test_same_seed_same_pattern():
    a = generate_mask("quarter", 42)
    b = generate_mask("quarter", 42)
    assert np.array_equal(a.pattern, b.pattern)
    assert not np.array_equal(a.pattern, generate_mask("quarter", 43).pattern)


def test_quarter_expansion_has_64_ones_per_tile():
    mask = generate_mask("quarter", 0)
    b = expand_mask(mask, 16, 16)
    assert b.sum() == 64


def test_three_quarter_expansion_has_192_ones_per_tile():
    mask = generate_mask("three-quarter", 0)
    b = expand_mask(mask, 16, 16)
    assert b.sum() == 3 * 64


def test_expanded_mask_is_8_periodic():
    for seed in range(5):
        for kind in ("quarter", "three-quarter"):
            b = expand_mask(generate_mask(kind, seed), 40, 48)
            assert np.array_equal(b[:-8], b[8:])
            assert np.array_equal(b[:, :-8], b[:, 8:])


def test_pattern_periodicity_enforced():
    pattern = np.zeros((8, 8), dtype=int)
    pattern[0, 0] = 1  # breaks the 4-cell periodicity
    with pytest.raises(MaskFormatError, match="period"):
        SamplingMask(kind="quarter", pattern=pattern)


def test_quadrant_digits_validated():
    pattern = np.full((8, 8), 4)
    with pytest.raises(MaskFormatError, match="0..3"):
        SamplingMask(kind="quarter", pattern=pattern)
    with pytest.raises(MaskFormatError, match="kind"):
        SamplingMask(kind="half", pattern=np.zeros((8, 8), dtype=int))


def test_odd_dims_rejected():
    mask = generate_mask("quarter", 0)
    with pytest.raises(MaskFormatError, match="multiples of 2"):
        expand_mask(mask, 15, 16)


def test_quadrant_frequencies_over_many_seeds():
    # informational multinomial bound: each digit near 25% +- 5%
    counts = np.zeros(4)
    for seed in range(1000):
        hist = quadrant_histogram(generate_mask("quarter", seed))
        for q in range(4):
            counts[q] += hist[q]
    freqs = counts / counts.sum()
    assert np.all(np.abs(freqs - 0.25) < 0.05)


def test_quarter_three_quarter_duality():
    # same pattern: measured quadrant (quarter) is exactly the covered one (TQS)
    for seed in range(5):
        q = generate_mask("quarter", seed)
        tq = SamplingMask(kind="three-quarter", pattern=q.pattern, seed=seed)
        bq = expand_mask(q, 32, 32)
        btq = expand_mask(tq, 32, 32)
        assert np.array_equal(bq + btq, np.ones((32, 32), dtype=bq.dtype))


def test_file_round_trip(tmp_path):
    mask = generate_mask("three-quarter", 9)
    path = tmp_path / "m.nrsmask"
    save_mask(mask, path)
    text = path.read_text()
    assert text.startswith("NRSMASK three-quarter 9\n")
    assert len(text.splitlines()) == 9
    loaded = load_mask(path)
    assert loaded.kind == mask.kind
    assert loaded.seed == 9
    assert np.array_equal(loaded.pattern, mask.pattern)


def test_external_mask_seed_tag(tmp_path):
    mask = generate_mask("quarter", 3)
    path = tmp_path / "m.nrsmask"
    lines = ["NRSMASK quarter external"]
    lines += ["".join(str(d) for d in row) for row in mask.pattern]
    path.write_text("\n".join(lines) + "\n")
    loaded = load_mask(path)
    assert loaded.seed == "external"


@pytest.mark.parametrize("token", ["--5", "5²"])
def test_seed_that_is_no_integer_is_kept_as_a_tag(tmp_path, token):
    mask = generate_mask("quarter", 3)
    path = tmp_path / "m.nrsmask"
    lines = [f"NRSMASK quarter {token}"] + ["".join(str(d) for d in row) for row in mask.pattern]
    path.write_text("\n".join(lines) + "\n")
    loaded = load_mask(path)
    assert loaded.seed == token
    assert np.array_equal(loaded.pattern, mask.pattern)


@pytest.mark.parametrize("mutate, message", [
    (lambda lines: ["BOGUS quarter 0"] + lines[1:], "header"),
    (lambda lines: lines[:5], "pattern lines"),
    (lambda lines: lines[:1] + ["9" * 8] + lines[2:], "bad pattern line"),
    (lambda lines: lines[:1] + ["012"] + lines[2:], "bad pattern line"),
])
def test_malformed_files_rejected(tmp_path, mutate, message):
    mask = generate_mask("quarter", 0)
    good = ["NRSMASK quarter 0"] + ["".join(str(d) for d in row) for row in mask.pattern]
    path = tmp_path / "bad.nrsmask"
    path.write_text("\n".join(mutate(good)) + "\n")
    with pytest.raises(MaskFormatError, match=message):
        load_mask(path)


def test_non_periodic_file_rejected(tmp_path):
    rows = ["00000000"] * 8
    rows[0] = "10000000"
    path = tmp_path / "aperiodic.nrsmask"
    path.write_text("NRSMASK quarter 0\n" + "\n".join(rows) + "\n")
    with pytest.raises(MaskFormatError, match="period"):
        load_mask(path)
