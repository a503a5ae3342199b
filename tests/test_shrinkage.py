"""Soft-threshold laws: dead zones, universal threshold, compression."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ufg.shrinkage import (
    THRESHOLD_MODES,
    ThresholdConfig,
    compression_ratio,
    compute_threshold,
    count_nonzero,
    shrink_stack,
    soft_threshold,
    stack_thresholds,
)

# Universal threshold values recomputed at 30-digit decimal precision and
# frozen; the float formula agrees to within one ulp.
THRESHOLD_N8_SIGMA1 = 0.7210134433004414
THRESHOLD_N2708_SIGMA1 = 0.07640348868174561

SIGMA_GRID = (0.0, 0.5, 1.0, 2.0, 4.0, np.inf)


def _stack(rng, n=10, levels=2, features=3):
    """``(levels + 1, n, features)`` coefficients of one high pass: the low
    pass (0, levels) at 0, then (1, j) at j."""
    return rng.normal(size=(levels + 1, n, features))


def test_soft_threshold_oracles():
    assert soft_threshold(0.5, 0.2) == pytest.approx(0.3)
    assert soft_threshold(-0.1, 0.2) == 0.0
    assert soft_threshold(-0.7, 0.2) == pytest.approx(-0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        soft_threshold(1.0, -0.1)


@given(
    st.floats(-10, 10, allow_nan=False),
    st.floats(-10, 10, allow_nan=False),
    st.floats(0, 5, allow_nan=False),
)
def test_soft_threshold_nonexpansive(x, y, lam):
    assert abs(soft_threshold(x, lam) - soft_threshold(y, lam)) <= abs(x - y) + 1e-12


@given(st.floats(-10, 10, allow_nan=False), st.floats(0, 5, allow_nan=False))
def test_soft_threshold_shrinks_toward_zero(x, lam):
    out = float(soft_threshold(x, lam))
    assert abs(out) <= abs(x)
    assert out * x >= 0  # never flips sign


def test_compute_threshold_frozen_oracles():
    assert compute_threshold(8, 1.0) == pytest.approx(THRESHOLD_N8_SIGMA1, abs=1e-15)
    assert compute_threshold(2708, 1.0) == pytest.approx(
        THRESHOLD_N2708_SIGMA1, abs=1e-15
    )
    assert compute_threshold(8, 2.0) == pytest.approx(2 * THRESHOLD_N8_SIGMA1)
    # sqrt(2 ln 1) = 0: one coefficient is never shrunk.
    assert compute_threshold(1, 1.0) == 0.0
    with pytest.raises(ValueError, match="at least 1"):
        compute_threshold(0, 1.0)


def test_threshold_config_validation():
    ThresholdConfig(np.inf)  # explicitly allowed
    with pytest.raises(ValueError, match="sigma"):
        ThresholdConfig(-0.5)
    with pytest.raises(ValueError, match="sigma"):
        ThresholdConfig(np.nan)
    with pytest.raises(ValueError, match="mode"):
        ThresholdConfig(1.0, mode="local")


def test_stack_thresholds_modes(rng):
    c = _stack(rng)
    b = 1  # block (1, 1)
    base = compute_threshold(c.shape[1], 1.0)
    assert stack_thresholds(c, ThresholdConfig(1.0))[b] == pytest.approx(base)
    rms = float(np.sqrt(np.mean(c[b] ** 2)))
    scaled = stack_thresholds(c, ThresholdConfig(1.0, "energy_scaled"))[b]
    assert scaled == pytest.approx(base * rms)


def test_stack_thresholds_zero_block():
    c = np.zeros((2, 2, 1))
    c[0] = 1.0  # low pass nonzero, high pass all zero
    cfg = ThresholdConfig(np.inf, "energy_scaled")
    assert stack_thresholds(c, cfg)[1] == 0.0


def test_stack_thresholds_skips_low_pass(rng):
    c = _stack(rng, levels=3)
    th = stack_thresholds(c, ThresholdConfig(1.0))
    assert th.shape == (4,)  # one entry per block, in block order
    assert th[0] == 0.0
    np.testing.assert_array_equal(th[1:], compute_threshold(c.shape[1], 1.0))


def test_shrink_sigma_zero_is_bitwise_copy(rng):
    c = _stack(rng)
    out = shrink_stack(c, ThresholdConfig(0.0))
    np.testing.assert_array_equal(out, c)
    assert not np.shares_memory(out, c)


def test_shrink_sigma_inf_kills_high_passes(rng):
    c = _stack(rng)
    out = shrink_stack(c, ThresholdConfig(np.inf))
    np.testing.assert_array_equal(out[0], c[0])
    assert np.all(out[1:] == 0.0)


def test_shrink_low_pass_untouched(rng):
    c = _stack(rng)
    out = shrink_stack(c, ThresholdConfig(2.0, "energy_scaled"))
    np.testing.assert_array_equal(out[0], c[0])


def test_shrink_dead_zone_exact_zeros(rng):
    c = _stack(rng)
    cfg = ThresholdConfig(1.0)
    lam = compute_threshold(c.shape[1], 1.0)
    out = shrink_stack(c, cfg)
    high_in = c[1:]
    high_out = out[1:]
    assert np.all(high_out[np.abs(high_in) <= lam] == 0.0)


def test_shrink_explicit_threshold_override(rng):
    c = _stack(rng)
    frozen = np.zeros_like(stack_thresholds(c, ThresholdConfig(1.0)))
    out = shrink_stack(c, ThresholdConfig(1.0), thresholds=frozen)
    np.testing.assert_array_equal(out, c)  # zero thresholds: identity
    frozen[0] = np.inf  # the low-pass entry is never applied
    out = shrink_stack(c, ThresholdConfig(1.0), thresholds=frozen)
    np.testing.assert_array_equal(out, c)
    with pytest.raises(ValueError):
        shrink_stack(c, ThresholdConfig(1.0), thresholds=frozen[:-1])


# The per-block rule as the stack-wide functions replaced it: one threshold
# per (r, j) key of ``idx``, and one soft threshold per row slice of the flat
# ``(B n) x d`` data. Kept as the oracle the (B,) threshold array and the
# shrink of the (B, n, d) array must match bitwise.
def _reference_block_threshold(data, idx, n, r, j, cfg):
    base = compute_threshold(n, cfg.sigma) if np.isfinite(cfg.sigma) else np.inf
    if cfg.mode == "global":
        return float(base)
    b = idx.index((r, j))
    rms = float(np.sqrt(np.mean(data[b * n : (b + 1) * n] ** 2)))
    if rms == 0.0:
        return 0.0
    return float(base * rms)


def _reference_shrink(data, idx, n, cfg):
    thresholds = {
        (r, j): _reference_block_threshold(data, idx, n, r, j, cfg)
        for (r, j) in idx
        if r != 0
    }
    data = data.copy()
    if cfg.sigma == 0.0:
        return thresholds, data
    for b, (r, j) in enumerate(idx):
        if r == 0:
            continue
        lam = thresholds[(r, j)]
        rows = slice(b * n, (b + 1) * n)
        if np.isinf(lam):
            data[rows] = 0.0
        else:
            data[rows] = soft_threshold(data[rows], lam)
    return thresholds, data


@given(
    levels=st.integers(1, 3),
    num_high=st.integers(1, 2),
    n=st.integers(2, 12),
    features=st.integers(1, 4),
    zero_blocks=st.lists(st.booleans(), min_size=6, max_size=6),
    sigma=st.one_of(st.just(0.0), st.floats(0.01, 5.0), st.just(np.inf)),
    mode=st.sampled_from(THRESHOLD_MODES),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=150, deadline=None)
def test_stack_shrinkage_matches_per_block_reference(
    levels, num_high, n, features, zero_blocks, sigma, mode, seed
):
    idx = [(0, levels)] + [
        (r, j) for r in range(1, num_high + 1) for j in range(1, levels + 1)
    ]
    rng = np.random.default_rng(seed)
    data = rng.normal(scale=rng.uniform(0.1, 3.0), size=(len(idx) * n, features))
    for b, zero in enumerate(zero_blocks[: len(idx) - 1], start=1):
        if zero:
            data[b * n : (b + 1) * n] = 0.0
    c = data.reshape(len(idx), n, features)
    cfg = ThresholdConfig(sigma, mode)
    ref_thresholds, ref_data = _reference_shrink(data, idx, n, cfg)
    th = stack_thresholds(c, cfg)
    assert th.shape == (len(idx),) and th[0] == 0.0
    assert th[1:].tobytes() == np.array(list(ref_thresholds.values())).tobytes()
    assert shrink_stack(c, cfg).tobytes() == ref_data.tobytes()


def test_compression_monotone_in_sigma(rng):
    c = _stack(rng, n=30)
    ratios = [
        compression_ratio(c, shrink_stack(c, ThresholdConfig(s))) for s in SIGMA_GRID
    ]
    assert ratios[0] == 1.0
    assert all(a >= b for a, b in zip(ratios, ratios[1:]))
    total = count_nonzero(c)
    lp_nnz = int(np.count_nonzero(np.abs(c[0]) > 1e-12))
    assert ratios[-1] == pytest.approx(lp_nnz / total)


def test_compression_ratio_empty_before():
    zero = np.zeros((2, 2, 1))
    assert compression_ratio(zero, zero) == 1.0
    with pytest.raises(ValueError, match="shape"):
        compression_ratio(zero, np.zeros((2, 2, 2)))


def test_count_nonzero_tolerance():
    c = np.array([[[1.0], [1e-13]]])
    assert count_nonzero(c) == 1


@pytest.mark.parametrize("layout", ["C", "F", "read-only", "broadcast"])
def test_shrink_returns_a_new_array_and_leaves_its_input_unwritten(rng, layout):
    base = _stack(rng, n=12, levels=2, features=3)
    c = {"C": base, "F": np.asfortranarray(base),
         "read-only": base.copy(), "broadcast": np.broadcast_to(base[:, :1], base.shape)}[layout]
    if layout == "read-only":
        c.flags.writeable = False
    before = c.copy()
    for sigma in (0.0, 1.0, np.inf):
        out = shrink_stack(c, ThresholdConfig(sigma, "energy_scaled"))
        assert type(out) is np.ndarray and out.shape == c.shape
        assert out.flags.writeable and not np.shares_memory(out, c)
        np.testing.assert_array_equal(c, before, strict=True)
        np.testing.assert_array_equal(out[0], c[0])
