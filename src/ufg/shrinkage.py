"""Soft-threshold shrinkage of framelet coefficients.

Shrinkage applies ``sgn(x) max(|x| - lambda, 0)`` to the high-pass blocks of
the ``(B, N, d)`` coefficients ``decompose`` returns and never touches the
low pass, block 0. The threshold follows
the universal rule ``lambda = sigma sqrt(2 ln N) / sqrt(N)`` (natural log)
for N nodes, optionally rescaled per block by that block's RMS so sigma is
unit-free across scales. The thresholds are one ``(B,)`` array in block
order, read off the first axis; the low-pass entry is 0.0 and never
applied. Zeroed coefficients are exact zeros, which is what
the compression-ratio accounting counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Entries at or below this magnitude count as zero when measuring
# compression; thresholded entries are exact zeros but raw stacks carry
# floating-point near-zeros.
NONZERO_TOL = 1e-12

THRESHOLD_MODES = ("global", "energy_scaled")


@dataclass(frozen=True)
class ThresholdConfig:
    """Shrinkage settings: noise scale sigma and threshold mode.

    ``sigma`` may be ``inf`` (kill all high passes); NaN and negatives are
    rejected. Shrinkage always targets high-pass blocks only.
    """

    sigma: float
    mode: str = "global"

    def __post_init__(self):
        if not self.sigma >= 0:
            raise ValueError(f"sigma must be >= 0 (inf allowed), got {self.sigma}")
        if self.mode not in THRESHOLD_MODES:
            raise ValueError(f"unknown threshold mode {self.mode!r}")


def soft_threshold(x, lam: float):
    """``sgn(x) max(|x| - lam, 0)`` elementwise; exact zeros in the dead zone."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)


def compute_threshold(num_coefficients: int, sigma: float) -> float:
    """Universal threshold ``sigma sqrt(2 ln N) / sqrt(N)`` for N coefficients.

    At N = 1 the rule gives ``sqrt(2 ln 1) = 0``, so the threshold is 0.
    """
    if num_coefficients < 1:
        raise ValueError("need at least 1 coefficient")
    if num_coefficients == 1:
        return 0.0
    n = float(num_coefficients)
    return sigma * np.sqrt(2.0 * np.log(n)) / np.sqrt(n)


def stack_thresholds(c: np.ndarray, cfg: ThresholdConfig) -> np.ndarray:
    """Effective threshold of every block of the ``(B, N, d)`` coefficients
    ``c`` under ``cfg``: a ``(B,)`` array in ``block_index`` order whose
    entry 0, the low pass, is 0.0 and never applied.

    Global mode gives every high-pass block the universal threshold for the
    node count; energy scaled mode multiplies it by the block's RMS. An
    all-zero block gets threshold 0 (nothing to shrink), which also keeps
    ``sigma = inf`` well defined there.
    """
    base = compute_threshold(c.shape[1], cfg.sigma) if np.isfinite(cfg.sigma) else np.inf
    out = np.zeros(len(c))
    if cfg.mode == "global":
        out[1:] = base
        return out
    rms = np.sqrt(np.mean(c[1:] ** 2, axis=(1, 2)))
    scaled = rms != 0.0
    out[1:][scaled] = base * rms[scaled]
    return out


def shrink_stack(
    c: np.ndarray,
    cfg: ThresholdConfig,
    thresholds: np.ndarray | None = None,
) -> np.ndarray:
    """A shrunk copy of the ``(B, N, d)`` coefficients ``c``, which are only
    read: every high-pass block soft-thresholded, the low pass bitwise.

    Block b is shrunk by one scalar threshold, ``thresholds[b]``, which
    defaults to ``stack_thresholds(c, cfg)``. Gradient validation passes the
    thresholds of a nominal point here to freeze them, matching the
    stop-gradient backward pass.
    """
    out = c.copy()
    if cfg.sigma == 0.0:
        return out
    if thresholds is None:
        thresholds = stack_thresholds(c, cfg)
    for block, lam in zip(out[1:], thresholds[1:], strict=True):
        block[...] = 0.0 if np.isinf(lam) else soft_threshold(block, lam)
    return out


def count_nonzero(c: np.ndarray) -> int:
    return int(np.count_nonzero(np.abs(c) > NONZERO_TOL))


def compression_ratio(before: np.ndarray, after: np.ndarray) -> float:
    """Nonzero count after shrinkage over nonzero count before.

    Returns 1.0 by convention when ``before`` has no nonzeros.
    """
    if before.shape != after.shape:
        raise ValueError("coefficients must have the same shape")
    denom = count_nonzero(before)
    if denom == 0:
        return 1.0
    return count_nonzero(after) / denom
