"""Hierarchical Gaussian smoothing of raw score sequences.

A score sequence is convolved with a truncated, renormalized 1D Gaussian,
iterating over sigma = 1, 2, ..., sigma_max so coarser passes see signal
already cleaned at finer scales. Boundaries use reflect padding (mirror
without repeating the edge sample) so events touching clip boundaries are
not artificially damped.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import ScoreSequence
from .errors import InvalidSigma, ValidationError

_BLOCK = 4096  # rows per product in _smooth_array, a multiple of 4


@dataclass(frozen=True)
class GaussianKernel:
    """Truncated Gaussian weights, symmetric, strictly positive, summing to 1."""

    sigma: float
    radius: int
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.size != 2 * self.radius + 1:
            raise ValidationError(
                f"kernel of radius {self.radius} needs {2 * self.radius + 1} "
                f"weights, got {w.size}")
        if not np.all(w > 0):
            raise ValidationError("kernel weights must be strictly positive")
        if not np.allclose(w, w[::-1], rtol=0, atol=1e-12):
            raise ValidationError("kernel weights must be symmetric")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValidationError("kernel weights must sum to 1")


@functools.lru_cache(maxsize=128)
def _gaussian_weights(sigma: float, radius: int) -> np.ndarray:
    offsets = np.arange(-radius, radius + 1, dtype=float)
    raw = np.exp(-(offsets ** 2) / (2.0 * sigma * sigma))
    w = raw / raw.sum()
    w[radius] += 1.0 - w.sum()
    w.flags.writeable = False
    return w


def build_kernel(sigma: float, radius: int) -> GaussianKernel:
    """Evaluate exp(-(j - radius)^2 / (2 sigma^2)) on the integer grid and
    renormalize to unit mass.

    The final weight vector is nudged so its float sum is exactly 1.0, which
    makes smoothing an exact fixed point on constant inputs.
    """
    if not sigma > 0:
        raise InvalidSigma(f"sigma must be positive, got {sigma}")
    if radius < 1:
        raise ValidationError(f"radius must be >= 1, got {radius}")
    w = _gaussian_weights.__wrapped__(sigma, radius)  # unmemoized: any sigma
    return GaussianKernel(sigma=float(sigma), radius=int(radius),
                          weights=tuple(w.tolist()))


def default_radius(sigma: float) -> int:
    """Truncation half-width ceil(3 sigma), covering >99.7% of the mass."""
    return max(1, math.ceil(3.0 * sigma))


def _smooth_array(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Convolve a float64 array with kernel weights under reflect padding.

    Computed in centered form, out[t] = x[t] + sum_j w_j * (x_pad[t+j] - x[t]),
    so constant stretches, such as a plateau's frames r or more from its edges,
    pass through bit-exactly (np.convolve puts a 0.9 plateau just below 0.9).
    The result is clipped to the input range, which rounding can overshoot by
    ~1 ulp and an overflowing difference by inf. The product runs over blocks
    of _BLOCK rows from the clip's first frame: a gemv row's bits depend on its
    place in groups of 4 rows, and a 1-row product takes another path, so they
    give one single-threaded product's bits without its (n, 2r+1) matrix.
    """
    n, r = x.size, w.size // 2
    # the periodic mirror index, which also covers r >= n and n == 1
    edge = np.concatenate((np.arange(-r, 0), np.arange(n, n + r)))
    edge = (n - 1) - np.abs(edge % max(2 * n - 2, 1) - (n - 1))
    padded = np.concatenate((x[edge[:r]], x, x[edge[r:]]))
    windows = as_strided(padded, (n, w.size), 2 * padded.strides)
    bounds = [0, *range(_BLOCK, n - 1, _BLOCK), n]
    with np.errstate(over="ignore"):
        out = np.concatenate([x[a:b] + (windows[a:b] - x[a:b, None]) @ w
                              for a, b in zip(bounds, bounds[1:])])
    np.clip(out, x.min(), x.max(), out=out)
    return out


def smooth_once(scores: ScoreSequence, kernel: GaussianKernel) -> ScoreSequence:
    """Convolve one sequence with a kernel under reflect padding."""
    w = np.asarray(kernel.weights, dtype=float)
    return ScoreSequence._of(scores.video_id,
                             _smooth_array(scores.as_array(), w))


def hierarchical_smooth(scores: ScoreSequence, sigma_max: int) -> ScoreSequence:
    """Apply smooth_once for sigma = 1..sigma_max with radius ceil(3 sigma).

    Ascending sigma suppresses local noise first, then progressively wider
    passes flatten what remains while preserving the global trend. The passes
    chain on one float64 array with the weights build_kernel would hold, so
    the result equals the composed smooth_once calls bit for bit, without a
    ScoreSequence or a GaussianKernel per pass.
    """
    if sigma_max < 1:
        raise InvalidSigma(f"sigma_max must be >= 1, got {sigma_max}")
    x = scores.as_array()
    for sigma in range(1, sigma_max + 1):
        x = _smooth_array(x, _gaussian_weights(sigma, default_radius(sigma)))
    return ScoreSequence._of(scores.video_id, x)
