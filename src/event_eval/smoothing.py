"""Hierarchical Gaussian smoothing of raw score sequences.

A score sequence is convolved with a truncated, renormalized 1D Gaussian,
iterating over sigma = 1, 2, ..., sigma_max so coarser passes see signal
already cleaned at finer scales. Boundaries use reflect padding (mirror
without repeating the edge sample) so events touching clip boundaries are
not artificially damped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ScoreSequence, _is_finite, check_count, check_type
from .errors import InvalidSigma, ValidationError

_CHUNK = 16384  # frames per group of tap sums in _smooth


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
        if not np.array_equal(w, w[::-1]):
            raise ValidationError("kernel weights must be exactly symmetric")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValidationError("kernel weights must sum to 1")


def _gaussian_weights(sigma: float, radius: int) -> np.ndarray:
    # math.exp, not np.exp: numpy picks its exp by CPU features
    raw = np.array([math.exp(-(j * j) / (2.0 * sigma * sigma))
                    for j in range(-radius, radius + 1)])
    w = raw / raw.sum()
    w[radius] += 1.0 - w.sum()
    return w


def build_kernel(sigma: float, radius: int) -> GaussianKernel:
    """Evaluate exp(-(j - radius)^2 / (2 sigma^2)) on the integer grid and
    renormalize to unit mass.

    The final weight vector is nudged so its float sum is exactly 1.0, which
    makes smoothing an exact fixed point on constant inputs.
    """
    if not (_is_finite(sigma) and sigma > 0):
        raise InvalidSigma(f"sigma must be positive and finite, got {sigma!r}")
    if not 2.0 * float(sigma) * float(sigma) > 0:
        raise InvalidSigma(f"sigma {sigma} is too small: 2 sigma^2 is 0")
    radius = check_count("radius", radius)
    w = _gaussian_weights(float(sigma), radius)
    if not w[0] > 0:   # exp underflows at the outermost weight first
        raise InvalidSigma(f"sigma {sigma} is too small for radius "
                           f"{radius}: the outermost weights are 0")
    return GaussianKernel(sigma=float(sigma), radius=radius,
                          weights=tuple(w.tolist()))


def default_radius(sigma: float) -> int:
    """Truncation half-width ceil(3 sigma), covering >99.7% of the mass."""
    return max(1, math.ceil(3.0 * sigma))


def _smooth(x: np.ndarray, bounds: np.ndarray,
            passes: list[np.ndarray]) -> np.ndarray:
    """Convolve each clip x[bounds[c]:bounds[c + 1]] with each weight vector
    in turn, between the clip's own reflect margins.

    In centered form, summed in one fixed order: out[t] = x[t] + the sum,
    for j = 1..r left to right, of w[r+j] * ((x[t+j] - x[t]) + (x[t-j] -
    x[t])). Each step is one correctly rounded elementwise operation, so the
    bits depend neither on the CPU and the BLAS build nor on _CHUNK or a
    clip's neighbours, and a constant stretch, such as a plateau's frames r
    or more from its edges, passes through bit-exactly. Each clip is then
    clipped to its input range, which rounding can overshoot by ~1 ulp and
    an overflowing difference by inf; a NaN (inf - inf) becomes its lowest.
    """
    lens = np.diff(bounds)
    spans = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
    # both buffers fit the widest pass: its frames plus every clip's margins
    size = x.size + max(w.size - 1 for w in passes) * lens.size
    padded_buf, out_buf = np.empty(size), np.empty(size)
    for w in passes:
        r = w.size // 2
        lo = np.minimum.reduceat(x, bounds[:-1])
        hi = np.maximum.reduceat(x, bounds[:-1])
        # clip c's body starts at padded[at[c]]; its margins come from the
        # periodic mirror index, which also covers r >= n and n = 1
        at = bounds[:-1] + 2 * r * np.arange(lens.size) + r
        padded = padded_buf[:x.size + 2 * r * lens.size]
        for (a, b), p in zip(spans, at.tolist()):
            padded[p:p + b - a] = x[a:b]
        off = np.r_[-r:0, 0:r] + np.outer(lens, np.arange(2 * r) >= r)
        last = lens[:, None] - 1
        padded[at[:, None] + off] = x[bounds[:-1, None] + last - np.abs(
            off % np.maximum(2 * last, 1) - last)]
        out = _tap_sums(padded, w, out_buf[:padded.size - 2 * r])
        # clip c moves 2rc frames left, onto frames only clips up to c were
        # read from. It is copied, then clipped in place: np.fmax on a
        # buffered overlapping source may pick the other of two equal zeros.
        for c, ((a, b), p) in enumerate(zip(spans, (at - r).tolist())):
            clip = out[a:b]
            clip[...] = out[p:p + b - a]
            np.fmin(np.fmax(clip, lo[c], out=clip), hi[c], out=clip)
        x = out[:bounds[-1]]
    return x


def _tap_sums(padded: np.ndarray, w: np.ndarray,
              out: np.ndarray) -> np.ndarray:
    """padded[r:-r] plus its weighted taps into out, summed in _smooth's
    order over _CHUNK frames at a time, which bounds the temporaries."""
    r = w.size // 2
    d, e = np.empty((2, min(_CHUNK, out.size)))
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, out.size, _CHUNK):
            b = min(a + _CHUNK, out.size)
            core, acc = padded[a + r:b + r], out[a:b]
            dd, ee = d[:b - a], e[:b - a]
            acc.fill(0.0)
            for j in range(1, r + 1):
                np.subtract(padded[a + r + j:b + r + j], core, out=dd)
                np.subtract(padded[a + r - j:b + r - j], core, out=ee)
                dd += ee
                dd *= w[r + j]
                acc += dd
            acc += core
    return out


def smooth_clips(x: np.ndarray, bounds: np.ndarray,
                 sigma_max: int) -> np.ndarray:
    """Each clip x[bounds[c]:bounds[c + 1]] smoothed by build_kernel(sigma,
    default_radius(sigma)) for sigma = 1..sigma_max in turn, bit for bit,
    in one pass per sigma over all clips, with the bits it has alone."""
    if sigma_max < 1:
        raise InvalidSigma(f"sigma_max must be >= 1, got {sigma_max}")
    return _smooth(x, bounds, [_gaussian_weights(s, default_radius(s))
                               for s in range(1, sigma_max + 1)])


def smooth_once(scores: ScoreSequence, kernel: GaussianKernel) -> ScoreSequence:
    """Convolve one sequence with a kernel under reflect padding."""
    check_type("scores", scores, ScoreSequence)
    check_type("kernel", kernel, GaussianKernel)
    w = np.asarray(kernel.weights, dtype=float)
    return ScoreSequence._of(scores.video_id, _smooth(
        scores.as_array(), np.array([0, len(scores)]), [w]))

