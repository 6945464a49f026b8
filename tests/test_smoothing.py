from __future__ import annotations

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from event_eval import smoothing
from event_eval.core import ScoreSequence
from event_eval.errors import InvalidSigma, ValidationError
from event_eval.smoothing import (
    GaussianKernel,
    build_kernel,
    default_radius,
    smooth_clips,
    smooth_once,
)

from oracles import naive_smooth, reflect_index, variance


def smooth(seq: ScoreSequence, sigma_max: int) -> np.ndarray:
    """smooth_clips of the one clip seq: sigma = 1..sigma_max in turn."""
    return smooth_clips(seq.as_array(), np.array([0, len(seq)]), sigma_max)


def closed_form_weights(sigma: float, radius: int) -> list[float]:
    raw = [math.exp(-((j - radius) ** 2) / (2.0 * sigma * sigma))
           for j in range(2 * radius + 1)]
    total = sum(raw)
    return [w / total for w in raw]


def test_kernel_sigma1_radius1_matches_closed_form():
    kernel = build_kernel(1.0, 1)
    # unnormalized [e^-0.5, 1, e^-0.5] -> normalized, computed independently
    expected = closed_form_weights(1.0, 1)
    assert kernel.weights == pytest.approx(expected, abs=1e-12)
    assert kernel.weights == pytest.approx([0.2741, 0.4519, 0.2741],
                                           abs=1e-4)


def test_kernel_limits_toward_uniform():
    previous_gap = None
    for sigma in (2.0, 10.0, 50.0, 250.0):
        w = build_kernel(sigma, 1).weights
        gap = max(abs(v - 1.0 / 3.0) for v in w)
        if previous_gap is not None:
            assert gap < previous_gap
        previous_gap = gap
    assert previous_gap < 1e-5


@pytest.mark.parametrize("sigma,radius", [(0.5, 1), (1.0, 3), (2.7, 5),
                                          (4.0, 12)])
def test_kernel_center_is_max_and_mass_is_one(sigma, radius):
    kernel = build_kernel(sigma, radius)
    w = kernel.weights
    assert max(w) == w[radius]
    assert abs(sum(w) - 1.0) <= 1e-12
    assert w == tuple(reversed(w))
    assert all(v > 0 for v in w)


def test_build_kernel_rejects_bad_sigma():
    with pytest.raises(InvalidSigma):
        build_kernel(0.0, 1)
    with pytest.raises(InvalidSigma):
        build_kernel(-1.0, 3)
    with pytest.raises(ValidationError):
        build_kernel(1.0, 0)


@pytest.mark.parametrize("sigma", [1e-300, 5e-324])
def test_build_kernel_rejects_a_sigma_whose_square_underflows(sigma):
    # 2 sigma^2 rounds to 0, the divisor of every weight's exponent
    with pytest.raises(InvalidSigma, match="too small") as err:
        build_kernel(sigma, 1)
    assert "positive" not in str(err.value)


def test_kernel_type_validates():
    with pytest.raises(ValidationError):  # asymmetric
        GaussianKernel(sigma=1.0, radius=1, weights=(0.2, 0.5, 0.3))
    with pytest.raises(ValidationError):  # asymmetric in the last bit
        GaussianKernel(sigma=1.0, radius=1,
                       weights=(0.25, 0.5, float(np.nextafter(0.25, 1))))
    with pytest.raises(ValidationError):  # wrong size
        GaussianKernel(sigma=1.0, radius=2, weights=(0.25, 0.5, 0.25))
    with pytest.raises(ValidationError):  # not normalized
        GaussianKernel(sigma=1.0, radius=1, weights=(0.3, 0.5, 0.3))
    with pytest.raises(ValidationError, match="strictly positive"):
        GaussianKernel(sigma=1.0, radius=1, weights=(0.0, 1.0, 0.0))


def test_smooth_once_constant_is_exact_fixed_point():
    kernel = build_kernel(2.0, 6)
    for c in (0.0, 0.1, -3.7, 1e6):
        seq = ScoreSequence("v", (c,) * 40)
        out = smooth_once(seq, kernel)
        assert out.scores == seq.scores  # bit-exact, not approx


def test_smooth_once_impulse_reproduces_kernel():
    kernel = build_kernel(1.0, 1)
    seq = ScoreSequence("v", (0.0, 0.0, 1.0, 0.0, 0.0))
    out = smooth_once(seq, kernel)
    expected = (0.0, kernel.weights[0], kernel.weights[1],
                kernel.weights[2], 0.0)
    assert out.scores == pytest.approx(expected, abs=1e-12)


def test_smooth_once_preserves_bounds():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 120))
        sigma = float(rng.uniform(0.5, 4.0))
        radius = int(rng.integers(1, 14))
        values = rng.normal(0.0, 3.0, size=n)
        seq = ScoreSequence("v", tuple(values))
        out = smooth_once(seq, build_kernel(sigma, radius))
        assert max(out.scores) <= max(seq.scores)
        assert min(out.scores) >= min(seq.scores)


def test_smooth_once_conserves_mean_on_constant_extended_fixtures():
    # Boundary mass is only redistributed within 2r of the edges; when those
    # stretches are constant the total is conserved.
    rng = np.random.default_rng(13)
    for _ in range(30):
        sigma = float(rng.uniform(0.5, 3.0))
        radius = int(rng.integers(1, 10))
        margin = [float(rng.uniform(-1, 1))] * (2 * radius + 1)
        middle = list(rng.normal(0.0, 3.0, size=int(rng.integers(5, 60))))
        values = tuple(margin + middle + margin)
        seq = ScoreSequence("v", values)
        out = smooth_once(seq, build_kernel(sigma, radius))
        in_mean = sum(seq.scores) / len(values)
        out_mean = sum(out.scores) / len(values)
        assert out_mean == pytest.approx(in_mean, abs=1e-9)


def test_smooth_once_matches_naive_convolution():
    rng = np.random.default_rng(29)
    for _ in range(200):
        n = int(rng.integers(1, 80))
        sigma = float(rng.uniform(0.4, 5.0))
        radius = int(rng.integers(1, 16))
        values = tuple(rng.uniform(-10.0, 10.0, size=n))
        kernel = build_kernel(sigma, radius)
        got = smooth_once(ScoreSequence("v", values), kernel).scores
        want = naive_smooth(values, kernel.weights)
        assert got == pytest.approx(want, abs=1e-12)


def test_hierarchical_sigma_max_one_is_single_pass():
    seq = ScoreSequence("v", tuple(np.sin(np.arange(30) * 0.7)))
    direct = smooth_once(seq, build_kernel(1, default_radius(1)))
    assert smooth(seq, 1).tolist() == list(direct.scores)


def test_hierarchical_equals_composed_passes_bit_for_bit():
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 7, 40, 257):  # n <= 3: every radius exceeds n
        for _ in range(3):
            seq = ScoreSequence("v", tuple(rng.normal(0.0, 2.0, size=n)))
            composed = seq
            for k in range(1, 6):
                composed = smooth_once(composed,
                                       build_kernel(k, default_radius(k)))
                assert smooth(seq, k).tolist() == list(composed.scores)


def fixed_order_smooth(values, weights) -> list[float]:
    """The documented tap order, one Python float operation at a time."""
    n, r = len(values), len(weights) // 2
    out = []
    for t, x in enumerate(values):
        acc = 0.0
        for j in range(1, r + 1):
            d = ((values[reflect_index(t + j, n)] - x)
                 + (values[reflect_index(t - j, n)] - x))
            acc += d * weights[r + j]
        out.append(min(max(x + acc, min(values)), max(values)))
    return out


def test_smooth_once_follows_the_fixed_tap_order_bit_for_bit():
    rng = np.random.default_rng(41)
    for n in (1, 2, 3, 5, 17, 60):
        for sigma, radius in ((1.0, 3), (2.5, 8), (0.7, 1)):
            values = rng.normal(0.0, 2.0, size=n)
            kernel = build_kernel(sigma, radius)
            got = smooth_once(ScoreSequence("v", values), kernel).scores
            assert got == tuple(fixed_order_smooth(values.tolist(),
                                                   kernel.weights))


@pytest.mark.parametrize("chunk", [smoothing._CHUNK, 7])
def test_clip_among_others_equals_clip_alone_bit_for_bit(monkeypatch, chunk):
    monkeypatch.setattr(smoothing, "_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    lengths = [1, 2, 40, 3, 7, 100, 1, 16]  # r >= n for the short ones
    clips = [rng.normal(0.0, 2.0, size=n) for n in lengths]
    got = smooth_clips(np.concatenate(clips), np.cumsum([0, *lengths]), 5)
    alone = [smooth_clips(x, np.array([0, x.size]), 5) for x in clips]
    assert got.tobytes() == np.concatenate(alone).tobytes()
    # the chunk size does not move a bit either
    monkeypatch.setattr(smoothing, "_CHUNK", 16384)
    assert got.tobytes() == smooth_clips(np.concatenate(clips),
                                         np.cumsum([0, *lengths]), 5).tobytes()


def test_signed_zeros_among_others_keep_the_bits_they_have_alone():
    """The sign of a zero is a bit too: a clip of +0.0 and -0.0 scores,
    long enough that its smoothed frames move onto their own input, keeps
    the bits it has alone."""
    rng = np.random.default_rng(0)
    lengths = [40, 300, 7, 120, 500]
    clips = [np.where(rng.random(n) < 0.5, -0.0, 0.0) for n in lengths]
    got = smooth_clips(np.concatenate(clips), np.cumsum([0, *lengths]), 5)
    alone = [smooth_clips(x, np.array([0, x.size]), 5) for x in clips]
    assert got.tobytes() == np.concatenate(alone).tobytes()


_SMOOTH_DIGEST = """
import hashlib, sys
import numpy as np
from event_eval.smoothing import smooth_clips
x = np.random.default_rng(5).random(50_000)
out = smooth_clips(x, np.array([0, x.size]), 5)
sys.stdout.write(hashlib.sha256(out.tobytes()).hexdigest())
"""


# numpy's AVX-512 dispatch groups, under their current and older names
_NO_AVX512 = ("X86_V4 AVX512_ICL AVX512_SPR AVX512F AVX512CD AVX512_SKX "
              "AVX512_CLX AVX512_CNL")


@pytest.mark.parametrize("env", [{"OPENBLAS_CORETYPE": "Prescott"},
                                 {"NPY_DISABLE_CPU_FEATURES": _NO_AVX512}])
def test_smoothed_bits_do_not_depend_on_cpu_kernels(env):
    src = str(Path(smoothing.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    digests = []
    for extra in ({}, env):
        done = subprocess.run([sys.executable, "-c", _SMOOTH_DIGEST],
                              env={**base, "PYTHONPATH": src, **extra},
                              capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr.decode()
        digests.append(done.stdout)
    assert digests[0] == digests[1]


def test_plateau_interior_passes_through_exactly():
    # sigma = 1..5 reach 3 + 6 + 9 + 12 + 15 frames past the plateau's edges
    reach = sum(default_radius(sigma) for sigma in range(1, 6))
    start, end = 100, 100 + 2 * reach + 10
    values = np.full(end + 100, 0.1)
    values[start:end + 1] = 0.9
    values[-1] = 1.0  # so the clip to [min, max] cannot hide an overshoot
    out = smooth(ScoreSequence("v", values), 5)
    inner = slice(start + reach, end - reach + 1)
    # exactly 0.9, so score >= tau still marks them anomalous at tau 0.9
    assert np.all(out[inner] == 0.9)


def test_overflowing_tap_pairs_give_no_nan_and_no_warning():
    # at each 0.0 frame the j = 1 pair overflows to +inf and the j = 2 pair
    # to -inf, so the sum is NaN until the clip to the clip's range
    big = 1.7e308
    values = np.array([-big, big, 0.0, big, -big] * 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = smooth(ScoreSequence("v", values), 2)
    assert np.all((out >= -big) & (out <= big))


def test_hierarchical_constant_fixed_point():
    seq = ScoreSequence("v", (2.5,) * 64)
    for sigma_max in (1, 3, 6):
        assert smooth(seq, sigma_max).tolist() == list(seq.scores)


def test_hierarchical_rejects_bad_sigma_max():
    seq = ScoreSequence("v", (1.0, 2.0))
    with pytest.raises(InvalidSigma):
        smooth(seq, 0)


def test_alternating_variance_strictly_drops():
    values = tuple(float(i % 2) for i in range(64))
    seq = ScoreSequence("v", values)
    out = smooth(seq, 3)
    assert variance(out.tolist()) < variance(values)


def test_variance_monotone_in_sigma_max():
    rng = np.random.default_rng(5)
    fixtures = [tuple(rng.normal(0, 1, size=96)) for _ in range(5)]
    fixtures.append(tuple(float(i % 2) for i in range(64)))
    for values in fixtures:
        seq = ScoreSequence("v", values)
        variances = [variance(smooth(seq, k).tolist())
                     for k in range(1, 6)]
        for a, b in zip(variances, variances[1:]):
            assert b <= a + 1e-15


def test_default_radius_is_three_sigma_rounded_up():
    assert default_radius(1) == 3
    assert default_radius(2) == 6
    assert default_radius(2.5) == 8
