"""Randomness and instance generation.

All Gaussian draws go through the inverse normal CDF applied to open-interval
uniforms built from 53-bit integers; this keeps byte-identical streams across
platforms and numpy versions, unlike the ziggurat sampler behind
Generator.normal.  A seed is a non-negative int, or None for fresh OS
entropy.  Independent streams are addressed by a seed and a tuple of
integers (derive_rng), and a child seed is one 63-bit word of such a stream
(sub_seed), so parallel trials never share or race a stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dgeqrf, dorgqr
from scipy.special import ndtri

from .geometry import GeneralLP, max_row_norm, vector_norm

# Scale constant for the added-constraint simplex; radius and smoothing
# formulas below keep the random start facet numerically honest while the
# success probability of a single attempt stays above 1/4.
C1 = 1.0 / 300.0


def simplex_radius(d):
    """Circumradius of the regular (d-1)-simplex of added constraints:
    C1 / sqrt(log d)."""
    if d < 2:
        raise ValueError("d must be at least 2")
    return C1 / math.sqrt(math.log(d))


def added_sigma(d, n):
    """Standard deviation used to smooth the added constraints:
    min(sigma_cap(d, n), C1 / (d^(3/2) log d))."""
    return min(sigma_cap(d, n), C1 / (d ** 1.5 * math.log(d)))


def sigma_cap(d, n):
    """Largest smoothing level the solver accepts: 1 / (6 sqrt(d log n))."""
    if d < 2 or n <= d:
        raise ValueError("need n > d >= 2")
    return 1.0 / (6.0 * math.sqrt(d * math.log(n)))


def norm_ceiling(max_norm):
    """Round a norm bound M up onto the grid e^k: exp(ceil(log M)).
    The result is always in [M, e*M)."""
    if not max_norm > 0:
        raise ValueError("norm bound must be positive")
    return math.exp(math.ceil(math.log(max_norm)))


def derive_rng(seed, *key):
    """Independent generator for a (seed, key...) address: the stream of
    SeedSequence(entropy=seed, spawn_key=key).

    seed is a non-negative int, or None for fresh OS entropy; numpy raises
    TypeError for any other type and ValueError for a negative seed.
    derive_rng(s, a, b) and derive_rng(s, a, c) never collide."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def sub_seed(seed, *key):
    """63-bit child seed for a (seed, key...) address: the first 64-bit word
    of derive_rng(seed, *key) shifted right by one.

    This is bit for bit derive_rng(seed, *key).integers(0, 2 ** 63), without
    its wrapper: numpy draws that by Lemire's method with range 2^63, whose
    rejection threshold (2^64 - 2^63) mod 2^63 is 0, so it never draws
    again, and the high word of x * 2^63 is x >> 1."""
    return int(derive_rng(seed, *key).bit_generator.random_raw()) >> 1


def _open_uniform(rng, shape):
    """Uniforms strictly inside (0, 1): (k + 0.5) / 2^53 over 53-bit k.

    On PCG64, the generator of derive_rng and default_rng, k is each raw
    64-bit word shifted right by 11, bit for bit
    rng.integers(0, 2 ** 53, size=shape) without its wrapper, for the reason
    sub_seed gives at 2^63: the rejection threshold (2^64 - 2^53) mod 2^53
    is 0, and the high word of x * 2^53 is x >> 11.  Other bit generators
    (MT19937's raw words are 32 bits wide) go through integers."""
    if type(rng.bit_generator) is np.random.PCG64:
        k = rng.bit_generator.random_raw(shape) >> 11
    else:
        k = rng.integers(0, 1 << 53, size=shape)
    return (k.astype(np.float64) + 0.5) * (2.0 ** -53)


def gaussian(rng, shape, center=0.0, sigma=1.0):
    """Inverse-CDF Gaussian draws with the given center and deviation."""
    return np.asarray(center, dtype=float) + sigma * ndtri(_open_uniform(rng, shape))


def haar_rotation(d, rng):
    """Haar-distributed orthogonal d x d matrix: QR of an inverse-CDF
    Gaussian matrix with column signs fixed so the triangular factor has a
    positive diagonal.  The QR is numpy.linalg.qr's two LAPACK calls, dgeqrf
    and dorgqr, without its wrapper; Q is returned in C order, as it is."""
    while True:
        g = gaussian(rng, (d, d))
        qr, tau, _, _ = dgeqrf(g)
        diag = qr.diagonal()
        if np.abs(diag).min() <= 1e-300:
            continue  # essentially impossible; redraw rather than divide by zero
        return np.multiply(dorgqr(qr, tau)[0], np.sign(diag), order="C")


@dataclass(frozen=True)
class SmoothedSpec:
    """Smoothed LP model: rows (a_i, b_i) are independent Gaussians centered
    at (center_A_i, center_b_i) with deviation sigma; objective optional
    (defaults to the first coordinate axis)."""

    centers_A: np.ndarray
    centers_b: np.ndarray
    sigma: float
    objective: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "centers_A", np.asarray(self.centers_A, dtype=float))
        object.__setattr__(self, "centers_b", np.asarray(self.centers_b, dtype=float))
        if self.objective is not None:
            object.__setattr__(self, "objective", np.asarray(self.objective, dtype=float))
        n, d = self.centers_A.shape
        if not (n > d >= 2):
            raise ValueError("need n > d >= 2")
        if self.centers_b.shape != (n,):
            raise ValueError("centers_b must have one entry per row")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")


def normalize(spec):
    """Scale a spec into the solver's input range: first divide all centers
    by the largest row norm of (a_i, b_i) so norms are at most 1, then, if
    sigma still exceeds the cap 1/(6 sqrt(d log n)), divide data and sigma
    again by sigma/cap so the cap binds.  Idempotent; the represented LP is
    classification-equivalent (row scaling)."""
    n, d = spec.centers_A.shape
    scale = max_row_norm(np.concatenate([spec.centers_A, spec.centers_b[:, None]], axis=1))
    if scale <= 0.0:
        raise ValueError("cannot normalize an all-zero instance")
    a = spec.centers_A / scale
    b = spec.centers_b / scale
    sigma = spec.sigma / scale
    cap = sigma_cap(d, n)
    if sigma > cap:
        f = sigma / cap
        a = a / f
        b = b / f
        sigma = cap
    return replace(spec, centers_A=a, centers_b=b, sigma=sigma)


def sample_instance(spec, rng):
    """Draw one LP from the smoothed model."""
    n, d = spec.centers_A.shape
    centers = np.concatenate([spec.centers_A, spec.centers_b[:, None]], axis=1)
    data = gaussian(rng, (n, d + 1), center=centers, sigma=spec.sigma)
    if spec.objective is not None:
        z = spec.objective
    else:
        z = np.zeros(d)
        z[0] = 1.0
    return GeneralLP(A=data[:, :d], b=data[:, d], z=z)


def smoothed_points(rng, n, d, sigma):
    """n points in R^d: centres uniform on the unit sphere, each moved by
    an independent Gaussian of deviation sigma."""
    centers = gaussian(rng, (n, d))
    centers /= np.sqrt((centers * centers).sum(axis=1, keepdims=True))
    return centers + gaussian(rng, (n, d), sigma=sigma)


def random_spec(n, d, sigma, rng):
    """Experiment helper: centers uniform on the unit sphere of R^(d+1)
    (so norms are exactly 1 before normalize), random unit objective."""
    raw = gaussian(rng, (n, d + 1))
    centers = raw / np.sqrt((raw * raw).sum(axis=1, keepdims=True))
    zraw = gaussian(rng, (d,))
    z = zraw / vector_norm(zraw)
    return SmoothedSpec(centers_A=centers[:, :d], centers_b=centers[:, d],
                        sigma=sigma, objective=z)
