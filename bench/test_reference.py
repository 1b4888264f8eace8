"""Checks of the benchmark's independent references against literature values.

Run with ``python3 -m pytest bench/test_reference.py``.
"""

import math

import numpy as np
import pytest
from scipy.stats import norm

import reference as ref


def test_tracy_widom_mean_and_variance():
    # TW_2 moments to 10 digits (Tracy and Widom 1994; Bornemann 2010, table 4)
    mean, var = ref.tracy_widom_moments()
    assert abs(mean - (-1.7710868074)) < 1e-9
    assert abs(var - 0.8131947928) < 1e-9


def test_tracy_widom_converged_in_m():
    for s in (-6.0, -2.0, 0.0, 3.0):
        a, b = ref.tracy_widom_cdf(s, m=100), ref.tracy_widom_cdf(s, m=160)
        assert abs(a - b) <= 1e-14 + 1e-10 * b


@pytest.mark.parametrize("s", [0.02, 0.05, 0.1])
def test_sine_gap_small_gap_expansion(s):
    # a gap of s mean spacings is (-a, a) with 2a / pi = s for density 1/pi;
    # the expansion is truncated after s^8, so the remainder is O(s^10)
    err = abs(ref.sine_gap(0.5 * math.pi * s) - ref.sine_gap_small(s))
    assert err < 10.0 * s**10 + 1e-14


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_rightmost_n1_is_gaussian_cdf(t):
    for alpha in (-2.0, -0.3, 0.0, 1.1, 3.0):
        assert abs(ref.rightmost_cdf(1, t, alpha) - norm.cdf(alpha / math.sqrt(t))) < 1e-12


def test_hermite_density_integrates_to_n():
    x, w = ref._gl(200, -20.0, 20.0)
    for n in (1, 2, 5, 8):
        assert abs(w @ ref.hermite_density(n, 1.3, x) - n) < 1e-12


def test_karlin_mcgregor_n1_and_n2():
    assert abs(ref.karlin_mcgregor(0.7, [0.2], [1.0])[0]
               - norm.pdf(0.8, scale=math.sqrt(0.7))) < 1e-15
    g = ref.bm_matrix(0.7, [0.0, 1.0], [0.5, 2.0])
    det, _ = ref.karlin_mcgregor(0.7, [0.0, 1.0], [0.5, 2.0])
    assert abs(det - (g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0])) < 1e-15


def test_harish_chandra_n1_is_gaussian_factor():
    # U(1) acts trivially, so the Haar average is the integrand itself
    assert abs(ref.harish_chandra_rhs([0.3], [1.1], 0.9)
               - math.exp(-(0.8**2) / (2 * 0.81))) < 1e-15


def test_harish_chandra_matches_direct_haar_average():
    # Monte Carlo over Haar unitaries from scipy, independent of the program
    from scipy.stats import unitary_group

    x, y, sigma = np.array([-0.4, 0.1, 0.7]), np.array([0.0, 0.5, 1.3]), 1.0
    us = unitary_group.rvs(3, size=20000, random_state=np.random.default_rng(5))
    rot = np.conj(np.swapaxes(us, 1, 2)) * y[None, None, :] @ us
    tr2 = np.sum(np.abs(np.diag(x)[None] - rot) ** 2, axis=(1, 2))
    vals = np.exp(-tr2 / (2 * sigma**2))
    se = vals.std() / math.sqrt(len(vals))
    assert abs(vals.mean() - ref.harish_chandra_rhs(x, y, sigma)) < 5.0 * se
