"""Brute-force references: the OL and NOL designs on rectangular windows, and
the covariogram evaluated at every site pair or wrapped torus lag.

A plain helper module, imported by the estimator, covariance and field tests
and by acceptance criterion 05; it holds no tests.
"""

import math

import numpy as np

from latblock.geometry import box_points


def interval_sites(center, width):
    """Integers in the half-open interval (center - width/2, center + width/2]."""
    lo = math.ceil(center - width / 2)
    hi = math.floor(center + width / 2)
    if lo == center - width / 2:
        lo += 1
    return list(range(lo, hi + 1))


def naive_ol(sample, mlam, nlam, s_lam, stat):
    """Direct transcription of the overlapping design for hypercube windows.

    A translate belongs to the design when every one of its sites is an
    observed site of the region window.
    """
    pos = {tuple(s): i for i, s in enumerate(sample.window.sites.tolist())}
    thetas = []
    count = None
    n_off = 0
    for i1 in range(-2 * mlam, 2 * mlam + 1):
        for i2 in range(-2 * nlam, 2 * nlam + 1):
            sites = [
                (z1, z2)
                for z1 in interval_sites(i1, s_lam)
                for z2 in interval_sites(i2, s_lam)
            ]
            if not sites or not all(z in pos for z in sites):
                continue
            n_off += 1
            rows = [pos[z] for z in sites]
            count = len(rows)
            block = np.asarray([sample.values[r] for r in rows])
            thetas.append(float(stat(block.mean(axis=0))))
    if n_off == 0:
        return None, 0
    thetas = np.array(thetas)
    tilde = np.mean(thetas)
    return np.mean(count * (thetas - tilde) ** 2), n_off


def naive_nol(sample, mlam, nlam, s_lam, stat):
    """Disjoint cubes anchored at multiples of the scale, site-tested."""
    pos = {tuple(s): i for i, s in enumerate(sample.window.sites.tolist())}
    thetas = []
    counts = []
    for i1 in range(-mlam, mlam + 1):
        for i2 in range(-nlam, nlam + 1):
            sites = [
                (z1, z2)
                for z1 in interval_sites(s_lam * i1, s_lam)
                for z2 in interval_sites(s_lam * i2, s_lam)
            ]
            if not sites or not all(z in pos for z in sites):
                continue
            rows = [pos[z] for z in sites]
            counts.append(len(rows))
            block = np.asarray([sample.values[r] for r in rows])
            thetas.append(float(stat(block.mean(axis=0))))
    if not thetas:
        return None, 0
    thetas = np.array(thetas)
    counts = np.array(counts)
    tilde = np.mean(thetas)
    return np.mean(counts * (thetas - tilde) ** 2), len(thetas)


def pairwise_covariance_matrix(cov, window, chunk=512):
    """Dense site-pair covariance matrix in window site order."""
    n = window.n_sites
    out = np.empty((n, n), dtype=np.float64)
    for start in range(0, n, chunk):
        block = window.sites[start : start + chunk]
        diffs = block[:, None, :] - window.sites[None, :, :]
        out[start : start + block.shape[0]] = cov.sigma_many(diffs)
    return out


def wrapped_circulant_base(cov, span):
    """Embedding-torus base: the covariogram at the wrapped torus lags."""
    embed = tuple(int(max(2 * (s - 1), 1)) for s in span)
    size = np.array(embed)
    idx = box_points([0] * len(embed), size - 1)
    lags = np.where(idx <= size // 2, idx, idx - size)  # wrapped torus lags
    return cov.sigma_many(lags).reshape(embed)
