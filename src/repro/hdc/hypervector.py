"""Hypervector primitives: generation and the bind/bundle/permute algebra.

Hyperdimensional computing represents symbols as very high-dimensional
random vectors and composes them with three operations (Kanerva [7]):

- **bind** (elementwise multiply for bipolar HVs): associates two HVs
  into one dissimilar to both;
- **bundle** (elementwise sum): superposes HVs into one similar to all;
- **permute** (cyclic shift): encodes order/position.

All generators are seeded for reproducibility.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np


def random_bipolar(
    n: int,
    dimension: int,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """``n`` random bipolar (+-1) hypervectors, shape (n, dimension)."""
    _check_dims(n, dimension)
    rng = rng if rng is not None else np.random.default_rng()
    return rng.choice(np.array([-1.0, 1.0], dtype=np.float32), size=(n, dimension))


def random_gaussian(
    n: int,
    dimension: int,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """``n`` random Gaussian hypervectors, shape (n, dimension)."""
    _check_dims(n, dimension)
    rng = rng if rng is not None else np.random.default_rng()
    return rng.standard_normal((n, dimension)).astype(np.float32)


def level_hypervectors(
    n_levels: int,
    dimension: int,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Correlated level HVs: adjacent levels share most components.

    Standard level-encoding construction: start from a random bipolar HV
    and flip a fresh ``dimension / (2 * (n_levels - 1))`` slice per level,
    so similarity decreases linearly with level distance.
    """
    if n_levels < 2:
        raise ValueError(f"n_levels must be >= 2, got {n_levels}")
    _check_dims(n_levels, dimension)
    rng = rng if rng is not None else np.random.default_rng()
    base = random_bipolar(1, dimension, rng)[0]
    levels = np.empty((n_levels, dimension), dtype=np.float32)
    levels[0] = base
    flips_per_level = dimension // (2 * (n_levels - 1))
    order = rng.permutation(dimension)
    for k in range(1, n_levels):
        levels[k] = levels[k - 1]
        start = (k - 1) * flips_per_level
        idx = order[start : start + flips_per_level]
        levels[k, idx] = -levels[k, idx]
    return levels


def bind(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bind two hypervectors (elementwise product)."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"bind shape mismatch: {a.shape} vs {b.shape}")
    return a * b


def bundle(hvs: Sequence[np.ndarray]) -> np.ndarray:
    """Bundle (superpose) hypervectors by elementwise summation."""
    if len(hvs) == 0:
        raise ValueError("bundle requires at least one hypervector")
    stacked = np.stack([np.asarray(h) for h in hvs])
    return stacked.sum(axis=0)


def bundle_groups(
    hvs: np.ndarray, groups: np.ndarray, n_groups: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Bundle each group's rows: ``(bundles, counts)``.

    ``bundles[g]`` is ``hvs[groups == g].sum(axis=0)`` exactly (zeros
    for an empty group) and ``counts[g]`` the group's size.  One stable
    sort puts every group's rows next to each other in their original
    order, so each bundle sums one contiguous slice holding the same
    rows, in the same order, as the mask gather.  With two or more
    columns numpy adds those rows one after another, as ``np.add.at``
    does; a single column it sums pairwise.

    Args:
        hvs: Rows to bundle, shape (n, D).
        groups: Each row's group id in ``[0, n_groups)``.
        n_groups: Number of groups.
    """
    hvs = np.asarray(hvs)
    counts = np.bincount(groups, minlength=n_groups)
    ordered = hvs[np.argsort(groups, kind="stable")]
    bundles = np.zeros((n_groups,) + hvs.shape[1:], dtype=hvs.dtype)
    start = 0
    for g, end in enumerate(np.cumsum(counts).tolist()):
        if end > start:
            bundles[g] = ordered[start:end].sum(axis=0)
        start = end
    return bundles, counts


def permute(hv: np.ndarray, shift: int = 1) -> np.ndarray:
    """Permute (cyclically shift) a hypervector; encodes sequence position."""
    hv = np.asarray(hv)
    if hv.ndim != 1:
        raise ValueError(f"permute expects a 1-D hypervector, got {hv.shape}")
    return np.roll(hv, shift)


def _check_dims(n: int, dimension: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
