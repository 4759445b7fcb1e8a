"""PCA reduction, geotemporal augmentation, and the cosine-shift experiment.

Every function here works on matrices, one row per record. fit_pca keeps
the top principal axes of a centered embedding matrix; augment appends
standardized feature columns after the reduced text columns. The
delta-cosine experiment measures how much augmentation moves pairwise
cosines as the number of kept components grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DomainError
from .geotime import standardize
from .table import write_table

_ORTHO_TOL = 1e-6
# trials x pairs per trial that delta_cosine_experiment may sample: each sampled
# pair holds its two row indices and its baseline cosine, 24 bytes, 24 MB at the bound
MAX_DELTA_PAIRS = 10**6


@dataclass(frozen=True, eq=False)
class PcaModel:
    """Centered principal axes sorted by descending explained variance."""

    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray

    def __post_init__(self):
        k, d = self.components.shape
        gram = self.components @ self.components.T
        if not np.allclose(gram, np.eye(k), atol=_ORTHO_TOL, rtol=0.0):
            raise DomainError("components are not orthonormal")
        if self.mean.shape != (d,):
            raise DomainError("mean length does not match component width")
        ev = self.explained_variance
        if ev.shape != (k,) or np.any(ev < 0) or np.any(np.diff(ev) > 0):
            raise DomainError("explained_variance must be nonnegative and nonincreasing")


def fit_pca(matrix: np.ndarray, k: int) -> PcaModel:
    """Fit a k-component PCA of the (centered) n x d embedding matrix.

    k must satisfy 1 <= k <= min(n-1, d). Component signs are fixed so each
    axis's largest-magnitude entry is positive.
    """
    matrix = np.asarray(matrix, dtype=float)
    _check_k(k, matrix.shape)
    n = matrix.shape[0]
    mean = matrix.mean(axis=0)
    centered = matrix - mean
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    components = vt[:k].copy()
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    variances = (singular[:k] ** 2) / n
    return PcaModel(mean=mean, components=components, explained_variance=variances)


def fit_pca_models(matrix: np.ndarray, k_list: Sequence[int]) -> list[PcaModel]:
    """fit_pca(matrix, k) for every k in k_list, from one fit at max(k_list).

    fit_pca keeps the leading rows of one SVD, so the first k axes of the
    largest model are exactly the k-component model. A k may not repeat.
    """
    for index, k in enumerate(k_list):
        _check_k(k, matrix.shape)
        if k in k_list[:index]:
            raise DomainError(f"k={k} is repeated in the component counts")
    if not k_list:
        return []
    full = fit_pca(matrix, max(k_list))
    return [
        PcaModel(mean=full.mean, components=full.components[:k],
                 explained_variance=full.explained_variance[:k])
        for k in k_list
    ]


def _check_k(k: int, shape: tuple[int, int]) -> None:
    n, d = shape
    k_max = min(n - 1, d)
    if not 1 <= k <= k_max:
        raise DomainError(f"k={k} out of range [1, {k_max}] for a {n}x{d} space")


def transform(model: PcaModel, matrix: np.ndarray) -> np.ndarray:
    """Project rows onto the model's axes: (X - mean) @ components.T."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[1] != model.mean.shape[0]:
        raise DomainError(
            f"space dimension {matrix.shape[1:]} does not match model dimension {model.mean.shape[0]}"
        )
    return (matrix - model.mean) @ model.components.T


def augment(reduced: np.ndarray, features: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The text columns, then the standardized feature columns, with the features' `standardize` statistics.

    Returns (matrix, means, stds, constant), the last three as `standardize` returns them.
    """
    reduced = np.asarray(reduced, dtype=float)
    features = np.asarray(features, dtype=float)
    if reduced.shape[0] != features.shape[0]:
        raise DomainError(
            f"row counts differ: {reduced.shape[0]} reduced vs {features.shape[0]} features"
        )
    z, *stats = standardize(features)
    return np.hstack([reduced, z]), *stats


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two nonzero vectors, rounded as `_pairwise_cosines` rounds the pair."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DomainError(f"vector lengths differ: {a.shape} vs {b.shape}")
    return float(_pairwise_cosines(np.stack([a, b]), np.array([0]), np.array([1]))[0])


def _pairwise_cosines(matrix: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    # the cosine of each index pair (i[k], j[k]) of matrix rows; a zero row raises
    norms = np.linalg.norm(matrix, axis=1)
    if np.any(norms[i] == 0.0) or np.any(norms[j] == 0.0):
        raise DomainError("cosine is undefined for a zero vector")
    nums = np.einsum("ij,ij->i", matrix[i], matrix[j])
    return np.clip(nums / (norms[i] * norms[j]), -1.0, 1.0)


def delta_cosine_experiment(
    matrix: np.ndarray,
    features: np.ndarray,
    k_list: Sequence[int],
    trials: int = 10,
    pair_sample_size: int = 500,
    seed: int = 0,
) -> list[tuple[int, float, float]]:
    """Per k, a (k, mean_abs_delta, stderr) row: mean |cosine_augmented - cosine_original| over sampled pairs.

    Baseline cosines are taken on the mean-centered original matrix, so at
    k = d (a pure rotation) zero features give a zero shift. Each trial
    draws pair_sample_size distinct unordered pairs; the same trial draws
    the same pairs for every k. Deterministic given seed. At most
    `MAX_DELTA_PAIRS` pairs are sampled over all trials.
    """
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if pair_sample_size < 1:
        raise DomainError(f"pair_sample_size must be >= 1, got {pair_sample_size}")
    if trials * pair_sample_size > MAX_DELTA_PAIRS:
        raise DomainError(f"trials {trials} x pair_sample_size {pair_sample_size} exceeds {MAX_DELTA_PAIRS} "
                          "sampled pairs")
    n = matrix.shape[0]
    total_pairs = n * (n - 1) // 2
    if pair_sample_size > total_pairs:
        raise DomainError(
            f"pair_sample_size {pair_sample_size} exceeds {total_pairs} available pairs"
        )
    trial_pairs = []
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        trial_pairs.append(_upper_pairs(n, rng.choice(total_pairs, size=pair_sample_size, replace=False)))
    centered = matrix - matrix.mean(axis=0)
    baseline = [_pairwise_cosines(centered, i, j) for i, j in trial_pairs]

    rows = []
    for k, model in zip(k_list, fit_pca_models(matrix, k_list)):
        reduced = transform(model, matrix)
        augmented = augment(reduced, features)[0]
        trial_means = np.empty(trials)
        for trial, (i, j) in enumerate(trial_pairs):
            deltas = np.abs(_pairwise_cosines(augmented, i, j) - baseline[trial])
            trial_means[trial] = deltas.mean()
        stderr = float(trial_means.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
        rows.append((int(k), float(trial_means.mean()), stderr))
    return rows


def _upper_pairs(n: int, numbers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, columns) of the pairs i < j that `numbers` pick, numbered as `np.triu_indices(n, 1)` lists them.

    Row i's pairs start at number i*n - i*(i+1)/2; each number's row is
    found among those starts, so no list of all n(n-1)/2 pairs is built.
    """
    starts = np.concatenate([[0], np.cumsum(np.arange(n - 1, 0, -1))])
    rows = np.searchsorted(starts, numbers, side="right") - 1
    return rows, numbers - starts[rows] + rows + 1


def save_delta_csv(rows: Sequence[tuple], path: str | Path) -> None:
    write_table(path, ["k", "mean_abs_delta", "stderr"], rows)
