"""Context-aware similarity scoring and ranking-loss minimization.

Two scorers extend the dot product with weighted distance kernels over
extra per-record features (time in days, coordinates): an additive form
and a multiplicative form. `pairwise_scores` is the one scorer: it builds
every kernel as an m x m matrix and composes the scores from them, and
the per-pair `sim_sigma`/`sim_pi` read one cell of a two-record batch.
Batches are compared through ranking matrices, and the kernel weights are
fit by a deterministic shrinking-grid search over the weight space, since
the ranking loss is piecewise constant and has no usable gradient. The
search scores, ranks and compares a chunk of grid points at a time as a
(probes, m, m) stack, through the same code the single-matrix calls use.
`save_score_matrix` writes an exactly symmetric score matrix as the
headerless CSV that `load_rank_labels` reads, formatting each unordered
pair once and reusing the text for the mirrored cell.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Record
from .errors import ConfigError, ConflictError, DomainError, FormatError, RowError
from .geotime import SECONDS_PER_DAY, GeoPoint, great_circle_miles, haversine_miles

SIM_KINDS = ("sigma", "pi")
DIST_KINDS = ("exp_abs", "inv_abs", "floor_geo")
DEFAULT_DIST_KINDS = ("inv_abs", "floor_geo")
RECOMMENDED_BATCH = (10, 20)
# score cells per probe chunk in optimize_alphas: the (probes, m, m) stacks
# stay about 1 MiB each
_CHUNK_CELLS = 2**17


# Each kernel once, as a numpy function of the gap between two features:
# |a - b| for times in days, great-circle miles for coordinates.
_KERNELS = {
    "exp_abs": lambda gap: np.exp(-gap),
    "inv_abs": lambda gap: 1.0 / (gap + 1.0),
    "floor_geo": lambda miles: np.maximum(0.0, (10.0 - np.floor(miles / 500.0)) / 10.0),
}


def dist_exp(a: float, b: float) -> float:
    """exp(-|a - b|), in (0, 1]."""
    return float(_KERNELS["exp_abs"](abs(a - b)))


def dist_inv(a: float, b: float) -> float:
    """1 / (|a - b| + 1), in (0, 1]."""
    return float(_KERNELS["inv_abs"](abs(a - b)))


def dist_floor_geo(a: GeoPoint, b: GeoPoint) -> float:
    """(10 - floor(miles/500)) / 10 of the great-circle distance, clamped at 0."""
    return float(_KERNELS["floor_geo"](haversine_miles(a, b)))


@dataclass(frozen=True)
class SimilarityParams:
    """Scorer kind plus one (alpha, distance kind) per extra feature."""

    kind: str
    alphas: tuple[float, ...]
    dist_kinds: tuple[str, ...]

    def __post_init__(self):
        if self.kind not in SIM_KINDS:
            raise DomainError(f"unknown similarity kind {self.kind!r}; expected one of {SIM_KINDS}")
        if len(self.alphas) != len(self.dist_kinds):
            raise DomainError(
                f"{len(self.alphas)} alphas for {len(self.dist_kinds)} distance kinds"
            )
        for dk in self.dist_kinds:
            if dk not in DIST_KINDS:
                raise DomainError(f"unknown distance kind {dk!r}; expected one of {DIST_KINDS}")


def _pair_score(kind: str, e1, e2, feats1, feats2, p: SimilarityParams) -> float:
    if p.kind != kind:
        raise DomainError(f"sim_{kind} called with kind {p.kind!r}")
    return float(pairwise_scores(np.array([e1, e2], dtype=float), [feats1, feats2], p)[0, 1])


def sim_sigma(e1, e2, feats1, feats2, p: SimilarityParams) -> float:
    """Additive scorer: e1.e2 + sum_i alpha_i * d_i."""
    return _pair_score("sigma", e1, e2, feats1, feats2, p)


def sim_pi(e1, e2, feats1, feats2, p: SimilarityParams) -> float:
    """Multiplicative scorer: (e1.e2) * prod_i (alpha_i + d_i)."""
    return _pair_score("pi", e1, e2, feats1, feats2, p)


def batch_features(records: Sequence[Record]) -> list[tuple]:
    """Per-record extra features for the shipped kernels: (days, coords)."""
    feats = []
    for r in records:
        if r.coords is None:
            raise DomainError(f"record {r.id!r} has no coordinates")
        feats.append((r.timestamp / SECONDS_PER_DAY, r.coords))
    return feats


@dataclass(frozen=True, eq=False)
class RankMatrix:
    """Per-row similarity rankings for a batch.

    entries[i, j] counts the candidates ranked strictly more similar than
    j to i; the diagonal is fixed at 0 and excluded from the loss.
    """

    m: int
    entries: np.ndarray

    def __post_init__(self):
        if self.entries.shape != (self.m, self.m):
            raise DomainError(f"entries shape {self.entries.shape} for m={self.m}")
        if np.any(np.diag(self.entries) != 0):
            raise DomainError("rank matrix diagonal must be 0")


def rank_matrix(scores: np.ndarray) -> RankMatrix:
    """Rank each row's candidates by descending score.

    Ties are broken by ascending candidate index, so the result is
    deterministic and each off-diagonal row is a permutation of
    {0, ..., m-2}. Non-finite scores have no order and are rejected.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2 or scores.shape[0] != scores.shape[1]:
        raise DomainError(f"score matrix must be square, got shape {scores.shape}")
    return RankMatrix(m=scores.shape[0], entries=_rank_entries(scores))


def _rank_entries(scores: np.ndarray) -> np.ndarray:
    # rank_matrix over the last two axes of a (..., m, m) stack
    m = scores.shape[-1]
    if m < 2:
        raise DomainError(f"need at least 2 items, got {m}")
    if not np.isfinite(scores).all():
        raise DomainError("score matrix has non-finite entries")
    # a stable sort of -score keeps ties in index order; the diagonal sorts last
    diag = np.arange(m)
    keys = -scores
    keys[..., diag, diag] = np.inf
    order = np.argsort(keys, axis=-1, kind="stable")
    entries = np.empty(scores.shape, dtype=int)
    np.put_along_axis(entries, order, np.broadcast_to(diag, scores.shape), axis=-1)
    entries[..., diag, diag] = 0
    return entries


def rank_loss(predicted: RankMatrix, labeled: RankMatrix) -> float:
    """Root of the summed squared rank differences over off-diagonal pairs."""
    if predicted.m != labeled.m:
        raise DomainError(f"rank matrix sizes differ: {predicted.m} vs {labeled.m}")
    return float(_rank_losses(predicted.entries, labeled.entries))


def _rank_losses(entries: np.ndarray, labeled: np.ndarray) -> np.ndarray:
    # rank_loss of each (m, m) matrix in a (..., m, m) stack. Both diagonals
    # are 0, so they add nothing, and the sum of squared integer differences
    # is exact, so it does not depend on the summation order.
    diff = entries - labeled
    return np.sqrt(np.sum(diff * diff, axis=(-2, -1)))


def pairwise_scores(
    embeddings: np.ndarray,
    features: Sequence[tuple],
    params: SimilarityParams,
) -> np.ndarray:
    """Full m x m score matrix; exactly symmetric by construction."""
    embeddings = np.asarray(embeddings, dtype=float)
    m = embeddings.shape[0]
    if len(features) != m:
        raise DomainError(f"{m} embeddings for {len(features)} feature tuples")
    if any(len(feats) != len(params.alphas) for feats in features):
        raise DomainError(f"every record needs {len(params.alphas)} features, one per alpha")
    kernels = _kernel_matrices(features, params.dist_kinds)
    alphas = np.asarray(params.alphas, dtype=float)
    scores = _compose_scores(embeddings @ embeddings.T, kernels, params.kind, alphas)
    # mirror the upper triangle in place; adding 0.0 normalizes -0.0 to 0.0
    # exactly as the sum of the two triangles would
    for i in range(m - 1):
        scores[i + 1:, i] = scores[i, i + 1:]
    scores += 0.0
    return scores


def _kernel_matrices(features: Sequence[tuple], dist_kinds: Sequence[str]) -> list[np.ndarray]:
    return [
        _kernel_matrix([f[fi] for f in features], kind, fi + 1)
        for fi, kind in enumerate(dist_kinds)
    ]


def _kernel_matrix(column: list, kind: str, position: int) -> np.ndarray:
    if kind not in _KERNELS:
        raise DomainError(f"unknown distance kind {kind!r}; expected one of {DIST_KINDS}")
    # floor_geo reads coordinates, the other kinds read day numbers
    wants_coords = kind == "floor_geo"
    for value in column:
        if isinstance(value, GeoPoint) != wants_coords:
            need = "coordinates" if wants_coords else "day numbers"
            raise DomainError(
                f"distance kind {kind!r} needs {need}, but feature {position} "
                f"holds {type(value).__name__} values"
            )
    if wants_coords:
        coords = np.array([(p.lat, p.lon) for p in column]).reshape(-1, 2)
        lat, lon = coords[:, :1], coords[:, 1:]
        return _KERNELS[kind](great_circle_miles(lat, lon, lat.T, lon.T))
    x = np.array(column, dtype=float)[:, None]
    return _KERNELS[kind](np.abs(x - x.T))


def _compose_scores(
    dots: np.ndarray, kernels: Sequence[np.ndarray], kind: str, alphas: np.ndarray
) -> np.ndarray:
    # alphas holds one weight per kernel on its last axis; any leading axes
    # (one per probe) lead the result too, so (n,) gives (m, m) and
    # (probes, n) gives (probes, m, m)
    weights = [alphas[..., i, None, None] for i in range(len(kernels))]
    out = np.empty(alphas.shape[:-1] + dots.shape)
    if kind == "sigma":
        out[...] = dots
        for alpha, kernel in zip(weights, kernels):
            out += alpha * kernel
        return out
    out.fill(1.0)
    for alpha, kernel in zip(weights, kernels):
        out *= alpha + kernel
    out *= dots
    return out


@dataclass(frozen=True)
class GridConfig:
    """Shrinking-grid search settings.

    bounds gives one (lo, hi) interval per alpha. step is the round-1 grid
    spacing (None means 21 points per axis); later rounds keep the point
    count and halve the interval around the best point by `shrink`,
    clipped to the original bounds. The search is deterministic.
    """

    bounds: tuple[tuple[float, float], ...]
    step: float | None = None
    shrink: float = 0.5
    rounds: int = 6

    def __post_init__(self):
        if not self.bounds:
            raise ConfigError("bounds must not be empty")
        for lo, hi in self.bounds:
            if not lo < hi:
                raise ConfigError(f"bad interval [{lo}, {hi}]: lo must be < hi")
        if self.step is not None and self.step <= 0:
            raise ConfigError(f"step must be positive, got {self.step}")
        if not 0 < self.shrink < 1:
            raise ConfigError(f"shrink must be in (0, 1), got {self.shrink}")
        if self.rounds < 1:
            raise ConfigError(f"rounds must be >= 1, got {self.rounds}")

    def points_per_axis(self) -> tuple[int, ...]:
        if self.step is None:
            return (21,) * len(self.bounds)
        return tuple(max(1, int(round((hi - lo) / self.step)) + 1) for lo, hi in self.bounds)


def _axis_points(lo: float, hi: float, count: int) -> np.ndarray:
    if count == 1:
        return np.array([(lo + hi) / 2.0])
    return np.linspace(lo, hi, count)


def optimize_alphas(
    embeddings: np.ndarray,
    features: Sequence[tuple],
    labels: RankMatrix,
    kind: str,
    dist_kinds: Sequence[str],
    cfg: GridConfig,
) -> tuple[SimilarityParams, float, list[tuple]]:
    """Fit the alpha weights by shrinking-grid search against labeled ranks.

    Returns the best parameters, their ranking loss, and the full probe
    trace as (round, alpha1, ..., alphak, loss) rows. Each round probes
    the grid in lexicographic order, alpha1 slowest. The search is
    exhaustive per round and fully deterministic; ties keep the first probe.
    """
    embeddings = np.asarray(embeddings, dtype=float)
    m = embeddings.shape[0]
    dist_kinds = tuple(dist_kinds)
    n = len(dist_kinds)
    if len(cfg.bounds) != n or any(len(feats) != n for feats in features):
        raise ConfigError(f"each of {n} distance kinds needs one bound and one feature per record")
    if labels.m != m:
        raise DomainError(f"label matrix is {labels.m}x{labels.m} for batch size {m}")
    if not RECOMMENDED_BATCH[0] <= m <= RECOMMENDED_BATCH[1]:
        warnings.warn(
            f"batch size {m} outside the recommended "
            f"{RECOMMENDED_BATCH[0]}-{RECOMMENDED_BATCH[1]} range",
            stacklevel=2,
        )

    kernels = _kernel_matrices(features, dist_kinds)
    SimilarityParams(kind=kind, alphas=(0.0,) * n, dist_kinds=dist_kinds)  # validates kind
    dots = embeddings @ embeddings.T
    chunk = max(1, _CHUNK_CELLS // (m * m))

    counts = cfg.points_per_axis()
    lo, hi = np.array(cfg.bounds, dtype=float).T
    center = (lo + hi) / 2.0
    half = (hi - lo) / 2.0

    trace: list[tuple] = []
    for rnd in range(1, cfg.rounds + 1):
        axes = map(_axis_points, np.maximum(lo, center - half), np.minimum(hi, center + half), counts)
        # one row per probe, in lexicographic order with alpha1 slowest
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        if rnd == 1 and any(c % 2 == 0 for c in counts):
            # even grids skip the interval midpoint; probe it so the result
            # can never be worse than the initial grid center
            grid = np.vstack([center, grid])
        losses = np.concatenate([
            _rank_losses(_rank_entries(_compose_scores(dots, kernels, kind, grid[start:start + chunk])),
                         labels.entries)
            for start in range(0, len(grid), chunk)
        ])
        trace.extend((rnd, *alphas, loss) for alphas, loss in zip(grid.tolist(), losses.tolist()))
        # min keeps the first of equal losses
        best = min(trace, key=lambda row: row[-1])
        center = np.array(best[1:-1])
        half = half * cfg.shrink

    params = SimilarityParams(kind=kind, alphas=best[1:-1], dist_kinds=dist_kinds)
    return params, best[-1], trace


def save_trace_csv(trace: Sequence[tuple], path: str | Path) -> None:
    """Write (round, alpha1, ..., alphak, loss) rows under a matching header."""
    n_alphas = len(trace[0]) - 2 if trace else 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", *(f"alpha{i}" for i in range(1, n_alphas + 1)), "loss"])
        for rnd, *values in trace:
            writer.writerow([rnd, *(repr(float(v)) for v in values)])


def save_score_matrix(scores: np.ndarray, path: str | Path) -> None:
    """Write a square, exactly symmetric score matrix as headerless CSV.

    Each cell is the shortest `repr` of its float, one matrix row per
    line, the layout `load_rank_labels` reads back. Cell (j, i) prints as
    cell (i, j), so each unordered pair is formatted once: row i formats
    its cells from the diagonal on and leaves the text of cell (i, j)
    on column j's list, which row j joins and drops. The lists hold
    about m²/4 texts at the middle row and none when the write ends.
    Raises DomainError, with no file written, unless the matrix equals
    its transpose.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2 or scores.shape[0] != scores.shape[1]:
        raise DomainError(f"score matrix must be square, got shape {scores.shape}")
    # -0.0 == 0.0, but the two print differently
    signs = np.signbit(scores)
    if not (np.array_equal(scores, scores.T) and np.array_equal(signs, signs.T)):
        raise DomainError("score matrix is not symmetric")
    m = scores.shape[0]
    # kept as bytes: a 20-character text takes 64 B of memory as bytes, 80 B as str
    below: list[list[bytes] | None] = [[] for _ in range(m)]
    with open(path, "wb") as fh:
        for i in range(m):
            upper = list(map(str.encode, map(repr, scores[i, i:].tolist())))
            line, below[i] = below[i], None
            line += upper
            fh.write(b",".join(line) + b"\n")
            for column, text in zip(below[i + 1:], upper[1:]):
                column.append(text)


def load_rank_labels(path: str | Path) -> RankMatrix:
    """Read labeled similarity scores and convert them to a RankMatrix.

    Two layouts are accepted: a header line `i,j,score` followed by one
    row per unordered pair (0-based batch indices, scores in [0, 1], all
    pairs required), or a headerless full m x m score matrix. Either way
    the file carries scores; rankings are always derived here.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows = [row for row in rows if row and any(cell.strip() for cell in row)]
    if not rows:
        raise FormatError(f"{path}: empty labels file")
    header = [cell.strip().lower() for cell in rows[0]]
    if header == ["i", "j", "score"]:
        return _labels_from_triplets(rows[1:], path)
    return _labels_from_matrix(rows, path)


def _labels_from_triplets(rows: list[list[str]], path) -> RankMatrix:
    pairs: dict[tuple[int, int], float] = {}
    max_index = -1
    for rownum, row in enumerate(rows, start=1):
        if len(row) != 3:
            raise RowError(rownum, f"expected 3 fields, got {len(row)}")
        try:
            i, j = int(row[0]), int(row[1])
            score = float(row[2])
        except ValueError:
            raise RowError(rownum, "indices must be integers and score numeric") from None
        if i < 0 or j < 0:
            raise RowError(rownum, "indices must be nonnegative")
        if i == j:
            raise RowError(rownum, f"self-pair ({i},{j}) is not allowed")
        if not 0.0 <= score <= 1.0:
            raise RowError(rownum, f"score {score} outside [0, 1]")
        key = (min(i, j), max(i, j))
        if key in pairs:
            raise ConflictError(f"duplicate pair {key} at row {rownum}")
        pairs[key] = score
        max_index = max(max_index, i, j)
    m = max_index + 1
    if m < 2:
        raise FormatError(f"{path}: need at least 2 items")
    expected = m * (m - 1) // 2
    if len(pairs) != expected:
        raise FormatError(f"{path}: {len(pairs)} pairs given, need all {expected} for m={m}")
    scores = np.zeros((m, m))
    for (i, j), score in pairs.items():
        scores[i, j] = scores[j, i] = score
    return rank_matrix(scores)


def _labels_from_matrix(rows: list[list[str]], path) -> RankMatrix:
    m = len(rows)
    if m < 2:
        raise FormatError(f"{path}: need at least 2 rows")
    scores = np.zeros((m, m))
    for rownum, row in enumerate(rows, start=1):
        if len(row) != m:
            raise RowError(rownum, f"expected {m} fields, got {len(row)}")
        try:
            scores[rownum - 1] = [float(v) for v in row]
        except ValueError:
            raise RowError(rownum, "non-numeric score") from None
        if not np.isfinite(scores[rownum - 1]).all():
            raise RowError(rownum, "non-finite score")
    if not np.array_equal(scores, scores.T):
        raise FormatError(f"{path}: score matrix is not symmetric")
    return rank_matrix(scores)
