"""Human-label ingestion and the evaluation drivers.

Labels are per-pair rater scores averaged and scaled into [0, 1];
load_labels resolves each pair's two ids to row positions once, so the
drivers work on a matrix and arrays of row pairs. The two experiment
drivers are top_pair_quality (mean human label of the pairs the model
ranks most similar) and component_sweep (that metric across component
counts for each feature variant). compare_rankings scores a predicted
ranking matrix against a labeled one and quantifies degenerate
all-one-value columns.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ConflictError, DomainError, FormatError, RowError, SchemaError, UnknownKeyError
from .rankopt import RankMatrix, rank_loss
from .spectra import _pairwise_cosines, augment, fit_pca_models, transform
from .spectra import fit_pca  # noqa: F401  # kept in this namespace: bench/tests/test_bench.py pins it
from .table import filled_rows, open_text, parse_floats, write_table


@dataclass(frozen=True)
class SweepCell:
    variant: str
    k: int
    mean_label: float
    n_pairs: int


@dataclass(frozen=True)
class RankingReport:
    """Ranking loss plus per-column rank-entropy (bits) of the prediction."""

    loss: float
    column_entropy: tuple[float, ...]
    uniform_columns: tuple[int, ...]


def load_labels(path: str | Path, scale_max: float, ids: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Read id_a,id_b,score_1[,score_2,...] rows into (pairs, labels), in file order.

    pairs is a (p, 2) array of each pair's two positions in `ids`, in the
    order the row gives them; labels holds each pair's mean(scores) /
    scale_max. Rows may carry different numbers of scores, in the grammar
    of `table.parse_floats`; empty trailing cells are ignored. An id
    outside `ids`, a pair of an id with itself, or a pair given twice in
    either order is rejected.
    """
    if scale_max <= 0:
        raise DomainError(f"scale_max must be positive, got {scale_max}")
    position = {rid: i for i, rid in enumerate(ids)}
    pairs: list[tuple[int, int]] = []
    labels: list[float] = []
    seen: set[tuple[str, str]] = set()
    with open_text(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["id_a", "id_b"]:
            raise SchemaError(f"{path}: expected header id_a,id_b,score_1,...")
        if len(header) < 3:
            raise SchemaError(f"{path}: need at least one score column")
        for row in filled_rows(reader):
            where = f"{path}: line {reader.line_num}"
            if len(row) < 3:
                raise RowError(where, "expected id_a, id_b and at least one score")
            id_a, id_b = row[0], row[1]
            for rid in (id_a, id_b):
                if rid not in position:
                    raise UnknownKeyError(rid, f"{where}: id {rid!r} not in corpus")
            if id_a == id_b:
                raise RowError(where, f"self-pair ({id_a},{id_b}) is not allowed")
            raw = [cell for cell in row[2:] if cell.strip()]
            if not raw:
                raise RowError(where, "no rater scores")
            scores = parse_floats(where, raw).tolist()
            for s in scores:
                if not 0.0 <= s <= scale_max:
                    raise RowError(where, f"score {s} outside [0, {scale_max}]")
            key = (min(id_a, id_b), max(id_a, id_b))
            if key in seen:
                raise ConflictError(f"{where}: duplicate pair {key}")
            seen.add(key)
            pairs.append((position[id_a], position[id_b]))
            labels.append(sum(scores) / len(scores) / scale_max)
    if not pairs:
        raise FormatError(f"{path}: no labeled pairs")
    return np.array(pairs), np.array(labels)


def top_pair_quality(matrix: np.ndarray, pairs: np.ndarray, labels: np.ndarray, top_n: int) -> float:
    """Mean label of the top_n pairs of matrix rows by model cosine.

    `pairs` and `labels` are as `load_labels` returns them. All pairs are
    scored by one vectorized cosine. Ties in model score break by pair
    position, so the result is deterministic.
    """
    if not 1 <= top_n <= len(labels):
        raise DomainError(f"top_n {top_n} outside [1, {len(labels)}]")
    chosen = np.argsort(-_pairwise_cosines(matrix, pairs[:, 0], pairs[:, 1]), kind="stable")[:top_n]
    return sum(labels[chosen].tolist()) / top_n


def component_sweep(
    matrix: np.ndarray,
    features: Mapping[str, np.ndarray],
    pairs: np.ndarray,
    labels: np.ndarray,
    k_list: Sequence[int],
    top_n: int = 20,
) -> tuple[SweepCell, ...]:
    """top_pair_quality for every (variant, k) combination.

    Variants: the reduced matrix with each of `features` (by variant name,
    in cell order) appended, then with nothing appended, as `pca_only`.
    """
    reduced_by_k = [transform(model, matrix) for model in fit_pca_models(matrix, k_list)]
    cells = []
    for variant, appended in [*features.items(), ("pca_only", None)]:
        for k, reduced in zip(k_list, reduced_by_k):
            cell = reduced if appended is None else augment(reduced, appended)[0]
            mean_label = top_pair_quality(cell, pairs, labels, top_n)
            cells.append(
                SweepCell(variant=variant, k=int(k), mean_label=mean_label, n_pairs=top_n)
            )
    return tuple(cells)


def save_sweep_csv(cells: Sequence[SweepCell], path: str | Path) -> None:
    rows = ([cell.variant, cell.k, cell.mean_label, cell.n_pairs] for cell in cells)
    write_table(path, ["variant", "k", "mean_label", "n_pairs"], rows)


def _column_entropy_bits(column: np.ndarray) -> float:
    _, counts = np.unique(column, return_counts=True)
    probs = counts / counts.sum()
    return float(-(probs * np.log2(probs)).sum())


def compare_rankings(pred: RankMatrix, labeled: RankMatrix) -> RankingReport:
    """Ranking loss plus a dispersion statistic per predicted column.

    A column whose off-diagonal ranks are all identical has entropy 0 and
    is flagged: it means one item got the same rank from every other item.
    """
    loss = rank_loss(pred, labeled)
    m = pred.m
    entropies = []
    for j in range(m):
        column = np.array([pred.entries[i, j] for i in range(m) if i != j])
        entropies.append(_column_entropy_bits(column))
    uniform = tuple(j for j, h in enumerate(entropies) if h == 0.0)
    return RankingReport(loss=loss, column_entropy=tuple(entropies), uniform_columns=uniform)


def save_rank_heatmap(matrix: RankMatrix, path: str | Path) -> None:
    """Write every cell as i,j,rank for external plotting."""
    ranks = enumerate(matrix.entries.astype(int).tolist())
    write_table(path, ["i", "j", "rank"], ([i, j, r] for i, row in ranks for j, r in enumerate(row)))

