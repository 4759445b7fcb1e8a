"""Human-label ingestion and the evaluation drivers.

Labels are per-pair rater scores averaged and scaled into [0, 1]. The two
experiment drivers are top_pair_quality (mean human label of the pairs the
model ranks most similar) and component_sweep (that metric across
component counts for each feature variant). compare_rankings scores a
predicted ranking matrix against a labeled one and quantifies degenerate
all-one-value columns.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .embed import EmbeddingSpace
from .errors import ConflictError, DomainError, FormatError, RowError, SchemaError, UnknownKeyError
from .rankopt import RankMatrix, rank_loss
from .spectra import _pairwise_cosines, augment, fit_pca_models, transform
from .spectra import fit_pca  # noqa: F401  # kept in this namespace: bench/tracer.py patches it
from .table import filled_rows, open_text, parse_floats, write_table

SWEEP_VARIANTS = ("all_features", "condensed_time", "pca_only")


@dataclass(frozen=True)
class LabeledPair:
    """One labeled pair: raw rater scores plus the scaled mean label."""

    id_a: str
    id_b: str
    rater_scores: tuple[float, ...]
    label: float

    def __post_init__(self):
        if not self.rater_scores:
            raise DomainError(f"pair ({self.id_a}, {self.id_b}) has no rater scores")
        if not 0.0 <= self.label <= 1.0:
            raise DomainError(f"label {self.label} outside [0, 1]")


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


def load_labels(
    path: str | Path,
    scale_max: float,
    corpus_ids: Sequence[str] | None = None,
) -> list[LabeledPair]:
    """Read id_a,id_b,score_1[,score_2,...] rows into LabeledPairs.

    Rows may carry different numbers of scores, in the grammar of
    `table.parse_floats`; empty trailing cells are ignored. label =
    mean(scores) / scale_max. When corpus_ids is given, ids outside it are
    rejected. A pair of an id with itself, or a pair given twice in either
    order, is rejected too.
    """
    if scale_max <= 0:
        raise DomainError(f"scale_max must be positive, got {scale_max}")
    known = set(corpus_ids) if corpus_ids is not None else None
    pairs: list[LabeledPair] = []
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
            if known is not None:
                for rid in (id_a, id_b):
                    if rid not in known:
                        raise UnknownKeyError(rid, f"{where}: id {rid!r} not in corpus")
            if id_a == id_b:
                raise RowError(where, f"self-pair ({id_a},{id_b}) is not allowed")
            raw = [cell for cell in row[2:] if cell.strip()]
            if not raw:
                raise RowError(where, "no rater scores")
            scores = tuple(parse_floats(where, raw).tolist())
            for s in scores:
                if not 0.0 <= s <= scale_max:
                    raise RowError(where, f"score {s} outside [0, {scale_max}]")
            key = (min(id_a, id_b), max(id_a, id_b))
            if key in seen:
                raise ConflictError(f"{where}: duplicate pair {key}")
            seen.add(key)
            label = sum(scores) / len(scores) / scale_max
            pairs.append(LabeledPair(id_a=id_a, id_b=id_b, rater_scores=scores, label=label))
    if not pairs:
        raise FormatError(f"{path}: no labeled pairs")
    return pairs


def top_pair_quality(
    space: EmbeddingSpace,
    labels: Sequence[LabeledPair],
    top_n: int,
) -> float:
    """Mean human label of the top_n labeled pairs by model cosine.

    All pairs are scored by one vectorized cosine. Ties in model score
    break by pair position in `labels`, so the result is deterministic.
    The first id, in label order, that the space lacks raises before a
    zero row does.
    """
    if not 1 <= top_n <= len(labels):
        raise DomainError(f"top_n {top_n} outside [1, {len(labels)}]")
    try:
        rows = [space.row_index(rid) for pair in labels for rid in (pair.id_a, pair.id_b)]
    except UnknownKeyError as exc:
        raise UnknownKeyError(exc.query, f"id {exc.query!r} not in the evaluated space") from None
    chosen = np.argsort(-_pairwise_cosines(space.matrix, rows[0::2], rows[1::2]), kind="stable")[:top_n]
    return sum(labels[index].label for index in chosen.tolist()) / top_n


def component_sweep(
    space: EmbeddingSpace,
    features_all: np.ndarray,
    features_condensed: np.ndarray,
    labels: Sequence[LabeledPair],
    k_list: Sequence[int],
    top_n: int = 20,
) -> tuple[SweepCell, ...]:
    """top_pair_quality for every (variant, k) combination.

    Variants: the reduced space with all geotemporal features appended,
    with condensed-time features appended, and with nothing appended.
    """
    reduced_by_k = [transform(model, space) for model in fit_pca_models(space, k_list)]
    cells = []
    for variant, features in zip(SWEEP_VARIANTS, (features_all, features_condensed, None)):
        for k, reduced in zip(k_list, reduced_by_k):
            matrix = reduced if features is None else augment(reduced, features)[0]
            mean_label = top_pair_quality(EmbeddingSpace(ids=space.ids, matrix=matrix), labels, top_n)
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

