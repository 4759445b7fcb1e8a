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
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .embed import EmbeddingSpace
from .errors import DomainError, RowError, SchemaError, UnknownKeyError
from .rankopt import RankMatrix, rank_loss
from .spectra import AugmentedSpace, augment, cosine, fit_pca_models, transform
from .spectra import fit_pca  # noqa: F401  # kept in this namespace: bench/tracer.py patches it

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
class SweepResult:
    cells: tuple[SweepCell, ...]
    top_n: int
    seed: int


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

    Rows may carry different numbers of scores; empty trailing cells are
    ignored. label = mean(scores) / scale_max. When corpus_ids is given,
    ids outside it are rejected.
    """
    if scale_max <= 0:
        raise DomainError(f"scale_max must be positive, got {scale_max}")
    known = set(corpus_ids) if corpus_ids is not None else None
    pairs: list[LabeledPair] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["id_a", "id_b"]:
            raise SchemaError(f"{path}: expected header id_a,id_b,score_1,...")
        if len(header) < 3:
            raise SchemaError(f"{path}: need at least one score column")
        for rownum, row in enumerate(reader, start=1):
            if not row or not any(cell.strip() for cell in row):
                continue
            if len(row) < 3:
                raise RowError(rownum, "expected id_a, id_b and at least one score")
            id_a, id_b = row[0], row[1]
            if known is not None:
                for rid in (id_a, id_b):
                    if rid not in known:
                        raise UnknownKeyError(rid, f"row {rownum}: id {rid!r} not in corpus")
            raw = [cell for cell in row[2:] if cell.strip()]
            if not raw:
                raise RowError(rownum, "no rater scores")
            try:
                scores = tuple(float(v) for v in raw)
            except ValueError:
                raise RowError(rownum, "non-numeric rater score") from None
            for s in scores:
                if not 0.0 <= s <= scale_max:
                    raise RowError(rownum, f"score {s} outside [0, {scale_max}]")
            label = sum(scores) / len(scores) / scale_max
            pairs.append(LabeledPair(id_a=id_a, id_b=id_b, rater_scores=scores, label=label))
    return pairs


def top_pair_quality(
    space: EmbeddingSpace | AugmentedSpace,
    labels: Sequence[LabeledPair],
    top_n: int,
    seed: int = 0,
) -> float:
    """Mean human label of the top_n labeled pairs by model cosine.

    Ties in model score break by pair position in `labels`, so the result
    is deterministic; seed is recorded by callers but unused here.
    """
    if not 1 <= top_n <= len(labels):
        raise DomainError(f"top_n {top_n} outside [1, {len(labels)}]")
    try:
        scored = [
            (cosine(space.row(pair.id_a), space.row(pair.id_b)), index)
            for index, pair in enumerate(labels)
        ]
    except UnknownKeyError as exc:
        raise UnknownKeyError(exc.query, f"id {exc.query!r} not in the evaluated space") from None
    scored.sort(key=lambda item: (-item[0], item[1]))
    chosen = scored[:top_n]
    return sum(labels[index].label for _, index in chosen) / top_n


def component_sweep(
    space: EmbeddingSpace,
    features_all: np.ndarray,
    features_condensed: np.ndarray,
    labels: Sequence[LabeledPair],
    k_list: Sequence[int],
    top_n: int = 20,
    seed: int = 0,
) -> SweepResult:
    """top_pair_quality for every (variant, k) combination.

    Variants: the reduced space with all geotemporal features appended,
    with condensed-time features appended, and with nothing appended.
    """
    reduced_by_k = [transform(model, space) for model in fit_pca_models(space, k_list)]
    cells = []
    for variant in SWEEP_VARIANTS:
        for k, reduced in zip(k_list, reduced_by_k):
            if variant == "all_features":
                candidate = augment(reduced, features_all, space.ids)
            elif variant == "condensed_time":
                candidate = augment(reduced, features_condensed, space.ids)
            else:
                candidate = EmbeddingSpace(ids=space.ids, matrix=reduced)
            mean_label = top_pair_quality(candidate, labels, top_n, seed)
            cells.append(
                SweepCell(variant=variant, k=int(k), mean_label=mean_label, n_pairs=top_n)
            )
    return SweepResult(cells=tuple(cells), top_n=top_n, seed=seed)


def save_sweep_csv(result: SweepResult, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "k", "mean_label", "n_pairs"])
        for cell in result.cells:
            writer.writerow([cell.variant, cell.k, repr(cell.mean_label), cell.n_pairs])


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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "rank"])
        for i in range(matrix.m):
            for j in range(matrix.m):
                writer.writerow([i, j, int(matrix.entries[i, j])])


def label_rank_matrix(labels: Sequence[LabeledPair], ids: Sequence[str]) -> RankMatrix:
    """Build a labeled RankMatrix for a batch covered by all-pairs labels."""
    from .rankopt import rank_matrix

    index = {rid: i for i, rid in enumerate(ids)}
    m = len(ids)
    if m < 2:
        raise DomainError(f"need at least 2 ids, got {m}")
    scores = np.zeros((m, m))
    seen = np.zeros((m, m), dtype=bool)
    for pair in labels:
        for rid in (pair.id_a, pair.id_b):
            if rid not in index:
                raise UnknownKeyError(rid, f"id {rid!r} not in the batch")
        i, j = index[pair.id_a], index[pair.id_b]
        scores[i, j] = scores[j, i] = pair.label
        seen[i, j] = seen[j, i] = True
    np.fill_diagonal(seen, True)
    if not seen.all():
        missing = int(np.triu(~seen, 1).sum())
        raise DomainError(f"labels cover only some pairs; {missing} unordered pairs missing")
    return rank_matrix(scores)
