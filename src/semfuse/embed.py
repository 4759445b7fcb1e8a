"""Sentence embeddings from word vectors.

A context model (mean + regularized covariance of in-vocabulary word
vectors) turns each token into a salience weight via Mahalanobis distance;
sentence vectors are salience-weighted token means scaled to unit norm.
`token_saliences` computes the weight of every distinct token of a corpus
from one linear solve against the context metric, and `embed_corpus`
calls it once per corpus. Precomputed embedding spaces can also be
imported from CSV.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NoReturn, Sequence

import numpy as np

from .corpus import CleanDoc
from .errors import ConflictError, DomainError, FormatError, RowError, SchemaError, UnknownKeyError

DEFAULT_RIDGE_SCALE = 1e-3
_SYMMETRY_TOL = 1e-9


@dataclass(frozen=True)
class WordVectorTable:
    """Token to vector lookup with a single fixed dimensionality."""

    dim: int
    vectors: dict[str, np.ndarray] = field(repr=False)

    def __post_init__(self):
        if self.dim < 2:
            raise DomainError(f"word vectors must have dim >= 2, got {self.dim}")

    def __contains__(self, token: str) -> bool:
        return token in self.vectors

    def vector(self, token: str) -> np.ndarray:
        try:
            return self.vectors[token]
        except KeyError:
            raise UnknownKeyError(token, f"token {token!r} not in vocabulary") from None


@dataclass(frozen=True)
class ContextModel:
    """Mean and regularized covariance of the word vectors in a context.

    covariance already includes the ridge applied at fit time; the stored
    ridge is applied again on top when the model is used as a metric, so a
    hand-built model should carry its intended metric in covariance and
    ridge 0.
    """

    mean: np.ndarray
    covariance: np.ndarray
    ridge: float

    def __post_init__(self):
        cov = np.asarray(self.covariance)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise DomainError(f"covariance must be square, got shape {cov.shape}")
        if self.mean.shape != (cov.shape[0],):
            raise DomainError("mean length does not match covariance size")
        if not np.allclose(cov, cov.T, atol=_SYMMETRY_TOL, rtol=0.0):
            raise DomainError("covariance is not symmetric")
        if self.ridge < 0:
            raise DomainError(f"ridge must be >= 0, got {self.ridge}")

    def metric(self) -> np.ndarray:
        return self.covariance + self.ridge * np.eye(self.covariance.shape[0])


class RowLookup:
    """Row-by-id access for a space with `ids` and `matrix`.

    The id -> row index is built once, on the first lookup. A repeated id
    resolves to its first row.
    """

    @cached_property
    def _row_of(self) -> dict[str, int]:
        index: dict[str, int] = {}
        for i, rid in enumerate(self.ids):
            index.setdefault(rid, i)
        return index

    def row(self, record_id: str) -> np.ndarray:
        try:
            return self.matrix[self._row_of[record_id]]
        except KeyError:
            raise UnknownKeyError(record_id, f"id {record_id!r} not in embedding space") from None


@dataclass(frozen=True, eq=False)
class EmbeddingSpace(RowLookup):
    """Ordered ids with their embedding rows."""

    ids: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        if self.matrix.ndim != 2 or self.matrix.shape[0] != len(self.ids):
            raise DomainError(
                f"matrix has {self.matrix.shape[0]} rows for {len(self.ids)} ids"
            )
        if len(set(self.ids)) != len(self.ids):
            raise DomainError("duplicate ids in embedding space")
        if not np.all(np.isfinite(self.matrix)):
            raise DomainError("embedding matrix contains non-finite values")

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class SentenceEmbedding:
    """Unit-norm sentence vector; fallback marks an unweighted-mean result."""

    vector: np.ndarray
    fallback: bool = False


def _value_texts(lines: Iterable[str], tokens: list[str]) -> Iterator[str]:
    """Yield the text after the token of each non-blank line, appending the token.

    A line that holds only a token yields nothing, so it leaves one more
    token than value rows.
    """
    for line in lines:
        parts = line.split(None, 1)
        if parts:
            tokens.append(parts[0])
            yield from parts[1:]


def _read_table(path: str | Path) -> tuple[list[str], np.ndarray | None]:
    """Stream the file through one `np.loadtxt` call: (tokens, value rows).

    The rows are None when the file holds no values or numpy rejects them.
    """
    tokens: list[str] = []
    with open(path, encoding="utf-8") as fh:
        texts = _value_texts(fh, tokens)
        first = next(texts, None)
        if first is None:
            return tokens, None
        try:
            matrix = np.loadtxt(
                itertools.chain([first], texts), comments=None, dtype=float, ndmin=2
            )
        except ValueError:
            return tokens, None
    return tokens, matrix


def _raise_first_fault(path: str | Path) -> NoReturn:
    """Re-read a rejected table line by line and raise its first fault."""
    seen: set[str] = set()
    dim = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            token, values = parts[0], parts[1:]
            where = f"{path}: line {lineno}"
            if dim is None:
                dim = len(values)
                if dim < 2:
                    raise FormatError(f"{where}: need at least 2 vector values, got {dim}")
            elif len(values) != dim:
                raise FormatError(f"{where}: expected {dim} values, got {len(values)}")
            if token in seen:
                raise ConflictError(f"{where}: duplicate token {token!r}")
            seen.add(token)
            try:
                # one value per "line": the same number parser as the bulk read
                vector = np.loadtxt(values, comments=None, dtype=float)
            except ValueError:
                raise FormatError(f"{where}: non-numeric vector value") from None
            if not np.isfinite(vector).all():
                raise FormatError(f"{where}: non-finite vector value")
    if dim is None:
        raise FormatError(f"{path}: no word vector entries")
    # reached only if the bulk read and the line-by-line read disagree
    raise FormatError(f"{path}: word vectors could not be read as one table")


def load_word_vectors(path: str | Path) -> WordVectorTable:
    """Read `token v1 ... vdim` lines into a WordVectorTable.

    Tokens and values are separated by runs of whitespace; blank lines are
    skipped. The first entry fixes the dimensionality (at least 2); every
    later line must match, and no token may repeat. Values follow numpy's
    number grammar: ASCII decimal or exponent notation with an optional
    sign. `1_0` and non-ASCII digits are rejected, and `nan`, `inf` or an
    overflowing value such as `1e999` is rejected as non-finite.

    The whole file is parsed by one `np.loadtxt` call, and each vector is a
    row of the resulting matrix, in file order. A file that fails any rule
    is read again line by line, and the first fault in file order raises a
    FormatError (ConflictError for a repeated token) naming the file and
    the line.
    """
    tokens, matrix = _read_table(path)
    if matrix is not None and matrix.shape[1] >= 2 and np.isfinite(matrix).all():
        vectors = dict(zip(tokens, matrix))
        # a repeated token, or a token-only line (one row short), leaves fewer entries
        if len(vectors) == len(tokens):
            return WordVectorTable(dim=matrix.shape[1], vectors=vectors)
    _raise_first_fault(path)


def fit_context(
    docs: Sequence[CleanDoc],
    table: WordVectorTable,
    ridge: float | None = None,
) -> ContextModel:
    """Fit mean and covariance over all in-vocabulary token occurrences.

    Tokens are counted with multiplicity. The covariance is the population
    covariance with ridge added to the diagonal; ridge defaults to
    1e-3 * trace / dim.
    """
    rows = [table.vectors[t] for doc in docs for t in doc.tokens if t in table.vectors]
    if not rows:
        raise DomainError("no in-vocabulary tokens in context")
    stack = np.array(rows)
    mean = stack.mean(axis=0)
    centered = stack - mean
    cov = centered.T @ centered / len(rows)
    cov = (cov + cov.T) / 2.0
    if ridge is None:
        ridge = DEFAULT_RIDGE_SCALE * float(np.trace(cov)) / table.dim
    elif ridge < 0:
        raise DomainError(f"ridge must be >= 0, got {ridge}")
    cov = cov + ridge * np.eye(table.dim)
    return ContextModel(mean=mean, covariance=cov, ridge=float(ridge))


def token_saliences(
    tokens: Iterable[str], ctx: ContextModel, table: WordVectorTable
) -> dict[str, float]:
    """Mahalanobis distance from the context mean of each distinct known token.

    Out-of-vocabulary tokens are skipped. Every nonzero residual is a
    right-hand side of one solve against the context metric; a token at
    the mean gets exactly 0.0 and needs no solve.
    """
    known = list(dict.fromkeys(t for t in tokens if t in table.vectors))
    saliences = dict.fromkeys(known, 0.0)
    residuals = np.array([table.vectors[t] for t in known]).reshape(-1, table.dim) - ctx.mean
    moved = residuals.any(axis=1)
    if moved.any():
        residuals = residuals[moved]
        try:
            solved = np.linalg.solve(ctx.metric(), residuals.T)
        except np.linalg.LinAlgError:
            raise DomainError("context metric is singular; increase ridge") from None
        squared = np.maximum(0.0, np.einsum("ij,ji->i", residuals, solved))
        for token, value in zip(itertools.compress(known, moved), np.sqrt(squared)):
            saliences[token] = float(value)
    return saliences


def word_salience(token: str, ctx: ContextModel, table: WordVectorTable) -> float:
    """Mahalanobis distance of a token's vector from the context mean."""
    table.vector(token)  # raises UnknownKeyError for an unknown token
    return token_saliences([token], ctx, table)[token]


def embed_sentence(
    tokens: Sequence[str],
    ctx: ContextModel,
    table: WordVectorTable,
    saliences: Mapping[str, float] | None = None,
) -> SentenceEmbedding:
    """Salience-weighted mean of in-vocabulary token vectors, unit-normalized.

    Out-of-vocabulary tokens are skipped. `saliences` maps each known token
    to its weight, as `token_saliences` returns it; when omitted it is
    computed for these tokens. When every salience weight is 0 the
    unweighted mean is used instead and the result is flagged.
    """
    known = [t for t in tokens if t in table.vectors]
    if not known:
        raise DomainError("no in-vocabulary tokens in sentence")
    if saliences is None:
        saliences = token_saliences(known, ctx, table)
    stack = np.array([table.vectors[t] for t in known])
    weights = np.array([saliences[t] for t in known])
    total = float(weights.sum())
    fallback = total == 0.0
    if fallback:
        mean = stack.mean(axis=0)
    else:
        mean = weights @ stack / total
    norm = float(np.linalg.norm(mean))
    if norm == 0.0:
        raise DomainError("sentence vector is zero; cannot normalize")
    return SentenceEmbedding(vector=mean / norm, fallback=fallback)


def sim_cosal(a: np.ndarray, b: np.ndarray) -> float:
    """Dot-product similarity of two embeddings."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DomainError(f"embedding dimensions differ: {a.shape} vs {b.shape}")
    return float(a @ b)


def embed_corpus(
    docs: Sequence[CleanDoc],
    ctx: ContextModel,
    table: WordVectorTable,
) -> tuple[EmbeddingSpace, tuple[str, ...]]:
    """Embed every doc; returns the space and ids that hit the mean fallback.

    The saliences of all distinct tokens come from one solve. If that solve
    fails, each doc computes its own, so the error names the first record
    that needs one.
    """
    try:
        saliences = token_saliences((t for doc in docs for t in doc.tokens), ctx, table)
    except DomainError:
        saliences = None
    rows = []
    fallback_ids = []
    for doc in docs:
        try:
            emb = embed_sentence(doc.tokens, ctx, table, saliences)
        except DomainError as exc:
            raise DomainError(f"record {doc.id!r}: {exc}") from None
        rows.append(emb.vector)
        if emb.fallback:
            fallback_ids.append(doc.id)
    matrix = np.array(rows) if rows else np.zeros((0, table.dim))
    return EmbeddingSpace(ids=tuple(d.id for d in docs), matrix=matrix), tuple(fallback_ids)


def import_embeddings(path: str | Path) -> EmbeddingSpace:
    """Read an embedding CSV (header id,e1,...,ed), preserving file order.

    A `nan`, `inf` or `-inf` cell raises a FormatError naming the file and
    its row; it is looked for once the whole file has parsed, so a ragged
    row, a repeated id or a non-numeric cell anywhere is reported first.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or not header or header[0] != "id":
            raise SchemaError(f"{path}: first column must be 'id'")
        d = len(header) - 1
        if d < 1:
            raise SchemaError(f"{path}: no embedding columns")
        ids: list[str] = []
        seen: set[str] = set()
        rows = []
        for rownum, row in enumerate(reader, start=1):
            if len(row) != d + 1:
                raise FormatError(f"{path}: row {rownum}: expected {d + 1} fields, got {len(row)}")
            rid = row[0]
            if rid in seen:
                raise ConflictError(f"duplicate id {rid!r} at row {rownum}")
            seen.add(rid)
            ids.append(rid)
            try:
                rows.append([float(v) for v in row[1:]])
            except ValueError:
                raise RowError(rownum, "non-numeric embedding value") from None
    matrix = np.array(rows) if rows else np.zeros((0, d))
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        rownum = int(np.argmin(finite)) + 1
        raise FormatError(f"{path}: row {rownum}: non-finite embedding value")
    return EmbeddingSpace(ids=tuple(ids), matrix=matrix)


def export_embeddings(space: EmbeddingSpace, path: str | Path) -> None:
    """Write an EmbeddingSpace so import_embeddings round-trips it."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"e{i + 1}" for i in range(space.dim)])
        for rid, row in zip(space.ids, space.matrix):
            writer.writerow([rid] + [repr(float(v)) for v in row])
