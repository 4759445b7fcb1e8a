"""Sentence embeddings from word vectors.

A context model (mean + regularized covariance of in-vocabulary word
vectors) turns each token into a salience weight via Mahalanobis distance;
sentence vectors are salience-weighted token means scaled to unit norm.
`token_saliences` computes the weight of every distinct token of a corpus
from one linear solve against the context metric, and `embed_corpus`
calls it once per corpus. Precomputed embedding spaces can also be
imported from CSV. The stages read both text formats through the parse
cache, `semfuse.cache`, which calls the two readers here on a miss.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, NoReturn, Sequence

import numpy as np

from .corpus import CleanDoc
from .errors import ConflictError, DomainError, FormatError, SchemaError
from .table import bulk_rows, open_text, parse_floats, read_table, write_table

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


@dataclass(frozen=True, eq=False)
class EmbeddingSpace:
    """Ordered, distinct ids with their embedding rows.

    A stage checks ids where it reads its files; the layers below take the matrix.
    """

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


def _raise_first_fault(path: str | Path) -> NoReturn:
    """Re-read a rejected table line by line and raise its first fault."""
    seen: set[str] = set()
    dim = None
    with open_text(path, newline=None) as fh:
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
            parse_floats(where, values)
    if dim is None:
        raise FormatError(f"{path}: no word vector entries")
    # reached only if the bulk read and the line-by-line read disagree
    raise FormatError(f"{path}: word vectors could not be read as one table")


def load_word_vectors(path: str | Path) -> WordVectorTable:
    """Read `token v1 ... vdim` lines into a WordVectorTable; reads the file and nothing else.

    Tokens and values are separated by runs of whitespace; blank lines are
    skipped. The first entry fixes the dimensionality (at least 2); every
    later line must match, and no token may repeat. Values follow the
    number grammar of `table.parse_floats`.

    The whole file is parsed by one `table.bulk_rows` call, with the token
    as the id field, and each vector is a row of the resulting matrix, in
    file order. A file that fails any rule is read again line by line, and
    the first fault in file order raises a FormatError (ConflictError for a
    repeated token) naming the file and the line; a line that is not UTF-8
    is a fault of that line.

    `semfuse embed` parses a file once: the parse cache stores the table
    under the digest of the file's bytes and reads it back on later runs.
    """
    tokens: list[str] = []
    try:
        with open(path, newline=None, encoding="utf-8-sig") as fh:
            matrix = bulk_rows(fh, ids=tokens, delimiter=None)
    except UnicodeDecodeError:  # the line-by-line read names the line
        matrix = None
    if matrix is None or matrix.shape[1] < 3:  # the token, then at least 2 values
        _raise_first_fault(path)
    return WordVectorTable(dim=matrix.shape[1] - 1, vectors=dict(zip(tokens, matrix[:, 1:])))


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


def embed_sentence(
    tokens: Sequence[str],
    ctx: ContextModel,
    table: WordVectorTable,
    saliences: Mapping[str, float] | None = None,
) -> tuple[np.ndarray, bool]:
    """(vector, fallback): the salience-weighted mean of in-vocabulary token vectors, unit-normalized.

    Out-of-vocabulary tokens are skipped. `saliences` maps each known token
    to its weight, as `token_saliences` returns it; when omitted it is
    computed for these tokens. When every salience weight is 0 the
    unweighted mean is used instead, and fallback is True.
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
    return mean / norm, fallback


def embed_corpus(
    docs: Sequence[CleanDoc],
    ctx: ContextModel,
    table: WordVectorTable,
) -> tuple[EmbeddingSpace, tuple[str, ...]]:
    """Embed every doc; returns the space and ids that hit the mean fallback.

    The saliences of all distinct tokens come from one solve, which raises
    on a singular context metric: a fault of the corpus, not of a record.
    """
    saliences = token_saliences((t for doc in docs for t in doc.tokens), ctx, table)
    rows = []
    fallback_ids = []
    for doc in docs:
        try:
            vector, fallback = embed_sentence(doc.tokens, ctx, table, saliences)
        except DomainError as exc:
            raise DomainError(f"record {doc.id!r}: {exc}") from None
        rows.append(vector)
        if fallback:
            fallback_ids.append(doc.id)
    matrix = np.array(rows) if rows else np.zeros((0, table.dim))
    return EmbeddingSpace(ids=tuple(d.id for d in docs), matrix=matrix), tuple(fallback_ids)


def import_embeddings(path: str | Path) -> EmbeddingSpace:
    """Read an embedding CSV (header id,e1,...,ed), preserving file order.

    Values follow the number grammar of `table.parse_floats`. A ragged
    row or a repeated id anywhere is reported before a bad value; errors
    name the file and the line. The stages of `semfuse` parse each
    embedding file once, through the same parse cache as word vectors.
    """
    def check_header(header: list[str]) -> None:
        if not header or header[0] != "id":
            raise SchemaError(f"{path}: first column must be 'id'")
        if len(header) < 2:
            raise SchemaError(f"{path}: no embedding columns")

    _, ids, matrix = read_table(path, check_header, ids=True)
    return EmbeddingSpace(ids=tuple(ids), matrix=matrix)


def export_embeddings(space: EmbeddingSpace, path: str | Path) -> None:
    """Write an EmbeddingSpace so import_embeddings round-trips it."""
    header = ["id"] + [f"e{i + 1}" for i in range(space.dim)]
    write_table(path, header, ([rid, *row] for rid, row in zip(space.ids, space.matrix.tolist())))
