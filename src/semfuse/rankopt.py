"""Context-aware similarity scoring and ranking-loss minimization.

Two scorers extend the dot product with weighted distance kernels, each
on the column of a batch its kind names (days for `exp_abs` and `inv_abs`,
coordinates for `floor_geo`): an additive form and a multiplicative form.
`pairwise_scores` is the one scorer: it composes the scores into the
dot-product matrix a row block at a time, from each kernel's
upper-triangle block; one pair's score is a cell of a two-record batch.
Batches are compared through (m, m) integer rank arrays, and the kernel
weights are fit by a deterministic shrinking-grid search over the weight
space, since the ranking loss is piecewise constant and has no usable
gradient. The search scores and ranks a chunk of grid points at a time
as a (probes, m, m) stack, with the same composition and stable sort the
single-matrix calls use, but reads each probe's loss straight from the
sort order: one gather of the labeled ranks in sorted order, less each
position, squared and summed as exact integers, so no rank matrix is
built. Each round's best probe is its first smallest loss, and it
replaces the best so far only when its loss is smaller.
`save_score_matrix` writes an exactly symmetric score matrix as the
headerless CSV that `load_rank_labels` reads, formatting each unordered
pair once and reusing the text for the mirrored cell. From 200 x 200
cells on it uses two processes: a standard-library helper formats the
lower rows' block while this process formats the rows above it, with
the same bytes as one process writes. It writes straight to its path:
the `score` stage hands it one in a staging directory and moves the
file into place only once the stage has succeeded.
"""

from __future__ import annotations

import contextlib
import csv
import math
import subprocess
import sys
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator, Sequence

import numpy as np

from .errors import ConfigError, ConflictError, DomainError, FormatError, RowError, SemfuseError
from .geotime import GeoPoint, great_circle_miles, haversine_miles
from ._score_rows import write_rows
from .table import filled_rows, open_text, read_table, row_line, write_table

SIM_KINDS = ("sigma", "pi")
DIST_KINDS = ("exp_abs", "inv_abs", "floor_geo")
DEFAULT_DIST_KINDS = ("inv_abs", "floor_geo")
RECOMMENDED_BATCH = (10, 20)
MAX_ROUND_PROBES = 10**5
# score cells per chunk: the (probes, m, m) stacks of optimize_alphas and
# the row blocks of pairwise_scores stay about 1 MiB each
_CHUNK_CELLS = 2**17
# save_score_matrix formats the lower rows of a matrix this large or larger
# in a second process; below it, the process start (about 12 ms) costs more
# than the second CPU saves
_HELPER_MIN_CELLS = 200 * 200
_SCORE_ROWS = Path(__file__).with_name("_score_rows.py")


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


def rank_matrix(scores: np.ndarray) -> np.ndarray:
    """Rank each row's candidates by descending score, as an (m, m) int array.

    Entry [i, j] counts the candidates ranked strictly more similar than
    j to i; the diagonal is 0 and is excluded from the loss. Ties are
    broken by ascending candidate index, so the result is deterministic
    and each off-diagonal row is a permutation of {0, ..., m-2}.
    Non-finite scores have no order and are rejected.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2 or scores.shape[0] != scores.shape[1]:
        raise DomainError(f"score matrix must be square, got shape {scores.shape}")
    return _rank_entries(scores)


def _rank_order(scores: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # each row's candidates of a (..., m, m) stack, most similar first, the
    # row's own index last; the negated keys go to `out` (scores itself may do)
    m = scores.shape[-1]
    if m < 2:
        raise DomainError(f"need at least 2 items, got {m}")
    if not np.isfinite(scores).all():
        raise DomainError("score matrix has non-finite entries")
    # a stable sort of -score keeps ties in index order; the diagonal sorts last
    diag = np.arange(m)
    keys = np.negative(scores, out=out)
    keys[..., diag, diag] = np.inf
    return np.argsort(keys, axis=-1, kind="stable")


def _rank_entries(scores: np.ndarray) -> np.ndarray:
    # rank_matrix over the last two axes of a (..., m, m) stack
    order = _rank_order(scores)
    diag = np.arange(scores.shape[-1])
    entries = np.empty(scores.shape, dtype=int)
    np.put_along_axis(entries, order, np.broadcast_to(diag, scores.shape), axis=-1)
    entries[..., diag, diag] = 0
    return entries


def _check_ranks(entries: np.ndarray) -> np.ndarray:
    # an (m, m) rank array with a zero diagonal, which _rank_losses and _stack_losses rely on
    entries = np.asarray(entries)
    m = len(entries) if entries.ndim else 0
    if entries.shape != (m, m):
        raise DomainError(f"entries shape {entries.shape} for m={m}")
    if np.any(np.diag(entries) != 0):
        raise DomainError("rank matrix diagonal must be 0")
    return entries


def rank_loss(predicted: np.ndarray, labeled: np.ndarray) -> float:
    """Root of the summed squared rank differences over off-diagonal pairs of two rank arrays."""
    predicted, labeled = _check_ranks(predicted), _check_ranks(labeled)
    if len(predicted) != len(labeled):
        raise DomainError(f"rank matrix sizes differ: {len(predicted)} vs {len(labeled)}")
    return float(_rank_losses(predicted, labeled))


def _rank_losses(entries: np.ndarray, labeled: np.ndarray) -> np.ndarray:
    # rank_loss of each (m, m) matrix in a (..., m, m) stack. Both diagonals
    # are 0, so they add nothing, and the sum of squared integer differences
    # is exact, so it does not depend on the summation order.
    diff = entries - labeled
    return np.sqrt(np.sum(diff * diff, axis=(-2, -1)))


def _stack_losses(scores: np.ndarray, labeled: np.ndarray) -> np.ndarray:
    # _rank_losses(_rank_entries(scores), labeled) read straight from the sort
    # order, with no entries stack; `scores` is overwritten. Row i's candidate
    # at position k is order[..., i, k], so the squared differences are
    # (labeled[i, order[..., i, k]] - k)**2 summed over i and k, less the
    # diagonal's: it sorts to position m - 1 against a label of 0, (m - 1)**2
    # per row. Every term is an exact integer, so the loss keeps its bits.
    m = scores.shape[-1]
    order = _rank_order(scores, out=scores)
    order += np.arange(0, m * m, m)[:, None]  # flat positions in labeled
    diff = labeled.ravel().take(order)
    diff -= np.arange(m)
    return np.sqrt(np.sum(diff * diff, axis=(-2, -1)) - m * (m - 1) ** 2)


def pairwise_scores(
    embeddings: np.ndarray,
    features: tuple[np.ndarray, np.ndarray],
    params: SimilarityParams,
) -> np.ndarray:
    """Full m x m score matrix of a batch's (days, coords) `features`; exactly symmetric by construction.

    The scores are composed into the dot-product matrix in row blocks of
    about `_CHUNK_CELLS` cells, each from its upper-triangle kernel block,
    so no m x m kernel is ever held. Raises DomainError, naming the kind
    and alphas, when any score is not finite, as when a weight is so
    large that a score overflows.
    """
    embeddings = np.asarray(embeddings, dtype=float)
    m = embeddings.shape[0]
    columns = _kernel_columns(features, params.dist_kinds, m)
    alphas = np.asarray(params.alphas, dtype=float)
    scores = embeddings @ embeddings.T
    rows = max(1, _CHUNK_CELLS // max(m, 1))
    for start in range(0, m, rows):
        block = scores[start:start + rows, start:]
        block[...] = _compose_scores(block, _kernel_blocks(columns, start, start + rows),
                                     params.kind, alphas)
        if not np.isfinite(block).all():
            raise DomainError(f"kind {params.kind!r} with alphas {tuple(params.alphas)} "
                              "gives non-finite scores")
    # mirror the upper triangle in place; adding 0.0 normalizes -0.0 to 0.0
    # exactly as the sum of the two triangles would
    for i in range(m - 1):
        scores[i + 1:, i] = scores[i, i + 1:]
    scores += 0.0
    return scores


def _kernel_columns(features: tuple[np.ndarray, np.ndarray], dist_kinds: Sequence[str],
                    m: int) -> list[tuple[str, np.ndarray]]:
    # each distance kind with the column it reads: (m, 2) coordinates for floor_geo, (m, 1) days otherwise
    days, coords = (np.asarray(column, dtype=float) for column in features)
    if days.shape != (m,) or coords.shape != (m, 2):
        raise DomainError(f"{m} embeddings for days of shape {days.shape} and coordinates of shape "
                          f"{coords.shape}")
    return [(kind, coords if kind == "floor_geo" else days[:, None]) for kind in dist_kinds]


def _kernel_blocks(columns: list[tuple[str, np.ndarray]], start: int, stop: int) -> list[np.ndarray]:
    # every kernel on rows start..stop-1 and columns start..m-1
    blocks = []
    for kind, x in columns:
        rows, cols = x[start:stop], x[start:]
        if kind == "floor_geo":
            gap = great_circle_miles(rows[:, :1], rows[:, 1:], cols[:, :1].T, cols[:, 1:].T)
        else:
            gap = np.abs(rows - cols.T)
        blocks.append(_KERNELS[kind](gap))
    return blocks


# a score that overflows is not finite, which each caller rejects
@np.errstate(over="ignore", invalid="ignore")
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
    # 1.0 * (alpha + kernel) is alpha + kernel, bit for bit
    if kernels:
        np.add(weights[0], kernels[0], out=out)
    else:
        out.fill(1.0)
    for alpha, kernel in zip(weights[1:], kernels[1:]):
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
    A round probes at most `MAX_ROUND_PROBES` (10**5) grid points: it
    holds its whole grid, and the trace keeps a row for every probe of
    every round, about 90 MB for six rounds at the bound.
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
        if math.prod(self.points_per_axis()) > MAX_ROUND_PROBES:
            raise ConfigError(f"step {self.step} over bounds {self.bounds} gives more than "
                              f"{MAX_ROUND_PROBES} probes per round")

    def points_per_axis(self) -> tuple[int, ...]:
        if self.step is None:
            return (21,) * len(self.bounds)
        # an axis is cut at one point more than a round may probe, so no
        # infinite quotient (a subnormal step) reaches int
        return tuple(max(1, int(round(min((hi - lo) / self.step, MAX_ROUND_PROBES))) + 1)
                     for lo, hi in self.bounds)


def _axis_points(lo: float, hi: float, count: int) -> np.ndarray:
    if count == 1:
        return np.array([(lo + hi) / 2.0])
    return np.linspace(lo, hi, count)


def optimize_alphas(
    embeddings: np.ndarray,
    features: tuple[np.ndarray, np.ndarray],
    labels: np.ndarray,
    kind: str,
    dist_kinds: Sequence[str],
    cfg: GridConfig,
) -> tuple[SimilarityParams, float, list[tuple]]:
    """Fit the alpha weights by shrinking-grid search against a labeled rank array.

    Returns the best parameters, their ranking loss, and the full probe
    trace as (round, alpha1, ..., alphak, loss) rows. Each round probes
    the grid in lexicographic order, alpha1 slowest. The search is
    exhaustive per round and fully deterministic; ties keep the first probe.
    """
    embeddings = np.asarray(embeddings, dtype=float)
    m = embeddings.shape[0]
    dist_kinds = tuple(dist_kinds)
    n = len(dist_kinds)
    check_axis_counts(dist_kinds, cfg.bounds)
    labels = _check_ranks(labels)
    if len(labels) != m:
        raise DomainError(f"label matrix is {len(labels)}x{len(labels)} for batch size {m}")
    if not RECOMMENDED_BATCH[0] <= m <= RECOMMENDED_BATCH[1]:
        warnings.warn(
            f"batch size {m} outside the recommended "
            f"{RECOMMENDED_BATCH[0]}-{RECOMMENDED_BATCH[1]} range",
            stacklevel=2,
        )

    SimilarityParams(kind=kind, alphas=(0.0,) * n, dist_kinds=dist_kinds)  # validates the kinds
    kernels = _kernel_blocks(_kernel_columns(features, dist_kinds, m), 0, m)
    dots = embeddings @ embeddings.T
    chunk = max(1, _CHUNK_CELLS // (m * m))

    counts = cfg.points_per_axis()
    lo, hi = np.array(cfg.bounds, dtype=float).T
    center = (lo + hi) / 2.0
    half = (hi - lo) / 2.0

    trace: list[tuple] = []
    best_alphas, best_loss = (), math.inf
    for rnd in range(1, cfg.rounds + 1):
        axes = map(_axis_points, np.maximum(lo, center - half), np.minimum(hi, center + half), counts)
        # one row per probe, in lexicographic order with alpha1 slowest
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        if rnd == 1 and any(c % 2 == 0 for c in counts):
            # even grids skip the interval midpoint; probe it so the result
            # can never be worse than the initial grid center
            grid = np.vstack([center, grid])
        losses = np.concatenate([
            _probe_losses(dots, kernels, kind, grid[start:start + chunk], labels)
            for start in range(0, len(grid), chunk)
        ])
        probes = grid.tolist()
        trace.extend((rnd, *alphas, loss) for alphas, loss in zip(probes, losses.tolist()))
        # argmin takes the first of equal losses, and only a smaller loss
        # replaces an earlier round's best
        first = int(np.argmin(losses))
        if losses[first] < best_loss:
            best_alphas, best_loss = tuple(probes[first]), float(losses[first])
        center = np.array(best_alphas)
        half = half * cfg.shrink

    params = SimilarityParams(kind=kind, alphas=best_alphas, dist_kinds=dist_kinds)
    return params, best_loss, trace


def check_axis_counts(dist_kinds: Sequence[str], bounds: Sequence) -> None:
    """Raise ConfigError unless each distance kind has one bound."""
    if len(bounds) != len(dist_kinds):
        raise ConfigError(f"each of {len(dist_kinds)} distance kinds needs one bound, got {len(bounds)}")


def _probe_losses(dots: np.ndarray, kernels: Sequence[np.ndarray], kind: str, probes: np.ndarray,
                  labeled: np.ndarray) -> np.ndarray:
    # _stack_losses of each probe's scores. Only when the stack holds a
    # non-finite score are they composed again, to name the first such probe.
    try:
        return _stack_losses(_compose_scores(dots, kernels, kind, probes), labeled)
    except DomainError:
        finite = np.isfinite(_compose_scores(dots, kernels, kind, probes)).all(axis=(-2, -1))
        if finite.all():
            raise
        alphas = tuple(probes[np.argmin(finite)].tolist())
        raise DomainError(f"kind {kind!r} with alphas {alphas} gives non-finite scores") from None


def save_trace_csv(trace: Sequence[tuple], path: str | Path) -> None:
    """Write (round, alpha1, ..., alphak, loss) rows under a matching header, each value as a float."""
    n_alphas = len(trace[0]) - 2 if trace else 0
    header = ["round", *(f"alpha{i}" for i in range(1, n_alphas + 1)), "loss"]
    write_table(path, header, ([rnd, *map(float, values)] for rnd, *values in trace))


def save_score_matrix(scores: np.ndarray, path: str | Path) -> None:
    """Write a square, exactly symmetric score matrix as headerless CSV.

    Each cell is the shortest `repr` of its float, one matrix row per
    line, the layout `load_rank_labels` reads back. Cell (j, i) prints as
    cell (i, j), so each unordered pair is formatted once (see
    `_score_rows.write_rows`). From `_HELPER_MIN_CELLS` cells on, the
    work runs on two CPUs: a second Python process (`_score_rows.py`,
    standard library only) writes the lines of the lower rows' block
    while this process formats its own rows and keeps their texts for
    the columns below them, then puts those texts in front of each of
    the helper's lines. The bytes are the same either way.
    A failure can leave a partial file at `path`; the CLI's staging
    directory keeps it away from an earlier output. The helper's two
    unnamed temporary files go in `path`'s directory.
    Raises DomainError, with no file written, unless the matrix equals
    its transpose, and SemfuseError naming the file if the helper fails.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2 or scores.shape[0] != scores.shape[1]:
        raise DomainError(f"score matrix must be square, got shape {scores.shape}")
    # -0.0 == 0.0, but the two print differently
    signs = np.signbit(scores)
    if not (np.array_equal(scores, scores.T) and np.array_equal(signs, signs.T)):
        raise DomainError("score matrix is not symmetric")
    path = Path(path)
    m = scores.shape[0]
    split = _helper_start(m)
    helper = _helper_rows(scores[split:, split:], path) if split < m else contextlib.nullcontext(())
    with open(path, "wb") as fh, helper as helper_lines:
        below = [bytearray() for _ in range(m)]
        write_rows(fh, (scores[i, i:].tolist() for i in range(split)), below)
        for column, line in zip(below[split:], helper_lines):
            fh.write(column)
            fh.write(line)


def _helper_start(m: int) -> int:
    # the first row of the helper's block; m means no helper. The block holds
    # half the pairs, as both processes format and mirror theirs the same way.
    if m * m < _HELPER_MIN_CELLS or not sys.executable:
        return m
    return m - round(m * math.sqrt(0.5))


@contextlib.contextmanager
def _helper_rows(block: np.ndarray, path: Path) -> Iterator[Iterator[bytes]]:
    """Start `_score_rows.py` on the n x n block; yield an iterator over its rows.

    The helper reads the block from one unnamed temporary file in the
    output directory and writes its lines to another, so neither side
    waits on a pipe. The iterator waits for it, then checks every line.
    The helper is stopped and reaped on the way out, whatever happened.
    """
    n = len(block)
    with tempfile.TemporaryFile(dir=path.parent) as cells, \
            tempfile.TemporaryFile(dir=path.parent) as texts:
        cells.write(block.tobytes())
        cells.seek(0)
        helper = subprocess.Popen([sys.executable, "-I", "-S", str(_SCORE_ROWS), str(n)],
                                  stdin=cells, stdout=texts)
        try:
            yield _checked_rows(helper, texts, n, path)
        finally:
            if helper.poll() is None:
                helper.kill()
            helper.wait()


def _checked_rows(helper: subprocess.Popen, texts: BinaryIO, n: int, path: Path) -> Iterator[bytes]:
    status = helper.wait()
    if status != 0:
        raise SemfuseError(f"{path}: the score row helper exited with status {status}")
    texts.seek(0)
    count = 0
    for count, line in enumerate(texts, start=1):
        if not line.endswith(b"\n") or line.count(b",") != n - 1:
            raise SemfuseError(f"{path}: the score row helper wrote a malformed row {count}")
        yield line
    if count != n:
        raise SemfuseError(f"{path}: the score row helper wrote {count} of {n} rows")


def load_rank_labels(path: str | Path) -> np.ndarray:
    """Read labeled similarity scores and rank them with `rank_matrix`.

    Two layouts are accepted: a header line `i,j,score` followed by one
    row per unordered pair (0-based batch indices, scores in [0, 1], all
    pairs required), or a headerless full m x m score matrix. Either way
    the file carries scores; rankings are always derived here. Numbers
    follow the grammar of `table.parse_floats`; blank rows are skipped.
    """
    with open_text(path) as fh:
        first = next(filled_rows(csv.reader(fh)), None)
    if first is None:
        raise FormatError(f"{path}: empty labels file")
    if [cell.strip().lower() for cell in first] == ["i", "j", "score"]:
        _, _, triplets = read_table(path, check_header=lambda header: None)
        return _labels_from_triplets(triplets, path)
    _, _, scores = read_table(path)
    m = len(scores)
    if m < 2:
        raise FormatError(f"{path}: need at least 2 rows")
    if scores.shape != (m, m):
        raise FormatError(f"{path}: score matrix is {m} x {scores.shape[1]}, not square")
    if not np.array_equal(scores, scores.T):
        raise FormatError(f"{path}: score matrix is not symmetric")
    return rank_matrix(scores)


def _labels_from_triplets(triplets: np.ndarray, path) -> np.ndarray:
    def where(index: int) -> str:
        return f"{path}: line {row_line(path, index, header=True)}"

    pairs: dict[tuple[int, int], float] = {}
    max_index = -1
    for index, (i, j, score) in enumerate(triplets.tolist()):
        if not (i.is_integer() and j.is_integer()):
            raise RowError(where(index), "indices must be integers")
        i, j = int(i), int(j)
        if i < 0 or j < 0:
            raise RowError(where(index), "indices must be nonnegative")
        if i == j:
            raise RowError(where(index), f"self-pair ({i},{j}) is not allowed")
        if not 0.0 <= score <= 1.0:
            raise RowError(where(index), f"score {score} outside [0, 1]")
        key = (min(i, j), max(i, j))
        if key in pairs:
            raise ConflictError(f"{where(index)}: duplicate pair {key}")
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
