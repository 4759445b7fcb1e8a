"""Two-dimensional t-SNE style reduction for map-like visualization.

High-dimensional affinities use per-point Gaussian bandwidths calibrated
by bisection to a target perplexity. The planar similarities default to a
Gaussian kernel, with a Student-t switch; the cost is the KL divergence
between the two distributions, minimized by momentum gradient descent
with early exaggeration: P is scaled by EARLY_EXAGGERATION for the first
EXAGGERATION_ITERS iterations, and the momentum is MOMENTUM_START until
iteration MOMENTUM_SWITCH, MOMENTUM_FINAL from it on. Everything is
deterministic given the seed.
"""

from __future__ import annotations

import contextlib
import csv
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from html import escape
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    CalibrationError,
    ConfigError,
    ConflictError,
    DivergenceError,
    DomainError,
    FormatError,
    SchemaError,
)
from .table import filled_rows, open_text, write_table

KERNELS = ("gaussian", "student_t")
COST_MODES = ("joint", "conditional")
PERPLEXITY_TOL = 1e-3
_BISECTION_STEPS = 64
# Cells per row block of the cost, the gradient and the calibration.
_BLOCK_CELLS = 2**16
_Q_FLOOR = 1e-12
_MIN_GAIN = 0.01
# Per-point displacement cap per iteration. The planar Gaussian kernel has no
# long-range force falloff, so an aggressive learning rate can overshoot
# explosively before the gains adapt; bounding the step keeps the excursion
# finite without touching well-behaved trajectories.
_MAX_STEP = 0.5
# run_tsne keeps the cost of every iteration and writes it out, one line per
# value, so a run of this many iterations holds 8 MB of trace
MAX_ITERATIONS = 10**6
MOMENTUM_START = 0.5
MOMENTUM_FINAL = 0.8
MOMENTUM_SWITCH = 250
EARLY_EXAGGERATION = 4.0
EXAGGERATION_ITERS = 100


@dataclass(frozen=True)
class TsneConfig:
    perplexity: float = 30.0
    iterations: int = 1000
    learning_rate: float = 100.0
    kernel: str = "gaussian"
    cost: str = "joint"
    seed: int = 0

    def __post_init__(self):
        if self.perplexity <= 1:
            raise ConfigError(f"perplexity must be > 1, got {self.perplexity}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.iterations > MAX_ITERATIONS:
            raise ConfigError(f"iterations must be <= {MAX_ITERATIONS}, got {self.iterations}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.kernel not in KERNELS:
            raise ConfigError(f"unknown kernel {self.kernel!r}; expected one of {KERNELS}")
        if self.cost not in COST_MODES:
            raise ConfigError(f"unknown cost mode {self.cost!r}; expected one of {COST_MODES}")


def pairwise_sq_distances(matrix: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances with an exact zero diagonal.

    The Gram matrix comes from `np.einsum` with `optimize=False`, which
    makes no BLAS call: each cell sums its products in one fixed order,
    the same for cell (i, j) and cell (j, i). So the result is exactly
    symmetric, bit for bit, and its bytes do not depend on the BLAS
    thread count. The input is made C-contiguous first, so its memory
    layout cannot change that order either.
    """
    matrix = np.ascontiguousarray(matrix, dtype=float)
    norms = np.einsum("ij,ij->i", matrix, matrix)
    d2 = norms[:, None] + norms[None, :] - 2.0 * np.einsum("ik,jk->ij", matrix, matrix, optimize=False)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def _row_conditionals(d2_rows: np.ndarray, beta: np.ndarray, cols: np.ndarray) -> np.ndarray:
    # row k: the Gaussian conditionals at precision beta[k], without column cols[k]
    p = d2_rows * -beta[:, None]
    p[np.arange(len(cols)), cols] = -np.inf
    p -= p.max(axis=1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    return p


def _row_perplexities(d2_rows: np.ndarray, beta: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """2^H in bits of each row of `_row_conditionals`.

    Each row's entropy sums its positive terms as one gathered row, so a
    row ends with the same bits as it would alone: rows with the same
    count of positive terms are summed together as one 2-D block.
    """
    p = _row_conditionals(d2_rows, beta, cols)
    positive = p > 0
    terms = p[positive]
    terms *= np.log2(terms)
    counts = positive.sum(axis=1)
    if counts.min() == counts.max():  # the common case: every row has n - 1 terms
        plogp = terms.reshape(len(p), -1).sum(axis=1)
    else:
        starts = np.cumsum(counts) - counts
        plogp = np.empty(len(p))
        for k in np.unique(counts):
            rows = np.flatnonzero(counts == k)
            plogp[rows] = terms[starts[rows, None] + np.arange(k)].sum(axis=1)
    # the Python float power: numpy's rounds some of these differently
    return np.array([2.0 ** -h for h in plogp.tolist()])


def calibrate_sigmas(sq_distances: np.ndarray, perplexity: float) -> np.ndarray:
    """Per-row bandwidths hitting the target perplexity by bisection.

    Solves 2^H(p_.|i) = perplexity within 1e-3 for each row, at most 64
    bisection steps per row. The rows are bisected together, about
    `_BLOCK_CELLS` cells at a time, and a row stops once it has converged.
    Each row takes the steps, and ends at the bandwidth, it would take
    alone. Raises CalibrationError naming the first row that does not
    converge.
    """
    d2 = np.asarray(sq_distances, dtype=float)
    n = d2.shape[0]
    if d2.ndim != 2 or d2.shape[1] != n:
        raise DomainError(f"distance matrix must be square, got shape {d2.shape}")
    if np.any(np.diag(d2) != 0):
        raise DomainError("distance matrix diagonal must be zero")
    if not 1.0 < perplexity < n:
        raise CalibrationError(-1, f"perplexity {perplexity} not in (1, {n})")
    rows = max(1, _BLOCK_CELLS // n)
    beta = np.concatenate(
        [_bisect(d2, np.arange(r, min(r + rows, n)), perplexity) for r in range(0, n, rows)]
    )
    return 1.0 / np.sqrt(2.0 * beta)


def _bisect(d2: np.ndarray, index: np.ndarray, perplexity: float) -> np.ndarray:
    # the precisions of rows `index`; lo = 0 and hi = inf stand for no bracket yet
    beta = np.ones(len(index))
    lo = np.zeros(len(index))
    hi = np.full(len(index), np.inf)
    live = np.arange(len(index))
    for _ in range(_BISECTION_STEPS):
        perp = _row_perplexities(d2[index[live]], beta[live], index[live])
        missed = ~(np.abs(perp - perplexity) <= PERPLEXITY_TOL)  # NaN misses too
        live, above = live[missed], perp[missed] > perplexity
        if not live.size:
            return beta
        b = beta[live]
        lo[live] = np.where(above, b, lo[live])
        hi[live] = np.where(above, hi[live], b)
        l, h = lo[live], hi[live]
        # one bracket was just set to b, so an open one is the other side's
        beta[live] = np.where(h == np.inf, b * 2.0, np.where(l == 0.0, b / 2.0, (l + h) / 2.0))
    i = int(index[live[0]])
    raise CalibrationError(i, f"row {i}: perplexity {perplexity} unreachable")


def conditional_p(sq_distances: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Row-stochastic Gaussian conditionals from calibrated bandwidths."""
    d2 = np.asarray(sq_distances, dtype=float)
    # beta = 1 / (2 sigma^2) with each row's scalar power: numpy's array
    # power rounds some squares differently
    beta = np.array([1.0 / (2.0 * s**2) for s in np.asarray(sigmas, dtype=float)])
    return _row_conditionals(d2, beta, np.arange(d2.shape[0]))


def symmetrize(pcond: np.ndarray) -> np.ndarray:
    """Joint affinities P = (Pcond + Pcond.T) / 2n, summing to 1, with a zero diagonal."""
    pcond = np.asarray(pcond, dtype=float)
    n = pcond.shape[0]
    P = (pcond + pcond.T) / (2.0 * n)
    np.fill_diagonal(P, 0.0)
    return P


def _p_terms(P: np.ndarray, exaggeration: float) -> tuple[float, np.ndarray, bool]:
    """The parts of a cost-and-gradient call that depend on `P` alone.

    Returns `sum p log p` over the cells with p > 0, the P part of `S` and
    whether it is halved. That part is `S_P = eP + (eP).T` for
    `e = exaggeration`, scaled before the transpose-add, so the gradient
    is the one of the KL against `eP` to the last bit. For a P equal to
    its transpose bit for bit, as under the joint cost in run_tsne, it is
    `eP` itself, `S_P / 2` exactly, and no n x n sum is built.
    """
    p = P[P > 0]
    plogp = float(np.sum(p * np.log(p)))
    scaled = P if exaggeration == 1.0 else exaggeration * P
    halved = np.array_equal(P, P.T)
    return plogp, scaled if halved else scaled + scaled.T, halved


def _cpu_count() -> int:
    # the CPUs this process may run on
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class _Workspace:
    """What the cost-and-gradient calls of one descent share.

    The rows are cut into blocks of about `_BLOCK_CELLS` cells. The
    workspace holds the n x n kernel matrix `Q`, three block-sized buffers
    for each worker and, with more than one worker, a thread pool of
    `min(CPUs this process may use, blocks)` threads. Worker k takes blocks
    k, k + workers, ...; with one worker the blocks run inline.
    """

    def __init__(self, n: int):
        rows = min(n, max(1, _BLOCK_CELLS // n))
        self.blocks = [slice(r, min(r + rows, n)) for r in range(0, n, rows)]
        workers = min(_cpu_count(), len(self.blocks))
        self.Q = np.empty((n, n))
        self.buffers = [np.empty((3, rows, n)) for _ in range(workers)]
        self.pool = ThreadPoolExecutor(workers) if workers > 1 else None

    def __enter__(self) -> "_Workspace":
        return self

    def __exit__(self, *exc) -> None:
        if self.pool is not None:
            self.pool.shutdown()

    def each_block(self, fn) -> None:
        """Call fn(block, buffers) on every block; return when all are done."""

        def work(k: int) -> None:
            for block in self.blocks[k :: len(self.buffers)]:
                fn(block, self.buffers[k][:, : block.stop - block.start])

        if self.pool is None:
            work(0)
        else:
            for future in [self.pool.submit(work, k) for k in range(len(self.buffers))]:
                future.result()


def _zero_diagonal(rows: np.ndarray, first: int) -> None:
    # rows holds rows first, first + 1, ... of an n x n matrix
    rows.flat[first :: rows.shape[1] + 1] = 0.0


def tsne_cost_and_grad(
    P: np.ndarray,
    coords: np.ndarray,
    kernel: str = "gaussian",
    cost: str = "joint",
    exaggeration: float = 1.0,
    *,
    p_terms: tuple[float, np.ndarray, bool] | None = None,
    workspace: _Workspace | None = None,
) -> tuple[float, np.ndarray]:
    """KL cost of `P` and the exact gradient of `exaggeration * P`.

    One evaluation of the planar distances, kernel weights and Q serves
    both: the cost is always against the plain `P`, while the gradient is
    the one of the KL against `exaggeration * P`, as early exaggeration
    needs. Works for either kernel and either cost mode. The
    low-dimensional distribution is floored at 1e-12 to keep long-running
    descents finite, and the cost is the KL against that floored Q. The
    floor is often active: on a 1,000-point map after 150 iterations it
    held on 62 % of the pairs with p > 0 (floored KL 0.761, unfloored
    0.875). The gradient is van der Maaten and Hinton's (2008), per row:
    `2 sum_j S_ij (y_i - y_j) = 2 (y_i sum_j S_ij - sum_j S_ij y_j)`, with
    `S = S_P - (Q + Q.T)`, times the Student-t factor under that kernel.
    The cost is `sum p log p`, from the P-only terms, minus `sum p log q`.

    The call works on row blocks of about `_BLOCK_CELLS` cells, in two
    sweeps. The first takes the planar distances from coordinate
    differences, `dx^2 + dy^2`, which are exactly symmetric with an exact
    zero diagonal, and writes the kernel weights into the workspace's
    n x n `Q`: under the joint cost with per-row sums, under the
    conditional cost normalized and floored per row. The second builds
    each block's floored Q in a block buffer, not in the shared `Q`, and
    the per-row sums of `p log q` (q >= 1e-12 on every cell, so p = 0 adds
    0), `S_ij`, `S_ij x_j` and `S_ij y_j`. Under the joint cost Q is
    exactly symmetric, so `2 * Q` stands in for `Q + Q.T`, and the
    Student-t factor is the stored kernel weight (under the conditional
    cost it takes coordinate differences again). Halved P terms give
    `S / 2`, then twice the sum: the same bits. Every reduction runs per
    row, so no BLAS call is made and the bytes depend neither on the block
    size nor on the number of threads.

    `p_terms` is `_p_terms(P, exaggeration)` and `workspace` a
    `_Workspace(n)`, both passed by a caller that reuses them over many
    calls, as run_tsne does; without them the call builds its own, with
    the same result.
    """
    plogp, S_P, halved = _p_terms(P, exaggeration) if p_terms is None else p_terms
    coords = np.asarray(coords, dtype=float)
    x, y = coords[:, 0].copy(), coords[:, 1].copy()
    n, joint = len(x), cost == "joint"
    row_sum, row_cost, s_sum, s_coords = np.empty(n), np.empty(n), np.empty(n), np.empty((n, 2))

    def sq_distances(block, dx, dy):
        # dx^2 + dy^2 in dx; a column copy and a row subtract beat one broadcast subtract
        np.copyto(dx, x[block, None])
        np.subtract(x, dx, out=dx)
        np.copyto(dy, y[block, None])
        np.subtract(y, dy, out=dy)
        dx *= dx
        dy *= dy
        dx += dy
        return dx

    def kernel_weights(block, buf):
        d2 = sq_distances(block, buf[0], buf[1])
        w = Q[block]
        if kernel == "gaussian":
            np.negative(d2, out=w)
            np.exp(w, out=w)
        else:
            np.add(d2, 1.0, out=w)
            np.divide(1.0, w, out=w)
        _zero_diagonal(w, block.start)
        np.add.reduce(w, axis=1, out=row_sum[block])
        if not joint:  # the diagonal is floored too, so log q is finite on every cell
            w /= np.maximum(row_sum[block], _Q_FLOOR)[:, None]
            np.maximum(w, _Q_FLOOR, out=w)

    def terms(block, buf):
        t, S = buf[0], buf[1]
        # the block's floored Q; under the joint cost normalized here, in S's buffer
        q = np.maximum(np.divide(Q[block], total, out=S), _Q_FLOOR, out=S) if joint else Q[block]
        np.log(q, out=t)
        t *= P[block]
        np.add.reduce(t, axis=1, out=row_cost[block])
        if not joint:
            np.add(q, Q[:, block].T, out=S)
        if joint != halved:  # 2q against a full S_P, (Q + Q.T) / 2 against a halved eP
            S *= 2.0 if joint else 0.5
        np.subtract(S_P[block], S, out=S)
        _zero_diagonal(S, block.start)
        if kernel == "student_t" and joint:
            S *= Q[block]
        elif kernel == "student_t":
            d2 = sq_distances(block, t, buf[2])
            d2 += 1.0
            S /= d2
        np.einsum("ij,j->i", S, x, out=s_coords[block, 0], optimize=False)
        np.einsum("ij,j->i", S, y, out=s_coords[block, 1], optimize=False)
        np.add.reduce(S, axis=1, out=s_sum[block])

    with _Workspace(n) if workspace is None else contextlib.nullcontext(workspace) as ws:
        Q = ws.Q
        ws.each_block(kernel_weights)
        total = max(float(row_sum.sum()), _Q_FLOOR)
        ws.each_block(terms)
    grad = (coords * s_sum[:, None] - s_coords) * (4.0 if halved else 2.0)
    return plogp - float(row_cost.sum()), grad


def run_tsne(
    space: np.ndarray, cfg: TsneConfig, init: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """Reduce rows of `space` to the plane by gradient descent; returns (coords, kl_trace, perplexity, sigmas).

    The requested perplexity is capped at max((n-1)/3, 1.5) so small
    inputs stay calibratable. The descent uses momentum, early
    exaggeration, per-coordinate adaptive gains, and a per-point step cap.
    Each iteration makes one tsne_cost_and_grad call, which returns the
    trace entry and the step's gradient from one evaluation of Q; during
    the first EXAGGERATION_ITERS iterations it is passed
    `exaggeration=EARLY_EXAGGERATION`, later 1.0. One more call costs
    the returned coordinates, so a run makes `iterations + 1` calls.
    The P-only terms of those calls (`_p_terms`) are built once per
    exaggeration factor, at most twice a run, the previous factor's
    released first. The input-space distances and, under the joint cost,
    the conditional P are released before the descent. All calls share
    one `_Workspace`: the n x n `Q`, each worker's block buffers, and a
    thread per CPU the process may use, at most one per row block. So the
    descent holds `P`, the P terms and `Q`, makes no BLAS call, and its
    bytes do not depend on the number of threads. `perplexity` is the
    effective (capped) one and `sigmas` the calibrated bandwidths.
    kl_trace[t] is the cost at the start of iteration t against the
    un-exaggerated affinities; the final entry is the cost of the returned
    coordinates. Entries are the floored cost of tsne_cost_and_grad, not
    the plain KL. Passing `init` overrides the seeded Gaussian start.
    """
    X = np.asarray(space, dtype=float)
    n = X.shape[0]
    if n < 3:
        raise DomainError(f"t-SNE needs at least 3 rows, got {n}")
    effective = min(cfg.perplexity, max((n - 1) / 3.0, 1.5))
    d2 = pairwise_sq_distances(X)
    sigmas = calibrate_sigmas(d2, effective)
    P = conditional_p(d2, sigmas)
    del d2
    if cfg.cost == "joint":
        P = symmetrize(P)

    if init is None:
        rng = np.random.default_rng(cfg.seed)
        Y = rng.normal(0.0, 1e-2, size=(n, 2))
    else:
        Y = np.array(init, dtype=float)
        if Y.shape != (n, 2):
            raise DomainError(f"init shape {Y.shape}, expected {(n, 2)}")
    velocity = np.zeros_like(Y)
    gains = np.ones_like(Y)
    trace = np.empty(cfg.iterations + 1)
    with _Workspace(n) as workspace:
        p_terms, phase = None, None
        for it in range(cfg.iterations):
            exaggeration = EARLY_EXAGGERATION if it < EXAGGERATION_ITERS else 1.0
            if exaggeration != phase:
                p_terms = None  # release the previous phase's terms before building these
                p_terms, phase = _p_terms(P, exaggeration), exaggeration
            trace[it], grad = tsne_cost_and_grad(
                P, Y, cfg.kernel, cfg.cost, exaggeration, p_terms=p_terms, workspace=workspace
            )
            momentum = MOMENTUM_START if it < MOMENTUM_SWITCH else MOMENTUM_FINAL
            # Delta-bar-delta gains: grow a coordinate's rate while its gradient
            # keeps opposing the velocity, shrink it on overshoot.
            grow = np.sign(grad) != np.sign(velocity)
            gains = np.where(grow, gains + 0.2, gains * 0.8)
            np.maximum(gains, _MIN_GAIN, out=gains)
            with np.errstate(over="ignore", invalid="ignore"):  # a step too long to measure diverged
                velocity = momentum * velocity - cfg.learning_rate * (gains * grad)
                norms = np.linalg.norm(velocity, axis=1, keepdims=True)
            if not np.all(np.isfinite(norms)):
                raise DivergenceError(it, f"coordinates diverged at iteration {it}")
            with np.errstate(invalid="ignore", divide="ignore"):
                velocity = np.where(norms > _MAX_STEP, velocity * (_MAX_STEP / norms), velocity)
            Y = Y + velocity
            Y = Y - Y.mean(axis=0)
        if phase != 1.0:
            p_terms = None  # still exaggerated: the final call builds the plain terms
        trace[-1], _ = tsne_cost_and_grad(P, Y, cfg.kernel, cfg.cost, p_terms=p_terms, workspace=workspace)
    return Y, trace, effective, sigmas


def write_coords_csv(ids: Sequence[str], coords: np.ndarray, path: str | Path) -> None:
    write_table(path, ["id", "x", "y"], ([rid, x, y] for rid, (x, y) in zip(ids, coords.tolist())))


def write_trace_csv(kl_trace: np.ndarray, path: str | Path) -> None:
    """One `iteration,kl` row per kl_trace entry; the last is the final layout's cost."""
    write_table(path, ["iteration", "kl"], enumerate(map(float, kl_trace)))


def load_colors(path: str | Path) -> dict[str, str]:
    """Read an id,color CSV for scatter fills; blank rows are skipped."""
    colors: dict[str, str] = {}
    with open_text(path) as fh:
        rows = filled_rows(reader := csv.reader(fh))
        header = next(rows, None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["id", "color"]:
            raise SchemaError(f"{path}: expected header id,color")
        for row in rows:
            where = f"{path}: line {reader.line_num}"
            if len(row) < 2:
                raise FormatError(f"{where}: expected id,color, got {row!r}")
            rid, color = row[0], row[1]
            if rid in colors:
                raise ConflictError(f"{where}: duplicate color entry for id {rid!r}")
            colors[rid] = color
    return colors


def write_scatter_svg(
    ids: Sequence[str],
    coords: np.ndarray,
    path: str | Path,
    colors: Mapping[str, str] | None = None,
    size: int = 640,
) -> None:
    """Emit a self-contained SVG scatter of the planar coordinates; ids and fills are XML-escaped."""
    coords = np.asarray(coords, dtype=float)
    margin = 0.05 * size
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    span = np.where(hi - lo > 0, hi - lo, 1.0)
    scale = (size - 2 * margin) / span
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for rid, (x, y) in zip(ids, coords):
        px = margin + (x - lo[0]) * scale[0]
        py = size - margin - (y - lo[1]) * scale[1]
        fill = colors.get(rid, "#555555") if colors else "#555555"
        parts.append(
            f'<circle cx="{px:.2f}" cy="{py:.2f}" r="4" fill="{escape(fill)}">'
            f"<title>{escape(rid, quote=False)}</title></circle>"
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
