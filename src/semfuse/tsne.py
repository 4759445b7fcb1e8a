"""Two-dimensional t-SNE style reduction for map-like visualization.

High-dimensional affinities use per-point Gaussian bandwidths calibrated
by bisection to a target perplexity. The planar similarities default to a
Gaussian kernel, with a Student-t switch; the cost is the KL divergence
between the two distributions, minimized by momentum gradient descent
with early exaggeration. Everything is deterministic given the seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
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
from .table import write_table

KERNELS = ("gaussian", "student_t")
COST_MODES = ("joint", "conditional")
PERPLEXITY_TOL = 1e-3
_BISECTION_STEPS = 64
_Q_FLOOR = 1e-12
_MIN_GAIN = 0.01
# Per-point displacement cap per iteration. The planar Gaussian kernel has no
# long-range force falloff, so an aggressive learning rate can overshoot
# explosively before the gains adapt; bounding the step keeps the excursion
# finite without touching well-behaved trajectories.
_MAX_STEP = 0.5


@dataclass(frozen=True)
class TsneConfig:
    perplexity: float = 30.0
    iterations: int = 1000
    learning_rate: float = 100.0
    momentum_start: float = 0.5
    momentum_final: float = 0.8
    momentum_switch: int = 250
    early_exaggeration: float = 4.0
    exaggeration_iters: int = 100
    kernel: str = "gaussian"
    cost: str = "joint"
    seed: int = 0

    def __post_init__(self):
        if self.perplexity <= 1:
            raise ConfigError(f"perplexity must be > 1, got {self.perplexity}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        for name in ("momentum_start", "momentum_final"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {value}")
        if self.early_exaggeration < 1.0:
            raise ConfigError(f"early_exaggeration must be >= 1, got {self.early_exaggeration}")
        if self.exaggeration_iters < 0 or self.momentum_switch < 0:
            raise ConfigError("iteration thresholds must be >= 0")
        if self.kernel not in KERNELS:
            raise ConfigError(f"unknown kernel {self.kernel!r}; expected one of {KERNELS}")
        if self.cost not in COST_MODES:
            raise ConfigError(f"unknown cost mode {self.cost!r}; expected one of {COST_MODES}")


@dataclass(frozen=True, eq=False)
class AffinityModel:
    """Symmetric joint affinities with the bandwidths that produced them."""

    P: np.ndarray
    sigmas: np.ndarray | None = None

    def __post_init__(self):
        P = self.P
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise DomainError(f"P must be square, got shape {P.shape}")
        if np.any(P < 0) or np.any(np.diag(P) != 0):
            raise DomainError("P must be nonnegative with a zero diagonal")
        if not np.allclose(P, P.T, atol=1e-12, rtol=0.0):
            raise DomainError("P is not symmetric")
        if abs(float(P.sum()) - 1.0) > 1e-9:
            raise DomainError(f"P sums to {float(P.sum())}, expected 1")


@dataclass(frozen=True, eq=False)
class TsneResult:
    coords: np.ndarray
    kl_trace: np.ndarray
    effective_perplexity: float
    sigmas: np.ndarray


def pairwise_sq_distances(matrix: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances with an exact zero diagonal.

    The result is exactly symmetric, bit for bit: on a C-contiguous array
    numpy computes `matrix @ matrix.T` with BLAS syrk, which fills one
    triangle and mirrors it. A view with negative strides would take the
    general product, whose tiles can round the two triangles apart, so it
    is copied first.
    """
    matrix = np.ascontiguousarray(matrix, dtype=float)
    norms = np.einsum("ij,ij->i", matrix, matrix)
    d2 = norms[:, None] + norms[None, :] - 2.0 * (matrix @ matrix.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def _row_perplexity(d2_row: np.ndarray, beta: float, i: int) -> tuple[float, np.ndarray]:
    # returns (2^H in bits, conditional probabilities) for row i at precision beta
    logits = -beta * d2_row
    logits[i] = -np.inf
    logits -= logits.max()
    w = np.exp(logits)
    p = w / w.sum()
    positive = p[p > 0]
    entropy_bits = float(-(positive * np.log2(positive)).sum())
    return 2.0**entropy_bits, p


def calibrate_sigmas(sq_distances: np.ndarray, perplexity: float) -> np.ndarray:
    """Per-row bandwidths hitting the target perplexity by bisection.

    Solves 2^H(p_.|i) = perplexity within 1e-3 for each row, at most 64
    bisection steps per row.
    """
    d2 = np.asarray(sq_distances, dtype=float)
    n = d2.shape[0]
    if d2.ndim != 2 or d2.shape[1] != n:
        raise DomainError(f"distance matrix must be square, got shape {d2.shape}")
    if np.any(np.diag(d2) != 0):
        raise DomainError("distance matrix diagonal must be zero")
    if not 1.0 < perplexity < n:
        raise CalibrationError(-1, f"perplexity {perplexity} not in (1, {n})")
    sigmas = np.empty(n)
    for i in range(n):
        beta, lo, hi = 1.0, None, None
        converged = False
        for _ in range(_BISECTION_STEPS):
            perp, _ = _row_perplexity(d2[i].copy(), beta, i)
            if abs(perp - perplexity) <= PERPLEXITY_TOL:
                converged = True
                break
            if perp > perplexity:
                lo = beta
                beta = beta * 2.0 if hi is None else (lo + hi) / 2.0
            else:
                hi = beta
                beta = beta / 2.0 if lo is None else (lo + hi) / 2.0
        if not converged:
            raise CalibrationError(i, f"row {i}: perplexity {perplexity} unreachable")
        sigmas[i] = 1.0 / np.sqrt(2.0 * beta)
    return sigmas


def conditional_p(sq_distances: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Row-stochastic Gaussian conditionals from calibrated bandwidths."""
    d2 = np.asarray(sq_distances, dtype=float)
    n = d2.shape[0]
    out = np.empty((n, n))
    for i in range(n):
        beta = 1.0 / (2.0 * sigmas[i] ** 2)
        _, out[i] = _row_perplexity(d2[i].copy(), beta, i)
    return out


def symmetrize(pcond: np.ndarray, sigmas: np.ndarray | None = None) -> AffinityModel:
    """Joint affinities P = (Pcond + Pcond.T) / 2n, summing to 1."""
    pcond = np.asarray(pcond, dtype=float)
    n = pcond.shape[0]
    P = (pcond + pcond.T) / (2.0 * n)
    np.fill_diagonal(P, 0.0)
    return AffinityModel(P=P, sigmas=sigmas)


def _kernel_weights(d2: np.ndarray, kernel: str) -> np.ndarray:
    if kernel == "gaussian":
        w = np.negative(d2)
        np.exp(w, out=w)
    else:
        w = 1.0 / (1.0 + d2)
    np.fill_diagonal(w, 0.0)
    return w


def _p_terms(P: np.ndarray, exaggeration: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The parts of a cost-and-gradient call that depend on `P` alone.

    Returns the `P > 0` mask, the gathered `P[mask]` and
    `S_P = exaggeration * P + (exaggeration * P).T`. The factor is applied
    before the transpose-add, so the gradient equals the one of the KL
    against `exaggeration * P` to the last bit, for any factor.
    """
    mask = P > 0
    scaled = P if exaggeration == 1.0 else exaggeration * P
    return mask, P[mask], scaled + scaled.T


def tsne_cost_and_grad(
    P: np.ndarray,
    coords: np.ndarray,
    kernel: str = "gaussian",
    cost: str = "joint",
    exaggeration: float = 1.0,
    *,
    p_terms: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
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
    0.875).

    `p_terms` is `_p_terms(P, exaggeration)`, passed by a caller that
    reuses it over many calls, as run_tsne does once per exaggeration
    phase; without it the call builds the terms itself, with the same
    result. The gradient needs `S_P - (Q + Q.T)`. Under the joint cost Q
    is exactly symmetric, bit for bit: the planar distances are (see
    pairwise_sq_distances), and every later step is elementwise or a
    division by one scalar. So `2 * Q`, computed in place, stands in for
    `Q + Q.T`. Conditional Q is row-normalized and not symmetric, so it
    keeps the transpose-add. Besides `P` and the terms, a call holds at
    most three n x n float buffers at once.
    """
    mask, p, S_P = _p_terms(P, exaggeration) if p_terms is None else p_terms
    coords = np.asarray(coords, dtype=float)
    d2 = pairwise_sq_distances(coords)
    Q = _kernel_weights(d2, kernel)
    if kernel == "gaussian":
        del d2
    if cost == "joint":
        Q /= max(float(Q.sum()), _Q_FLOOR)
    else:
        Q /= np.maximum(Q.sum(axis=1, keepdims=True), _Q_FLOOR)
    np.maximum(Q, _Q_FLOOR, out=Q)
    np.fill_diagonal(Q, 0.0)
    # p * log(p / Q[mask]), evaluated inside the one gathered buffer
    ratio = Q[mask]
    np.divide(p, ratio, out=ratio)
    np.log(ratio, out=ratio)
    ratio *= p
    cost_value = float(np.sum(ratio))
    del ratio
    if cost == "joint":
        Q *= 2.0
    else:
        Q = Q + Q.T
    S = np.subtract(S_P, Q, out=Q)
    if kernel == "student_t":
        S *= 1.0 / (1.0 + d2)
    np.fill_diagonal(S, 0.0)
    grad = 2.0 * (S.sum(axis=1)[:, None] * coords - S @ coords)
    return cost_value, grad


def run_tsne(
    space: np.ndarray, cfg: TsneConfig, init: np.ndarray | None = None
) -> TsneResult:
    """Reduce rows of `space` to the plane by gradient descent.

    The requested perplexity is capped at max((n-1)/3, 1.5) so small
    inputs stay calibratable. The descent uses momentum, early
    exaggeration, per-coordinate adaptive gains, and a per-point step cap.
    Each iteration makes one tsne_cost_and_grad call, which returns the
    trace entry and the step's gradient from one evaluation of Q; during
    the first `exaggeration_iters` iterations it is passed
    `exaggeration=cfg.early_exaggeration`, later 1.0. One more call costs
    the returned coordinates, so a run makes `iterations + 1` calls.
    The P-only terms of those calls (the `P > 0` mask, its gather and
    `S_P`) are built once per exaggeration factor, at most twice a run,
    and the previous factor's terms are released first. The input-space
    distances and, under the joint cost, the conditional P are released
    before the descent, so it holds `P`, the terms and at most three n x n
    buffers inside a call. The result carries the calibrated bandwidths.
    kl_trace[t] is the cost at the start of iteration t against the
    un-exaggerated affinities; the final entry is the cost of the returned
    coordinates. Entries are the floored cost of tsne_cost_and_grad, not
    the plain KL. Passing `init` overrides the seeded Gaussian start.
    """
    X = np.asarray(space, dtype=float)
    n = X.shape[0]
    if n < 3:
        raise DomainError(f"need at least 3 rows, got {n}")
    effective = min(cfg.perplexity, max((n - 1) / 3.0, 1.5))
    d2 = pairwise_sq_distances(X)
    sigmas = calibrate_sigmas(d2, effective)
    P = conditional_p(d2, sigmas)
    del d2
    if cfg.cost == "joint":
        P = symmetrize(P, sigmas).P

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
    p_terms, phase = None, None
    for it in range(cfg.iterations):
        exaggeration = cfg.early_exaggeration if it < cfg.exaggeration_iters else 1.0
        if exaggeration != phase:
            p_terms = None  # release the previous phase's terms before building these
            p_terms, phase = _p_terms(P, exaggeration), exaggeration
        trace[it], grad = tsne_cost_and_grad(
            P, Y, cfg.kernel, cfg.cost, exaggeration, p_terms=p_terms
        )
        momentum = cfg.momentum_start if it < cfg.momentum_switch else cfg.momentum_final
        # Delta-bar-delta gains: grow a coordinate's rate while its gradient
        # keeps opposing the velocity, shrink it on overshoot.
        grow = np.sign(grad) != np.sign(velocity)
        gains = np.where(grow, gains + 0.2, gains * 0.8)
        np.maximum(gains, _MIN_GAIN, out=gains)
        velocity = momentum * velocity - cfg.learning_rate * (gains * grad)
        norms = np.linalg.norm(velocity, axis=1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            velocity = np.where(norms > _MAX_STEP, velocity * (_MAX_STEP / norms), velocity)
        Y = Y + velocity
        Y = Y - Y.mean(axis=0)
        if not np.all(np.isfinite(Y)):
            raise DivergenceError(it, f"coordinates diverged at iteration {it}")
    if phase != 1.0:
        p_terms = None  # still exaggerated: the final call builds the plain terms
    trace[-1], _ = tsne_cost_and_grad(P, Y, cfg.kernel, cfg.cost, p_terms=p_terms)
    return TsneResult(coords=Y, kl_trace=trace, effective_perplexity=effective, sigmas=sigmas)


def write_coords_csv(ids: Sequence[str], coords: np.ndarray, path: str | Path) -> None:
    write_table(path, ["id", "x", "y"], ([rid, x, y] for rid, (x, y) in zip(ids, coords.tolist())))


def write_trace_csv(kl_trace: np.ndarray, path: str | Path) -> None:
    """One `iteration,kl` row per kl_trace entry; the last is the final layout's cost."""
    write_table(path, ["iteration", "kl"], enumerate(map(float, kl_trace)))


def load_colors(path: str | Path) -> dict[str, str]:
    """Read an id,color CSV for scatter fills."""
    colors: dict[str, str] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["id", "color"]:
            raise SchemaError(f"{path}: expected header id,color")
        for row in reader:
            if not row:
                continue
            if len(row) < 2:
                raise FormatError(f"{path}: line {reader.line_num}: expected id,color, got {row!r}")
            rid, color = row[0], row[1]
            if rid in colors:
                raise ConflictError(f"duplicate color entry for id {rid!r}")
            colors[rid] = color
    return colors


def write_scatter_svg(
    ids: Sequence[str],
    coords: np.ndarray,
    path: str | Path,
    colors: Mapping[str, str] | None = None,
    size: int = 640,
) -> None:
    """Emit a self-contained SVG scatter of the planar coordinates."""
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
            f'<circle cx="{px:.2f}" cy="{py:.2f}" r="4" fill="{fill}">'
            f"<title>{rid}</title></circle>"
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
