"""Reference implementations the rewritten program code is tested against.

The per-pair scorer, the sort-based ranker and the two-axis grid walk are
what `semfuse.rankopt` used before it computed everything on matrices.
They use only the standard library per pair, so a fault in the numpy path
cannot hide in its own reference. `optimize_trace` is the grid search as
it was before it scored each round as one stack: one `pairwise_scores`,
`rank_matrix` and `rank_loss` per probe. `word_salience` is the salience
of one token occurrence with a solve of its own, as `semfuse.embed`
computed it before one solve served every distinct token.
`tsne_cost_and_grad` and `tsne_descent` are the t-SNE descent as it was
when each iteration made two full cost and gradient evaluations: one
against P for the trace, one against the exaggerated P for the step.
`low_dim_q`, `joint_q` and `kl_divergence` are the planar similarities
and the plain KL divergence that `semfuse.tsne` exported before its cost
lived in `tsne_cost_and_grad` alone.
`score_matrix_text` is `scores.csv` as the score stage wrote it with one
`repr` per cell, before `save_score_matrix` formatted each pair once.
`load_word_vectors` is the word-vector reader with one Python `float()`
per value, before `semfuse.embed` parsed the whole table with numpy.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from semfuse.embed import WordVectorTable
from semfuse.errors import ConflictError, DomainError, FormatError
from semfuse.geotime import EARTH_RADIUS_MILES
from semfuse.rankopt import SimilarityParams, rank_loss, rank_matrix
from semfuse.rankopt import pairwise_scores as matrix_scores
from semfuse.tsne import (
    _MAX_STEP,
    _MIN_GAIN,
    _Q_FLOOR,
    KERNELS,
    TsneResult,
    calibrate_sigmas,
    conditional_p,
    pairwise_sq_distances,
    symmetrize,
)


def haversine_miles(a, b) -> float:
    lat1, lon1, lat2, lon2 = map(math.radians, (a.lat, a.lon, b.lat, b.lon))
    s_lat = math.sin((lat2 - lat1) / 2.0)
    s_lon = math.sin((lon2 - lon1) / 2.0)
    h = s_lat * s_lat + math.cos(lat1) * math.cos(lat2) * s_lon * s_lon
    return 2.0 * EARTH_RADIUS_MILES * math.asin(min(1.0, math.sqrt(h)))


def dist_exp(a: float, b: float) -> float:
    return math.exp(-abs(a - b))


def dist_inv(a: float, b: float) -> float:
    return 1.0 / (abs(a - b) + 1.0)


def dist_floor_geo(a, b) -> float:
    return max(0.0, (10.0 - math.floor(haversine_miles(a, b) / 500.0)) / 10.0)


DISTANCES = {"exp_abs": dist_exp, "inv_abs": dist_inv, "floor_geo": dist_floor_geo}


def pair_score(e1, e2, feats1, feats2, params) -> float:
    """One score: e1.e2 + sum a_i d_i, or (e1.e2) * prod (a_i + d_i)."""
    dists = [DISTANCES[k](a, b) for k, a, b in zip(params.dist_kinds, feats1, feats2)]
    dot = float(np.asarray(e1, dtype=float) @ np.asarray(e2, dtype=float))
    if params.kind == "sigma":
        return dot + sum(a * d for a, d in zip(params.alphas, dists))
    return dot * math.prod(a + d for a, d in zip(params.alphas, dists))


def pairwise_scores(embeddings, features, params) -> np.ndarray:
    """Off-diagonal scores pair by pair; the diagonal is left at 0."""
    m = len(features)
    scores = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i != j:
                scores[i, j] = pair_score(embeddings[i], embeddings[j], features[i], features[j], params)
    return scores


def score_matrix_text(scores) -> str:
    """Each cell's shortest repr, one matrix row per line."""
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in scores)


def rank_entries(scores) -> np.ndarray:
    """Per row, sort the other candidates by (-score, index) and record positions."""
    m = len(scores)
    entries = np.zeros((m, m), dtype=int)
    for i in range(m):
        order = sorted((j for j in range(m) if j != i), key=lambda j: (-scores[i][j], j))
        for position, j in enumerate(order):
            entries[i, j] = position
    return entries


def two_axis_grid_trace(cfg, loss_at) -> list[tuple[int, float, float, float]]:
    """The shrinking-grid walk over exactly two axes, with an explicit nested loop."""
    counts = cfg.points_per_axis()
    (lo1, hi1), (lo2, hi2) = cfg.bounds
    center = ((lo1 + hi1) / 2.0, (lo2 + hi2) / 2.0)
    half = ((hi1 - lo1) / 2.0, (hi2 - lo2) / 2.0)
    best, best_loss = None, math.inf
    trace = []

    def probe(rnd, alphas):
        nonlocal best, best_loss
        loss = loss_at(alphas)
        trace.append((rnd, alphas[0], alphas[1], loss))
        if loss < best_loss:
            best, best_loss = alphas, loss

    def axis(lo, hi, count):
        return [(lo + hi) / 2.0] if count == 1 else np.linspace(lo, hi, count)

    for rnd in range(1, cfg.rounds + 1):
        axis1 = axis(max(lo1, center[0] - half[0]), min(hi1, center[0] + half[0]), counts[0])
        axis2 = axis(max(lo2, center[1] - half[1]), min(hi2, center[1] + half[1]), counts[1])
        if rnd == 1 and any(c % 2 == 0 for c in counts):
            probe(rnd, center)
        for a1 in axis1:
            for a2 in axis2:
                probe(rnd, (float(a1), float(a2)))
        center = best
        half = (half[0] * cfg.shrink, half[1] * cfg.shrink)
    return trace


def optimize_trace(embeddings, features, labels, kind, dist_kinds, cfg):
    """The shrinking-grid search scored probe by probe; returns (params, loss, trace)."""
    counts = cfg.points_per_axis()
    lo, hi = np.array(cfg.bounds, dtype=float).T
    center = (lo + hi) / 2.0
    half = (hi - lo) / 2.0
    trace = []
    for rnd in range(1, cfg.rounds + 1):
        axes = [
            np.array([(a + b) / 2.0]) if c == 1 else np.linspace(a, b, c)
            for a, b, c in zip(np.maximum(lo, center - half), np.minimum(hi, center + half), counts)
        ]
        grid = itertools.product(*axes)
        if rnd == 1 and any(c % 2 == 0 for c in counts):
            grid = itertools.chain([center], grid)
        for alphas in grid:
            params = SimilarityParams(kind, tuple(map(float, alphas)), tuple(dist_kinds))
            loss = rank_loss(rank_matrix(matrix_scores(embeddings, features, params)), labels)
            trace.append((rnd, *params.alphas, loss))
        best = min(trace, key=lambda row: row[-1])
        center = np.array(best[1:-1])
        half = half * cfg.shrink
    return SimilarityParams(kind, best[1:-1], tuple(dist_kinds)), best[-1], trace


def word_salience(token, ctx, table) -> float:
    """Mahalanobis distance from the context mean, one solve per call."""
    residual = table.vector(token) - ctx.mean
    if not residual.any():
        return 0.0
    try:
        solved = np.linalg.solve(ctx.metric(), residual)
    except np.linalg.LinAlgError:
        raise DomainError("context metric is singular; increase ridge") from None
    return float(np.sqrt(max(0.0, float(residual @ solved))))


def load_word_vectors(path) -> WordVectorTable:
    """Read `token v1 ... vdim` lines, parsing each value with `float()`."""
    vectors: dict[str, np.ndarray] = {}
    dim = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            token, values = parts[0], parts[1:]
            if dim is None:
                dim = len(values)
                if dim < 2:
                    raise FormatError(f"line {lineno}: need at least 2 vector values, got {dim}")
            elif len(values) != dim:
                raise FormatError(f"line {lineno}: expected {dim} values, got {len(values)}")
            if token in vectors:
                raise ConflictError(f"duplicate token {token!r} at line {lineno}")
            try:
                vectors[token] = np.array([float(v) for v in values])
            except ValueError:
                raise FormatError(f"line {lineno}: non-numeric vector value") from None
            if not np.isfinite(vectors[token]).all():
                raise FormatError(f"line {lineno}: non-finite vector value")
    if dim is None:
        raise FormatError(f"{path}: no word vector entries")
    return WordVectorTable(dim=dim, vectors=vectors)


def planar_weights(coords, kernel):
    """Kernel weights of the planar distances, with a zero diagonal."""
    d2 = pairwise_sq_distances(np.asarray(coords, dtype=float))
    w = np.exp(-d2) if kernel == "gaussian" else 1.0 / (1.0 + d2)
    np.fill_diagonal(w, 0.0)
    return w


def low_dim_q(coords, kernel="gaussian") -> np.ndarray:
    """Row-normalized planar similarities q_{j|i}; zero diagonal."""
    if kernel not in KERNELS:
        raise DomainError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
    w = planar_weights(coords, kernel)
    return w / w.sum(axis=1, keepdims=True)


def joint_q(coords, kernel="gaussian") -> np.ndarray:
    """Matrix-normalized planar similarities, summing to 1 overall."""
    if kernel not in KERNELS:
        raise DomainError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
    w = planar_weights(coords, kernel)
    return w / w.sum()


def kl_divergence(P, Q) -> float:
    """Sum of p * log(p/q) over all entries, with 0 log 0 taken as 0."""
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if P.shape != Q.shape:
        raise DomainError(f"shapes differ: {P.shape} vs {Q.shape}")
    mask = P > 0
    if np.any(Q[mask] <= 0):
        raise DomainError("q is 0 where p > 0; divergence undefined")
    return float(np.sum(P[mask] * np.log(P[mask] / Q[mask])))


def tsne_cost_and_grad(P, coords, kernel="gaussian", cost="joint"):
    """Floored KL of P and its gradient, each Q evaluation serving one of them."""
    coords = np.asarray(coords, dtype=float)
    d2 = pairwise_sq_distances(coords)
    w = np.exp(-d2) if kernel == "gaussian" else 1.0 / (1.0 + d2)
    np.fill_diagonal(w, 0.0)
    if cost == "joint":
        Q = w / max(float(w.sum()), _Q_FLOOR)
    else:
        Q = w / np.maximum(w.sum(axis=1, keepdims=True), _Q_FLOOR)
    Q = np.maximum(Q, _Q_FLOOR)
    np.fill_diagonal(Q, 0.0)
    mask = P > 0
    cost_value = float(np.sum(P[mask] * np.log(P[mask] / Q[mask])))
    S = (P + P.T) - (Q + Q.T)
    A = S * (1.0 / (1.0 + d2) if kernel == "student_t" else 1.0)
    np.fill_diagonal(A, 0.0)
    grad = 2.0 * (A.sum(axis=1)[:, None] * coords - A @ coords)
    return cost_value, grad


def tsne_descent(space, cfg) -> TsneResult:
    """The two-call descent loop: the trace cost and the step gradient apart."""
    X = np.asarray(space, dtype=float)
    n = X.shape[0]
    effective = min(cfg.perplexity, max((n - 1) / 3.0, 1.5))
    d2 = pairwise_sq_distances(X)
    sigmas = calibrate_sigmas(d2, effective)
    pcond = conditional_p(d2, sigmas)
    P = symmetrize(pcond, sigmas).P if cfg.cost == "joint" else pcond
    Y = np.random.default_rng(cfg.seed).normal(0.0, 1e-2, size=(n, 2))
    velocity = np.zeros_like(Y)
    gains = np.ones_like(Y)
    trace = np.empty(cfg.iterations + 1)
    for it in range(cfg.iterations):
        P_use = P * cfg.early_exaggeration if it < cfg.exaggeration_iters else P
        trace[it], _ = tsne_cost_and_grad(P, Y, cfg.kernel, cfg.cost)
        _, grad = tsne_cost_and_grad(P_use, Y, cfg.kernel, cfg.cost)
        momentum = cfg.momentum_start if it < cfg.momentum_switch else cfg.momentum_final
        grow = np.sign(grad) != np.sign(velocity)
        gains = np.where(grow, gains + 0.2, gains * 0.8)
        np.maximum(gains, _MIN_GAIN, out=gains)
        velocity = momentum * velocity - cfg.learning_rate * (gains * grad)
        norms = np.linalg.norm(velocity, axis=1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            velocity = np.where(norms > _MAX_STEP, velocity * (_MAX_STEP / norms), velocity)
        Y = Y + velocity
        Y = Y - Y.mean(axis=0)
    trace[-1], _ = tsne_cost_and_grad(P, Y, cfg.kernel, cfg.cost)
    return TsneResult(coords=Y, kl_trace=trace, effective_perplexity=effective, sigmas=sigmas)
