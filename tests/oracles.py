"""Reference implementations the rewritten program code is tested against.

The per-pair scorer, the sort-based ranker and the two-axis grid walk are
what `semfuse.rankopt` used before it computed everything on matrices.
They use only the standard library per pair, so a fault in the numpy path
cannot hide in its own reference; `pair_score` is the reference for one
cell of a `pairwise_scores` batch. They take per-record feature tuples,
one value per kind, which `record_features` makes from a batch's (days,
coords) columns, as the scorer took them before each kernel read the
column its kind names. `optimize_trace` is the grid search as
it was before it scored each round as one stack: one `pairwise_scores`,
`rank_matrix` and `rank_loss` per probe. `word_salience` is the salience
of one token occurrence with a solve of its own, as `semfuse.embed`
computed it before one solve of `token_saliences` served every distinct
token. `tsne_descent` is the t-SNE descent as it was when each iteration made
two full cost and gradient evaluations: one against P for the trace, one
against the exaggerated P for the step; it takes the cost function to
call. `whole_matrix_cost_and_grad` is `semfuse.tsne.tsne_cost_and_grad`
as it was before it worked on row blocks: every step on whole n x n
matrices, with the planar Gram matrix and the gradient from BLAS.
`offset_cost_and_grad` is it as it was when both row-block sweeps built
the coordinate differences, the gradient as `sum_j S_ij (y_j - y_i)`
and the cost as `p log(p / q)` on the cells with p > 0.
`row_calibrate_sigmas` and `row_conditional_p` are the perplexity
bisection and the conditional P one row at a time, before the rows were
bisected together. `low_dim_q`, `joint_q` and `kl_divergence` are the
planar similarities and the plain KL divergence that `semfuse.tsne`
exported before its cost lived in `tsne_cost_and_grad` alone.
`score_matrix_text` is `scores.csv` as the score stage wrote it with one
`repr` per cell, before `save_score_matrix` formatted each pair once.
`whole_matrix_scores` is `pairwise_scores` as it was before it composed
the scores in row blocks: every kernel built as a whole m x m matrix.
`load_word_vectors` is the word-vector reader with one Python `float()`
per value, before `semfuse.embed` parsed the whole table with numpy.
`WRITERS` holds the CSV writers as each stage had its own, one
`csv.writer` row and one `repr` per cell, before they all went through
`semfuse.table.write_table`; `eval_csv` is the loop `eval` wrote
`eval.csv` with. `write_table` is that function as it was when one
`csv.writer` wrote every row; `read_table` is its reader as it was when
`csv` split every row and one `np.loadtxt` call parsed the joined value
cells. `top_pair_quality` is `semfuse.evalkit.top_pair_quality` as it was
when it called `spectra.cosine` once per labeled pair, on the row pairs
and labels it now takes.
"""

from __future__ import annotations

import csv
import itertools
import math

import numpy as np

from semfuse.embed import WordVectorTable
from semfuse.errors import CalibrationError, ConflictError, DomainError, FormatError
from semfuse.geotime import EARTH_RADIUS_MILES, FEATURE_COLUMNS, GeoPoint, great_circle_miles
from semfuse.rankopt import SimilarityParams, rank_loss, rank_matrix
from semfuse.rankopt import pairwise_scores as matrix_scores
from semfuse.spectra import cosine
from semfuse.table import _ROWS, filled_rows, parse_floats
from semfuse.tsne import (
    _BLOCK_CELLS,
    _MAX_STEP,
    _MIN_GAIN,
    _Q_FLOOR,
    KERNELS,
    PERPLEXITY_TOL,
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


def record_features(features, dist_kinds) -> list[tuple]:
    """Per-record feature tuples, one value per kind, from a batch's (days, coords) columns.

    A tuple holds a day number for `exp_abs` and `inv_abs` and a GeoPoint
    for `floor_geo`, as the scorer took its features per record.
    """
    days, coords = features
    return [tuple(GeoPoint(*point) if kind == "floor_geo" else day for kind in dist_kinds)
            for day, point in zip(np.asarray(days).tolist(), np.asarray(coords).tolist())]


def pairwise_scores(embeddings, features, params) -> np.ndarray:
    """Off-diagonal scores pair by pair; the diagonal is left at 0."""
    m = len(features)
    scores = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i != j:
                scores[i, j] = pair_score(embeddings[i], embeddings[j], features[i], features[j], params)
    return scores


WHOLE_KERNELS = {
    "exp_abs": lambda gap: np.exp(-gap),
    "inv_abs": lambda gap: 1.0 / (gap + 1.0),
    "floor_geo": lambda miles: np.maximum(0.0, (10.0 - np.floor(miles / 500.0)) / 10.0),
}


def whole_matrix_scores(embeddings, features, params) -> np.ndarray:
    """Compose the scores from whole m x m kernels, then mirror the upper triangle."""
    embeddings = np.asarray(embeddings, dtype=float)
    m = embeddings.shape[0]
    kernels = []
    for fi, kind in enumerate(params.dist_kinds):
        column = [f[fi] for f in features]
        if kind == "floor_geo":
            coords = np.array([(p.lat, p.lon) for p in column]).reshape(-1, 2)
            lat, lon = coords[:, :1], coords[:, 1:]
            kernels.append(WHOLE_KERNELS[kind](great_circle_miles(lat, lon, lat.T, lon.T)))
        else:
            x = np.array(column, dtype=float)[:, None]
            kernels.append(WHOLE_KERNELS[kind](np.abs(x - x.T)))
    dots = embeddings @ embeddings.T
    scores = np.empty_like(dots)
    if params.kind == "sigma":
        scores[...] = dots
        for alpha, kernel in zip(params.alphas, kernels):
            scores += alpha * kernel
    else:
        scores.fill(1.0)
        for alpha, kernel in zip(params.alphas, kernels):
            scores *= alpha + kernel
        scores *= dots
    for i in range(m - 1):
        scores[i + 1:, i] = scores[i, i + 1:]
    scores += 0.0
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
    residual = table.vectors[token] - ctx.mean
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


def export_embeddings(space, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"e{i + 1}" for i in range(space.dim)])
        for rid, row in zip(space.ids, space.matrix):
            writer.writerow([rid] + [repr(float(v)) for v in row])


def save_feature_matrix(path, matrix, variant) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(FEATURE_COLUMNS[variant])
        for row in np.asarray(matrix, dtype=float):
            writer.writerow([repr(float(v)) for v in row])


def save_trace_csv(trace, path) -> None:
    n_alphas = len(trace[0]) - 2 if trace else 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", *(f"alpha{i}" for i in range(1, n_alphas + 1)), "loss"])
        for rnd, *values in trace:
            writer.writerow([rnd, *(repr(float(v)) for v in values)])


def write_coords_csv(ids, coords, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "x", "y"])
        for rid, (x, y) in zip(ids, coords):
            writer.writerow([rid, repr(float(x)), repr(float(y))])


def write_trace_csv(kl_trace, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "kl"])
        for it, kl in enumerate(kl_trace):
            writer.writerow([it, repr(float(kl))])


def save_sweep_csv(cells, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "k", "mean_label", "n_pairs"])
        for cell in cells:
            writer.writerow([cell.variant, cell.k, repr(cell.mean_label), cell.n_pairs])


def save_rank_heatmap(matrix, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "rank"])
        for i in range(matrix.m):
            for j in range(matrix.m):
                writer.writerow([i, j, int(matrix.entries[i, j])])


def save_delta_csv(results, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "mean_abs_delta", "stderr"])
        for r in results:
            writer.writerow([r.k, repr(r.mean_abs_delta), repr(r.stderr)])


WRITERS = {
    "embed.export_embeddings": export_embeddings,
    "geotime.save_feature_matrix": save_feature_matrix,
    "rankopt.save_trace_csv": save_trace_csv,
    "tsne.write_coords_csv": write_coords_csv,
    "tsne.write_trace_csv": write_trace_csv,
    "evalkit.save_sweep_csv": save_sweep_csv,
    "evalkit.save_rank_heatmap": save_rank_heatmap,
    "spectra.save_delta_csv": save_delta_csv,
}


def write_table(path, header, rows, lineterminator="\r\n") -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator=lineterminator)
        writer.writerow(header)
        writer.writerows(rows)


def read_table(path, check_header=None, ids=False):
    """(header, ids, matrix): csv splits the rows, one np.loadtxt call parses the joined values."""
    skip = 1 if ids else 0
    row_ids: dict[str, None] = {}

    def value_lines(rows):
        for row in rows:
            where = f"{path}: line {reader.line_num}"
            if len(row) != width:
                raise FormatError(f"{where}: expected {width} fields, got {len(row)}")
            if ids:
                if row[0] in row_ids:
                    raise ConflictError(f"{where}: duplicate id {row[0]!r}")
                row_ids[row[0]] = None
            yield ",".join(row[skip:]) or ","

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = filled_rows(reader)
        header = next(rows, [])
        if check_header:
            check_header(header)
        else:
            rows = itertools.chain([header] if header else [], rows)
        width = len(header)
        lines = value_lines(rows)
        first = next(lines, None)
        matrix = np.zeros((0, width - skip))
        if first is not None:
            try:
                matrix = np.loadtxt(itertools.chain([first], lines), **_ROWS)
            except ValueError:
                matrix = None
        for _ in lines:
            pass
        if matrix is None or matrix.shape[1] != width - skip or not np.isfinite(matrix).all():
            fh.seek(0)
            reader = csv.reader(fh)
            rows = filled_rows(reader)
            if check_header:
                next(rows)
            for row in rows:
                parse_floats(f"{path}: line {reader.line_num}", row[skip:])
            raise FormatError(f"{path}: values could not be read as one table")
    return (header if check_header else None), list(row_ids), matrix


def top_pair_quality(matrix, pairs, labels, top_n) -> float:
    """Mean label of the top_n row pairs by cosine, one `cosine` call per pair; ties keep pair order."""
    if not 1 <= top_n <= len(labels):
        raise DomainError(f"top_n {top_n} outside [1, {len(labels)}]")
    scored = [(cosine(matrix[i], matrix[j]), index) for index, (i, j) in enumerate(pairs.tolist())]
    scored.sort(key=lambda item: (-item[0], item[1]))
    return sum(float(labels[index]) for _, index in scored[:top_n]) / top_n


def eval_csv(rows) -> str:
    """`eval.csv` for (metric, value) rows, each value's text as `eval` formatted it."""
    return "metric,value\n" + "".join(f"{metric},{value}\n" for metric, value in rows)


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


def whole_matrix_cost_and_grad(P, coords, kernel="gaussian", cost="joint", exaggeration=1.0):
    """The fused cost and gradient on whole n x n matrices, with two BLAS products."""
    mask = P > 0
    p = P[mask]
    scaled = P if exaggeration == 1.0 else exaggeration * P
    coords = np.ascontiguousarray(coords, dtype=float)
    norms = np.einsum("ij,ij->i", coords, coords)
    # syrk: exactly symmetric, so 2 * Q below is Q + Q.T under the joint cost
    d2 = norms[:, None] + norms[None, :] - 2.0 * (coords @ coords.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    Q = np.exp(-d2) if kernel == "gaussian" else 1.0 / (1.0 + d2)
    np.fill_diagonal(Q, 0.0)
    if cost == "joint":
        Q /= max(float(Q.sum()), _Q_FLOOR)
    else:
        Q /= np.maximum(Q.sum(axis=1, keepdims=True), _Q_FLOOR)
    np.maximum(Q, _Q_FLOOR, out=Q)
    np.fill_diagonal(Q, 0.0)
    cost_value = float(np.sum(p * np.log(p / Q[mask])))
    S = (scaled + scaled.T) - (2.0 * Q if cost == "joint" else Q + Q.T)
    if kernel == "student_t":
        S *= 1.0 / (1.0 + d2)
    np.fill_diagonal(S, 0.0)
    grad = 2.0 * (S.sum(axis=1)[:, None] * coords - S @ coords)
    return cost_value, grad


def offset_cost_and_grad(P, coords, kernel="gaussian", cost="joint", exaggeration=1.0):
    """The row-blocked cost and gradient with both sweeps on coordinate differences, on one thread."""
    mask = P > 0
    scaled = P if exaggeration == 1.0 else exaggeration * P
    S_P = scaled + scaled.T
    coords = np.asarray(coords, dtype=float)
    x, y = coords[:, 0].copy(), coords[:, 1].copy()
    n, joint = len(x), cost == "joint"
    rows = max(1, _BLOCK_CELLS // n)
    blocks = [slice(r, min(r + rows, n)) for r in range(0, n, rows)]
    Q, row_sum, row_cost, grad = np.empty((n, n)), np.empty(n), np.empty(n), np.empty((n, 2))

    def zero_diagonal(rows, first):
        rows.flat[first :: rows.shape[1] + 1] = 0.0

    for block in blocks:
        dx, dy = x - x[block, None], y - y[block, None]
        d2 = dx * dx + dy * dy
        w = Q[block]
        w[...] = np.exp(-d2) if kernel == "gaussian" else 1.0 / (d2 + 1.0)
        zero_diagonal(w, block.start)
        row_sum[block] = np.add.reduce(w, axis=1)
        if not joint:
            w /= np.maximum(row_sum[block], _Q_FLOOR)[:, None]
            np.maximum(w, _Q_FLOOR, out=w)
            zero_diagonal(w, block.start)
    total = max(float(row_sum.sum()), _Q_FLOOR)
    for block in blocks:
        dx, dy = x - x[block, None], y - y[block, None]
        q = np.maximum(Q[block] / total, _Q_FLOOR) if joint else Q[block]
        zero_diagonal(q, block.start)  # under the joint cost q is a copy
        p = P[block]
        ratio = np.ones_like(p)
        np.divide(p, q, out=ratio, where=mask[block])
        row_cost[block] = np.add.reduce(np.log(ratio) * p, axis=1)
        S = S_P[block] - (q * 2.0 if joint else q + Q[:, block].T)
        if kernel == "student_t":
            S /= (dx * dx + dy * dy) + 1.0
        grad[block, 0] = np.einsum("ij,ij->i", S, dx)
        grad[block, 1] = np.einsum("ij,ij->i", S, dy)
    return float(row_cost.sum()), grad * -2.0


def row_perplexity(d2_row, beta, i):
    """(2^H in bits, conditional probabilities) of row i at precision beta."""
    logits = -beta * d2_row
    logits[i] = -np.inf
    logits -= logits.max()
    w = np.exp(logits)
    p = w / w.sum()
    positive = p[p > 0]
    entropy_bits = float(-(positive * np.log2(positive)).sum())
    return 2.0**entropy_bits, p


def row_calibrate_sigmas(d2, perplexity):
    """Bisect each row's bandwidth alone, at most 64 steps a row."""
    n = d2.shape[0]
    sigmas = np.empty(n)
    for i in range(n):
        beta, lo, hi = 1.0, None, None
        for _ in range(64):
            perp, _ = row_perplexity(d2[i].copy(), beta, i)
            if abs(perp - perplexity) <= PERPLEXITY_TOL:
                break
            if perp > perplexity:
                lo = beta
                beta = beta * 2.0 if hi is None else (lo + hi) / 2.0
            else:
                hi = beta
                beta = beta / 2.0 if lo is None else (lo + hi) / 2.0
        else:
            raise CalibrationError(i, f"row {i}: perplexity {perplexity} unreachable")
        sigmas[i] = 1.0 / np.sqrt(2.0 * beta)
    return sigmas


def row_conditional_p(d2, sigmas):
    """Row-stochastic Gaussian conditionals, one row at a time."""
    n = d2.shape[0]
    out = np.empty((n, n))
    for i in range(n):
        beta = 1.0 / (2.0 * sigmas[i] ** 2)
        _, out[i] = row_perplexity(d2[i].copy(), beta, i)
    return out


def tsne_descent(space, cfg, cost_and_grad) -> TsneResult:
    """The two-call descent loop: the trace cost and the step gradient apart."""
    X = np.asarray(space, dtype=float)
    n = X.shape[0]
    effective = min(cfg.perplexity, max((n - 1) / 3.0, 1.5))
    d2 = pairwise_sq_distances(X)
    sigmas = calibrate_sigmas(d2, effective)
    pcond = conditional_p(d2, sigmas)
    P = symmetrize(pcond) if cfg.cost == "joint" else pcond
    Y = np.random.default_rng(cfg.seed).normal(0.0, 1e-2, size=(n, 2))
    velocity = np.zeros_like(Y)
    gains = np.ones_like(Y)
    trace = np.empty(cfg.iterations + 1)
    for it in range(cfg.iterations):
        P_use = P * cfg.early_exaggeration if it < cfg.exaggeration_iters else P
        trace[it], _ = cost_and_grad(P, Y, cfg.kernel, cfg.cost)
        _, grad = cost_and_grad(P_use, Y, cfg.kernel, cfg.cost)
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
    trace[-1], _ = cost_and_grad(P, Y, cfg.kernel, cfg.cost)
    return TsneResult(coords=Y, kl_trace=trace, effective_perplexity=effective, sigmas=sigmas)
