"""Reference computations the output checks compare against.

Each function re-derives, with plain numpy and from the method's
definition, a quantity the program computes. None of them calls into
`semfuse`, so a fault in the program cannot hide in its own reference.
"""

from __future__ import annotations

import math

import numpy as np

EARTH_RADIUS_MILES = 3958.8
SECONDS_PER_DAY = 86400
SECONDS_PER_YEAR = 365.25 * SECONDS_PER_DAY
PERPLEXITY_TOL = 1e-3
BISECTION_STEPS = 64


# --- geotemporal kernels and scorers -------------------------------------


def haversine_miles(lat1, lon1, lat2, lon2):
    """Great-circle miles on a sphere of radius 3958.8 miles; broadcasts."""
    p1, l1, p2, l2 = (np.radians(np.asarray(v, dtype=float)) for v in (lat1, lon1, lat2, lon2))
    h = np.sin((p2 - p1) / 2.0) ** 2 + np.cos(p1) * np.cos(p2) * np.sin((l2 - l1) / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_MILES * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def kernel_exp_abs(a, b):
    return np.exp(-np.abs(np.asarray(a, dtype=float) - b))


def kernel_inv_abs(a, b):
    return 1.0 / (np.abs(np.asarray(a, dtype=float) - b) + 1.0)


def kernel_floor_geo(miles):
    return np.maximum(0.0, (10.0 - np.floor(np.asarray(miles, dtype=float) / 500.0)) / 10.0)


def kernel_matrices(days: np.ndarray, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The default kernels: inverse day gap, and banded distance decay."""
    days = np.asarray(days, dtype=float)
    coords = np.asarray(coords, dtype=float)
    k_time = kernel_inv_abs(days[:, None], days[None, :])
    miles = haversine_miles(coords[:, None, 0], coords[:, None, 1], coords[None, :, 0], coords[None, :, 1])
    return k_time, kernel_floor_geo(miles)


def score_matrix(embeddings, days, coords, kind: str, alphas) -> np.ndarray:
    """Additive `e1.e2 + sum a_i d_i` or multiplicative `(e1.e2) prod (a_i + d_i)`.

    The upper triangle is mirrored, so the matrix is exactly symmetric.
    """
    e = np.asarray(embeddings, dtype=float)
    dots = e @ e.T
    k_time, k_geo = kernel_matrices(days, coords)
    a1, a2 = alphas
    if kind == "pi":
        scores = dots * ((a1 + k_time) * (a2 + k_geo))
    elif kind == "sigma":
        scores = dots + a1 * k_time + a2 * k_geo
    else:
        raise ValueError(f"unknown scorer {kind!r}")
    upper = np.triu(scores)
    return upper + np.triu(scores, 1).T


def pair_score(e1, e2, day1, day2, c1, c2, kind: str, alphas) -> float:
    """One scorer entry, computed pair by pair in Python floats."""
    dot = float(np.dot(e1, e2))
    d_time = 1.0 / (abs(day1 - day2) + 1.0)
    d_geo = float(kernel_floor_geo(haversine_miles(c1[0], c1[1], c2[0], c2[1])))
    a1, a2 = alphas
    if kind == "pi":
        return dot * (a1 + d_time) * (a2 + d_geo)
    return dot + a1 * d_time + a2 * d_geo


# --- temporal encoding ---------------------------------------------------


def encode_cyclical(t: float) -> list[float]:
    """[day_sin, day_cos, year_sin, year_cos, years_linear] of epoch seconds."""
    day = 2.0 * math.pi * (t % SECONDS_PER_DAY) / SECONDS_PER_DAY
    year = 2.0 * math.pi * (t % SECONDS_PER_YEAR) / SECONDS_PER_YEAR
    return [math.sin(day), math.cos(day), math.sin(year), math.cos(year), t / SECONDS_PER_YEAR]


# --- salience-weighted sentence embeddings -------------------------------


class ContextReference:
    """Mean and metric of all token occurrences, as `ContextModel` documents them.

    The fitted covariance is the population covariance plus a ridge of
    1e-3 * trace / dim; the metric adds the ridge once more.
    """

    def __init__(self, table: dict[str, np.ndarray], token_lists: list[list[str]]):
        stack = np.array([table[t] for tokens in token_lists for t in tokens])
        self.mean = stack.mean(axis=0)
        centered = stack - self.mean
        cov = centered.T @ centered / len(stack)
        dim = cov.shape[0]
        ridge = 1e-3 * float(np.trace(cov)) / dim
        self.metric = cov + 2.0 * ridge * np.eye(dim)
        self.table = table
        self._salience: dict[str, float] = {}

    def salience(self, token: str) -> float:
        """Mahalanobis distance of the token's vector from the context mean."""
        if token not in self._salience:
            r = self.table[token] - self.mean
            value = 0.0 if not r.any() else math.sqrt(max(0.0, float(r @ np.linalg.solve(self.metric, r))))
            self._salience[token] = value
        return self._salience[token]

    def embed(self, tokens: list[str]) -> np.ndarray:
        """Salience-weighted mean of the token vectors, scaled to unit norm."""
        vectors = np.array([self.table[t] for t in tokens])
        weights = np.array([self.salience(t) for t in tokens])
        mean = vectors.mean(axis=0) if weights.sum() == 0.0 else weights @ vectors / weights.sum()
        return mean / np.linalg.norm(mean)


# --- PCA -----------------------------------------------------------------


def pca_variances(matrix: np.ndarray, k: int) -> np.ndarray:
    """Top k eigenvalues of the population covariance, largest first."""
    x = np.asarray(matrix, dtype=float)
    centered = x - x.mean(axis=0)
    eigenvalues = np.linalg.eigvalsh(centered.T @ centered / x.shape[0])
    return eigenvalues[::-1][:k]


# --- ranking -------------------------------------------------------------


def rank_entries(scores: np.ndarray) -> np.ndarray:
    """entries[i, j] = position of j in row i's stable descending sort.

    The diagonal is left out of every row and set to 0; equal scores keep
    ascending index order.
    """
    s = np.asarray(scores, dtype=float)
    m = s.shape[0]
    entries = np.zeros((m, m), dtype=int)
    for i in range(m):
        others = np.array([j for j in range(m) if j != i])
        order = others[np.argsort(-s[i, others], kind="stable")]
        entries[i, order] = np.arange(m - 1)
    return entries


def rank_loss(a: np.ndarray, b: np.ndarray) -> float:
    """Root of summed squared rank differences over off-diagonal cells."""
    diff = (np.asarray(a) - np.asarray(b)).astype(float)
    np.fill_diagonal(diff, 0.0)
    return math.sqrt(float(np.sum(diff * diff)))


def top_pair_quality(rows: dict[str, np.ndarray], labels: list[tuple[str, str, float]], top_n: int) -> float:
    """Mean label of the top_n labelled pairs by cosine; ties keep label order."""
    scored = []
    for index, (a, b, _) in enumerate(labels):
        u, v = rows[a], rows[b]
        cos = float(np.clip(u @ v / (float(np.linalg.norm(u)) * float(np.linalg.norm(v))), -1.0, 1.0))
        scored.append((-cos, index))
    scored.sort()
    return sum(labels[index][2] for _, index in scored[:top_n]) / top_n


# --- t-SNE ---------------------------------------------------------------


def sq_distances(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances summed column by column, never n*n*d at once."""
    x = np.asarray(x, dtype=float)
    d2 = np.zeros((x.shape[0], x.shape[0]))
    for column in x.T:
        d2 += (column[:, None] - column[None, :]) ** 2
    return d2


def _conditional_rows(d2: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    logits = -beta[:, None] * d2
    np.fill_diagonal(logits, -np.inf)
    logits -= logits.max(axis=1, keepdims=True)
    w = np.exp(logits)
    p = w / w.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0)), 0.0)
    return 2.0 ** (-plogp.sum(axis=1)), p


def calibrated_conditionals(d2: np.ndarray, perplexity: float) -> np.ndarray:
    """Row-stochastic Gaussian conditionals at the target perplexity.

    Every row bisects its precision beta together: start at 1, double or
    halve until the target is bracketed, then halve the bracket, stopping
    each row once 2^H is within 1e-3 of the target.
    """
    n = d2.shape[0]
    beta = np.ones(n)
    lo = np.full(n, np.nan)
    hi = np.full(n, np.nan)
    done = np.zeros(n, dtype=bool)
    p = np.zeros_like(d2)
    for _ in range(BISECTION_STEPS):
        perp, rows = _conditional_rows(d2, beta)
        newly = ~done & (np.abs(perp - perplexity) <= PERPLEXITY_TOL)
        p[newly] = rows[newly]
        done |= newly
        if done.all():
            return p
        up = ~done & (perp > perplexity)
        down = ~done & ~(perp > perplexity)
        lo = np.where(up, beta, lo)
        hi = np.where(down, beta, hi)
        beta = np.where(
            up, np.where(np.isnan(hi), beta * 2.0, (lo + hi) / 2.0),
            np.where(down, np.where(np.isnan(lo), beta / 2.0, (lo + hi) / 2.0), beta),
        )
    raise ValueError("perplexity calibration did not converge")


def joint_affinities(points: np.ndarray, perplexity: float) -> np.ndarray:
    """Symmetric P = (P_cond + P_cond.T) / 2n with the perplexity capped at (n-1)/3."""
    n = points.shape[0]
    effective = min(perplexity, max((n - 1) / 3.0, 1.5))
    pc = calibrated_conditionals(sq_distances(points), effective)
    P = (pc + pc.T) / (2.0 * n)
    np.fill_diagonal(P, 0.0)
    return P


def layout_kl(P: np.ndarray, coords: np.ndarray, q_floor: float = 0.0) -> float:
    """KL(P || Q) with Q the matrix-normalized Gaussian similarities of the layout.

    With q_floor > 0, off-diagonal Q is raised to at least q_floor first, the
    floor the program's t-SNE cost documents.
    """
    w = np.exp(-sq_distances(coords))
    np.fill_diagonal(w, 0.0)
    Q = np.maximum(w / w.sum(), q_floor)
    np.fill_diagonal(Q, 0.0)
    mask = P > 0
    return float(np.sum(P[mask] * np.log(P[mask] / Q[mask])))
