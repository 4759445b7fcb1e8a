"""Similarity scoring, ranking matrices, and weight fitting.

Two scorer forms combine the text dot product with distance kernels:
sigma adds weighted kernel values, pi multiplies shifted ones. A batch's
features are two columns, days and coordinates; `inv_abs` and `exp_abs`
read the days, `floor_geo` the coordinates. Batches
are compared by their ranking matrices; the optimizer fits the kernel
weights by shrinking-grid search so the model's rankings match labeled
ones.
"""

import numpy as np

from semfuse.geotime import GeoPoint
from semfuse.rankopt import (
    DEFAULT_DIST_KINDS,
    GridConfig,
    SimilarityParams,
    optimize_alphas,
    pairwise_scores,
    rank_loss,
    rank_matrix,
)

dc = GeoPoint(38.9072, -77.0369)
nyc = GeoPoint(40.7128, -74.0060)

e1, e2 = (1.0, 0.0), (0.8, 0.6)
# the pair's (days, coordinates): two days apart, in dc and nyc
pair_feats = (np.array([0.0, 2.0]), np.array([[dc.lat, dc.lon], [nyc.lat, nyc.lon]]))

sig = SimilarityParams(kind="sigma", alphas=(0.5, 0.5), dist_kinds=DEFAULT_DIST_KINDS)
pi = SimilarityParams(kind="pi", alphas=(0.02, 9.55), dist_kinds=DEFAULT_DIST_KINDS)
# one pair's score is the off-diagonal cell of a two-record batch
pair = np.array([e1, e2])
print(f"additive score:       {pairwise_scores(pair, pair_feats, sig)[0, 1]:.4f}")
print(f"multiplicative score: {pairwise_scores(pair, pair_feats, pi)[0, 1]:.4f}")

# build a batch whose labels come from known weights, then recover them
rng = np.random.default_rng(19)
m = 12
emb = rng.normal(size=(m, 6))
emb /= np.linalg.norm(emb, axis=1, keepdims=True)
draws = [(rng.uniform(0, 30), rng.uniform(-50, 50), rng.uniform(-120, 120)) for _ in range(m)]
feats = (np.array([day for day, _, _ in draws]), np.array([(lat, lon) for _, lat, lon in draws]))

true_params = SimilarityParams(kind="pi", alphas=(0.4, 6.0), dist_kinds=DEFAULT_DIST_KINDS)
labels = rank_matrix(pairwise_scores(emb, feats, true_params))
print(f"\nlabel ranking matrix row 0: {labels[0].tolist()}")

cfg = GridConfig(bounds=((0.0, 1.0), (0.0, 12.0)), rounds=4)
found, loss, trace = optimize_alphas(emb, feats, labels, "pi", DEFAULT_DIST_KINDS, cfg)
print(f"\ntrue alphas:      (0.4, 6.0)")
print(f"recovered alphas: {found.alphas}")
print(f"final rank loss:  {loss}")
print(f"probes evaluated: {len(trace)}")

# a deliberately wrong setting for contrast
wrong = SimilarityParams(kind="pi", alphas=(1.0, 0.0), dist_kinds=DEFAULT_DIST_KINDS)
wrong_ranks = rank_matrix(pairwise_scores(emb, feats, wrong))
print(f"loss with alphas (1.0, 0.0): {rank_loss(wrong_ranks, labels):.3f}")
