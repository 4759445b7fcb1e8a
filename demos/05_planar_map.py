"""Project a space to the plane and draw it.

The layout minimizes the divergence between neighbor distributions in
the original space and the plane. Per-point bandwidths are calibrated to
a target perplexity by bisection; descent uses momentum, early
exaggeration, and adaptive per-coordinate gains. Three well-separated
clusters in 10-D should come out as three islands in 2-D.
"""

from pathlib import Path

import numpy as np

from semfuse.tsne import TsneConfig, run_tsne, write_coords_csv, write_scatter_svg

rng = np.random.default_rng(6)
centers = np.array([
    [0.0] * 10,
    [9.0] * 5 + [0.0] * 5,
    [0.0] * 5 + [9.0] * 5,
])
points, ids, colors = [], [], {}
palette = ["#d62728", "#1f77b4", "#2ca02c"]
for c, center in enumerate(centers):
    for s in range(15):
        points.append(center + rng.normal(scale=0.5, size=10))
        rid = f"c{c}_{s}"
        ids.append(rid)
        colors[rid] = palette[c]
X = np.array(points)

cfg = TsneConfig(perplexity=12.0, iterations=500, seed=0)
result = run_tsne(X, cfg)

print(f"effective perplexity: {result.effective_perplexity}")
print(f"KL at start: {result.kl_trace[0]:.4f}")
print(f"KL at end:   {result.kl_trace[-1]:.4f}")

# how tight are the islands? compare within-cluster to between-cluster spread
coords = result.coords
within, between = [], []
for a in range(len(ids)):
    for b in range(a + 1, len(ids)):
        gap = float(np.linalg.norm(coords[a] - coords[b]))
        (within if ids[a][:2] == ids[b][:2] else between).append(gap)
print(f"\nmean within-cluster distance:  {np.mean(within):.2f}")
print(f"mean between-cluster distance: {np.mean(between):.2f}")

# the map is for opening, so it goes beside the caller, not into a temp directory
out = Path("semfuse_map")
out.mkdir(exist_ok=True)
write_coords_csv(ids, coords, out / "map.csv")
write_scatter_svg(ids, coords, out / "map.svg", colors)
print(f"\nwrote {out / 'map.csv'}")
print(f"wrote {out / 'map.svg'} (open in a browser)")
