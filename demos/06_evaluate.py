"""Evaluating a model against human-labeled pairs.

Labels arrive as per-pair rater scores on a fixed scale and are averaged
into [0, 1]. top_pair_quality asks: of the pairs the model ranks most
similar, how similar did humans actually find them? The component sweep
repeats that question across feature variants and component counts.
Here the labels depend only on time and place, so the variant that
appends those features should win by a wide margin.
"""

import math

import numpy as np

from semfuse.corpus import Record
from semfuse.evalkit import component_sweep, top_pair_quality
from semfuse.geotime import GeoPoint, build_feature_matrix, haversine_miles

rng = np.random.default_rng(31)

# four city clusters, well separated in time and space
cities = [(40.71, -74.01), (34.05, -118.24), (41.88, -87.63), (29.76, -95.37)]
records, days, points = [], [], []
for c, (lat, lon) in enumerate(cities):
    for s in range(6):
        day = 30.0 + 60.0 * c + float(rng.uniform(-1, 1))
        pt = GeoPoint(lat + float(rng.uniform(-0.1, 0.1)),
                      lon + float(rng.uniform(-0.1, 0.1)))
        records.append(Record(id=f"c{c}s{s}", text="stub", timestamp=int(day * 86400), coords=pt))
        days.append(day)
        points.append(pt)

# each labeled pair is two row positions, as evalkit.load_labels reads them from a rater file
pairs, labels = [], []
for i in range(len(records)):
    for j in range(i + 1, len(records)):
        gap = abs(days[i] - days[j])
        miles = haversine_miles(points[i], points[j])
        pairs.append((i, j))
        labels.append(min(1.0, 0.6 / (gap + 1.0) + 0.4 * math.exp(-miles / 500.0)))
pairs, labels = np.array(pairs), np.array(labels)

# text embeddings with no geotemporal signal at all
emb = rng.normal(size=(len(records), 24))
emb /= np.linalg.norm(emb, axis=1, keepdims=True)

quality = top_pair_quality(emb, pairs, labels, top_n=10)
print(f"text-only top-10 pair quality: {quality:.4f}")
print(f"mean label over all pairs:     {np.mean(labels):.4f}")

features = {variant: build_feature_matrix(records, variant) for variant in ("all_features", "condensed_time")}
cells = component_sweep(emb, features, pairs, labels, k_list=[4, 8], top_n=10)

print("\nvariant          k   top-pair quality")
for cell in cells:
    print(f"{cell.variant:15s} {cell.k:3d}   {cell.mean_label:.4f}")
print("\nappending time/place features finds the humanly-similar pairs; "
      "the text-only space cannot")
