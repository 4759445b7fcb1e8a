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
from semfuse.embed import EmbeddingSpace
from semfuse.evalkit import LabeledPair, component_sweep, top_pair_quality
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

labels = []
for i in range(len(records)):
    for j in range(i + 1, len(records)):
        gap = abs(days[i] - days[j])
        miles = haversine_miles(points[i], points[j])
        value = min(1.0, 0.6 / (gap + 1.0) + 0.4 * math.exp(-miles / 500.0))
        labels.append(LabeledPair(id_a=records[i].id, id_b=records[j].id,
                                  rater_scores=(value * 4.0,), label=value))

# text embeddings with no geotemporal signal at all
emb = rng.normal(size=(len(records), 24))
emb /= np.linalg.norm(emb, axis=1, keepdims=True)
space = EmbeddingSpace(ids=tuple(r.id for r in records), matrix=emb)

quality = top_pair_quality(space, labels, top_n=10)
print(f"text-only top-10 pair quality: {quality:.4f}")
print(f"mean label over all pairs:     {np.mean([p.label for p in labels]):.4f}")

features_all = build_feature_matrix(records, "all_features")
features_condensed = build_feature_matrix(records, "condensed_time")
cells = component_sweep(space, features_all, features_condensed, labels,
                        k_list=[4, 8], top_n=10)

print("\nvariant          k   top-pair quality")
for cell in cells:
    print(f"{cell.variant:15s} {cell.k:3d}   {cell.mean_label:.4f}")
print("\nappending time/place features finds the humanly-similar pairs; "
      "the text-only space cannot")
