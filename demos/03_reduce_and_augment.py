"""Dimensionality reduction and the augmented space.

The text embedding is reduced with PCA, then the standardized
geotemporal features are appended as extra columns. The experiment at
the end measures how much the appended features shift pairwise cosines
as more text components are kept: with few components the features
dominate, with many they become a gentle nudge.
"""

import numpy as np

from semfuse.spectra import augment, cosine, delta_cosine_experiment, fit_pca, transform

rng = np.random.default_rng(3)

n, d = 120, 30
matrix = rng.normal(size=(n, d))
# give the data a dominant direction so the variance spectrum has a story
matrix[:, 0] *= 6.0
matrix[:, 1] *= 3.0

model = fit_pca(matrix, 8)
share = model.explained_variance / model.explained_variance.sum()
print("variance share of the first 8 components:")
print("  " + " ".join(f"{s:.2f}" for s in share))

reduced = transform(model, matrix)
print(f"\nreduced space: {reduced.shape[0]}x{reduced.shape[1]}")

features = rng.normal(size=(n, 7))
augmented, _, _, _ = augment(reduced, features)
print(f"augmented space: {augmented.shape[0]}x{augmented.shape[1]} "
      f"(k={reduced.shape[1]} text + f={features.shape[1]} features)")

i, j = 0, 1
print(f"\ncosine before augmentation: {cosine(reduced[i], reduced[j]):+.4f}")
print(f"cosine after augmentation:  {cosine(augmented[i], augmented[j]):+.4f}")

rows = delta_cosine_experiment(matrix, features, [2, 4, 8, 16], trials=10,
                               pair_sample_size=200, seed=0)
print("\nmean |cosine shift| from appending features:")
for k, mean_abs_delta, stderr in rows:
    print(f"  k={k:<3d} {mean_abs_delta:.4f} (stderr {stderr:.4f})")
print("the shift shrinks as the text block keeps more components")
