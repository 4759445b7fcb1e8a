"""Output checks run after every stage.

Each check reads the stage's files with its own parser and compares them
with a reference computation (see reference.py) or tests a property the
method guarantees. None compares against a stored copy of earlier output.
A failed check raises CheckError naming the file and the first mismatch.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

import reference as ref

# Tolerances, also listed in README.md.
FEATURE_TOL = 1e-12  # relative to max(1, |value|)
EMBED_TOL = 1e-9  # absolute, per component of a unit vector
UNIT_NORM_TOL = 1e-12
VARIANCE_TOL = 1e-9  # relative
SCORE_TOL = 1e-12  # relative to |e1||e2| times the kernel factor
STANDARDIZED_TOL = 1e-9
KL_TOL = 1e-6  # relative
# The program's t-SNE cost floors each planar similarity at 1e-12 (tsne_cost_and_grad);
# the sidecar's final_kl is that floored cost, so the reference applies the same floor.
Q_FLOOR = 1e-12
QUALITY_TOL = 1e-12


class CheckError(Exception):
    """An output of the program differs from what the method requires."""


# --- parsers -------------------------------------------------------------


def read_meta(path: Path) -> dict[str, str]:
    entries = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(" = ")
        entries[key] = value
    return entries


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_space(path: Path) -> tuple[list[str], np.ndarray]:
    """An `id,e1,...` file as (ids, float matrix)."""
    header, rows = read_table(path)
    matrix = np.array([[float(v) for v in row[1:]] for row in rows]).reshape(len(rows), len(header) - 1)
    return [row[0] for row in rows], matrix


def read_matrix(path: Path) -> np.ndarray:
    """A headerless square CSV matrix, parsed line by line."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rows.append(np.array(line.rstrip("\n").split(","), dtype=float))
    return np.array(rows)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _meta_floats(meta: dict[str, str], key: str) -> np.ndarray:
    return np.array([float(v) for v in meta[key].split(",")])


# --- ingest / encode -----------------------------------------------------


def check_records(out: Path, truth) -> None:
    """records.csv keeps ids, timestamps and texts, and resolves each location."""
    header, rows = read_table(out / "records.csv")
    _require(header[:6] == ["id", "text", "timestamp", "location", "lat", "lon"], f"records.csv header {header}")
    _require([r[0] for r in rows] == truth.ids, "records.csv ids differ from the corpus")
    for row, ts, text, city in zip(rows, truth.timestamps, truth.texts, truth.cities):
        lat, lon = truth.city_coords[city]
        _require(row[1] == text, f"records.csv {row[0]}: text changed")
        _require(int(row[2]) == ts, f"records.csv {row[0]}: timestamp {row[2]} != {ts}")
        _require((float(row[4]), float(row[5])) == (lat, lon), f"records.csv {row[0]}: coords {row[4:6]} != {(lat, lon)}")


def check_features(out: Path, truth) -> None:
    """features.csv equals the reference cyclical encoding plus gazetteer coordinates."""
    header, rows = read_table(out / "features.csv")
    _require(header == ["day_sin", "day_cos", "year_sin", "year_cos", "years_linear", "lat", "lon"],
             f"features.csv header {header}")
    _require(len(rows) == len(truth.ids), f"features.csv has {len(rows)} rows for {len(truth.ids)} records")
    for n, (row, ts, city) in enumerate(zip(rows, truth.timestamps, truth.cities)):
        expected = ref.encode_cyclical(ts) + list(truth.city_coords[city])
        for got, want in zip((float(v) for v in row), expected):
            _require(abs(got - want) <= FEATURE_TOL * max(1.0, abs(want)),
                     f"features.csv row {n + 1}: {got!r} != reference {want!r}")


# --- embed / reduce / augment --------------------------------------------


def check_embeddings(out: Path, truth, context: ref.ContextReference, sample: list[int]) -> None:
    """Unit-norm rows; sampled rows equal the reference salience-weighted embedding."""
    ids, matrix = read_space(out / "embeddings.csv")
    _require(ids == truth.ids, "embeddings.csv ids differ from the corpus")
    norms = np.linalg.norm(matrix, axis=1)
    worst = int(np.argmax(np.abs(norms - 1.0)))
    _require(abs(norms[worst] - 1.0) <= UNIT_NORM_TOL, f"embeddings.csv row {worst + 1} has norm {norms[worst]!r}")
    for i in sample:
        diff = float(np.max(np.abs(matrix[i] - context.embed(truth.tokens[i]))))
        _require(diff <= EMBED_TOL, f"embeddings.csv row {i + 1} ({ids[i]}) is {diff:.3g} from the reference")


def check_reduced(out: Path, k: int) -> None:
    """reduced.csv has k columns; the sidecar variances are the covariance's top eigenvalues."""
    emb_ids, embeddings = read_space(out / "embeddings.csv")
    ids, reduced = read_space(out / "reduced.csv")
    _require(ids == emb_ids and reduced.shape == (len(ids), k), f"reduced.csv shape {reduced.shape}")
    variances = _meta_floats(read_meta(out / "reduced.csv.meta"), "param_explained_variance")
    expected = ref.pca_variances(embeddings, k)
    _require(variances.shape == expected.shape, f"reduced.csv.meta lists {variances.size} variances for k={k}")
    rel = np.abs(variances - expected) / expected
    _require(float(rel.max()) <= VARIANCE_TOL, f"reduced.csv.meta variances {variances} != eigenvalues {expected}")
    # each projected column carries its component's variance
    column_var = reduced.var(axis=0)
    _require(np.allclose(column_var, expected, rtol=1e-8, atol=1e-15), "reduced.csv columns do not carry the variances")


def check_augmented(out: Path) -> None:
    """Text columns are reduced.csv unchanged; feature columns are standardized."""
    ids, augmented = read_space(out / "augmented.csv")
    _, reduced = read_space(out / "reduced.csv")
    header, feature_rows = read_table(out / "features.csv")
    features = np.array([[float(v) for v in row] for row in feature_rows])
    k = reduced.shape[1]
    _require(augmented.shape == (len(ids), k + features.shape[1]), f"augmented.csv shape {augmented.shape}")
    _require(np.array_equal(augmented[:, :k], reduced), "augmented.csv text columns differ from reduced.csv")
    block = augmented[:, k:]
    stds = features.std(axis=0)
    expected = np.where(stds > 0, (features - features.mean(axis=0)) / np.where(stds > 0, stds, 1.0), 0.0)
    diff = float(np.max(np.abs(block - expected)))
    _require(diff <= STANDARDIZED_TOL, f"augmented.csv feature block is {diff:.3g} from the standardized features")


# --- score ---------------------------------------------------------------


def check_scores(out: Path, truth, kind: str, alphas, sample: list[tuple[int, int]]) -> None:
    """scores.csv is exactly symmetric and sampled entries equal the reference scorer."""
    scores = read_matrix(out / "scores.csv")
    n = len(truth.ids)
    _require(scores.shape == (n, n), f"scores.csv shape {scores.shape}, expected {(n, n)}")
    asym = np.argwhere(scores != scores.T)
    _require(asym.size == 0, f"scores.csv is not symmetric at {asym[:1].tolist()}")
    _, embeddings = read_space(out / "embeddings.csv")
    days, coords = truth.days, truth.coords
    for i, j in sample:
        want = ref.pair_score(embeddings[i], embeddings[j], days[i], days[j], coords[i], coords[j], kind, alphas)
        scale = _pair_scale(embeddings[i], embeddings[j], kind, alphas)
        _require(abs(scores[i, j] - want) <= SCORE_TOL * scale,
                 f"scores.csv[{i}, {j}] = {float(scores[i, j])!r}, reference {float(want)!r}")


def _pair_scale(e1, e2, kind, alphas) -> float:
    magnitude = float(np.linalg.norm(e1) * np.linalg.norm(e2))
    if kind == "pi":
        return magnitude * (abs(alphas[0]) + 1.0) * (abs(alphas[1]) + 1.0)
    return magnitude + abs(alphas[0]) + abs(alphas[1])


# --- eval / sweep --------------------------------------------------------


def _eval_values(out: Path) -> dict[str, str]:
    header, rows = read_table(out / "eval.csv")
    _require(header == ["metric", "value"], f"eval.csv header {header}")
    return {row[0]: row[1] for row in rows}


def reference_quality(out: Path, labels, top_n: int) -> float:
    ids, matrix = read_space(out / "augmented.csv")
    return ref.top_pair_quality(dict(zip(ids, matrix)), labels, top_n)


def check_quality(out: Path, labels, top_n: int) -> None:
    """The eval quality equals the reference top-n mean label over augmented.csv."""
    values = _eval_values(out)
    got = float(values["top_pair_quality"])
    want = reference_quality(out, labels, top_n)
    _require(abs(got - want) <= QUALITY_TOL, f"eval.csv top_pair_quality {got!r} != reference {want!r}")
    _require(int(values["n_labels"]) == len(labels), f"eval.csv n_labels {values['n_labels']}")


def check_sweep(out: Path, k_list: list[int], top_n: int, labels, reduce_k: int) -> None:
    """One finite cell per (variant, k); the all-features cell at the reduce k repeats eval."""
    header, rows = read_table(out / "sweep.csv")
    _require(header == ["variant", "k", "mean_label", "n_pairs"], f"sweep.csv header {header}")
    cells = {(row[0], int(row[1])): float(row[2]) for row in rows}
    expected = {(v, k) for v in ("all_features", "condensed_time", "pca_only") for k in k_list}
    _require(len(rows) == len(expected) and set(cells) == expected, f"sweep.csv cells {sorted(cells)}")
    for row in rows:
        value = float(row[2])
        _require(math.isfinite(value) and 0.0 <= value <= 1.0, f"sweep.csv {row[:2]}: mean_label {value!r}")
        _require(int(row[3]) == top_n, f"sweep.csv {row[:2]}: n_pairs {row[3]}")
    if reduce_k in k_list:
        want = reference_quality(out, labels, top_n)
        got = cells[("all_features", reduce_k)]
        _require(abs(got - want) <= QUALITY_TOL, f"sweep.csv all_features k={reduce_k}: {got!r} != {want!r}")


def check_delta(out: Path, k_list: list[int]) -> None:
    """One finite, nonnegative row per k, in k order."""
    header, rows = read_table(out / "delta.csv")
    _require(header == ["k", "mean_abs_delta", "stderr"], f"delta.csv header {header}")
    _require([int(row[0]) for row in rows] == list(k_list), f"delta.csv ks {[row[0] for row in rows]}")
    for row in rows:
        values = [float(v) for v in row[1:]]
        _require(all(math.isfinite(v) and v >= 0.0 for v in values), f"delta.csv row {row}")


# --- optimize / compare --------------------------------------------------


def read_rank_labels(path: Path) -> np.ndarray:
    """Reference ranking of an `i,j,score` file."""
    _, rows = read_table(path)
    m = max(max(int(r[0]), int(r[1])) for r in rows) + 1
    scores = np.zeros((m, m))
    for i, j, s in rows:
        scores[int(i), int(j)] = scores[int(j), int(i)] = float(s)
    return ref.rank_entries(scores)


def check_optimize(out: Path, truth, kind: str, label_ranks: np.ndarray, probes: int) -> None:
    """Full probe trace; its minimum is best_loss, the reference loss at the best weights.

    The multiplicative fit must also reach loss 0: the labels were planted
    from that scorer at a point of the first-round grid.
    """
    header, rows = read_table(out / "optimize_trace.csv")
    _require(header == ["round", "alpha1", "alpha2", "loss"], f"optimize_trace.csv header {header}")
    _require(len(rows) == probes, f"optimize_trace.csv has {len(rows)} probes, expected {probes}")
    meta = read_meta(out / "optimize_trace.csv.meta")
    _require(meta["param_kind"] == kind, f"optimize sidecar kind {meta['param_kind']}")
    best_loss = float(meta["param_best_loss"])
    trace_min = min(float(row[3]) for row in rows)
    _require(trace_min == best_loss, f"trace minimum {trace_min!r} != sidecar best_loss {best_loss!r}")
    alphas = (float(meta["param_best_alpha1"]), float(meta["param_best_alpha2"]))
    _, embeddings = read_space(out / "embeddings.csv")
    predicted = ref.rank_entries(ref.score_matrix(embeddings, truth.days, truth.coords, kind, alphas))
    want = ref.rank_loss(predicted, label_ranks)
    _require(want == best_loss, f"best_loss {best_loss!r} != reference loss {want!r} at {alphas}")
    if kind == "pi":
        _require(best_loss == 0.0, f"multiplicative fit stopped at loss {best_loss!r}, planted labels allow 0")


def check_compare(out: Path, label_ranks: np.ndarray) -> None:
    """eval rank_loss and rank_heatmap.csv equal the reference ranking of scores.csv."""
    predicted = ref.rank_entries(read_matrix(out / "scores.csv"))
    got = float(_eval_values(out)["rank_loss"])
    want = ref.rank_loss(predicted, label_ranks)
    _require(got == want, f"eval.csv rank_loss {got!r} != reference {want!r}")
    _, rows = read_table(out / "rank_heatmap.csv")
    heat = np.zeros_like(predicted)
    for i, j, r in rows:
        heat[int(i), int(j)] = int(r)
    _require(len(rows) == predicted.size and np.array_equal(heat, predicted), "rank_heatmap.csv differs from the reference ranking")


# --- tsne ----------------------------------------------------------------


def check_tsne(out: Path, seed: int, perplexity: float) -> None:
    """Ids kept, coordinates finite and centred; the sidecar KL is the layout's KL.

    Both KLs use the documented 1e-12 floor on Q. The final KL must also be
    below the KL of the seeded starting layout.
    """
    ids, space = read_space(out / "augmented.csv")
    coord_ids, coords = read_space(out / "tsne.csv")
    _require(coord_ids == ids, "tsne.csv ids differ from augmented.csv")
    _require(coords.shape == (len(ids), 2) and bool(np.all(np.isfinite(coords))), "tsne.csv coordinates not finite 2-D")
    centre = np.abs(coords.mean(axis=0))
    _require(float(centre.max()) <= 1e-9 * (1.0 + float(np.abs(coords).max())), f"tsne.csv not centred: mean {centre}")
    final_kl = float(read_meta(out / "tsne.csv.meta")["param_final_kl"])
    P = ref.joint_affinities(space, perplexity)
    want = ref.layout_kl(P, coords, Q_FLOOR)
    _require(abs(final_kl - want) <= KL_TOL * abs(want), f"sidecar final_kl {final_kl!r} != reference KL {want!r}")
    start = np.random.default_rng(seed).normal(0.0, 1e-2, size=(len(ids), 2))
    start_kl = ref.layout_kl(P, start, Q_FLOOR)
    _require(final_kl < start_kl, f"final KL {final_kl!r} not below the starting layout's {start_kl!r}")
    svg = (out / "tsne.svg").read_text(encoding="utf-8")
    _require(svg.count("<circle") == len(ids), "tsne.svg does not draw one point per id")
