"""End-to-end acceptance checks.

Each test covers one release criterion, self-contained with its own
oracles, and reports a single visible PASS line with its runtime. A
failure surfaces as the usual pytest FAILED line for that criterion.
"""

import math
import time

import numpy as np
import pytest

from semfuse.cli import main
from semfuse.evalkit import component_sweep
from semfuse.geotime import (
    EARTH_RADIUS_MILES,
    GeoPoint,
    encode_time_cyclical,
    haversine_miles,
    standardize,
    build_feature_matrix,
)
from semfuse.rankopt import (
    DEFAULT_DIST_KINDS,
    GridConfig,
    SimilarityParams,
    optimize_alphas,
    pairwise_scores,
    rank_loss,
    rank_matrix,
)
from semfuse.spectra import delta_cosine_experiment, fit_pca
from semfuse.corpus import Record
from semfuse.tsne import (
    TsneConfig,
    calibrate_sigmas,
    conditional_p,
    pairwise_sq_distances,
    run_tsne,
    tsne_cost_and_grad,
)


@pytest.fixture
def announce(capsys):
    def _say(line: str) -> None:
        with capsys.disabled():
            print(line)

    return _say


def eigh_oracle(matrix: np.ndarray, k: int):
    """Brute-force PCA: eigendecompose the population covariance directly."""
    x = np.asarray(matrix, dtype=float)
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / x.shape[0]
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    comps = vecs[:, :k].T.copy()
    for row in comps:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return comps, vals[:k]


def test_1_pca_matches_eigendecomposition_oracle(announce):
    start = time.perf_counter()
    for i in range(20):
        rng = np.random.default_rng(1000 + i)
        X = rng.normal(size=(20, 10))
        k = 1 + i % 10
        model = fit_pca(X, k)
        comps, vals = eigh_oracle(X, k)
        assert np.allclose(model.components, comps, atol=1e-6)
        assert np.allclose(model.explained_variance, vals, atol=1e-6)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    announce(f"ACCEPTANCE 1 PASS pca oracle equivalence, 20 matrices ({elapsed:.2f}s)")


def equator_point_at(miles: float) -> GeoPoint:
    # along the equator, great-circle distance is exactly R * delta lon
    return GeoPoint(0.0, math.degrees(miles / EARTH_RADIUS_MILES))


def test_2_multiplicative_scorer_hand_fidelity(announce):
    params = SimilarityParams(kind="pi", alphas=(0.02, 9.55), dist_kinds=DEFAULT_DIST_KINDS)
    angles = [0.1, 0.35, 0.6, 0.85, 1.1, 1.35, 0.2, 0.45, 0.7, 0.95]
    day_gaps = [0.0, 1.0, 2.0, 3.0, 5.0, 10.0, 0.5, 4.0, 7.0, 30.0]
    mile_gaps = [0.0, 300.0, 750.0, 1200.0, 2600.0, 5200.0, 9000.0, 400.0, 4800.0, 100.0]
    origin = equator_point_at(0.0)
    worst = 0.0
    for theta, days, miles in zip(angles, day_gaps, mile_gaps):
        e1 = (1.0, 0.0)
        e2 = (math.cos(theta), math.sin(theta))
        point = equator_point_at(miles)
        features = (np.array([0.0, days]), np.array([[origin.lat, origin.lon], [point.lat, point.lon]]))
        got = pairwise_scores(np.array([e1, e2]), features, params)[0, 1]
        # independent arithmetic: spherical law of cosines for the distance,
        # explicit kernel formulas for everything else
        lam = math.radians(point.lon)
        miles_ind = EARTH_RADIUS_MILES * math.acos(
            min(1.0, math.sin(0.0) * math.sin(0.0) + math.cos(0.0) * math.cos(0.0) * math.cos(lam))
        )
        d1 = 1.0 / (abs(days) + 1.0)
        d2 = max(0.0, (10.0 - math.floor(miles_ind / 500.0)) / 10.0)
        expect = math.cos(theta) * (0.02 + d1) * (9.55 + d2)
        worst = max(worst, abs(got - expect))
        assert abs(got - expect) <= 1e-9
    announce(f"ACCEPTANCE 2 PASS multiplicative scorer, 10 pairs (worst err {worst:.2e})")


def test_3_optimizer_recovers_known_weights(announce):
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    m = 15
    emb = rng.normal(size=(m, 8))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    records = [
        (
            float(rng.uniform(0.0, 40.0)),
            GeoPoint(float(rng.uniform(-60.0, 60.0)), float(rng.uniform(-150.0, 150.0))),
        )
        for _ in range(m)
    ]
    feats = (np.array([day for day, _ in records]), np.array([(p.lat, p.lon) for _, p in records]))
    target = SimilarityParams(kind="pi", alphas=(0.5, 7.0), dist_kinds=DEFAULT_DIST_KINDS)
    labels = rank_matrix(pairwise_scores(emb, feats, target))
    cfg = GridConfig(bounds=((0.0, 1.0), (0.0, 10.0)))
    found, loss, trace = optimize_alphas(emb, feats, labels, "pi", DEFAULT_DIST_KINDS, cfg)
    elapsed = time.perf_counter() - start
    assert loss == 0.0
    recovered = rank_matrix(pairwise_scores(emb, feats, found))
    assert np.array_equal(recovered.entries, labels.entries)
    assert elapsed < 60.0
    announce(
        f"ACCEPTANCE 3 PASS optimizer recovery, alphas {found.alphas}, "
        f"loss 0.0 in {len(trace)} probes ({elapsed:.2f}s)"
    )


def test_4_cosine_shift_decreases_with_components(announce):
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    matrix = rng.normal(size=(200, 50))
    features = rng.normal(size=(200, 7))
    results = delta_cosine_experiment(
        matrix, features, [2, 4, 8, 16, 32], trials=10, pair_sample_size=500, seed=3
    )
    elapsed = time.perf_counter() - start
    deltas = [r.mean_abs_delta for r in results]
    assert all(a > b for a, b in zip(deltas, deltas[1:])), deltas
    assert elapsed < 30.0
    pretty = ", ".join(f"{d:.4f}" for d in deltas)
    announce(f"ACCEPTANCE 4 PASS cosine shift strictly decreasing: {pretty} ({elapsed:.2f}s)")


CITY_CENTERS = [
    (40.7128, -74.0060),
    (34.0522, -118.2437),
    (41.8781, -87.6298),
    (29.7604, -95.3698),
    (47.6062, -122.3321),
    (25.7617, -80.1918),
    (39.7392, -104.9903),
    (42.3601, -71.0589),
]


def test_5_geotemporal_features_lift_proximity_labels(announce):
    start = time.perf_counter()
    rng = np.random.default_rng(23)
    records, days, points = [], [], []
    for c, (lat, lon) in enumerate(CITY_CENTERS):
        for s in range(5):
            day = 40.0 + 90.0 * c + float(rng.uniform(-1.0, 1.0))
            point = GeoPoint(
                lat + float(rng.uniform(-0.05, 0.05)),
                lon + float(rng.uniform(-0.05, 0.05)),
            )
            records.append(
                Record(
                    id=f"c{c}s{s}",
                    text="synthetic",
                    timestamp=int(day * 86400),
                    coords=point,
                )
            )
            days.append(day)
            points.append(point)
    n = len(records)
    # labels reward time and place proximity; text embeddings carry no signal
    pairs, labels = [], []
    for i in range(n):
        for j in range(i + 1, n):
            gap = abs(days[i] - days[j])
            miles = haversine_miles(points[i], points[j])
            pairs.append((i, j))
            labels.append(min(1.0, 0.6 / (gap + 1.0) + 0.4 * math.exp(-miles / 500.0)))
    emb = rng.normal(size=(n, 50))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    features = {variant: build_feature_matrix(records, variant) for variant in ("all_features", "condensed_time")}
    cells = component_sweep(emb, features, np.array(pairs), np.array(labels), [8], top_n=20)
    elapsed = time.perf_counter() - start
    by_variant = {cell.variant: cell.mean_label for cell in cells}
    lifted = by_variant["all_features"]
    baseline = by_variant["pca_only"]
    assert lifted >= 1.2 * baseline, (lifted, baseline)
    assert elapsed < 60.0
    announce(
        f"ACCEPTANCE 5 PASS feature lift at k=8: all_features {lifted:.4f} "
        f"vs pca_only {baseline:.4f} ({elapsed:.2f}s)"
    )


def test_6_planar_map_calibration_descent_gradient_determinism(announce):
    start = time.perf_counter()
    # calibration accuracy on 50 random points
    rng = np.random.default_rng(7)
    d2 = pairwise_sq_distances(rng.normal(size=(50, 6)))
    sigmas = calibrate_sigmas(d2, 15.0)
    P = conditional_p(d2, sigmas)
    worst = 0.0
    for row in P:
        live = row[row > 0]
        achieved = 2.0 ** float(-(live * np.log2(live)).sum())
        worst = max(worst, abs(achieved - 15.0))
    assert worst <= 1e-3

    # descent reduces divergence on a two-cluster fixture
    rng = np.random.default_rng(9)
    cluster_a = rng.normal(size=(20, 5)) * 0.3
    cluster_b = rng.normal(size=(20, 5)) * 0.3 + 8.0
    X = np.vstack([cluster_a, cluster_b])
    cfg = TsneConfig(perplexity=10.0, iterations=400, seed=1)
    result = run_tsne(X, cfg)
    assert result.kl_trace[-1] < result.kl_trace[0]

    # analytic gradient against central differences, all kernel/cost forms
    h = 1e-6
    for i in range(10):
        rng = np.random.default_rng(100 + i)
        Y = rng.normal(size=(6, 2)) * 0.7
        raw = rng.random((6, 6))
        np.fill_diagonal(raw, 0.0)
        for cost in ("joint", "conditional"):
            if cost == "joint":
                P6 = raw + raw.T
                P6 = P6 / P6.sum()
            else:
                P6 = raw / raw.sum(axis=1, keepdims=True)
            for kernel in ("gaussian", "student_t"):
                _, grad = tsne_cost_and_grad(P6, Y, kernel, cost)
                num = np.empty_like(grad)
                for r in range(6):
                    for c in range(2):
                        Yp, Ym = Y.copy(), Y.copy()
                        Yp[r, c] += h
                        Ym[r, c] -= h
                        num[r, c] = (
                            tsne_cost_and_grad(P6, Yp, kernel, cost)[0]
                            - tsne_cost_and_grad(P6, Ym, kernel, cost)[0]
                        ) / (2.0 * h)
                assert np.allclose(grad, num, rtol=1e-4, atol=1e-8), (kernel, cost, i)

    # same seed, same bytes
    again = run_tsne(X, cfg)
    assert again.coords.tobytes() == result.coords.tobytes()
    assert again.kl_trace.tobytes() == result.kl_trace.tobytes()
    elapsed = time.perf_counter() - start
    announce(
        f"ACCEPTANCE 6 PASS planar map: calibration {worst:.1e}, "
        f"KL {result.kl_trace[0]:.4f}->{result.kl_trace[-1]:.4f}, "
        f"gradient verified, deterministic ({elapsed:.2f}s)"
    )


def test_7_geotemporal_encodings(announce):
    nyc = GeoPoint(40.7128, -74.0060)
    la = GeoPoint(34.0522, -118.2437)
    got = haversine_miles(nyc, la)
    assert abs(got - 2445.0) / 2445.0 < 0.01

    # one second before and after midnight sit next to each other
    before = encode_time_cyclical(86399)
    after = encode_time_cyclical(86401)
    noon = encode_time_cyclical(43200)
    # each encoding starts (day_sin, day_cos)
    near = math.hypot(before[0] - after[0], before[1] - after[1])
    far = math.hypot(before[0] - noon[0], before[1] - noon[1])
    assert near < 1e-3
    assert far > 1.0

    worst_mean, worst_var = 0.0, 0.0
    for i in range(20):
        rng = np.random.default_rng(200 + i)
        n = int(rng.integers(5, 30))
        d = int(rng.integers(2, 8))
        out, stats = standardize(rng.normal(size=(n, d)) * 10.0 + 3.0)
        live = ~stats.constant_mask
        worst_mean = max(worst_mean, float(np.max(np.abs(out[:, live].mean(axis=0)))))
        worst_var = max(worst_var, float(np.max(np.abs(out[:, live].var(axis=0) - 1.0))))
    assert worst_mean < 1e-9
    assert worst_var < 1e-9
    announce(
        f"ACCEPTANCE 7 PASS geotemporal encodings: haversine {got:.1f} mi, "
        f"midnight wrap {near:.1e}, standardize residuals {worst_mean:.1e}/{worst_var:.1e}"
    )


def test_8_ranking_machinery_against_sort_oracle(announce):
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    previous = None
    for _ in range(1000):
        scores = rng.random((8, 8))
        got = rank_matrix(scores)
        expect = np.zeros((8, 8), dtype=int)
        for i in range(8):
            order = sorted((j for j in range(8) if j != i), key=lambda j: (-scores[i, j], j))
            for rank, j in enumerate(order):
                expect[i, j] = rank
            row = sorted(int(got.entries[i, j]) for j in range(8) if j != i)
            assert row == list(range(7))
        assert np.array_equal(got.entries, expect)
        assert rank_loss(got, got) == 0.0
        if previous is not None:
            assert rank_loss(got, previous) == rank_loss(previous, got)
        previous = got
    elapsed = time.perf_counter() - start
    announce(f"ACCEPTANCE 8 PASS ranking machinery, 1000 matrices ({elapsed:.2f}s)")


PIPELINE_OUTPUTS = [
    "records.csv",
    "features.csv",
    "embeddings.csv",
    "reduced.csv",
    "augmented.csv",
    "scores.csv",
    "optimize_trace.csv",
    "tsne.csv",
    "tsne.svg",
    "eval.csv",
    "rank_heatmap.csv",
    "sweep.csv",
    "delta.csv",
]


def drive_pipeline(out_dir, fx, seed):
    base = ["--seed", str(seed), "--out-dir", str(out_dir)]
    stages = [
        ["ingest", "--corpus", str(fx["corpus"]), "--gazetteer", str(fx["gazetteer"])],
        ["encode", "--variant", "all_features"],
        ["embed", "--word-vectors", str(fx["vectors"])],
        ["reduce", "--k", "4"],
        ["augment"],
        ["score", "--kind", "pi", "--alphas", "0.02,9.55"],
        ["optimize", "--labels", str(fx["rank_labels"]), "--rounds", "2"],
        ["tsne", "--iterations", "150", "--perplexity", "5"],
        ["eval", "--mode", "quality", "--labels", str(fx["labels"]), "--top-n", "5"],
        ["eval", "--mode", "compare", "--labels", str(fx["rank_labels"])],
        ["sweep", "--mode", "quality", "--k-list", "2,4", "--labels", str(fx["labels"]), "--top-n", "5"],
        ["sweep", "--mode", "delta", "--k-list", "2,4", "--trials", "3", "--pairs", "20"],
    ]
    for stage in stages:
        assert main(base + stage) == 0, f"stage {stage[0]} failed"


def test_9_pipeline_byte_identical_across_runs(announce, pipeline_fixture, tmp_path):
    start = time.perf_counter()
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    drive_pipeline(dir_a, pipeline_fixture, seed=7)
    drive_pipeline(dir_b, pipeline_fixture, seed=7)
    elapsed = time.perf_counter() - start
    for name in PIPELINE_OUTPUTS:
        for suffix in ("", ".meta"):
            a, b = dir_a / (name + suffix), dir_b / (name + suffix)
            assert a.exists(), f"{a.name} missing"
            assert a.read_bytes() == b.read_bytes(), f"{a.name} differs"
    assert elapsed < 10.0
    announce(
        f"ACCEPTANCE 9 PASS pipeline determinism, "
        f"{len(PIPELINE_OUTPUTS)} outputs byte-identical ({elapsed:.2f}s)"
    )
