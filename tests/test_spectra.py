import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semfuse.embed import EmbeddingSpace
from semfuse.errors import DomainError, UnknownKeyError
import semfuse.spectra as spectra
from semfuse.spectra import (
    augment,
    cosine,
    delta_cosine_experiment,
    fit_pca,
    fit_pca_models,
    save_delta_csv,
    transform,
)


def count_fit_pca(monkeypatch) -> list[int]:
    """Record the k of every fit_pca call the spectra module makes."""
    calls = []
    fit = spectra.fit_pca

    def counted(space, k):
        calls.append(k)
        return fit(space, k)

    monkeypatch.setattr(spectra, "fit_pca", counted)
    return calls


def random_space(seed, n=20, d=10):
    rng = np.random.default_rng(seed)
    ids = tuple(f"r{i}" for i in range(n))
    return EmbeddingSpace(ids, rng.normal(size=(n, d)))


def eigh_oracle(matrix, k):
    """Brute-force covariance eigendecomposition, the independent PCA route."""
    centered = matrix - matrix.mean(axis=0)
    cov = centered.T @ centered / matrix.shape[0]
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    comps = vecs.T[:k].copy()
    for row in comps:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1
    return comps, vals[:k]


class TestFitPca:
    def test_collinear_data_single_component(self):
        t = np.linspace(-2, 2, 9)
        X = np.stack([3.0 * t + 1.0, -4.0 * t + 2.0], axis=1)
        model = fit_pca(X, 1)
        total = np.var(X[:, 0]) + np.var(X[:, 1])
        assert model.explained_variance[0] == pytest.approx(total, abs=1e-9)

    def test_full_rank_projection_is_isometry(self):
        space = random_space(0, n=15, d=6)
        model = fit_pca(space, 6)
        proj = transform(model, space)
        for i in range(5):
            for j in range(i + 1, 5):
                orig = np.linalg.norm(space.matrix[i] - space.matrix[j])
                red = np.linalg.norm(proj[i] - proj[j])
                assert red == pytest.approx(orig, abs=1e-6)

    def test_matches_eigendecomposition_oracle(self):
        space = random_space(42)
        model = fit_pca(space, 4)
        comps, variances = eigh_oracle(space.matrix, 4)
        assert np.allclose(model.components, comps, atol=1e-6)
        assert np.allclose(model.explained_variance, variances, atol=1e-6)

    def test_k_out_of_range(self):
        space = random_space(1, n=5, d=8)
        with pytest.raises(DomainError):
            fit_pca(space, 0)
        with pytest.raises(DomainError):
            fit_pca(space, 5)  # k must stay within n-1

    def test_sign_convention(self):
        model = fit_pca(random_space(7), 5)
        for row in model.components:
            assert row[np.argmax(np.abs(row))] > 0

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=30)
    def test_orthonormal_and_sorted(self, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(5, 15)), int(rng.integers(3, 8))
        k = int(rng.integers(1, min(n - 1, d) + 1))
        model = fit_pca(rng.normal(size=(n, d)), k)
        assert np.allclose(model.components @ model.components.T, np.eye(k), atol=1e-6)
        assert np.all(np.diff(model.explained_variance) <= 1e-12)
        assert np.all(model.explained_variance >= -1e-12)

    def test_total_variance_preserved_at_full_rank(self):
        space = random_space(3, n=12, d=5)
        model = fit_pca(space, 5)
        total = np.sum(np.var(space.matrix, axis=0))
        assert np.sum(model.explained_variance) == pytest.approx(total, abs=1e-6)


class TestFitPcaModels:
    def test_each_model_equals_its_own_fit(self):
        space = random_space(21, n=15, d=9)
        k_list = [3, 1, 9, 5]
        for k, model in zip(k_list, fit_pca_models(space, k_list)):
            own = fit_pca(space, k)
            assert model.k == k
            assert np.array_equal(model.mean, own.mean)
            assert np.array_equal(model.components, own.components)
            assert np.array_equal(model.explained_variance, own.explained_variance)
            assert np.array_equal(transform(model, space), transform(own, space))

    def test_one_fit_at_the_largest_k(self, monkeypatch):
        calls = count_fit_pca(monkeypatch)
        fit_pca_models(random_space(22), [2, 6, 4])
        assert calls == [6]

    def test_k_out_of_range_names_the_first_bad_k(self):
        space = random_space(23, n=6, d=4)
        with pytest.raises(DomainError, match=r"^k=0 out of range \[1, 4\] for a 6x4 space$"):
            fit_pca_models(space, [2, 0, 7])
        with pytest.raises(DomainError, match=r"^k=7 out of range \[1, 4\] for a 6x4 space$"):
            fit_pca_models(space, [2, 7, 0])

    def test_empty_list(self):
        assert fit_pca_models(random_space(24), []) == []

    def test_repeated_k_names_the_first_repeat(self, monkeypatch):
        calls = count_fit_pca(monkeypatch)
        space = random_space(25, n=8, d=5)
        with pytest.raises(DomainError, match=r"^k=4 is repeated in the component counts$"):
            fit_pca_models(space, [4, 2, 4, 2])
        with pytest.raises(DomainError, match=r"^k=0 out of range"):
            fit_pca_models(space, [4, 0, 4])
        assert calls == []

    def test_delta_experiment_rejects_a_repeated_k(self):
        with pytest.raises(DomainError, match=r"^k=4 is repeated"):
            delta_cosine_experiment(random_space(26, n=8, d=5), np.zeros((8, 2)), [4, 2, 4],
                                    trials=2, pair_sample_size=5)


class TestTransform:
    def test_mean_row_maps_to_zero(self):
        space = random_space(5)
        model = fit_pca(space, 3)
        out = transform(model, model.mean.reshape(1, -1))
        assert np.allclose(out, 0.0, atol=1e-9)

    def test_full_rank_reconstruction(self):
        space = random_space(6, n=10, d=4)
        model = fit_pca(space, 4)
        proj = transform(model, space)
        rebuilt = proj @ model.components + model.mean
        assert np.allclose(rebuilt, space.matrix, atol=1e-6)

    def test_hand_projection(self):
        X = np.array([[1.0, 0.0, 2.0], [3.0, 1.0, 0.0], [2.0, 2.0, 1.0]])
        model = fit_pca(X, 2)
        out = transform(model, X)
        # plain-Python row-by-row multiplication
        for i in range(3):
            centered = [X[i, c] - model.mean[c] for c in range(3)]
            for j in range(2):
                hand = sum(centered[c] * model.components[j, c] for c in range(3))
                assert out[i, j] == pytest.approx(hand, abs=1e-12)

    def test_dimension_mismatch(self):
        model = fit_pca(random_space(8, n=6, d=4), 2)
        with pytest.raises(DomainError):
            transform(model, np.zeros((3, 5)))


class TestAugment:
    def test_shape(self):
        rng = np.random.default_rng(0)
        ids = tuple(f"r{i}" for i in range(100))
        out = augment(rng.normal(size=(100, 8)), rng.normal(size=(100, 7)), ids)
        assert out.matrix.shape == (100, 15)
        assert out.k == 8 and out.f == 7

    def test_constant_features_zeroed_and_flagged(self):
        rng = np.random.default_rng(1)
        ids = tuple(f"r{i}" for i in range(5))
        out = augment(rng.normal(size=(5, 3)), np.full((5, 2), 9.0), ids)
        assert np.array_equal(out.matrix[:, 3:], np.zeros((5, 2)))
        assert all(out.stats.constant_mask)

    def test_zero_padding_preserves_cosine(self):
        rng = np.random.default_rng(2)
        reduced = rng.normal(size=(6, 4))
        ids = tuple(f"r{i}" for i in range(6))
        out = augment(reduced, np.full((6, 3), 1.5), ids)
        for i in range(5):
            assert cosine(out.matrix[i], out.matrix[i + 1]) == pytest.approx(
                cosine(reduced[i], reduced[i + 1]), abs=1e-12
            )

    def test_row_mismatch(self):
        ids = ("a", "b", "c")
        with pytest.raises(DomainError):
            augment(np.zeros((3, 2)), np.zeros((4, 2)), ids)

    def test_row_by_id(self):
        rng = np.random.default_rng(3)
        ids = ("a", "b", "c")
        out = augment(rng.normal(size=(3, 2)), rng.normal(size=(3, 2)), ids)
        for i, rid in enumerate(ids):
            assert np.array_equal(out.row(rid), out.matrix[i])
        with pytest.raises(UnknownKeyError, match=r"^id 'zz' not in embedding space$"):
            out.row("zz")

    def test_repeated_id_resolves_to_its_first_row(self):
        out = augment(np.arange(6.0).reshape(3, 2), np.zeros((3, 1)), ("a", "b", "a"))
        assert np.array_equal(out.row("a"), out.matrix[0])


class TestCosine:
    def test_self_similarity(self):
        v = np.array([2.0, -1.0, 0.5])
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 3.0])) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_hand_value(self):
        got = cosine(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert got == pytest.approx(0.7071067811865475, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            cosine(np.zeros(3), np.ones(3))

    @given(seed=st.integers(0, 10**6), n=st.integers(1, 40), d=st.integers(2, 8))
    @settings(max_examples=100, deadline=None)
    def test_rounds_each_pair_as_the_vectorized_cosine(self, seed, n, d):
        # a row against itself, cosine 1 up to rounding, is where two formulas round apart
        matrix = np.random.default_rng(seed).normal(size=(n, d))
        rows = np.arange(n)
        pairwise = spectra._pairwise_cosines(matrix, rows, rows[::-1])
        itself = spectra._pairwise_cosines(matrix, rows, rows)
        for k in rows:
            assert cosine(matrix[k], matrix[n - 1 - k]) == pairwise[k]
            assert cosine(matrix[k], matrix[k]) == itself[k]

    @given(
        st.integers(min_value=0, max_value=300),
        st.floats(min_value=0.01, max_value=100.0),
        st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=60)
    def test_scale_invariance(self, seed, alpha, beta):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=4), rng.normal(size=4)
        assert cosine(alpha * a, beta * b) == pytest.approx(cosine(a, b), abs=1e-9)


class TestDeltaCosine:
    def test_zero_features_full_rank_no_shift(self):
        space = random_space(11, n=12, d=5)
        features = np.full((12, 3), 4.0)  # constant: standardizes to zeros
        results = delta_cosine_experiment(space, features, [5], trials=3, pair_sample_size=10)
        assert results[0].mean_abs_delta == pytest.approx(0.0, abs=1e-6)

    def test_same_seed_identical(self):
        space = random_space(12, n=15, d=6)
        rng = np.random.default_rng(9)
        features = rng.normal(size=(15, 3))
        a = delta_cosine_experiment(space, features, [2, 4], trials=4, pair_sample_size=20, seed=5)
        b = delta_cosine_experiment(space, features, [2, 4], trials=4, pair_sample_size=20, seed=5)
        assert [(r.k, r.mean_abs_delta, r.stderr) for r in a] == [
            (r.k, r.mean_abs_delta, r.stderr) for r in b
        ]

    def test_one_pca_fit_per_experiment(self, monkeypatch):
        calls = count_fit_pca(monkeypatch)
        space = random_space(16, n=15, d=6)
        features = np.random.default_rng(5).normal(size=(15, 3))
        delta_cosine_experiment(space, features, [2, 6, 4], trials=2, pair_sample_size=10)
        assert calls == [6]

    def test_sample_size_exceeding_pairs(self):
        space = random_space(13, n=5, d=4)
        with pytest.raises(DomainError):
            delta_cosine_experiment(space, np.zeros((5, 2)), [2], pair_sample_size=11)

    @pytest.mark.parametrize("size", [0, -1])
    def test_sample_size_below_one(self, size):
        # an empty sample would average no pairs: a nan row and a numpy warning
        space = random_space(13, n=5, d=4)
        with pytest.raises(DomainError, match=f"pair_sample_size must be >= 1, got {size}"):
            delta_cosine_experiment(space, np.zeros((5, 2)), [2], pair_sample_size=size)

    def test_nonnegative(self):
        space = random_space(14, n=12, d=6)
        rng = np.random.default_rng(2)
        features = rng.normal(size=(12, 3))
        for r in delta_cosine_experiment(space, features, [2, 3], trials=3, pair_sample_size=15):
            assert r.mean_abs_delta >= 0.0
            assert r.stderr >= 0.0

    def test_csv_output(self, tmp_path):
        space = random_space(15, n=10, d=5)
        rng = np.random.default_rng(4)
        results = delta_cosine_experiment(
            space, rng.normal(size=(10, 3)), [2], trials=2, pair_sample_size=8
        )
        p = tmp_path / "delta.csv"
        save_delta_csv(results, p)
        lines = p.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "k,mean_abs_delta,stderr"
        assert lines[1].startswith("2,")
