import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semfuse.corpus import CleanDoc
from semfuse.embed import (
    ContextModel,
    EmbeddingSpace,
    WordVectorTable,
    embed_corpus,
    embed_sentence,
    export_embeddings,
    fit_context,
    import_embeddings,
    load_word_vectors,
    sim_cosal,
    word_salience,
)
from semfuse.errors import ConflictError, DomainError, FormatError, UnknownKeyError


def table_from(mapping: dict[str, list[float]]) -> WordVectorTable:
    dim = len(next(iter(mapping.values())))
    return WordVectorTable(dim, {t: np.asarray(v, dtype=float) for t, v in mapping.items()})


class TestLoadWordVectors:
    def test_two_lines_dim_3(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("cat 1.0 2.0 3.0\ndog 4.0 5.0 6.0\n", encoding="utf-8")
        table = load_word_vectors(p)
        assert table.dim == 3
        assert np.array_equal(table.vector("dog"), [4.0, 5.0, 6.0])

    def test_ragged_line_reports_line_2(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("cat 1.0 2.0 3.0\ndog 4.0 5.0\n", encoding="utf-8")
        with pytest.raises(FormatError, match="line 2"):
            load_word_vectors(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("", encoding="utf-8")
        with pytest.raises(FormatError):
            load_word_vectors(p)

    def test_duplicate_token_rejected(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("cat 1.0 2.0\ncat 3.0 4.0\n", encoding="utf-8")
        with pytest.raises(ConflictError, match="cat"):
            load_word_vectors(p)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_value_names_line(self, tmp_path, value):
        p = tmp_path / "v.txt"
        p.write_text(f"cat 1.0 2.0\na 1 {value}\n", encoding="utf-8")
        with pytest.raises(FormatError, match="line 2"):
            load_word_vectors(p)


class TestFitContext:
    def test_single_repeated_vector(self):
        table = table_from({"a": [1.0, 2.0], "b": [1.0, 2.0]})
        docs = [CleanDoc("d1", ("a", "b", "a"))]
        ctx = fit_context(docs, table, ridge=0.25)
        assert np.allclose(ctx.mean, [1.0, 2.0])
        assert np.allclose(ctx.covariance, 0.25 * np.eye(2))

    def test_opposite_vectors_mean_zero(self):
        table = table_from({"p": [3.0, -1.0], "q": [-3.0, 1.0]})
        ctx = fit_context([CleanDoc("d", ("p", "q"))], table, ridge=0.0)
        assert np.allclose(ctx.mean, [0.0, 0.0])

    def test_matches_two_pass_oracle(self):
        table = table_from(
            {
                "a": [1.0, 0.0, 2.0],
                "b": [0.5, -1.0, 1.0],
                "c": [2.0, 2.0, 0.0],
                "d": [-1.0, 0.5, 0.5],
            }
        )
        docs = [CleanDoc("d1", ("a", "b", "c")), CleanDoc("d2", ("d", "a"))]
        ridge = 0.01
        ctx = fit_context(docs, table, ridge=ridge)

        # two-pass oracle with multiplicity
        toks = ["a", "b", "c", "d", "a"]
        vecs = [table.vector(t) for t in toks]
        mean = sum(vecs) / len(vecs)
        cov = np.zeros((3, 3))
        for v in vecs:
            r = (v - mean).reshape(-1, 1)
            cov += r @ r.T
        cov = cov / len(vecs) + ridge * np.eye(3)
        assert np.allclose(ctx.mean, mean, atol=1e-12)
        assert np.allclose(ctx.covariance, cov, atol=1e-9)

    def test_no_vocabulary_rejected(self):
        table = table_from({"a": [1.0, 2.0]})
        with pytest.raises(DomainError):
            fit_context([CleanDoc("d", ("zzz",))], table)

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=40)
    def test_covariance_brute_force_invariant(self, seed):
        rng = np.random.default_rng(seed)
        n_tokens = int(rng.integers(2, 30))
        dim = int(rng.integers(2, 6))
        names = [f"w{i}" for i in range(n_tokens)]
        table = WordVectorTable(dim, {n: rng.normal(size=dim) for n in names})
        docs = [CleanDoc("d", tuple(names))]
        ridge = float(rng.uniform(0, 0.1))
        ctx = fit_context(docs, table, ridge=ridge)
        vecs = np.stack([table.vector(n) for n in names])
        centered = vecs - vecs.mean(axis=0)
        oracle = centered.T @ centered / n_tokens + ridge * np.eye(dim)
        assert np.allclose(ctx.covariance, oracle, atol=1e-9)


class TestWordSalience:
    def test_center_token_zero(self):
        table = table_from({"mid": [2.0, 3.0]})
        ctx = ContextModel(np.array([2.0, 3.0]), np.eye(2), 0.0)
        assert word_salience("mid", ctx, table) == 0.0

    def test_identity_metric_is_euclidean(self):
        table = table_from({"far": [3.0, 4.0]})
        ctx = ContextModel(np.zeros(2), np.eye(2), 0.0)
        assert word_salience("far", ctx, table) == pytest.approx(5.0, abs=1e-12)

    def test_diagonal_metric_hand_value(self):
        table = table_from({"w": [2.0, 1.0]})
        ctx = ContextModel(np.zeros(2), np.diag([4.0, 1.0]), 0.0)
        assert word_salience("w", ctx, table) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_unknown_token_rejected(self):
        table = table_from({"w": [1.0, 0.0]})
        ctx = ContextModel(np.zeros(2), np.eye(2), 0.0)
        with pytest.raises(UnknownKeyError):
            word_salience("absent", ctx, table)

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        vecs = {f"w{i}": rng.normal(size=3) for i in range(6)}
        offset = np.array([10.0, -4.0, 2.5])
        table_a = WordVectorTable(3, dict(vecs))
        table_b = WordVectorTable(3, {k: v + offset for k, v in vecs.items()})
        docs = [CleanDoc("d", tuple(vecs))]
        ctx_a = fit_context(docs, table_a, ridge=0.01)
        ctx_b = fit_context(docs, table_b, ridge=0.01)
        for tok in vecs:
            assert word_salience(tok, ctx_a, table_a) == pytest.approx(
                word_salience(tok, ctx_b, table_b), abs=1e-6
            )


class TestEmbedSentence:
    def test_single_token_normalized(self):
        table = table_from({"solo": [3.0, 4.0]})
        ctx = ContextModel(np.zeros(2), np.eye(2), 0.0)
        out = embed_sentence(["solo"], ctx, table)
        assert np.allclose(out.vector, [0.6, 0.8])
        assert not out.fallback

    def test_repetition_invariant(self):
        table = table_from({"a": [1.0, 2.0], "b": [0.0, 1.0]})
        ctx = ContextModel(np.zeros(2), np.eye(2), 0.0)
        once = embed_sentence(["a", "b"], ctx, table)
        twice = embed_sentence(["a", "a", "b", "b"], ctx, table)
        assert np.allclose(once.vector, twice.vector, atol=1e-12)

    def test_hand_weighted_mean(self):
        # identity metric: weights are plain distances from the origin
        table = table_from({"x": [1.0, 0.0], "y": [0.0, 2.0]})
        ctx = ContextModel(np.zeros(2), np.eye(2), 0.0)
        out = embed_sentence(["x", "y"], ctx, table)
        weighted = 1.0 * np.array([1.0, 0.0]) + 2.0 * np.array([0.0, 2.0])
        weighted /= 3.0
        expect = weighted / np.linalg.norm(weighted)
        assert np.allclose(out.vector, expect, atol=1e-12)

    def test_out_of_vocabulary_skipped(self):
        table = table_from({"known": [1.0, 1.0]})
        ctx = ContextModel(np.zeros(2), np.eye(2), 0.0)
        out = embed_sentence(["known", "mystery"], ctx, table)
        assert np.allclose(out.vector, np.array([1.0, 1.0]) / math.sqrt(2.0))

    def test_no_vocabulary_rejected(self):
        table = table_from({"known": [1.0, 1.0]})
        ctx = ContextModel(np.zeros(2), np.eye(2), 0.0)
        with pytest.raises(DomainError):
            embed_sentence(["mystery"], ctx, table)

    def test_zero_salience_falls_back_to_plain_mean(self):
        table = table_from({"a": [2.0, 2.0], "b": [2.0, 2.0]})
        docs = [CleanDoc("d", ("a", "b"))]
        ctx = fit_context(docs, table, ridge=0.0)
        out = embed_sentence(["a", "b"], ctx, table)
        assert out.fallback
        assert np.allclose(out.vector, np.array([2.0, 2.0]) / math.hypot(2.0, 2.0))

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=40)
    def test_unit_norm_invariant(self, seed):
        rng = np.random.default_rng(seed)
        names = [f"w{i}" for i in range(int(rng.integers(2, 10)))]
        table = WordVectorTable(3, {n: rng.normal(size=3) for n in names})
        ctx = fit_context([CleanDoc("d", tuple(names))], table)
        out = embed_sentence(names, ctx, table)
        assert abs(np.linalg.norm(out.vector) - 1.0) < 1e-9


class TestSimCosal:
    def test_orthogonal(self):
        assert sim_cosal(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_identical_unit(self):
        v = np.array([0.6, 0.8])
        assert sim_cosal(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_hand_value(self):
        assert sim_cosal(np.array([0.6, 0.8]), np.array([0.8, 0.6])) == pytest.approx(
            0.96, abs=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            sim_cosal(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))

    @given(st.integers(min_value=0, max_value=500))
    def test_symmetry_exact(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=4), rng.normal(size=4)
        assert sim_cosal(a, b) == sim_cosal(b, a)


class TestEmbeddingIO:
    def test_shape_preserved(self, tmp_path):
        rng = np.random.default_rng(0)
        space = EmbeddingSpace(("a", "b", "c"), rng.normal(size=(3, 50)))
        p = tmp_path / "emb.csv"
        export_embeddings(space, p)
        loaded = import_embeddings(p)
        assert loaded.ids == ("a", "b", "c")
        assert loaded.matrix.shape == (3, 50)

    def test_round_trip_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        space = EmbeddingSpace(("x", "y"), rng.normal(size=(2, 5)))
        p = tmp_path / "emb.csv"
        export_embeddings(space, p)
        assert np.array_equal(import_embeddings(p).matrix, space.matrix)

    def test_duplicate_id_rejected(self, tmp_path):
        p = tmp_path / "emb.csv"
        p.write_text("id,e1,e2\na,1.0,2.0\na,3.0,4.0\n", encoding="utf-8")
        with pytest.raises(ConflictError):
            import_embeddings(p)

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "emb.csv"
        p.write_text("id,e1,e2\na,1.0,2.0\nb,3.0\n", encoding="utf-8")
        with pytest.raises(FormatError):
            import_embeddings(p)


class TestEmbeddingSpaceRow:
    def test_every_id_finds_its_row(self):
        rng = np.random.default_rng(4)
        ids = tuple(f"r{i}" for i in range(30))
        space = EmbeddingSpace(ids, rng.normal(size=(30, 3)))
        for i, rid in enumerate(ids):
            assert np.array_equal(space.row(rid), space.matrix[i])

    def test_unknown_id_message(self):
        space = EmbeddingSpace(("a", "b"), np.eye(2))
        with pytest.raises(UnknownKeyError, match=r"^id 'zz' not in embedding space$") as info:
            space.row("zz")
        assert info.value.query == "zz"


class TestEmbedCorpus:
    def test_ids_follow_docs(self):
        table = table_from({"a": [1.0, 0.0], "b": [0.0, 1.0], "c": [1.0, 1.0]})
        docs = [CleanDoc("d1", ("a", "b")), CleanDoc("d2", ("c",))]
        ctx = fit_context(docs, table)
        space, fallback_ids = embed_corpus(docs, ctx, table)
        assert space.ids == ("d1", "d2")
        assert space.matrix.shape == (2, 2)
        assert fallback_ids == ()

    def test_empty_doc_names_id(self):
        table = table_from({"a": [1.0, 0.0]})
        docs = [CleanDoc("ok", ("a",)), CleanDoc("empty", ())]
        ctx = fit_context(docs, table)
        with pytest.raises(DomainError, match="empty"):
            embed_corpus(docs, ctx, table)
