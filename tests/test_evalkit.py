import re

import numpy as np
import oracles
import pytest
from hypothesis import given, settings, strategies as st

from semfuse.embed import EmbeddingSpace
from semfuse.errors import DomainError, FormatError, RowError, SchemaError, UnknownKeyError
from semfuse.evalkit import (
    SWEEP_VARIANTS,
    LabeledPair,
    compare_rankings,
    component_sweep,
    label_rank_matrix,
    load_labels,
    save_rank_heatmap,
    save_sweep_csv,
    top_pair_quality,
)
from semfuse.rankopt import rank_loss, rank_matrix


def labels_file(tmp_path, body):
    p = tmp_path / "labels.csv"
    p.write_text("id_a,id_b,score_1,score_2\n" + body, encoding="utf-8")
    return p


class TestLoadLabels:
    def test_mean_and_scaling(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text(
            "id_a,id_b,score_1,score_2,score_3,score_4\n"
            "a,b,4,4,4,4\n"
            "a,c,0,0,,\n"
            "b,c,1,2,3,4\n",
            encoding="utf-8",
        )
        pairs = load_labels(p, scale_max=4.0)
        assert [pair.label for pair in pairs] == [1.0, 0.0, 0.625]
        assert pairs[1].rater_scores == (0.0, 0.0)
        assert pairs[2].rater_scores == (1.0, 2.0, 3.0, 4.0)

    def test_variable_rater_counts(self, tmp_path):
        p = labels_file(tmp_path, "a,b,2\na,c,2,4\n")
        pairs = load_labels(p, scale_max=4.0)
        assert pairs[0].label == 0.5
        assert pairs[1].label == 0.75

    def test_score_outside_scale(self, tmp_path):
        p = labels_file(tmp_path, "a,b,5,1\n")
        with pytest.raises(RowError, match=re.escape(f"{p}: line 2: score 5.0 outside [0, 4.0]")):
            load_labels(p, scale_max=4.0)

    def test_short_rater_row_names_file_and_line(self, tmp_path):
        # the blank line counts: lines are the file's, the header is line 1
        p = labels_file(tmp_path, "a,b,1\n\na,c\n")
        with pytest.raises(RowError, match=re.escape(f"{p}: line 4: expected id_a, id_b and at least one score")):
            load_labels(p, scale_max=4.0)

    def test_no_rater_scores_names_file_and_line(self, tmp_path):
        p = labels_file(tmp_path, "a,b,1\na,c,,\n")
        with pytest.raises(RowError, match=re.escape(f"{p}: line 3: no rater scores")):
            load_labels(p, scale_max=4.0)

    def test_non_numeric_score(self, tmp_path):
        p = labels_file(tmp_path, "a,b,good,1\n")
        with pytest.raises(FormatError, match=re.escape(f"{p}: line 2: non-numeric value")):
            load_labels(p, scale_max=4.0)

    def test_unknown_corpus_id(self, tmp_path):
        p = labels_file(tmp_path, "a,zz,1,1\n")
        with pytest.raises(UnknownKeyError, match=re.escape(f"{p}: line 2: id 'zz' not in corpus")):
            load_labels(p, scale_max=4.0, corpus_ids=["a", "b"])

    def test_bad_header(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("left,right,score\na,b,1\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_labels(p, scale_max=4.0)

    def test_header_only_names_the_file(self, tmp_path):
        p = labels_file(tmp_path, "")
        with pytest.raises(FormatError, match=re.escape(f"{p}: no labeled pairs")):
            load_labels(p, scale_max=4.0)

    def test_nonpositive_scale(self, tmp_path):
        p = labels_file(tmp_path, "a,b,1,1\n")
        with pytest.raises(DomainError):
            load_labels(p, scale_max=0.0)

    @given(scores=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=5))
    @settings(max_examples=50)
    def test_labels_stay_in_unit_interval(self, scores, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("lbl")
        p = tmp / "labels.csv"
        header = ",".join(["id_a", "id_b"] + [f"score_{i + 1}" for i in range(len(scores))])
        cells = ",".join(str(s) for s in scores)
        p.write_text(f"{header}\nx,y,{cells}\n", encoding="utf-8")
        (pair,) = load_labels(p, scale_max=4.0)
        assert 0.0 <= pair.label <= 1.0
        assert pair.label == pytest.approx(sum(scores) / len(scores) / 4.0)


def toy_space():
    # b is the nearest neighbour of a by construction, d is orthogonal to a
    matrix = np.array(
        [
            [1.0, 0.0],
            [0.9, 0.1],
            [0.5, 0.5],
            [0.0, 1.0],
        ]
    )
    return EmbeddingSpace(ids=("a", "b", "c", "d"), matrix=matrix)


def make_pair(id_a, id_b, label):
    return LabeledPair(id_a=id_a, id_b=id_b, rater_scores=(label * 4.0,), label=label)


class TestTopPairQuality:
    def test_picks_highest_cosine_pairs(self):
        space = toy_space()
        labels = [
            make_pair("a", "b", 0.9),  # cosine ~0.994
            make_pair("a", "d", 0.1),  # cosine 0
            make_pair("a", "c", 0.5),  # cosine ~0.707
        ]
        assert top_pair_quality(space, labels, top_n=1) == pytest.approx(0.9)
        assert top_pair_quality(space, labels, top_n=2) == pytest.approx((0.9 + 0.5) / 2)
        assert top_pair_quality(space, labels, top_n=3) == pytest.approx(0.5)

    def test_constant_labels(self):
        space = toy_space()
        labels = [make_pair("a", "b", 0.25), make_pair("c", "d", 0.25)]
        assert top_pair_quality(space, labels, top_n=2) == pytest.approx(0.25)

    def test_tie_breaks_by_position(self):
        space = toy_space()
        # identical pair listed twice: equal cosine, first listing wins
        labels = [make_pair("a", "b", 0.0), make_pair("a", "b", 1.0)]
        assert top_pair_quality(space, labels, top_n=1) == 0.0

    def test_top_n_bounds(self):
        space = toy_space()
        labels = [make_pair("a", "b", 0.5)]
        with pytest.raises(DomainError):
            top_pair_quality(space, labels, top_n=0)
        with pytest.raises(DomainError):
            top_pair_quality(space, labels, top_n=2)

    def test_unknown_id(self):
        space = toy_space()
        with pytest.raises(UnknownKeyError, match=r"^id 'zz' not in the evaluated space$") as info:
            top_pair_quality(space, [make_pair("a", "zz", 0.5)], top_n=1)
        assert info.value.query == "zz"

    def test_scale_invariance(self):
        space = toy_space()
        scaled = EmbeddingSpace(ids=space.ids, matrix=space.matrix * 37.0)
        labels = [
            make_pair("a", "b", 0.9),
            make_pair("a", "c", 0.4),
            make_pair("b", "d", 0.2),
        ]
        a = top_pair_quality(space, labels, top_n=2)
        b = top_pair_quality(scaled, labels, top_n=2)
        assert a == b

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        ids = tuple(f"r{i}" for i in range(6))
        matrix = rng.normal(size=(6, 4))
        space = EmbeddingSpace(ids=ids, matrix=matrix)
        labels = []
        for i in range(6):
            for j in range(i + 1, 6):
                labels.append(make_pair(ids[i], ids[j], float(rng.integers(0, 5)) / 4.0))
        top_n = int(rng.integers(1, len(labels) + 1))
        got = top_pair_quality(space, labels, top_n)

        def cos(u, v):
            return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

        index = {rid: row for rid, row in zip(ids, matrix)}
        scored = sorted(
            range(len(labels)),
            key=lambda t: (-cos(index[labels[t].id_a], index[labels[t].id_b]), t),
        )
        expect = sum(labels[t].label for t in scored[:top_n]) / top_n
        assert got == pytest.approx(expect, abs=1e-12)


class TestTopPairQualityMatchesItsOracle:
    """One vectorized cosine against the per-pair loop it replaced."""

    @given(seed=st.integers(0, 10**6), n=st.integers(2, 7), repeats=st.integers(0, 3))
    @settings(max_examples=300, deadline=None)
    def test_same_mean_label(self, seed, n, repeats):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(n, 3))
        matrix = np.vstack([matrix, matrix[rng.integers(0, n, size=repeats)]])  # exact cosine ties
        ids = tuple(f"r{i}" for i in range(len(matrix)))
        space = EmbeddingSpace(ids=ids, matrix=matrix)
        labels = [make_pair(ids[i], ids[j], float(rng.integers(0, 5)) / 4.0)
                  for i, j in rng.integers(0, len(ids), size=(int(rng.integers(1, 12)), 2))]
        for top_n in range(1, len(labels) + 1):
            assert top_pair_quality(space, labels, top_n) == oracles.top_pair_quality(space, labels, top_n)

    @pytest.mark.parametrize("pairs, error, message", [
        ([("a", "b"), ("zz", "yy"), ("a", "xx")], UnknownKeyError, "^id 'zz' not in the evaluated space$"),
        ([("a", "b"), ("c", "yy")], UnknownKeyError, "^id 'yy' not in the evaluated space$"),
        ([("a", "b"), ("o", "c")], DomainError, "^cosine is undefined for a zero vector$"),
        ([("c", "o"), ("a", "b")], DomainError, "^cosine is undefined for a zero vector$"),
    ])
    def test_same_first_error(self, pairs, error, message):
        space = EmbeddingSpace(ids=("a", "b", "c", "o"), matrix=np.array([[1.0, 0.0], [0.9, 0.1], [0.5, 0.5],
                                                                           [0.0, 0.0]]))
        labels = [make_pair(a, b, 0.5) for a, b in pairs]
        for quality in (top_pair_quality, oracles.top_pair_quality):
            with pytest.raises(error, match=message):
                quality(space, labels, 1)

    def test_an_unknown_id_raises_before_an_earlier_zero_row(self):
        # every id is looked up before any pair is scored; the loop raised at the first failing pair
        space = EmbeddingSpace(ids=("a", "o"), matrix=np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(UnknownKeyError, match="^id 'zz' not in the evaluated space$"):
            top_pair_quality(space, [make_pair("a", "o", 0.5), make_pair("a", "zz", 0.5)], 1)

    def test_scores_all_pairs_in_one_cosine_call(self, monkeypatch):
        import semfuse.evalkit as evalkit

        calls = []
        pairwise = evalkit._pairwise_cosines
        monkeypatch.setattr(evalkit, "_pairwise_cosines", lambda *args: calls.append(1) or pairwise(*args))
        labels = [make_pair("a", "b", 0.9), make_pair("a", "d", 0.1), make_pair("c", "d", 0.5)]
        assert top_pair_quality(toy_space(), labels, top_n=2) == oracles.top_pair_quality(toy_space(), labels, 2)
        assert calls == [1]


class TestComponentSweep:
    def setup_method(self):
        rng = np.random.default_rng(17)
        self.space = EmbeddingSpace(
            ids=tuple(f"r{i}" for i in range(8)),
            matrix=rng.normal(size=(8, 4)),
        )
        self.labels = []
        for i in range(8):
            for j in range(i + 1, 8):
                self.labels.append(
                    make_pair(f"r{i}", f"r{j}", float(rng.integers(0, 5)) / 4.0)
                )

    def test_cell_layout(self):
        features = np.random.default_rng(1).normal(size=(8, 7))
        condensed = features[:, :3]
        result = component_sweep(
            self.space, features, condensed, self.labels, k_list=[2, 3], top_n=5
        )
        assert len(result.cells) == 6
        assert [c.variant for c in result.cells] == [
            "all_features", "all_features",
            "condensed_time", "condensed_time",
            "pca_only", "pca_only",
        ]
        assert [c.k for c in result.cells] == [2, 3, 2, 3, 2, 3]
        assert all(c.n_pairs == 5 for c in result.cells)
        assert all(0.0 <= c.mean_label <= 1.0 for c in result.cells)

    def test_constant_features_collapse_to_pca_only(self):
        # constant feature columns standardize to zero, so appending them
        # cannot change any cosine
        features = np.ones((8, 7))
        condensed = np.ones((8, 3))
        result = component_sweep(
            self.space, features, condensed, self.labels, k_list=[4], top_n=6
        )
        by_variant = {c.variant: c.mean_label for c in result.cells}
        assert by_variant["all_features"] == pytest.approx(by_variant["pca_only"], abs=1e-9)
        assert by_variant["condensed_time"] == pytest.approx(by_variant["pca_only"], abs=1e-9)

    def test_one_pca_fit_per_sweep(self, monkeypatch):
        import semfuse.spectra as spectra

        fit = spectra.fit_pca
        calls = []
        monkeypatch.setattr(spectra, "fit_pca", lambda space, k: calls.append(k) or fit(space, k))
        features = np.random.default_rng(4).normal(size=(8, 7))
        component_sweep(self.space, features, features[:, :3], self.labels, [2, 4, 3], top_n=4)
        assert calls == [4]

    def test_repeated_k_rejected(self):
        features = np.random.default_rng(5).normal(size=(8, 7))
        with pytest.raises(DomainError, match=r"^k=2 is repeated in the component counts$"):
            component_sweep(self.space, features, features[:, :3], self.labels, [2, 3, 2], top_n=4)

    def test_deterministic(self):
        features = np.random.default_rng(2).normal(size=(8, 7))
        condensed = features[:, 2:5]
        a = component_sweep(self.space, features, condensed, self.labels, [2], top_n=4)
        b = component_sweep(self.space, features, condensed, self.labels, [2], top_n=4)
        assert a == b

    def test_sweep_csv(self, tmp_path):
        features = np.random.default_rng(3).normal(size=(8, 7))
        result = component_sweep(
            self.space, features, features[:, :3], self.labels, [2], top_n=4
        )
        out = tmp_path / "sweep.csv"
        save_sweep_csv(result, out)
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "variant,k,mean_label,n_pairs"
        assert len(lines) == 1 + len(result.cells)
        first = lines[1].split(",")
        assert first[0] == "all_features"
        assert first[1] == "2"
        assert float(first[2]) == result.cells[0].mean_label


class TestCompareRankings:
    def test_identical_rankings(self):
        scores = np.array([[0.0, 0.8, 0.1], [0.8, 0.0, 0.3], [0.1, 0.3, 0.0]])
        r = rank_matrix(scores)
        report = compare_rankings(r, r)
        assert report.loss == 0.0

    def test_uniform_columns_flagged(self):
        # every row ranks item 1 first and item 2 last
        scores = np.array(
            [
                [0.0, 5.0, 1.0],
                [5.0, 0.0, 1.0],
                [1.0, 5.0, 0.0],
            ]
        )
        report = compare_rankings(rank_matrix(scores), rank_matrix(scores))
        assert report.column_entropy == (1.0, 0.0, 0.0)
        assert report.uniform_columns == (1, 2)

    def test_loss_matches_rank_loss(self):
        rng = np.random.default_rng(8)
        a = rank_matrix(rng.random((5, 5)))
        b = rank_matrix(rng.random((5, 5)))
        report = compare_rankings(a, b)
        assert report.loss == rank_loss(a, b)


class TestRankHeatmap:
    def test_layout(self, tmp_path):
        scores = np.array([[0.0, 0.9, 0.2], [0.9, 0.0, 0.4], [0.2, 0.4, 0.0]])
        r = rank_matrix(scores)
        out = tmp_path / "heatmap.csv"
        save_rank_heatmap(r, out)
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "i,j,rank"
        assert len(lines) == 1 + 9
        assert lines[1] == "0,0,0"
        # row 0 ranks item 1 (score 0.9) ahead of item 2 (score 0.2)
        assert lines[2] == f"0,1,{int(r.entries[0, 1])}"
        assert int(r.entries[0, 1]) == 0
        assert int(r.entries[0, 2]) == 1


class TestLabelRankMatrix:
    def test_all_pairs_round_trip(self):
        ids = ("a", "b", "c")
        labels = [
            make_pair("a", "b", 0.75),
            make_pair("a", "c", 0.25),
            make_pair("b", "c", 0.5),
        ]
        got = label_rank_matrix(labels, ids)
        scores = np.array([[0.0, 0.75, 0.25], [0.75, 0.0, 0.5], [0.25, 0.5, 0.0]])
        assert np.array_equal(got.entries, rank_matrix(scores).entries)

    def test_missing_pair(self):
        labels = [make_pair("a", "b", 0.75)]
        with pytest.raises(DomainError, match="missing"):
            label_rank_matrix(labels, ("a", "b", "c"))

    def test_unknown_id(self):
        labels = [make_pair("a", "zz", 0.75)]
        with pytest.raises(UnknownKeyError):
            label_rank_matrix(labels, ("a", "b"))


class TestLabeledPairValidation:
    def test_empty_scores(self):
        with pytest.raises(DomainError):
            LabeledPair(id_a="a", id_b="b", rater_scores=(), label=0.5)

    def test_label_range(self):
        with pytest.raises(DomainError):
            LabeledPair(id_a="a", id_b="b", rater_scores=(5.0,), label=1.25)
