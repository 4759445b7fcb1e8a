import re

import numpy as np
import oracles
import pytest
from hypothesis import given, settings, strategies as st

from semfuse.errors import ConflictError, DomainError, FormatError, RowError, SchemaError, UnknownKeyError
from semfuse.evalkit import (
    compare_rankings,
    component_sweep,
    load_labels,
    save_rank_heatmap,
    save_sweep_csv,
    top_pair_quality,
)
from semfuse.cli import main
from semfuse.rankopt import rank_loss, rank_matrix


IDS = ("a", "b", "c")


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
        pairs, labels = load_labels(p, 4.0, IDS)
        assert pairs.tolist() == [[0, 1], [0, 2], [1, 2]]
        assert labels.tolist() == [1.0, 0.0, 0.625]

    def test_variable_rater_counts(self, tmp_path):
        p = labels_file(tmp_path, "a,b,2\na,c,2,4\n")
        _, labels = load_labels(p, 4.0, IDS)
        assert labels.tolist() == [0.5, 0.75]

    def test_positions_in_ids_in_file_order(self, tmp_path):
        # the file lists ids in another order than ids does, and gives one pair reversed
        p = labels_file(tmp_path, "r3,r1,4\nr0,r4,2,1\nr2,r0,0\n")
        pairs, labels = load_labels(p, 4.0, ("r0", "r1", "r2", "r3", "r4"))
        assert pairs.dtype.kind == "i" and pairs.shape == (3, 2)
        assert pairs.tolist() == [[3, 1], [0, 4], [2, 0]]
        assert labels.tolist() == [1.0, 0.375, 0.0]

    def test_score_outside_scale(self, tmp_path):
        p = labels_file(tmp_path, "a,b,5,1\n")
        with pytest.raises(RowError, match=re.escape(f"{p}: line 2: score 5.0 outside [0, 4.0]")):
            load_labels(p, 4.0, IDS)

    def test_short_rater_row_names_file_and_line(self, tmp_path):
        # the blank line counts: lines are the file's, the header is line 1
        p = labels_file(tmp_path, "a,b,1\n\na,c\n")
        with pytest.raises(RowError, match=re.escape(f"{p}: line 4: expected id_a, id_b and at least one score")):
            load_labels(p, 4.0, IDS)

    def test_no_rater_scores_names_file_and_line(self, tmp_path):
        p = labels_file(tmp_path, "a,b,1\na,c,,\n")
        with pytest.raises(RowError, match=re.escape(f"{p}: line 3: no rater scores")):
            load_labels(p, 4.0, IDS)

    def test_non_numeric_score(self, tmp_path):
        p = labels_file(tmp_path, "a,b,good,1\n")
        with pytest.raises(FormatError, match=re.escape(f"{p}: line 2: non-numeric value")):
            load_labels(p, 4.0, IDS)

    def test_unknown_corpus_id(self, tmp_path):
        p = labels_file(tmp_path, "a,zz,1,1\n")
        with pytest.raises(UnknownKeyError, match=re.escape(f"{p}: line 2: id 'zz' not in corpus")):
            load_labels(p, 4.0, ["a", "b"])

    # the unknown-id cases top_pair_quality used to report now meet load_labels first
    @pytest.mark.parametrize("row, query", [("zz,yy,1", "zz"), ("c,yy,1", "yy"), ("zz,zz,1", "zz")],
                             ids=["both unknown", "second unknown", "unknown self-pair"])
    def test_first_unknown_id_is_the_one_named(self, tmp_path, row, query):
        p = labels_file(tmp_path, f"a,b,1\n{row}\n")
        with pytest.raises(UnknownKeyError, match=f"^{re.escape(f'{p}: line 3: id {query!r} not in corpus')}$") as info:
            load_labels(p, 4.0, IDS)
        assert info.value.query == query

    def test_self_pair(self, tmp_path):
        # a record paired with itself has cosine 1 and would take the top slot
        p = labels_file(tmp_path, "a,b,1\nc,c,0\n")
        with pytest.raises(RowError, match=f"^{re.escape(f'{p}: line 3: self-pair (c,c) is not allowed')}$"):
            load_labels(p, 4.0, IDS)

    @pytest.mark.parametrize("repeat", ["a,b,0", "b,a,0"])
    def test_repeated_pair_in_either_order(self, tmp_path, repeat):
        p = labels_file(tmp_path, f"a,b,4\n\nb,c,1\n{repeat}\n")
        with pytest.raises(ConflictError, match=f"^{re.escape(f'{p}: line 5: duplicate pair')} \\('a', 'b'\\)$"):
            load_labels(p, 4.0, IDS)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("left,right,score\na,b,1\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_labels(p, 4.0, IDS)

    def test_header_only_names_the_file(self, tmp_path):
        p = labels_file(tmp_path, "")
        with pytest.raises(FormatError, match=re.escape(f"{p}: no labeled pairs")):
            load_labels(p, 4.0, IDS)

    def test_nonpositive_scale(self, tmp_path):
        p = labels_file(tmp_path, "a,b,1,1\n")
        with pytest.raises(DomainError):
            load_labels(p, 0.0, IDS)

    @given(scores=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=5))
    @settings(max_examples=50)
    def test_labels_stay_in_unit_interval(self, scores, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("lbl")
        p = tmp / "labels.csv"
        header = ",".join(["id_a", "id_b"] + [f"score_{i + 1}" for i in range(len(scores))])
        cells = ",".join(str(s) for s in scores)
        p.write_text(f"{header}\nx,y,{cells}\n", encoding="utf-8")
        _, (label,) = load_labels(p, 4.0, ("x", "y"))
        assert 0.0 <= label <= 1.0
        assert label == pytest.approx(sum(scores) / len(scores) / 4.0)


# rows a, b, c, d: b is the nearest neighbour of a by construction, d is orthogonal to a
TOY = np.array(
    [
        [1.0, 0.0],
        [0.9, 0.1],
        [0.5, 0.5],
        [0.0, 1.0],
    ]
)


def labeled(*rows, names="abcd"):
    """(pairs, labels) as load_labels returns them, for (id_a, id_b, label) rows over the ids in `names`."""
    pairs = np.array([(names.index(a), names.index(b)) for a, b, _ in rows])
    return pairs, np.array([label for _, _, label in rows])


class TestTopPairQuality:
    def test_picks_highest_cosine_pairs(self):
        pairs, labels = labeled(
            ("a", "b", 0.9),  # cosine ~0.994
            ("a", "d", 0.1),  # cosine 0
            ("a", "c", 0.5),  # cosine ~0.707
        )
        assert top_pair_quality(TOY, pairs, labels, top_n=1) == pytest.approx(0.9)
        assert top_pair_quality(TOY, pairs, labels, top_n=2) == pytest.approx((0.9 + 0.5) / 2)
        assert top_pair_quality(TOY, pairs, labels, top_n=3) == pytest.approx(0.5)

    def test_constant_labels(self):
        pairs, labels = labeled(("a", "b", 0.25), ("c", "d", 0.25))
        assert top_pair_quality(TOY, pairs, labels, top_n=2) == pytest.approx(0.25)

    def test_tie_breaks_by_position(self):
        # identical pair listed twice: equal cosine, first listing wins
        pairs, labels = labeled(("a", "b", 0.0), ("a", "b", 1.0))
        assert top_pair_quality(TOY, pairs, labels, top_n=1) == 0.0

    def test_top_n_bounds(self):
        pairs, labels = labeled(("a", "b", 0.5))
        with pytest.raises(DomainError):
            top_pair_quality(TOY, pairs, labels, top_n=0)
        with pytest.raises(DomainError):
            top_pair_quality(TOY, pairs, labels, top_n=2)

    def test_scale_invariance(self):
        pairs, labels = labeled(("a", "b", 0.9), ("a", "c", 0.4), ("b", "d", 0.2))
        a = top_pair_quality(TOY, pairs, labels, top_n=2)
        b = top_pair_quality(TOY * 37.0, pairs, labels, top_n=2)
        assert a == b

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(6, 4))
        pairs = np.array([(i, j) for i in range(6) for j in range(i + 1, 6)])
        labels = rng.integers(0, 5, size=len(pairs)) / 4.0
        top_n = int(rng.integers(1, len(labels) + 1))
        got = top_pair_quality(matrix, pairs, labels, top_n)

        def cos(u, v):
            return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

        scored = sorted(range(len(labels)), key=lambda t: (-cos(matrix[pairs[t, 0]], matrix[pairs[t, 1]]), t))
        expect = sum(labels[t] for t in scored[:top_n]) / top_n
        assert got == pytest.approx(expect, abs=1e-12)


class TestTopPairQualityMatchesItsOracle:
    """One vectorized cosine against the per-pair loop it replaced."""

    @given(seed=st.integers(0, 10**6), n=st.integers(2, 7), repeats=st.integers(0, 3))
    @settings(max_examples=300, deadline=None)
    def test_same_mean_label(self, seed, n, repeats):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(n, 3))
        matrix = np.vstack([matrix, matrix[rng.integers(0, n, size=repeats)]])  # exact cosine ties
        pairs = rng.integers(0, len(matrix), size=(int(rng.integers(1, 12)), 2))
        labels = rng.integers(0, 5, size=len(pairs)) / 4.0
        for top_n in range(1, len(labels) + 1):
            assert top_pair_quality(matrix, pairs, labels, top_n) == oracles.top_pair_quality(
                matrix, pairs, labels, top_n)

    # an unknown id no longer reaches either: load_labels rejects it (TestLoadLabels.test_unknown_corpus_id)
    @pytest.mark.parametrize("rows", [[("a", "b"), ("o", "c")], [("c", "o"), ("a", "b")]],
                             ids=["second pair", "first pair"])
    def test_same_first_error(self, rows):
        matrix = np.array([[1.0, 0.0], [0.9, 0.1], [0.5, 0.5], [0.0, 0.0]])
        pairs, labels = labeled(*((a, b, 0.5) for a, b in rows), names="abco")
        for quality in (top_pair_quality, oracles.top_pair_quality):
            with pytest.raises(DomainError, match="^cosine is undefined for a zero vector$"):
                quality(matrix, pairs, labels, 1)

    def test_an_unknown_id_raises_before_an_earlier_zero_row(self, tmp_path, capsys):
        # the eval stage resolves every id, in load_labels, before top_pair_quality scores a pair
        out = tmp_path / "out"
        out.mkdir()
        (out / "space.csv").write_text("id,e1,e2\na,1.0,0.0\no,0.0,0.0\n", encoding="utf-8")
        p = labels_file(tmp_path, "a,o,2\na,zz,2\n")
        argv = ["--out-dir", str(out), "eval", "--space", "space.csv", "--labels", str(p), "--top-n", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {p}: line 3: id 'zz' not in corpus\n"

    def test_scores_all_pairs_in_one_cosine_call(self, monkeypatch):
        import semfuse.evalkit as evalkit

        calls = []
        pairwise = evalkit._pairwise_cosines
        monkeypatch.setattr(evalkit, "_pairwise_cosines", lambda *args: calls.append(1) or pairwise(*args))
        pairs, labels = labeled(("a", "b", 0.9), ("a", "d", 0.1), ("c", "d", 0.5))
        assert top_pair_quality(TOY, pairs, labels, top_n=2) == oracles.top_pair_quality(TOY, pairs, labels, 2)
        assert calls == [1]


class TestComponentSweep:
    def setup_method(self):
        rng = np.random.default_rng(17)
        self.matrix = rng.normal(size=(8, 4))
        self.pairs = np.array([(i, j) for i in range(8) for j in range(i + 1, 8)])
        self.labels = np.array([float(rng.integers(0, 5)) / 4.0 for _ in self.pairs])

    def sweep(self, features, condensed, k_list, top_n):
        variants = {"all_features": features, "condensed_time": condensed}
        return component_sweep(self.matrix, variants, self.pairs, self.labels, k_list, top_n)

    def test_cell_layout(self):
        features = np.random.default_rng(1).normal(size=(8, 7))
        condensed = features[:, :3]
        rows = self.sweep(features, condensed, k_list=[2, 3], top_n=5)
        assert len(rows) == 6
        variants, ks, mean_labels, n_pairs = zip(*rows)
        assert variants == (
            "all_features", "all_features",
            "condensed_time", "condensed_time",
            "pca_only", "pca_only",
        )
        assert ks == (2, 3, 2, 3, 2, 3)
        assert n_pairs == (5,) * 6
        assert all(0.0 <= mean_label <= 1.0 for mean_label in mean_labels)

    def test_constant_features_collapse_to_pca_only(self):
        # constant feature columns standardize to zero, so appending them
        # cannot change any cosine
        features = np.ones((8, 7))
        condensed = np.ones((8, 3))
        rows = self.sweep(features, condensed, k_list=[4], top_n=6)
        by_variant = {variant: mean_label for variant, _, mean_label, _ in rows}
        assert by_variant["all_features"] == pytest.approx(by_variant["pca_only"], abs=1e-9)
        assert by_variant["condensed_time"] == pytest.approx(by_variant["pca_only"], abs=1e-9)

    def test_one_pca_fit_per_sweep(self, monkeypatch):
        import semfuse.spectra as spectra

        fit = spectra.fit_pca
        calls = []
        monkeypatch.setattr(spectra, "fit_pca", lambda matrix, k: calls.append(k) or fit(matrix, k))
        features = np.random.default_rng(4).normal(size=(8, 7))
        self.sweep(features, features[:, :3], [2, 4, 3], top_n=4)
        assert calls == [4]

    def test_repeated_k_rejected(self):
        features = np.random.default_rng(5).normal(size=(8, 7))
        with pytest.raises(DomainError, match=r"^k=2 is repeated in the component counts$"):
            self.sweep(features, features[:, :3], [2, 3, 2], top_n=4)

    def test_deterministic(self):
        features = np.random.default_rng(2).normal(size=(8, 7))
        condensed = features[:, 2:5]
        a = self.sweep(features, condensed, [2], top_n=4)
        b = self.sweep(features, condensed, [2], top_n=4)
        assert a == b

    def test_sweep_csv(self, tmp_path):
        features = np.random.default_rng(3).normal(size=(8, 7))
        rows = self.sweep(features, features[:, :3], [2], top_n=4)
        out = tmp_path / "sweep.csv"
        save_sweep_csv(rows, out)
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "variant,k,mean_label,n_pairs"
        assert len(lines) == 1 + len(rows)
        first = lines[1].split(",")
        assert first[0] == "all_features"
        assert first[1] == "2"
        assert float(first[2]) == rows[0][2]


class TestCompareRankings:
    def test_identical_rankings(self):
        scores = np.array([[0.0, 0.8, 0.1], [0.8, 0.0, 0.3], [0.1, 0.3, 0.0]])
        r = rank_matrix(scores)
        loss, _ = compare_rankings(r, r)
        assert loss == 0.0

    def test_uniform_columns_flagged(self):
        # every row ranks item 1 first and item 2 last
        scores = np.array(
            [
                [0.0, 5.0, 1.0],
                [5.0, 0.0, 1.0],
                [1.0, 5.0, 0.0],
            ]
        )
        _, entropy = compare_rankings(rank_matrix(scores), rank_matrix(scores))
        assert entropy == (1.0, 0.0, 0.0)
        assert [j for j, h in enumerate(entropy) if h == 0.0] == [1, 2]

    def test_loss_matches_rank_loss(self):
        rng = np.random.default_rng(8)
        a = rank_matrix(rng.random((5, 5)))
        b = rank_matrix(rng.random((5, 5)))
        loss, _ = compare_rankings(a, b)
        assert loss == rank_loss(a, b)


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
        assert lines[2] == f"0,1,{int(r[0, 1])}"
        assert int(r[0, 1]) == 0
        assert int(r[0, 2]) == 1
