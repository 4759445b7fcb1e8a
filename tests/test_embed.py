import math
import re
import tracemalloc
import warnings

import numpy as np
import oracles
import pytest
from hypothesis import given, settings, strategies as st

from semfuse import embed
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
    token_saliences,
)
from semfuse.errors import (
    ConflictError,
    DomainError,
    FormatError,
    SemfuseError,
)
from semfuse.rankopt import DEFAULT_DIST_KINDS, SimilarityParams, pairwise_scores


def table_from(mapping: dict[str, list[float]]) -> WordVectorTable:
    dim = len(next(iter(mapping.values())))
    return WordVectorTable(dim, {t: np.asarray(v, dtype=float) for t, v in mapping.items()})


class TestLoadWordVectors:
    def test_two_lines_dim_3(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("cat 1.0 2.0 3.0\ndog 4.0 5.0 6.0\n", encoding="utf-8")
        table = load_word_vectors(p)
        assert table.dim == 3
        assert np.array_equal(table.vectors["dog"], [4.0, 5.0, 6.0])

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

    def test_one_value_on_every_line_rejected_at_line_1(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("cat 1.0\ndog 2.0\n", encoding="utf-8")
        with pytest.raises(FormatError, match=re.escape(f"{p}: line 1: need at least 2")):
            load_word_vectors(p)

    @pytest.mark.parametrize("line, error, message", [
        ("cat 1.0", FormatError, "expected 2 values"),  # ragged before repeated
        ("cat 1.0 x", ConflictError, "duplicate token"),  # repeated before non-numeric
        ("dog 1.0", FormatError, "expected 2 values"),  # ragged before non-numeric
        ("dog nan x", FormatError, "non-numeric"),  # non-numeric before non-finite
    ])
    def test_check_order_within_a_line(self, tmp_path, line, error, message):
        p = tmp_path / "v.txt"
        p.write_text(f"cat 1.0 2.0\n{line}\n", encoding="utf-8")
        with pytest.raises(error, match=f"line 2: {message}"):
            load_word_vectors(p)
        with pytest.raises(error, match="line 2"):
            oracles.load_word_vectors(p)

    def test_errors_name_the_file(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("cat 1.0 2.0\ndog 1.0 x\n", encoding="utf-8")
        with pytest.raises(FormatError, match=re.escape(f"{p}: line 2: non-numeric")):
            load_word_vectors(p)
        p.write_text("cat 1.0 2.0\n\ncat 3.0 4.0\n", encoding="utf-8")
        with pytest.raises(ConflictError, match=re.escape(f"{p}: line 3: duplicate token 'cat'")):
            load_word_vectors(p)

    def test_vectors_are_rows_of_one_matrix_in_file_order(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(40, 7))
        p = tmp_path / "v.txt"
        p.write_text("".join(f"w{i} " + " ".join(map(repr, row.tolist())) + "\n"
                             for i, row in enumerate(values)), encoding="utf-8")
        table = load_word_vectors(p)
        assert list(table.vectors) == [f"w{i}" for i in range(40)]
        assert np.array_equal(np.array(list(table.vectors.values())), values)
        base = table.vectors["w0"].base
        assert base is not None and all(v.base is base for v in table.vectors.values())

    def test_streams_the_file(self, tmp_path):
        # the file is about as large as its matrix; holding both at once would
        # show as a peak of twice the matrix
        values = np.random.default_rng(5).normal(size=(1000, 200)).round(6)
        p = tmp_path / "v.txt"
        p.write_text("".join(f"w{i} " + " ".join(map(repr, row.tolist())) + "\n"
                             for i, row in enumerate(values)), encoding="utf-8")
        assert p.stat().st_size > 0.8 * values.nbytes
        tracemalloc.start()
        try:
            load_word_vectors(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.4 * values.nbytes

    def test_bulk_and_line_reads_disagreeing_still_raise(self, tmp_path, monkeypatch):
        p = tmp_path / "v.txt"
        p.write_text("cat 1.0 2.0\n", encoding="utf-8")
        monkeypatch.setattr(embed, "bulk_rows", lambda *args, **kwargs: None)
        with pytest.raises(FormatError, match=re.escape(f"{p}: word vectors could not be read")):
            load_word_vectors(p)

    @pytest.mark.parametrize("value, as_float", [("1_0", 10.0), ("١٢", 12.0)])
    def test_number_grammar_is_numpys(self, tmp_path, value, as_float):
        # float() reads digit separators and non-ASCII digits; numpy's parser does not
        assert float(value) == as_float
        p = tmp_path / "v.txt"
        p.write_text(f"cat 1.0 2.0\ndog 3.0 {value}\n", encoding="utf-8")
        assert np.array_equal(oracles.load_word_vectors(p).vectors["dog"], [3.0, as_float])
        with pytest.raises(FormatError, match=re.escape(f"{p}: line 2: non-numeric value")):
            load_word_vectors(p)


class TestNotUtf8:
    # the reader decodes in blocks of about 8 KB: the size of the file must not decide which fault is first
    @pytest.mark.parametrize("padding", [10, 5000])
    @pytest.mark.parametrize("row, reason", [
        ("w 1.0", "expected 2 values, got 1$"),
        ("p3 1.0 2.0", "duplicate token 'p3'$"),
        ("w 1.0 zz", "non-numeric value$"),
    ])
    def test_a_fault_before_the_line_comes_first(self, tmp_path, padding, row, reason):
        p = tmp_path / "v.txt"
        rows = "".join(f"p{i} 1.0 2.0\n" for i in range(padding))
        p.write_bytes(f"{rows}{row}\n".encode() + b"\xff 1.0 2.0\n")
        with pytest.raises(SemfuseError, match=f"^{re.escape(str(p))}: line {padding + 1}: {reason}"):
            load_word_vectors(p)

    def test_a_first_line_fault_comes_first(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_bytes(b"cat 1.0\n" + b"dog 1.0 2.0\n" * 10 + b"\xff 1.0\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(p))}: line 1: need at least 2 vector values"):
            load_word_vectors(p)


TOKEN = st.text(alphabet="abcxyz_-'.0123456789é日", min_size=1, max_size=6)
NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e4, 1e4).map(lambda v: f"{v:.4f}"),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:+.6E}"),
    st.integers(-(10**20), 10**20).map(str),
)
GAP = st.text(alphabet=" \t\x0c", min_size=1, max_size=3)
EDGE = st.sampled_from(["", " ", "\t", "\x0c", " \t\x0c "])
BLANK = st.sampled_from(["", " ", "\t\t", "\x0c", " \x0c\t "])
NEWLINE = st.sampled_from(["\n", "\r\n"])
NON_NUMERIC = st.sampled_from(["x", "1..2", "1e", "--1", "1,5", "0x10", "one"])
NON_FINITE = st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e999", "-1e999"])
FAULTS = ("token_only", "one_value_first", "ragged", "non_numeric", "non_finite", "duplicate")


@st.composite
def table_lines(draw, min_rows=1):
    """(token, [value texts]) rows of a well-formed table."""
    dim = draw(st.integers(2, 5))
    tokens = draw(st.lists(TOKEN, min_size=min_rows, max_size=8, unique=True))
    return [(tok, draw(st.lists(NUMBER, min_size=dim, max_size=dim))) for tok in tokens]


@st.composite
def table_text(draw, rows):
    """Lay rows out with runs of spaces, tabs and form feeds, blank lines and CRLF."""
    lines = []
    for token, values in rows:
        lines.extend(draw(st.lists(BLANK, max_size=2)))
        gaps = draw(st.lists(GAP, min_size=len(values), max_size=len(values)))
        body = token + "".join(gap + value for gap, value in zip(gaps, values))
        lines.append(draw(EDGE) + body + draw(EDGE))
    lines.extend(draw(st.lists(BLANK, max_size=2)))
    newline = draw(NEWLINE)
    return newline.join(lines) + (newline if draw(st.booleans()) else "")


@st.composite
def malformed_rows(draw):
    """A table with one or two faults, each on a row of its own.

    Two faults on one row could cancel (a dropped and an appended value),
    so each fault takes a row no other fault touches. one_value_first
    takes row 0; a ragged or repeated line is never the first.
    """
    faults = draw(st.lists(st.sampled_from(FAULTS), min_size=1, max_size=2))
    rows = draw(table_lines(min_rows=len(faults) + 1))
    taken = {0} if "one_value_first" in faults else set()
    for fault in faults:
        if fault == "one_value_first":
            rows[0] = (rows[0][0], rows[0][1][:1])
            continue
        first = 1 if fault in ("ragged", "duplicate") else 0
        k = draw(st.sampled_from([i for i in range(first, len(rows)) if i not in taken]))
        taken.add(k)
        token, values = rows[k]
        if fault == "token_only":
            rows[k] = (token, [])
        elif fault == "ragged":
            rows[k] = (token, values[:-1] if draw(st.booleans()) else values + [draw(NUMBER)])
        elif fault == "duplicate":
            rows[k] = (rows[draw(st.integers(0, k - 1))][0], values)
        else:
            bad = draw(NON_NUMERIC if fault == "non_numeric" else NON_FINITE)
            j = draw(st.integers(0, len(values)))
            rows[k] = (token, values[:j] + [bad] + values[j + 1:])
    return rows


def first_fault(loader, path):
    with pytest.raises(SemfuseError) as info:
        loader(path)
    line = re.search(r"line (\d+)", str(info.value))
    return type(info.value), line and int(line.group(1))


# the whitespace-split reader against the float loop, on text the number
# grammar does not decide: each case's table (None) or first fault
WHITESPACE_CASES = {
    "quote in a token": ('say" 1 2\n"q 3 4\n', None),
    "comma and quote in a token": (',"a 1 2\nb," 3 4\n', None),
    "hash in a token": ("#c 1 2\nd# 3 4\n", None),
    "hash after the values": ("a 1 2\nb 3 4 #\n", (FormatError, 2)),
    "repeated token with a quote": ('a" 1 2\na" 3 4\n', (ConflictError, 2)),
    "tabs": ("a\t1\t2\nb 3\t\t4\n", None),
    "no-break spaces": ("a\xa01\xa02\nb 3 4\n", None),
    "ideographic spaces": ("a\u30001\u30002\n", None),
    "vertical tabs": ("a\x0b1 2\nb 3\x0b4\x0b\n", None),
    "CRLF": ("a 1 2\r\nb 3 4\r\n", None),
    "lone CR": ("a 1 2\rb 3 4\r", None),
    "mixed line ends": ("a 1 2\r\nb 3 4\rc 5 6\n", None),
    "ragged after lone CR": ("a 1 2\rb 3\r", (FormatError, 2)),
    "blank lines around and between": ("\n  \n a 1 2\n\n\t\nb 3 4\n \n\n", None),
    "blank CRLF lines": ("\r\n \r\na 1 2\r\n\r\nb 3 4", None),
    "token-only line": ("a 1 2\nb\nc 3 4\n", (FormatError, 2)),
    "token-only first line": ("\na\nb 1 2\n", (FormatError, 2)),
    "token-only lines only": ("a\nb\n", (FormatError, 1)),
    "one value per line": ("a 1\nb 2\nc 3\n", (FormatError, 1)),
    "one value per line after a blank": ("\r\na 1\rb 2\r", (FormatError, 2)),
}


def read_outcome(loader, path):
    """(dim, [(token, values)]) of the table the loader reads, or its first fault."""
    try:
        table = loader(path)
    except SemfuseError:
        return first_fault(loader, path)
    return table.dim, [(token, vector.tolist()) for token, vector in table.vectors.items()]


class TestLoadWordVectorsAgainstOracle:
    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("vectors") / "v.txt"

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_equals_the_float_loop(self, path, data):
        path.write_bytes(data.draw(table_text(data.draw(table_lines()))).encode("utf-8"))
        table, expected = load_word_vectors(path), oracles.load_word_vectors(path)
        assert table.dim == expected.dim
        assert list(table.vectors) == list(expected.vectors)
        for token, vector in expected.vectors.items():
            assert np.array_equal(table.vectors[token], vector)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_malformed_raise_as_the_float_loop(self, path, data):
        path.write_bytes(data.draw(table_text(data.draw(malformed_rows()))).encode("utf-8"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = first_fault(load_word_vectors, path)
        assert caught == []
        assert got == first_fault(oracles.load_word_vectors, path)
        with pytest.raises(SemfuseError, match=re.escape(str(path))):
            load_word_vectors(path)

    @pytest.mark.parametrize("case", sorted(WHITESPACE_CASES))
    def test_whitespace_cases_read_as_the_float_loop(self, tmp_path, case):
        text, fault = WHITESPACE_CASES[case]
        p = tmp_path / "v.txt"
        p.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = read_outcome(load_word_vectors, p)
        assert caught == []
        assert got == read_outcome(oracles.load_word_vectors, p)
        assert (got if fault else None) == fault

    @settings(max_examples=20, deadline=None)
    @given(text=st.lists(BLANK, max_size=4).flatmap(
        lambda lines: NEWLINE.map(lambda nl: nl.join(lines))))
    def test_empty_or_blank_file(self, path, text):
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(FormatError, match="no word vector entries"):
                load_word_vectors(path)
        assert caught == []
        with pytest.raises(FormatError, match="no word vector entries"):
            oracles.load_word_vectors(path)


class TestFitContext:
    def test_single_repeated_vector(self):
        table = table_from({"a": [1.0, 2.0], "b": [1.0, 2.0]})
        docs = [("d1", ("a", "b", "a"))]
        ctx = fit_context(docs, table, ridge=0.25)
        assert np.allclose(ctx.mean, [1.0, 2.0])
        assert np.allclose(ctx.covariance, 0.25 * np.eye(2))

    def test_opposite_vectors_mean_zero(self):
        table = table_from({"p": [3.0, -1.0], "q": [-3.0, 1.0]})
        ctx = fit_context([("d", ("p", "q"))], table, ridge=0.0)
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
        docs = [("d1", ("a", "b", "c")), ("d2", ("d", "a"))]
        ridge = 0.01
        ctx = fit_context(docs, table, ridge=ridge)

        # two-pass oracle with multiplicity
        toks = ["a", "b", "c", "d", "a"]
        vecs = [table.vectors[t] for t in toks]
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
            fit_context([("d", ("zzz",))], table)

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=40)
    def test_covariance_brute_force_invariant(self, seed):
        rng = np.random.default_rng(seed)
        n_tokens = int(rng.integers(2, 30))
        dim = int(rng.integers(2, 6))
        names = [f"w{i}" for i in range(n_tokens)]
        table = WordVectorTable(dim, {n: rng.normal(size=dim) for n in names})
        docs = [("d", tuple(names))]
        ridge = float(rng.uniform(0, 0.1))
        ctx = fit_context(docs, table, ridge=ridge)
        vecs = np.stack([table.vectors[n] for n in names])
        centered = vecs - vecs.mean(axis=0)
        oracle = centered.T @ centered / n_tokens + ridge * np.eye(dim)
        assert np.allclose(ctx.covariance, oracle, atol=1e-9)


class TestWordSalience:
    def test_center_token_zero(self):
        table = table_from({"mid": [2.0, 3.0]})
        ctx = ContextModel(np.array([2.0, 3.0]), np.eye(2), 0.0)
        assert token_saliences(["mid"], ctx, table) == {"mid": 0.0}

    def test_identity_metric_is_euclidean(self):
        table = table_from({"far": [3.0, 4.0]})
        ctx = ContextModel(np.zeros(2), np.eye(2), 0.0)
        assert token_saliences(["far"], ctx, table)["far"] == pytest.approx(5.0, abs=1e-12)

    def test_diagonal_metric_hand_value(self):
        table = table_from({"w": [2.0, 1.0]})
        ctx = ContextModel(np.zeros(2), np.diag([4.0, 1.0]), 0.0)
        assert token_saliences(["w"], ctx, table)["w"] == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_unknown_token_skipped(self):
        table = table_from({"w": [1.0, 0.0]})
        ctx = ContextModel(np.zeros(2), np.eye(2), 0.0)
        assert token_saliences(["absent"], ctx, table) == {}
        assert list(token_saliences(["absent", "w"], ctx, table)) == ["w"]

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        vecs = {f"w{i}": rng.normal(size=3) for i in range(6)}
        offset = np.array([10.0, -4.0, 2.5])
        table_a = WordVectorTable(3, dict(vecs))
        table_b = WordVectorTable(3, {k: v + offset for k, v in vecs.items()})
        docs = [("d", tuple(vecs))]
        ctx_a = fit_context(docs, table_a, ridge=0.01)
        ctx_b = fit_context(docs, table_b, ridge=0.01)
        saliences_a = token_saliences(vecs, ctx_a, table_a)
        saliences_b = token_saliences(vecs, ctx_b, table_b)
        for tok in vecs:
            assert saliences_a[tok] == pytest.approx(saliences_b[tok], abs=1e-6)


def salience_corpus(seed: int, dim: int, n_docs: int, vocab: int = 12):
    """Random docs over a small vocabulary, with repeats, an unknown token and
    a token that sits exactly on the context mean."""
    rng = np.random.default_rng(seed)
    names = [f"w{i}" for i in range(vocab)]
    vectors = {n: rng.normal(size=dim) for n in names}
    docs = [
        (f"d{i}", (names[i % vocab], *rng.choice(names + ["oov"], size=int(rng.integers(0, 8)))))
        for i in range(n_docs)
    ]
    ctx = fit_context(docs, WordVectorTable(dim, vectors), ridge=0.01)
    table = WordVectorTable(dim, {**vectors, "mid": ctx.mean.copy()})
    docs.append(("at_mean", ("mid", "oov", "mid")))
    return docs, ctx, table


SINGULAR = ContextModel(np.ones(2), np.zeros((2, 2)), 0.0)
SINGULAR_TABLE = table_from({"a": [1.0, 2.0], "z": [1.0, 1.0]})


class TestTokenSaliences:
    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from([2, 3, 8, 50]))
    @settings(max_examples=30, deadline=None)
    def test_matches_per_occurrence_oracle(self, seed, dim):
        docs, ctx, table = salience_corpus(seed, dim, 6)
        tokens = [t for _, doc_tokens in docs for t in doc_tokens]
        got = token_saliences(tokens, ctx, table)
        assert list(got) == list(dict.fromkeys(t for t in tokens if t in table.vectors))
        for token, value in got.items():
            want = oracles.word_salience(token, ctx, table)
            assert abs(value - want) <= 1e-12 * want
        assert got["mid"] == 0.0

    def test_embed_corpus_matches_per_occurrence_oracle(self):
        docs, ctx, table = salience_corpus(7, 8, 20)
        space, fallback_ids = embed_corpus(docs, ctx, table)
        for (_, doc_tokens), row in zip(docs, space.matrix):
            known = [t for t in doc_tokens if t in table.vectors]
            weights = np.array([oracles.word_salience(t, ctx, table) for t in known])
            stack = np.array([table.vectors[t] for t in known])
            mean = stack.mean(axis=0) if weights.sum() == 0.0 else weights @ stack / weights.sum()
            assert np.allclose(row, mean / np.linalg.norm(mean), rtol=0.0, atol=1e-12)
        assert fallback_ids == ("at_mean",)

    def test_word_salience_reads_the_map(self):
        # a token's salience alone is its entry in the map of a whole corpus, up to the solve's rounding
        docs, ctx, table = salience_corpus(8, 3, 4)
        tokens = [t for _, doc_tokens in docs for t in doc_tokens]
        everything = token_saliences(tokens, ctx, table)
        for token in ("w0", "w1", "mid"):
            alone = token_saliences([token], ctx, table)
            assert list(alone) == [token]
            assert abs(alone[token] - everything[token]) <= 1e-12 * everything[token]
        assert everything["mid"] == 0.0
        assert "oov" in tokens and "oov" not in everything
        assert token_saliences(["oov"], ctx, table) == {}

    def test_embed_sentence_uses_a_given_map(self):
        table = table_from({"x": [1.0, 0.0], "y": [0.0, 2.0]})
        ctx = ContextModel(np.zeros(2), np.eye(2), 0.0)
        vector, fallback = embed_sentence(["x", "y"], ctx, table, {"x": 1.0, "y": 0.0})
        assert np.array_equal(vector, [1.0, 0.0]) and not fallback
        assert embed_sentence(["x", "y"], ctx, table, {"x": 0.0, "y": 0.0})[1]

    @pytest.mark.parametrize("n_docs", [1, 5, 60])
    def test_one_solve_per_corpus(self, n_docs, monkeypatch):
        docs, ctx, table = salience_corpus(9, 6, n_docs)
        solve = np.linalg.solve
        calls = []

        def counted(a, b):
            calls.append(np.shape(b))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        embed_corpus(docs, ctx, table)
        assert len(calls) == 1

    def test_singular_metric_message(self):
        message = r"^context metric is singular; increase ridge$"
        with pytest.raises(DomainError, match=message):
            token_saliences(["z", "a"], SINGULAR, SINGULAR_TABLE)
        with pytest.raises(DomainError, match=message):
            oracles.word_salience("a", SINGULAR, SINGULAR_TABLE)
        # tokens on the mean need no solve, so they never meet the singular metric
        assert token_saliences(["z", "z"], SINGULAR, SINGULAR_TABLE) == {"z": 0.0}

    def test_singular_metric_is_a_fault_of_the_corpus(self):
        # the metric belongs to the whole corpus, so no record is named, and
        # the fault comes before any record's own
        docs = [("flat", ("z",)), ("moved", ("z", "a")), ("later", ("a",))]
        with pytest.raises(DomainError, match=r"^context metric is singular; increase ridge$"):
            embed_corpus(docs, SINGULAR, SINGULAR_TABLE)
        docs = [("none", ("oov",))] + docs
        with pytest.raises(DomainError, match=r"^context metric is singular; increase ridge$"):
            embed_corpus(docs, SINGULAR, SINGULAR_TABLE)
        # tokens on the mean need no solve, so a corpus of them embeds
        space, fallback_ids = embed_corpus([("flat", ("z",))], SINGULAR, SINGULAR_TABLE)
        assert space.ids == ("flat",) and fallback_ids == ("flat",)
        # a record's own fault names the record
        identity = ContextModel(np.zeros(2), np.eye(2), 0.0)
        with pytest.raises(DomainError, match=r"^record 'none': no in-vocabulary tokens in sentence$"):
            embed_corpus([("some", ("a",)), ("none", ("oov",))], identity, SINGULAR_TABLE)


class TestEmbedSentence:
    def test_single_token_normalized(self):
        table = table_from({"solo": [3.0, 4.0]})
        ctx = ContextModel(np.zeros(2), np.eye(2), 0.0)
        vector, fallback = embed_sentence(["solo"], ctx, table)
        assert np.allclose(vector, [0.6, 0.8])
        assert not fallback

    def test_repetition_invariant(self):
        table = table_from({"a": [1.0, 2.0], "b": [0.0, 1.0]})
        ctx = ContextModel(np.zeros(2), np.eye(2), 0.0)
        once, _ = embed_sentence(["a", "b"], ctx, table)
        twice, _ = embed_sentence(["a", "a", "b", "b"], ctx, table)
        assert np.allclose(once, twice, atol=1e-12)

    def test_hand_weighted_mean(self):
        # identity metric: weights are plain distances from the origin
        table = table_from({"x": [1.0, 0.0], "y": [0.0, 2.0]})
        ctx = ContextModel(np.zeros(2), np.eye(2), 0.0)
        vector, _ = embed_sentence(["x", "y"], ctx, table)
        weighted = 1.0 * np.array([1.0, 0.0]) + 2.0 * np.array([0.0, 2.0])
        weighted /= 3.0
        expect = weighted / np.linalg.norm(weighted)
        assert np.allclose(vector, expect, atol=1e-12)

    def test_out_of_vocabulary_skipped(self):
        table = table_from({"known": [1.0, 1.0]})
        ctx = ContextModel(np.zeros(2), np.eye(2), 0.0)
        vector, _ = embed_sentence(["known", "mystery"], ctx, table)
        assert np.allclose(vector, np.array([1.0, 1.0]) / math.sqrt(2.0))

    def test_no_vocabulary_rejected(self):
        table = table_from({"known": [1.0, 1.0]})
        ctx = ContextModel(np.zeros(2), np.eye(2), 0.0)
        with pytest.raises(DomainError):
            embed_sentence(["mystery"], ctx, table)

    def test_zero_salience_falls_back_to_plain_mean(self):
        table = table_from({"a": [2.0, 2.0], "b": [2.0, 2.0]})
        docs = [("d", ("a", "b"))]
        ctx = fit_context(docs, table, ridge=0.0)
        vector, fallback = embed_sentence(["a", "b"], ctx, table)
        assert fallback
        assert np.allclose(vector, np.array([2.0, 2.0]) / math.hypot(2.0, 2.0))

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=40)
    def test_unit_norm_invariant(self, seed):
        rng = np.random.default_rng(seed)
        names = [f"w{i}" for i in range(int(rng.integers(2, 10)))]
        table = WordVectorTable(3, {n: rng.normal(size=3) for n in names})
        ctx = fit_context([("d", tuple(names))], table)
        vector, _ = embed_sentence(names, ctx, table)
        assert abs(np.linalg.norm(vector) - 1.0) < 1e-9


def sim_cosal(a: np.ndarray, b: np.ndarray) -> float:
    """The text term of the scorer: a pair's sigma score with both alphas 0."""
    params = SimilarityParams("sigma", (0.0, 0.0), DEFAULT_DIST_KINDS)
    same = (np.zeros(2), np.zeros((2, 2)))  # two records at one day and place
    return float(pairwise_scores(np.array([a, b]), same, params)[0, 1])


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

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_cell_names_file_and_row(self, tmp_path, cell):
        p = tmp_path / "emb.csv"
        p.write_text(f"id,e1,e2\na,1.0,2.0\nb,3.0,4.0\nc,{cell},5.0\nd,{cell},{cell}\n",
                     encoding="utf-8")
        with pytest.raises(FormatError, match=re.escape(f"{p}: line 4: non-finite value")):
            import_embeddings(p)

    def test_structure_errors_come_before_non_finite_cells(self, tmp_path):
        p = tmp_path / "emb.csv"
        p.write_text("id,e1,e2\na,nan,2.0\nb,3.0\n", encoding="utf-8")
        with pytest.raises(FormatError, match=re.escape(f"{p}: line 3: expected 3 fields, got 2")):
            import_embeddings(p)


class TestEmbedCorpus:
    def test_ids_follow_docs(self):
        table = table_from({"a": [1.0, 0.0], "b": [0.0, 1.0], "c": [1.0, 1.0]})
        docs = [("d1", ("a", "b")), ("d2", ("c",))]
        ctx = fit_context(docs, table)
        space, fallback_ids = embed_corpus(docs, ctx, table)
        assert space.ids == ("d1", "d2")
        assert space.matrix.shape == (2, 2)
        assert fallback_ids == ()

    def test_empty_doc_names_id(self):
        table = table_from({"a": [1.0, 0.0]})
        docs = [("ok", ("a",)), ("empty", ())]
        ctx = fit_context(docs, table)
        with pytest.raises(DomainError, match="empty"):
            embed_corpus(docs, ctx, table)

    def test_repeated_id_rejected(self):
        # the pairs are a list, not a map: a repeated id is refused, not merged
        table = table_from({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        docs = [("d", ("a",)), ("d", ("b",))]
        with pytest.raises(DomainError, match="duplicate ids in embedding space"):
            embed_corpus(docs, fit_context(docs, table), table)
