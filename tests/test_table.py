import ast
import dataclasses
import re
import warnings
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import given, settings, strategies as st

from semfuse import embed, evalkit, geotime, rankopt, spectra, table, tsne
from semfuse.cli import load_config
from semfuse.corpus import load_corpus, load_gazetteer
from semfuse.embed import EmbeddingSpace, export_embeddings, import_embeddings, load_word_vectors
from semfuse.errors import ConflictError, FormatError, SemfuseError
from semfuse.evalkit import SweepCell, load_labels
from semfuse.geotime import load_feature_matrix, save_feature_matrix
from semfuse.rankopt import load_rank_labels, rank_matrix
from semfuse.spectra import DeltaCosineResult
from semfuse.stopwords import load_stopwords
from semfuse.tsne import load_colors

# floats whose shortest repr is easy to get wrong: signed zero, subnormals,
# the exponent switch at 1e16 and 1e-4, and the extremes
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.5e-310, -2.2250738585072014e-308, 1e16, -1e16,
               9999999999999998.0, 1e-05, 9.999e-05, 0.1, 1 / 3, 1.7976931348623157e308]
FLOAT = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
# ids csv has to quote (a comma, a quote, line breaks), padding, and any other text
ID = st.one_of(
    st.sampled_from(["a,b", 'say "hi"', "two\nlines", "cr\r\nlf", " padded ", "", "é日"]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=6),
)


def matrices(columns, min_rows=0):
    return st.lists(st.lists(FLOAT, min_size=columns, max_size=columns),
                    min_size=min_rows, max_size=6).map(lambda rows: np.array(rows).reshape(-1, columns))


def bits(matrix):
    return np.ascontiguousarray(matrix, dtype=float).view(np.uint64)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def fault(path, line, reason):
    return f"^{re.escape(str(path))}: line {line}: {reason}"


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("table") / "t.csv"


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_embeddings_round_trip_bit_for_bit(self, path, data):
        matrix = data.draw(matrices(data.draw(st.integers(1, 4))))
        ids = tuple(data.draw(st.lists(ID, min_size=len(matrix), max_size=len(matrix), unique=True)))
        export_embeddings(EmbeddingSpace(ids, matrix), path)
        loaded = import_embeddings(path)
        assert loaded.ids == ids
        assert loaded.matrix.shape == matrix.shape
        assert np.array_equal(bits(loaded.matrix), bits(matrix))

    @settings(max_examples=60, deadline=None)
    @given(matrix=matrices(3))
    def test_features_round_trip_bit_for_bit(self, path, matrix):
        save_feature_matrix(path, matrix, "condensed_time")
        loaded, variant = load_feature_matrix(path)
        assert variant == "condensed_time"
        assert loaded.shape == matrix.shape
        assert np.array_equal(bits(loaded), bits(matrix))

    def test_every_edge_float_prints_as_its_repr(self, path):
        export_embeddings(EmbeddingSpace(("x",), np.array([EDGE_FLOATS])), path)
        cells = path.read_text(encoding="utf-8").splitlines()[1].split(",")[1:]
        assert cells == [repr(v) for v in EDGE_FLOATS]


MODULES = {"embed": embed, "geotime": geotime, "rankopt": rankopt, "tsne": tsne,
           "evalkit": evalkit, "spectra": spectra}


def writer_args(matrix, ids, path):
    """The arguments of every numeric-table writer, writing one matrix to path."""
    m = len(matrix)
    rows = [(r + 1, *values) for r, values in enumerate(matrix)]  # numpy scalars, on purpose
    cells = tuple(SweepCell("pca_only", r, float(row[0]), 3) for r, row in enumerate(matrix))
    deltas = [DeltaCosineResult(r, float(a), float(b)) for r, (_, a, b) in enumerate(matrix)]
    return {
        "embed.export_embeddings": (EmbeddingSpace(ids, matrix), path),
        "geotime.save_feature_matrix": (path, matrix, "condensed_time"),
        "rankopt.save_trace_csv": (rows, path),
        "tsne.write_coords_csv": (ids, matrix[:, :2], path),
        "tsne.write_trace_csv": (matrix[:, 0], path),
        "evalkit.save_sweep_csv": (cells, path),
        "evalkit.save_rank_heatmap": (rank_matrix(np.random.default_rng(m).random((m, m))), path),
        "spectra.save_delta_csv": (deltas, path),
    }


def assert_writers_match_their_oracles(matrix, ids, path):
    old = path.with_name("old.csv")
    calls = writer_args(matrix, ids, path)
    assert set(calls) == set(oracles.WRITERS)
    for name, args in calls.items():
        module, function = name.split(".")
        getattr(MODULES[module], function)(*args)
        oracles.WRITERS[name](*(old if arg is path else arg for arg in args))
        assert path.read_bytes() == old.read_bytes(), name


class TestWritersMatchTheirOldBytes:
    @settings(max_examples=80, deadline=None)
    @given(matrix=matrices(3, min_rows=2), data=st.data())
    def test_each_writer_equals_its_per_cell_oracle(self, path, matrix, data):
        ids = tuple(data.draw(st.lists(ID, min_size=len(matrix), max_size=len(matrix), unique=True)))
        assert_writers_match_their_oracles(matrix, ids, path)

    def test_float32_input_prints_as_before(self, path):
        # csv prints a numpy scalar with str(), which for float32 is not the float64 repr
        matrix = np.array([[0.1, -2.5, 1e-3], [3.3, 0.0, 7.7]], dtype=np.float32)
        assert_writers_match_their_oracles(matrix, ("a", "b"), path)


def rater_labels(path):
    """load_labels over every id these tests' label files name: a, b, and a<i>, b<i> for i below 5000."""
    return load_labels(path, 4.0, ["a", "b", *(f"{side}{i}" for i in range(5000) for side in "ab")])


# (reader, file text with the cell {} on line 2); each reads its own layout
GRAMMAR_READERS = {
    "word vectors": (load_word_vectors, "cat 1.0 2.0\ndog 3.0 {}\n"),
    "embeddings": (import_embeddings, "id,e1,e2\na,3.0,{}\n"),
    "features": (load_feature_matrix, "time_seconds,lat,lon\n{},1.0,2.0\n"),
    "matrix labels": (load_rank_labels, "0.0,0.5\n0.5,{}\n"),
    "triplet labels": (load_rank_labels, "i,j,score\n0,1,{}\n"),
    "rater labels": (rater_labels, "id_a,id_b,score_1\na,b,{}\n"),
}
VERDICTS = {"1_0": "non-numeric", "١٢": "non-numeric", "0x10": "non-numeric",
            "nan": "non-finite", "1e999": "non-finite"}


class TestOneGrammar:
    @pytest.mark.parametrize("cell", sorted(VERDICTS))
    @pytest.mark.parametrize("reader", sorted(GRAMMAR_READERS))
    def test_every_reader_gives_the_same_verdict(self, tmp_path, reader, cell):
        load, text = GRAMMAR_READERS[reader]
        p = write(tmp_path / "t.csv", text.format(cell))
        with pytest.raises(FormatError, match=fault(p, 2, f"{VERDICTS[cell]} value$")):
            load(p)

    @pytest.mark.parametrize("reader", sorted(GRAMMAR_READERS))
    def test_every_reader_accepts_the_plain_spellings(self, tmp_path, reader):
        load, text = GRAMMAR_READERS[reader]
        for cell in ["1", "0.5", "+1e0", "1.", ".5e-0"]:
            load(write(tmp_path / "t.csv", text.format(cell)))

    @pytest.mark.parametrize("cells, verdict", [
        (["1.5", "-0.0", " 1e-320 "], None),
        (["1", ""], "non-numeric"),
        ([""], "non-numeric"),
        (["1 2"], "non-numeric"),
        (["1,2"], "non-numeric"),
        (["1\n2"], "non-numeric"),
        (["1", "-inf"], "non-finite"),
    ])
    def test_parse_floats_reads_exactly_one_number_per_cell(self, cells, verdict):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if verdict is None:
                values = table.parse_floats("f: line 1", cells)
                assert np.array_equal(bits(values), bits([float(c) for c in cells]))
            else:
                with pytest.raises(FormatError, match=f"^f: line 1: {verdict} value$"):
                    table.parse_floats("f: line 1", cells)
        assert caught == []


# (reader, header line or "", whether rows start with an id); three fields a row
TABLE_READERS = {
    "embeddings": (import_embeddings, "id,e1,e2\n", True),
    "features": (load_feature_matrix, "time_seconds,lat,lon\n", False),
    "matrix labels": (load_rank_labels, "", False),
}


def table_text(reader, bad):
    """A good three-row table in `reader`'s layout; row i's numbers replaced by bad[i]."""
    _, header, ids = TABLE_READERS[reader]
    good = [["0.0", "0.5", "0.25"], ["0.5", "0.0", "0.75"], ["0.25", "0.75", "0.0"]]
    rows = [[f"r{i}"] * ids + bad.get(i, values[ids:]) for i, values in enumerate(good)]
    return header + "".join(",".join(row) + "\n" for row in rows)


class TestTableFaults:
    @pytest.mark.parametrize("reader", sorted(TABLE_READERS))
    @pytest.mark.parametrize("extra, cell, reason", [
        (-1, "0.5", "expected 3 fields, got 2$"),
        (1, "0.5", "expected 3 fields, got 4$"),
        (0, "x", "non-numeric value$"),
        (0, "inf", "non-finite value$"),
    ])
    def test_fault_names_file_and_line(self, tmp_path, reader, extra, cell, reason):
        load, header, ids = TABLE_READERS[reader]
        numbers = [cell] + ["0.5"] * (2 - ids + extra)
        p = write(tmp_path / "t.csv", table_text(reader, {1: numbers}))
        with pytest.raises(FormatError, match=fault(p, 3 if header else 2, reason)):
            load(p)

    @pytest.mark.parametrize("reader", sorted(TABLE_READERS))
    def test_field_counts_come_before_values_and_values_in_file_order(self, tmp_path, reader):
        load, header, ids = TABLE_READERS[reader]
        first = 2 if header else 1
        bad = {0: ["nan"] * (3 - ids), 1: ["x"] * (3 - ids)}
        p = write(tmp_path / "t.csv", table_text(reader, bad))
        with pytest.raises(FormatError, match=fault(p, first, "non-finite value$")):
            load(p)
        p = write(tmp_path / "t.csv", table_text(reader, {**bad, 2: ["0.5"]}))
        with pytest.raises(FormatError, match=fault(p, first + 2, "expected 3 fields")):
            load(p)

    def test_repeated_id_comes_before_values(self, tmp_path):
        p = write(tmp_path / "e.csv", "id,e1\na,x\nb,1.0\na,2.0\n")
        with pytest.raises(ConflictError, match=fault(p, 4, "duplicate id 'a'$")):
            import_embeddings(p)

    def test_quoted_comma_in_every_row_is_non_numeric(self, tmp_path):
        # joined with commas, every row would read as one number wider
        p = write(tmp_path / "e.csv", 'id,e1\na,"1,5"\nb,"2,5"\n')
        with pytest.raises(FormatError, match=fault(p, 2, "non-numeric value$")):
            import_embeddings(p)

    def test_blank_rows_are_skipped_and_lines_still_counted(self, tmp_path):
        p = write(tmp_path / "e.csv", "\nid,e1\n\na,1.0\n , \nb,x\n")
        with pytest.raises(FormatError, match=fault(p, 6, "non-numeric value$")):
            import_embeddings(p)
        p = write(tmp_path / "e.csv", "\nid,e1\n\na,1.0\n , \nb,2.0\n\n")
        assert import_embeddings(p).matrix.tolist() == [[1.0], [2.0]]

    def test_quoted_ids_keep_their_line_numbers(self, tmp_path):
        p = write(tmp_path / "e.csv", 'id,e1\n"two\nlines",1.0\nb,x\n')
        with pytest.raises(FormatError, match=fault(p, 4, "non-numeric value$")):
            import_embeddings(p)


# (reader, text) for empty and header-only files; each must raise a named
# error or return an empty result, and warn about nothing
QUIET_CASES = {
    "word vectors, empty": (load_word_vectors, ""),
    "embeddings, empty": (import_embeddings, ""),
    "embeddings, header only": (import_embeddings, "id,e1,e2\n"),
    "embeddings, one empty cell": (import_embeddings, "id,e1\na,\n"),
    "features, empty": (load_feature_matrix, ""),
    "features, header only": (load_feature_matrix, "time_seconds,lat,lon\n"),
    "labels, blank": (load_rank_labels, "\n \n"),
    "triplet labels, header only": (load_rank_labels, "i,j,score\n"),
    "rater labels, empty": (rater_labels, ""),
    "rater labels, header only": (rater_labels, "id_a,id_b,score_1\n"),
}


@pytest.mark.parametrize("case", sorted(QUIET_CASES))
def test_no_numpy_warning_on_empty_or_header_only_files(tmp_path, case):
    load, text = QUIET_CASES[case]
    p = write(tmp_path / "t.csv", text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            load(p)
        except SemfuseError as exc:
            assert str(p) in str(exc)
    assert caught == []


def test_header_only_tables_read_as_empty(tmp_path):
    space = import_embeddings(write(tmp_path / "e.csv", "id,e1,e2\n"))
    assert space.ids == () and space.matrix.shape == (0, 2)
    matrix, variant = load_feature_matrix(write(tmp_path / "f.csv", "time_seconds,lat,lon\n"))
    assert variant == "condensed_time" and matrix.shape == (0, 3)


def test_only_table_and_corpus_call_csv_writer():
    callers = set()
    for source in Path(table.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == "writer"
                    and isinstance(node.value, ast.Name) and node.value.id == "csv"):
                callers.add(source.name)
            if isinstance(node, ast.ImportFrom) and node.module == "csv":
                callers.update(source.name for alias in node.names if alias.name == "writer")
    assert callers == {"table.py", "corpus.py"}


# hand-written tables in each layout the oracle reader had to split: quotes
# in and around ids, quoted numbers, blank rows, ragged rows, repeated ids
HAND_WRITTEN = {
    "unquoted ids with quotes": 'id,e1\na"b,1.0\nx"y"z,2.0\n""",3.0\n',
    "space before a quote": 'id,e1\n "a",1.0\nb, "2.0"\n',
    "quoted numbers": 'id,e1,e2\n"a","1.5",2\nb,"-0.0"," 3 "\n',
    "quoted number with a line break": 'id,e1\na,"\n1"\nb,"1\n"\n',
    "quoted first number with a line break": '0,1\n"\n1",2\n',
    "blank rows and rows of empty cells": '\nid,e1\n\na,1.0\n , \n\t\n,\nb,2.0\n\n',
    "quoted ids over lines": 'id,e1\n"two\nlines",1.0\n"a\n  \nb",2.0\n"cr\r\nlf",3.0\r\n',
    "ragged row": "id,e1\na,1.0\nb,2.0,3.0\nc,x\n",
    "short row": "id,e1,e2\na,1.0,2.0\nb,3.0\n",
    "repeated id": "id,e1\na,1.0\nb,x\na,2.0\n",
    "underscore": "id,e1\na,1_0\n",
    "nan": "id,e1\na,nan\n",
    "inf": "id,e1\na,1.0\nb,-inf\n",
    "lone carriage returns": "id,e1\ra,1.0\rb,2.0\r",
    "unterminated quote": 'id,e1\na,1.0\n"b,2.0\n',
    "header only": "id,e1,e2\n",
    "empty": "",
}
# fragments that hand-drawn tables are built from
FRAGMENTS = ["a", "b", "1", "0.5", "-2", "e3", "1_0", "nan", "inf", ",", '"', '""', " ", "\t",
             "\n", "\r\n", "\r", '"a,b"', '"1"', '"\n"', " ,", "x"]
ID_CELLS = ["a", "b", "", '"a,b"', '"q""q"', ' "z"', 'a"b', '"two\nl"', '"w\n \nx"', '"\n"']
VALUE_CELLS = ["1", "0.5", "-2e3", " 2 ", '"1"', '"\n1"', '"1\n"', '"\n"', "", "x", "nan", "1_0"]


def some_header(header):
    # every reader of ids checks for a header; without one the oracle fails with numpy's ValueError
    if not header:
        raise FormatError("no header")


READ_MODES = {"headerless": {}, "header": {"check_header": lambda header: None},
              "header and ids": {"check_header": some_header, "ids": True}}


def outcome(read, path, mode):
    """(header, ids, shape, matrix bits) of one read, or (exception class, message)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            header, ids, matrix = read(path, **READ_MODES[mode])
        except (SemfuseError, UserWarning) as exc:
            return type(exc), str(exc)
    return header, ids, matrix.shape, bits(matrix).tobytes()


def assert_reads_as_the_oracle(path, mode):
    new, old = outcome(table.read_table, path, mode), outcome(oracles.read_table, path, mode)
    if old[0] is UserWarning or (len(old) == 4 and mode == "header and ids" and len(old[1]) != old[2][0]):
        # a value cell that is only a line break: numpy skipped it as an empty
        # line, so the oracle warned or returned more ids than rows
        assert new[0] is FormatError and new[1].endswith("non-numeric value"), new
    else:
        assert new == old


class TestReaderMatchesItsOracle:
    @pytest.mark.parametrize("mode", sorted(READ_MODES))
    @pytest.mark.parametrize("case", sorted(HAND_WRITTEN))
    def test_hand_written_tables(self, tmp_path, case, mode):
        p = tmp_path / "t.csv"
        p.write_bytes(HAND_WRITTEN[case].encode("utf-8"))
        assert_reads_as_the_oracle(p, mode)

    @settings(max_examples=300, deadline=None)
    @given(text=st.lists(st.sampled_from(FRAGMENTS), max_size=30).map("".join),
           mode=st.sampled_from(sorted(READ_MODES)))
    def test_tables_drawn_from_fragments(self, path, text, mode):
        path.write_bytes(text.encode("utf-8"))
        assert_reads_as_the_oracle(path, mode)

    @settings(max_examples=300, deadline=None)
    @given(width=st.integers(1, 3), data=st.data())
    def test_tables_drawn_from_cells(self, path, width, data):
        rows = data.draw(st.lists(st.lists(st.sampled_from(VALUE_CELLS), min_size=width, max_size=width),
                                  max_size=4))
        ids = data.draw(st.lists(st.sampled_from(ID_CELLS), min_size=len(rows), max_size=len(rows)))
        ends = data.draw(st.lists(st.sampled_from(["\n", "\r\n", "\r", "\n\n", "\n , \n"]),
                                  min_size=len(rows), max_size=len(rows)))
        header = "id," + ",".join(f"e{i}" for i in range(width)) + "\n"
        text = header + "".join(",".join([rid, *row]) + end for rid, row, end in zip(ids, rows, ends))
        path.write_bytes(text.encode("utf-8"))
        for mode in READ_MODES:
            assert_reads_as_the_oracle(path, mode)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_tables_from_the_writer(self, path, data):
        matrix = data.draw(matrices(data.draw(st.integers(1, 4))))
        ids = data.draw(st.lists(ID, min_size=len(matrix), max_size=len(matrix)))  # may repeat
        table.write_table(path, ["id", *(f"e{i}" for i in range(matrix.shape[1]))],
                          ([rid, *row] for rid, row in zip(ids, matrix.tolist())))
        for mode in READ_MODES:
            assert_reads_as_the_oracle(path, mode)

    def test_a_written_table_is_parsed_by_one_numpy_call(self, tmp_path, monkeypatch):
        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: calls.append(1) or loadtxt(*args, **kwargs))
        p = tmp_path / "e.csv"
        export_embeddings(EmbeddingSpace(("a,b", 'say "hi"', "two\nlines", "é"), np.eye(4)), p)
        assert import_embeddings(p).ids == ("a,b", 'say "hi"', "two\nlines", "é")
        assert len(calls) == 1


CELL = st.one_of(FLOAT, ID, st.integers(-5, 5), st.sampled_from([np.float64(0.1), np.float32(0.1), None]))


class TestWriterMatchesItsOracle:
    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.one_of(st.lists(CELL, max_size=4), st.tuples(ID, FLOAT, FLOAT),
                                   st.lists(FLOAT, min_size=1, max_size=4)), max_size=5),
           lineterminator=st.sampled_from(["\r\n", "\n"]))
    def test_rows_of_any_cells(self, path, rows, lineterminator):
        old = path.with_name("old.csv")
        table.write_table(path, ["h", "a,b"], rows, lineterminator)
        oracles.write_table(old, ["h", "a,b"], rows, lineterminator)
        assert path.read_bytes() == old.read_bytes()


    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(st.one_of(st.integers(), st.sampled_from([0, -1, 10**30, -(10**30)]),
                                             st.booleans(), st.integers(-2**63, 2**63 - 1).map(np.int64)),
                                   FLOAT, FLOAT), max_size=5))
    def test_int_led_rows(self, path, rows):
        old = path.with_name("old.csv")
        table.write_table(path, ["round", "alpha1", "loss"], rows)
        oracles.write_table(old, ["round", "alpha1", "loss"], rows)
        assert path.read_bytes() == old.read_bytes()


class TestNotUtf8:
    @pytest.mark.parametrize("reader", sorted(TABLE_READERS))
    def test_table_readers_name_the_file_and_line(self, tmp_path, reader):
        load, header, ids = TABLE_READERS[reader]
        p = tmp_path / "t.csv"
        p.write_bytes(table_text(reader, {}).encode() + b"0.5,\xe9,0.5\n")
        with pytest.raises(FormatError, match=fault(p, 5 if header else 4, "not UTF-8 text$")):
            load(p)

    # the reader decodes in blocks of about 8 KB: the size of the file must not decide which fault is first
    @pytest.mark.parametrize("padding", [10, 5000])
    @pytest.mark.parametrize("lead", ["", "q,zz,1.0\n"])  # a bad value comes after every row fault
    @pytest.mark.parametrize("row, reason", [
        ("w,1.0", "expected 3 fields, got 2$"),
        ("p3,1.0,2.0", "duplicate id 'p3'$"),
    ])
    def test_a_row_fault_before_the_line_comes_first(self, tmp_path, padding, lead, row, reason):
        p = tmp_path / "e.csv"
        rows = "".join(f"p{i},1.0,2.0\n" for i in range(padding))
        p.write_bytes(f"id,e1,e2\n{lead}{rows}{row}\n".encode() + b"r,\xff,2.0\n")
        with pytest.raises(SemfuseError, match=fault(p, padding + 2 + bool(lead), reason)):
            import_embeddings(p)

    # every other text input: (reader, header, padding row i, faulty row, its fault)
    LINE_READERS = {
        "corpus": (lambda p: load_corpus(p, format="csv"), "id,text,timestamp\n",
                   lambda i: f"r{i},hello,{1312200000 + i}\n", "b,hello,x\n",
                   "timestamp 'x' is not an integer$"),
        "corpus jsonl": (lambda p: load_corpus(p, format="jsonl"), "",
                         lambda i: f'{{"id": "r{i}", "text": "hello", "timestamp": 1}}\n', "[1]\n",
                         "expected a JSON object$"),
        "stopwords": (load_stopwords, "", lambda i: f"w{i}\n", "Bad\n", "stopword 'Bad' is not lowercase$"),
        "rater labels": (rater_labels, "id_a,id_b,score_1\n", lambda i: f"a{i},b{i},1\n",
                         "a,b,9\n", r"score 9.0 outside \[0, 4.0\]$"),
        "colors": (load_colors, "id,color\n", lambda i: f"r{i},red\n", "r3,blue\n",
                   "duplicate color entry for id 'r3'$"),
        "config": (load_config, "", lambda i: f"seed = {i}\n", "no equals sign\n", "expected key = value$"),
    }

    @pytest.mark.parametrize("padding", [10, 5000])
    @pytest.mark.parametrize("reader", sorted(LINE_READERS))
    def test_every_reader_meets_the_line_in_file_order(self, tmp_path, reader, padding):
        load, header, good, bad, reason = self.LINE_READERS[reader]
        p = tmp_path / "input.txt"
        p.write_bytes((header + "".join(map(good, range(padding))) + bad).encode() + b"\xff,x\n")
        with pytest.raises(SemfuseError, match=fault(p, bool(header) + padding + 1, reason)):
            load(p)

    def test_a_bad_byte_past_the_first_read_block(self, tmp_path):
        p = tmp_path / "e.csv"
        export_embeddings(EmbeddingSpace(tuple(f"r{i}" for i in range(3000)), np.ones((3000, 2))), p)
        p.write_bytes(p.read_bytes() + b"r\xff,1.0,2.0\n")
        with pytest.raises(FormatError, match=fault(p, 3002, "not UTF-8 text$")):
            import_embeddings(p)


def plain(value):
    """A reader's result with each array as a list and each dataclass as its fields, so results compare."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if dataclasses.is_dataclass(value):
        return type(value).__name__, {f.name: plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    return value


class TestByteOrderMark:
    """A UTF-8 byte-order mark before the first line is no part of it: the file reads as it does without one."""

    # (reader, file name, text)
    READERS = {
        "word vectors": (load_word_vectors, "v.txt", "cat 1.0 2.0\ndog 3.0 4.0\n"),
        "stopwords": (load_stopwords, "s.txt", "the\nof\n"),
        "corpus csv": (load_corpus, "c.csv", "id,text,timestamp,lat,lon\na,hi there,5,1.5,2.5\n"),
        "corpus tsv": (load_corpus, "c.tsv", "id\ttext\ttimestamp\na\thi there\t5\n"),
        "corpus jsonl": (load_corpus, "c.jsonl", '{"id": "a", "text": "hi", "timestamp": 5}\n'),
        "gazetteer": (load_gazetteer, "g.csv", "location,lat,lon\nChicago,41.8,-87.6\n"),
        "rater labels": (rater_labels, "l.csv", "id_a,id_b,score_1\na,b,3\n"),
        "triplet rank labels": (load_rank_labels, "r.csv", "i,j,score\n0,1,0.9\n0,2,0.1\n1,2,0.5\n"),
        "matrix rank labels": (load_rank_labels, "r.csv", "0.0,0.9,0.1\n0.9,0.0,0.5\n0.1,0.5,0.0\n"),
        "colors": (load_colors, "colors.csv", "id,color\na,red\n"),
        "config": (load_config, "c.conf", "seed = 3\nk = 2\n"),
        "features": (load_feature_matrix, "f.csv", "time_seconds,lat,lon\n5.0,1.5,2.5\n"),
        "embeddings": (import_embeddings, "e.csv", "id,e1,e2\na,1.0,2.0\n"),
    }

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_a_leading_mark_reads_as_no_mark(self, tmp_path, reader):
        load, name, text = self.READERS[reader]
        plain_file, marked = tmp_path / "plain", tmp_path / "marked"
        plain_file.mkdir()
        marked.mkdir()
        write(plain_file / name, text)
        (marked / name).write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert plain(load(marked / name)) == plain(load(plain_file / name))
