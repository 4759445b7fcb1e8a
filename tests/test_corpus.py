import json
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import semfuse.corpus as corpus
import semfuse.table as table

from semfuse.corpus import (
    Record,
    clean_corpus,
    geocode,
    load_corpus,
    load_gazetteer,
    preprocess,
    resolve_coordinates,
    save_corpus,
)
from semfuse.errors import ConflictError, DomainError, FormatError, RowError, SchemaError, SemfuseError, UnknownKeyError
from semfuse.geotime import GeoPoint
from semfuse.stopwords import DEFAULT_STOPWORDS, load_stopwords


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCorpus:
    def test_header_only_gives_empty_list(self, tmp_path):
        p = write(tmp_path / "c.csv", "id,text,timestamp\n")
        assert load_corpus(p) == []

    def test_two_rows_in_file_order(self, tmp_path):
        p = write(
            tmp_path / "c.csv",
            "id,text,timestamp\na,first,100\nb,second,200\n",
        )
        records = load_corpus(p)
        assert [r.id for r in records] == ["a", "b"]
        assert records[0] == Record("a", "first", 100)
        assert records[1].timestamp == 200

    def test_bad_timestamp_cites_row_2(self, tmp_path):
        p = write(
            tmp_path / "c.csv",
            "id,text,timestamp\na,ok,100\nb,bad,not-a-number\n",
        )
        with pytest.raises(RowError, match=re.escape(f"{p}: line 3: timestamp 'not-a-number' is not an integer")):
            load_corpus(p)

    def test_missing_column_names_it(self, tmp_path):
        p = write(tmp_path / "c.csv", "id,text\na,hello\n")
        with pytest.raises(SchemaError, match="timestamp"):
            load_corpus(p)

    def test_duplicate_id_rejected(self, tmp_path):
        p = write(
            tmp_path / "c.csv",
            "id,text,timestamp\na,one,1\na,two,2\n",
        )
        with pytest.raises(ConflictError, match="a"):
            load_corpus(p)

    @pytest.mark.parametrize("name, body, line", [
        ("c.csv", "id,text,timestamp\na,one,1\nb,two,2\na,three,3\n", 4),
        ("c.tsv", "id\ttext\ttimestamp\na\tone\t1\na\ttwo\t2\n", 3),
        # jsonl lines count blank ones too
        ("c.jsonl", '{"id": "a", "text": "one", "timestamp": 1}\n\n'
                    '{"id": "a", "text": "two", "timestamp": 2}\n', 3),
    ], ids=["csv", "tsv", "jsonl"])
    def test_duplicate_id_names_file_and_line(self, tmp_path, name, body, line):
        p = write(tmp_path / name, body)
        with pytest.raises(ConflictError, match=re.escape(f"{p}: line {line}: duplicate record id 'a'")):
            load_corpus(p)

    @pytest.mark.parametrize("name, body, reason", [
        ("c.csv", "id,text,timestamp\na,one,1\na,two,2\nb,three,x\n",
         "line 4: timestamp 'x' is not an integer"),
        # a fault met while reading rather than while checking a row
        ("c.jsonl", '{"id": "a", "text": "one", "timestamp": 1}\n'
                    '{"id": "a", "text": "two", "timestamp": 2}\n{\n', "line 3: invalid JSON"),
    ], ids=["row-fault", "read-fault"])
    def test_row_fault_after_a_duplicate_raises_first(self, tmp_path, name, body, reason):
        # every row is checked before ids are compared
        p = write(tmp_path / name, body)
        with pytest.raises(RowError, match=re.escape(f"{p}: {reason}")):
            load_corpus(p)

    def test_tsv_and_jsonl_formats(self, tmp_path):
        tsv = write(tmp_path / "c.tsv", "id\ttext\ttimestamp\nx\thello there\t5\n")
        assert load_corpus(tsv)[0].text == "hello there"

        rows = [
            {"id": "a", "text": "first", "timestamp": 1},
            {"id": "b", "text": "second", "timestamp": 2, "location": "chicago"},
        ]
        jl = write(tmp_path / "c.jsonl", "\n".join(json.dumps(r) for r in rows) + "\n")
        records = load_corpus(jl)
        assert len(records) == 2
        assert records[1].location == "chicago"

    def test_coordinates_require_both_columns(self, tmp_path):
        p = write(
            tmp_path / "c.csv",
            "id,text,timestamp,lat,lon\na,here,1,40.0,-75.0\n",
        )
        assert load_corpus(p)[0].coords == GeoPoint(40.0, -75.0)

    def test_round_trip_csv(self, tmp_path):
        records = [
            Record("a", "plain text", 100),
            Record("b", "with, comma", 200, location="new york"),
            Record("c", "sited", 300, coords=GeoPoint(38.9072, -77.0369)),
        ]
        p = tmp_path / "rt.csv"
        save_corpus(records, p)
        assert load_corpus(p) == records

    def test_round_trip_jsonl(self, tmp_path):
        records = [
            Record("a", "hello", 100),
            Record("b", "goodbye", 200, location="chicago", coords=GeoPoint(41.8781, -87.6298)),
        ]
        p = tmp_path / "rt.jsonl"
        p.write_text('{"id": "a", "text": "hello", "timestamp": 100}\n'
                     '{"id": "b", "text": "goodbye", "timestamp": 200, "location": "chicago", '
                     '"lat": 41.8781, "lon": -87.6298}\n', encoding="utf-8")
        assert load_corpus(p) == records


# spellings int() and float() read but the package's number grammar does not,
# and the two that float() reads as non-finite
OFF_GRAMMAR = ["1_0", "\u0662", "nan", "inf"]


class TestNumberGrammar:
    @pytest.mark.parametrize("cell", OFF_GRAMMAR)
    def test_timestamp(self, tmp_path, cell):
        p = write(tmp_path / "c.csv", f"id,text,timestamp\na,ok,100\nb,bad,{cell}\n")
        with pytest.raises(RowError, match=re.escape(f"{p}: line 3: timestamp {cell!r} is not an integer")):
            load_corpus(p)

    @pytest.mark.parametrize("cell", OFF_GRAMMAR)
    def test_corpus_coordinate(self, tmp_path, cell):
        p = write(tmp_path / "c.csv", f"id,text,timestamp,lat,lon\na,ok,1,40.0,-75.0\nb,bad,2,40.0,{cell}\n")
        reason = "non-finite" if cell in ("nan", "inf") else "non-numeric"
        with pytest.raises(FormatError, match=re.escape(f"{p}: line 3: {reason} value")):
            load_corpus(p)

    @pytest.mark.parametrize("cell", OFF_GRAMMAR)
    def test_jsonl_coordinate(self, tmp_path, cell):
        rows = [{"id": "a", "text": "ok", "timestamp": 1, "lat": cell, "lon": 2.0}]
        p = write(tmp_path / "c.jsonl", "\n" + "\n".join(json.dumps(r) for r in rows) + "\n")
        reason = "non-finite" if cell in ("nan", "inf") else "non-numeric"
        with pytest.raises(FormatError, match=re.escape(f"{p}: line 2: {reason} value")):
            load_corpus(p)

    @pytest.mark.parametrize("cell", OFF_GRAMMAR)
    def test_gazetteer_coordinate(self, tmp_path, cell):
        p = write(tmp_path / "g.csv", f"location,lat,lon\nx,1.0,2.0\ny,{cell},2.0\n")
        reason = "non-finite" if cell in ("nan", "inf") else "non-numeric"
        with pytest.raises(FormatError, match=re.escape(f"{p}: line 3: {reason} value")):
            load_gazetteer(p)

    def test_spaced_and_signed_numbers_still_read(self, tmp_path):
        p = write(tmp_path / "c.csv", "id,text,timestamp,lat,lon\na,ok, +100 , 40.5 ,-75.25\n")
        assert load_corpus(p) == [Record("a", "ok", 100, coords=GeoPoint(40.5, -75.25))]


COORDINATE_CELLS = ["", "12.5", "-0.0", " 3 ", "1_0", "nan", "x", "91", "-181", "1e999", "45"]
STAMP_CELLS = ["0", "17", "-1", "x"]


def loaded(load, path):
    """What one load gives: its result, or (exception class, message)."""
    try:
        return load(path)
    except SemfuseError as exc:
        return type(exc), str(exc)


def row_by_row(rows, width):
    """Coordinates as the loaders parsed them before: one parse_floats call per row, in order."""
    return (table.parse_floats(where, cells).tolist() for where, cells in rows)


def assert_loads_as_row_by_row(load, path):
    result = loaded(load, path)
    with mock.patch.object(corpus, "parse_rows", row_by_row):
        assert result == loaded(load, path)


class TestCoordinatesInOneParse:
    def test_good_files_make_no_per_row_parse(self, tmp_path, monkeypatch):
        monkeypatch.setattr(table, "parse_floats", None)
        rows = "".join(f"t{i},text {i},{i},,{i % 90}.5,-{i}.25\n" for i in range(50))
        records = load_corpus(write(tmp_path / "c.csv", "id,text,timestamp,location,lat,lon\n" + rows))
        assert [r.coords for r in records[:2]] == [GeoPoint(0.5, -0.25), GeoPoint(1.5, -1.25)]
        gaz = load_gazetteer(write(tmp_path / "g.csv", "location,lat,lon\nA,1.5,2\nB,-3,4e1\n"))
        assert gaz == {"a": GeoPoint(1.5, 2.0), "b": GeoPoint(-3.0, 40.0)}

    @pytest.mark.parametrize("rows, line, reason", [
        ("a,t,x,,1,2\nb,t,1,,1_0,2\n", 2, "timestamp 'x' is not an integer"),
        ("a,t,1,,1_0,2\nb,t,x,,1,2\n", 2, "non-numeric value"),
        ("a,t,1,,1,2\nb,t,1,,1,\nc,t,1,,nan,2\n", 3, "lat and lon must be given together"),
        ("a,t,1,,91,2\nb,t,1,,x,2\n", 2, "latitude 91.0 outside"),
    ])
    def test_first_fault_in_file_order(self, tmp_path, rows, line, reason):
        p = write(tmp_path / "c.csv", "id,text,timestamp,location,lat,lon\n" + rows)
        with pytest.raises(SemfuseError, match=f"^{re.escape(str(p))}: line {line}: {reason}"):
            load_corpus(p)

    def test_jsonl_row_fault_comes_before_a_later_bad_line(self, tmp_path):
        p = write(tmp_path / "c.jsonl", '{"id": "a", "text": "t", "timestamp": "x"}\n{\n')
        with pytest.raises(RowError, match="line 1: timestamp 'x'"):
            load_corpus(p)
        p = write(tmp_path / "c.jsonl", '{"id": "a", "text": "t", "timestamp": 1, "lat": 1, "lon": 2}\n{\n')
        with pytest.raises(RowError, match="line 2: invalid JSON"):
            load_corpus(p)

    def test_gazetteer_row_checks_come_before_its_coordinates(self, tmp_path):
        p = write(tmp_path / "g.csv", "location,lat,lon\nA,1,2\n,x,2\n")
        with pytest.raises(RowError, match="line 3: empty location$"):
            load_gazetteer(p)

    def test_gazetteer_row_fault_comes_before_a_later_line_that_is_not_utf8(self, tmp_path):
        # line 3 repeats line 2's location, line 13 holds a byte that is not UTF-8
        rows = [b"location,lat,lon", b"c0,1,2", b"C0,3,4", *(b"c%d,%d,1" % (i, i) for i in range(3, 12)),
                b"c\xff,1,2"]
        p = tmp_path / "g.csv"
        p.write_bytes(b"\n".join(rows) + b"\n")
        with pytest.raises(ConflictError, match=f"^{re.escape(str(p))}: line 3: duplicate gazetteer entry 'c0'$"):
            load_gazetteer(p)
        p.write_bytes(b"\n".join(rows[:2] + rows[3:]) + b"\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(p))}: line 12: not UTF-8 text$"):
            load_gazetteer(p)

    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(st.tuples(st.sampled_from(["a", "b", ""]), st.sampled_from(STAMP_CELLS),
                                   st.sampled_from(COORDINATE_CELLS), st.sampled_from(COORDINATE_CELLS)),
                         max_size=5),
           fmt=st.sampled_from(["csv", "jsonl"]))
    def test_corpus_loads_as_row_by_row(self, tmp_path_factory, rows, fmt):
        path = tmp_path_factory.mktemp("corpus") / f"c.{fmt}"
        if fmt == "csv":
            text = "id,text,timestamp,location,lat,lon\n" + "".join(
                f"{rid},t,{stamp},,{lat},{lon}\n" for rid, stamp, lat, lon in rows)
        else:
            text = "".join(json.dumps({"id": rid, "text": "t", "timestamp": stamp,
                                       **({"lat": lat} if lat else {}), **({"lon": lon} if lon else {})}) + "\n"
                           for rid, stamp, lat, lon in rows)
        assert_loads_as_row_by_row(load_corpus, write(path, text))

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(st.sampled_from(["A", "b", "a", ""]), st.sampled_from(COORDINATE_CELLS),
                                   st.sampled_from(COORDINATE_CELLS)), max_size=5))
    def test_gazetteer_loads_as_row_by_row(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("gazetteer") / "g.csv"
        text = "location,lat,lon\n" + "".join(f"{name},{lat},{lon}\n" for name, lat, lon in rows)
        assert_loads_as_row_by_row(load_gazetteer, write(path, text))


class TestPreprocess:
    def test_stopword_removal(self):
        assert preprocess("The debt ceiling", {"the"}) == ["debt", "ceiling"]

    def test_url_only_input(self):
        assert preprocess("http://t.co/x") == []

    def test_lowercase_and_edge_punctuation(self):
        assert preprocess("Vote NOW!", set()) == ["vote", "now"]

    def test_all_url_prefixes_dropped(self):
        text = "see https://a.example www.example.org details"
        assert preprocess(text, set()) == ["see", "details"]

    def test_social_tags_keep_their_word(self):
        # kept tokens still lose their @/# edge marker, like any punctuation
        text = "@sen_smith backs #debtdeal now"
        assert preprocess(text, set()) == ["sen_smith", "backs", "debtdeal", "now"]

    @given(st.text(max_size=200))
    def test_idempotent(self, text):
        once = preprocess(text)
        again = preprocess(" ".join(once))
        assert once == again

    @given(st.text(max_size=200))
    def test_no_stopwords_survive(self, text):
        assert not set(preprocess(text)) & DEFAULT_STOPWORDS

    @given(st.text(max_size=200))
    def test_tokens_lowercase_without_whitespace(self, text):
        for tok in preprocess(text):
            assert tok == tok.lower()
            assert not any(c.isspace() for c in tok)


class TestGazetteer:
    def test_exact_lookup(self):
        g = {"washington, dc": GeoPoint(38.9072, -77.0369)}
        assert geocode("Washington, DC", g) == GeoPoint(38.9072, -77.0369)

    def test_trim_and_casefold(self):
        g = {"washington, dc": GeoPoint(38.9072, -77.0369)}
        assert geocode("  washington, DC ", g) == GeoPoint(38.9072, -77.0369)

    def test_miss_carries_query(self):
        g = {"washington, dc": GeoPoint(38.9072, -77.0369)}
        with pytest.raises(UnknownKeyError, match="Atlantis"):
            geocode("Atlantis", g)

    def test_load_gazetteer(self, tmp_path):
        p = write(tmp_path / "g.csv", "location,lat,lon\nChicago,41.8781,-87.6298\n")
        g = load_gazetteer(p)
        assert geocode("chicago", g) == GeoPoint(41.8781, -87.6298)

    def test_load_duplicate_location_rejected(self, tmp_path):
        p = write(
            tmp_path / "g.csv",
            "location,lat,lon\na,1,2\nA,3,4\n",
        )
        with pytest.raises(ConflictError):
            load_gazetteer(p)

    def test_load_bad_coordinate_cites_row(self, tmp_path):
        p = write(tmp_path / "g.csv", "location,lat,lon\na,91.0,0\n")
        with pytest.raises(RowError, match=re.escape(f"{p}: line 2: bad coordinates for 'a'")):
            load_gazetteer(p)

    def test_resolve_coordinates(self):
        g = {"chicago": GeoPoint(41.8781, -87.6298)}
        records = [
            Record("a", "x", 1, location="Chicago"),
            Record("b", "y", 2, coords=GeoPoint(1.0, 2.0)),
            Record("c", "z", 3),
        ]
        out = resolve_coordinates(records, g)
        assert out[0].coords == GeoPoint(41.8781, -87.6298)
        assert out[1].coords == GeoPoint(1.0, 2.0)
        assert out[2].coords is None


class TestLoadStopwords:
    def test_reads_one_token_per_line(self, tmp_path):
        p = write(tmp_path / "stop.txt", "the\n\nof\n")
        assert load_stopwords(p) == frozenset({"the", "of"})

    def test_uppercase_token_names_file_and_line(self, tmp_path):
        p = write(tmp_path / "stop.txt", "the\nThe\n")
        with pytest.raises(FormatError, match=re.escape(f"{p}: line 2: stopword 'The' is not lowercase")):
            load_stopwords(p)


class TestCleanCorpus:
    def test_builds_docs_in_order(self):
        records = [
            Record("a", "The Debt ceiling!", 1),
            Record("b", "http://x.co only", 2),
        ]
        docs = clean_corpus(records)
        assert docs == [("a", ("debt", "ceiling")), ("b", ())]


class TestRecordValidation:
    def test_empty_id_rejected(self):
        with pytest.raises(Exception):
            Record("", "text", 1)

    def test_negative_timestamp_rejected(self):
        with pytest.raises(Exception):
            Record("a", "text", -5)

    def test_timestamp_bound_is_2_to_the_53(self):
        # below 2**53 every integer is a float, so the time features hold the stamp exactly
        assert Record("a", "text", 2**53 - 1).timestamp == 2**53 - 1
        with pytest.raises(DomainError, match=r"^record 'a': timestamp 9007199254740992 is not below 2\*\*53$"):
            Record("a", "text", 2**53)

    @pytest.mark.parametrize("name, text, reason", [
        ("c.csv", "id,text,timestamp\na,t,+00" + "1" + "0" * 16 + "\n", "timestamp 1" + "0" * 16 + " is not below"),
        ("c.csv", "id,text,timestamp\na,t,-" + "0" * 5000 + "1" * 5000 + "\n", "timestamp -" + "1" * 5000 + " is negative"),
        ("c.jsonl", '{"id": "a", "text": "t", "timestamp": 1' + "0" * 5000 + "}\n", "a JSON integer has more than 4300"),
    ], ids=["17 digits", "5000 digits, negative", "jsonl"])
    def test_a_stamp_of_more_than_16_significant_digits(self, tmp_path, name, text, reason):
        # int() and str() refuse more than 4,300 digits, so no message converts the stamp
        with pytest.raises(RowError, match=f"line [12]: (record 'a': )?{reason}"):
            load_corpus(write(tmp_path / name, text))
