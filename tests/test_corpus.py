import json
import re

import pytest
from hypothesis import given, strategies as st

from semfuse.corpus import (
    Gazetteer,
    Record,
    clean_corpus,
    geocode,
    load_corpus,
    load_gazetteer,
    preprocess,
    resolve_coordinates,
    save_corpus,
)
from semfuse.errors import ConflictError, FormatError, RowError, SchemaError, UnknownKeyError
from semfuse.geotime import GeoPoint
from semfuse.stopwords import DEFAULT_STOPWORDS


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
        save_corpus(records, p)
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

    def test_social_tags_kept_by_default_dropped_on_request(self):
        # kept tokens still lose their @/# edge marker, like any punctuation
        text = "@sen_smith backs #debtdeal now"
        assert preprocess(text, set()) == ["sen_smith", "backs", "debtdeal", "now"]
        assert preprocess(text, set(), drop_social_tags=True) == ["backs", "now"]

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
        g = Gazetteer({"washington, dc": GeoPoint(38.9072, -77.0369)})
        assert geocode("Washington, DC", g) == GeoPoint(38.9072, -77.0369)

    def test_trim_and_casefold(self):
        g = Gazetteer({"washington, dc": GeoPoint(38.9072, -77.0369)})
        assert geocode("  washington, DC ", g) == GeoPoint(38.9072, -77.0369)

    def test_miss_carries_query(self):
        g = Gazetteer({"washington, dc": GeoPoint(38.9072, -77.0369)})
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
        g = Gazetteer({"chicago": GeoPoint(41.8781, -87.6298)})
        records = [
            Record("a", "x", 1, location="Chicago"),
            Record("b", "y", 2, coords=GeoPoint(1.0, 2.0)),
            Record("c", "z", 3),
        ]
        out = resolve_coordinates(records, g)
        assert out[0].coords == GeoPoint(41.8781, -87.6298)
        assert out[1].coords == GeoPoint(1.0, 2.0)
        assert out[2].coords is None


class TestCleanCorpus:
    def test_builds_docs_in_order(self):
        records = [
            Record("a", "The Debt ceiling!", 1),
            Record("b", "http://x.co only", 2),
        ]
        docs = clean_corpus(records)
        assert [d.id for d in docs] == ["a", "b"]
        assert docs[0].tokens == ("debt", "ceiling")
        assert docs[1].tokens == ()


class TestRecordValidation:
    def test_empty_id_rejected(self):
        with pytest.raises(Exception):
            Record("", "text", 1)

    def test_negative_timestamp_rejected(self):
        with pytest.raises(Exception):
            Record("a", "text", -5)
