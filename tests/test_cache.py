"""The parse cache's entry format: each kind reads back as its parse, and nothing else reads as an entry."""

import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from semfuse import cache
from semfuse.cache import load_entry, save_entry
from semfuse.embed import EmbeddingSpace, WordVectorTable, import_embeddings, load_word_vectors


class TestVectorEntry:
    @pytest.fixture
    def parsed(self, tmp_path) -> WordVectorTable:
        values = np.random.default_rng(3).normal(size=(500, 200))
        p = tmp_path / "v.txt"
        p.write_text("".join(f"w{i} " + " ".join(map(repr, row.tolist())) + "\n"
                             for i, row in enumerate(values)), encoding="utf-8")
        return load_word_vectors(p)

    def test_round_trip(self, tmp_path, parsed):
        entry = tmp_path / "e.vectors"
        save_entry(parsed, entry)
        table = load_entry(WordVectorTable, entry)
        assert table.dim == parsed.dim and list(table.vectors) == list(parsed.vectors)
        assert all(np.array_equal(table.vectors[t], row) for t, row in parsed.vectors.items())
        base = table.vectors["w0"].base
        assert base is not None and all(v.base is base for v in table.vectors.values())
        assert load_entry(WordVectorTable, tmp_path / "missing.vectors") is None

    def test_neither_direction_copies_the_matrix(self, tmp_path, parsed):
        entry, nbytes = tmp_path / "e.vectors", 500 * 200 * 8
        tracemalloc.start()
        try:
            save_entry(parsed, entry)
            saved = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            table = load_entry(WordVectorTable, entry)
            loaded = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table is not None
        assert saved < 0.2 * nbytes
        assert loaded < 1.4 * nbytes  # a copy would read 2

    def test_a_failed_write_leaves_no_file(self, tmp_path, parsed, monkeypatch):
        def replace(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cache.os, "replace", replace)
        with pytest.raises(OSError):
            save_entry(parsed, tmp_path / "e.vectors")
        assert list(tmp_path.iterdir()) == [tmp_path / "v.txt"]

    @pytest.fixture
    def sources(self, tmp_path, monkeypatch) -> Path:
        """A copy of the source files that `cache` reads its entry tag from."""
        sources = tmp_path / "src"
        sources.mkdir()
        for name in cache._SOURCES:
            shutil.copyfile(Path(cache.__file__).with_name(name), sources / name)
        monkeypatch.setattr(cache, "__file__", str(sources / "cache.py"))
        cache._entry_tag.cache_clear()
        yield sources
        cache._entry_tag.cache_clear()

    @pytest.mark.parametrize("change", ["cache.py", "embed.py", "table.py", "package version", "numpy version"])
    def test_an_entry_of_another_parser_misses(self, tmp_path, parsed, monkeypatch, sources, change):
        entry = tmp_path / "e.vectors"
        save_entry(parsed, entry)
        cache._entry_tag.cache_clear()
        assert load_entry(WordVectorTable, entry) is not None
        if change.endswith(".py"):
            with open(sources / change, "a", encoding="utf-8") as fh:
                fh.write("# an edit that changes no behaviour still makes another parser\n")
        else:
            module = cache if change == "package version" else cache.np
            monkeypatch.setattr(module, "__version__", module.__version__ + ".post1")
        cache._entry_tag.cache_clear()
        assert load_entry(WordVectorTable, entry) is None

    def test_an_unreadable_parser_source_stores_nothing(self, tmp_path, parsed, sources):
        entry = tmp_path / "e.vectors"
        save_entry(parsed, entry)
        (sources / "table.py").unlink()
        cache._entry_tag.cache_clear()
        assert load_entry(WordVectorTable, entry) is None
        entry.unlink()
        with pytest.raises(OSError):
            save_entry(parsed, entry)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["src", "v.txt"]


class TestSpaceEntry:
    @pytest.fixture(params=["plain", "quoted ids", "one column"])
    def csv_path(self, request, tmp_path) -> Path:
        values = np.random.default_rng(5).normal(size=(300, 40))
        values[0, :3] = [-0.0, 5e-324, 1e308]  # each must come back bit for bit
        ids = [f"r{i}" for i in range(300)]
        if request.param == "quoted ids":
            ids[:3] = ['"a,b"', '"say ""hi"""', "é"]
        if request.param == "one column":
            values = values[:, :1]
        p = tmp_path / "e.csv"
        header = ",".join(["id"] + [f"e{j + 1}" for j in range(values.shape[1])])
        p.write_text(header + "\n" + "".join(f"{rid}," + ",".join(map(repr, row.tolist())) + "\n"
                                             for rid, row in zip(ids, values)), encoding="utf-8")
        return p

    def test_a_hit_is_the_parse(self, tmp_path, csv_path):
        parsed, entry = import_embeddings(csv_path), tmp_path / "e.space"
        save_entry(parsed, entry)
        hit = load_entry(EmbeddingSpace, entry)
        assert hit.ids == parsed.ids and all(type(rid) is str for rid in hit.ids)
        assert hit.matrix.dtype == np.float64 and hit.matrix.flags.c_contiguous
        assert hit.matrix.shape == parsed.matrix.shape
        assert hit.matrix.tobytes() == parsed.matrix.tobytes()

    def test_no_kind_reads_as_the_other(self, tmp_path):
        # the same labels and rows, stored as a table and as a space
        matrix = np.arange(12.0).reshape(4, 3)
        table = WordVectorTable(dim=3, vectors=dict(zip("abcd", matrix)))
        space = EmbeddingSpace(ids=tuple("abcd"), matrix=matrix)
        save_entry(table, tmp_path / "t")
        save_entry(space, tmp_path / "s")
        assert load_entry(EmbeddingSpace, tmp_path / "t") is None
        assert load_entry(WordVectorTable, tmp_path / "s") is None
        assert load_entry(WordVectorTable, tmp_path / "t").vectors.keys() == table.vectors.keys()
        assert load_entry(EmbeddingSpace, tmp_path / "s").ids == space.ids

    @pytest.mark.parametrize("ids", [("a\nb", "c"), ("a", "b\r\n")])
    def test_ids_with_a_line_break_are_not_stored(self, tmp_path, ids):
        save_entry(EmbeddingSpace(ids=ids, matrix=np.ones((2, 2))), tmp_path / "e.space")
        assert list(tmp_path.iterdir()) == []
