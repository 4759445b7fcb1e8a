"""Shared fixtures: small word-vector tables, a complete pipeline corpus and a per-test cache."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
import pytest

from semfuse.corpus import preprocess

CITY_COORDS = {
    "washington, dc": (38.9072, -77.0369),
    "new york": (40.7128, -74.0060),
    "los angeles": (34.0522, -118.2437),
    "chicago": (41.8781, -87.6298),
    "houston": (29.7604, -95.3698),
}

FIXTURE_TEXTS = [
    ("t01", "Senate votes on the debt ceiling bill today", 1312200000, "washington, dc"),
    ("t02", "Debt ceiling talks stall; markets react http://example.com/a", 1312286400, "new york"),
    ("t03", "Wildfire spreads near the northern canyon", 1320000000, "los angeles"),
    ("t04", "Canyon wildfire contained after three days!", 1320259200, "los angeles"),
    ("t05", "Marathon runners fill the downtown streets", 1331000000, "chicago"),
    ("t06", "Downtown marathon ends with a course record", 1331086400, "chicago"),
    ("t07", "Flooding closes the bayou highway again", 1340000000, "houston"),
    ("t08", "Highway reopens after bayou flooding recedes", 1340172800, "houston"),
    ("t09", "Budget vote delayed amid debt negotiations", 1312372800, "washington, dc"),
    ("t10", "Record heat bakes the city core this week", 1331200000, "new york"),
]


def write_word_vectors(path: Path, tokens: set[str], dim: int = 6, seed: int = 7) -> None:
    rng = np.random.default_rng(seed)
    with open(path, "w", encoding="utf-8") as fh:
        for tok in sorted(tokens):
            vec = rng.normal(size=dim).round(4)
            fh.write(tok + " " + " ".join(repr(float(v)) for v in vec) + "\n")


@pytest.fixture(autouse=True)
def parse_cache(tmp_path, monkeypatch) -> Path:
    """This test's own parse cache: no test writes to the home directory or sees another's entries."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg-cache"))
    return tmp_path / "xdg-cache" / "semfuse" / "parse"


@pytest.fixture(scope="session")
def pipeline_fixture(tmp_path_factory) -> dict[str, Path]:
    """Corpus, gazetteer, word vectors, rater labels, and ranking labels."""
    root = tmp_path_factory.mktemp("pipeline")

    corpus_path = root / "corpus.csv"
    with open(corpus_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "text", "timestamp", "location"])
        for rid, text, ts, loc in FIXTURE_TEXTS:
            writer.writerow([rid, text, ts, loc])

    gaz_path = root / "gazetteer.csv"
    with open(gaz_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["location", "lat", "lon"])
        for name, (lat, lon) in CITY_COORDS.items():
            writer.writerow([name, lat, lon])

    vocab: set[str] = set()
    for _, text, _, _ in FIXTURE_TEXTS:
        vocab.update(preprocess(text))
    vectors_path = root / "vectors.txt"
    write_word_vectors(vectors_path, vocab)

    # Two raters on a dozen pairs, integer scores on a 0-4 scale.
    labels_path = root / "labels.csv"
    pairs = [
        ("t01", "t02", 4, 3), ("t01", "t09", 4, 4), ("t02", "t09", 3, 3),
        ("t03", "t04", 4, 4), ("t05", "t06", 4, 3), ("t07", "t08", 3, 4),
        ("t01", "t03", 0, 1), ("t02", "t05", 1, 0), ("t04", "t07", 0, 0),
        ("t06", "t10", 1, 1), ("t08", "t09", 0, 1), ("t03", "t10", 1, 2),
    ]
    with open(labels_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id_a", "id_b", "score_1", "score_2"])
        writer.writerows(pairs)

    # Full 10x10 labeled score matrix for the ranking optimizer.
    ranks_path = root / "rank_labels.csv"
    m = len(FIXTURE_TEXTS)
    scores = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i != j:
                scores[i, j] = 1.0 / (1.0 + abs(i - j))
    with open(ranks_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in scores:
            writer.writerow([repr(float(v)) for v in row])

    return {
        "root": root,
        "corpus": corpus_path,
        "gazetteer": gaz_path,
        "vectors": vectors_path,
        "labels": labels_path,
        "rank_labels": ranks_path,
    }
