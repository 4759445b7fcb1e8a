"""Seeded synthetic inputs for the benchmark workloads.

Every file written here depends only on the workload seed and the size
table, so two runs on one seed feed the program identical bytes. The
generator also returns what it planted (token lists, event membership,
coordinates) so the reference computations can check the program's
outputs without parsing them back through the program.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

# Ten gazetteer cities: five within 1,500 miles of each other, three across
# the continent and two overseas, so the banded distance kernel takes values
# from 1.0 down to 0.
CITIES = (
    ("Washington, DC", 38.9072, -77.0369),
    ("New York", 40.7128, -74.0060),
    ("Chicago", 41.8781, -87.6298),
    ("Houston", 29.7604, -95.3698),
    ("Miami", 25.7617, -80.1918),
    ("Denver", 39.7392, -104.9903),
    ("Los Angeles", 34.0522, -118.2437),
    ("Seattle", 47.6062, -122.3321),
    ("London", 51.5074, -0.1278),
    ("Tokyo", 35.6762, 139.6503),
)
# Words from the program's stopword list that the generator scatters into
# texts; the program must drop them, and the reference never sees them.
FILLER_STOPWORDS = ("the", "a", "of", "and", "in", "on", "at", "with", "for", "to")
_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
BASE_EPOCH = 1_400_000_000
SPAN_SECONDS = 2 * 365 * 86400
# Round-1 grid of the optimizer with its default bounds 0:1,0:12 and 21
# points per axis; planted weights are taken from these exact floats.
ALPHA1_GRID = np.linspace(0.0, 1.0, 21)
ALPHA2_GRID = np.linspace(0.0, 12.0, 21)


@dataclass(frozen=True)
class CorpusSize:
    records: int
    vocab: int
    dim: int
    events: int
    rater_pairs: int = 0


@dataclass
class Corpus:
    """A generated corpus plus everything the reference needs about it."""

    ids: list[str]
    texts: list[str]
    timestamps: list[int]
    cities: list[int]  # index into CITIES per record
    tokens: list[list[str]]  # content tokens per record, as the program should keep them
    events: list[int]

    city_coords = tuple((lat, lon) for _, lat, lon in CITIES)

    @property
    def days(self) -> np.ndarray:
        return np.array(self.timestamps) / ref.SECONDS_PER_DAY

    @property
    def coords(self) -> np.ndarray:
        return np.array([self.city_coords[c] for c in self.cities])


def vocabulary(seed: int, size: int) -> list[str]:
    """Distinct three-syllable words, none of them an English stopword."""
    rng = np.random.default_rng([seed, 5])
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        syllables = rng.integers(0, len(_CONSONANTS), 3), rng.integers(0, len(_VOWELS), 3)
        word = "".join(_CONSONANTS[c] + _VOWELS[v] for c, v in zip(*syllables))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _zipf_probs(n: int, exponent: float = 1.07) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1) ** exponent
    return weights / weights.sum()


def make_corpus(seed: int, tag: str, size: CorpusSize, vocab: list[str]) -> Corpus:
    """Records clustered into events that share a city, a day and topic words.

    Each text carries two of its event's four topic words, three to seven
    Zipf-distributed background words, one to three stopwords, edge
    punctuation, and now and then a URL, in shuffled order. Texts are
    distinct, so no two records tie on every score.
    """
    rng = np.random.default_rng([seed, _tag_int(tag)])
    probs = _zipf_probs(len(vocab))
    mid = np.arange(len(vocab) // 20, len(vocab) // 2)
    event_city = rng.integers(0, len(CITIES), size.events)
    event_time = BASE_EPOCH + rng.integers(0, SPAN_SECONDS, size.events)
    event_topics = [rng.choice(mid, 4, replace=False) for _ in range(size.events)]
    corpus = Corpus([], [], [], [], [], [])
    seen_texts: set[tuple[str, ...]] = set()
    while len(corpus.ids) < size.records:
        event = int(rng.integers(0, size.events))
        topic = [vocab[i] for i in rng.choice(event_topics[event], 2, replace=False)]
        background = [vocab[i] for i in rng.choice(len(vocab), int(rng.integers(3, 8)), p=probs)]
        content = topic + background
        key = tuple(sorted(content))
        if key in seen_texts:
            continue
        seen_texts.add(key)
        words = content + [str(w) for w in rng.choice(FILLER_STOPWORDS, int(rng.integers(1, 4)))]
        words = [words[i] for i in rng.permutation(len(words))]
        kept = [w for w in words if w not in FILLER_STOPWORDS]
        shown = [w.capitalize() if i == 0 else w for i, w in enumerate(words)]
        if rng.random() < 0.3:
            shown[-1] += "!"
        if rng.random() < 0.2:
            shown[int(rng.integers(0, len(shown)))] += ","
        if rng.random() < 0.1:
            shown.append(f"https://example.org/{int(rng.integers(0, 10**6))}")
        offset = int(rng.normal(0.0, 8 * 3600.0))
        corpus.ids.append(f"{tag}{len(corpus.ids):05d}")
        corpus.texts.append(" ".join(shown))
        corpus.timestamps.append(max(0, int(event_time[event]) + offset))
        corpus.cities.append(int(event_city[event]))
        corpus.tokens.append(kept)
        corpus.events.append(event)
    return corpus


def _tag_int(tag: str) -> int:
    return int.from_bytes(tag.encode(), "big")


def write_corpus(corpus: Corpus, path: Path, rng_seed: int) -> None:
    """id,text,timestamp,location; location spellings vary in case and padding."""
    rng = np.random.default_rng([rng_seed, 7])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "text", "timestamp", "location"])
        for rid, text, ts, city in zip(corpus.ids, corpus.texts, corpus.timestamps, corpus.cities):
            name = CITIES[city][0]
            style = rng.integers(0, 3)
            name = name.upper() if style == 1 else f" {name.lower()} " if style == 2 else name
            writer.writerow([rid, text, ts, name])


def write_gazetteer(path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["location", "lat", "lon"])
        for name, lat, lon in CITIES:
            writer.writerow([name, repr(lat), repr(lon)])


def make_vectors(seed: int, vocab: list[str], dim: int) -> dict[str, np.ndarray]:
    """Gaussian vectors on a 1e-4 grid, so the text file holds them exactly."""
    rng = np.random.default_rng([seed, 11])
    values = np.round(rng.normal(0.0, 1.0, (len(vocab), dim)), 4)
    return dict(zip(vocab, values))


def write_vectors(table: dict[str, np.ndarray], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for token, row in table.items():
            fh.write(token + " " + " ".join(["%.4f"] * row.size) % tuple(row) + "\n")


def make_rater_labels(seed: int, corpus: Corpus, n_pairs: int) -> list[tuple[str, str, list[int]]]:
    """Three rater scores on 0..4 per pair; half the pairs share an event and score high."""
    rng = np.random.default_rng([seed, 13])
    by_event: dict[int, list[int]] = {}
    for i, event in enumerate(corpus.events):
        by_event.setdefault(event, []).append(i)
    multi = [members for members in by_event.values() if len(members) > 1]
    n = len(corpus.ids)
    pairs: list[tuple[str, str, list[int]]] = []
    seen: set[tuple[int, int]] = set()
    while len(pairs) < n_pairs:
        if len(pairs) % 2 == 0 and multi:
            members = multi[int(rng.integers(0, len(multi)))]
            a, b = (int(x) for x in rng.choice(members, 2, replace=False))
        else:
            a, b = (int(x) for x in rng.choice(n, 2, replace=False))
        key = (min(a, b), max(a, b))
        if key in seen:
            continue
        seen.add(key)
        same = corpus.events[a] == corpus.events[b]
        scores = rng.integers(2, 5, 3) if same else rng.integers(0, 3, 3)
        pairs.append((corpus.ids[a], corpus.ids[b], [int(s) for s in scores]))
    return pairs


def write_rater_labels(pairs: list[tuple[str, str, list[int]]], path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id_a", "id_b", "score_1", "score_2", "score_3"])
        for a, b, scores in pairs:
            writer.writerow([a, b, *scores])


def planted_alphas(seed: int, batch: int) -> tuple[float, float]:
    """Multiplicative-scorer weights drawn from the optimizer's round-1 grid."""
    rng = np.random.default_rng([seed, 17, batch])
    k1, k2 = (int(k) for k in rng.integers(2, 19, 2))
    return float(ALPHA1_GRID[k1]), float(ALPHA2_GRID[k2])


def to_unit_interval(scores: np.ndarray) -> np.ndarray:
    """The one monotone map from multiplicative scores into [0, 1].

    |e1.e2| <= 1, alpha1 + d1 <= 2 and alpha2 + d2 <= 13 on the default
    bounds, so |score| < 27 and 0.5 + score / 54 stays inside [0, 1].
    """
    return 0.5 + scores / 54.0


def write_rank_labels(scores01: np.ndarray, path: Path) -> None:
    """i,j,score rows over every unordered pair of one batch."""
    m = scores01.shape[0]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "score"])
        for i in range(m):
            for j in range(i + 1, m):
                writer.writerow([i, j, repr(float(scores01[i, j]))])


def plant_rank_labels(
    embeddings: np.ndarray, days: np.ndarray, coords: np.ndarray, alphas: tuple[float, float]
) -> np.ndarray:
    """Labels whose ranking the multiplicative scorer reproduces exactly at `alphas`.

    Raises if the map into [0, 1] merged two scores of one row, which would
    make the planted ranking unreachable.
    """
    raw = ref.score_matrix(embeddings, days, coords, "pi", alphas)
    labels = to_unit_interval(raw)
    if not np.array_equal(ref.rank_entries(raw), ref.rank_entries(labels)):
        raise ValueError("the map into [0, 1] merged two scores; pick another seed")
    return labels
