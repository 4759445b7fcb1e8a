"""Corpus ingestion, text normalization, and gazetteer-based geocoding.

Corpus files are CSV/TSV with columns id,text,timestamp[,location][,lat,lon]
or JSONL with the same keys. Coordinates follow the number grammar of
`table.parse_floats` and timestamps are ASCII decimal integers. Errors in
a row read `<file>: line <n>: <reason>`, the header being line 1.
"""

from __future__ import annotations

import csv
import json
import re
import string
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from .errors import (
    ConflictError,
    DomainError,
    FormatError,
    RowError,
    SchemaError,
    SemfuseError,
    UnknownKeyError,
)
from .geotime import GeoPoint
from .stopwords import DEFAULT_STOPWORDS
from .table import filled_rows, open_text, parse_rows

CORPUS_FORMATS = ("csv", "tsv", "jsonl")
_URL_PREFIXES = ("http://", "https://", "www.")
_EDGE_PUNCT = string.punctuation
_INTEGER = re.compile(r"[+-]?[0-9]+")


@dataclass(frozen=True)
class Record:
    """One text item with its timestamp and optional geospatial context."""

    id: str
    text: str
    timestamp: int
    location: str | None = None
    coords: GeoPoint | None = None

    def __post_init__(self):
        if not self.id:
            raise DomainError("record id must be nonempty")
        if self.timestamp < 0:
            raise DomainError(f"record {self.id!r}: timestamp {self.timestamp} is negative")
        if self.timestamp >= 2**53:  # float(timestamp), which the features hold, is exact below it
            raise DomainError(f"record {self.id!r}: timestamp {self.timestamp} is not below 2**53")


def preprocess(text: str, stopwords: frozenset[str] | set[str] = DEFAULT_STOPWORDS) -> list[str]:
    """Normalize raw text into tokens.

    Splits on whitespace, lowercases, strips punctuation from token edges,
    and drops URL tokens and stopwords. Mention/hashtag tokens pass through
    the same edge rules, so they keep their word and lose the @ or #.
    """
    tokens = []
    for raw in text.split():
        token = raw.lower().strip(_EDGE_PUNCT)
        if not token or token.startswith(_URL_PREFIXES):
            continue
        if token in stopwords:
            continue
        tokens.append(token)
    return tokens


def clean_corpus(records: Sequence[Record],
                 stopwords: frozenset[str] | set[str] = DEFAULT_STOPWORDS) -> list[tuple[str, tuple[str, ...]]]:
    """The (id, tokens) pair of every record, in record order, its tokens as preprocess() gives them."""
    return [(r.id, tuple(preprocess(r.text, stopwords))) for r in records]


def _location_key(location: str) -> str:
    """A location string as the gazetteer keys it: trimmed and case-folded."""
    return location.strip().casefold()


def geocode(location: str, gazetteer: Mapping[str, GeoPoint]) -> GeoPoint:
    """Resolve a location string by exact case-insensitive lookup in `load_gazetteer`'s map."""
    point = gazetteer.get(_location_key(location))
    if point is None:
        raise UnknownKeyError(location, f"location {location!r} not in gazetteer")
    return point


def resolve_coordinates(records: Sequence[Record], gazetteer: Mapping[str, GeoPoint]) -> list[Record]:
    """Fill in coords for records that only carry a location string.

    Records that already have coordinates are kept as-is; records with
    neither location nor coords pass through unchanged.
    """
    resolved = []
    for record in records:
        if record.coords is None and record.location is not None:
            record = replace(record, coords=geocode(record.location, gazetteer))
        resolved.append(record)
    return resolved


def load_gazetteer(path: str | Path) -> dict[str, GeoPoint]:
    """Map each location key of a location,lat,lon CSV to its point; the first fault in file order raises."""
    rows, fault = _read_until_fault(_read_delimited(path, ",", ("location", "lat", "lon")))
    coordinates = parse_rows([(where, [row.get("lat") or "", row.get("lon") or ""]) for row, where in rows], 2)
    entries: dict[str, GeoPoint] = {}
    for row, where in rows:
        key = _location_key(row.get("location") or "")
        if not key:
            raise RowError(where, "empty location")
        if key in entries:
            raise ConflictError(f"{where}: duplicate gazetteer entry {key!r}")
        lat, lon = next(coordinates)
        try:
            entries[key] = GeoPoint(lat, lon)
        except DomainError as exc:
            raise RowError(where, f"bad coordinates for {key!r}: {exc}") from None
    if fault is not None:
        raise fault
    return entries


def _infer_format(path: Path) -> str:
    suffix = path.suffix.lower().lstrip(".")
    if suffix in CORPUS_FORMATS:
        return suffix
    raise FormatError(f"cannot infer corpus format from {path.name!r}; pass format explicitly")


def _coordinate_cells(row: dict) -> list[str]:
    """The row's lat and lon cells that are given."""
    return [row[key] for key in ("lat", "lon") if row.get(key) not in (None, "")]


def _has_coords(row: dict, where: str) -> bool:
    given = len(_coordinate_cells(row))
    if given == 1:
        raise RowError(where, "lat and lon must be given together")
    return given == 2


def load_corpus(path: str | Path, format: str | None = None) -> list[Record]:
    """Read records from a corpus file, preserving file order.

    Duplicate ids and malformed rows are rejected; row errors name the
    file and line.
    """
    path = Path(path)
    fmt = format or _infer_format(path)
    if fmt not in CORPUS_FORMATS:
        raise FormatError(f"unknown corpus format {fmt!r}; expected one of {CORPUS_FORMATS}")
    if fmt == "jsonl":
        return _records(_read_jsonl(path))
    return _records(_read_delimited(path, "\t" if fmt == "tsv" else ",", ("id", "text", "timestamp")))


def _records(rows: Iterator[tuple[dict, str]]) -> list[Record]:
    """Records from (row, where) pairs; the first fault in file order raises.

    A fault met while reading the rows is raised after those read before
    it are checked. A repeated id raises only once every row is valid.
    """
    read, fault = _read_until_fault(rows)
    # a row that gives only one of lat and lon is left out; `_has_coords` rejects it in order
    coordinates = parse_rows([(where, cells) for row, where in read
                              if len(cells := _coordinate_cells(row)) == 2], 2)
    records = [_record_from_mapping(row, where, coordinates) for row, where in read]
    if fault is not None:
        raise fault
    seen: set[str] = set()
    for record, (_, where) in zip(records, read):
        if record.id in seen:
            raise ConflictError(f"{where}: duplicate record id {record.id!r}")
        seen.add(record.id)
    return records


def _read_until_fault(rows: Iterator[tuple[dict, str]]) -> tuple[list, SemfuseError | None]:
    """The (row, where) pairs read before the first fault met while reading, and that fault or None."""
    read: list[tuple[dict, str]] = []
    try:
        read.extend(rows)
    except SemfuseError as exc:
        return read, exc
    return read, None


def _read_delimited(path: str | Path, delimiter: str, columns: Sequence[str]) -> Iterator[tuple[dict, str]]:
    # each row that is not blank as a dict of its cells by column; a short row lacks its last columns
    with open_text(path) as fh:
        rows = filled_rows(reader := csv.reader(fh, delimiter=delimiter))
        fields = next(rows, [])
        for column in columns:
            if column not in fields:
                raise SchemaError(f"{path}: missing column {column!r}")
        for row in rows:
            yield dict(zip(fields, row)), f"{path}: line {reader.line_num}"


def _read_jsonl(path: Path) -> Iterator[tuple[dict, str]]:
    with open_text(path, newline=None) as fh:
        for number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}: line {number}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise RowError(where, f"invalid JSON: {exc}") from None
            except ValueError:  # int() refuses a JSON integer of more than 4,300 digits
                raise RowError(where, "a JSON integer has more than 4300 digits") from None
            if not isinstance(obj, dict):
                raise RowError(where, "expected a JSON object")
            for key in ("id", "text", "timestamp"):
                if key not in obj:
                    raise SchemaError(f"{where}: missing key {key!r}")
            mapping = {k: obj.get(k) for k in ("id", "text", "timestamp", "location", "lat", "lon")}
            yield {k: v if v is None else str(v) for k, v in mapping.items()}, where


def _record_from_mapping(row: dict, where: str, coordinates: Iterator[list[float]]) -> Record:
    """The row's Record; `coordinates` yields the values of each row that gives both lat and lon."""
    rid = row.get("id") or ""
    text = row.get("text")
    if text is None:
        raise RowError(where, "missing text value")
    stamp = str(row.get("timestamp")).strip()
    # int() would also read 1_0 and non-ASCII digits
    if not _INTEGER.fullmatch(stamp):
        raise RowError(where, f"timestamp {row.get('timestamp')!r} is not an integer")
    sign, digits = "-" if stamp[0] == "-" else "", stamp.lstrip("+-").lstrip("0") or "0"
    if len(digits) > 16:  # so at least 10**16; int() and str() refuse more than 4,300 digits
        bound = "negative" if sign else "not below 2**53"
        raise RowError(where, f"record {rid!r}: timestamp {sign}{digits} is {bound}")
    try:
        return Record(
            id=rid,
            text=text,
            timestamp=int(sign + digits),
            location=(row.get("location") or None),
            coords=GeoPoint(*next(coordinates)) if _has_coords(row, where) else None,
        )
    except DomainError as exc:
        raise RowError(where, str(exc)) from None


def save_corpus(records: Sequence[Record], path: str | Path) -> None:
    """Write records as CSV so that load_corpus() round-trips them exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "text", "timestamp", "location", "lat", "lon"])
        for r in records:
            coords = [repr(r.coords.lat), repr(r.coords.lon)] if r.coords else ["", ""]
            writer.writerow([r.id, r.text, r.timestamp, r.location or "", *coords])
