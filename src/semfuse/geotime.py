"""Temporal and geospatial encodings plus feature-matrix standardization.

Timestamps are epoch seconds interpreted as UTC. The year period is fixed at
365.25 days so encodings stay free of leap-year discontinuities.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import DomainError, FormatError

if TYPE_CHECKING:
    from .corpus import Record

EARTH_RADIUS_MILES = 3958.8
SECONDS_PER_DAY = 86400
SECONDS_PER_YEAR = 365.25 * SECONDS_PER_DAY

FEATURE_COLUMNS: dict[str, tuple[str, ...]] = {
    "all_features": ("day_sin", "day_cos", "year_sin", "year_cos", "years_linear", "lat", "lon"),
    "condensed_time": ("time_seconds", "lat", "lon"),
}
VARIANTS = tuple(FEATURE_COLUMNS)

# Columns near-constant at this relative scale are treated as constant so
# standardization never divides by rounding noise.
_CONSTANT_COLUMN_EPS = 1e-12


@dataclass(frozen=True)
class GeoPoint:
    """A latitude/longitude pair in degrees, range-checked at construction."""

    lat: float
    lon: float

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise DomainError(f"latitude {self.lat} outside [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            raise DomainError(f"longitude {self.lon} outside [-180, 180]")


@dataclass(frozen=True)
class TemporalEncoding:
    """Cyclical day/year phases plus a linear multi-year component."""

    day_sin: float
    day_cos: float
    year_sin: float
    year_cos: float
    years_linear: float


@dataclass(frozen=True)
class StandardizationStats:
    """Per-column statistics captured by standardize().

    stds holds the population standard deviation, zeroed where the column was
    judged constant; constant_mask is true exactly on those columns.
    """

    means: np.ndarray
    stds: np.ndarray
    constant_mask: np.ndarray


def encode_time_cyclical(t: float) -> TemporalEncoding:
    """Encode epoch seconds as day/year sine-cosine pairs plus linear years."""
    if t < 0:
        raise DomainError(f"timestamp {t} is negative")
    day_phase = 2.0 * math.pi * (t % SECONDS_PER_DAY) / SECONDS_PER_DAY
    year_phase = 2.0 * math.pi * (t % SECONDS_PER_YEAR) / SECONDS_PER_YEAR
    return TemporalEncoding(
        day_sin=math.sin(day_phase),
        day_cos=math.cos(day_phase),
        year_sin=math.sin(year_phase),
        year_cos=math.cos(year_phase),
        years_linear=t / SECONDS_PER_YEAR,
    )


def encode_time_condensed(t: float) -> float:
    """Represent a timestamp as the single scalar value of its epoch seconds."""
    if t < 0:
        raise DomainError(f"timestamp {t} is negative")
    return float(t)


def great_circle_miles(lat1, lon1, lat2, lon2):
    """Haversine miles on a spherical Earth between points in degrees; broadcasts."""
    lat1, lon1, lat2, lon2 = (np.radians(np.asarray(v, dtype=float)) for v in (lat1, lon1, lat2, lon2))
    # h is reused so that one m x m buffer stays live, besides temporaries
    h = np.sin((lon2 - lon1) / 2.0)
    h = np.cos(lat1) * np.cos(lat2) * h * h
    h += np.square(np.sin((lat2 - lat1) / 2.0))
    return 2.0 * EARTH_RADIUS_MILES * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def haversine_miles(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in miles between two points on a spherical Earth."""
    return float(great_circle_miles(a.lat, a.lon, b.lat, b.lon))


def standardize(m: np.ndarray) -> tuple[np.ndarray, StandardizationStats]:
    """Scale each column to zero mean and unit population variance.

    Constant columns cannot be scaled; they map to all-zeros and are flagged
    in the returned stats. Requires at least two rows.
    """
    x = np.asarray(m, dtype=float)
    if x.ndim != 2:
        raise DomainError(f"expected a 2-D matrix, got shape {x.shape}")
    if x.shape[0] < 2:
        raise DomainError(f"standardize needs at least 2 rows, got {x.shape[0]}")
    means = x.mean(axis=0)
    stds = x.std(axis=0)
    scale = np.maximum(1.0, np.abs(x).max(axis=0)) if x.size else np.ones(x.shape[1])
    constant = stds <= _CONSTANT_COLUMN_EPS * scale
    stds = np.where(constant, 0.0, stds)
    z = (x - means) / np.where(constant, 1.0, stds)
    z[:, constant] = 0.0
    return z, StandardizationStats(means=means, stds=stds, constant_mask=constant)


def build_feature_matrix(records: Sequence["Record"], variant: str) -> np.ndarray:
    """Assemble the per-record geotemporal feature matrix for one variant.

    all_features gives [day_sin, day_cos, year_sin, year_cos, years_linear,
    lat, lon]; condensed_time gives [time_seconds, lat, lon]. Row order
    follows record order. Every record must carry coordinates.
    """
    if variant not in FEATURE_COLUMNS:
        raise DomainError(f"unknown feature variant {variant!r}; expected one of {VARIANTS}")
    rows = []
    for record in records:
        if record.coords is None:
            raise DomainError(f"record {record.id!r} has no coordinates")
        if variant == "all_features":
            enc = encode_time_cyclical(record.timestamp)
            rows.append(
                [enc.day_sin, enc.day_cos, enc.year_sin, enc.year_cos,
                 enc.years_linear, record.coords.lat, record.coords.lon]
            )
        else:
            rows.append(
                [encode_time_condensed(record.timestamp), record.coords.lat, record.coords.lon]
            )
    return np.array(rows, dtype=float).reshape(len(rows), len(FEATURE_COLUMNS[variant]))


def save_feature_matrix(path: str | Path, matrix: np.ndarray, variant: str) -> None:
    """Write a feature matrix as CSV with the variant's column names as header."""
    if variant not in FEATURE_COLUMNS:
        raise DomainError(f"unknown feature variant {variant!r}")
    columns = FEATURE_COLUMNS[variant]
    x = np.asarray(matrix, dtype=float)
    if x.ndim != 2 or x.shape[1] != len(columns):
        raise DomainError(f"matrix shape {x.shape} does not match variant {variant!r}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in x:
            writer.writerow([repr(float(v)) for v in row])


def load_feature_matrix(path: str | Path) -> tuple[np.ndarray, str]:
    """Read a feature CSV written by save_feature_matrix; returns (matrix, variant).

    Every cell must be a finite number.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = tuple(next(reader))
        except StopIteration:
            raise FormatError(f"{path}: empty feature file") from None
        variant = next((v for v, cols in FEATURE_COLUMNS.items() if cols == header), None)
        if variant is None:
            raise FormatError(f"{path}: header {header} matches no known feature layout")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise FormatError(f"{path}: line {lineno} has {len(row)} fields, expected {len(header)}")
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                raise FormatError(f"{path}: line {lineno}: {exc}") from None
            if not all(map(math.isfinite, values)):
                raise FormatError(f"{path}: line {lineno}: non-finite value")
            rows.append(values)
    return np.array(rows, dtype=float).reshape(len(rows), len(header)), variant
