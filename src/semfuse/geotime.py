"""Temporal and geospatial encodings plus feature-matrix standardization.

Timestamps are epoch seconds interpreted as UTC. The year period is fixed at
365.25 days so encodings stay free of leap-year discontinuities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import DomainError, FormatError
from .table import read_table, write_table

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


def encode_time_cyclical(t: float) -> tuple[float, float, float, float, float]:
    """(day_sin, day_cos, year_sin, year_cos, years_linear) of epoch seconds: day/year phases, linear years."""
    if t < 0:
        raise DomainError(f"timestamp {t} is negative")
    day_phase = 2.0 * math.pi * (t % SECONDS_PER_DAY) / SECONDS_PER_DAY
    year_phase = 2.0 * math.pi * (t % SECONDS_PER_YEAR) / SECONDS_PER_YEAR
    return (math.sin(day_phase), math.cos(day_phase), math.sin(year_phase), math.cos(year_phase),
            t / SECONDS_PER_YEAR)


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


def standardize(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Scale each column to zero mean and unit population variance; returns (scaled, means, stds, constant).

    Constant columns cannot be scaled; they map to all-zeros and are true in
    the boolean `constant`, and their `stds` are 0; the others hold the
    population standard deviation. Requires at least two rows.
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
    return z, means, stds, constant


def build_feature_matrix(records: Sequence["Record"], variant: str) -> np.ndarray:
    """Assemble the per-record geotemporal feature matrix for one variant.

    all_features gives [day_sin, day_cos, year_sin, year_cos, years_linear,
    lat, lon]; condensed_time gives [time_seconds, lat, lon]. Row order
    follows record order. Every record must carry coordinates.
    """
    if variant not in FEATURE_COLUMNS:
        raise DomainError(f"unknown feature variant {variant!r}; expected one of {VARIANTS}")
    cyclical = variant == "all_features"
    rows = []
    for record in records:
        if record.coords is None:
            raise DomainError(f"record {record.id!r} has no coordinates")
        encoded = encode_time_cyclical(record.timestamp) if cyclical else (float(record.timestamp),)
        rows.append([*encoded, record.coords.lat, record.coords.lon])
    return np.array(rows, dtype=float).reshape(len(rows), len(FEATURE_COLUMNS[variant]))


def batch_features(records: Sequence["Record"]) -> tuple[np.ndarray, np.ndarray]:
    """The columns the rankopt kernels read: (m,) days and (m, 2) latitude, longitude."""
    m = build_feature_matrix(records, "condensed_time")
    return m[:, 0] / SECONDS_PER_DAY, m[:, 1:]

def save_feature_matrix(path: str | Path, matrix: np.ndarray, variant: str) -> None:
    """Write a feature matrix as CSV with the variant's column names as header."""
    if variant not in FEATURE_COLUMNS:
        raise DomainError(f"unknown feature variant {variant!r}")
    columns = FEATURE_COLUMNS[variant]
    x = np.asarray(matrix, dtype=float)
    if x.ndim != 2 or x.shape[1] != len(columns):
        raise DomainError(f"matrix shape {x.shape} does not match variant {variant!r}")
    write_table(path, columns, x.tolist())


def load_feature_matrix(path: str | Path) -> tuple[np.ndarray, str]:
    """Read a feature CSV written by save_feature_matrix; returns (matrix, variant).

    Every cell must be a finite number in the grammar of `table.parse_floats`.
    """
    layouts = {columns: variant for variant, columns in FEATURE_COLUMNS.items()}

    def check_header(header: list[str]) -> None:
        if not header:
            raise FormatError(f"{path}: empty feature file")
        if tuple(header) not in layouts:
            raise FormatError(f"{path}: header {tuple(header)} matches no known feature layout")

    header, _, matrix = read_table(path, check_header)
    return matrix, layouts[tuple(header)]
