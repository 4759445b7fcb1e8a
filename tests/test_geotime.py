import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semfuse.corpus import Record
from semfuse.errors import DomainError, FormatError
from semfuse.geotime import (
    EARTH_RADIUS_MILES,
    SECONDS_PER_DAY,
    GeoPoint,
    batch_features,
    build_feature_matrix,
    encode_time_cyclical,
    haversine_miles,
    load_feature_matrix,
    save_feature_matrix,
    standardize,
)

# Great-circle NYC to LA via an independent spherical law of cosines route,
# frozen from hand calculation.
NYC_LA_MILES = 2445.586606929677

latitudes = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)
longitudes = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False)
points = st.builds(GeoPoint, latitudes, longitudes)


class TestCyclicalEncoding:
    def test_epoch_origin(self):
        assert encode_time_cyclical(0) == (0.0, 1.0, 0.0, 1.0, 0.0)

    def test_quarter_day(self):
        day_sin, day_cos, *_ = encode_time_cyclical(21600)
        assert day_sin == pytest.approx(1.0, abs=1e-9)
        assert day_cos == pytest.approx(0.0, abs=1e-9)

    def test_half_day(self):
        day_sin, day_cos, *_ = encode_time_cyclical(43200)
        assert day_sin == pytest.approx(0.0, abs=1e-9)
        assert day_cos == pytest.approx(-1.0, abs=1e-9)

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            encode_time_cyclical(-1)

    def test_unit_circle_invariant(self):
        for t in (0, 1, 12345, 86399, 10**9):
            day_sin, day_cos, year_sin, year_cos, _ = encode_time_cyclical(t)
            assert day_sin**2 + day_cos**2 == pytest.approx(1.0, abs=1e-9)
            assert year_sin**2 + year_cos**2 == pytest.approx(1.0, abs=1e-9)

    def test_the_all_features_row_starts_with_the_encoding(self):
        # the five values in FEATURE_COLUMNS["all_features"] order, then lat and lon
        t = 10**9 + 12345
        row = build_feature_matrix([Record("a", "x", t, coords=GeoPoint(1.5, -2.5))], "all_features")[0]
        assert row.tolist() == [*encode_time_cyclical(t), 1.5, -2.5]
        assert encode_time_cyclical(t)[4] == t / (365.25 * 86400)

    @given(st.integers(min_value=0, max_value=10**10))
    def test_day_period(self, t):
        a = encode_time_cyclical(t)
        b = encode_time_cyclical(t + 86400)
        assert a[:2] == pytest.approx(b[:2], abs=1e-9)

    def test_midnight_wraparound_closer_than_four_hours(self):
        before = encode_time_cyclical(86399)  # 23:59:59
        after = encode_time_cyclical(86400 + 1)  # next day 00:00:01
        apart = encode_time_cyclical(4 * 3600)  # 04:00:00
        wrap = math.hypot(before[0] - after[0], before[1] - after[1])
        four = math.hypot(before[0] - apart[0], before[1] - apart[1])
        assert wrap < four


class TestCondensedEncoding:
    """The condensed_time variant's time column is the timestamp in seconds."""

    def test_identity_values(self):
        stamps = (0, 86400, 1312200000)
        records = [Record(f"r{t}", "x", t, coords=GeoPoint(12.5, -33.25)) for t in stamps]
        m = build_feature_matrix(records, "condensed_time")
        assert m[:, 0].tolist() == [0.0, 86400.0, 1312200000.0]

    def test_negative_rejected(self):
        # a record refuses a negative timestamp, so none reaches the time column
        with pytest.raises(DomainError, match=r"^record 'a': timestamp -1 is negative$"):
            Record("a", "x", -1, coords=GeoPoint(12.5, -33.25))


class TestHaversine:
    def test_zero_distance(self):
        p = GeoPoint(40.0, -75.0)
        assert haversine_miles(p, p) == 0.0

    def test_antipodal_arc(self):
        d = haversine_miles(GeoPoint(0, 0), GeoPoint(0, 180))
        assert d == pytest.approx(math.pi * EARTH_RADIUS_MILES, abs=0.1)
        assert d == pytest.approx(12437.0, abs=0.1)

    def test_nyc_to_la(self):
        d = haversine_miles(GeoPoint(40.7128, -74.0060), GeoPoint(34.0522, -118.2437))
        assert d == pytest.approx(NYC_LA_MILES, rel=0.01)

    @given(points, points)
    def test_symmetry_exact(self, a, b):
        assert haversine_miles(a, b) == haversine_miles(b, a)

    @given(points, points, points)
    @settings(max_examples=200)
    def test_triangle_inequality(self, a, b, c):
        ab = haversine_miles(a, b)
        bc = haversine_miles(b, c)
        ac = haversine_miles(a, c)
        assert ac <= ab + bc + 1e-6 * max(1.0, ac)

    def test_range_validation(self):
        with pytest.raises(DomainError):
            GeoPoint(90.1, 0.0)
        with pytest.raises(DomainError):
            GeoPoint(0.0, -180.5)


class TestStandardize:
    def test_three_point_column(self):
        out, stats = standardize(np.array([[1.0], [2.0], [3.0]]))
        assert out[:, 0] == pytest.approx([-1.2247, 0.0, 1.2247], abs=1e-3)
        # population statistics: std of [1,2,3] is sqrt(2/3)
        assert stats.stds[0] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)
        assert out[0, 0] == pytest.approx(-1.224744871391589, abs=1e-12)

    def test_constant_column_zeroed_and_flagged(self):
        out, stats = standardize(np.array([[5.0], [5.0], [5.0]]))
        assert np.array_equal(out, np.zeros((3, 1)))
        assert stats.constant_mask[0]
        assert stats.stds[0] == 0.0

    def test_already_standardized_is_fixed_point(self):
        col = np.array([[-1.0], [0.0], [1.0]]) * math.sqrt(3.0 / 2.0)
        out, _ = standardize(col)
        again, _ = standardize(out)
        assert np.allclose(again, out, atol=1e-9)

    def test_single_row_rejected(self):
        with pytest.raises(DomainError):
            standardize(np.array([[1.0, 2.0]]))

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=50)
    def test_random_matrices_centered_and_unit(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(8, 4)) * rng.uniform(0.5, 100.0)
        out, stats = standardize(m)
        for j in range(4):
            if stats.constant_mask[j]:
                continue
            assert abs(out[:, j].mean()) < 1e-9
            assert abs(out[:, j].var() - 1.0) < 1e-9


class TestFeatureMatrix:
    def records(self, n=10):
        return [
            Record(f"r{i}", "text", 86400 * i + 3600, coords=GeoPoint(30.0 + i, -90.0 + i))
            for i in range(n)
        ]

    def test_all_features_shape(self):
        m = build_feature_matrix(self.records(), "all_features")
        assert m.shape == (10, 7)

    def test_condensed_shape(self):
        m = build_feature_matrix(self.records(), "condensed_time")
        assert m.shape == (10, 3)

    def test_identical_records_identical_rows(self):
        r = Record("a", "x", 1000, coords=GeoPoint(10.0, 20.0))
        s = Record("b", "y", 1000, coords=GeoPoint(10.0, 20.0))
        m = build_feature_matrix([r, s], "all_features")
        assert np.array_equal(m[0], m[1])

    def test_missing_coords_names_id(self):
        bad = [Record("lost", "x", 5)]
        with pytest.raises(DomainError, match="lost"):
            build_feature_matrix(bad, "all_features")

    def test_condensed_columns_are_seconds_lat_lon(self):
        r = Record("a", "x", 777, coords=GeoPoint(12.5, -33.25))
        m = build_feature_matrix([r], "condensed_time")
        assert m[0].tolist() == [777.0, 12.5, -33.25]

    def test_save_load_round_trip(self, tmp_path):
        m = build_feature_matrix(self.records(4), "all_features")
        p = tmp_path / "features.csv"
        save_feature_matrix(p, m, "all_features")
        loaded, variant = load_feature_matrix(p)
        assert variant == "all_features"
        assert np.array_equal(loaded, m)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_load_rejects_non_finite_cells_naming_file_and_line(self, tmp_path, bad):
        p = tmp_path / "features.csv"
        save_feature_matrix(p, build_feature_matrix(self.records(3), "condensed_time"), "condensed_time")
        lines = p.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = f"{bad}," + lines[2].split(",", 1)[1]
        p.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(FormatError, match=re.escape(f"{p}: line 3: non-finite")):
            load_feature_matrix(p)


class TestBatchFeatures:
    def test_days_and_coords(self):
        records = [
            Record("a", "x", 86400 * 3, coords=GeoPoint(10.0, 20.0)),
            Record("b", "y", 43200, coords=GeoPoint(-5.0, 30.0)),
        ]
        days, coords = batch_features(records)
        assert days.dtype == coords.dtype == np.float64
        assert days.tolist() == [3.0, 0.5]
        assert coords.tolist() == [[10.0, 20.0], [-5.0, 30.0]]

    def test_an_empty_batch(self):
        days, coords = batch_features([])
        assert days.shape == (0,) and coords.shape == (0, 2)

    def test_missing_coords_names_id(self):
        with pytest.raises(DomainError, match="nowhere"):
            batch_features([Record("nowhere", "x", 5)])

    @given(st.integers(min_value=0, max_value=2**53 - 1))
    def test_days_are_the_exact_quotient_of_the_integer_timestamp(self, stamp):
        # the time column holds float(stamp), exact below 2**53, so its quotient is stamp's correctly rounded one
        days, _ = batch_features([Record("a", "x", stamp, coords=GeoPoint(1.0, 2.0))])
        assert days.tolist() == [stamp / SECONDS_PER_DAY]
