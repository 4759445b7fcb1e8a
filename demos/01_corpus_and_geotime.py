"""Load a tiny corpus, geocode it, and look at the geotemporal features.

Each record is a short text with a timestamp and a location string. The
gazetteer resolves locations offline; the feature encoders turn the
timestamp into cyclical day/year phases (so 23:59 and 00:01 end up next
to each other) and keep latitude/longitude as-is.
"""

from semfuse.corpus import Record, preprocess, resolve_coordinates
from semfuse.geotime import (
    GeoPoint,
    build_feature_matrix,
    encode_time_cyclical,
    haversine_miles,
    standardize,
)

records = [
    Record(id="a1", text="Debt ceiling talks stall again http://example.com/x", timestamp=1312200000, location="washington dc"),
    Record(id="a2", text="Budget deal reached after late night session", timestamp=1312300000, location="washington dc"),
    Record(id="b1", text="Wildfire smoke drifts over the valley", timestamp=1312400000, location="los angeles"),
]

# a gazetteer maps each trimmed, case-folded location to its point
gazetteer = {
    "washington dc": GeoPoint(38.9072, -77.0369),
    "los angeles": GeoPoint(34.0522, -118.2437),
}

records = resolve_coordinates(records, gazetteer)
print("resolved coordinates:")
for r in records:
    print(f"  {r.id}: {r.location} -> ({r.coords.lat:.4f}, {r.coords.lon:.4f})")

print("\ntokens after cleanup (URLs and stopwords gone):")
for r in records:
    print(f"  {r.id}: {preprocess(r.text)}")

miles = haversine_miles(records[0].coords, records[2].coords)
print(f"\ndc to la great-circle distance: {miles:.1f} miles")

# the wrap-around property that motivates the sine/cosine pairs
# each encoding is (day_sin, day_cos, year_sin, year_cos, years_linear)
before_sin, before_cos, *_ = encode_time_cyclical(86399)
after_sin, after_cos, *_ = encode_time_cyclical(86401)
print(f"\n23:59:59 day phase: ({before_sin:+.6f}, {before_cos:+.6f})")
print(f"00:00:01 day phase: ({after_sin:+.6f}, {after_cos:+.6f})")

features = build_feature_matrix(records, "all_features")
print(f"\nall_features matrix is {features.shape[0]}x{features.shape[1]}:")
print(features.round(3))

scaled, _, _, constant = standardize(features)
print("\nconstant columns after standardization:", [bool(v) for v in constant])
print("scaled feature matrix:")
print(scaled.round(3))
