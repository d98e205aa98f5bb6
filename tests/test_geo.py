import math
import random

import pytest

from geoaudit.errors import GeoAuditError
from geoaudit.geo import (
    EARTH_RADIUS_KM,
    GeoConfig,
    check_point_coverage,
    default_country_points,
    feasible_rirs,
    haversine_km,
    infer_region,
    load_country_points,
    min_rtt,
    rtt_to_radius_km,
)
from geoaudit.measure import MeasurementResult
from geoaudit.registry import RegionMap, Rir, default_region_map, parse_address
from geoaudit.vantage import VantagePoint


def result(vid, *rtts):
    return MeasurementResult(vid, parse_address("192.0.2.1"), tuple(rtts))


def test_haversine_basics():
    assert haversine_km(10.0, 20.0, 10.0, 20.0) == 0.0
    d1 = haversine_km(40.0, -100.0, 50.0, 10.0)
    d2 = haversine_km(50.0, 10.0, 40.0, -100.0)
    assert d1 == pytest.approx(d2, rel=1e-12)
    # quarter meridian: equator to pole
    assert haversine_km(0.0, 0.0, 90.0, 0.0) == pytest.approx(
        math.pi / 2 * EARTH_RADIUS_KM, rel=1e-12)
    # one degree of latitude is about 111.19 km on the mean sphere
    assert haversine_km(0.0, 0.0, 1.0, 0.0) == pytest.approx(
        math.pi / 180 * EARTH_RADIUS_KM, rel=1e-12)


def test_haversine_triangle_inequality():
    rng = random.Random(4001)
    for _ in range(200):
        pts = [(rng.uniform(-90, 90), rng.uniform(-180, 180)) for _ in range(3)]
        a = haversine_km(*pts[0], *pts[1])
        b = haversine_km(*pts[1], *pts[2])
        c = haversine_km(*pts[0], *pts[2])
        assert c <= a + b + 1e-6


def test_radius_known_values():
    # 100 ms at 2/3 c: 9993.08 km; at full c: 14989.62 km
    assert rtt_to_radius_km(100.0, 2.0 / 3.0) == pytest.approx(9993.081933, abs=0.01)
    assert rtt_to_radius_km(100.0, 1.0) == pytest.approx(14989.6229, abs=0.01)
    assert rtt_to_radius_km(10.0, 2.0 / 3.0) == pytest.approx(999.3081933, abs=0.001)
    assert rtt_to_radius_km(0.0) == 0.0


def test_radius_scales_linearly():
    assert rtt_to_radius_km(50.0) == pytest.approx(rtt_to_radius_km(100.0) / 2)


def test_radius_monotone_in_factor():
    for rtt in (1.0, 10.0, 250.0):
        radii = [rtt_to_radius_km(rtt, f) for f in (0.3, 0.5, 2.0 / 3.0, 0.9, 1.0)]
        assert radii == sorted(radii)


def test_min_rtt_picks_smallest_then_lowest_id():
    vid, rtt = min_rtt([result("v-b", 12.0, 9.0), result("v-a", 10.0), result("v-c")])
    assert (vid, rtt) == ("v-b", 9.0)
    # exact tie: lower id wins
    vid, rtt = min_rtt([result("v-b", 9.0), result("v-a", 9.0)])
    assert (vid, rtt) == ("v-a", 9.0)
    with pytest.raises(GeoAuditError, match="^no replies in batch$"):
        min_rtt([result("v-a"), result("v-b")])


POINTS = {
    "US": ((40.0, -100.0),),
    "CA": ((42.0, -100.0),),
    "DE": ((50.0, 10.0),),
    "JP": ((35.0, 140.0),),
}
SMALL_MAP = RegionMap({"US": Rir.ARIN, "CA": Rir.ARIN, "DE": Rir.RIPE, "JP": Rir.APNIC})


def feasible(config, lat, lon, radius_km, vantage_country=None, region_map=SMALL_MAP):
    """The feasible countries of a disk, through config.nearest as infer_region
    reaches them; checks that the registries are theirs."""
    table = config.nearest(lat, lon)
    countries, rirs = table.region(table.cut(radius_km), vantage_country, region_map)
    assert rirs == feasible_rirs(countries, region_map)
    return countries


def test_feasible_countries_by_radius():
    config = GeoConfig(country_points=POINTS)
    # 1 degree of latitude from the US point: ~222 km to US, ~222+ to CA
    got = feasible(config, 40.0, -100.0, 100.0)
    assert got == frozenset({"US"})
    got = feasible(config, 40.0, -100.0, 250.0)
    assert got == frozenset({"US", "CA"})
    got = feasible(config, 40.0, -100.0, 20000.0)
    assert got == frozenset({"US", "CA", "DE", "JP"})


def test_feasible_countries_always_include_vantage_country():
    config = GeoConfig(country_points=POINTS)
    # zero radius, vantage far from every representative point
    got = feasible(config, 30.0, -80.0, 0.0, vantage_country="US")
    assert got == frozenset({"US"})
    # even a country with no representative point at all
    got = feasible(config, 30.0, -80.0, 0.0, vantage_country="BM")
    assert got == frozenset({"BM"})


def test_feasible_countries_monotone_in_radius():
    config = GeoConfig(country_points=default_country_points())
    region_map = default_region_map()
    rng = random.Random(4003)
    for _ in range(20):
        lat, lon = rng.uniform(-60, 70), rng.uniform(-180, 180)
        prev = frozenset()
        for radius in (0.0, 500.0, 2000.0, 8000.0, 21000.0):
            cur = feasible(config, lat, lon, radius, region_map=region_map)
            assert prev <= cur
            prev = cur


def scan_feasible(distances, radius_km, vantage_country=None):
    """Oracle: every point, one at a time, against the radius."""
    out = {vantage_country} if vantage_country else set()
    for cc, dist in distances:
        if dist <= radius_km:
            out.add(cc)
    return frozenset(out)


def test_feasible_countries_match_a_scan_of_every_point():
    points = default_country_points()
    region_map = default_region_map()
    config = GeoConfig(country_points=points)  # one config, so its tables are reused
    rng = random.Random(4005)
    locations = [(rng.uniform(-90, 90), rng.uniform(-180, 180)) for _ in range(200)]
    # (country, distance) for every point from each location
    distances = [[(cc, haversine_km(lat, lon, plat, plon))
                  for cc, pts in points.items() for plat, plon in pts]
                 for lat, lon in locations]
    countries = sorted(points)
    for i in range(20000):
        k = rng.randrange(len(locations))
        lat, lon = locations[k]
        if i % 4 == 0:
            # exactly a country's nearest-point distance, or the float just below
            cc = rng.choice(countries)
            radius = min(d for c, d in distances[k] if c == cc)
            if i % 8 == 0:
                radius = math.nextafter(radius, -math.inf)
        else:
            radius = rng.uniform(0.0, 21000.0)
        vantage_country = rng.choice(countries) if i % 2 else None
        got = feasible(config, lat, lon, radius, vantage_country, region_map)
        assert got == scan_feasible(distances[k], radius, vantage_country), (lat, lon, radius)


def test_infer_region_grows_when_rtts_scale_up():
    points = default_country_points()
    region_map = default_region_map()
    config = GeoConfig(country_points=points)
    rng = random.Random(4007)
    countries = sorted(region_map)
    vantages = {}
    for i in range(40):
        vid = f"v-{i:02d}"
        vantages[vid] = VantagePoint(id=vid, kind="probe", country=rng.choice(countries),
                                     lat=rng.uniform(-60, 70), lon=rng.uniform(-180, 180))
    target = parse_address("192.0.2.1")
    for _ in range(500):
        results = [MeasurementResult(vid, target, tuple(rng.uniform(0.5, 150.0)
                                                        for _ in range(rng.randint(0, 3))))
                   for vid in rng.sample(sorted(vantages), 5)]
        if not any(r.rtts_ms for r in results):
            continue
        base = infer_region(results, vantages, config, region_map)
        for factor in (1.0, 1.0 + 1e-9, 1.3, 2.0, rng.uniform(1.0, 20.0)):
            scaled = [MeasurementResult(r.vantage_id, r.target,
                                        tuple(x * factor for x in r.rtts_ms)) for r in results]
            wide = infer_region(scaled, vantages, config, region_map)
            assert base.countries <= wide.countries, factor
            assert base.rirs <= wide.rirs, factor


def test_feasible_rirs_skips_unmapped():
    got = feasible_rirs(["US", "DE", "XX"], SMALL_MAP)
    assert got == frozenset({Rir.ARIN, Rir.RIPE})


def test_infer_region_end_to_end():
    config = GeoConfig(country_points=POINTS)
    vantages = {
        "v-us": VantagePoint(id="v-us", kind="probe", country="US", lat=40.0, lon=-100.0),
        "v-de": VantagePoint(id="v-de", kind="probe", country="DE", lat=50.0, lon=10.0),
    }
    results = [
        MeasurementResult("v-us", parse_address("192.0.2.1"), (3.0, 2.8)),
        MeasurementResult("v-de", parse_address("192.0.2.1"), (95.0,)),
    ]
    region = infer_region(results, vantages, config, SMALL_MAP)
    assert region.vantage_id == "v-us"
    assert region.rtt_ms == 2.8
    assert region.radius_km == pytest.approx(rtt_to_radius_km(2.8))
    assert region.countries == frozenset({"US", "CA"})
    assert region.rirs == frozenset({Rir.ARIN})


def test_load_country_points_validation():
    import io

    pts = load_country_points(io.StringIO("country,lat,lon\nus,40,-100\nUS,30,-85\n"))
    assert pts["US"] == ((40.0, -100.0), (30.0, -85.0))
    # header names are matched and keyed after stripping spaces
    spaced = load_country_points(io.StringIO("country, lat, lon\nUS,40,-100\n"))
    assert spaced == {"US": ((40.0, -100.0),)}
    with pytest.raises(GeoAuditError):
        load_country_points(io.StringIO("cc,lat,lon\nUS,40,-100\n"))
    with pytest.raises(GeoAuditError):
        load_country_points(io.StringIO("country,lat,lon\nUS,91,-100\n"))


def test_bundled_points_cover_every_mapped_country():
    region_map = default_region_map()
    points = default_country_points()
    check_point_coverage(points, region_map)
    with pytest.raises(GeoAuditError, match=r"^countries without representative points: \['"):
        check_point_coverage({"US": ((40.0, -100.0),)}, region_map)
