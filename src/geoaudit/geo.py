"""Physical-region inference from round-trip times.

A reply's minimum RTT bounds the distance between vantage and target by the
speed of light in fiber; every country with a representative point inside
that radius stays feasible. The vantage's own country is always feasible,
since the disk is centered there.

The rule is computed from a table per vantage location, built on first use:
every country sorted by the distance to its nearest point (one haversine per
point, about 244 minima). A country is inside the disk exactly when that
distance is <= the radius, so a bisection gives the same set as a scan of
every point. An audit builds one table per distinct lowest-RTT vantage and
memoises its sets and registries per (cut, vantage country, region map).

Inputs are checked where they enter, not here: a point by registry.point,
an RTT by measure.target_results, the propagation factor by
cli.resolve_config. So no distance or radius is NaN or negative.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import IO, Iterable, Mapping, NamedTuple

from .errors import GeoAuditError
from .registry import DEFAULT_PROPAGATION_FACTOR, RegionMap, Rir, bundled, country_point, read_csv

EARTH_RADIUS_KM = 6371.0088
C_KM_PER_S = 299792.458


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in km on the mean-radius sphere."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2.0) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(a))


def rtt_to_radius_km(rtt_ms: float, propagation_factor: float = DEFAULT_PROPAGATION_FACTOR) -> float:
    """Upper bound on vantage-target distance for a round-trip time.

    One-way time is rtt/2; signals cover at most factor * c in that time."""
    return (rtt_ms / 1000.0) / 2.0 * propagation_factor * C_KM_PER_S


CountryPoints = Mapping[str, tuple[tuple[float, float], ...]]


def load_country_points(fp: IO[str]) -> dict[str, tuple[tuple[float, float], ...]]:
    """Load representative points from CSV with a country,lat,lon header."""
    acc: dict[str, list[tuple[float, float]]] = {}
    for cc, lat, lon in read_csv(fp, ["country", "lat", "lon"], country_point):
        acc.setdefault(cc, []).append((lat, lon))
    return {cc: tuple(points) for cc, points in acc.items()}


def default_country_points() -> dict[str, tuple[tuple[float, float], ...]]:
    return load_country_points(bundled("country_points.csv"))


def check_point_coverage(points: CountryPoints, region_map: RegionMap) -> None:
    """Every mapped country needs at least one representative point."""
    missing = [cc for cc in region_map if cc not in points or not points[cc]]
    if missing:
        raise GeoAuditError(f"countries without representative points: {missing}")


class _NearestCountries:
    """Countries sorted by the distance from one vantage location to their
    nearest representative point, with the feasible sets cut from them."""

    def __init__(self, lat: float, lon: float, points: CountryPoints):
        ranked = sorted(
            (min(haversine_km(lat, lon, plat, plon) for plat, plon in pts), cc)
            for cc, pts in points.items() if pts
        )
        self.dists = [d for d, _ in ranked]
        self.countries = [cc for _, cc in ranked]
        self._regions: dict[tuple, tuple[frozenset[str], frozenset[Rir]]] = {}

    def cut(self, radius_km: float) -> int:
        """How many countries have their nearest point within radius_km."""
        return bisect_right(self.dists, radius_km)

    def region(self, cut: int, vantage_country: str | None,
               region_map: RegionMap) -> tuple[frozenset[str], frozenset[Rir]]:
        """The feasible countries, the first cut plus the vantage's own, and
        their registries; memoised."""
        key = (cut, vantage_country, region_map)
        found = self._regions.get(key)
        if found is None:
            countries = frozenset(self.countries[:cut])
            if vantage_country:
                countries |= {vantage_country}
            found = self._regions[key] = (countries, feasible_rirs(countries, region_map))
        return found


class GeoConfig:
    __slots__ = ("country_points", "propagation_factor", "_tables")

    def __init__(self, country_points: CountryPoints,
                 propagation_factor: float = DEFAULT_PROPAGATION_FACTOR):
        self.country_points = country_points
        self.propagation_factor = propagation_factor
        # vantage (lat, lon) -> its table, built on first use
        self._tables: dict[tuple[float, float], _NearestCountries] = {}

    def nearest(self, lat: float, lon: float) -> _NearestCountries:
        table = self._tables.get((lat, lon))
        if table is None:
            table = self._tables[(lat, lon)] = _NearestCountries(lat, lon, self.country_points)
        return table


def min_rtt(results: Iterable) -> tuple[str, float]:
    """Pick the smallest RTT across measurement results.

    Returns (vantage_id, rtt_ms); ties go to the lower vantage id. Raises
    GeoAuditError when nothing replied."""
    best: tuple[float, str] | None = None
    for res in results:
        if not res.rtts_ms:
            continue
        cand = (min(res.rtts_ms), res.vantage_id)
        if best is None or cand < best:
            best = cand
    if best is None:
        raise GeoAuditError("no replies in batch")
    return best[1], best[0]


def feasible_rirs(countries: Iterable[str], region_map: RegionMap) -> frozenset[Rir]:
    """Map feasible countries onto registries, skipping unmapped codes."""
    return frozenset(map(region_map.get, countries)) - {None}


class FeasibleRegion(NamedTuple):
    vantage_id: str
    rtt_ms: float
    radius_km: float
    countries: frozenset[str]
    rirs: frozenset[Rir]


def infer_region(
    results: Iterable,
    vantages_by_id: Mapping[str, "object"],
    config: GeoConfig,
    region_map: RegionMap,
) -> FeasibleRegion:
    """Full inference for one target: min RTT, radius, feasible countries
    and registries, all from the minimum-RTT vantage's disk."""
    vid, rtt = min_rtt(results)
    vantage = vantages_by_id[vid]
    radius = rtt_to_radius_km(rtt, config.propagation_factor)
    table = config.nearest(vantage.lat, vantage.lon)
    countries, rirs = table.region(table.cut(radius), vantage.country, region_map)
    return FeasibleRegion(vid, rtt, radius, countries, rirs)
