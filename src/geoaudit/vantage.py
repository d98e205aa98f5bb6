"""Vantage point inventory: filtering, stable per-region sets, per-prefix plans.

Plans draw three vantages from each registry region plus five from the
organization's country, deduplicated, so a prefix sees at most 20 probes.
Selection rotates deterministically with a prefix hash so load spreads
without losing reproducibility.
"""

from __future__ import annotations

from typing import IO, Iterable, NamedTuple, Sequence

from .errors import GeoAuditError
from .registry import (
    Prefix,
    RegionMap,
    Registration,
    Rir,
    country_point,
    load_jsonl,
    point,
    read_csv,
    read_tokens,
    record,
    refuse_repeats,
)

# CPython's own SHA-256, with hashlib's digests but without its load of
# OpenSSL (_hashlib, ~3.6 MB resident): _sha2 on 3.12+, _sha256 before;
# hashlib only on a build that has neither
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

REGIONAL_PICKS = 3
COUNTRY_PICKS = 5
STABLE_SET_CAP = 10


class _VantageFields(NamedTuple):
    id: str
    country: str
    lat: float
    lon: float
    kind: str = "probe"  # or "anchor"
    asn: int | None = None
    connected: bool = True


@record
class VantagePoint(_VantageFields):
    """A vantage whose fields are checked on every construction, its point by
    registry.point: _make and _replace come here too."""

    __slots__ = ()

    def __new__(cls, id: str, country: str, lat: float, lon: float, kind: str = "probe",
                asn: int | None = None, connected: bool = True):
        point(lat, lon)
        try:
            id.encode()  # the simulator hashes the id as UTF-8
        except UnicodeEncodeError:
            raise GeoAuditError(f"id {id!r} is not valid UTF-8") from None
        return tuple.__new__(cls, (id, country.strip().upper(), lat, lon, kind, asn, connected))

    @classmethod
    def _make(cls, iterable: Iterable) -> "VantagePoint":
        return cls(*iterable)


def load_vantages(fp: IO[str]) -> list[VantagePoint]:
    """An id listed twice is refused: an audit would measure with one of its
    records and infer the region with the other."""
    vantages = load_jsonl(VantagePoint.from_json, fp)
    refuse_repeats((v.id for v in vantages), "vantage id")
    return vantages


def load_bad_ids(fp: IO[str]) -> set[str]:
    return set(read_tokens(fp))


def load_default_coords(fp: IO[str]) -> set[tuple[float, float]]:
    """Known per-country default coordinates (csv country,lat,lon). A vantage
    sitting exactly on one of these was never really geolocated."""
    return {(round(lat, 6), round(lon, 6))
            for _, lat, lon in read_csv(fp, ["country", "lat", "lon"], country_point)}


def filter_vantages(
    vantages: Iterable[VantagePoint],
    bad_ids: set[str] | None = None,
    default_coords: set[tuple[float, float]] | None = None,
) -> tuple[list[VantagePoint], dict[str, int]]:
    """Drop disconnected vantages, known-bad ids, and vantages parked on a
    default coordinate. The counts of kept vantages and of each reason to
    drop one come in the order the audit prints them, and sum to the number
    of vantages given."""
    bad_ids = bad_ids or set()
    default_coords = default_coords or set()
    counts = dict.fromkeys(("kept", "disconnected", "bad_id", "default_coords"), 0)
    kept = []
    for v in vantages:
        if not v.connected:
            counts["disconnected"] += 1
        elif v.id in bad_ids:
            counts["bad_id"] += 1
        elif (round(v.lat, 6), round(v.lon, 6)) in default_coords:
            counts["default_coords"] += 1
        else:
            kept.append(v)
    counts["kept"] = len(kept)
    return kept, counts


def _greedy_distinct_asn(candidates: Sequence[VantagePoint], cap: int, seen_asns: set) -> list[VantagePoint]:
    """Pick up to cap, preferring unseen ASNs, ties by id."""
    remaining = sorted(candidates, key=lambda v: v.id)
    chosen: list[VantagePoint] = []
    while remaining and len(chosen) < cap:
        pick = next((v for v in remaining if v.asn is not None and v.asn not in seen_asns),
                    remaining[0])
        chosen.append(pick)
        remaining.remove(pick)
        if pick.asn is not None:
            seen_asns.add(pick.asn)
    return chosen


def _stable_subset(candidates: Sequence[VantagePoint]) -> tuple[VantagePoint, ...]:
    anchors = [v for v in candidates if v.kind == "anchor"]
    probes = [v for v in candidates if v.kind != "anchor"]
    seen: set = set()
    chosen = _greedy_distinct_asn(anchors, STABLE_SET_CAP, seen)
    chosen += _greedy_distinct_asn(probes, STABLE_SET_CAP - len(chosen), seen)
    return tuple(chosen)


class VantageSet:
    __slots__ = ("per_rir", "per_country", "unmapped_country")

    def __init__(self):
        self.per_rir: dict[Rir, tuple[VantagePoint, ...]] = {}
        self.per_country: dict[str, tuple[VantagePoint, ...]] = {}
        self.unmapped_country = 0


def select_stable_sets(vantages: Iterable[VantagePoint], region_map: RegionMap) -> VantageSet:
    """Build the stable per-country and per-RIR pools (anchors first, then
    greedy ASN diversity, ties by id; at most STABLE_SET_CAP per pool)."""
    by_country: dict[str, list[VantagePoint]] = {}
    for v in vantages:
        by_country.setdefault(v.country, []).append(v)

    vset = VantageSet()
    by_rir: dict[Rir, list[VantagePoint]] = {rir: [] for rir in Rir}
    for cc in sorted(by_country):
        vset.per_country[cc] = _stable_subset(by_country[cc])
        rir = region_map.get(cc)
        if rir is None:
            vset.unmapped_country += len(by_country[cc])
        else:
            by_rir[rir].extend(by_country[cc])
    for rir in Rir:
        vset.per_rir[rir] = _stable_subset(by_rir[rir])
    return vset


def prefix_rotation(prefix: Prefix) -> int:
    """Stable non-negative hash used to rotate pool picks per prefix."""
    digest = sha256(str(prefix).encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


class VantagePlan(NamedTuple):
    vantages: tuple[VantagePoint, ...]
    no_country_vantage: bool = False
    used_regional_fallback: bool = False


def plan_vantages(reg: Registration, vset: VantageSet, region_map: RegionMap) -> VantagePlan:
    """Assemble the probe set for one registration: three per registry region
    plus five in the organization's country (or the registering region's pool
    when no organization country is known), deduplicated by id."""
    offset = prefix_rotation(reg.prefix)
    fallback = reg.org_country is None
    pool = vset.per_rir.get(reg.rir, ()) if fallback else vset.per_country.get(reg.org_country, ())
    pools = [(vset.per_rir.get(rir, ()), REGIONAL_PICKS) for rir in Rir] + [(pool, COUNTRY_PICKS)]
    unique: dict[str, VantagePoint] = {}
    for candidates, count in pools:
        # the first count of the pool rotated to start at offset, none twice
        for i in range(min(count, len(candidates))):
            v = candidates[(offset + i) % len(candidates)]
            unique.setdefault(v.id, v)  # the first pick of each id, in pick order
    return VantagePlan(vantages=tuple(unique.values()),
                       no_country_vantage=not fallback and not pool, used_regional_fallback=fallback)
