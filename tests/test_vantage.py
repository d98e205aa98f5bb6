import io
import json
import random

import pytest

from geoaudit.errors import GeoAuditError
from geoaudit.registry import RegionMap, Registration, Rir, parse_prefix
from geoaudit.vantage import (
    COUNTRY_PICKS,
    REGIONAL_PICKS,
    STABLE_SET_CAP,
    VantagePoint,
    filter_vantages,
    load_bad_ids,
    load_default_coords,
    load_vantages,
    plan_vantages,
    prefix_rotation,
    select_stable_sets,
)

REGION_MAP = RegionMap({
    "US": Rir.ARIN, "CA": Rir.ARIN,
    "DE": Rir.RIPE, "FR": Rir.RIPE,
    "JP": Rir.APNIC,
    "BR": Rir.LACNIC,
    "ZA": Rir.AFRINIC,
})


def vp(vid, country, kind="probe", asn=None, lat=1.0, lon=2.0, connected=True):
    return VantagePoint(id=vid, kind=kind, country=country, lat=lat, lon=lon,
                        asn=asn, connected=connected)


def build_fleet():
    fleet = []
    i = 0
    for cc, n in [("US", 14), ("CA", 4), ("DE", 6), ("FR", 3), ("JP", 5), ("BR", 4), ("ZA", 3)]:
        for k in range(n):
            kind = "anchor" if k == 0 else "probe"
            fleet.append(vp(f"{cc.lower()}-{k:02d}", cc, kind=kind, asn=64500 + i))
            i += 1
    return fleet


def test_load_vantages_round_trip():
    v = vp("p-1", "US", asn=64500)
    row = {"id": "p-1", "kind": "probe", "country": "US", "lat": 1.0, "lon": 2.0,
           "asn": 64500, "connected": True}
    loaded = load_vantages(io.StringIO(json.dumps(row) + "\n\n"))
    assert loaded == [v]


def test_load_bad_ids_and_default_coords():
    assert load_bad_ids(io.StringIO("a-1\n# dead\nb-2 # flaky\n")) == {"a-1", "b-2"}
    coords = load_default_coords(io.StringIO("country,lat,lon\nUS,38.0,-97.0\n"))
    assert (38.0, -97.0) in coords
    with pytest.raises(GeoAuditError):
        load_default_coords(io.StringIO("country,lon\nUS,-97.0\n"))  # no lat column
    # off the globe, refused by registry.point as a vantage's point is
    for row, refusal in [("US,500,999", r"lat: 500\.0 is not in \[-90, 90\]"),
                         ("US,38.0,-181", r"lon: -181\.0 is not in \[-180, 180\]"),
                         ("US,nan,-97.0", r"lat: nan is not in \[-90, 90\]")]:
        with pytest.raises(GeoAuditError, match=f"^line 2: {refusal}$"):
            load_default_coords(io.StringIO(f"country,lat,lon\n{row}\n"))


def test_filter_vantages():
    vantages = [
        vp("ok-1", "US", asn=1),
        vp("dead-1", "US", connected=False),
        vp("bad-1", "US"),
        vp("default-1", "US", lat=38.0, lon=-97.0),
    ]
    kept, counts = filter_vantages(vantages, bad_ids={"bad-1"},
                                   default_coords={(38.0, -97.0)})
    assert [v.id for v in kept] == ["ok-1"]
    assert list(counts.items()) == [("kept", 1), ("disconnected", 1), ("bad_id", 1),
                                    ("default_coords", 1)]


def test_filter_vantages_counts_every_vantage_once():
    """Seeded fleets mixing disconnected, bad-id, default-coordinate and kept
    vantages, some with more than one fault: the counts sum to the fleet,
    kept is the length of the list returned, and a vantage counts under
    its first fault in filter order."""
    rng = random.Random(36)
    for _ in range(200):
        fleet = [vp(f"v-{i}", "US", lat=38.0 if rng.random() < 0.3 else 1.0,
                    lon=-97.0, connected=rng.random() > 0.3) for i in range(rng.randint(0, 15))]
        bad_ids = {v.id for v in fleet if rng.random() < 0.3}
        kept, counts = filter_vantages(fleet, bad_ids, {(38.0, -97.0)})
        assert sum(counts.values()) == len(fleet)
        assert counts["kept"] == len(kept)
        assert counts["disconnected"] == sum(not v.connected for v in fleet)
        assert counts["bad_id"] == sum(v.connected and v.id in bad_ids for v in fleet)
        assert kept == [v for v in fleet if v.connected and v.id not in bad_ids and v.lat != 38.0]


def test_stable_sets_cap_and_anchor_priority():
    vset = select_stable_sets(build_fleet(), REGION_MAP)
    us = vset.per_country["US"]
    assert len(us) == STABLE_SET_CAP
    assert us[0].kind == "anchor"
    arin = vset.per_rir[Rir.ARIN]
    assert len(arin) == STABLE_SET_CAP  # 18 ARIN-region vantages, capped
    assert all(len(pool) <= STABLE_SET_CAP for pool in vset.per_rir.values())
    assert len(vset.per_rir[Rir.AFRINIC]) == 3


def test_stable_sets_prefer_distinct_asns():
    # twice the cap of vantages, each ASN doubled: the cap's picks must cover
    # every ASN instead of repeating one
    vantages = [vp(f"v-{i:02d}", "US", asn=64500 + i % STABLE_SET_CAP)
                for i in range(2 * STABLE_SET_CAP)]
    vset = select_stable_sets(vantages, REGION_MAP)
    asns = [v.asn for v in vset.per_country["US"]]
    assert sorted(asns) == [64500 + i for i in range(STABLE_SET_CAP)]


def test_stable_sets_count_unmapped_countries():
    vantages = [vp("v-1", "US"), vp("v-2", "XX"), vp("v-3", "XX")]
    vset = select_stable_sets(vantages, REGION_MAP)
    assert vset.unmapped_country == 2
    assert "XX" in vset.per_country  # still usable as a country pool


def test_prefix_rotation_is_stable():
    p = parse_prefix("192.0.2.0/24")
    assert prefix_rotation(p) == prefix_rotation(parse_prefix("192.0.2.0/24"))
    assert prefix_rotation(p) != prefix_rotation(parse_prefix("192.0.3.0/24"))


def test_plan_vantages_full_size():
    vset = select_stable_sets(build_fleet(), REGION_MAP)
    reg = Registration(prefix=parse_prefix("192.0.2.0/24"), rir=Rir.ARIN, org_country="DE")
    plan = plan_vantages(reg, vset, REGION_MAP)
    # 3 per region x 5 regions + 5 in-country, minus overlap
    assert len(plan.vantages) <= 5 * REGIONAL_PICKS + COUNTRY_PICKS
    assert len(plan.vantages) >= 5 * REGIONAL_PICKS
    assert not plan.no_country_vantage
    assert not plan.used_regional_fallback
    countries = [v.country for v in plan.vantages]
    assert countries.count("DE") >= 3  # all German probes are in-country picks
    ids = [v.id for v in plan.vantages]
    assert len(ids) == len(set(ids))
    # determinism
    again = plan_vantages(reg, vset, REGION_MAP)
    assert again == plan


def test_plan_vantages_empty_country_pool():
    vset = select_stable_sets(build_fleet(), REGION_MAP)
    reg = Registration(prefix=parse_prefix("192.0.2.0/24"), rir=Rir.ARIN, org_country="MX")
    plan = plan_vantages(reg, vset, REGION_MAP)
    assert plan.no_country_vantage
    assert len(plan.vantages) == 5 * REGIONAL_PICKS


def test_plan_vantages_regional_fallback_without_org_country():
    vset = select_stable_sets(build_fleet(), REGION_MAP)
    reg = Registration(prefix=parse_prefix("192.0.2.0/24"), rir=Rir.APNIC, org_country=None)
    plan = plan_vantages(reg, vset, REGION_MAP)
    assert plan.used_regional_fallback
    # the country slots refill from the registering region's pool
    assert sum(1 for v in plan.vantages if v.country == "JP") == 5


def test_plan_vantages_rotation_spreads_picks():
    vset = select_stable_sets(build_fleet(), REGION_MAP)
    seen_first = set()
    for i in range(12):
        reg = Registration(prefix=parse_prefix(f"192.0.{i}.0/24"), rir=Rir.ARIN,
                           org_country="US")
        plan = plan_vantages(reg, vset, REGION_MAP)
        seen_first.add(plan.vantages[0].id)
    assert len(seen_first) > 1
