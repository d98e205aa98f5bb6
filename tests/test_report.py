import datetime
import io

import pytest

from geoaudit.classify import ConsistencyClass, ConsistencyRecord, FilterReason, TargetOutcome
from geoaudit.errors import GeoAuditError
from geoaudit.registry import (
    RegionMap,
    Registration,
    Rir,
    Status,
    parse_address,
    parse_prefix,
)
from geoaudit.report import (
    GeoDbEntry,
    distribution,
    characteristics,
    geodb_detection,
    leasing_overlap,
    load_geodb,
    oro_stats,
    sankey_edges,
    write_distribution_csv,
    write_geodb_csv,
    write_leasing_csv,
    write_summary,
)

FC, OC, OI, RI, FI = ConsistencyClass

REGION_MAP = RegionMap({
    "US": Rir.ARIN, "CA": Rir.ARIN,
    "DE": Rir.RIPE, "FR": Rir.RIPE,
    "JP": Rir.APNIC,
    "BR": Rir.LACNIC,
    "ZA": Rir.AFRINIC,
})


def reg(prefix, rir=Rir.ARIN, org_country="US", **kw):
    return Registration(prefix=parse_prefix(prefix), rir=rir, org_country=org_country, **kw)


def record(prefix, rir_reg=Rir.ARIN, cls=None, rir_geo=frozenset(), targets=(), **kw):
    return ConsistencyRecord(prefix=parse_prefix(prefix), rir_reg=rir_reg, cls=cls,
                             rir_geo=frozenset(rir_geo), targets=tuple(targets), **kw)


def test_oro_stats_fixture_15_percent():
    # 100 disjoint /24s under ARIN; 15 carry an org in the RIPE region
    regs = []
    for i in range(100):
        cc = "DE" if i < 15 else "US"
        regs.append(reg(f"10.0.{i}.0/24", org_country=cc))
    rows = oro_stats(regs, REGION_MAP)
    row = rows[(Rir.ARIN, 4)]
    assert row.prefixes == 100
    assert row.oro_prefixes == 15
    assert row.prefix_fraction == pytest.approx(0.15, abs=1e-12)
    assert row.units == 100.0
    assert row.oro_units == 15.0
    assert row.unit_fraction == pytest.approx(0.15, abs=1e-12)
    assert row.unknown_org == 0


def test_oro_membership_rule():
    rows = oro_stats([reg("10.0.0.0/24", Rir.ARIN, "BR")], REGION_MAP)
    assert rows[(Rir.ARIN, 4)].oro_prefixes == 1
    rows = oro_stats([reg("10.0.0.0/24", Rir.RIPE, "DE")], REGION_MAP)
    assert rows[(Rir.RIPE, 4)].oro_prefixes == 0


def test_oro_unknown_orgs_counted_separately():
    regs = [
        reg("10.0.0.0/24", org_country="US"),
        reg("10.0.1.0/24", org_country=None),
        reg("10.0.2.0/24", org_country="XX"),
    ]
    row = oro_stats(regs, REGION_MAP)[(Rir.ARIN, 4)]
    assert row.prefixes == 3
    assert row.oro_prefixes == 0
    assert row.unknown_org == 2


def test_oro_units_deduplicate_overlap():
    # a /16 containing a /24 counts once, at the /16
    regs = [
        reg("10.0.0.0/16", org_country="DE"),
        reg("10.0.5.0/24", org_country="DE"),
        reg("10.1.0.0/24", org_country="US"),
    ]
    row = oro_stats(regs, REGION_MAP)[(Rir.ARIN, 4)]
    assert row.units == 257.0
    assert row.oro_units == 256.0
    assert row.oro_units <= row.units


def test_oro_v6_units():
    regs = [reg("2001:db8::/32", Rir.RIPE, "JP"), reg("2001:db9::/48", Rir.RIPE, "DE")]
    row = oro_stats(regs, REGION_MAP)[(Rir.RIPE, 6)]
    assert row.units == 65536.0 + 1.0
    assert row.oro_units == 65536.0


def test_distribution_fractions():
    records = [
        record("10.0.0.0/24", Rir.ARIN, FC),
        record("10.0.1.0/24", Rir.ARIN, FC),
        record("10.0.2.0/24", Rir.ARIN, FC),
        record("10.0.3.0/24", Rir.ARIN, RI),
        record("10.1.0.0/24", Rir.RIPE, OC),
        record("2001:db8::/32", Rir.RIPE, OC),
        record("10.0.4.0/24", Rir.ARIN),  # filtered records do not count
    ]
    rows = distribution(records)
    assert rows[Rir.ARIN][FC] == 0.75
    assert rows[Rir.ARIN][RI] == 0.25
    assert rows[Rir.RIPE][OC] == 1.0
    assert rows[None][FC] == 0.5
    for row in rows.values():
        assert abs(sum(row.values()) - 1.0) < 1e-9


def test_characteristics_cross_tabs():
    regs = {
        parse_prefix("10.0.0.0/24"): reg("10.0.0.0/24", status=Status.ALLOCATED,
                                         last_updated=datetime.date(2019, 5, 1)),
        parse_prefix("10.0.1.0/24"): reg("10.0.1.0/24", status=Status.ASSIGNED,
                                         last_updated=datetime.date(2021, 1, 1)),
        parse_prefix("10.0.2.0/24"): reg("10.0.2.0/24", status=Status.ALLOCATED),
    }
    records = [
        record("10.0.0.0/24", Rir.ARIN, FC),
        record("10.0.1.0/24", Rir.ARIN, RI),
        record("10.0.2.0/24", Rir.ARIN, FC),
        record("10.9.0.0/24", Rir.ARIN, FC),  # classified, but no registration: not counted
    ]
    by_status, by_year = characteristics(records, regs)
    assert sum(by_status.values()) == sum(by_year.values()) == 3
    assert by_status[(FC, Status.ALLOCATED)] == 2
    assert by_status[(RI, Status.ASSIGNED)] == 1
    assert by_year[(FC, 2019)] == 1
    assert by_year[(FC, None)] == 1
    assert by_year[(RI, 2021)] == 1


def test_load_geodb():
    entries = load_geodb(io.StringIO("prefix,country\n10.0.0.0/24,de\n2001:db8::/32,JP\n"))
    assert entries[0] == GeoDbEntry(prefix=parse_prefix("10.0.0.0/24"), country="DE")
    with pytest.raises(GeoAuditError):
        load_geodb(io.StringIO("net,cc\n10.0.0.0/24,DE\n"))


def test_geodb_detection_counts():
    records = [
        record("10.0.0.0/24", Rir.ARIN, RI, rir_geo={Rir.APNIC}),   # provider says JP
        record("10.0.1.0/24", Rir.ARIN, FI, rir_geo={Rir.RIPE}),    # provider says US
        record("10.0.2.0/24", Rir.ARIN, RI, rir_geo={Rir.RIPE}),    # provider says DE
        record("10.0.3.0/24", Rir.ARIN, FI, rir_geo={Rir.RIPE}),    # no coverage
        record("10.0.4.0/24", Rir.ARIN, FC),                        # not eligible
        record("10.1.0.0/24", Rir.RIPE, RI, rir_geo={Rir.ARIN}),    # provider says US
    ]
    provider = [
        GeoDbEntry(parse_prefix("10.0.0.0/24"), "JP"),
        GeoDbEntry(parse_prefix("10.0.1.0/24"), "US"),
        GeoDbEntry(parse_prefix("10.0.2.0/24"), "DE"),
        GeoDbEntry(parse_prefix("10.1.0.0/24"), "US"),
    ]
    stats = geodb_detection(records, {"alpha": provider}, REGION_MAP)
    arin = stats["alpha"][Rir.ARIN]
    assert arin.eligible == 4
    assert arin.no_coverage == 1
    assert arin.covered == 3
    # JP and DE are out-of-region for ARIN; US is not
    assert arin.detected == 2
    assert arin.fraction == pytest.approx(2 / 3)
    ripe = stats["alpha"][Rir.RIPE]
    assert (ripe.eligible, ripe.detected) == (1, 1)

    # strict variant: the provider must also agree with a measured region
    strict = geodb_detection(records, {"alpha": provider}, REGION_MAP,
                             require_geo_agreement=True)
    arin = strict["alpha"][Rir.ARIN]
    assert arin.detected == 2  # JP in {APNIC}, DE in {RIPE}: both agree


def test_geodb_detection_strict_disagreement():
    records = [record("10.0.0.0/24", Rir.ARIN, RI, rir_geo={Rir.LACNIC})]
    provider = [GeoDbEntry(parse_prefix("10.0.0.0/24"), "JP")]
    loose = geodb_detection(records, {"p": provider}, REGION_MAP)
    strict = geodb_detection(records, {"p": provider}, REGION_MAP,
                             require_geo_agreement=True)
    assert loose["p"][Rir.ARIN].detected == 1
    assert strict["p"][Rir.ARIN].detected == 0


def test_geodb_unmapped_country_is_no_coverage():
    records = [record("10.0.0.0/24", Rir.ARIN, RI)]
    provider = [GeoDbEntry(parse_prefix("10.0.0.0/24"), "XK")]
    stats = geodb_detection(records, {"p": provider}, REGION_MAP)
    assert stats["p"][Rir.ARIN].no_coverage == 1


def test_leasing_overlap_27_3_percent():
    # eleven ARIN FI records; exactly three overlap the lease list, one each
    # by exact match, containment, and covering
    records = [record(f"10.2.{i}.0/24", Rir.ARIN, FI) for i in range(11)]
    records += [record("10.3.0.0/24", Rir.ARIN, RI)]  # separate row
    leased = [
        parse_prefix("10.2.0.0/24"),    # exact match
        parse_prefix("10.2.1.128/25"),  # contained in the record's block
        parse_prefix("10.2.10.0/23"),   # covers 10.2.10.0/24 and nothing else
    ]
    stats = leasing_overlap(records, leased)
    row = stats[(Rir.ARIN, FI)]
    assert row.records == 11
    assert row.overlapping == 3
    assert row.fraction == pytest.approx(3 / 11, abs=1e-12)
    assert round(row.fraction * 1000) / 10 == 27.3
    assert stats[(Rir.ARIN, RI)].records == 1
    assert stats[(Rir.ARIN, RI)].overlapping == 0


def test_sankey_edges_flow_to_vantage_region():
    def outcome(target, country, cls):
        return TargetOutcome(target=parse_address(target), responded=True,
                             vantage_country=country, cls=cls)

    records = [
        record("10.0.0.0/24", Rir.ARIN, RI, targets=[outcome("10.0.0.1", "DE", RI)]),
        record("10.0.1.0/24", Rir.ARIN, FC, targets=[outcome("10.0.1.1", "US", FC)]),
        record("10.0.2.0/24", Rir.ARIN, RI, targets=[
            outcome("10.0.2.1", None, None),       # unclassified target skipped
            outcome("10.0.2.2", "DE", RI),
        ]),
        record("10.0.3.0/24", Rir.ARIN),  # filtered: no flow
        # classified, but no classified target has a mapped vantage country: no flow
        record("10.0.4.0/24", Rir.ARIN, RI, targets=[outcome("10.0.4.1", "XX", RI),
                                                    outcome("10.0.4.2", "DE", None)]),
    ]
    edges = sankey_edges(records, REGION_MAP)
    assert edges == [(Rir.ARIN, Rir.ARIN, 1), (Rir.ARIN, Rir.RIPE, 2)]


def test_csv_writers_and_summary():
    records = [
        record("10.0.0.0/24", Rir.ARIN, FC),
        record("10.0.1.0/24", Rir.ARIN, RI),
        record("10.0.2.0/24", Rir.ARIN, filter_reason=None),
    ]
    # a record with neither class nor reason still counts as a candidate
    buf = io.StringIO()
    write_distribution_csv(distribution(records), buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "rir,FC,OC,OI,RI,FI"
    assert lines[1].startswith("ARIN,0.500000")
    assert lines[-1].startswith("ALL,")

    buf = io.StringIO()
    stats = geodb_detection([record("10.0.0.0/24", Rir.ARIN, RI)],
                            {"alpha": [GeoDbEntry(parse_prefix("10.0.0.0/24"), "JP")]},
                            REGION_MAP)
    write_geodb_csv(stats, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "provider,rir,eligible,covered,detected,fraction,no_coverage"
    assert lines[1] == "alpha,ARIN,1,1,1,1.000000,0"

    buf = io.StringIO()
    write_leasing_csv(leasing_overlap([record("10.0.0.0/24", Rir.ARIN, FI)],
                                      [parse_prefix("10.0.0.0/24")]), buf)
    assert "ARIN,FI,1,1,1.000000" in buf.getvalue()

    buf = io.StringIO()
    write_summary(records, buf)
    text = buf.getvalue()
    assert "candidate prefixes : 3" in text
    assert "classified         : 2" in text
    assert "accounting identity: BROKEN" in text  # the reasonless record breaks it

    buf = io.StringIO()
    write_summary(records[:2], buf)
    assert "accounting identity: holds" in buf.getvalue()


def test_write_summary_lists_each_nonzero_filter_in_filter_order():
    records = [
        record("10.0.0.0/24", Rir.ARIN, FC),
        record("10.0.1.0/24", filter_reason=FilterReason.CONFLICTING),
        record("10.0.2.0/24", filter_reason=FilterReason.UNRESPONSIVE),
        record("10.0.3.0/24", filter_reason=FilterReason.NIR),
        record("10.0.4.0/24", filter_reason=FilterReason.UNRESPONSIVE),
    ]
    buf = io.StringIO()
    write_summary(records, buf)
    lines = buf.getvalue().splitlines()
    assert [line for line in lines if line.startswith("filtered")] == [
        "filtered unresponsive          : 2",
        "filtered nir                   : 1",
        "filtered conflicting           : 1",
    ]
    assert "classified         : 1" in lines
    assert lines[-1] == "accounting identity: holds"
