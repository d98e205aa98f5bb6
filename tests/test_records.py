"""Record semantics: immutable records are NamedTuples, checked where they
are built; objects that count or cache are slotted classes, unless the
counts are a plain mapping, as classify's and vantage's are."""

import datetime
import math

import pytest

from geoaudit.bgp import Alignment, AlignmentResult, Rib
from geoaudit.classify import (
    AuditConfig,
    ConsistencyClass,
    ConsistencyRecord,
    TargetOutcome,
)
from geoaudit.cli import RunConfig
from geoaudit.errors import GeoAuditError
from geoaudit.geo import FeasibleRegion, GeoConfig
from geoaudit.index import PrefixIndex
from geoaudit.measure import MeasurementResult, SyntheticWorld
from geoaudit.registry import OroStats, RegionMap, Registration, Rir, Status, parse_address, parse_prefix
from geoaudit.report import DetectionStats, GeoDbEntry, LeasingStats
from geoaudit.targets import HitlistEntry, TargetPlan
from geoaudit.vantage import VantagePlan, VantagePoint, VantageSet
from geoaudit.whois import Dialect, IngestReport

PREFIX = parse_prefix("192.0.2.0/24")
ADDR = parse_address("192.0.2.1")
REG = Registration(prefix=PREFIX, rir=Rir.RIPE)
VANTAGE = VantagePoint(id="v-1", country="DE", lat=50.0, lon=8.0)
GEO = GeoConfig(country_points={"DE": ((50.0, 8.0),)})

# each record with its required fields alone, by keyword
RECORDS = {
    Registration: {"prefix": PREFIX, "rir": Rir.RIPE},
    VantagePoint: {"id": "v-1", "country": "DE", "lat": 50.0, "lon": 8.0},
    TargetPlan: {"registration": REG, "targets": (ADDR,)},
    TargetOutcome: {"target": ADDR, "responded": True},
    ConsistencyRecord: {"prefix": PREFIX, "rir_reg": Rir.RIPE},
    HitlistEntry: {"addr": ADDR},
    AlignmentResult: {"alignment": Alignment.ALIGNED},
    FeasibleRegion: {"vantage_id": "v-1", "rtt_ms": 1.5, "radius_km": 150.0,
                     "countries": frozenset({"DE"}), "rirs": frozenset({Rir.RIPE})},
    VantagePlan: {"vantages": (VANTAGE,)},
    Dialect: {"rir": Rir.ARIN, **{name: ("x",) for name in Dialect._fields[1:]}},
    GeoDbEntry: {"prefix": PREFIX, "country": "DE"},
    RunConfig: {},
    AuditConfig: {"region_map": RegionMap({"DE": Rir.RIPE}), "geo": GEO},
    Rib: {"routes": PrefixIndex([(PREFIX, frozenset({64500}))])},
}


@pytest.mark.parametrize("kind", RECORDS, ids=lambda kind: kind.__name__)
def test_keyword_construction_fills_the_defaults(kind):
    record = kind(**RECORDS[kind])
    assert set(RECORDS[kind]) == set(kind._fields) - set(kind._field_defaults)
    for name in kind._fields:
        want = RECORDS[kind][name] if name in RECORDS[kind] else kind._field_defaults[name]
        assert getattr(record, name) == want, name
    assert tuple(record) == tuple(getattr(record, name) for name in kind._fields)


@pytest.mark.parametrize("kind", RECORDS, ids=lambda kind: kind.__name__)
def test_a_record_refuses_attribute_assignment(kind):
    record = kind(**RECORDS[kind])
    for name in (*kind._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("kind", RECORDS, ids=lambda kind: kind.__name__)
def test_equal_fields_give_equal_records_and_hashes(kind):
    one, two = kind(**RECORDS[kind]), kind(**RECORDS[kind])
    assert one is not two
    assert one == two and hash(one) == hash(two)
    assert kind(*one) == one and hash(kind(*one)) == hash(one)


@pytest.mark.parametrize("kind", RECORDS, ids=lambda kind: kind.__name__)
def test_replace_keeps_the_class(kind):
    record = kind(**RECORDS[kind])
    first = kind._fields[0]
    again = record._replace(**{first: getattr(record, first)})
    assert type(again) is kind and again == record
    assert type(kind._make(record)) is kind


def test_with_flag_keeps_the_class_and_adds_a_flag_once():
    flagged = REG.with_flag("moas")
    assert type(flagged) is Registration
    assert flagged.flags == ("moas",) and flagged.with_flag("moas") is flagged
    assert flagged._replace(flags=()) == REG
    assert REG.flags == () and REG.status is Status.LEGACY_OR_UNKNOWN


def test_a_nested_record_round_trips_as_its_class():
    plan = TargetPlan(registration=REG._replace(last_updated=datetime.date(2020, 1, 2)),
                      targets=(ADDR,))
    again = TargetPlan.from_json(plan.to_json())
    assert again == plan and type(again.registration) is Registration
    record = ConsistencyRecord(prefix=PREFIX, rir_reg=Rir.RIPE, cls=ConsistencyClass.FC,
                               targets=(TargetOutcome(target=ADDR, responded=True),))
    again = ConsistencyRecord.from_json(record.to_json())
    assert again == record and type(again.targets[0]) is TargetOutcome


@pytest.mark.parametrize("change, message", [
    ({"lat": 90.5}, r"^lat: 90\.5 is not in \[-90, 90\]$"),
    ({"lat": math.nan}, r"^lat: nan is not in \[-90, 90\]$"),
    ({"lon": -180.5}, r"^lon: -180\.5 is not in \[-180, 180\]$"),
    ({"lon": math.inf}, r"^lon: inf is not in \[-180, 180\]$"),
    ({"id": "v-\ud800"}, r"^id 'v-\\ud800' is not valid UTF-8$"),
])
def test_vantage_checks_fire_on_every_construction(change, message):
    fields = {**RECORDS[VantagePoint], **change}
    with pytest.raises(GeoAuditError, match=message):
        VantagePoint(**fields)
    with pytest.raises(GeoAuditError, match=message):
        VantagePoint(*fields.values())
    with pytest.raises(GeoAuditError, match=message):
        VANTAGE._replace(**change)
    with pytest.raises(GeoAuditError, match=message):
        VantagePoint._make({**VANTAGE._asdict(), **change}.values())


def test_vantage_country_is_normalised_on_every_construction():
    assert VantagePoint(id="v-1", country=" de\t", lat=0.0, lon=0.0).country == "DE"
    assert VantagePoint("v-1", "fr", 0.0, 0.0).country == "FR"
    assert VANTAGE._replace(country=" nl ").country == "NL"
    assert VantagePoint.from_json({"id": "v", "country": "it ", "lat": 0, "lon": 0}).country == "IT"


@pytest.mark.parametrize("kwargs, message", [
    ({"propagation_factor": 0.0}, "propagation_factor is 0.0, must be in"),
    ({"propagation_factor": 1.5}, "propagation_factor is 1.5, must be in"),
    ({"propagation_factor": math.nan}, "propagation_factor is nan, must be in"),
    ({"noise_ms": -1.0}, "noise_ms is -1.0, must be finite"),
    ({"noise_ms": math.inf}, "noise_ms is inf, must be finite"),
    ({"noise_ms": math.nan}, "noise_ms is nan, must be finite"),
])
def test_world_checks_fire_on_direct_construction(kwargs, message):
    with pytest.raises(GeoAuditError, match=message):
        SyntheticWorld(**kwargs)


def test_world_defaults_are_not_shared():
    one, two = SyntheticWorld(), SyntheticWorld()
    one.target_locations[ADDR] = (0.0, 0.0)
    one.unresponsive.add(ADDR)
    assert two.target_locations == {} and two.unresponsive == set()


STATE = {
    "IngestReport": lambda: IngestReport(Rir.ARIN),
    "VantageSet": VantageSet,
    "OroStats": lambda: OroStats(Rir.ARIN, 4),
    "DetectionStats": DetectionStats,
    "LeasingStats": LeasingStats,
    "GeoConfig": lambda: GeoConfig(country_points={}),
    "SyntheticWorld": SyntheticWorld,
    "MeasurementResult": lambda: MeasurementResult("v-1", ADDR, (1.0,)),
}


@pytest.mark.parametrize("name", STATE)
def test_state_is_a_slotted_class(name):
    obj = STATE[name]()
    assert not isinstance(obj, tuple)
    assert not hasattr(obj, "__dict__")
    with pytest.raises(AttributeError):
        obj.no_such_field = 1


def test_counters_start_at_zero_and_stay_mutable():
    rep = IngestReport(Rir.ARIN)
    assert [getattr(rep, name) for name in IngestReport.__slots__] == [Rir.ARIN] + [0] * 11
    rep.unresolved_orgs = 3  # the benchmark's replica of ingest sets it
    assert rep.unresolved_orgs == 3 and rep.check_identity()
