import io
import itertools
import json
import random

import pytest

from geoaudit.bgp import load_rib
from geoaudit.classify import (
    AuditConfig,
    ConsistencyClass,
    ConsistencyRecord,
    FilterReason,
    TargetOutcome,
    audit_pipeline,
    audit_prefix,
    classify_one,
    load_records,
    pipeline_counts,
    write_records,
)
from geoaudit.errors import GeoAuditError
from geoaudit.geo import GeoConfig
from geoaudit.index import PrefixIndex
from geoaudit.measure import MeasurementResult
from geoaudit.registry import RegionMap, Registration, Rir, parse_address, parse_prefix
from geoaudit.targets import TargetPlan
from geoaudit.vantage import VantagePoint

FC, OC, OI, RI, FI = ConsistencyClass


def test_classify_one_example_rows():
    assert classify_one(Rir.ARIN, Rir.ARIN, {Rir.ARIN}) is FC
    assert classify_one(Rir.RIPE, Rir.ARIN, {Rir.ARIN}) is OC
    assert classify_one(Rir.ARIN, Rir.RIPE, {Rir.ARIN}) is OI
    assert classify_one(Rir.ARIN, Rir.ARIN, {Rir.RIPE}) is RI
    assert classify_one(Rir.ARIN, Rir.RIPE, {Rir.APNIC}) is FI


def test_classify_one_oc_beats_oi():
    # geo contains both the org and registered regions: org wins
    assert classify_one(Rir.ARIN, Rir.RIPE, {Rir.ARIN, Rir.RIPE}) is OC


def test_classify_one_missing_org_collapses_to_fc_ri():
    assert classify_one(Rir.ARIN, None, {Rir.ARIN}) is FC
    assert classify_one(Rir.ARIN, None, {Rir.RIPE}) is RI
    assert classify_one(Rir.ARIN, None, {Rir.APNIC, Rir.ARIN}) is FC


def test_classify_one_empty_geo_raises():
    with pytest.raises(GeoAuditError, match="^no feasible region for ARIN prefix$"):
        classify_one(Rir.ARIN, Rir.RIPE, frozenset())


def test_classify_one_full_truth_table():
    # independently restated class definitions, checked as predicates; for
    # every combination exactly one definition holds and classify_one agrees
    def definitions(reg, org, geo):
        same = org == reg or org is None
        return {
            FC: same and reg in geo,
            RI: same and reg not in geo,
            OC: not same and org in geo,
            OI: not same and org not in geo and reg in geo,
            FI: not same and org not in geo and reg not in geo,
        }

    all_rirs = list(Rir)
    combos = 0
    for reg, org in itertools.product(all_rirs, all_rirs):
        for r in range(1, 6):
            for geo in itertools.combinations(all_rirs, r):
                truth = definitions(reg, org, frozenset(geo))
                matching = [cls for cls, holds in truth.items() if holds]
                assert len(matching) == 1
                assert classify_one(reg, org, frozenset(geo)) is matching[0]
                combos += 1
    assert combos == 775


# harness for audit_prefix: three countries, one vantage each
REGION_MAP = RegionMap({"US": Rir.ARIN, "DE": Rir.RIPE, "JP": Rir.APNIC})
POINTS = {"US": ((40.0, -100.0),), "DE": ((50.0, 10.0),), "JP": ((35.0, 140.0),)}
VANTAGES = {
    "v-us": VantagePoint(id="v-us", kind="probe", country="US", lat=40.0, lon=-100.0),
    "v-de": VantagePoint(id="v-de", kind="probe", country="DE", lat=50.0, lon=10.0),
    "v-xx": VantagePoint(id="v-xx", kind="probe", country="XX", lat=-50.0, lon=-150.0),
}
CONFIG = AuditConfig(region_map=REGION_MAP, geo=GeoConfig(country_points=POINTS))


def make_plan(prefix="192.0.2.0/24", targets=("192.0.2.1",), rir=Rir.ARIN,
              org_country="US", **kw):
    reg = Registration(prefix=parse_prefix(prefix), rir=rir, org_country=org_country, **kw)
    return TargetPlan(registration=reg, targets=tuple(parse_address(t) for t in targets))


def near(vid, target, rtt=2.0):
    return MeasurementResult(vid, parse_address(target), (rtt,))


def silent(vid, target):
    return MeasurementResult(vid, parse_address(target), ())


def run_one(plan, results_by_target, rib_text="192.0.2.0/24 65000\n",
            anycast=(), nir_markers=(), config=CONFIG):
    rib = load_rib(io.StringIO(rib_text))
    return audit_prefix(plan, results_by_target, VANTAGES, rib,
                        PrefixIndex((p, True) for p in anycast), nir_markers, config)


def test_audit_prefix_classifies_fc():
    plan = make_plan()
    rec = run_one(plan, {parse_address("192.0.2.1"): [near("v-us", "192.0.2.1")]})
    assert rec.cls is FC
    assert rec.filter_reason is None
    assert rec.rir_geo == frozenset({Rir.ARIN})
    assert rec.targets[0].vantage_id == "v-us"
    assert rec.targets[0].vantage_country == "US"
    assert rec.targets[0].min_rtt_ms == 2.0


def test_audit_prefix_classifies_ri_elsewhere():
    plan = make_plan()
    rec = run_one(plan, {parse_address("192.0.2.1"): [near("v-de", "192.0.2.1")]})
    assert rec.cls is RI
    assert rec.rir_geo == frozenset({Rir.RIPE})


@pytest.mark.parametrize("first, second, cls, reason, flags", [
    ("v-us", "v-us", FC, None, ()),
    ("v-us", None, FC, None, ()),
    (None, "v-us", FC, None, ()),
    ("v-us", "v-xx", FC, None, ("empty_geo_set",)),
    ("v-us", "v-de", None, FilterReason.CONFLICTING, ()),
    (None, None, None, FilterReason.UNRESPONSIVE, ()),
    ("v-xx", None, None, FilterReason.UNRESPONSIVE, ("empty_geo_set",)),
    # two targets with an empty feasible set flag the record once
    ("v-xx", "v-xx", None, FilterReason.UNRESPONSIVE, ("empty_geo_set",)),
])
def test_audit_prefix_two_targets(first, second, cls, reason, flags):
    """Two targets agreeing, or one beside a silent or unlocated one, give
    the record their class; two classes make it conflicting, none unresponsive.
    None is a silent target; v-xx answers at 1 ms, too close to reach a point."""
    targets = ("192.0.2.1", "192.0.2.2")
    results = {parse_address(t): [near(vid, t, rtt=1.0) if vid else silent("v-us", t)]
               for t, vid in zip(targets, (first, second))}
    rec = run_one(make_plan(targets=targets), results)
    assert (rec.cls, rec.filter_reason, rec.flags) == (cls, reason, flags)


def test_audit_prefix_unresponsive_comes_first():
    # never measured, but also anycast and NIR and unadvertised: the
    # unresponsive filter must claim it
    plan = make_plan(org_id="JPNIC-NET")
    rec = run_one(plan, {parse_address("192.0.2.1"): [silent("v-us", "192.0.2.1")]},
                  rib_text="10.0.0.0/8 65000\n",
                  anycast=[parse_prefix("192.0.2.0/24")], nir_markers=["jpnic"])
    assert rec.filter_reason is FilterReason.UNRESPONSIVE
    assert rec.cls is None


def test_audit_prefix_anycast_beats_nir_and_bgp():
    plan = make_plan(org_id="JPNIC-NET")
    rec = run_one(plan, {parse_address("192.0.2.1"): [near("v-us", "192.0.2.1")]},
                  rib_text="192.0.2.0/25 65000\n192.0.2.128/25 65001\n",
                  anycast=[parse_prefix("192.0.0.0/16")], nir_markers=["jpnic"])
    assert rec.filter_reason is FilterReason.ANYCAST


def test_audit_prefix_nir_beats_bgp():
    plan = make_plan(org_id="JPNIC-NET")
    rec = run_one(plan, {parse_address("192.0.2.1"): [near("v-us", "192.0.2.1")]},
                  rib_text="192.0.2.0/25 65000\n192.0.2.128/25 65001\n",
                  nir_markers=["jpnic"])
    assert rec.filter_reason is FilterReason.NIR


def test_audit_prefix_nir_matches_maintainer_flags():
    plan = make_plan(flags=("mnt:MAINT-KRNIC-AP",))
    rec = run_one(plan, {parse_address("192.0.2.1"): [near("v-us", "192.0.2.1")]},
                  nir_markers=["krnic"])
    assert rec.filter_reason is FilterReason.NIR


def per_haystack_nir_rule(reg, markers):
    """The NIR rule as it once ran, lowering every marker again for each
    haystack of each prefix and skipping the empty ones there: the reference."""
    if not markers:
        return False
    haystacks = [reg.org_id or ""] + [f for f in reg.flags if f.startswith("mnt:")]
    lowered = [h.lower() for h in haystacks]
    return any(marker.lower() in h for h in lowered for marker in markers if marker)


def test_nir_markers_lowered_once_per_audit_filter_as_the_per_haystack_rule():
    """audit_pipeline lowers each NIR marker once and drops the empty ones:
    on seeded org ids, mnt: and other flags, and mixed-case markers, empty
    ones among them, a prefix is filtered as NIR exactly when the
    per-haystack rule says so."""
    rng = random.Random(35)
    words = ["JPNIC", "jpnic", "KrNic", "twNIC", "-AP", "Net", "MAINT", "\u0130", "\u00df", ""]

    def text(most):
        return "".join(rng.choice(words) for _ in range(rng.randint(0, most)))

    rib = load_rib(io.StringIO("".join(f"10.0.{i}.0/24 65000\n" for i in range(20))))
    seen = set()
    for _ in range(80):
        markers = [text(2) for _ in range(rng.randint(0, 4))]
        plans = [make_plan(prefix=f"10.0.{i}.0/24", targets=(f"10.0.{i}.1",),
                           org_id=rng.choice([None, text(3)]),
                           flags=tuple(dict.fromkeys(rng.choice(["mnt:", "MNT:", "note:"]) + text(3)
                                                     for _ in range(rng.randint(0, 3)))))
                 for i in range(20)]
        results = {plan.targets[0]: [near("v-us", str(plan.targets[0]))] for plan in plans}
        records = audit_pipeline(plans, results, VANTAGES, rib, (), markers, CONFIG)
        assert [rec.prefix for rec in records] == [plan.prefix for plan in plans]
        for plan, rec in zip(plans, records):
            nir = per_haystack_nir_rule(plan.registration, markers)
            assert (rec.filter_reason is FilterReason.NIR) is nir
            seen.add((nir, any(m != m.lower() for m in markers), "" in markers))
    # matches and misses, with mixed-case markers and with empty ones
    assert seen >= {(nir, True, True) for nir in (False, True)}


def test_audit_prefix_bgp_filters():
    plan = make_plan()
    results = {parse_address("192.0.2.1"): [near("v-us", "192.0.2.1")]}
    rec = run_one(plan, results, rib_text="192.0.2.0/25 65000\n192.0.2.128/25 65001\n")
    assert rec.filter_reason is FilterReason.BGP_SUPERNET_OR_MIXED
    rec = run_one(plan, results, rib_text="192.0.2.0/25 65000\n192.0.2.128/25 65000\n")
    assert rec.filter_reason is FilterReason.BGP_SUPERNET_OR_MIXED
    rec = run_one(plan, results, rib_text="10.0.0.0/8 65000\n")
    assert rec.filter_reason is FilterReason.UNADVERTISED
    # subnet of a covering route still classifies
    rec = run_one(plan, results, rib_text="192.0.0.0/16 65000\n")
    assert rec.cls is FC


def test_audit_prefix_moas_flag():
    plan = make_plan()
    rec = run_one(plan, {parse_address("192.0.2.1"): [near("v-us", "192.0.2.1")]},
                  rib_text="192.0.2.0/24 65000\n192.0.2.0/24 65001\n")
    assert rec.cls is FC
    assert "moas" in rec.flags


def test_audit_prefix_conflicting_targets():
    plan = make_plan(targets=("192.0.2.1", "192.0.2.2"))
    results = {
        parse_address("192.0.2.1"): [near("v-us", "192.0.2.1")],
        parse_address("192.0.2.2"): [near("v-de", "192.0.2.2")],
    }
    rec = run_one(plan, results)
    assert rec.filter_reason is FilterReason.CONFLICTING
    assert rec.cls is None
    # the union of both disks is preserved for reporting
    assert rec.rir_geo == frozenset({Rir.ARIN, Rir.RIPE})


def test_audit_prefix_silent_target_beside_an_answering_one():
    plan = make_plan(targets=("192.0.2.1", "192.0.2.2"))
    results = {
        parse_address("192.0.2.1"): [near("v-de", "192.0.2.1")],
        parse_address("192.0.2.2"): [silent("v-us", "192.0.2.2")],
    }
    rec = run_one(plan, results)
    assert rec.cls is RI  # classified from the answering target alone
    assert rec.rir_geo == frozenset({Rir.RIPE})
    answering, quiet = rec.targets
    assert answering.responded and answering.cls is RI
    assert quiet == TargetOutcome(target=parse_address("192.0.2.2"), responded=False)
    assert json.loads(quiet.to_line())["responded"] is False


def test_audit_prefix_missing_org_country_default_and_strict():
    plan = make_plan(org_country=None)
    results = {parse_address("192.0.2.1"): [near("v-us", "192.0.2.1")]}
    rec = run_one(plan, results)
    assert rec.cls is FC
    assert rec.rir_org is None
    assert "no_org_country" in rec.flags

    strict = AuditConfig(region_map=REGION_MAP, geo=GeoConfig(country_points=POINTS),
                         strict_no_org=True)
    rec = run_one(plan, results, config=strict)
    assert rec.filter_reason is FilterReason.NO_ORG_COUNTRY


def test_audit_prefix_unmapped_org_country_flag():
    plan = make_plan(org_country="XX")
    rec = run_one(plan, {parse_address("192.0.2.1"): [near("v-us", "192.0.2.1")]})
    assert rec.cls is FC  # unmapped org behaves like a missing org
    assert "org_country_unmapped" in rec.flags


def test_audit_prefix_empty_geo_set():
    # vantage in an unmapped country, radius too small to reach any point
    plan = make_plan()
    rec = run_one(plan, {parse_address("192.0.2.1"): [near("v-xx", "192.0.2.1", rtt=1.0)]})
    assert "empty_geo_set" in rec.flags
    assert rec.filter_reason is FilterReason.UNRESPONSIVE


RIBS = {
    "exact": "192.0.2.0/24 65000\n",
    "moas": "192.0.2.0/24 65000\n192.0.2.0/24 65001\n",
    "covering": "192.0.0.0/16 65000\n",
    "same-origin pieces": "192.0.2.0/25 65000\n192.0.2.128/25 65000\n",
    "mixed pieces": "192.0.2.0/25 65000\n192.0.2.128/25 65001\n",
    "unrelated": "10.0.0.0/8 65000\n",
}
STRICT = AuditConfig(region_map=REGION_MAP, geo=GeoConfig(country_points=POINTS), strict_no_org=True)


def random_results(rng, target):
    """No result, a silent one, or replies from random vantages; v-xx
    answers at 1 ms, too close to reach any point."""
    vids = rng.sample(sorted(VANTAGES), rng.randint(0, len(VANTAGES)))
    return [silent(vid, target) if rng.random() < 0.2
            else near(vid, target, rtt=1.0 if vid == "v-xx" else rng.choice([2.0, 30.0, 120.0]))
            for vid in vids]


def test_audit_prefix_record_invariants_on_random_inputs():
    rng = random.Random(25)
    seen = set()
    for _ in range(2000):
        targets = ("192.0.2.1", "192.0.2.2")[:rng.randint(1, 2)]
        plan = make_plan(targets=targets, rir=rng.choice([Rir.ARIN, Rir.APNIC]),
                         org_country=rng.choice(["US", "DE", "XX", None]), org_id="JPNIC-NET")
        results = {parse_address(t): random_results(rng, t) for t in targets}
        rec = run_one(plan, results, rib_text=RIBS[rng.choice(sorted(RIBS))],
                      anycast=[parse_prefix("192.0.2.0/24")] if rng.random() < 0.2 else (),
                      nir_markers=["jpnic"] if rng.random() < 0.2 else ["krnic"],
                      config=STRICT if rng.random() < 0.5 else CONFIG)
        seen.add(rec.cls or rec.filter_reason)

        assert (rec.cls is None) is not (rec.filter_reason is None)
        assert rec.rir_geo == frozenset().union(*(o.rirs for o in rec.targets))
        assert len(set(rec.flags)) == len(rec.flags)
        assert [o.target for o in rec.targets] == [parse_address(t) for t in targets]
        for o in rec.targets:
            assert (o.cls is None) is (o.vantage_id is None)
        classes = {o.cls for o in rec.targets} - {None}
        if rec.cls is not None:
            assert classes == {rec.cls}
        elif rec.filter_reason is FilterReason.CONFLICTING:
            assert len(classes) > 1
        else:  # filtered before inference, or no target located
            assert classes == set()
    # the draw reaches every class and every filter reason
    assert seen == set(ConsistencyClass) | set(FilterReason)


# flags an audit adds, and flags only ingest or plan set
AUDIT_FLAGS = ("moas", "org_country_unmapped", "no_org_country", "empty_geo_set")
OTHER_FLAGS = ("split_from_range", "mnt:JPNIC-MNT", "cross_rir_duplicate")


def test_audit_prefix_flags_each_flag_once_in_first_seen_order():
    """A registration may already carry a flag the audit adds, even twice;
    the record carries each flag once, in the order it was first seen."""
    rng = random.Random(29)
    for _ in range(1500):
        reg_flags = tuple(rng.choice(AUDIT_FLAGS + OTHER_FLAGS) for _ in range(rng.randint(0, 5)))
        targets = ("192.0.2.1", "192.0.2.2")[:rng.randint(1, 2)]
        plan = make_plan(targets=targets, org_country=rng.choice(["US", "DE", "XX", None]),
                         flags=reg_flags)
        results = {parse_address(t): random_results(rng, t) for t in targets}
        rec = run_one(plan, results, rib_text=RIBS[rng.choice(["exact", "moas", "covering"])])
        assert len(set(rec.flags)) == len(rec.flags), rec.flags
        assert rec.flags[:len(set(reg_flags))] == tuple(dict.fromkeys(reg_flags))
        assert set(rec.flags) - set(reg_flags) <= set(AUDIT_FLAGS)


def test_audit_pipeline_one_record_per_plan_sorted():
    plans = [
        make_plan("198.51.100.0/24", targets=("198.51.100.1",)),
        make_plan("192.0.2.0/24"),
    ]
    results = {
        parse_address("192.0.2.1"): [near("v-us", "192.0.2.1")],
        parse_address("198.51.100.1"): [near("v-us", "198.51.100.1")],
    }
    rib = "192.0.2.0/24 65000\n198.51.100.0/24 65001\n"
    records = audit_pipeline(plans, results, VANTAGES,
                             load_rib(io.StringIO(rib)), [], [], CONFIG)
    assert [str(r.prefix) for r in records] == ["192.0.2.0/24", "198.51.100.0/24"]

    counts = pipeline_counts(records)
    assert counts.total() == 2
    assert sum(counts[cls] for cls in ConsistencyClass) == 2
    assert None not in counts


def test_pipeline_counts_identity_with_filters():
    recs = [
        ConsistencyRecord(prefix=parse_prefix("10.0.0.0/24"), rir_reg=Rir.ARIN, cls=FC),
        ConsistencyRecord(prefix=parse_prefix("10.0.1.0/24"), rir_reg=Rir.ARIN,
                          filter_reason=FilterReason.ANYCAST),
        ConsistencyRecord(prefix=parse_prefix("10.0.2.0/24"), rir_reg=Rir.ARIN,
                          filter_reason=FilterReason.UNADVERTISED),
    ]
    counts = pipeline_counts(recs)
    assert counts.total() == 3
    assert counts == {FC: 1, FilterReason.ANYCAST: 1, FilterReason.UNADVERTISED: 1}
    assert None not in counts


def test_pipeline_counts_each_record_by_its_one_outcome():
    """Seeded records with a class, a reason, both or neither: each counts
    once, under its class if it has one, else its reason, else None, so the
    identity holds exactly when no record has neither."""
    rng = random.Random(36)
    outcomes = [*ConsistencyClass, *FilterReason, None]
    assert all(pipeline_counts([])[outcome] == 0 for outcome in outcomes)
    for _ in range(200):
        recs = [ConsistencyRecord(prefix=parse_prefix(f"10.{i}.0.0/16"), rir_reg=Rir.ARIN,
                                  cls=rng.choice([*ConsistencyClass, None]),
                                  filter_reason=rng.choice([*FilterReason, None]))
                for i in range(rng.randint(0, 12))]
        counts = pipeline_counts(recs)
        expected = dict.fromkeys(outcomes, 0)
        for rec in recs:
            expected[rec.cls if rec.cls is not None else rec.filter_reason] += 1
        assert {outcome: counts[outcome] for outcome in outcomes} == expected
        assert set(counts) <= set(outcomes)
        assert counts.total() == len(recs)
        assert (None in counts) == any(rec.cls is None and rec.filter_reason is None for rec in recs)


def test_records_json_round_trip():
    rec = ConsistencyRecord(
        prefix=parse_prefix("192.0.2.0/24"),
        rir_reg=Rir.ARIN,
        rir_org=Rir.RIPE,
        org_country="DE",
        rir_geo=frozenset({Rir.ARIN}),
        cls=OI,
        flags=("moas",),
        targets=(TargetOutcome(
            target=parse_address("192.0.2.1"), responded=True, vantage_id="v-us",
            vantage_country="US", min_rtt_ms=2.0, radius_km=199.9,
            rirs=frozenset({Rir.ARIN}), cls=OI,
        ),),
    )
    buf = io.StringIO()
    assert write_records([rec], buf) == 1
    buf.seek(0)
    assert load_records(buf) == [rec]
