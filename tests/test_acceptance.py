"""Acceptance gate: ten correctness criteria, one test and one printed
PASS/FAIL line each (visible with -s). Every expected value here is either
pinned arithmetic or recomputed by an independent oracle in this file."""

import contextlib
import io
import ipaddress
import itertools
import json
import math
import random
import time
from collections import Counter

import numpy as np
import pytest

from geoaudit import cli
from geoaudit.bgp import Alignment, AlignmentResult, align, alignment_table, load_rib
from geoaudit.classify import ConsistencyClass, ConsistencyRecord, classify_one
from geoaudit.geo import (
    GeoConfig,
    infer_region,
    load_country_points,
    rtt_to_radius_km,
)
from geoaudit.index import PrefixIndex
from geoaudit.measure import MeasurementResult, load_results
from geoaudit.registry import (
    Prefix,
    RegionMap,
    Registration,
    Rir,
    Status,
    load_region_map,
    parse_address,
    parse_prefix,
    range_to_cidrs,
    share,
)
from geoaudit.report import (
    GeoDbEntry,
    distribution,
    geodb_detection,
    leasing_overlap,
    oro_stats,
    write_distribution_csv,
    write_geodb_csv,
    write_leasing_csv,
)
from geoaudit.vantage import load_vantages
from geoaudit.whois import drop_circular_transfers, normalize_status, parse_bulk_whois

from conftest import (
    CLUSTERS,
    LIVE_ARGV,
    audit_argv,
    build_campaign,
    haversine_km,
    seeded_pending,
    serve_campaign,
    write_campaign,
    written_rows,
)
from test_whois import APNIC_DUMP, ARIN_DUMP, RIPE_DUMP

FC, OC, OI, RI, FI = ConsistencyClass


@contextlib.contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {num:2d}: {label}")
        raise
    print(f"PASS  criterion {num:2d}: {label}")


def test_criterion_01_taxonomy_truth_table():
    with criterion(1, "taxonomy truth table, 775 combinations"):
        t0 = time.perf_counter()

        def definitions(reg, org, geo):
            same = org == reg or org is None
            return {
                FC: same and reg in geo,
                RI: same and reg not in geo,
                OC: not same and org in geo,
                OI: not same and org not in geo and reg in geo,
                FI: not same and org not in geo and reg not in geo,
            }

        combos = 0
        for reg, org in itertools.product(Rir, Rir):
            for r in range(1, 6):
                for geo in itertools.combinations(Rir, r):
                    truth = definitions(reg, org, frozenset(geo))
                    matching = [cls for cls, holds in truth.items() if holds]
                    assert len(matching) == 1
                    assert classify_one(reg, org, frozenset(geo)) is matching[0]
                    combos += 1
        assert combos == 775

        # the five worked examples, one per class
        assert classify_one(Rir.ARIN, Rir.ARIN, {Rir.ARIN}) is FC
        assert classify_one(Rir.RIPE, Rir.ARIN, {Rir.ARIN}) is OC
        assert classify_one(Rir.ARIN, Rir.RIPE, {Rir.ARIN}) is OI
        assert classify_one(Rir.ARIN, Rir.ARIN, {Rir.RIPE}) is RI
        assert classify_one(Rir.ARIN, Rir.RIPE, {Rir.APNIC}) is FI

        assert time.perf_counter() - t0 < 1.0


def test_criterion_02_simulator_end_to_end(tmp_path):
    with criterion(2, "simulator ground truth, zero noise and 10 ms noise"):
        t0 = time.perf_counter()

        # fixture shape: every cross-region cluster separation above 2000 km
        for ra, rb in itertools.combinations(CLUSTERS, 2):
            for _, lat_a, lon_a in CLUSTERS[ra]:
                for _, lat_b, lon_b in CLUSTERS[rb]:
                    assert haversine_km(lat_a, lon_a, lat_b, lon_b) > 2000.0

        for noise in (0.0, 10.0):
            camp = build_campaign(
                fc_per_region=40, planted_per_class=2, v6_fc_per_region=2, noise_ms=noise)
            assert len(camp.expected) == 250
            workdir = tmp_path / f"noise_{int(noise)}"
            workdir.mkdir()
            paths = write_campaign(workdir, camp)
            out = workdir / "audit.jsonl"
            assert cli.main(audit_argv(paths, str(out))) == 0

            records = [json.loads(line) for line in out.read_text().splitlines()]
            assert len(records) == 250
            assert {r["rir_reg"] for r in records} == {r.value for r in Rir}

            matched = sum(1 for r in records if r["class"] == camp.expected[r["prefix"]])
            if noise == 0.0:
                assert matched == 250
            else:
                assert matched >= math.ceil(0.99 * 250)
            # conservativeness: the true region is never excluded
            for rec in records:
                assert camp.true_region[rec["prefix"]] in rec["rir_geo"]

        assert time.perf_counter() - t0 < 30.0


def test_criterion_03_speed_of_light(tmp_path):
    with criterion(3, "speed-of-light radii and factor monotonicity"):
        assert abs(rtt_to_radius_km(100.0, 2.0 / 3.0) - 9993.08) <= 0.01
        assert abs(rtt_to_radius_km(100.0, 1.0) - 14989.62) <= 0.01

        camp = build_campaign(fc_per_region=4, planted_per_class=1, v6_fc_per_region=1)
        paths = write_campaign(tmp_path, camp)
        captured = tmp_path / "results.jsonl"
        sim_out = tmp_path / "sim.jsonl"
        assert cli.main(audit_argv(paths, str(sim_out),
                                   extra=["--capture-results", str(captured)])) == 0

        with open(paths["vantages.jsonl"]) as fp:
            vantages = {v.id: v for v in load_vantages(fp)}
        with open(paths["region_map.csv"]) as fp:
            region_map = load_region_map(fp)
        with open(paths["country_points.csv"]) as fp:
            points = load_country_points(fp)

        with open(captured) as fp:
            by_target = {target: [MeasurementResult(vid, target, rtts) for vid, rtts in replies.items()]
                         for target, replies in load_results(fp).items()}

        # wider factor, wider disk: country sets only grow
        cfg_23 = GeoConfig(country_points=points, propagation_factor=2.0 / 3.0)
        cfg_10 = GeoConfig(country_points=points, propagation_factor=1.0)
        assert len(by_target) == len(camp.expected)
        for target, results in by_target.items():
            narrow = infer_region(results, vantages, cfg_23, region_map)
            wide = infer_region(results, vantages, cfg_10, region_map)
            assert narrow.countries <= wide.countries

        def replay_argv(out, factor):
            return [
                "audit",
                "--registrations", paths["registrations.jsonl"],
                "--rib", paths["rib.txt"],
                "--hitlist-v4", paths["hitlist_v4.csv"],
                "--hitlist-v6", paths["hitlist_v6.txt"],
                "--vantages", paths["vantages.jsonl"],
                "--region-map", paths["region_map.csv"],
                "--country-points", paths["country_points.csv"],
                "--backend", "replay", "--results", str(captured),
                "--propagation-factor", str(factor),
                "--seed", "7",
                "-o", out,
            ]

        fc_counts = {}
        for factor in (2.0 / 3.0, 1.0):
            out = tmp_path / f"replay_{factor:.4f}.jsonl"
            assert cli.main(replay_argv(str(out), factor)) == 0
            records = [json.loads(line) for line in out.read_text().splitlines()]
            fc_counts[factor] = sum(1 for r in records if r["class"] == "FC")
        assert fc_counts[1.0] >= fc_counts[2.0 / 3.0]


M64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def _top_mask(bits_arr):
    """Per-element mask of the given number of leading ones in a 64-bit word."""
    shift = np.uint64(64) - np.minimum(bits_arr, np.uint64(64))
    full = M64 << np.minimum(shift, np.uint64(63))
    return np.where(bits_arr == 0, np.uint64(0), full)


class LinearIndex:
    """Flat-array scan over one family's prefixes, in two 64-bit halves; the
    oracle the prefix index must agree with. IPv4 values are shifted into
    the same 128-bit frame."""

    def __init__(self, prefixes):
        self.prefixes = list(prefixes)
        self.shift = 96 if self.prefixes[0].version == 4 else 0
        nets = [int(p.network_address) << self.shift for p in self.prefixes]
        self.hi = np.array([n >> 64 for n in nets], dtype=np.uint64)
        self.lo = np.array([n & 0xFFFFFFFFFFFFFFFF for n in nets], dtype=np.uint64)
        self.plens = np.array([p.prefixlen for p in self.prefixes], dtype=np.uint64)
        self.mask_hi = _top_mask(np.minimum(self.plens, np.uint64(64)))
        self.mask_lo = _top_mask(np.maximum(self.plens, np.uint64(64)) - np.uint64(64))

    def _halves(self, value):
        v = value << self.shift
        return np.uint64(v >> 64), np.uint64(v & 0xFFFFFFFFFFFFFFFF)

    def _holding(self, value):
        """Mask of the prefixes whose block holds the address value."""
        ahi, alo = self._halves(value)
        return ((ahi & self.mask_hi) == self.hi) & ((alo & self.mask_lo) == self.lo)

    def longest_match(self, key):
        """The most specific prefix holding an address, or equal to or holding
        a prefix."""
        if isinstance(key, Prefix):
            hit = self._holding(int(key.network_address)) & (self.plens <= np.uint64(key.prefixlen))
        else:
            hit = self._holding(int(key))
        if not hit.any():
            return None
        idx = np.nonzero(hit)[0]
        return self.prefixes[int(idx[np.argmax(self.plens[idx])])]

    def enumerate_contained(self, prefix):
        qhi, qlo = self._halves(int(prefix.network_address))
        bhi, blo = self._halves(
            int(prefix.network_address) | (1 << (prefix.max_prefixlen - prefix.prefixlen)) - 1)
        ge = (self.hi > qhi) | ((self.hi == qhi) & (self.lo >= qlo))
        le = (self.hi < bhi) | ((self.hi == bhi) & (self.lo <= blo))
        hit = ge & le & (self.plens >= np.uint64(prefix.prefixlen))
        return {self.prefixes[int(i)] for i in np.nonzero(hit)[0]}


def _net_mask(plen, bits):
    return ((1 << plen) - 1) << (bits - plen) if plen else 0


def _random_prefixes(rng, family, count):
    bits = 32 if family == 4 else 128
    pmin, pmax = (8, 28) if family == 4 else (16, 120)
    seen = set()
    out = []
    while len(out) < count:
        if out and rng.random() < 0.25:
            # derive from an existing prefix so nesting actually occurs
            base = out[rng.randrange(len(out))]
            plen = rng.randint(pmin, pmax)
            if plen <= base.prefixlen:
                net = int(base.network_address) & _net_mask(plen, bits)
            else:
                tail = rng.getrandbits(plen - base.prefixlen)
                net = int(base.network_address) | (tail << (bits - plen))
        else:
            plen = rng.randint(pmin, pmax)
            net = rng.getrandbits(bits)
            if family == 6:
                # crowd into 2000::/8 so random blocks can collide
                net = (0x20 << (bits - 8)) | (net & ((1 << (bits - 8)) - 1))
            net &= _net_mask(plen, bits)
        prefix = parse_prefix(str(ipaddress.ip_network((net, plen))))
        if prefix not in seen:
            seen.add(prefix)
            out.append(prefix)
    return out


def test_criterion_04_trie_oracle_equivalence():
    with criterion(4, "prefix index vs linear-scan oracle, 10k prefixes x 10k lookups per family"):
        t0 = time.perf_counter()
        rngs = {family: random.Random(97 + family) for family in (4, 6)}
        prefixes_by_family = {
            family: _random_prefixes(rngs[family], family, 10_000) for family in (4, 6)}
        # one index holds both families
        index = PrefixIndex(
            (prefix, str(prefix)) for prefixes in prefixes_by_family.values() for prefix in prefixes)
        assert len(index) == 20_000
        for family in (4, 6):
            bits = 32 if family == 4 else 128
            addr_type = ipaddress.IPv4Address if family == 4 else ipaddress.IPv6Address
            rng = rngs[family]
            prefixes = prefixes_by_family[family]
            oracle = LinearIndex(prefixes)

            for i in range(10_000):
                if i % 2 == 0:
                    base = prefixes[rng.randrange(len(prefixes))]
                    tail = rng.getrandbits(bits - base.prefixlen) if base.prefixlen < bits else 0
                    addr = parse_address(str(addr_type(int(base.network_address) | tail)))
                else:
                    addr = parse_address(str(addr_type(rng.getrandbits(bits))))
                got = index.longest_match(addr)
                want = oracle.longest_match(addr)
                if want is None:
                    assert got is None
                else:
                    assert got is not None and got[0] == want

            qmin = 6 if family == 4 else 12
            for i in range(10_000):
                if i % 2 == 0:
                    base = prefixes[rng.randrange(len(prefixes))]
                    plen = rng.randint(qmin, base.prefixlen)
                    query = parse_prefix(str(ipaddress.ip_network(
                        (int(base.network_address) & _net_mask(plen, bits), plen))))
                else:
                    query = _random_prefixes(rng, family, 1)[0]
                contained = oracle.enumerate_contained(query)
                assert {p for p, _ in index.contained(query)} == contained
                want = oracle.longest_match(query)
                assert index.longest_match(query) == (None if want is None else (want, str(want)))
                assert index.overlaps(query) == (want is not None or bool(contained))
        assert time.perf_counter() - t0 < 60.0


def test_criterion_05_range_cover():
    with criterion(5, "range to CIDR cover, 1000 random ranges"):
        rng = random.Random(51)
        cases = [(4, 32)] * 700 + [(6, 128)] * 300
        for family, bits in cases:
            span = rng.randint(1, 1 << 16)
            lo = rng.randrange(0, (1 << bits) - span)
            hi = lo + span - 1
            addr_type = ipaddress.IPv4Address if family == 4 else ipaddress.IPv6Address
            blocks = range_to_cidrs(parse_address(str(addr_type(lo))), parse_address(str(addr_type(hi))))

            # exact cover, in order, no gaps
            assert int(blocks[0].network_address) == lo
            cursor = lo
            for block in blocks:
                assert int(block.network_address) == cursor
                cursor += 1 << (block.max_prefixlen - block.prefixlen)
            assert cursor - 1 == hi

            # no adjacent pair may merge into a legal larger block
            for a, b in zip(blocks, blocks[1:]):
                if a.prefixlen == b.prefixlen:
                    size = 1 << (a.max_prefixlen - a.prefixlen)
                    aligned = int(a.network_address) % (2 * size) == 0
                    assert not aligned


SONY_STYLE_ROUTES = "\n".join(f"10.3.{k}.0/24 65099" for k in range(10))

ALIGNMENT_RIB = f"""\
10.1.0.0/16 65001
10.1.0.0/16 65011
10.2.0.0/16 65002
{SONY_STYLE_ROUTES}
10.4.0.0/24 65004
10.4.1.0/24 65005
"""


def test_criterion_06_bgp_alignment():
    with criterion(6, "BGP alignment classes and table row sums"):
        rib = load_rib(io.StringIO(ALIGNMENT_RIB))

        # the two origins of 10.1.0.0/16 make it MOAS, as aligned or as a cover
        assert align(parse_prefix("10.1.0.0/16"), rib) == AlignmentResult(Alignment.ALIGNED, moas=True)
        assert align(parse_prefix("10.1.4.0/24"), rib) == AlignmentResult(Alignment.SUBNET, moas=True)
        assert align(parse_prefix("10.2.4.0/24"), rib) == AlignmentResult(Alignment.SUBNET)
        # registered /20 advertised as ten same-origin /24 fragments
        assert align(parse_prefix("10.3.0.0/20"), rib) == AlignmentResult(Alignment.SUPERNET)
        assert align(parse_prefix("10.4.0.0/20"), rib) == AlignmentResult(Alignment.MIXED_AS)
        assert align(parse_prefix("10.5.0.0/24"), rib) == AlignmentResult(Alignment.UNADVERTISED)

        regs = [
            Registration(prefix=parse_prefix(p), rir=Rir.ARIN)
            for p in ("10.1.0.0/16", "10.2.4.0/24", "10.3.0.0/20",
                      "10.4.0.0/20", "10.5.0.0/24")
        ]
        table = alignment_table(regs, rib, family=4)
        row = table[Rir.ARIN]
        for alignment in Alignment:
            assert row[alignment] == pytest.approx(0.2)
        assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)


def test_criterion_07_whois_ingestion():
    with criterion(7, "WHOIS anomalies and hand-computed counters"):
        regs, orgs, report = parse_bulk_whois(io.StringIO(ARIN_DUMP), Rir.ARIN)

        # 9 net blocks in the dump; one not-managed, one malformed, two
        # duplicate-dropped; the 10.0.0.0-10.0.0.11 range splits in two
        assert report.net_records_read == 9
        assert report.org_records_read == 4
        assert report.not_managed_skipped == 1
        assert report.malformed_skipped == 1
        assert report.non_cidr_ranges_split == 1
        assert report.split_extra_blocks == 1
        assert report.duplicates_dropped == 2
        assert report.registrations_emitted == 6
        assert report.check_identity()

        assert sorted(str(r.prefix) for r in regs) == [
            "10.0.0.0/29", "10.0.0.8/30", "172.16.0.0/12",
            "192.0.2.0/24", "198.18.0.0/15", "203.0.113.0/24",
        ]
        by_prefix = {str(r.prefix): r for r in regs}
        assert by_prefix["192.0.2.0/24"].org_id == "EXAMPLE-2"  # newest wins
        assert by_prefix["172.16.0.0/12"].org_id == "EXAMPLE-B"  # tie, larger id

        ripe_regs, _, ripe_report = parse_bulk_whois(io.StringIO(RIPE_DUMP), Rir.RIPE)
        _, _, apnic_report = parse_bulk_whois(io.StringIO(APNIC_DUMP), Rir.APNIC)
        assert ripe_report.check_identity()
        assert apnic_report.check_identity()

        A, S, L = Status.ALLOCATED, Status.ASSIGNED, Status.LEGACY_OR_UNKNOWN
        for spelling, status in {
            "Direct Allocation": A, "Direct Assignment": S, "Reassignment": S,
            "ALLOCATED PA": A, "ASSIGNED PI": S, "ALLOCATED-BY-RIR": A, "LEGACY": L,
            "ASSIGNEd NON-PORTABLE": S, "ALLOCATED PORTABLE": A,
        }.items():
            assert spelling in ARIN_DUMP + RIPE_DUMP + APNIC_DUMP
            assert normalize_status(spelling) is status, spelling

        kept, circular, transferred = drop_circular_transfers(
            {Rir.ARIN: regs, Rir.RIPE: ripe_regs})
        assert circular == {Rir.ARIN: 1, Rir.RIPE: 1}
        assert transferred == {Rir.ARIN: 1, Rir.RIPE: 0}
        assert "203.0.113.0/24" not in {str(r.prefix) for r in kept[Rir.ARIN]}
        assert "203.0.113.0/24" not in {str(r.prefix) for r in kept[Rir.RIPE]}


def test_criterion_08_pipeline_accounting(tmp_path, capsys):
    with criterion(8, "pipeline accounting identity and stage attrition"):
        camp = build_campaign(fc_per_region=4, planted_per_class=1, v6_fc_per_region=1)
        base_count = len(camp.expected)  # 45 classifiable prefixes

        us = CLUSTERS[Rir.ARIN][0]
        jp = CLUSTERS[Rir.APNIC][0]
        br = CLUSTERS[Rir.LACNIC][0]

        def reg(prefix, org_cc, flags=()):
            return {"prefix": prefix, "rir": "ARIN", "org_country": org_cc,
                    "org_id": "DOCTORED", "status": "assigned",
                    "last_updated": "2020-01-01", "flags": list(flags)}

        extra = [
            reg("10.44.0.0/24", "US"),              # unresponsive
            reg("10.44.1.0/24", "US"),              # unresponsive
            reg("10.88.0.0/24", "US"),              # anycast list
            reg("10.55.0.0/24", "JP", ["mnt:JPNIC-MNT"]),  # NIR marker
            reg("10.99.0.0/23", None),              # fragmented announcement
            reg("10.66.0.0/24", "US"),              # no route at all
            reg("10.33.0.0/24", None),              # org unknown, strict mode
            reg("10.77.0.0/24", "US"),              # two targets that disagree
        ]
        camp.registrations_jsonl += "\n".join(
            json.dumps(r, sort_keys=True) for r in extra) + "\n"
        camp.rib_txt += "\n".join([
            "10.44.0.0/24 65201", "10.44.1.0/24 65202",
            "10.88.0.0/24 65203", "10.55.0.0/24 65204",
            "10.99.0.0/24 65205", "10.99.1.0/24 65205",
            "10.33.0.0/24 65207", "10.77.0.0/24 65208",
        ]) + "\n"
        camp.hitlist_v4_csv += "\n".join([
            "10.44.0.1,100", "10.44.1.1,100", "10.88.0.1,100", "10.55.0.1,100",
            "10.99.0.1,100", "10.66.0.1,100", "10.33.0.1,100",
            "10.77.0.1,100", "10.77.0.2,100",
        ]) + "\n"
        camp.world["targets"].update({
            "10.88.0.1": [us[1], us[2]],
            "10.55.0.1": [jp[1], jp[2]],
            "10.99.0.1": [us[1], us[2]],
            "10.66.0.1": [us[1], us[2]],
            "10.33.0.1": [us[1], us[2]],
            "10.77.0.1": [us[1], us[2]],
            "10.77.0.2": [br[1], br[2]],
        })
        camp.world["unresponsive"] = ["10.44.0.1", "10.44.1.1"]

        paths = write_campaign(tmp_path, camp)
        anycast = tmp_path / "anycast.txt"
        anycast.write_text("10.88.0.0/24\n")
        markers = tmp_path / "nir.txt"
        markers.write_text("jpnic\n")

        out = tmp_path / "audit.jsonl"
        rc = cli.main(audit_argv(paths, str(out), extra=[
            "--anycast-prefixes", str(anycast),
            "--nir-markers", str(markers),
            "--strict-no-org",
        ]))
        assert rc == 0
        assert "accounting identity: ok" in capsys.readouterr().out

        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == base_count + 8

        filtered = Counter(r["filter_reason"] for r in records if r["filter_reason"])
        assert filtered == {
            "unresponsive": 2,
            "anycast": 1,
            "nir": 1,
            "bgp_supernet_or_mixed": 1,
            "unadvertised": 1,
            "no_org_country": 1,
            "conflicting": 1,
        }
        by_prefix = {r["prefix"]: r for r in records}
        assert by_prefix["10.44.0.0/24"]["filter_reason"] == "unresponsive"
        assert by_prefix["10.88.0.0/24"]["filter_reason"] == "anycast"
        assert by_prefix["10.55.0.0/24"]["filter_reason"] == "nir"
        # the BGP stage runs before the org check, so the missing org
        # country on 10.99.0.0/23 never reaches the strict filter
        assert by_prefix["10.99.0.0/23"]["filter_reason"] == "bgp_supernet_or_mixed"
        assert by_prefix["10.66.0.0/24"]["filter_reason"] == "unadvertised"
        assert by_prefix["10.33.0.0/24"]["filter_reason"] == "no_org_country"
        assert by_prefix["10.77.0.0/24"]["filter_reason"] == "conflicting"
        assert set(by_prefix["10.77.0.0/24"]["rir_geo"]) == {"ARIN", "LACNIC"}

        classified = [r for r in records if r["class"] is not None]
        assert len(classified) == base_count
        assert len(classified) + sum(filtered.values()) == len(records)
        for rec in classified:
            assert rec["class"] == camp.expected[rec["prefix"]]


def test_criterion_09_report_fidelity():
    with criterion(9, "report tables reproduce hand counts"):
        def rec(prefix, cls, rir=Rir.ARIN, geo=()):
            return ConsistencyRecord(
                prefix=parse_prefix(prefix), rir_reg=rir, cls=cls,
                rir_geo=frozenset(geo))

        # leasing: 11 FI records, 3 overlap the lease list
        fi_records = [rec(f"10.2.{k}.0/24", FI) for k in range(11)]
        leased = [parse_prefix(p) for p in
                  ("10.2.0.0/24", "10.2.1.128/25", "10.2.10.0/23")]
        stats = leasing_overlap(fi_records, leased)
        assert stats[(Rir.ARIN, FI)] == {"records": 11, "overlapping": 3}
        assert written_rows(write_leasing_csv, stats)[1:] == [["ARIN", "FI", "11", "3", "0.272727"]]
        assert round(share(3, 11) * 1000) / 10 == 27.3

        # distribution: hand-counted fractions, rows sum to 1
        dist_records = (
            [rec(f"10.6.{k}.0/24", FC) for k in range(3)]
            + [rec("10.6.3.0/24", RI)]
            + [rec("10.7.0.0/24", FC, rir=Rir.RIPE),
               rec("10.7.1.0/24", FI, rir=Rir.RIPE)]
        )
        dist = distribution(dist_records)
        assert dist == {(Rir.ARIN, FC): 3, (Rir.ARIN, RI): 1, (Rir.RIPE, FC): 1, (Rir.RIPE, FI): 1}
        rows = {row[0]: [float(cell) for cell in row[1:]]
                for row in written_rows(write_distribution_csv, dist)[1:]}
        assert rows["ARIN"][0] == pytest.approx(0.75)
        assert rows["ARIN"][3] == pytest.approx(0.25)
        assert rows["RIPE"][0] == pytest.approx(0.5)
        assert rows["RIPE"][4] == pytest.approx(0.5)
        assert rows["ALL"][0] == pytest.approx(4 / 6, abs=1e-6)
        for row in rows.values():
            assert sum(row) == pytest.approx(1.0, abs=1e-5)  # each cell rounded to 6 places

        region_map = RegionMap({"US": Rir.ARIN, "BR": Rir.LACNIC})

        # out-of-region owners: 10 prefixes, 2 foreign orgs, 1 unknown
        regs = (
            [Registration(prefix=parse_prefix(f"10.8.{k}.0/24"), rir=Rir.ARIN,
                          org_country="US") for k in range(7)]
            + [Registration(prefix=parse_prefix(f"10.8.{7 + k}.0/24"), rir=Rir.ARIN,
                            org_country="BR") for k in range(2)]
            + [Registration(prefix=parse_prefix("10.8.9.0/24"), rir=Rir.ARIN,
                            org_country=None)]
        )
        oro = oro_stats(regs, region_map)[(Rir.ARIN, 4)]
        assert oro["prefixes"] == 10
        assert oro["oro_prefixes"] == 2
        assert oro["unknown_org"] == 1
        assert share(oro["oro_prefixes"], oro["prefixes"]) == pytest.approx(0.2)
        assert oro["units"] == pytest.approx(10.0)
        assert oro["oro_units"] == pytest.approx(2.0)

        # geolocation providers: 4 eligible, 1 uncovered, 2 detected
        geo_records = [
            rec("10.9.0.0/24", RI, geo=(Rir.LACNIC,)),
            rec("10.9.1.0/24", FI, geo=(Rir.RIPE,)),
            rec("10.9.2.0/24", RI, geo=(Rir.LACNIC,)),
            rec("10.9.3.0/24", FI, geo=(Rir.LACNIC,)),
        ]
        provider = [
            GeoDbEntry(prefix=parse_prefix("10.9.0.0/24"), country="BR"),
            GeoDbEntry(prefix=parse_prefix("10.9.1.0/24"), country="BR"),
            GeoDbEntry(prefix=parse_prefix("10.9.2.0/24"), country="US"),
        ]
        stats = geodb_detection(geo_records, {"alpha": provider}, region_map)
        alpha = stats["alpha"][Rir.ARIN]
        assert alpha["eligible"] == 4
        assert alpha["no_coverage"] == 1
        assert alpha["detected"] == 2
        # eligible, covered, detected, the fraction of those covered, no_coverage
        assert written_rows(write_geodb_csv, stats)[1:] == [["alpha", "ARIN", "4", "3", "2", "0.666667", "1"]]
        assert share(alpha["detected"], alpha["eligible"] - alpha["no_coverage"]) == pytest.approx(2 / 3)
        strict = geodb_detection(
            geo_records, {"alpha": provider}, region_map, require_geo_agreement=True)
        assert strict["alpha"][Rir.ARIN]["detected"] == 1


def test_criterion_10_determinism(tmp_path, monkeypatch, capsys):
    with criterion(10, "byte-identical output across runs, concurrency, backends, replay"):
        camp = build_campaign(fc_per_region=4, planted_per_class=1, v6_fc_per_region=1)
        paths = write_campaign(tmp_path, camp)

        captured = tmp_path / "results.jsonl"
        runs = {
            "a": ["--capture-results", str(captured)],
            "b": [],
        }
        outputs = {}
        for name, extra in runs.items():
            out = tmp_path / f"{name}.jsonl"
            assert cli.main(audit_argv(paths, str(out), extra=extra)) == 0
            outputs[name] = out.read_bytes()
        assert outputs["a"] == outputs["b"]

        replay_bytes = []
        for name in ("r1", "r2"):
            out = tmp_path / f"{name}.jsonl"
            argv = audit_argv(paths, str(out), backend="replay", extra=["--results", str(captured)])
            assert cli.main(argv) == 0
            replay_bytes.append(out.read_bytes())
        assert replay_bytes[0] == replay_bytes[1] == outputs["a"]

        # only the live backend measures in flight: simulate and replay
        # refuse --concurrency and write nothing
        refused = tmp_path / "refused.jsonl"
        for backend, extra in (("simulate", []), ("replay", ["--results", str(captured)])):
            capsys.readouterr()
            argv = audit_argv(paths, str(refused), backend=backend, extra=[*extra, "--concurrency", "4"])
            assert cli.main(argv) == 2
            assert (capsys.readouterr().err
                    == f"geoaudit: --concurrency cannot take effect with --backend {backend}\n")
            assert not refused.exists()

        # the live client against an API answering from the same world, each
        # measurement pending 0-3 times, at several windows
        sleeps = []
        serve_campaign(monkeypatch, camp, paths, seeded_pending(7), sleeps.append)
        for k in (1, 2, 8):
            out, capture = tmp_path / f"live{k}.jsonl", tmp_path / f"live{k}_results.jsonl"
            live = [*LIVE_ARGV, "--concurrency", str(k), "--capture-results", str(capture)]
            assert cli.main(audit_argv(paths, str(out), backend="live", extra=live)) == 0
            assert out.read_bytes() == outputs["a"]
            assert capture.read_bytes() == captured.read_bytes()
        assert sleeps  # some measurements were pending
