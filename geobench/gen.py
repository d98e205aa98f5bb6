"""Seeded input generators for the geoaudit benchmark.

One generator builds a whole campaign: five bulk WHOIS dumps (one per
registry dialect, gzip), a BGP table, v4/v6 hitlists, a vantage inventory, a
synthetic world for the simulator, and the side lists the CLI reads (anycast,
NIR markers, bad probes, default coordinates, aliased and leased prefixes,
two geolocation-provider tables).  Next to the files it records what a
correct pipeline must produce from them, derived from the planted values
alone and never from the program:

* per-registry ingest counters and the final (rir, org country, status,
  date) of every registration;
* per-(registry, family) alignment fractions and out-of-region statistics;
* for every prefix that gets a plan, the expected class or filter reason and
  the true region of each target.

Classes are predictable because each registry region has a hub: ten anchors
sit on one point with no other region's country within the largest disk a
hub anchor can draw (noise only, at most NOISE_MS).  Every plan includes
three of those anchors, so a target planted on a hub is always measured from
distance zero and its feasible set is exactly the hub's region.  Targets
planted elsewhere ("wanderers") are only checked for soundness: the paper's
conservative rule says their true region is never excluded, because they sit
on a representative point of their true country.

Only the standard library is used, and the bundled region map and country
points are read as plain CSV files.
"""

from __future__ import annotations

import csv
import datetime
import gzip
import io
import ipaddress
import json
import math
import os
import random
from dataclasses import dataclass, field

RIRS = ("ARIN", "RIPE", "APNIC", "LACNIC", "AFRINIC")
ORG_DIALECTS = ("ARIN", "RIPE", "AFRINIC")  # dumps that carry org records
HUBS = {
    "ARIN": ("US", 39.0, -98.0),
    "RIPE": ("DE", 51.0, 10.0),
    "APNIC": ("AU", -25.0, 134.0),
    "LACNIC": ("BR", -12.0, -50.0),
    "AFRINIC": ("CD", -2.0, 23.0),
}
ANCHORS_PER_HUB = 10
PROBES_PER_COUNTRY = 8
NOISE_MS = 2.0
PROPAGATION_FACTOR = 2.0 / 3.0
KM_PER_MS = PROPAGATION_FACTOR * 299792.458 / 2000.0  # disk radius per ms of RTT
NIR_MARKERS = ("JPNIC", "KRNIC")
STATUS_TEXT = {
    "ARIN": {"allocated": "Direct Allocation", "assigned": "Direct Assignment", "legacy_or_unknown": "Legacy"},
    "RIPE": {"allocated": "ALLOCATED PA", "assigned": "ASSIGNED PA", "legacy_or_unknown": "LEGACY"},
    "APNIC": {"allocated": "ALLOCATED PORTABLE", "assigned": "ASSIGNED NON-PORTABLE",
              "legacy_or_unknown": "LEGACY"},
    "LACNIC": {"allocated": "allocated", "assigned": "reassigned", "legacy_or_unknown": "legacy"},
    "AFRINIC": {"allocated": "ALLOCATED PA", "assigned": "ASSIGNED PI", "legacy_or_unknown": "LEGACY"},
}
ROUTE_KINDS = ("aligned", "moas", "subnet", "supernet", "mixed_as", "unadvertised")
ALIGNMENT_COLUMNS = ("subnet", "aligned", "supernet", "mixed_as", "unadvertised")
CLASS_KINDS = ("FC", "OC", "OI", "RI", "FI")
# every audited kind appears once before the weighted draw takes over
AUDIT_KINDS = CLASS_KINDS + (
    "wander", "partial", "conflicting", "unresponsive", "anycast", "nir",
    "supernet", "mixed_as", "unadvertised", "no_org", "aliased",
)
AUDIT_WEIGHTS = {"FC": 30, "OC": 6, "OI": 6, "RI": 6, "FI": 6, "wander": 12, "partial": 5,
                 "conflicting": 4, "unresponsive": 6, "anycast": 3, "nir": 3, "supernet": 3,
                 "mixed_as": 3, "unadvertised": 4, "no_org": 3, "aliased": 1}
# the rows after the first of each kind cycle through the weights in a fixed
# order, so every seed plants the same mix and the request counts repeat
AUDIT_PATTERN = [kind for _, kind in sorted(
    ((j + 0.5) / w, kind) for kind, w in AUDIT_WEIGHTS.items() for j in range(w))]
FILTER_OF_KIND = {
    "conflicting": "conflicting", "unresponsive": "unresponsive", "anycast": "anycast",
    "nir": "nir", "supernet": "bgp_supernet_or_mixed", "mixed_as": "bgp_supernet_or_mixed",
    "unadvertised": "unadvertised", "no_org": "no_org_country",
}

V4_BASE = int(ipaddress.IPv4Address("24.0.0.0"))
V4_SLOT_BITS = 12  # a /20 per registration slot
V6_BASE = int(ipaddress.IPv6Address("2a00::"))
V6_SLOT_BITS = 88  # a /40 per registration slot


def haversine_km(lat1, lon1, lat2, lon2):
    p1, p2 = math.radians(lat1), math.radians(lat2)
    a = (math.sin((p2 - p1) / 2) ** 2
         + math.cos(p1) * math.cos(p2) * math.sin(math.radians(lon2 - lon1) / 2) ** 2)
    return 2 * 6371.0088 * math.asin(math.sqrt(a))


def _read_data_csv(path):
    with open(path, encoding="utf-8") as fp:
        return list(csv.DictReader(line for line in fp if not line.lstrip().startswith("#")))


def load_geography(data_dir):
    """(country -> rir, country -> [(lat, lon), ...]) from the bundled CSVs."""
    region = {row["country"].strip(): row["rir"].strip().upper()
              for row in _read_data_csv(os.path.join(data_dir, "region_map.csv"))}
    points: dict[str, list[tuple[float, float]]] = {}
    for row in _read_data_csv(os.path.join(data_dir, "country_points.csv")):
        points.setdefault(row["country"].strip(), []).append((float(row["lat"]), float(row["lon"])))
    return region, points


@dataclass
class Net:
    """One planted registration: what ingest must emit for it, how its dump
    record looks, and how the BGP table and audit treat it."""

    prefix: ipaddress.IPv4Network | ipaddress.IPv6Network
    rir: str
    org_id: str | None
    org_country: str | None  # expected after org linking
    inline_country: str | None
    status: str
    updated: datetime.date
    route: str = "unadvertised"
    mnt: str | None = None
    remark: str | None = None
    range_text: str | None = None  # net value written as a range


@dataclass
class Campaign:
    files: dict[str, bytes] = field(default_factory=dict)
    expected: dict = field(default_factory=dict)


class _Draft:
    def __init__(self, seed, data_dir):
        self.rng = random.Random(f"geobench:{seed}")
        self.region, self.points = load_geography(data_dir)
        self.by_rir = {r: sorted(cc for cc, rr in self.region.items() if rr == r) for r in RIRS}
        self.slot = 0
        self.asn = 64512
        self.records: dict[str, list[list[tuple[str, str]]]] = {r: [] for r in RIRS}
        self.orgs: dict[str, dict[str, str]] = {r: {} for r in RIRS}
        self.final: list[Net] = []  # registrations present in the final registrations.jsonl
        self.counts = {r: dict(nets=0, emitted=0, dups=0, skipped=0, malformed=0, split=0,
                               orgs=0, unresolved=0, circular=0, transfers=0) for r in RIRS}
        self.routes: list[str] = []
        self.org_seq = 0
        self.orgs_by_country: dict[tuple[str, str], list[str]] = {}

    # -- address space -----------------------------------------------------
    def next_slot(self, family):
        self.slot += 1
        if family == 4:
            return ipaddress.IPv4Address(V4_BASE + (self.slot << V4_SLOT_BITS))
        return ipaddress.IPv6Address(V6_BASE + (self.slot << V6_SLOT_BITS))

    def next_asn(self):
        self.asn += 1 + self.rng.randrange(3)
        return self.asn

    # -- registrations -------------------------------------------------------
    def country(self, rir, home=True):
        pool = self.by_rir[rir] if home else [cc for r in RIRS if r != rir for cc in self.by_rir[r]]
        return self.rng.choice(pool)

    def org_for(self, rir, cc):
        """An org id resolving to cc in dumps with org records, else None."""
        if rir not in ORG_DIALECTS:
            return None
        known = self.orgs_by_country.setdefault((rir, cc), [])
        if known and self.rng.random() < 0.6:
            return self.rng.choice(known)
        self.org_seq += 1
        org_id = f"ORG-{rir[:2]}{self.org_seq}-{rir}"
        self.orgs[rir][org_id] = cc
        known.append(org_id)
        return org_id

    def new_net(self, rir, family, plen, org_cc, route, **extra):
        base = self.next_slot(family)
        prefix = ipaddress.ip_network(f"{base}/{plen}")
        org_id = extra.pop("org_id", None)
        inline = extra.pop("inline_country", None)
        if org_id is None and org_cc is not None:
            org_id = self.org_for(rir, org_cc)
            if org_id is None:
                inline = org_cc
            elif self.rng.random() < 0.3:
                inline = self.country(rir)  # the org record wins over it
        status = extra.pop("status", None) or self.rng.choice(
            ("allocated", "assigned", "assigned", "legacy_or_unknown"))
        updated = datetime.date(2003, 1, 1) + datetime.timedelta(days=self.rng.randrange(7000))
        return Net(prefix, rir, org_id, org_cc, inline, status, updated, route, **extra)

    def emit(self, net):
        """Render a net record that reaches registrations.jsonl, and route it."""
        self.records[net.rir].append(render_net(net))
        c = self.counts[net.rir]
        c["nets"] += 1
        c["emitted"] += 1
        self.final.append(net)
        self.add_routes(net)

    def add_routes(self, net):
        p = net.prefix
        kind = net.route
        if kind in ("aligned", "moas"):
            self.routes.append(f"{p} {self.next_asn()}")
            if kind == "moas":
                self.routes.append(f"{p} AS{self.next_asn()}")
        elif kind == "subnet":
            cover = 21 if p.version == 4 else 41
            self.routes.append(f"{p.supernet(new_prefix=cover)} {self.next_asn()}")
        elif kind in ("supernet", "mixed_as"):
            asn = self.next_asn()
            for half in p.subnets(prefixlen_diff=1):
                self.routes.append(f"{half} {asn}")
                if kind == "mixed_as":
                    asn = self.next_asn()

    def bulk(self, rir):
        family = 6 if self.slot % 7 == 0 else 4
        plen = self.rng.choice((22, 23, 24) if family == 4 else (44, 46, 48))
        roll = self.rng.random()
        if roll < 0.1:
            org_cc = None
        elif roll < 0.3:
            org_cc = self.country(rir, home=False)
        else:
            org_cc = self.country(rir)
        route = self.rng.choice(ROUTE_KINDS)
        mnt = f"MAINT-{rir}-{self.rng.randrange(50)}" if rir in ("RIPE", "APNIC", "AFRINIC") else None
        return self.new_net(rir, family, plen, org_cc, route, mnt=mnt)

    def specials(self, rir):
        """Per-dump edge cases: duplicates, split ranges, not-managed and
        malformed records, unresolved orgs, other records."""
        c = self.counts[rir]
        for _ in range(3):  # duplicate: an older copy with another org loses
            net = self.bulk(rir)
            older = Net(net.prefix, rir, self.org_for(rir, self.country(rir)), None,
                        self.country(rir), "assigned", net.updated - datetime.timedelta(days=400))
            first, second = (older, net) if self.rng.random() < 0.5 else (net, older)
            self.records[rir].append(render_net(first))
            self.records[rir].append(render_net(second))
            c["nets"] += 2
            c["emitted"] += 1
            c["dups"] += 1
            self.final.append(net)
            self.add_routes(net)
        for _ in range(2):  # a range that is not one CIDR block splits in two
            base = self.next_slot(4)
            end = ipaddress.IPv4Address(int(base) + 3 * 256 - 1)
            org_cc = self.country(rir)
            blocks = list(ipaddress.summarize_address_range(base, end))
            net0 = self.new_net(rir, 4, 24, org_cc, "unadvertised", range_text=f"{base} - {end}")
            self.records[rir].append(render_net(net0))
            c["nets"] += 1
            c["split"] += 1
            c["emitted"] += len(blocks)
            for block in blocks:
                self.final.append(Net(block, rir, net0.org_id, net0.org_country, net0.inline_country,
                                      net0.status, net0.updated, "unadvertised"))
        for _ in range(2):  # not managed here
            net = self.bulk(rir)
            net.remark = f"not-managed-by {rir}"
            self.records[rir].append(render_net(net))
            c["nets"] += 1
            c["skipped"] += 1
        base = self.next_slot(4)
        for bad in (f"{base} - 24.300.0.1", "no-such-network", f"{base + 5} - {base}",
                    f"{ipaddress.IPv4Address(int(base) + 5)}/24"):
            net = self.bulk(rir)
            self.records[rir].append(render_net(net, net_value=bad))
            c["nets"] += 1
            c["malformed"] += 1
        for k in range(2 if rir in ORG_DIALECTS else 0):  # org reference with no org record
            inline = self.country(rir) if k == 0 else None
            net = self.new_net(rir, 4, 24, inline, self.rng.choice(ROUTE_KINDS),
                               org_id=f"ORG-MISSING{self.rng.randrange(10**6)}-{rir}",
                               inline_country=inline)
            self.emit(net)
            c["unresolved"] += 1
        for k in range(3):
            self.records[rir].append([("person", f"Person {k}"), ("nic-hdl", f"P{k}-{rir}"),
                                      ("address", "Somewhere")])

    def transfers(self):
        """One-way transfers out of each dump, plus one circular pair."""
        for i, src in enumerate(RIRS):
            dst = RIRS[(i + 1) % len(RIRS)]
            net = self.bulk(dst)
            moved = Net(net.prefix, src, self.org_for(src, self.country(src)), None,
                        self.country(src), "allocated", net.updated - datetime.timedelta(days=30),
                        remark=f"transferred to {dst}")
            self.records[src].append(render_net(moved))
            self.counts[src]["nets"] += 1
            self.counts[src]["emitted"] += 1
            self.counts[src]["transfers"] += 1
            self.emit(net)
        base = self.next_slot(4)
        prefix = ipaddress.ip_network(f"{base}/23")
        for src, dst in (("RIPE", "APNIC"), ("APNIC", "RIPE")):
            net = Net(prefix, src, self.org_for(src, self.country(src)), None, self.country(src),
                      "allocated", datetime.date(2015, 5, 5), remark=f"transferred to {dst}")
            self.records[src].append(render_net(net))
            self.counts[src]["nets"] += 1
            self.counts[src]["emitted"] += 1
            self.counts[src]["circular"] += 1


def render_net(net: Net, net_value: str | None = None) -> list[tuple[str, str]]:
    """A net record's attribute pairs in its registry's dialect."""
    p = net.prefix
    if net_value is None:
        if net.range_text:
            net_value = net.range_text
        elif p.version == 4 and net.rir != "LACNIC":
            net_value = f"{p.network_address} - {p.broadcast_address}"
        elif p.version == 4 and p.prefixlen <= 24 and str(p.network_address).endswith(".0"):
            net_value = f"{str(p.network_address)[:-2]}/{p.prefixlen}"  # LACNIC short form
        else:
            net_value = str(p)
    status = STATUS_TEXT[net.rir][net.status]
    day = net.updated
    if net.rir == "ARIN":
        pairs = [("NetRange" if p.version == 4 else "CIDR", net_value),
                 ("NetName", f"NET-{p.network_address}".replace(":", "-")),
                 ("NetType", status)]
        if net.org_id:
            pairs.append(("OrgID", net.org_id))
        if net.inline_country:
            pairs.append(("Country", net.inline_country))
        pairs += [("RegDate", "2001-01-01"), ("Updated", day.isoformat())]
        if net.remark:
            pairs.append(("Comment", net.remark))
        return pairs
    key = "inetnum" if p.version == 4 else "inet6num"
    pairs = [(key, net_value), ("netname", f"NET-{net.rir}"),
             ("descr", "synthetic network\n+ continued description")]
    if net.inline_country:
        pairs.append(("country", net.inline_country))
    if net.org_id:
        pairs.append(("org", net.org_id))
    pairs.append(("status", status))
    if net.mnt:
        pairs.append(("mnt-by", net.mnt))
    if net.remark:
        pairs.append(("remarks", net.remark))
    if net.rir in ("RIPE", "AFRINIC"):
        pairs.append(("last-modified", f"{day.isoformat()}T12:00:00Z"))
    elif net.rir == "APNIC":
        pairs += [("mnt-irt", "IRT-SYNTH-AP"), ("changed", f"hm-changed@apnic.net {day:%Y%m%d}")]
    else:
        pairs.append(("changed", f"{day:%Y%m%d}"))
    pairs.append(("source", net.rir))
    return pairs


def render_org(rir, org_id, cc):
    if rir == "ARIN":
        return [("OrgID", org_id), ("OrgName", f"Org {org_id}"), ("Country", cc)]
    return [("organisation", org_id), ("org-name", f"Org {org_id}"), ("country", cc)]


def _dump_text(records):
    out = ["% synthetic bulk dump", "# generated by the geoaudit benchmark", ""]
    for pairs in records:
        for key, value in pairs:
            first, *rest = value.split("\n")
            out.append(f"{key}:{' ' * max(1, 16 - len(key))}{first}")
            out.extend(rest)
        out.append("")
    return "\n".join(out) + "\n"


def _gzip(text):
    buf = io.BytesIO()
    with gzip.GzipFile(filename="", mode="wb", fileobj=buf, mtime=0, compresslevel=6) as gz:
        gz.write(text.encode("utf-8"))
    return buf.getvalue()


def _hosts(prefix, count):
    return [prefix.network_address + k for k in range(1, count + 1)]


def _vantages(b: _Draft):
    """Hub anchors, probes on every country's representative points, and
    vantages the filters must drop."""
    # a vantage that beats a hub anchor is within one disk of the hub, and
    # its own disk reaches one more disk out
    limit = 2 * NOISE_MS * KM_PER_MS + 100.0
    for rir, (hub_cc, lat, lon) in HUBS.items():
        for cc, pts in b.points.items():
            if b.region.get(cc) != rir and any(haversine_km(lat, lon, a, o) <= limit for a, o in pts):
                raise ValueError(f"{cc} lies inside the {rir} hub disk")
    out = []
    for rir, (cc, lat, lon) in HUBS.items():
        for k in range(ANCHORS_PER_HUB):
            out.append(dict(id=f"a-{rir.lower()}-{k:02d}", kind="anchor", country=cc, lat=lat,
                            lon=lon, asn=b.next_asn(), connected=True))
    for cc in sorted(b.points):
        pts = b.points[cc]
        for k in range(PROBES_PER_COUNTRY):
            lat, lon = pts[k % len(pts)]
            out.append(dict(id=f"p-{cc.lower()}-{k}", kind="probe", country=cc, lat=lat, lon=lon,
                            asn=b.next_asn() if b.rng.random() < 0.8 else 64496, connected=True))
    bad_ids, defaults = [], []
    for k in range(14):
        cc = b.rng.choice(sorted(b.points))
        lat, lon = b.points[cc][0]
        v = dict(id=f"x-{cc.lower()}-{k}", kind="probe", country=cc, lat=lat, lon=lon,
                 asn=b.next_asn(), connected=k >= 6)
        if 6 <= k < 10:
            bad_ids.append(v["id"])
        elif k >= 10:
            v["lat"], v["lon"] = round(lat + 0.1234, 4), round(lon + 0.5678, 4)
            defaults.append((cc, v["lat"], v["lon"]))
        out.append(v)
    return out, bad_ids, defaults


def _audit_row(b: _Draft, kind, family, n_targets):
    """Plant one audited registration; returns (net, targets, expectation)."""
    rng = b.rng
    rir = "APNIC" if kind == "nir" else rng.choice(RIRS)
    others = [r for r in RIRS if r != rir]
    org_rir, hubs = rir, [rir]
    if kind in ("OC", "OI", "FI"):
        org_rir = rng.choice(others)
        hub = {"OC": org_rir, "OI": rir}.get(kind) or rng.choice([r for r in others if r != org_rir])
        hubs = [hub]
    elif kind == "RI":
        hubs = [rng.choice(others)]
    elif kind == "conflicting":
        hubs = [rir, rng.choice(others)]
    # hub countries share their pool with the regional picks; others give
    # every plan exactly 20 vantages
    hub_countries = {cc for cc, _, _ in HUBS.values()}
    org_cc = None if kind == "no_org" else rng.choice(
        [cc for cc in b.by_rir[org_rir] if cc not in hub_countries])
    route = {"supernet": "supernet", "mixed_as": "mixed_as", "unadvertised": "unadvertised"}.get(
        kind) or rng.choice(("aligned", "aligned", "moas", "subnet"))
    mnt = f"MAINT-JP-{NIR_MARKERS[0]}" if kind == "nir" else None
    if kind == "no_org" and rir in ORG_DIALECTS:
        org_id = f"ORG-NOREC{rng.randrange(10**6)}-{rir}"
        net = b.new_net(rir, family, 24 if family == 4 else 48, None, route, org_id=org_id, mnt=mnt)
        b.counts[rir]["unresolved"] += 1
    else:
        net = b.new_net(rir, family, 24 if family == 4 else 48, org_cc, route, mnt=mnt)
    b.emit(net)

    # a wanderer's class is not predictable, so two of them could conflict
    n_targets = {"conflicting": 2, "partial": 2, "wander": 1}.get(kind, n_targets)
    addrs = _hosts(net.prefix, n_targets)
    targets = []
    for k, addr in enumerate(addrs):
        if kind == "unresponsive" or (kind == "partial" and k == 1):
            targets.append((addr, None))
        elif kind == "wander":
            cc = rng.choice(sorted(set(b.points) - {h[0] for h in HUBS.values()}))
            lat, lon = rng.choice(b.points[cc])
            targets.append((addr, (b.region[cc], lat, lon)))
        else:
            hub = hubs[k % len(hubs)] if kind == "conflicting" else hubs[0]
            _, lat, lon = HUBS[hub]
            targets.append((addr, (hub, lat, lon)))

    if kind in FILTER_OF_KIND:
        expect = "filter:" + FILTER_OF_KIND[kind]
    elif kind == "wander":
        expect = "classified"
    elif kind == "partial":
        expect = "class:FC"
    else:
        expect = "class:" + kind
    return net, targets, expect


def build_campaign(seed: int, data_dir: str, n_bulk: int, n_audit: int) -> Campaign:
    """Every input file of one campaign plus the expected outcomes."""
    if n_audit < len(AUDIT_KINDS):
        raise ValueError(f"n_audit must be at least {len(AUDIT_KINDS)}")
    b = _Draft(seed, data_dir)
    for rir in RIRS:
        b.specials(rir)
    b.transfers()
    for _ in range(n_bulk):
        b.emit(b.bulk(b.rng.choice(RIRS)))

    vantages, bad_ids, defaults = _vantages(b)
    world_targets, unresponsive, plans = {}, [], {}
    hits4, hits6, anycast, aliased, leased = [], [], [], [], []
    kinds = list(AUDIT_KINDS) + [AUDIT_PATTERN[i % len(AUDIT_PATTERN)]
                                 for i in range(n_audit - len(AUDIT_KINDS))]
    for i, kind in enumerate(kinds):
        family = 6 if i % 7 == 3 else 4
        net, targets, expect = _audit_row(b, kind, family, 1 + i % 2)
        for addr, truth in targets:
            if family == 4:
                hits4.append(f"{addr},{b.rng.choice((99, 100))}")
                hits4.append(f"{addr + 9},{b.rng.randrange(90)}")  # below --min-score
            else:
                hits6.append(str(addr))
            if truth is None:
                unresponsive.append(str(addr))
            else:
                world_targets[str(addr)] = [truth[1], truth[2]]
        if kind == "anycast":
            anycast.append(str(net.prefix))
        if kind == "aliased":
            aliased.append(str(net.prefix))
            continue
        if b.rng.random() < 0.15:
            leased.append(str(net.prefix))
        plans[str(net.prefix)] = {
            "expect": expect,
            "targets": [str(a) for a, _ in targets],
            "true_rirs": [t[0] if t else None for _, t in targets],
        }
    hits4.append("203.0.113.9,100")  # no registration covers it
    anycast.append("198.51.100.0/24")

    files = {}
    for rir in RIRS:
        records = list(b.records[rir])
        for org_id, cc in b.orgs[rir].items():
            records.append(render_org(rir, org_id, cc))
            b.counts[rir]["orgs"] += 1
        b.rng.shuffle(records)
        files[f"{rir.lower()}.db.gz"] = _gzip(_dump_text(records))

    rib = ["# synthetic routing table", "0.0.0.0/0 3356", "::/0 AS6939"] + b.routes
    rib += ["100.64.0.0/24 64496", "2c0f:f000::/48 AS64496"]
    files["rib.txt"] = ("\n".join(rib) + "\n").encode()
    files["hitlist_v4.csv"] = ("addr,score\n" + "\n".join(hits4) + "\n").encode()
    files["hitlist_v6.txt"] = ("# responsive v6 addresses\n" + "\n".join(hits6) + "\n").encode()
    files["vantages.jsonl"] = "".join(json.dumps(v, sort_keys=True) + "\n" for v in vantages).encode()
    files["bad_probes.txt"] = ("\n".join(bad_ids) + "\n").encode()
    files["default_coords.csv"] = ("country,lat,lon\n" + "".join(
        f"{cc},{lat},{lon}\n" for cc, lat, lon in defaults)).encode()
    files["anycast.txt"] = ("\n".join(anycast) + "\n").encode()
    files["aliased.txt"] = ("\n".join(aliased) + "\n").encode()
    files["leased.txt"] = ("\n".join(leased) + "\n").encode()
    files["nir_markers.txt"] = ("# registry-delegated national space\n"
                                + "\n".join(NIR_MARKERS) + "\n").encode()
    world = {"noise_ms": NOISE_MS, "propagation_factor": PROPAGATION_FACTOR,
             "targets": world_targets, "unresponsive": sorted(unresponsive)}
    files["world.json"] = json.dumps(world, sort_keys=True).encode()
    for name, share in (("alpha", 1.0), ("beta", 0.5)):
        rows = [f"{p},{b.rng.choice(sorted(b.points))}" for p in sorted(plans)
                if b.rng.random() < share]
        files[f"geodb_{name}.csv"] = ("prefix,country\n" + "\n".join(rows) + "\n").encode()

    camp = Campaign(files=files)
    camp.expected = {
        "ingest": b.counts,
        "net_records": sum(c["nets"] for c in b.counts.values()),
        "registrations": {
            str(n.prefix): [n.rir, n.org_country, n.status, n.updated.isoformat()] for n in b.final},
        "rib_routes": len({line.split()[0] for line in rib[3:]}),
        "rib_default_dropped": 2,
        "alignment": _expected_alignment(b.final),
        "oro": _expected_oro(b.final, b.region),
        "plans": plans,
    }
    return camp


def _expected_alignment(final):
    counts: dict[str, dict[str, int]] = {}
    for n in final:
        key = f"{n.rir},{n.prefix.version}"
        row = counts.setdefault(key, {c: 0 for c in ALIGNMENT_COLUMNS})
        row["aligned" if n.route == "moas" else n.route] += 1
    return {key: [f"{row[c] / sum(row.values()):.6f}" for c in ALIGNMENT_COLUMNS]
            for key, row in counts.items()}


def _expected_oro(final, region):
    rows: dict[str, list] = {}
    for n in final:
        key = f"{n.rir},{n.prefix.version}"
        row = rows.setdefault(key, [0, 0, 0.0, 0.0, 0])
        units = 2.0 ** ((24 if n.prefix.version == 4 else 48) - n.prefix.prefixlen)
        row[0] += 1
        row[2] += units
        if n.org_country is None or n.org_country not in region:
            row[4] += 1
        elif region[n.org_country] != n.rir:
            row[1] += 1
            row[3] += units
    return {key: [r[0], r[1], f"{r[2]:.3f}", f"{r[3]:.3f}", r[4]] for key, r in rows.items()}


def write_campaign(camp: Campaign, out_dir: str) -> dict[str, str]:
    """Write every file plus expected.json; returns name -> path."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for name, data in sorted(camp.files.items()):
        path = os.path.join(out_dir, name)
        with open(path, "wb") as fp:
            fp.write(data)
        paths[name] = path
    with open(os.path.join(out_dir, "expected.json"), "w", encoding="utf-8") as fp:
        json.dump(camp.expected, fp, sort_keys=True)
    return paths
