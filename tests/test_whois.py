import datetime
import gzip
import io
import random
import re

import pytest

from geoaudit import whois
from geoaudit.errors import GeoAuditError
from geoaudit.registry import Rir, Status, write_registrations
from geoaudit.whois import (
    RawRecord,
    _parse_net_value,
    default_dialects,
    dialect_for,
    drop_circular_transfers,
    iter_raw_records,
    link_organizations,
    load_dialects,
    normalize_status,
    open_text,
    parse_bulk_whois,
    parse_date,
)

ARIN_DUMP = """\
#
# bulk copy
#

NetRange:       192.0.2.0 - 192.0.2.255
CIDR:           192.0.2.0/24
NetType:        Direct Allocation
OrgID:          EXAMPLE-1
Updated:        2020-05-04
RegDate:        1997-01-01

OrgID:          EXAMPLE-1
OrgName:        Example Networks LLC
Country:        US

NetRange:       192.0.2.0 - 192.0.2.255
NetType:        Direct Assignment
OrgID:          EXAMPLE-2
Updated:        2021-07-01

OrgID:          EXAMPLE-2
OrgName:        Example Hosting Inc
Country:        CA

NetRange:       10.0.0.0 - 10.0.0.11
NetType:        Reassignment
OrgID:          EXAMPLE-1
Updated:        2018-02-02

NetRange:       198.51.100.0 - 198.51.100.255
NetType:        Early Registrations
Comment:        Addresses in this block are not-managed-by this registry
Updated:        2015-01-01

NetRange:       256.1.2.3 - 256.1.2.5
NetType:        Direct Allocation
Updated:        2015-01-01

NetRange:       198.18.0.0 - 198.19.255.255
NetType:        Direct Allocation
OrgID:          EXAMPLE-1
Comment:        Transferred to APNIC on 2019-08-01
Updated:        2019-08-01

NetRange:       203.0.113.0 - 203.0.113.255
NetType:        Direct Allocation
OrgID:          EXAMPLE-1
Comment:        Transferred to RIPE
Updated:        2019-09-01

NetRange:       172.16.0.0 - 172.31.255.255
NetType:        Direct Allocation
OrgID:          EXAMPLE-A
Updated:        2020-01-01

NetRange:       172.16.0.0 - 172.31.255.255
NetType:        Direct Allocation
OrgID:          EXAMPLE-B
Updated:        2020-01-01

OrgID:          EXAMPLE-A
OrgName:        Alpha LLC
Country:        US

OrgID:          EXAMPLE-B
OrgName:        Beta SA
Country:        MX
"""

RIPE_DUMP = """\
% RIPE bulk data

inetnum:        193.0.0.0 - 193.0.0.255
netname:        EXAMPLE-NET
country:        NL
org:            ORG-EX1-RIPE
status:         ALLOCATED PA
mnt-by:         EXAMPLE-MNT
last-modified:  2021-06-01T08:00:00Z

organisation:   ORG-EX1-RIPE
org-name:       Example B.V.
country:        DE

inetnum:        193.0.2.0 - 193.0.2.255
netname:        GONE-NET
country:        NL
org:            ORG-GONE-RIPE
status:         ASSIGNED PI
last-modified:  2020-02-02T00:00:00Z

inet6num:       2001:db8::/32
org:            ORG-EX1-RIPE
status:         ALLOCATED-BY-RIR
last-modified:  2022-01-05T12:30:00Z

inetnum:        203.0.113.0 - 203.0.113.255
country:        NL
status:         ALLOCATED PA
remarks:        Transferred to ARIN
last-modified:  2019-10-01T00:00:00Z

inetnum:        193.0.4.0 - 193.0.4.255
country:        NL
status:         LEGACY
last-modified:  2017-03-03T00:00:00Z
"""

APNIC_DUMP = """\
inetnum:        203.0.112.0 - 203.0.113.255
country:        JP
status:         ASSIGNEd NON-PORTABLE
mnt-by:         MAINT-JP-EX
mnt-irt:        IRT-EX-JP
last-modified:  2019-03-03T00:00:00Z

inetnum:        202.12.28.0 - 202.12.28.255
descr:          Example Pacific
+               Sydney office
country:        AU
status:         ALLOCATED PORTABLE
last-modified:  2021-11-11T00:00:00Z

inetnum:        192.88.99.0 - 192.88.99.255
remarks:        early registration, not-managed-by this registry
country:        AU
status:         ALLOCATED PORTABLE
"""

LACNIC_DUMP = """\
inetnum:        45.5.160/22
status:         allocated
country:        BR
changed:        20180105

inetnum:        200.160.0.0/20
status:         assigned
country:        BR
changed:        noc@example.net 20190203
"""

AFRINIC_DUMP = """\
inetnum:        196.1.0.0 - 196.1.0.255
country:        SN
org:            ORG-AFEX-AFRINIC
status:         ASSIGNED PI
mnt-by:         AFEX-MNT
last-modified:  2020-09-09T00:00:00Z

organisation:   ORG-AFEX-AFRINIC
org-name:       Example Senegal
country:        SN
"""


def test_default_dialects_cover_all_rirs():
    dialects = default_dialects()
    assert set(dialects) == set(Rir)
    assert dialect_for(Rir.ARIN).net_keys == ("netrange", "cidr")
    assert dialect_for(Rir.APNIC).org_id_keys == ()
    with pytest.raises(GeoAuditError, match="^no dialect for RIPE$"):
        dialect_for(Rir.RIPE, {})


def test_the_bundled_dialect_table_is_parsed_once(monkeypatch):
    """Every parse without a table of its own reads the bundled one, so
    the first call parses it and the rest share that parse."""
    calls = []
    monkeypatch.setattr(whois, "load_dialects",
                        lambda fp, real=whois.load_dialects: calls.append(1) or real(fp))
    default_dialects.cache_clear()
    try:
        dump = "NetRange: 192.0.2.0 - 192.0.2.255\nCountry: US\n"
        for _ in range(3):
            assert parse_bulk_whois(io.StringIO(dump), Rir.ARIN)[0]
        assert default_dialects() is default_dialects()
        assert calls == [1]
        with pytest.raises(TypeError):  # shared by every caller, so no caller may change it
            default_dialects()[Rir.ARIN] = None
    finally:
        default_dialects.cache_clear()  # later callers parse the real loader's table


def test_load_dialects_requires_net_keys():
    with pytest.raises(GeoAuditError):
        load_dialects(io.StringIO("[arin]\nstatus_keys = NetType\n"))


def test_iter_raw_records_splitting():
    text = "% comment\n# more\na: 1\nb: 2\n  tail\n\nnot a pair\nc: 3\n"
    recs = list(iter_raw_records(io.StringIO(text)))
    assert len(recs) == 2
    assert recs[0].pairs == [("a", "1"), ("b", "2 tail")]
    assert recs[1].pairs == [("c", "3")]


def test_iter_raw_records_plus_continuation():
    text = "descr: line one\n+ line two\n"
    recs = list(iter_raw_records(io.StringIO(text)))
    assert recs[0].pairs == [("descr", "line one line two")]


@pytest.mark.parametrize(
    "raw,want",
    [
        ("Direct Allocation", Status.ALLOCATED),
        ("ALLOCATED PA", Status.ALLOCATED),
        ("ALLOCATED PORTABLE", Status.ALLOCATED),
        ("ALLOCATED-BY-RIR", Status.ALLOCATED),
        ("SUB-ALLOCATED PA", Status.ALLOCATED),
        ("Reallocation", Status.ALLOCATED),
        ("Direct Assignment", Status.ASSIGNED),
        ("ASSIGNED PI", Status.ASSIGNED),
        ("ASSIGNEd NON-PORTABLE", Status.ASSIGNED),
        ("Reassignment", Status.ASSIGNED),
        ("assigned", Status.ASSIGNED),
        ("LEGACY", Status.LEGACY_OR_UNKNOWN),
        ("", Status.LEGACY_OR_UNKNOWN),
        (None, Status.LEGACY_OR_UNKNOWN),
    ],
)
def test_normalize_status(raw, want):
    assert normalize_status(raw) is want


def test_parse_date_formats():
    assert parse_date("2020-05-04") == datetime.date(2020, 5, 4)
    assert parse_date("20180105") == datetime.date(2018, 1, 5)
    assert parse_date("2021-06-01T08:00:00Z") == datetime.date(2021, 6, 1)
    assert parse_date("2021-06-01 08:00:00") == datetime.date(2021, 6, 1)
    assert parse_date("noc@example.net 20190203") == datetime.date(2019, 2, 3)
    assert parse_date("2022-01-05T12:30:00.5+00:00") == datetime.date(2022, 1, 5)
    # Python 3.11+ fromisoformat reads both days before the T as 2021-03-04, 3.10 neither
    assert parse_date("20210304T101010Z") is None
    assert parse_date("2021-W09-4T00:00Z") is None
    assert parse_date("soon") is None
    assert parse_date(None) is None
    assert parse_date("   ") is None


def seed_parse_date(text):
    """parse_date as the seed wrote it: every pattern through strptime, then
    the day before a T as Python 3.10's fromisoformat reads it, YYYY-MM-DD
    in ASCII digits only, so every Python reads a token the same way."""
    if not text:
        return None
    for token in text.strip().split():
        for pattern in ("%Y-%m-%d", "%Y%m%d", "%Y-%m-%dT%H:%M:%SZ", "%Y-%m-%d %H:%M:%S"):
            try:
                return datetime.datetime.strptime(token, pattern).date()
            except ValueError:
                continue
        day = re.fullmatch(r"(\d{4})-(\d\d)-(\d\d)T.*", token, re.ASCII | re.DOTALL)
        if day:
            try:
                return datetime.date(*map(int, day.groups()))
            except ValueError:
                pass
    return None


def test_parse_date_matches_strptime_on_every_day():
    day, last = datetime.date(1900, 1, 1), datetime.date(2100, 12, 31)
    while day <= last:
        iso = day.isoformat()
        for token in (iso, iso.replace("-", ""), f"{iso}T23:59:59Z"):
            assert parse_date(token) == seed_parse_date(token) == day, token
        day += datetime.timedelta(days=1)


def junk_date_token(rng):
    y, m, d = rng.randint(0, 9999), rng.randint(0, 14), rng.randint(0, 33)
    hh, mm, ss = rng.randint(0, 26), rng.randint(0, 61), rng.randint(0, 62)
    kind = rng.randrange(12)
    if kind == 0:  # Feb 29 of any year, leap or not
        m, d = 2, 29
    if kind == 1:
        return str(rng.randint(10**6, 10**9 - 1))  # 7- to 9-digit runs
    if kind == 2:  # strptime's %Y is \d\d\d\d, so it reads non-ASCII digits too
        zero = rng.choice([0xFF10, 0x0660, 0x0966])  # fullwidth, Arabic-Indic, Devanagari
        other = {ord(c): zero + int(c) for c in "0123456789"}
        year = f"{y:04d}".translate(other)
        rest = f"{m:02d}{d:02d}" if rng.random() < 0.5 else f"-{m:02d}-{d:02d}"
        return year + (rest.translate(other) if rng.random() < 0.3 else rest)
    if kind == 3:
        return rng.choice(["noc@example.net", "hostmaster@apnic.net", "x", "2021", "T", "-"])
    if kind == 4:  # T without Z, with fractions and offsets
        return f"{y:04d}-{m:02d}-{d:02d}T{hh:02d}:{mm:02d}" + rng.choice(["", ":00", ":00.5+00:00"])
    if kind == 5:
        return f"{y}-{m}-{d}"  # unpadded fields
    if kind == 6:
        return f"{y:04d}{m:02d}{d:02d}T{hh:02d}{mm:02d}{ss:02d}Z"
    if kind == 7:
        return f"{y:04d}-{m:02d}-{d:02d}t{hh:02d}:{mm:02d}:{ss:02d}z"
    if kind == 8:
        return f"{y:04d}{m:02d}{d:02d}"
    return f"{y:04d}-{m:02d}-{d:02d}" + rng.choice(["", f"T{hh:02d}:{mm:02d}:{ss:02d}Z"])


def test_parse_date_matches_strptime_on_seeded_junk():
    rng = random.Random(7)
    for _ in range(20000):
        text = " ".join(junk_date_token(rng) for _ in range(rng.randint(1, 3)))
        assert parse_date(text) == seed_parse_date(text), text


class SeedRawRecord:
    """RawRecord's lookups as the seed wrote them: a scan of every pair."""

    def __init__(self, pairs):
        self.pairs = pairs

    def first(self, keys):
        for want in keys:
            for key, value in self.pairs:
                if key.lower() == want:
                    return value
        return None

    def all(self, keys):
        wanted = set(keys)
        return [value for key, value in self.pairs if key.lower() in wanted]

    def has_any(self, keys):
        wanted = set(keys)
        return any(key.lower() in wanted for key, _ in self.pairs)


def test_raw_record_lookups_match_a_scan_of_the_pairs():
    rng = random.Random(11)
    names = ["inetnum", "NetRange", "netrange", "Country", "COUNTRY", "org", "mnt-by", "descr"]
    wanted = sorted({name.lower() for name in names}) + ["absent", "Country"]
    for _ in range(3000):
        pairs = [(rng.choice(names), rng.choice(["", "x", "DE", "a b", str(rng.random())]))
                 for _ in range(rng.randint(0, 8))]
        new, old = RawRecord(list(pairs)), SeedRawRecord(pairs)
        for _ in range(4):
            keys = rng.sample(wanted, rng.randint(0, 3))
            assert new.first(keys) == old.first(keys), (pairs, keys)
            assert new.all(keys) == old.all(keys), (pairs, keys)
            assert new.has_any(keys) == old.has_any(keys), (pairs, keys)
        assert new.values() == [value for _, value in pairs]


def seed_iter_pairs(lines):
    """The pairs of each record as the seed's iter_raw_records split them."""
    pairs = []
    for line in lines:
        line = line.rstrip("\n").rstrip("\r")
        if not line.strip():
            if pairs:
                yield pairs
                pairs = []
            continue
        if line.startswith("#") or line.startswith("%"):
            continue
        if line[0] in " \t+" and pairs:
            key, value = pairs[-1]
            pairs[-1] = (key, (value + " " + line.lstrip(" \t+").strip()).strip())
            continue
        if ":" not in line:
            continue
        key, _, value = line.partition(":")
        pairs.append((key.strip(), value.strip()))
    if pairs:
        yield pairs


def test_iter_raw_records_matches_the_seed_split():
    rng = random.Random(13)
    parts = ["inetnum: 10.0.0.0 - 10.0.0.255", "Country:DE", "descr:", " more", "\tmore", "+",
             "+ plus", "# c", "%c", "", " ", "\t", "\r", "no pair", "a:b:c", " key: v", "k :  v  ",
             "x: y\r", "\u3000", "z: \u3000w\u3000"]
    for _ in range(2000):
        lines = [rng.choice(parts) + rng.choice(["\n", "\n", "\r\n", ""])
                 for _ in range(rng.randint(0, 12))]
        got = [rec.pairs for rec in iter_raw_records(lines)]
        assert got == list(seed_iter_pairs(lines)), lines


def test_parse_net_value_forms():
    blocks = _parse_net_value("192.0.2.0 - 192.0.2.255")
    assert [str(b) for b in blocks] == ["192.0.2.0/24"]

    blocks = _parse_net_value("45.5.160/22")
    assert [str(b) for b in blocks] == ["45.5.160.0/22"]

    blocks = _parse_net_value("2001:db8::/32")
    assert [str(b) for b in blocks] == ["2001:db8::/32"]

    blocks = _parse_net_value("198.51.100.7")
    assert [str(b) for b in blocks] == ["198.51.100.7/32"]

    blocks = _parse_net_value("10.0.0.0-10.0.0.11")
    assert [str(b) for b in blocks] == ["10.0.0.0/29", "10.0.0.8/30"]


NET_VALUES = ["192.0.2.0 - 192.0.2.255", "10.0.0.0/8", "45.5.160/22", "2001:db8::/32",
              "2001:db8:: - 2001:db8::ff", "198.51.100.7", "::1", "10.0.0.12-10.0.0.3",
              "fe80::1%eth0", "192.0.2.0 - 2001:db8::1"]
# address characters, separators and look-alikes: an Arabic-Indic and a fullwidth digit
NET_CHARS = "0123456789abcdefx.:/- %[]+_\t\u0663\uff11"


def junk_net_value(rng):
    """A net value as a dump might garble it: a known one with a few
    characters replaced, inserted or dropped, or a run of net characters."""
    if rng.random() < 0.2:
        return "".join(rng.choice(NET_CHARS) for _ in range(rng.randint(0, 24)))
    chars = list(rng.choice(NET_VALUES))
    for _ in range(rng.randint(0, 3)):
        at = rng.randrange(len(chars) + 1)
        edit = rng.randrange(3)
        if edit == 0:
            chars.insert(at, rng.choice(NET_CHARS))
        elif at < len(chars):
            chars[at:at + 1] = [rng.choice(NET_CHARS)] if edit == 1 else []
    return "".join(chars)


def test_every_junk_net_value_is_a_registration_or_malformed():
    """A net value that does not parse is counted as malformed, and any
    other exception is a bug that fails the parse."""
    rng = random.Random(29)
    dialects = default_dialects()
    # an IPv6 zone id (fe80::1%eth0) names no block a registry can hold
    _, _, rep = parse_bulk_whois(io.StringIO("NetRange: fe80::1%eth0\n"), Rir.ARIN, dialects)
    assert rep.malformed_skipped == 1
    outcomes = set()
    for _ in range(20000):
        value = junk_net_value(rng)
        regs, _, rep = parse_bulk_whois(io.StringIO(f"NetRange: {value}\n"), Rir.ARIN, dialects)
        outcome = (rep.malformed_skipped, bool(regs))
        assert outcome in ((0, True), (1, False)) and rep.check_identity(), value
        outcomes.add(outcome)
    assert outcomes == {(0, True), (1, False)}


def test_parse_arin_dump():
    regs, orgs, report = parse_bulk_whois(io.StringIO(ARIN_DUMP), Rir.ARIN)

    assert report.net_records_read == 9
    assert report.org_records_read == 4
    assert report.not_managed_skipped == 1
    assert report.malformed_skipped == 1
    assert report.non_cidr_ranges_split == 1
    assert report.split_extra_blocks == 1
    assert report.duplicates_dropped == 2
    assert report.registrations_emitted == 6
    assert report.check_identity()

    by_prefix = {str(r.prefix): r for r in regs}
    assert sorted(by_prefix) == [
        "10.0.0.0/29", "10.0.0.8/30", "172.16.0.0/12",
        "192.0.2.0/24", "198.18.0.0/15", "203.0.113.0/24",
    ]
    # newest record wins the duplicate
    assert by_prefix["192.0.2.0/24"].org_id == "EXAMPLE-2"
    assert by_prefix["192.0.2.0/24"].status is Status.ASSIGNED
    assert by_prefix["192.0.2.0/24"].last_updated == datetime.date(2021, 7, 1)
    # date tie falls to the larger org id
    assert by_prefix["172.16.0.0/12"].org_id == "EXAMPLE-B"
    # range split marks both blocks
    for p in ("10.0.0.0/29", "10.0.0.8/30"):
        assert "split_from_range" in by_prefix[p].flags
    # transfer annotations become flags
    assert "transfer_to:APNIC" in by_prefix["198.18.0.0/15"].flags
    assert "transfer_to:RIPE" in by_prefix["203.0.113.0/24"].flags

    assert set(orgs) == {"EXAMPLE-1", "EXAMPLE-2", "EXAMPLE-A", "EXAMPLE-B"}
    assert orgs["EXAMPLE-1"] == "US"
    assert orgs["EXAMPLE-B"] == "MX"

    assert normalize_status("Direct Allocation") is Status.ALLOCATED
    assert normalize_status("Reassignment") is Status.ASSIGNED


SAME_DATE_DUPLICATES = [
    "inetnum: 192.0.2.0 - 192.0.2.255\ncountry: DE\nstatus: ALLOCATED PA\n"
    "last-modified: 2020-01-01T00:00:00Z\n",
    "inetnum: 192.0.2.0 - 192.0.2.255\ncountry: FR\nstatus: ASSIGNED PA\n"
    "last-modified: 2020-01-01T00:00:00Z\n",
]


def test_duplicates_tied_on_date_and_org_ingest_the_same_in_either_order():
    written = []
    for records in (SAME_DATE_DUPLICATES, SAME_DATE_DUPLICATES[::-1]):
        regs, _, report = parse_bulk_whois(io.StringIO("\n".join(records)), Rir.RIPE)
        assert report.duplicates_dropped == 1 and len(regs) == 1
        out = io.StringIO()
        write_registrations(regs, out)
        written.append(out.getvalue())
    assert written[0] == written[1]


def test_parse_ripe_dump_and_org_linking():
    regs, orgs, report = parse_bulk_whois(io.StringIO(RIPE_DUMP), Rir.RIPE)
    assert report.net_records_read == 5
    assert report.org_records_read == 1
    assert report.registrations_emitted == 5
    assert report.check_identity()

    linked, unresolved = link_organizations(regs, orgs)
    assert unresolved == 1
    by_prefix = {str(r.prefix): r for r in linked}

    # the org record's country beats the inline one
    assert by_prefix["193.0.0.0/24"].org_country == "DE"
    assert "mnt:EXAMPLE-MNT" in by_prefix["193.0.0.0/24"].flags
    # dangling reference keeps the inline country and gets flagged
    assert by_prefix["193.0.2.0/24"].org_country == "NL"
    assert "org_unresolved" in by_prefix["193.0.2.0/24"].flags
    assert by_prefix["2001:db8::/32"].status is Status.ALLOCATED
    assert by_prefix["193.0.4.0/24"].status is Status.LEGACY_OR_UNKNOWN
    assert by_prefix["193.0.4.0/24"].last_updated == datetime.date(2017, 3, 3)


def test_org_without_a_country_resolves_the_reference():
    dump = """\
NetRange:       192.0.2.0 - 192.0.2.255
NetType:        Direct Allocation
OrgID:          EX-NOCC
Updated:        2020-01-01

NetRange:       198.51.100.0 - 198.51.100.255
NetType:        Direct Allocation
OrgID:          EX-NOCC
Country:        CA
Updated:        2020-01-01

OrgID:          EX-NOCC
OrgName:        Nowhere Networks
"""
    regs, orgs, report = parse_bulk_whois(io.StringIO(dump), Rir.ARIN)
    assert orgs == {"EX-NOCC": None}
    assert report.org_records_read == 1
    linked, unresolved = link_organizations(regs, orgs)
    assert unresolved == 0
    by_prefix = {str(r.prefix): r for r in linked}
    bare = by_prefix["192.0.2.0/24"]
    assert bare.org_country is None
    assert "no_org_country" in bare.flags and "org_unresolved" not in bare.flags
    # the inline country stays when the org record has none
    inline = by_prefix["198.51.100.0/24"]
    assert inline.org_country == "CA"
    assert inline.flags == ()


def test_parse_apnic_dump_inline_country_only():
    regs, orgs, report = parse_bulk_whois(io.StringIO(APNIC_DUMP), Rir.APNIC)
    assert orgs == {}
    assert report.net_records_read == 3
    assert report.not_managed_skipped == 1
    assert report.registrations_emitted == 2
    assert report.check_identity()

    by_prefix = {str(r.prefix): r for r in regs}
    rec = by_prefix["203.0.112.0/23"]
    assert rec.org_country == "JP"
    assert rec.status is Status.ASSIGNED
    assert "mnt:MAINT-JP-EX" in rec.flags
    assert "mnt:IRT-EX-JP" in rec.flags
    assert by_prefix["202.12.28.0/24"].org_country == "AU"


def test_each_maintainer_is_flagged_once():
    """A maintainer named twice, under one key or under two, is one mnt:
    flag; the flags keep the order the maintainers first appear in."""
    ripe = """\
inetnum:        193.0.0.0 - 193.0.0.255
country:        NL
status:         ASSIGNED PA
mnt-by:         X-MNT
mnt-by:         Y-MNT
mnt-by:         X-MNT
"""
    apnic = """\
inetnum:        203.0.112.0 - 203.0.113.255
country:        JP
status:         ASSIGNED NON-PORTABLE
mnt-by:         MAINT-JP-EX
mnt-irt:        MAINT-JP-EX
"""
    [reg], _, _ = parse_bulk_whois(io.StringIO(ripe), Rir.RIPE)
    assert reg.flags == ("mnt:X-MNT", "mnt:Y-MNT")
    [reg], _, _ = parse_bulk_whois(io.StringIO(apnic), Rir.APNIC)
    assert reg.flags == ("mnt:MAINT-JP-EX",)


def test_parse_lacnic_dump_short_prefixes_and_changed_dates():
    regs, _, report = parse_bulk_whois(io.StringIO(LACNIC_DUMP), Rir.LACNIC)
    assert report.registrations_emitted == 2
    assert report.check_identity()
    by_prefix = {str(r.prefix): r for r in regs}
    assert by_prefix["45.5.160.0/22"].last_updated == datetime.date(2018, 1, 5)
    assert by_prefix["200.160.0.0/20"].last_updated == datetime.date(2019, 2, 3)
    assert by_prefix["45.5.160.0/22"].status is Status.ALLOCATED


def test_parse_afrinic_dump():
    regs, orgs, report = parse_bulk_whois(io.StringIO(AFRINIC_DUMP), Rir.AFRINIC)
    linked, unresolved = link_organizations(regs, orgs)
    assert unresolved == 0
    assert linked[0].org_country == "SN"
    assert report.check_identity()


def test_drop_circular_transfers():
    arin_regs, _, _ = parse_bulk_whois(io.StringIO(ARIN_DUMP), Rir.ARIN)
    ripe_regs, _, _ = parse_bulk_whois(io.StringIO(RIPE_DUMP), Rir.RIPE)
    kept, circular, transferred = drop_circular_transfers(
        {Rir.ARIN: arin_regs, Rir.RIPE: ripe_regs})

    # 203.0.113.0/24 is claimed transferred in both directions: both sides drop
    assert circular == {Rir.ARIN: 1, Rir.RIPE: 1}
    # 198.18.0.0/15 is a one-way annotation: dropped from the source only
    assert transferred == {Rir.ARIN: 1, Rir.RIPE: 0}
    arin_prefixes = {str(r.prefix) for r in kept[Rir.ARIN]}
    ripe_prefixes = {str(r.prefix) for r in kept[Rir.RIPE]}
    assert "203.0.113.0/24" not in arin_prefixes
    assert "203.0.113.0/24" not in ripe_prefixes
    assert "198.18.0.0/15" not in arin_prefixes
    assert "192.0.2.0/24" in arin_prefixes
    assert "193.0.0.0/24" in ripe_prefixes


def test_a_transfer_marker_names_a_registry_at_a_word_start():
    """After the marker, a registry name counts only where a word starts:
    "ripencc" is RIPE, but "clearing" is not ARIN nor "stripe" RIPE, so a
    block moved to such a company is not dropped as transferred out."""
    arin = """\
NetRange:       192.0.2.0 - 192.0.2.255
NetType:        Direct Assignment
Comment:        Transferred to Stripe Inc
Updated:        2020-01-01

NetRange:       198.51.100.0 - 198.51.100.255
NetType:        Direct Assignment
Comment:        Transferred to RIPENCC
Updated:        2020-01-01
"""
    ripe = """\
inetnum:        193.0.0.0 - 193.0.0.255
country:        NL
status:         ASSIGNED PA
remarks:        transferred to Clearing House GmbH
"""
    arin_regs, _, _ = parse_bulk_whois(io.StringIO(arin), Rir.ARIN)
    ripe_regs, _, _ = parse_bulk_whois(io.StringIO(ripe), Rir.RIPE)
    assert [reg.flags for reg in arin_regs] == [(), ("transfer_to:RIPE",)]
    assert [reg.flags for reg in ripe_regs] == [()]
    kept, circular, transferred = drop_circular_transfers({Rir.ARIN: arin_regs, Rir.RIPE: ripe_regs})
    assert [str(reg.prefix) for reg in kept[Rir.ARIN]] == ["192.0.2.0/24"]
    assert [str(reg.prefix) for reg in kept[Rir.RIPE]] == ["193.0.0.0/24"]
    assert transferred == {Rir.ARIN: 1, Rir.RIPE: 0}
    assert circular == {Rir.ARIN: 0, Rir.RIPE: 0}


@pytest.mark.parametrize("value, code", [
    ("DE # Germany", "DE"), ("us", "US"), ("US, CA", "US"), (" jp ", "JP"),
    ("China", None), ("Germany", None), ("DE1", None), ("U.S.", None), ("", None),
])
def test_a_country_code_is_two_letters_standing_alone(value, code):
    """A country value is read as a code only where it starts with two
    letters that end a word: the first two letters of a name would read
    China as CH, Switzerland, a region the record never named. A record
    whose country is not a code carries no_org_country."""
    apnic = f"inetnum: 203.0.112.0 - 203.0.113.255\ncountry: {value}\nstatus: ALLOCATED PORTABLE\n"
    [reg], _, _ = parse_bulk_whois(io.StringIO(apnic), Rir.APNIC)
    assert reg.org_country == code
    [linked], _ = link_organizations([reg], {})
    assert ("no_org_country" in linked.flags) == (code is None)
    arin = f"OrgID: EX-1\nOrgName: Example\nCountry: {value}\n"
    assert parse_bulk_whois(io.StringIO(arin), Rir.ARIN)[1] == {"EX-1": code}


def test_open_text_reads_gzip_transparently(tmp_path):
    plain = tmp_path / "dump.txt"
    plain.write_text(ARIN_DUMP)
    packed = tmp_path / "dump.txt.gz"
    packed.write_bytes(gzip.compress(ARIN_DUMP.encode()))

    with open_text(str(plain)) as fp:
        regs_a, _, _ = parse_bulk_whois(fp, Rir.ARIN)
    with open_text(str(packed)) as fp:
        regs_b, _, _ = parse_bulk_whois(fp, Rir.ARIN)
    assert [str(r.prefix) for r in regs_a] == [str(r.prefix) for r in regs_b]


def test_corrupt_gzip_raises_unreadable(tmp_path):
    bad = tmp_path / "dump.gz"
    bad.write_bytes(b"\x1f\x8b\x08" + b"garbage-not-gzip-payload")
    with open_text(str(bad)) as fp:
        with pytest.raises(GeoAuditError, match="^cannot read dump: "):
            list(iter_raw_records(fp))
