import datetime
import io
import ipaddress
import json
import math
import random
import re
from typing import NamedTuple

import pytest

from geoaudit import registry
from geoaudit.classify import ConsistencyClass, ConsistencyRecord, FilterReason, TargetOutcome
from geoaudit.errors import GeoAuditError
from geoaudit.registry import (
    OFFICIAL_COUNTRY_COUNTS,
    Prefix,
    RegionMap,
    Registration,
    Rir,
    Status,
    address_units,
    check_official_counts,
    default_region_map,
    duplicate_rank,
    is_country_code,
    load_jsonl,
    load_region_map,
    load_registrations,
    parse_address,
    parse_prefix,
    prefix_sort_key,
    range_to_cidrs,
    record,
    write_jsonl,
    write_registrations,
)
from geoaudit.targets import TargetPlan
from geoaudit.vantage import VantagePoint


def greedy_cover(lo: int, hi: int, bits: int) -> list[tuple[int, int]]:
    """Reference cover: repeatedly take the largest aligned block that fits.
    Returns (start, size) pairs."""
    blocks = []
    cur = lo
    while cur <= hi:
        size = cur & -cur if cur else 1 << bits
        while size > hi - cur + 1:
            size >>= 1
        blocks.append((cur, size))
        cur += size
    return blocks


def size(prefix) -> int:
    return 1 << (prefix.max_prefixlen - prefix.prefixlen)


def as_pairs(prefixes) -> list[tuple[int, int]]:
    return [(int(p.network_address), size(p)) for p in prefixes]


def cidrs(lo, hi):
    return range_to_cidrs(parse_address(lo), parse_address(hi))


def address(value: int, version: int = 4):
    """The address ipaddress makes of value, read through parse_address."""
    kind = ipaddress.IPv4Address if version == 4 else ipaddress.IPv6Address
    return parse_address(str(kind(value)))


def test_range_to_cidrs_known_values():
    got = cidrs("10.0.0.0", "10.0.0.11")
    assert [str(p) for p in got] == ["10.0.0.0/29", "10.0.0.8/30"]

    got = cidrs("192.0.2.0", "192.0.2.255")
    assert [str(p) for p in got] == ["192.0.2.0/24"]

    got = cidrs("192.0.2.7", "192.0.2.7")
    assert [str(p) for p in got] == ["192.0.2.7/32"]

    got = cidrs("2001:db8::", "2001:db8::ffff")
    assert [str(p) for p in got] == ["2001:db8::/112"]


def test_range_to_cidrs_matches_greedy_oracle():
    rng = random.Random(1009)
    for _ in range(300):
        base = rng.randrange(0, 2**32 - 2**17)
        lo = base + rng.randrange(0, 2**12)
        hi = lo + rng.randrange(0, 2**16)
        got = range_to_cidrs(address(lo), address(hi))
        assert as_pairs(got) == greedy_cover(lo, hi, 32)


def test_range_to_cidrs_v6_matches_greedy_oracle():
    rng = random.Random(1013)
    for _ in range(100):
        lo = (0x20010DB8 << 96) + rng.randrange(0, 2**40)
        hi = lo + rng.randrange(0, 2**20)
        got = range_to_cidrs(address(lo, 6), address(hi, 6))
        assert as_pairs(got) == greedy_cover(lo, hi, 128)


@pytest.mark.parametrize("version", [4, 6])
def test_range_to_cidrs_edges_match_greedy_oracle(version):
    """Address 0, the top address, a single address and the whole space."""
    bits = 32 if version == 4 else 128
    top = (1 << bits) - 1
    kind = ipaddress.IPv4Address if version == 4 else ipaddress.IPv6Address
    for lo, hi in [(0, 0), (top, top), (0, top), (0, 1), (1, top), (0, top - 1), (top - 1, top),
                   (7, 7), (top >> 1, (top >> 1) + 1)]:
        got = range_to_cidrs(address(lo, version), address(hi, version))
        assert as_pairs(got) == greedy_cover(lo, hi, bits), (lo, hi)
        assert [str(p) for p in got] == [
            str(n) for n in ipaddress.summarize_address_range(kind(lo), kind(hi))]


def test_range_to_cidrs_cover_is_exact_and_minimal():
    rng = random.Random(1019)
    for _ in range(200):
        lo = rng.randrange(0, 2**32 - 2**17)
        hi = lo + rng.randrange(0, 2**16)
        got = range_to_cidrs(address(lo), address(hi))
        # exact cover, in order, no gaps or overlaps
        cur = lo
        for p in got:
            assert int(p.network_address) == cur
            cur = int(p.network_address) + size(p)
        assert cur == hi + 1
        # no two adjacent blocks are mergeable into one legal block
        for a, b in zip(got, got[1:]):
            mergeable = (
                size(a) == size(b)
                and int(a.network_address) % (2 * size(a)) == 0
            )
            assert not mergeable, f"{a} + {b} should have merged"


def test_range_to_cidrs_errors():
    with pytest.raises(GeoAuditError, match=r"^range start 10\.0\.0\.5 above end 10\.0\.0\.4$"):
        cidrs("10.0.0.5", "10.0.0.4")
    with pytest.raises(GeoAuditError, match="^range mixes IPv4 and IPv6$"):
        cidrs("10.0.0.0", "2001:db8::1")
    with pytest.raises(GeoAuditError, match=r"^bad address '10\.0\.0': "):
        cidrs("10.0.0", "10.0.0.4")


def test_parse_prefix_rejects_host_bits():
    assert str(parse_prefix("10.0.0.0/24")) == "10.0.0.0/24"
    assert str(parse_prefix(" 2001:db8::/32 ")) == "2001:db8::/32"
    for bad in ["10.0.0.1/24", "2001:db8::1/32", "10.0.0.0/33", "banana", "10.0.0.0/-1"]:
        with pytest.raises(GeoAuditError, match=f"^bad prefix {re.escape(repr(bad))}: "):
            parse_prefix(bad)


@pytest.mark.parametrize("text, want", [
    ("::ffff:1.2.3.4", "::ffff:102:304"),  # IPv4-mapped: Python 3.13's ipaddress prints it dotted
    ("::ffff:0.0.0.0", "::ffff:0:0"),
    ("::1.2.3.4", "::102:304"),  # IPv4-compatible
    ("::", "::"),
    ("1:0:0:2:0:0:3:4", "1::2:0:0:3:4"),  # the first of two equal zero runs
    ("0:0:1:0:0:0:1:0", "0:0:1::1:0"),  # the longer run, though later
    ("1:0:1:0:1:0:1:0", "1:0:1:0:1:0:1:0"),  # a lone zero group stays
    ("1:0:0:0:0:0:0:0", "1::"),
    ("0:0:0:0:0:0:0:1", "::1"),
    ("2A00:0DB8:00F0::", "2a00:db8:f0::"),
])
def test_address_text_is_pinned(text, want):
    assert str(parse_address(text)) == want


def rfc5952_text(value):
    """RFC 5952 text of a 128-bit value, written out group by group: lower-case
    hex without leading zeros, and the longest run of two or more zero groups,
    the first such run on a tie, as ::."""
    groups = [value >> shift & 0xFFFF for shift in range(112, -16, -16)]
    start, length = 0, 1  # the longest zero run so far; a single zero group stays
    i = 0
    while i < 8:
        j = i
        while j < 8 and groups[j] == 0:
            j += 1
        if j - i > length:
            start, length = i, j - i
        i = max(j, i + 1)
    hexes = [format(group, "x") for group in groups]
    if length < 2:
        return ":".join(hexes)
    return ":".join(hexes[:start]) + "::" + ":".join(hexes[start + length:])


def test_ipv6_text_matches_a_reference_and_ipaddress():
    """Seeded IPv6 values, each group zero with a chance drawn per value, so
    zero runs of every length sit side by side, at either end and in ties;
    IPv4-mapped ones among them. str() of each, and of a prefix of it, is
    the reference's text, and ipaddress's for an address not IPv4-mapped
    (Python 3.13 prints those dotted); parsing the text gives the value back."""
    rng = random.Random(53)
    mapped = 0
    for _ in range(20000):
        p_zero = rng.random()
        value = 0
        for _ in range(8):
            value = value << 16 | (0 if rng.random() < p_zero else rng.choice(
                [rng.getrandbits(16), rng.getrandbits(4), 0xFFFF]))
        if rng.random() < 0.05:
            value = 0xFFFF << 32 | rng.getrandbits(32) >> rng.choice([0, 16, 32])
        text = str(parse_address(str(ipaddress.IPv6Address(value))))
        assert text == rfc5952_text(value), hex(value)
        if value >> 32 == 0xFFFF:
            mapped += 1
        else:
            assert text == str(ipaddress.IPv6Address(value)), hex(value)
        assert parse_address(text) == (6, value)
        host = rng.randint(0, 128)
        network = value >> host << host
        assert str(parse_prefix(f"{rfc5952_text(network)}/{128 - host}")) == (
            f"{rfc5952_text(network)}/{128 - host}")
    assert mapped > 500


def test_mapped_prefix_text_is_pinned_in_registrations():
    reg = Registration(prefix=parse_prefix("::ffff:1.2.3.0/120"), rir=Rir.RIPE, org_id="ORG-M",
                       org_country="DE", status=Status.ASSIGNED,
                       last_updated=datetime.date(2020, 1, 2))
    assert str(reg.prefix) == "::ffff:102:300/120"
    out = io.StringIO()
    write_registrations([reg], out)
    assert out.getvalue() == (
        '{"flags": [], "last_updated": "2020-01-02", "org_country": "DE", "org_id": "ORG-M", '
        '"prefix": "::ffff:102:300/120", "rir": "RIPE", "status": "assigned"}\n')


def seed_parse(parse, kind, text):
    """parse_address / parse_prefix as the seed wrote them: ipaddress alone.
    Returns the value, or the error text. An IPv6 zone id, which ipaddress
    keeps, is refused."""
    try:
        value = parse(text.strip())
    except ValueError as exc:
        return f"bad {kind} {text!r}: {exc}"
    zone = getattr(getattr(value, "network_address", value), "scope_id", None)
    if zone is not None:
        return f"bad {kind} {text!r}: IPv6 zone id {zone!r} not accepted"
    return value


def agree_as_values(pairs, key):
    """(ours, ipaddress's) pairs: both sort alike (ipaddress within each
    family), and two of ours are equal, with one hash, exactly when the two
    ipaddress values are equal."""
    ours = [got for got, _ in pairs]
    theirs = [want for _, want in pairs]
    assert [str(v) for v in sorted(ours)] == [ipaddress_text(v) for v in sorted(theirs, key=key)]
    assert len(set(ours)) == len(set(theirs)) == len(set(pairs))
    assert all(hash(got) == hash(tuple(got)) for got in ours)


def ipaddress_text(value):
    """str() of an ipaddress address or network, except that an IPv4-mapped
    address has the hex spelling ipaddress printed before Python 3.13, which
    geoaudit keeps on every version (test_address_text_is_pinned)."""
    address = getattr(value, "network_address", value)
    if address.version == 4 or address.ipv4_mapped is None:
        return str(value)
    low = int(address) & 0xFFFFFFFF
    text = f"::ffff:{low >> 16:x}:{low & 0xFFFF:x}"
    return text if address is value else f"{text}/{value.prefixlen}"


def parsed(parse, text):
    try:
        return parse(text)
    except GeoAuditError as exc:
        return str(exc)


def address_texts(rng, n):
    octets = ["0", "1", "9", "10", "99", "100", "192", "255", "256", "300", "00", "01", "010",
              "0255", "1e2", "-1", "+1", " 1", "", "a", "\uff11", "\u0661", "4294967295"]
    v6 = ["::", "::1", "2001:db8::", "2001:db8::1", "2001:0db8::", "fe80::1%eth0",
          "::ffff:192.0.2.1", "2001:db8:::1", "12345::", "2001:db8::g"]
    for _ in range(n):
        kind = rng.randrange(4)
        if kind == 0:
            addr = ".".join(rng.choice(octets) for _ in range(rng.choice([3, 4, 4, 4, 5])))
        elif kind == 1:
            addr = ".".join(str(rng.randrange(256)) for _ in range(4))
        elif kind == 2:
            addr = rng.choice(v6)
        else:
            value = rng.getrandbits(32)
            addr = str(ipaddress.IPv4Address(value)) + rng.choice(["", ".", "..1", "x"])
        yield rng.choice(["", " ", "\t"]) + addr + rng.choice(["", " ", "\n"])


def test_parse_address_matches_ipaddress():
    rng = random.Random(23)
    pairs = []
    for text in address_texts(rng, 20000):
        got = parsed(parse_address, text)
        want = seed_parse(ipaddress.ip_address, "address", text)
        if isinstance(want, str):
            assert got == want, text
            continue
        assert (got.version, int(got), got.max_prefixlen, str(got)) == (
            want.version, int(want), want.max_prefixlen, ipaddress_text(want)), text
        pairs.append((got, want))
    assert any(got.version == 6 for got, _ in pairs)
    agree_as_values(pairs, key=lambda a: (a.version, a))


def test_parse_prefix_matches_ipaddress():
    rng = random.Random(29)
    lengths = ["0", "8", "16", "24", "31", "32", "33", "08", "024", "-1", "", "+8", "255.0.0.0",
               "0.0.0.255", "64", "128", "129", "\uff18"]
    texts = list(address_texts(rng, 20000))
    pairs = []
    for i, text in enumerate(texts):
        if i % 3 == 0:  # a canonical network of a random length: the fast path
            plen = rng.randint(0, 32)
            net = ipaddress.IPv4Network((rng.getrandbits(32) >> (32 - plen) << (32 - plen), plen))
            text = str(net)
        else:  # host bits, odd lengths, no slash, two slashes
            text = text.strip() + rng.choice(["/", "/", "/", "", "//"]) + rng.choice(lengths)
        got = parsed(parse_prefix, text)
        want = seed_parse(lambda t: ipaddress.ip_network(t, strict=True), "prefix", text)
        if isinstance(want, str):
            assert got == want, text
            continue
        assert (got.version, int(got.network_address), got.prefixlen, got.max_prefixlen, str(got)) == (
            want.version, int(want.network_address), want.prefixlen, want.max_prefixlen,
            ipaddress_text(want)), text
        pairs.append((got, want))
    assert any(got.version == 6 for got, _ in pairs)
    agree_as_values(pairs, key=lambda n: (n.version, n))
    # `in` is no containment test, nor a look among the tuple's items
    for got, _ in pairs[:50]:
        for item in (got.network_address, got.version, got.prefixlen):
            with pytest.raises(TypeError):
                item in got


def v6_texts(rng, n):
    """IPv6 spellings around the hex-group fast path: 1-10 groups of 0-5 hex
    digits in either case, with or without a '::' in place of some groups,
    now and then with a zone id, an embedded IPv4 address or a stray
    character; and canonical text."""
    digits = "0123456789abcdefABCDEF"
    for _ in range(n):
        if rng.random() < 0.2:
            yield str(ipaddress.IPv6Address(rng.getrandbits(128) >> rng.randrange(129) << rng.randrange(129)
                                            & (1 << 128) - 1))
            continue
        groups = ["".join(rng.choice(digits) for _ in range(rng.choice([0, 1, 1, 2, 3, 4, 4, 4, 4, 5])))
                  for _ in range(rng.randint(1, 10))]
        text = ":".join(groups)
        if rng.random() < 0.7:
            at = rng.randint(0, len(groups))
            text = ":".join(groups[:at]) + "::" + ":".join(groups[at + rng.randint(0, 3):])
        tail = rng.random()
        if tail < 0.05:
            text += rng.choice(["%eth0", "%1", "%"])
        elif tail < 0.1:
            text += rng.choice([":192.0.2.1", "192.0.2.1", ":1.2.3"])
        elif tail < 0.2:
            at = rng.randint(0, len(text))
            text = text[:at] + rng.choice(":.gGx_+- \u0663\uff11") + text[at:]
        yield text


def test_ipv6_spellings_match_ipaddress():
    """parse_address and parse_prefix read hex-group IPv6 text themselves;
    each agrees with ipaddress on every spelling, value and error text alike."""
    rng = random.Random(31)
    address_pairs, prefix_pairs = [], []
    for text in v6_texts(rng, 20000):
        got = parsed(parse_address, text)
        want = seed_parse(ipaddress.ip_address, "address", text)
        if isinstance(want, str):
            assert got == want, text
            length = rng.choice(["0", "64", "128", "129", "064", ""])
        else:
            assert (got.version, int(got), str(got)) == (want.version, int(want), str(want)), text
            address_pairs.append((got, want))
            value = int(want)
            host = (value & -value).bit_length() - 1 if value else 128  # the lengths with no host bits
            length = str(rng.randint(128 - host, 128)) if rng.random() < 0.8 else rng.choice(["64", "-1"])
        text = f"{text}/{length}"
        got = parsed(parse_prefix, text)
        want = seed_parse(lambda t: ipaddress.ip_network(t, strict=True), "prefix", text)
        if isinstance(want, str):
            assert got == want, text
        else:
            assert (got.version, int(got.network_address), got.prefixlen, str(got)) == (
                want.version, int(want.network_address), want.prefixlen, str(want)), text
            prefix_pairs.append((got, want))
    assert len(address_pairs) > 5000 and len(prefix_pairs) > 4000
    agree_as_values(address_pairs, key=lambda a: (a.version, a))
    agree_as_values(prefix_pairs, key=lambda n: (n.version, n))


def test_address_units():
    assert address_units(parse_prefix("10.0.0.0/24")) == 1.0
    assert address_units(parse_prefix("10.0.0.0/16")) == 256.0
    assert address_units(parse_prefix("10.0.0.0/25")) == 0.5
    assert address_units(parse_prefix("2001:db8::/48")) == 1.0
    assert address_units(parse_prefix("2001:db8::/32")) == 65536.0
    assert address_units(parse_prefix("2001:db8::/64")) == 2.0**-16


def test_prefix_sort_key_orders_v4_before_v6_then_address_then_length():
    prefixes = [
        parse_prefix("2001:db8::/32"),
        parse_prefix("10.0.0.0/8"),
        parse_prefix("10.0.0.0/24"),
        parse_prefix("9.0.0.0/8"),
    ]
    ordered = sorted(prefixes, key=prefix_sort_key)
    assert [str(p) for p in ordered] == [
        "9.0.0.0/8", "10.0.0.0/8", "10.0.0.0/24", "2001:db8::/32",
    ]


def test_registration_json_round_trip():
    reg = Registration(
        prefix=parse_prefix("203.0.113.0/24"),
        rir=Rir.APNIC,
        org_id="ORG-X",
        org_country="JP",
        status=Status.ASSIGNED,
        last_updated=datetime.date(2021, 3, 4),
        flags=("moas",),
    )
    again = Registration.from_json(json.loads(reg.to_line()))
    assert again.prefix == reg.prefix
    assert again.rir == reg.rir
    assert again.org_country == "JP"
    assert again.status is Status.ASSIGNED
    assert again.last_updated == datetime.date(2021, 3, 4)
    assert again.flags == ("moas",)

    buf = io.StringIO()
    assert write_registrations([reg], buf) == 1
    buf.seek(0)
    assert load_registrations(buf) == [again]


def random_json(rng, depth=0):
    """A JSON value: nested objects with unsorted keys, strings JSON must
    escape, and every kind of number the encoder writes."""
    kind = rng.randrange(7 if depth < 3 else 4)
    if kind == 0:
        return rng.choice([None, True, False, 0, -7, 2**70, 0.0, -0.0, 1e-7, 1e16, 5e-324,
                           math.inf, -math.inf, math.nan])
    if kind == 1:
        return rng.uniform(-1e3, 1e3)
    if kind in (2, 3):
        return "".join(rng.choice(['a', '"', '\\', '/', '\u00e9', '\u6771', '\U0001f600', '\x01', ' '])
                       for _ in range(rng.randint(0, 6)))
    if kind == 4:
        return [random_json(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    return {str(rng.randint(0, 99)): random_json(rng, depth + 1) for _ in range(rng.randint(0, 4))}


def json_lines(rng, n):
    """n lines of one JSON value each, padded with JSON whitespace, some
    ending in CRLF, with blank and whitespace-only lines between them."""
    lines = []
    for _ in range(n):
        while rng.random() < 0.05:
            lines.append(rng.choice(["\n", "   \n", "\t\r\n", "\x0c\n", "\u3000\n"]))
        value = {"k": random_json(rng)} if rng.random() < 0.8 else random_json(rng)
        pad = lambda: "".join(rng.choice(" \t") for _ in range(rng.randint(0, 2)))
        lines.append(pad() + json.dumps(value, sort_keys=rng.random() < 0.5) + pad()
                     + rng.choice(["\n", "\r\n"]))
    return "".join(lines)


def decode_all(text):
    return load_jsonl(lambda obj: obj, io.StringIO(text))


def spelled(values):
    """Values as JSON text, so NaN compares equal to NaN."""
    return [json.dumps(v, sort_keys=True) for v in values]


def test_load_jsonl_decodes_each_line_as_json_loads_does():
    rng = random.Random(31)
    for n in (0, 1, 2, 3000):
        text = json_lines(rng, n)
        want = [json.loads(line) for line in io.StringIO(text) if line.strip()]
        assert len(want) == n
        assert spelled(decode_all(text)) == spelled(want)
    assert decode_all("") == [] and decode_all("\n \n") == []


@pytest.mark.parametrize("bad", [
    ['{"a": 1'],
    ['{"a": 1}, {"b": 2}'],  # two values on one line
    ['{"a": 1} x'],
    ['[1', '2]', '3, 4'],  # three lines a joined decode would read as three values
    ['{"a": [', '1]}'],
    ['\ufeff{"a": 1}'],
    ['\x0c{"a": 1}'],  # a form feed is not JSON whitespace
    ['{"a": "raw\ttab"}'],
    ['nan'],
    ['"unterminated'],
])
def test_load_jsonl_raises_what_json_loads_raises(bad):
    rng = random.Random(32)
    for before in (0, 1, 500):
        good = json_lines(rng, before)
        with pytest.raises(ValueError) as want:
            json.loads(bad[0] + "\n")
        with pytest.raises(GeoAuditError) as got:
            decode_all(good + "".join(line + "\n" for line in bad) + '{"after": 1}\n')
        first_bad = good.count("\n") + 1
        assert str(got.value) == f"line {first_bad}: {want.value}"


def test_load_jsonl_refuses_a_line_nested_too_deeply():
    with pytest.raises(GeoAuditError, match="^line 2: maximum recursion depth exceeded"):
        decode_all('{"a": 1}\n' + "[" * 100_000 + "\n")


def test_load_jsonl_leaves_a_bug_in_from_json_alone():
    """Only GeoAuditError is bad input: any other exception from from_json
    is a bug, and it passes through without a line number."""
    for bug in (AttributeError, KeyError, TypeError, ValueError):
        def from_json(obj):
            raise bug("from_json's own mistake")
        with pytest.raises(bug, match="^.?from_json's own mistake.?$"):
            load_jsonl(from_json, io.StringIO('{"a": 1}\n'))


def test_with_flag_is_idempotent():
    reg = Registration(prefix=parse_prefix("10.0.0.0/8"), rir=Rir.ARIN)
    reg = reg.with_flag("x")
    assert reg.with_flag("x").flags == ("x",)
    assert reg.with_flag("y").flags == ("x", "y")


def test_is_country_code():
    assert is_country_code("US")
    assert is_country_code("ZA")
    assert not is_country_code("us")
    assert not is_country_code("USA")
    assert not is_country_code("U1")
    assert not is_country_code("")


def test_default_region_map_matches_official_counts():
    region_map = default_region_map()
    assert len(list(region_map)) == 244
    assert region_map.counts() == OFFICIAL_COUNTRY_COUNTS
    assert region_map.counts() == {
        Rir.ARIN: 29, Rir.RIPE: 73, Rir.APNIC: 54, Rir.LACNIC: 31, Rir.AFRINIC: 57,
    }


def test_default_region_map_spot_checks():
    region_map = default_region_map()
    assert region_map.get("US") is Rir.ARIN
    assert region_map.get("DE") is Rir.RIPE
    assert region_map.get("JP") is Rir.APNIC
    assert region_map.get("BR") is Rir.LACNIC
    assert region_map.get("MU") is Rir.AFRINIC
    assert "US" in region_map
    assert region_map.get("XX") is None and region_map.get(None) is None
    # partition: every country is counted under exactly one RIR
    assert sum(region_map.counts().values()) == len(list(region_map))


def test_load_region_map_validation():
    good = io.StringIO("country,rir\nus,arin\nde,ripe\n")
    region_map = load_region_map(good)
    assert region_map.get("US") is Rir.ARIN
    assert region_map.get("DE") is Rir.RIPE

    # provenance comments above the header are ignored
    commented = io.StringIO("# retrieved 2026-08-16\ncountry,rir\nus,arin\n")
    assert load_region_map(commented).get("US") is Rir.ARIN

    with pytest.raises(GeoAuditError):
        load_region_map(io.StringIO("cc,registry\nUS,ARIN\n"))
    with pytest.raises(GeoAuditError, match="^country US appears twice$"):
        load_region_map(io.StringIO("country,rir\nUS,ARIN\nUS,RIPE\n"))
    with pytest.raises(GeoAuditError):
        load_region_map(io.StringIO("country,rir\nUS,NOTARIR\n"))


def test_region_map_refuses_a_bad_country_code():
    for bad in ("USA", "us", "U1", ""):
        with pytest.raises(GeoAuditError, match=f"^bad country code {re.escape(repr(bad))}$"):
            RegionMap({"DE": Rir.RIPE, bad: Rir.ARIN})


def test_check_official_counts_rejects_wrong_totals():
    small = RegionMap({"US": Rir.ARIN})
    with pytest.raises(GeoAuditError):
        check_official_counts(small)


def random_text(rng):
    return "".join(rng.choice(['a', 'Z', '"', '\\', 'é', '\U0001f600', '\x01', ' '])
                   for _ in range(rng.randint(0, 5)))


def maybe(rng, make):
    return None if rng.random() < 0.3 else make()


def random_prefix(rng):
    network, bits = rng.choice([(ipaddress.IPv4Network, 32), (ipaddress.IPv6Network, 128)])
    plen = rng.randint(0, bits)
    return parse_prefix(str(network((rng.getrandbits(bits) >> (bits - plen) << (bits - plen), plen))))


def random_address(rng):
    address, bits = rng.choice([(ipaddress.IPv4Address, 32), (ipaddress.IPv6Address, 128)])
    return parse_address(str(address(rng.getrandbits(bits))))


def random_float(rng):
    return rng.choice([rng.uniform(-1e4, 1e4), 0.0, -0.0, 5e-324, 1e16, math.inf])


def random_coordinate(rng, bound):
    """A latitude (bound 90) or a longitude (bound 180): VantagePoint refuses any other."""
    return rng.choice([rng.uniform(-bound, bound), 0.0, -0.0, 5e-324, bound, -bound])


def random_rirs(rng):
    return frozenset(rng.sample(list(Rir), rng.randint(0, 5)))


def random_registration(rng):
    return Registration(
        prefix=random_prefix(rng), rir=rng.choice(list(Rir)),
        org_id=maybe(rng, lambda: random_text(rng)), org_country=maybe(rng, lambda: random_text(rng)),
        status=rng.choice(list(Status)),
        last_updated=maybe(rng, lambda: datetime.date.fromordinal(rng.randint(1, 3_652_059))),
        flags=tuple(random_text(rng) for _ in range(rng.randint(0, 3))))


def random_plan(rng):
    return TargetPlan(registration=random_registration(rng),
                      targets=tuple(random_address(rng) for _ in range(rng.randint(0, 3))))


def random_outcome(rng):
    return TargetOutcome(
        target=random_address(rng), responded=rng.random() < 0.5,
        vantage_id=maybe(rng, lambda: random_text(rng)),
        vantage_country=maybe(rng, lambda: random_text(rng)),
        min_rtt_ms=maybe(rng, lambda: random_float(rng)), radius_km=maybe(rng, lambda: random_float(rng)),
        rirs=random_rirs(rng), cls=maybe(rng, lambda: rng.choice(list(ConsistencyClass))))


def random_record(rng):
    return ConsistencyRecord(
        prefix=random_prefix(rng), rir_reg=rng.choice(list(Rir)),
        rir_org=maybe(rng, lambda: rng.choice(list(Rir))), org_country=maybe(rng, lambda: random_text(rng)),
        rir_geo=random_rirs(rng), cls=maybe(rng, lambda: rng.choice(list(ConsistencyClass))),
        filter_reason=maybe(rng, lambda: rng.choice(list(FilterReason))),
        flags=tuple(random_text(rng) for _ in range(rng.randint(0, 3))),
        targets=tuple(random_outcome(rng) for _ in range(rng.randint(0, 3))))


def random_vantage(rng):
    # a country is read back stripped and upper-cased, so it is drawn that way
    return VantagePoint(
        id=random_text(rng), country=random_text(rng).strip().upper(),
        lat=random_coordinate(rng, 90.0), lon=random_coordinate(rng, 180.0), kind=random_text(rng),
        asn=maybe(rng, lambda: rng.choice([0, 64496, 2**70])), connected=rng.random() < 0.5)


RECORDS = {
    "Registration": (Registration, random_registration),
    "TargetPlan": (TargetPlan, random_plan),
    "TargetOutcome": (TargetOutcome, random_outcome),
    "ConsistencyRecord": (ConsistencyRecord, random_record),
    "VantagePoint": (VantagePoint, random_vantage),
}

# one probe value of each JSON type
PROBES = {"string": "x", "integer": 7, "fraction": 1.5, "boolean": True, "null": None,
          "list": [], "object": {}}
# the probes each annotated field type accepts; it refuses every other one
ACCEPTS = {
    "str": {"string"},
    "str | None": {"string", "null"},
    "bool": {"boolean"},
    "float": {"integer", "fraction"},
    "float | None": {"integer", "fraction", "null"},
    "int | None": {"integer", "null"},
    "Prefix": set(),
    "Addr": set(),
    "Rir": set(),
    "Status": set(),
    "Registration": set(),
    "Rir | None": {"null"},
    "ConsistencyClass | None": {"null"},
    "FilterReason | None": {"null"},
    "datetime.date | None": {"null"},
    "tuple[str, ...]": {"list"},
    "tuple[Addr, ...]": {"list"},
    "tuple[TargetOutcome, ...]": {"list"},
    "frozenset[Rir]": {"list"},
}
# the probes a list field accepts as its one element
ELEMENT_ACCEPTS = {
    "tuple[str, ...]": {"string"},
    "tuple[Addr, ...]": set(),
    "tuple[TargetOutcome, ...]": set(),
    "frozenset[Rir]": set(),
}
# The full text of each refusal, recorded before the record codec was
# compiled, after "line 3: key: ": "<probe> is not <noun>", with the noun of
# the field type, or of its element for a probe in a one-element list,
# unless REFUSED_IN_OTHER_WORDS spells it.
REFUSED_AS = {
    "str": "a string",
    "str | None": "a string",
    "bool": "a boolean",
    "float": "a number",
    "float | None": "a number",
    "int | None": "an integer",
    "Prefix": "a string",
    "Addr": "a string",
    "Rir": "a Rir",
    "Status": "a Status",
    "Registration": "an object",
    "Rir | None": "a Rir",
    "ConsistencyClass | None": "a ConsistencyClass",
    "FilterReason | None": "a FilterReason",
    "datetime.date | None": "a string",
    "tuple[str, ...]": "a list",
    "tuple[Addr, ...]": "a list",
    "tuple[TargetOutcome, ...]": "a list",
    "frozenset[Rir]": "a list",
}
ELEMENT_REFUSED_AS = {
    "tuple[str, ...]": "a string",
    "tuple[Addr, ...]": "a string",
    "tuple[TargetOutcome, ...]": "an object",
    "frozenset[Rir]": "a Rir",
}
REFUSED_IN_OTHER_WORDS = {  # (type text, probe, in a list) -> text
    ("Prefix", "string", False): "bad prefix 'x': 'x' does not appear to be an IPv4 or IPv6 network",
    ("Addr", "string", False): "bad address 'x': 'x' does not appear to be an IPv4 or IPv6 address",
    ("tuple[Addr, ...]", "string", True): "bad address 'x': 'x' does not appear to be an IPv4 or IPv6 address",
    ("datetime.date | None", "string", False): "'x' is not a YYYY-MM-DD date",
    ("Registration", "object", False): "no 'prefix'",
    ("tuple[TargetOutcome, ...]", "object", True): "no 'target'",
}


def jsonl(rows):
    return io.StringIO("".join(json.dumps(row) + "\n" for row in rows))


def field_types(kind):
    """Each field's annotated type as written; a NamedTuple holds it as a
    ForwardRef, in the class that declares the fields."""
    annotations = {}
    for cls in reversed(kind.__mro__):
        annotations.update(vars(cls).get("__annotations__", {}))
    return {name: annotations[name].__forward_arg__ for name in kind._fields}


def registration_json(reg):
    """The JSON object of each record type, built from its fields alone,
    with no call into the record codec: the encoder's oracle."""
    return {"prefix": str(reg.prefix), "rir": reg.rir.value, "org_id": reg.org_id,
            "org_country": reg.org_country, "status": reg.status.value,
            "last_updated": None if reg.last_updated is None else reg.last_updated.isoformat(),
            "flags": list(reg.flags)}


def outcome_json(out):
    return {"target": str(out.target), "responded": out.responded, "vantage_id": out.vantage_id,
            "vantage_country": out.vantage_country, "min_rtt_ms": out.min_rtt_ms, "radius_km": out.radius_km,
            "rirs": sorted(rir.value for rir in out.rirs), "class": out.cls and out.cls.value}


ORACLES = {
    Registration: registration_json,
    TargetPlan: lambda plan: {"registration": registration_json(plan.registration),
                              "targets": [str(target) for target in plan.targets]},
    TargetOutcome: outcome_json,
    ConsistencyRecord: lambda rec: {
        "prefix": str(rec.prefix), "rir_reg": rec.rir_reg.value, "rir_org": rec.rir_org and rec.rir_org.value,
        "org_country": rec.org_country, "rir_geo": sorted(rir.value for rir in rec.rir_geo),
        "class": rec.cls and rec.cls.value, "filter_reason": rec.filter_reason and rec.filter_reason.value,
        "flags": list(rec.flags), "targets": [outcome_json(out) for out in rec.targets]},
    VantagePoint: lambda v: dict(v._asdict()),
}
assert set(ORACLES) == {kind for kind, _ in RECORDS.values()}

# values the random_* generators do not draw: text outside the BMP, line
# and paragraph separators, control characters, a lone surrogate; floats
# json spells NaN and Infinity; a bool in an int field, which json writes
# as true where int.__repr__ writes True
EDGE_TEXT = ["\U0001f600", "\u2028\u2029", "\x00\x1f\x7f", '\ud800"\\/']
EDGE_FLOAT = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]
EDGES = {  # field name -> its edge values, for the fields that take them
    "org_id": EDGE_TEXT, "org_country": EDGE_TEXT, "vantage_id": EDGE_TEXT, "vantage_country": EDGE_TEXT,
    "kind": EDGE_TEXT, "min_rtt_ms": EDGE_FLOAT, "radius_km": EDGE_FLOAT,
    "asn": [True, False, 2**70, -2**70],
}


def with_edges(rec, rng):
    """rec with some of its fields, and of the records it holds, set to edge values."""
    changes = {name: rng.choice(EDGES[name]) for name in rec._fields if name in EDGES and rng.random() < 0.5}
    if "flags" in rec._fields and rng.random() < 0.5:
        changes["flags"] = tuple(rng.sample(EDGE_TEXT, 2))
    if type(rec) is TargetPlan:
        changes["registration"] = with_edges(rec.registration, rng)
    if type(rec) is ConsistencyRecord:
        changes["targets"] = tuple(with_edges(out, rng) for out in rec.targets)
    return rec._replace(**changes)


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_line_is_what_json_dumps_writes(name):
    """A record's line is json.dumps of its oracle object with sorted keys,
    and the line decodes to a record with that same object; a bool in an
    int field is refused on the way back, so that check skips it."""
    kind, make = RECORDS[name]
    rng = random.Random(34)
    for _ in range(500):
        rec = with_edges(make(rng), rng) if rng.random() < 0.5 else make(rng)
        line = rec.to_line()
        assert line == json.dumps(ORACLES[kind](rec), sort_keys=True)
        if type(getattr(rec, "asn", None)) is not bool:
            again = kind.from_json(json.loads(line))
            assert json.dumps(ORACLES[kind](again), sort_keys=True) == line


def test_a_bug_in_a_compiled_reader_is_not_taken_for_bad_input(monkeypatch):
    """from_json reads an object again through field on GeoAuditError
    alone: any other exception from a reader is a bug, and it leaves
    load_jsonl with its traceback, not read past by the slower route."""
    def reader(text):
        raise AttributeError("the reader's own mistake")
    text, kind, _, decode = registry._CODECS[Prefix]
    monkeypatch.setitem(registry._CODECS, Prefix, (text, kind, reader, decode))

    @record
    class Row(NamedTuple):
        prefix: Prefix

    with pytest.raises(AttributeError, match="^the reader's own mistake$"):
        load_jsonl(Row.from_json, io.StringIO('{"prefix": "10.0.0.0/8"}\n'))


def test_write_jsonl_writes_what_json_dumps_writes():
    rng = random.Random(33)
    records = [with_edges(make(rng), rng) for _ in range(400) for _, make in RECORDS.values()]
    out = io.StringIO()
    assert write_jsonl(records, out) == len(records)
    assert out.getvalue() == "".join(json.dumps(ORACLES[type(rec)](rec), sort_keys=True) + "\n"
                                     for rec in records)


def test_duplicate_rank_ends_with_the_line_the_row_is_written_as():
    rng = random.Random(35)
    for _ in range(200):
        reg = with_edges(random_registration(rng), rng)
        out = io.StringIO()
        write_registrations([reg], out)
        assert duplicate_rank(reg)[-1] + "\n" == out.getvalue()


@pytest.mark.parametrize("name", RECORDS)
def test_random_records_round_trip_through_the_jsonl_codec(name):
    kind, make = RECORDS[name]
    rng = random.Random(41)
    items = [make(rng) for _ in range(500)]
    out = io.StringIO()
    assert write_jsonl(items, out) == len(items)
    out.seek(0)
    assert load_jsonl(kind.from_json, out) == items


@pytest.mark.parametrize("name", RECORDS)
def test_every_field_refuses_the_json_types_it_does_not_take(name):
    kind, make = RECORDS[name]
    rng = random.Random(42)
    good = [json.loads(make(rng).to_line()) for _ in range(3)]
    for name, type_text in field_types(kind).items():
        key = "class" if name == "cls" else name
        probes = [(probe, value, False, probe in ACCEPTS[type_text]) for probe, value in PROBES.items()]
        probes += [(probe, value, True, probe in ELEMENT_ACCEPTS[type_text])
                   for probe, value in PROBES.items() if type_text in ELEMENT_ACCEPTS]
        for probe, value, in_list, accepted in probes:
            rows = good[:2] + [{**good[2], key: [value] if in_list else value}]
            if accepted:
                loaded = load_jsonl(kind.from_json, jsonl(rows))[2]
                if type_text.startswith("float") and value is not None:
                    assert getattr(loaded, name) == float(value)
                    assert type(getattr(loaded, name)) is float
                continue
            with pytest.raises(GeoAuditError) as refused:
                load_jsonl(kind.from_json, jsonl(rows))
            noun = (ELEMENT_REFUSED_AS if in_list else REFUSED_AS)[type_text]
            text = REFUSED_IN_OTHER_WORDS.get((type_text, probe, in_list), f"{value!r} is not {noun}")
            assert str(refused.value) == f"line 3: {key}: {text}"


@pytest.mark.parametrize("name", RECORDS)
def test_a_missing_key_takes_the_default_or_is_refused(name):
    kind, make = RECORDS[name]
    row = json.loads(make(random.Random(43)).to_line())
    for name in kind._fields:
        key = "class" if name == "cls" else name
        rows = [row, {k: v for k, v in row.items() if k != key}]
        if name not in kind._field_defaults:
            with pytest.raises(GeoAuditError, match=f"^line 2: no '{key}'$"):
                load_jsonl(kind.from_json, jsonl(rows))
        else:
            assert getattr(load_jsonl(kind.from_json, jsonl(rows))[1], name) == kind._field_defaults[name]


# a value of the JSON type its field takes that is still refused, with the
# full text recorded before the record codec was compiled
REFUSED_VALUES = [
    ("Registration", "prefix", "10.0.0.1/8", "prefix: bad prefix '10.0.0.1/8': 10.0.0.1/8 has host bits set"),
    ("Registration", "prefix", "10.0.0.0/33",
     "prefix: bad prefix '10.0.0.0/33': '10.0.0.0/33' does not appear to be an IPv4 or IPv6 network"),
    ("Registration", "rir", "arin", "rir: 'arin' is not a Rir"),
    ("Registration", "status", "ALLOCATED", "status: 'ALLOCATED' is not a Status"),
    ("Registration", "last_updated", "20210304", "last_updated: '20210304' is not a YYYY-MM-DD date"),
    ("Registration", "flags", ["a", 1], "flags: 1 is not a string"),
    ("TargetPlan", "registration", {"prefix": "10.0.0.1/8", "rir": "ARIN"},
     "registration: prefix: bad prefix '10.0.0.1/8': 10.0.0.1/8 has host bits set"),
    ("TargetPlan", "registration", {"prefix": "10.0.0.0/8", "rir": "ARIN", "last_updated": 20210304},
     "registration: last_updated: 20210304 is not a string"),
    ("TargetPlan", "targets", ["192.0.2.1", "192.0.2.256"],
     "targets: bad address '192.0.2.256': '192.0.2.256' does not appear to be an IPv4 or IPv6 address"),
    ("TargetPlan", "targets", ["fe80::1%eth0"], "targets: bad address 'fe80::1%eth0': IPv6 zone id 'eth0' not accepted"),
    ("TargetOutcome", "min_rtt_ms", 10**400, "min_rtt_ms: an integer of 401 digits is too large for a number"),
    ("TargetOutcome", "rirs", ["ARIN", "XX"], "rirs: 'XX' is not a Rir"),
    ("ConsistencyRecord", "targets", [{"target": "192.0.2.1", "responded": True, "rirs": ["XX"]}],
     "targets: rirs: 'XX' is not a Rir"),
    ("ConsistencyRecord", "targets", [{"target": "192.0.2.1", "responded": True}, 5], "targets: 5 is not an object"),
    ("VantagePoint", "lat", 90.5, "lat: 90.5 is not in [-90, 90]"),
    ("VantagePoint", "lon", -180.25, "lon: -180.25 is not in [-180, 180]"),
    ("VantagePoint", "lat", 10**400, "lat: an integer of 401 digits is too large for a number"),
    ("VantagePoint", "id", "\ud800", "id '\\ud800' is not valid UTF-8"),
]


@pytest.mark.parametrize("name, key, value, text", REFUSED_VALUES)
def test_a_refused_value_of_the_right_json_type_keeps_its_text(name, key, value, text):
    kind, make = RECORDS[name]
    rng = random.Random(45)
    rows = [json.loads(make(rng).to_line()), {**json.loads(make(rng).to_line()), key: value}]
    with pytest.raises(GeoAuditError) as refused:
        load_jsonl(kind.from_json, jsonl(rows))
    assert str(refused.value) == f"line 2: {text}"


@pytest.mark.parametrize("name", RECORDS)
def test_a_line_that_is_not_an_object_keeps_its_text(name):
    kind = RECORDS[name][0]
    for line, text in (("5", "5"), ("[]", "[]"), ("null", "None"), ('"x"', "'x'"), ("true", "True")):
        with pytest.raises(GeoAuditError) as refused:
            load_jsonl(kind.from_json, io.StringIO(f"{line}\n"))
        assert str(refused.value) == f"line 1: {text} is not an object"
    # an empty object lacks the first field, and no first field has a default
    with pytest.raises(GeoAuditError) as refused:
        load_jsonl(kind.from_json, io.StringIO("{}\n"))
    assert str(refused.value) == f"line 1: no '{kind._fields[0]}'"


def test_a_refused_nested_value_names_its_path():
    row = json.loads(random_record(random.Random(44)).to_line())
    row["targets"] = [{"target": "192.0.2.1", "responded": "false"}]
    with pytest.raises(GeoAuditError, match="^line 1: targets: responded: 'false' is not a boolean$"):
        load_jsonl(ConsistencyRecord.from_json, jsonl([row]))
    for line in ("5", "[]", "null"):
        with pytest.raises(GeoAuditError, match="^line 1: .* is not an object$"):
            load_jsonl(ConsistencyRecord.from_json, io.StringIO(line))
