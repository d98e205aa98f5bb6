import ipaddress
import random

from geoaudit.index import PrefixIndex
from geoaudit.registry import parse_address, parse_prefix


def ours(value):
    """An ipaddress network or address, read through parse_prefix or
    parse_address: ipaddress is the oracle, the index takes geoaudit's types."""
    if isinstance(value, (ipaddress.IPv4Network, ipaddress.IPv6Network)):
        return parse_prefix(str(value))
    return parse_address(str(value))


def linear_longest_match(prefixes, addr):
    """Reference: scan every prefix, keep the most specific containing one."""
    best = None
    for p in prefixes:
        if addr in p and (best is None or p.prefixlen > best.prefixlen):
            best = p
    return best


def random_v4_prefixes(rng, n):
    out = set()
    while len(out) < n:
        plen = rng.randint(8, 30)
        net = rng.randrange(0, 2**32) & ~((1 << (32 - plen)) - 1)
        out.add(ipaddress.ip_network((net, plen)))
    return sorted(out, key=lambda p: (int(p.network_address), p.prefixlen))


def random_v6_prefixes(rng, n):
    out = set()
    while len(out) < n:
        plen = rng.randint(16, 64)
        net = rng.randrange(0, 2**128) & ~((1 << (128 - plen)) - 1)
        out.add(ipaddress.ip_network((net, plen)))
    return sorted(out, key=lambda p: (int(p.network_address), p.prefixlen))


def index_of(texts):
    return PrefixIndex((parse_prefix(text), text) for text in texts)


def test_longest_match_basic():
    index = index_of(["10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "192.0.2.0/24"])
    assert len(index) == 4
    hit = index.longest_match(parse_address("10.1.2.3"))
    assert hit is not None and str(hit[0]) == "10.1.2.0/24"
    hit = index.longest_match(parse_address("10.1.9.9"))
    assert hit is not None and str(hit[0]) == "10.1.0.0/16"
    hit = index.longest_match(parse_address("10.200.0.1"))
    assert hit is not None and str(hit[0]) == "10.0.0.0/8"
    assert index.longest_match(parse_address("11.0.0.1")) is None


def test_repeated_key_keeps_last_value():
    p = parse_prefix("10.0.0.0/8")
    index = PrefixIndex([(p, "first"), (parse_prefix("10.0.0.0/16"), "other"), (p, "second")])
    assert len(index) == 2
    assert index.exact(p) == "second"
    assert index.longest_match(parse_address("10.200.0.1")) == (p, "second")
    assert index.covering(parse_prefix("10.0.0.0/16")) == [(p, "second")]
    assert index.contained(p)[0] == (p, "second")


def test_exact_does_not_fall_back():
    index = PrefixIndex([(parse_prefix("10.0.0.0/8"), "a")])
    assert index.exact(parse_prefix("10.0.0.0/8")) == "a"
    assert index.exact(parse_prefix("10.0.0.0/16")) is None
    assert index.exact(parse_prefix("11.0.0.0/8")) is None


def test_mixed_families_stay_apart():
    # the v4 and v6 networks share the integer 0x0a000000, so only the
    # family keeps 10.0.0.0/8 and ::a00:0/104 apart
    v4 = parse_prefix("10.0.0.0/8")
    v6 = parse_prefix("::a00:0/104")
    index = PrefixIndex([(v4, 4), (v6, 6), (parse_prefix("2001:db8::/32"), "doc")])
    assert len(index) == 3
    assert index.longest_match(parse_address("10.1.2.3")) == (v4, 4)
    assert index.longest_match(parse_address("::a01:203")) == (v6, 6)
    assert index.longest_match(parse_address("2001:db8::1"))[1] == "doc"
    assert index.longest_match(parse_address("11.0.0.1")) is None
    assert index.exact(v4) == 4 and index.exact(v6) == 6
    assert index.covering(parse_prefix("10.1.0.0/16")) == [(v4, 4)]
    assert index.covering(parse_prefix("::a01:0/112")) == [(v6, 6)]
    assert index.contained(parse_prefix("0.0.0.0/0")) == [(v4, 4)]
    assert [v for _, v in index.contained(parse_prefix("::/0"))] == [6, "doc"]


def test_overlaps_exact_covering_or_contained():
    index = index_of(["10.1.0.0/16", "2001:db8::/32"])
    assert index.overlaps(parse_prefix("10.1.0.0/16"))  # exact
    assert index.overlaps(parse_prefix("10.1.2.0/24"))  # inside an entry
    assert index.overlaps(parse_prefix("10.0.0.0/8"))  # holds an entry
    assert index.overlaps(parse_prefix("2001:db8:1::/48"))
    assert not index.overlaps(parse_prefix("10.0.0.0/16"))
    assert not index.overlaps(parse_prefix("10.2.0.0/16"))
    assert not index.overlaps(parse_prefix("11.0.0.0/8"))
    assert not index.overlaps(parse_prefix("2001:db9::/32"))


def test_longest_match_matches_linear_scan_v4():
    rng = random.Random(2003)
    prefixes = random_v4_prefixes(rng, 500)
    index = PrefixIndex((ours(p), i) for i, p in enumerate(prefixes))
    for _ in range(2000):
        if rng.random() < 0.5:
            base = rng.choice(prefixes)
            addr = ipaddress.ip_address(
                int(base.network_address) + rng.randrange(0, base.num_addresses))
        else:
            addr = ipaddress.ip_address(rng.randrange(0, 2**32))
        want = linear_longest_match(prefixes, addr)
        got = index.longest_match(ours(addr))
        if want is None:
            assert got is None
        else:
            assert got is not None and got[0] == ours(want)
            assert got[1] == prefixes.index(want)


def test_longest_match_matches_linear_scan_v6():
    rng = random.Random(2011)
    prefixes = random_v6_prefixes(rng, 300)
    index = PrefixIndex((ours(p), i) for i, p in enumerate(prefixes))
    for _ in range(1000):
        if rng.random() < 0.6:
            base = rng.choice(prefixes)
            off = rng.randrange(0, min(base.num_addresses, 2**64))
            addr = ipaddress.ip_address(int(base.network_address) + off)
        else:
            addr = ipaddress.ip_address(rng.randrange(0, 2**128))
        want = linear_longest_match(prefixes, addr)
        got = index.longest_match(ours(addr))
        assert (got is None) == (want is None)
        if want is not None:
            assert got[0] == ours(want)


def test_covering_returns_general_to_specific():
    index = index_of(["10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "10.2.0.0/16"])
    got = index.covering(parse_prefix("10.1.2.0/25"))
    assert [str(p) for p, _ in got] == ["10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24"]
    # strictness: the query prefix itself is not covering
    got = index.covering(parse_prefix("10.1.2.0/24"))
    assert [str(p) for p, _ in got] == ["10.0.0.0/8", "10.1.0.0/16"]
    assert index.covering(parse_prefix("172.16.0.0/12")) == []


def test_covering_matches_linear_scan():
    rng = random.Random(2017)
    prefixes = random_v4_prefixes(rng, 300)
    index = PrefixIndex((ours(p), str(p)) for p in prefixes)
    for _ in range(500):
        q = rng.choice(prefixes)
        want = sorted(
            (p for p in prefixes if p.prefixlen < q.prefixlen and q.subnet_of(p)),
            key=lambda p: p.prefixlen)
        got = [p for p, _ in index.covering(ours(q))]
        assert got == [ours(p) for p in want]


def test_contained_in_address_order():
    index = index_of(["10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "10.128.0.0/9", "11.0.0.0/8"])
    got = index.contained(parse_prefix("10.0.0.0/8"))
    assert [str(p) for p, _ in got] == [
        "10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "10.128.0.0/9",
    ]
    got = index.contained(parse_prefix("0.0.0.0/0"))
    assert len(got) == 5


def test_contained_matches_linear_scan():
    rng = random.Random(2027)
    prefixes = random_v4_prefixes(rng, 300)
    index = PrefixIndex((ours(p), str(p)) for p in prefixes)
    queries = [rng.choice(prefixes) for _ in range(200)]
    queries += [ipaddress.ip_network((rng.randrange(0, 2**32) & ~0xFFFF, 16)) for _ in range(100)]
    for q in queries:
        want = sorted(
            (p for p in prefixes if p.prefixlen >= q.prefixlen and p.subnet_of(q)),
            key=lambda p: (int(p.network_address), p.prefixlen))
        got = [p for p, _ in index.contained(ours(q))]
        assert got == [ours(p) for p in want]


def test_contained_whole_space_is_independent_of_build_order():
    rng = random.Random(2029)
    prefixes = random_v4_prefixes(rng, 200)
    index = PrefixIndex((ours(p), None) for p in rng.sample(prefixes, len(prefixes)))
    got = [p for p, _ in index.contained(parse_prefix("0.0.0.0/0"))]
    assert got == [ours(p) for p in prefixes]


def random_mixed_prefix(rng, near):
    """A v4 or v6 prefix of any length: half of the time at either end of its
    family or anywhere, otherwise somewhere inside or around a prefix of near."""
    if rng.random() < 0.5:
        bits = rng.choice([32, 128])
        value = rng.choice([0, (1 << bits) - 1, rng.getrandbits(bits)])
    else:
        base = rng.choice(near)
        bits = base.max_prefixlen
        value = int(base.network_address) + rng.randrange(base.num_addresses)
    plen = rng.randint(0, bits)
    kind = ipaddress.IPv4Network if bits == 32 else ipaddress.IPv6Network
    return kind((value >> (bits - plen) << (bits - plen), plen))


def test_both_families_in_one_index_match_linear_scan():
    """One index holds both families, sorted v4 before v6: every query keeps
    to its own family, up to the top v4 address and from the bottom v6 one."""
    rng = random.Random(2039)
    edges = [ipaddress.ip_network(t) for t in ("0.0.0.0/0", "::/0", "255.255.255.255/32", "::/128")]
    for size in (60, 120, 240):
        prefixes = list(edges)
        while len(prefixes) < size:
            p = random_mixed_prefix(rng, prefixes)
            if p not in prefixes:
                prefixes.append(p)
        index = PrefixIndex((ours(p), str(p)) for p in rng.sample(prefixes, len(prefixes)))
        assert len(index) == len(prefixes)
        queries = [ipaddress.ip_network(t) for t in ("0.0.0.0/0", "::/0", "255.255.255.0/24")]
        queries += [rng.choice(prefixes) if rng.random() < 0.3 else random_mixed_prefix(rng, prefixes)
                    for _ in range(300)]
        for q in queries:
            family = [p for p in prefixes if p.version == q.version]
            contained = sorted((p for p in family if p.subnet_of(q)),
                               key=lambda p: (int(p.network_address), p.prefixlen))
            covering = sorted((p for p in family if p.prefixlen < q.prefixlen and q.subnet_of(p)),
                              key=lambda p: p.prefixlen)
            assert index.contained(ours(q)) == [(ours(p), str(p)) for p in contained], q
            assert index.covering(ours(q)) == [(ours(p), str(p)) for p in covering], q
            assert index.overlaps(ours(q)) == bool(contained or covering), q
            addr = type(q.network_address)(int(q.network_address) + rng.randrange(q.num_addresses))
            want = linear_longest_match(family, addr)
            assert index.longest_match(ours(addr)) == (None if want is None else (ours(want), str(want)))
