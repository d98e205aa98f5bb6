import io
import ipaddress
import random
import re

import pytest

from geoaudit.bgp import Alignment, AlignmentResult, align, alignment_table, load_rib
from geoaudit.errors import GeoAuditError
from geoaudit.registry import Registration, Rir, parse_prefix

RIB_TEXT = """\
# synthetic table
0.0.0.0/0 64496
::/0 64496
10.0.0.0/8 64500
10.0.0.0/8 64501       # second origin for the same route
192.0.2.0/24 65010
198.51.100.0/25 65020
198.51.100.128/25 65021
203.0.112.0/23 65030 # covers the /24 below
2001:db8::/32 65040
"""


@pytest.fixture
def rib():
    return load_rib(io.StringIO(RIB_TEXT))


# route characters, separators and look-alikes: an Arabic-Indic digit, a NUL
ROUTE_CHARS = "0123456789abcdefASx.:/- #_+\t\u0663\x00"


def junk_route_line(rng):
    """A RIB line as a table might garble it: a known route with a few
    characters replaced, inserted or dropped, or a run of route characters."""
    if rng.random() < 0.2:
        return "".join(rng.choice(ROUTE_CHARS) for _ in range(rng.randint(0, 30)))
    chars = list(rng.choice(RIB_TEXT.splitlines()[1:]))
    for _ in range(rng.randint(0, 3)):
        at = rng.randrange(len(chars) + 1)
        edit = rng.randrange(3)
        if edit == 0:
            chars.insert(at, rng.choice(ROUTE_CHARS))
        elif at < len(chars):
            chars[at:at + 1] = [rng.choice(ROUTE_CHARS)] if edit == 1 else []
    return "".join(chars)


def test_every_junk_rib_line_loads_or_names_its_line():
    rng = random.Random(31)
    outcomes = set()
    for _ in range(20000):
        line = junk_route_line(rng)
        try:
            load_rib(io.StringIO(f"10.0.0.0/8 64500\n{line}\n"))
            outcomes.add("loaded")
        except GeoAuditError as exc:
            assert str(exc).startswith("line 2: "), line
            outcomes.add("refused")
    assert outcomes == {"loaded", "refused"}


def routed(rib, text):
    """The (prefix, origins) route stored for exactly this prefix, or None."""
    prefix = parse_prefix(text)
    hit = rib.routes.longest_match(prefix)
    return hit if hit is not None and hit[0] == prefix else None


def test_load_rib_counts_and_moas_merge(rib):
    assert rib.default_routes_dropped == 2
    assert rib.route_count == 6
    assert routed(rib, "10.0.0.0/8") == (parse_prefix("10.0.0.0/8"), frozenset({64500, 64501}))


def test_load_rib_rejects_malformed_lines():
    with pytest.raises(GeoAuditError, match="^line 2: expected '<prefix> <origin_asn>', got "):
        load_rib(io.StringIO("10.0.0.0/8 64500\n192.0.2.0/24\n"))
    with pytest.raises(GeoAuditError, match=r"^line 1: bad prefix '10\.0\.0\.1/8': "):
        load_rib(io.StringIO("10.0.0.1/8 64500\n"))
    # an origin is AS, in any case, or nothing, then ASCII digits up to 2**32 - 1;
    # int() took a sign, underscores and non-ASCII digits, and any size
    for origin in ["banana", "AS-5", "1_000", "AS\u0663", "+7", "99999999999", "4294967296", "AS", "-0"]:
        with pytest.raises(GeoAuditError, match=f"^line 2: bad origin ASN {re.escape(repr(origin))}: "):
            load_rib(io.StringIO(f"192.0.2.0/24 64500\n10.0.0.0/8 {origin}\n"))


def test_load_rib_reads_every_origin_spelling():
    rib = load_rib(io.StringIO("10.0.0.0/8 0\n10.0.0.0/8 as4294967295\n10.1.0.0/16 As007\n"
                               "10.2.0.0/16 aS0004294967295\n"))
    assert routed(rib, "10.0.0.0/8")[1] == frozenset({0, 2**32 - 1})
    assert routed(rib, "10.1.0.0/16")[1] == frozenset({7})
    assert routed(rib, "10.2.0.0/16")[1] == frozenset({2**32 - 1})


def test_load_rib_accepts_as_prefixed_origins():
    rib = load_rib(io.StringIO("192.0.2.0/24 AS65010\n"))
    assert routed(rib, "192.0.2.0/24")[1] == frozenset({65010})


def test_align_exact_route(rib):
    assert align(parse_prefix("192.0.2.0/24"), rib) == AlignmentResult(Alignment.ALIGNED, moas=False)


def test_align_exact_moas_flag(rib):
    assert align(parse_prefix("10.0.0.0/8"), rib) == AlignmentResult(Alignment.ALIGNED, moas=True)


def test_align_subnet_of_covering_route(rib):
    assert align(parse_prefix("192.0.2.128/25"), rib) == AlignmentResult(Alignment.SUBNET, moas=False)
    # a route with two origins makes the subnets it covers MOAS too
    assert align(parse_prefix("10.1.2.0/24"), rib) == AlignmentResult(Alignment.SUBNET, moas=True)


def test_align_subnet_uses_most_specific_covering():
    # 10.1.2.0/24 sits under a MOAS 10/8 and a single-origin /16: the /16 decides
    rib = load_rib(io.StringIO("10.0.0.0/8 64500\n10.0.0.0/8 64501\n10.1.0.0/16 64777\n"))
    assert align(parse_prefix("10.1.2.0/24"), rib) == AlignmentResult(Alignment.SUBNET, moas=False)
    assert align(parse_prefix("10.2.2.0/24"), rib) == AlignmentResult(Alignment.SUBNET, moas=True)


def test_align_exact_beats_covering(rib):
    # 203.0.112.0/23 has an exact route even though nothing else covers it
    res = align(parse_prefix("203.0.112.0/23"), rib)
    assert res.alignment is Alignment.ALIGNED
    # the /16 is routed itself, under a MOAS /8 and over two /24s
    rib = load_rib(io.StringIO("10.0.0.0/8 1\n10.0.0.0/8 2\n10.1.0.0/16 3\n"
                               "10.1.1.0/24 4\n10.1.2.0/24 5\n"))
    assert align(parse_prefix("10.1.0.0/16"), rib) == AlignmentResult(Alignment.ALIGNED, moas=False)


def test_align_supernet_same_origin_pieces():
    # ten more-specific routes, one origin: piecewise advertisement
    lines = [f"20.0.{16 + i}.0/24 65099" for i in range(10)]
    rib = load_rib(io.StringIO("\n".join(lines) + "\n"))
    assert align(parse_prefix("20.0.16.0/20"), rib) == AlignmentResult(Alignment.SUPERNET)


def test_align_supernet_overlapping_origin_sets():
    # pieces differ but share one origin: still a coherent supernet, and
    # MOAS pieces do not make the block MOAS
    rib = load_rib(io.StringIO(
        "20.0.16.0/24 65099\n20.0.16.0/24 65100\n20.0.17.0/24 65099\n"))
    assert align(parse_prefix("20.0.16.0/23"), rib) == AlignmentResult(Alignment.SUPERNET)


def test_align_mixed_as_disjoint_origins(rib):
    assert align(parse_prefix("198.51.100.0/24"), rib) == AlignmentResult(Alignment.MIXED_AS)


def test_align_unadvertised(rib):
    assert align(parse_prefix("172.16.0.0/12"), rib) == AlignmentResult(Alignment.UNADVERTISED)


def test_align_v6(rib):
    assert align(parse_prefix("2001:db8::/32"), rib).alignment is Alignment.ALIGNED
    assert align(parse_prefix("2001:db8:1::/48"), rib).alignment is Alignment.SUBNET
    assert align(parse_prefix("2001:db9::/32"), rib).alignment is Alignment.UNADVERTISED


# per family: the block every random route and query falls in, and how many
# lengths below it they reach
CROWDS = {4: (ipaddress.ip_network("10.0.0.0/8"), 16), 6: (ipaddress.ip_network("2001:db8::/32"), 32)}


def random_block(rng, plen, inside):
    """The block of length plen holding a random address of inside: a piece
    of inside when plen is longer, its cover when shorter."""
    bits = inside.max_prefixlen
    value = int(inside.network_address) + rng.randrange(inside.num_addresses)
    return ipaddress.ip_network((value >> (bits - plen) << (bits - plen), plen))


def random_routes(rng, family, count):
    """(network, origin) lines crowded into one block: an earlier route
    again, with any origin (MOAS), a block in or around an earlier route,
    or a fresh block. Four origins, so pieces share one about as often as
    not."""
    root, span = CROWDS[family]
    routes = []
    for _ in range(count):
        pick = rng.random()
        if routes and pick < 0.2:
            net = rng.choice(routes)[0]
        else:
            inside = rng.choice(routes)[0] if routes and pick < 0.6 else root
            net = random_block(rng, rng.randint(root.prefixlen + 2, root.prefixlen + span), inside)
        routes.append((net, rng.randint(1, 4)))
    return routes


def linear_align(query, origins):
    """Reference: scan every route, origins a network -> set of origins."""
    holding = [net for net in origins if net.version == query.version and query.subnet_of(net)]
    if holding:
        best = max(holding, key=lambda net: net.prefixlen)
        return AlignmentResult(Alignment.ALIGNED if best == query else Alignment.SUBNET,
                               len(origins[best]) > 1)
    pieces = [asns for net, asns in origins.items()
              if net.version == query.version and net.subnet_of(query)]
    if not pieces:
        return AlignmentResult(Alignment.UNADVERTISED)
    return AlignmentResult(Alignment.SUPERNET if set.intersection(*pieces) else Alignment.MIXED_AS)


def test_align_matches_a_linear_scan():
    """Random v4 and v6 RIBs in one table, with MOAS, nested and piecewise
    routes: align agrees with the scan on each route, on pieces and covers of
    one, and on blocks anywhere in the crowded space."""
    rng = random.Random(41)
    seen = set()
    for size in (20, 80, 200):
        routes = random_routes(rng, 4, size) + random_routes(rng, 6, size)
        origins = {}
        for net, asn in routes:
            origins.setdefault(net, set()).add(asn)
        rib = load_rib(io.StringIO("".join(f"{net} {asn}\n" for net, asn in routes)))
        assert rib.route_count == len(origins)
        for _ in range(300):
            net = rng.choice(routes)[0]
            root, span = CROWDS[net.version]
            pick = rng.random()
            if pick < 0.3:
                query = net
            elif pick < 0.6:  # a piece of the route
                query = random_block(rng, rng.randint(net.prefixlen + 1, net.max_prefixlen), net)
            elif pick < 0.85:  # a cover of the route
                query = random_block(rng, rng.randint(net.prefixlen - 6, net.prefixlen - 1), net)
            else:
                query = random_block(rng, rng.randint(root.prefixlen, root.prefixlen + span), root)
            got = align(parse_prefix(str(query)), rib)
            assert got == linear_align(query, origins), query
            seen.add(got)
    assert {res.alignment for res in seen} == set(Alignment)
    assert {res.moas for res in seen if res.alignment in (Alignment.ALIGNED, Alignment.SUBNET)} == {False, True}


def test_alignment_table_rows_sum_to_one(rib):
    def reg(prefix, rir):
        return Registration(prefix=parse_prefix(prefix), rir=rir)

    regs = [
        reg("192.0.2.0/24", Rir.ARIN),      # aligned
        reg("192.0.2.0/25", Rir.ARIN),      # subnet
        reg("198.51.100.0/24", Rir.ARIN),   # mixed
        reg("172.16.0.0/12", Rir.ARIN),     # unadvertised
        reg("2001:db8::/32", Rir.RIPE),     # aligned, v6
        reg("203.0.112.0/22", Rir.APNIC),   # supernet over the /23
    ]
    v4 = alignment_table(regs, rib, family=4)
    assert v4[Rir.ARIN][Alignment.ALIGNED] == 0.25
    assert v4[Rir.ARIN][Alignment.SUBNET] == 0.25
    assert v4[Rir.ARIN][Alignment.MIXED_AS] == 0.25
    assert v4[Rir.ARIN][Alignment.UNADVERTISED] == 0.25
    assert v4[Rir.APNIC][Alignment.SUPERNET] == 1.0
    assert Rir.RIPE not in v4  # its one prefix is IPv6
    v6 = alignment_table(regs, rib, family=6)
    assert list(v6) == [Rir.RIPE] and v6[Rir.RIPE][Alignment.ALIGNED] == 1.0
    for row in [*v4.values(), *v6.values()]:
        assert abs(sum(row.values()) - 1.0) < 1e-9
