import io
import random
import re

import pytest

from geoaudit.bgp import Alignment, align, alignment_table, load_rib
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


def test_load_rib_counts_and_moas_merge(rib):
    assert rib.default_routes_dropped == 2
    assert rib.route_count == 6
    assert rib.routes.exact(parse_prefix("10.0.0.0/8")) == frozenset({64500, 64501})


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
    assert rib.routes.exact(parse_prefix("10.0.0.0/8")) == frozenset({0, 2**32 - 1})
    assert rib.routes.exact(parse_prefix("10.1.0.0/16")) == frozenset({7})
    assert rib.routes.exact(parse_prefix("10.2.0.0/16")) == frozenset({2**32 - 1})


def test_load_rib_accepts_as_prefixed_origins():
    rib = load_rib(io.StringIO("192.0.2.0/24 AS65010\n"))
    assert rib.routes.exact(parse_prefix("192.0.2.0/24")) == frozenset({65010})


def test_align_exact_route(rib):
    res = align(parse_prefix("192.0.2.0/24"), rib)
    assert res.alignment is Alignment.ALIGNED
    assert res.origins == frozenset({65010})
    assert not res.moas


def test_align_exact_moas_flag(rib):
    res = align(parse_prefix("10.0.0.0/8"), rib)
    assert res.alignment is Alignment.ALIGNED
    assert res.moas
    assert res.origins == frozenset({64500, 64501})


def test_align_subnet_of_covering_route(rib):
    res = align(parse_prefix("192.0.2.128/25"), rib)
    assert res.alignment is Alignment.SUBNET
    assert str(res.covering_route) == "192.0.2.0/24"
    assert res.origins == frozenset({65010})


def test_align_subnet_uses_most_specific_covering(rib):
    # 10.1.2.0/24 sits under 10/8; add a /16 so two routes cover it
    rib2 = load_rib(io.StringIO("10.0.0.0/8 64500\n10.1.0.0/16 64777\n"))
    res = align(parse_prefix("10.1.2.0/24"), rib2)
    assert res.alignment is Alignment.SUBNET
    assert str(res.covering_route) == "10.1.0.0/16"
    assert res.origins == frozenset({64777})


def test_align_exact_beats_covering(rib):
    # 203.0.112.0/23 has an exact route even though nothing else covers it
    res = align(parse_prefix("203.0.112.0/23"), rib)
    assert res.alignment is Alignment.ALIGNED


def test_align_supernet_same_origin_pieces():
    # ten more-specific routes, one origin: piecewise advertisement
    lines = [f"20.0.{16 + i}.0/24 65099" for i in range(10)]
    rib = load_rib(io.StringIO("\n".join(lines) + "\n"))
    res = align(parse_prefix("20.0.16.0/20"), rib)
    assert res.alignment is Alignment.SUPERNET
    assert res.origins == frozenset({65099})
    assert res.contained_routes == 10


def test_align_supernet_overlapping_origin_sets():
    # pieces differ but share one origin: still a coherent supernet
    rib = load_rib(io.StringIO(
        "20.0.16.0/24 65099\n20.0.16.0/24 65100\n20.0.17.0/24 65099\n"))
    res = align(parse_prefix("20.0.16.0/23"), rib)
    assert res.alignment is Alignment.SUPERNET
    assert res.origins == frozenset({65099})


def test_align_mixed_as_disjoint_origins(rib):
    res = align(parse_prefix("198.51.100.0/24"), rib)
    assert res.alignment is Alignment.MIXED_AS
    assert res.origins == frozenset({65020, 65021})
    assert res.contained_routes == 2


def test_align_unadvertised(rib):
    res = align(parse_prefix("172.16.0.0/12"), rib)
    assert res.alignment is Alignment.UNADVERTISED
    assert res.origins == frozenset()


def test_align_v6(rib):
    assert align(parse_prefix("2001:db8::/32"), rib).alignment is Alignment.ALIGNED
    assert align(parse_prefix("2001:db8:1::/48"), rib).alignment is Alignment.SUBNET
    assert align(parse_prefix("2001:db9::/32"), rib).alignment is Alignment.UNADVERTISED


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
