import datetime
import io
import itertools
import random

import pytest

from geoaudit.errors import GeoAuditError
from geoaudit.registry import Registration, Rir, parse_address, parse_prefix
from geoaudit.targets import (
    HitlistEntry,
    build_target_plans,
    exclude_aliased,
    load_hitlist_v4,
    load_hitlist_v6,
    load_plans,
    load_prefix_list,
    registrations_by_prefix,
    sample_plans,
    write_plans,
)


def reg(prefix, rir=Rir.ARIN, **kw):
    return Registration(prefix=parse_prefix(prefix), rir=rir, **kw)


def entry(addr, score=None):
    return HitlistEntry(addr=parse_address(addr), score=score)


def test_load_hitlist_v4():
    fp = io.StringIO("addr,score\n192.0.2.1,100\n192.0.2.9,42\n")
    entries = load_hitlist_v4(fp)
    assert [(str(e.addr), e.score) for e in entries] == [("192.0.2.1", 100), ("192.0.2.9", 42)]
    with pytest.raises(GeoAuditError):
        load_hitlist_v4(io.StringIO("ip,quality\n192.0.2.1,100\n"))


def test_load_hitlist_v6_and_prefix_list():
    entries = load_hitlist_v6(io.StringIO("2001:db8::1\n# comment\n2001:db8::2 # tail\n\n"))
    assert [str(e.addr) for e in entries] == ["2001:db8::1", "2001:db8::2"]
    assert all(e.score is None for e in entries)

    prefixes = load_prefix_list(io.StringIO("10.0.0.0/8\n# note\n2001:db8::/32\n"))
    assert [str(p) for p in prefixes] == ["10.0.0.0/8", "2001:db8::/32"]


def test_exclude_aliased():
    entries = [entry("10.0.0.1"), entry("10.1.0.1"), entry("2001:db8::1"), entry("2001:db9::1")]
    aliased = [parse_prefix("10.0.0.0/16"), parse_prefix("2001:db8::/32")]
    kept, dropped = exclude_aliased(entries, aliased)
    assert dropped == 2
    assert [str(e.addr) for e in kept] == ["10.1.0.1", "2001:db9::1"]


def test_registrations_by_prefix_cross_registry_collision():
    a = reg("192.0.2.0/24", Rir.ARIN, last_updated=datetime.date(2020, 1, 1))
    b = reg("192.0.2.0/24", Rir.RIPE, last_updated=datetime.date(2021, 1, 1))
    winner = registrations_by_prefix([a, b])[parse_prefix("192.0.2.0/24")]
    assert winner.rir is Rir.RIPE
    assert "cross_rir_duplicate" in winner.flags

    # same date: the lexicographically larger registry name survives
    c = reg("198.51.100.0/24", Rir.ARIN, last_updated=datetime.date(2020, 1, 1))
    d = reg("198.51.100.0/24", Rir.APNIC, last_updated=datetime.date(2020, 1, 1))
    assert registrations_by_prefix([c, d])[parse_prefix("198.51.100.0/24")].rir is Rir.ARIN


def test_registrations_by_prefix_full_tie_is_order_free():
    # same prefix, registry and date: content decides, in every input order
    day = datetime.date(2020, 1, 1)
    rows = [
        reg("203.0.113.0/24", org_id="ORG-A", org_country="US", last_updated=day),
        reg("203.0.113.0/24", org_id="ORG-B", org_country="CA", last_updated=day),
        reg("203.0.113.0/24", org_id="ORG-B", org_country="DE", last_updated=day,
            flags=("mnt:X",)),
    ]
    winners = set()
    for order in itertools.permutations(rows):
        winners.add(registrations_by_prefix(order)[parse_prefix("203.0.113.0/24")])
    assert len(winners) == 1
    (winner,) = winners
    # ORG-B beats ORG-A; between the two ORG-B rows the sorted-key JSON
    # decides, and it starts with the flags: '[]' sorts after '["mnt:X"]'
    assert (winner.org_id, winner.org_country) == ("ORG-B", "CA")
    assert winner.flags == ("cross_rir_duplicate",)


def test_build_target_plans_longest_prefix_wins():
    regs = [reg("10.0.0.0/8"), reg("10.1.0.0/16", Rir.RIPE)]
    entries = [entry("10.1.2.3", 100), entry("10.2.0.1", 100)]
    plans = build_target_plans(regs, entries)
    assert len(plans) == 2
    by_prefix = {str(p.prefix): p for p in plans}
    assert [str(t) for t in by_prefix["10.1.0.0/16"].targets] == ["10.1.2.3"]
    assert by_prefix["10.1.0.0/16"].registration.rir is Rir.RIPE
    assert [str(t) for t in by_prefix["10.0.0.0/8"].targets] == ["10.2.0.1"]


def test_build_target_plans_caps_at_two_lowest_unique():
    regs = [reg("192.0.2.0/24")]
    entries = [
        entry("192.0.2.200", 100),
        entry("192.0.2.5", 100),
        entry("192.0.2.5", 100),
        entry("192.0.2.30", 100),
    ]
    plans = build_target_plans(regs, entries)
    assert [str(t) for t in plans[0].targets] == ["192.0.2.5", "192.0.2.30"]


def test_build_target_plans_min_score():
    regs = [reg("192.0.2.0/24"), reg("2001:db8::/32", Rir.RIPE)]
    entries = [
        entry("192.0.2.1", 50),
        entry("192.0.2.2", 99),
        entry("2001:db8::1", None),  # unscored v6 entries always pass
    ]
    plans = build_target_plans(regs, entries, min_score=99)
    by_prefix = {str(p.prefix): p for p in plans}
    assert [str(t) for t in by_prefix["192.0.2.0/24"].targets] == ["192.0.2.2"]
    assert [str(t) for t in by_prefix["2001:db8::/32"].targets] == ["2001:db8::1"]


def test_build_target_plans_skips_unmatched_addresses():
    plans = build_target_plans([reg("192.0.2.0/24")], [entry("198.51.100.1", 100)])
    assert plans == []


def test_plans_round_trip(tmp_path):
    regs = [reg("192.0.2.0/24", org_country="US", last_updated=datetime.date(2020, 5, 4))]
    plans = build_target_plans(regs, [entry("192.0.2.1", 100)])
    buf = io.StringIO()
    assert write_plans(plans, buf) == 1
    buf.seek(0)
    again = load_plans(buf)
    assert again == plans


def test_sample_plans_exact_count_and_determinism():
    regs = [reg(f"10.{i // 256}.{i % 256}.0/24") for i in range(1000)]
    entries = [entry(f"10.{i // 256}.{i % 256}.9", 100) for i in range(1000)]
    plans = build_target_plans(regs, entries)
    assert len(plans) == 1000

    picked = sample_plans(plans, 0.2, seed=11)
    assert len(picked) == 200
    assert picked == sample_plans(plans, 0.2, seed=11)
    # input order must not matter
    shuffled = list(plans)
    random.Random(3).shuffle(shuffled)
    assert sample_plans(shuffled, 0.2, seed=11) == picked
    # output is prefix-sorted
    keys = [(p.prefix.version, int(p.prefix.network_address)) for p in picked]
    assert keys == sorted(keys)

    assert sample_plans(plans, 1.0, seed=5) == plans
    assert sample_plans(plans, 0.0, seed=5) == []
    with pytest.raises(ValueError):
        sample_plans(plans, 1.5, seed=5)
