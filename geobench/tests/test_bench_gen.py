import os

import gen

DATA = os.path.join(os.path.dirname(gen.__file__), os.pardir, "src", "geoaudit", "data")


def _build(seed):
    return gen.build_campaign(seed, DATA, n_bulk=40, n_audit=len(gen.AUDIT_KINDS))


def test_same_seed_gives_same_bytes():
    a, b = _build(3), _build(3)
    assert a.files == b.files
    assert a.expected == b.expected


def test_different_seeds_give_different_bytes():
    a, b = _build(3), _build(4)
    assert a.files.keys() == b.files.keys()
    assert any(a.files[name] != b.files[name] for name in a.files)
    assert a.files["arin.db.gz"] != b.files["arin.db.gz"]
    assert a.files["world.json"] != b.files["world.json"]


def test_every_audit_kind_is_planted():
    expected = _build(5).expected
    outcomes = {plan["expect"] for plan in expected["plans"].values()}
    assert {f"filter:{r}" for r in set(gen.FILTER_OF_KIND.values())} <= outcomes
    assert {f"class:{c}" for c in gen.CLASS_KINDS} <= outcomes
    assert "classified" in outcomes
    counts = expected["ingest"]
    for key in ("dups", "skipped", "malformed", "split", "transfers"):
        assert all(c[key] > 0 for c in counts.values()), key
    assert counts["RIPE"]["circular"] == counts["APNIC"]["circular"] == 1
    assert all(counts[r]["orgs"] > 0 for r in gen.ORG_DIALECTS)
