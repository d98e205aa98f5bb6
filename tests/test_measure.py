import collections
import contextlib
import functools
import hashlib
import http.client
import io
import ipaddress
import json
import math
import random
import re
import select
import socket
import time
import weakref

import pytest

from geoaudit import measure
from geoaudit.errors import BackendUnavailable, GeoAuditError, UnknownTarget
from geoaudit.geo import C_KM_PER_S, EARTH_RADIUS_KM
from geoaudit.measure import (
    MAX_RETRIES,
    POLL_ATTEMPTS,
    POLL_INTERVAL_S,
    RETRY_BASE_DELAY_S,
    SAMPLES_PER_PAIR,
    Backend,
    LiveBackend,
    MeasurementResult,
    NeverConnected,
    ReplayBackend,
    SimulateBackend,
    SyntheticWorld,
    Transport,
    load_results,
    write_results,
)
from geoaudit.registry import (Prefix, _number, _object, field, load_jsonl, parse_address,
                               parse_prefix)
from geoaudit.vantage import VantagePoint, prefix_rotation, sha256

from conftest import (FAULTS, FaultySession, LoopbackApi, WorldSession, fields, haversine_km,
                      measure_plan, seeded_pending, stub_answer)


def vp(vid, lat=0.0, lon=0.0, country="US"):
    return VantagePoint(id=vid, kind="probe", country=country, lat=lat, lon=lon)


def replies_to(backend, vantage, target):
    """The replies to one target from one vantage, through measure_targets."""
    [replies] = backend.measure_targets([(target, [vantage])])
    return replies


def world_with(targets, **kw):
    return SyntheticWorld(target_locations={parse_address(a): loc for a, loc in targets.items()}, **kw)


def test_base_rtt_inverts_the_radius_formula():
    # a target 999.3081933 km away must read ~10 ms at 2/3 c
    lat = math.degrees(999.3081933 / EARTH_RADIUS_KM)
    world = world_with({"192.0.2.1": (lat, 0.0)})
    rtt = world.rtts_by_vantage(parse_address("192.0.2.1"), [vp("v-1", 0.0, 0.0)])["v-1"][0]  # no noise
    assert rtt == pytest.approx(10.0, abs=1e-6)


def test_base_rtt_quarter_meridian():
    # pole to equator along one meridian: pi/2 * R, checked without haversine,
    # and rounded up to whole microseconds
    world = world_with({"192.0.2.1": (90.0, 0.0)}, propagation_factor=1.0)
    rtt = world.rtts_by_vantage(parse_address("192.0.2.1"), [vp("v-1", 0.0, 0.0)])["v-1"][0]  # no noise
    dist = math.pi / 2 * EARTH_RADIUS_KM
    want = 2.0 * dist / 299.792458
    assert rtt == math.ceil(want * 1000) / 1000 == 66.764


def test_zero_noise_gives_identical_samples():
    world = world_with({"192.0.2.1": (10.0, 10.0)})
    rtts = world.rtts_by_vantage(parse_address("192.0.2.1"), [vp("v-1")])["v-1"]
    assert len(rtts) == SAMPLES_PER_PAIR
    assert len(set(rtts)) == 1


def test_noise_is_additive_and_bounded():
    target = parse_address("192.0.2.1")
    quiet = world_with({"192.0.2.1": (10.0, 10.0)})
    noisy = world_with({"192.0.2.1": (10.0, 10.0)}, noise_ms=5.0, seed=3)
    base = quiet.rtts_by_vantage(target, [vp("v-1")])["v-1"][0]
    samples = noisy.rtts_by_vantage(target, [vp("v-1")])["v-1"]
    assert len(samples) == SAMPLES_PER_PAIR
    for s in samples:
        assert base <= s <= base + 5.0
    assert len(set(samples)) > 1


def test_noise_is_deterministic_per_seed_and_pair():
    target = parse_address("192.0.2.1")
    mk = lambda seed: world_with({"192.0.2.1": (10.0, 10.0)}, noise_ms=5.0, seed=seed)
    rtts = lambda seed, vid: mk(seed).rtts_by_vantage(target, [vp(vid)])[vid]
    assert rtts(3, "v-1") == rtts(3, "v-1")
    assert rtts(3, "v-1") != rtts(4, "v-1")
    assert rtts(3, "v-1") != rtts(3, "v-2")


def test_unresponsive_and_unknown_targets():
    world = world_with({"192.0.2.1": (0.0, 0.0)})
    world.unresponsive.add(parse_address("192.0.2.9"))
    assert world.rtts_by_vantage(parse_address("192.0.2.9"), [vp("v-1")]) == {}
    with pytest.raises(UnknownTarget):
        world.rtts_by_vantage(parse_address("198.51.100.1"), [vp("v-1")])


def test_world_from_json():
    obj = {"noise_ms": 2, "targets": {"192.0.2.1": [1.5, -2.5]}, "unresponsive": ["192.0.2.9"]}
    world = SyntheticWorld.from_json(obj, seed=9)
    assert world.target_locations == {parse_address("192.0.2.1"): (1.5, -2.5)}
    assert world.unresponsive == {parse_address("192.0.2.9")}
    assert world.noise_ms == 2.0
    assert world.propagation_factor == pytest.approx(2 / 3)  # the default when absent
    assert world.seed == 9
    assert SyntheticWorld.from_json({"propagation_factor": 1, "noise_ms": 0}).noise_ms == 0.0

    # a factor outside (0, 1] or noise that is negative or not finite is refused
    for field, value in [("propagation_factor", 0), ("propagation_factor", -0.5),
                         ("propagation_factor", 1.5), ("propagation_factor", math.nan),
                         ("noise_ms", -3), ("noise_ms", math.nan), ("noise_ms", math.inf)]:
        with pytest.raises(GeoAuditError, match=field):
            SyntheticWorld.from_json({**obj, field: value})


def oracle_from_json(obj, parse, name):
    """The capture's line decoder as it was before load_results read each
    line inline: the reference the one-loop reader must agree with."""
    _object(obj)
    try:
        rtts, vantage_id, target = obj["rtts_ms"], obj["vantage_id"], obj["target"]
    except KeyError as exc:
        raise GeoAuditError(f"no {exc}") from None
    if type(rtts) is not list:
        raise GeoAuditError(f"rtts_ms: {rtts!r} is not a list")
    if not {float}.issuperset(map(type, rtts)):
        try:
            rtts = [_number(x) for x in rtts]
        except GeoAuditError as exc:
            raise GeoAuditError(f"rtts_ms: {exc}") from None
    if type(vantage_id) is not str:
        raise GeoAuditError(f"vantage_id: {vantage_id!r} is not a string")
    if type(target) is not str:
        raise GeoAuditError(f"target: {target!r} is not a string")
    return MeasurementResult(name(vantage_id), field(obj, "target", parse), tuple(rtts))


def oracle_load_results(fp):
    parse, name = functools.cache(parse_address), functools.cache(str)
    return load_jsonl(lambda obj: oracle_from_json(obj, parse, name), fp)


def oracle_replies(text):
    """oracle_load_results' list indexed as load_results indexes it: replies
    by target, then vantage id, and a pair listed twice refused naming its
    line, unless the oracle refuses an earlier line."""
    lines = list(io.StringIO(text, newline=""))
    numbers = [n for n, line in enumerate(lines, 1) if line.strip()]  # json_lines' non-blank lines
    try:
        results, refusal = oracle_load_results(io.StringIO(text, newline="")), None
    except GeoAuditError as exc:
        bad = int(re.match(r"line (\d+): ", str(exc))[1])
        results, refusal = oracle_load_results(io.StringIO("".join(lines[:bad - 1]), newline="")), exc
    out = {}
    for n, res in zip(numbers, results):
        replies = out.setdefault(res.target, {})
        if res.vantage_id in replies:
            raise GeoAuditError(f"line {n}: {res.vantage_id} -> {res.target} is archived twice")
        replies[res.vantage_id] = res.rtts_ms
    if refusal is not None:
        raise refusal
    return out


def replies_of(results):
    """Results as load_results maps them: samples by target, then vantage id."""
    out = {}
    for res in results:
        out.setdefault(res.target, {})[res.vantage_id] = res.rtts_ms
    return out


def results_of(replies):
    """The results of a replies mapping, target by target in its order."""
    return [MeasurementResult(vantage_id, target, rtts)
            for target, by_vantage in replies.items() for vantage_id, rtts in by_vantage.items()]


def test_results_round_trip():
    # mixed families, each target measured from several vantages
    targets = ["192.0.2.1", "2001:db8::1", "198.51.100.7", "2001:db8:0:0:1::"]
    results = [MeasurementResult(f"v-{v}", parse_address(t), rtts)
               for t in targets
               for v, rtts in enumerate([(1.5, 2.0, 2.25), (), (0.1,)])]
    first = io.StringIO()
    assert write_results(results, first) == len(results)
    text = first.getvalue()
    # a line is its pair and its samples, nothing more
    assert text.splitlines()[:2] == ['{"rtts_ms": [1.5, 2.0, 2.25], "target": "192.0.2.1", "vantage_id": "v-0"}',
                                     '{"rtts_ms": [], "target": "192.0.2.1", "vantage_id": "v-1"}']
    loaded = load_results(io.StringIO(text))
    assert loaded == replies_of(results)
    assert loaded == oracle_replies(text)
    # the lines of one vantage share one id string
    by_id = {}
    for by_vantage in loaded.values():
        for vantage_id in by_vantage:
            assert by_id.setdefault(vantage_id, vantage_id) is vantage_id
    again = io.StringIO()
    write_results(results_of(loaded), again)
    assert again.getvalue() == text


def test_load_results_builds_the_replay_mapping_and_no_result(monkeypatch):
    """load_results returns replies by target, then vantage id, without a
    MeasurementResult, and ReplayBackend serves that mapping as given."""
    def no_result(*args):
        raise AssertionError("load_results built a MeasurementResult")

    monkeypatch.setattr(measure, "MeasurementResult", no_result)
    text = ('{"rtts_ms": [1.5], "target": "192.0.2.1", "timestamp": 0.0, "vantage_id": "v-1"}\n'
            '{"rtts_ms": [], "target": "192.0.2.1", "timestamp": 0.0, "vantage_id": "v-2"}\n'
            '{"rtts_ms": [2.0, 3], "target": "2001:db8::1", "timestamp": 0.0, "vantage_id": "v-1"}\n')
    loaded = load_results(io.StringIO(text))
    assert loaded == {parse_address("192.0.2.1"): {"v-1": (1.5,), "v-2": ()},
                      parse_address("2001:db8::1"): {"v-1": (2.0, 3.0)}}
    assert type(loaded) is dict and all(type(r) is dict for r in loaded.values())
    assert ReplayBackend(loaded)._index is loaded


VANTAGE_IDS = ["v-1", "v-2", 'q"uote', "back\\slash", "m\u00fcnchen", "\u6771\u4eac", "tab\tid"]
# finite floats at the edges of their spelling: target_results lets no other sample through
SPECIAL_SAMPLES = [0.0, -0.0, 1e-7, 1e16, 5e-324, 1.7976931348623157e308]


def random_addresses(rng, n4, n6):
    """n4 random IPv4 addresses, then n6 IPv6 ones, read through parse_address."""
    return [parse_address(str(ipaddress.IPv4Address(rng.getrandbits(32)))) for _ in range(n4)] + \
           [parse_address(str(ipaddress.IPv6Address(rng.getrandbits(128)))) for _ in range(n6)]


def random_results(rng, n):
    """Results with v4 and v6 targets, 0-3 samples, some of them special,
    and vantage ids that JSON must escape."""
    addrs = random_addresses(rng, 6, 6)
    out = []
    for _ in range(n):
        samples = tuple(rng.choice(SPECIAL_SAMPLES) if rng.random() < 0.1 else rng.uniform(0, 400)
                        for _ in range(rng.randint(0, 3)))
        # an equal target need not be the same object
        target = parse_address(str(rng.choice(addrs)))
        out.append(MeasurementResult(rng.choice(VANTAGE_IDS), target, samples))
    return out


def generic_line(res):
    """A result's capture line as the generic encoder writes it."""
    return json.dumps({"rtts_ms": list(res.rtts_ms), "target": str(res.target),
                       "vantage_id": res.vantage_id}, sort_keys=True) + "\n"


def spelled(replies):
    """A replies mapping as comparable values, NaN included."""
    return {target: {vantage_id: tuple(map(repr, rtts)) for vantage_id, rtts in by_vantage.items()}
            for target, by_vantage in replies.items()}


def test_results_codec_writes_the_generic_bytes(tmp_path):
    rng = random.Random(41)
    results = random_results(rng, 1500)
    # runs of one target object, as target_results lists them
    runs = sorted(random_results(rng, 500), key=lambda r: (r.target.version, int(r.target)))
    shared = {}
    results += [MeasurementResult(r.vantage_id, shared.setdefault(r.target, r.target), r.rtts_ms)
                for r in runs]
    # runs in which one target mixes results of 0, 1, 2 and 3 samples
    for target in random_addresses(rng, 20, 20):
        counts = rng.sample(range(SAMPLES_PER_PAIR + 1), SAMPLES_PER_PAIR + 1) * rng.randint(1, 2)
        results += [MeasurementResult(rng.choice(VANTAGE_IDS), target,
                                      tuple(rng.uniform(0, 400) for _ in range(count)))
                    for count in counts]
    out = io.StringIO()
    assert write_results(results, out) == len(results)
    text = out.getvalue()
    assert text == "".join(map(generic_line, results))
    # a real text file, opened as the CLI opens its outputs, gets the same bytes
    path = tmp_path / "capture.jsonl"
    with open(path, "w", encoding="utf-8", newline="") as fp:
        assert write_results(results, fp) == len(results)
    assert path.read_bytes() == text.encode("utf-8")
    # the results repeat pairs, which a capture refuses as the oracle does;
    # each line alone reads back as its result and writes the same bytes
    with pytest.raises(GeoAuditError) as got:
        load_results(io.StringIO(text))
    with pytest.raises(GeoAuditError, match="is archived twice$") as want:
        oracle_replies(text)
    assert str(got.value) == str(want.value)
    for line, res in zip(text.splitlines(keepends=True), results, strict=True):
        loaded = load_results(io.StringIO(line))
        assert loaded == replies_of([res])
        again = io.StringIO()
        write_results(results_of(loaded), again)
        assert again.getvalue() == line


CAPTURE_TARGETS = ["192.0.2.1", "198.51.100.250", "0.0.0.0", "2001:db8::1", "2001:DB8:0:0::1",
                   "::ffff:192.0.2.1", " 192.0.2.9 ", "fe80::1"]
CAPTURE_SAMPLES = ["12.5", "0.0", "7", "0", "1e3", "NaN", "Infinity", "-Infinity", "-1.5", "3.25e-2"]
JUNK_LINES = [
    "{", "[1", "x", "nul", '{"a": 1} {"b": 2}', "[" * 5000,  # not one JSON value
    "[]", "5", '"text"', "null", "true",  # not an object
    '{"target": "192.0.2.1", "vantage_id": "v-1"}',  # a key missing
    '{"rtts_ms": [], "vantage_id": "v-1"}',
    '{"rtts_ms": [], "target": "192.0.2.1"}',
    '{"rtts_ms": 5, "target": "192.0.2.1", "vantage_id": "v-1"}',  # rtts_ms not a list
    '{"rtts_ms": null, "target": "192.0.2.1", "vantage_id": "v-1"}',
    '{"rtts_ms": {}, "target": "192.0.2.1", "vantage_id": "v-1"}',
    '{"rtts_ms": [true], "target": "192.0.2.1", "vantage_id": "v-1"}',  # a sample not a number
    '{"rtts_ms": [1.0, "12"], "target": "192.0.2.1", "vantage_id": "v-1"}',
    '{"rtts_ms": [null], "target": "192.0.2.1", "vantage_id": "v-1"}',
    '{"rtts_ms": [[1]], "target": "192.0.2.1", "vantage_id": "v-1"}',
    '{"rtts_ms": [], "target": "192.0.2.1", "vantage_id": null}',  # an id not a string
    '{"rtts_ms": [], "target": "192.0.2.1", "vantage_id": 5}',
    '{"rtts_ms": [], "target": "192.0.2.1", "vantage_id": ["v-1"]}',
    '{"rtts_ms": [], "target": null, "vantage_id": "v-1"}',  # a target not a string
    '{"rtts_ms": [], "target": ["192.0.2.1"], "vantage_id": "v-1"}',
    '{"rtts_ms": [], "target": {"a": 1}, "vantage_id": "v-1"}',
    '{"rtts_ms": [], "target": "300.1.1.1", "vantage_id": "v-1"}',  # not an address
    '{"rtts_ms": [], "target": "192.0.2.0/24", "vantage_id": "v-1"}',
    '{"rtts_ms": [], "target": "", "vantage_id": "v-1"}',
    '{"rtts_ms": [1.0], "target": "192.0.2.1", "vantage_id": "v-1",',
]


def random_capture_line(rng):
    """One valid capture line: keys in any order, maybe an extra one, ids
    JSON must escape, v4 and v6 targets in several spellings, int samples
    and the NaN and Infinity tokens."""
    pairs = [("rtts_ms", "[" + ", ".join(rng.choice(CAPTURE_SAMPLES)
                                         for _ in range(rng.randint(0, 4))) + "]"),
             ("target", json.dumps(rng.choice(CAPTURE_TARGETS))),
             ("vantage_id", json.dumps(rng.choice(VANTAGE_IDS), ensure_ascii=rng.random() < 0.5))]
    if rng.random() < 0.3:
        pairs.append((rng.choice(["timestamp", "note", "rtts"]), rng.choice(["0.0", "null", '"x"', "[1]"])))
    rng.shuffle(pairs)
    return "{" + ", ".join(f'"{key}": {value}' for key, value in pairs) + "}"


def test_load_results_agrees_with_the_record_decoder():
    """Seeded captures, valid or with junk lines, read by load_results and
    by the per-line decoder it replaced: the same results, or the same
    refusal."""
    refused = 0
    for seed in range(400):
        rng = random.Random(seed)
        lines = [random_capture_line(rng) for _ in range(rng.randint(0, 12))]
        for _ in range(rng.choice([0, 0, 1, 2])):
            lines.insert(rng.randint(0, len(lines)), rng.choice(JUNK_LINES))
        for _ in range(rng.randint(0, 2)):
            lines.insert(rng.randint(0, len(lines)), rng.choice(["", "   ", "\t", "\x0b"]))
        text = "".join(line + rng.choice(["\n", "\r\n"]) for line in lines)
        try:
            want = oracle_replies(text)
        except GeoAuditError as exc:
            refused += 1
            with pytest.raises(GeoAuditError) as got:
                load_results(io.StringIO(text, newline=""))
            assert str(got.value) == str(exc), text
        else:
            assert spelled(load_results(io.StringIO(text, newline=""))) == spelled(want), text
    assert 50 < refused < 350  # both kinds of capture were read


def test_load_results_reads_only_json_numbers():
    good = '{"rtts_ms": [5, 2.5], "target": "192.0.2.1", "vantage_id": "v-1"}\n'
    [[rtts]] = [by_vantage.values() for by_vantage in load_results(io.StringIO(good)).values()]
    assert [type(x) for x in rtts] == [float, float]
    assert rtts == (5.0, 2.5)
    for bad in ("[true]", '["12"]', "[null]", "[[1]]", "5", '"5"', "{}", "null"):
        # the line repeats the pair: its samples are refused before the repeat is
        with pytest.raises(GeoAuditError, match="^line 2: rtts_ms: "):
            load_results(io.StringIO(good + good.replace("[5, 2.5]", bad)))


def test_load_results_names_the_key_of_a_bad_target():
    """A capture's target is refused as an audit record's is: with its key."""
    good = '{"rtts_ms": [5.0], "target": "192.0.2.1", "vantage_id": "v-1"}\n'
    with pytest.raises(GeoAuditError, match="^line 2: target: bad address 'x': "):
        load_results(io.StringIO(good + good.replace("192.0.2.1", "x")))


def test_replay_backend():
    backend = ReplayBackend({parse_address("192.0.2.1"): {"v-1": (7.0, 8.0)}})
    assert replies_to(backend, vp("v-1"), parse_address("192.0.2.1")) == {"v-1": (7.0, 8.0)}
    assert backend.misses == 0
    assert replies_to(backend, vp("v-2"), parse_address("192.0.2.1")) == {}  # a gap: no reply
    assert backend.misses == 1
    replies = backend.measure_targets([
        (parse_address("192.0.2.1"), [vp("v-1"), vp("v-2"), vp("v-3")]),
        (parse_address("192.0.2.2"), [vp("v-1")]),
    ])
    assert next(replies) == {"v-1": (7.0, 8.0)}
    assert backend.misses == 3
    assert next(replies) == {}
    assert backend.misses == 4


class Capture(dict):
    """A capture mapping a weak reference can watch."""


class World(SyntheticWorld):
    """A world a weak reference can watch."""


def test_close_releases_the_capture_and_the_world():
    """close lets go of what a replay or a simulator measures from, so the
    audit's classification reuses its memory; tally reads as before, and
    measuring after close is a bug that raises, not a run of replay misses
    or unknown targets."""
    target = parse_address("192.0.2.1")
    jobs = [(target, [vp("v-1"), vp("v-2")])]
    located = parse_address("192.0.2.9")
    replay = ReplayBackend(Capture({target: {"v-1": (7.0, 8.0)}}))
    simulate = SimulateBackend(World(target_locations={located: (1.0, 2.0)}))
    held = [weakref.ref(replay._index), weakref.ref(simulate.world)]
    # the world to free holds per-vantage state
    assert set(next(simulate.measure_targets([(located, [vp("v-1"), vp("v-2")])]))) == {"v-1", "v-2"}
    assert set(simulate.world._vantages) == {vp("v-1"), vp("v-2")}
    for backend in (replay, simulate):
        assert list(backend.measure_targets(jobs)) == [{"v-1": (7.0, 8.0)} if backend is replay else {}]
        tally = backend.tally()
        backend.close()
        assert backend.tally() == tally
        with pytest.raises(RuntimeError, match="measured after close"):
            next(backend.measure_targets(jobs))
        assert backend.tally() == tally
    assert [ref() for ref in held] == [None, None]
    assert (replay.tally(), simulate.tally()) == ("replay misses: 1 pairs", "unknown targets: 1")


def test_the_builtin_digests_are_hashlibs():
    """prefix_rotation's SHA-256 and the simulator's BLAKE2b-192 come from
    CPython's builtin modules, not OpenSSL's; on 2,000 seeded prefixes and
    pair texts, with non-ASCII vantage ids among them, they give hashlib's
    digests, so every rotation and sample keeps its bits."""
    rng = random.Random(29)
    for addr in random_addresses(rng, 1000, 1000):
        host = addr.max_prefixlen - rng.randint(0, addr.max_prefixlen)
        prefix = Prefix((addr.version, int(addr) >> host << host, addr.max_prefixlen - host))
        text = str(prefix).encode("ascii")
        assert sha256(text).digest() == hashlib.sha256(text).digest()
        assert prefix_rotation(prefix) == int.from_bytes(hashlib.sha256(text).digest()[:8], "big")
        pair = f"{rng.getrandbits(rng.choice([8, 64, 200]))}:{rng.choice(VANTAGE_IDS)}:{addr}".encode()
        assert (measure.blake2b(pair, digest_size=24).digest()
                == hashlib.blake2b(pair, digest_size=24).digest())
    assert measure._NOISE_WORDS.size == 24


def test_capture_round_trip_replays_every_written_pair():
    """Seeded plans over v4 and v6 targets, each written pair with 0-3
    samples and some pairs left out: write_results, load_results and
    ReplayBackend serve every written pair's samples and count every other
    planned pair as a miss. An address spelled in upper-case hex on some
    lines is one target; its pair on a further line, in either spelling,
    is refused naming the later line."""
    respelled = refused = 0
    for seed in range(250):
        rng = random.Random(seed)
        addrs = random_addresses(rng, 3, 3)
        vantages = [vp(vid) for vid in rng.sample(VANTAGE_IDS, rng.randint(1, len(VANTAGE_IDS)))]
        plans = [(rng.sample(addrs, rng.randint(1, 3)),
                  rng.sample(vantages, rng.randint(0, min(4, len(vantages)))))
                 for _ in range(rng.randint(1, 5))]
        planned = sorted({(target, v.id) for targets, plan_vantages in plans
                          for target in targets for v in plan_vantages})
        written = {pair: tuple(rng.uniform(0, 400) for _ in range(rng.randint(0, 3)))
                   for pair in planned if rng.random() < 0.8}
        capture = io.StringIO()
        write_results([MeasurementResult(vid, target, rtts) for (target, vid), rtts in written.items()],
                      capture)
        lines = capture.getvalue().splitlines(keepends=True)
        for i, ((target, _), line) in enumerate(zip(written, lines)):
            spelling = str(target).upper()
            if spelling != str(target) and rng.random() < 0.5:
                lines[i] = line.replace(f'"{target}"', f'"{spelling}"')
                respelled += 1

        replay = ReplayBackend(load_results(io.StringIO("".join(lines))))
        assert len(replay._index) == len({target for target, _ in written})
        jobs = [(target, plan_vantages) for targets, plan_vantages in plans for target in targets]
        for (target, plan_vantages), replies in zip(jobs, replay.measure_targets(jobs), strict=True):
            assert replies == {v.id: written[target, v.id] for v in plan_vantages
                               if (target, v.id) in written}
        assert replay.misses == sum((target, v.id) not in written for target, plan_vantages in jobs
                                    for v in plan_vantages)

        v6 = [i for i, (target, _) in enumerate(written) if target.version == 6]
        if v6:
            i = rng.choice(v6)
            target, vid = list(written)[i]
            again = lines[i].replace(f'"{target}"', f'"{str(target).upper()}"')
            j = rng.randint(0, len(lines))
            lines.insert(j, again)
            with pytest.raises(GeoAuditError) as got:
                ReplayBackend(load_results(io.StringIO("".join(lines))))
            assert str(got.value) == f"line {max(i + (j <= i), j) + 1}: {vid} -> {target} is archived twice"
            refused += 1
    assert respelled > 50 and refused > 100


def test_measure_plan_replay_miss_is_an_empty_result():
    backend = ReplayBackend({parse_address("192.0.2.1"): {"v-1": (7.0,)}})
    out = measure_plan(backend, [parse_address("192.0.2.1")], [vp("v-1"), vp("v-2")])
    assert len(out) == 2
    by_vantage = {r.vantage_id: r for r in out}
    assert by_vantage["v-1"].rtts_ms == (7.0,)
    assert by_vantage["v-2"].rtts_ms == ()

    # a backend that returns more samples is cut to SAMPLES_PER_PAIR
    five = ReplayBackend({parse_address("192.0.2.1"): {"v-1": (5.0, 4.0, 3.0, 2.0, 1.0)}})
    out = measure_plan(five, [parse_address("192.0.2.1")], [vp("v-1")])
    assert out[0].rtts_ms == (5.0, 4.0, 3.0)

    # vantages in any order: a miss still costs only its own pair
    out = measure_plan(backend, [parse_address("192.0.2.1")], [vp("v-2"), vp("v-1")])
    assert [r.rtts_ms for r in out] == [(7.0,), ()]


def test_measure_plan_measurement_order_and_bad_rtt():
    # targets as planned, each target's results by vantage id
    world = world_with({"192.0.2.1": (0.0, 0.0), "192.0.2.2": (0.0, 0.0)})
    out = measure_plan(SimulateBackend(world), [parse_address("192.0.2.2"), parse_address("192.0.2.1")],
                       [vp("v-b"), vp("v-a")])
    assert [(str(r.target), r.vantage_id) for r in out] == [
        ("192.0.2.2", "v-a"), ("192.0.2.2", "v-b"), ("192.0.2.1", "v-a"), ("192.0.2.1", "v-b")]

    class Hostile(Backend):
        def __init__(self, rtt):
            self.rtt = rtt

        def measure_targets(self, jobs):
            return ({v.id: [10.0, self.rtt] for v in vantages} for _, vantages in jobs)

    # an RTT that is negative or not finite fails the plan
    for rtt in (-1.0, math.nan, math.inf):
        with pytest.raises(GeoAuditError, match=f"^v-1 -> 192.0.2.1: {rtt} ms$"):
            measure_plan(Hostile(rtt), [parse_address("192.0.2.1")], [vp("v-1")])


class Numbered(Backend):
    """A backend whose replies differ from call to call; some vantages get
    no reply, and some more than SAMPLES_PER_PAIR samples."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def measure_targets(self, jobs):
        for _, vantages in jobs:
            yield {v.id: [self.rng.uniform(0, 100) for _ in range(self.rng.randint(1, 4))]
                   for v in vantages if self.rng.random() < 0.8}


def test_measure_plan_orders_like_a_stable_sort_of_its_pairs():
    """Targets as planned, each target's pairs stably sorted by vantage id:
    duplicate targets (two plans of a hand-written --plans file, or one
    plan listing an address twice) and unsorted or repeated vantage ids."""
    rng = random.Random(51)
    for case in range(300):
        addrs = random_addresses(rng, 3, 2)
        targets = [rng.choice(addrs) for _ in range(rng.randint(1, 6))]
        targets = [parse_address(str(t)) if rng.random() < 0.3 else t for t in targets]
        vantages = [vp(rng.choice(VANTAGE_IDS)) for _ in range(rng.randint(0, 6))]

        reference = Numbered(case)
        want = []
        for target in targets:
            replies = next(reference.measure_targets([(target, vantages)]))
            want += sorted(((v.id, target, tuple(replies.get(v.id, ())[:SAMPLES_PER_PAIR]))
                            for v in vantages), key=lambda r: r[0])

        got = fields(measure_plan(Numbered(case), targets, vantages))
        assert got == want
        assert [id(target) for _, target, _ in got] == [id(target) for _, target, _ in want]


class StubSession:
    def __init__(self, script):
        self.script = list(script)
        self.calls = []

    def request(self, method, path, body, headers):
        self.calls.append((method, path, None if body is None else json.loads(body), headers))
        action = self.script.pop(0)
        if isinstance(action, Exception):
            raise action
        return stub_answer(*action)


def make_backend(session):
    sleeps = []
    backend = LiveBackend("https://api.example.net/v1", "sekrit", tag="audit",
                          session=session, sleep=sleeps.append)
    return backend, sleeps


# what Transport raises when no connection could be opened: it timed out or was refused
CONNECT_TIMEOUT = NeverConnected("timed out")
REFUSED = NeverConnected("[Errno 111] Connection refused")


def test_live_backend_happy_path():
    session = StubSession([
        (200, {"id": "m-1"}),
        (200, {"status": "pending"}),
        (200, {"status": "done",
               "results": [{"probe_id": "p-1", "rtts_ms": [10.0, 11.5, 12.0]}]}),
    ])
    backend, sleeps = make_backend(session)
    replies = replies_to(backend, vp("p-1"), parse_address("192.0.2.1"))
    assert replies == {"p-1": [10.0, 11.5, 12.0]}

    method, path, payload, headers = session.calls[0]
    assert (method, path) == ("POST", "/measurements")
    assert payload == {"target": "192.0.2.1", "probe_ids": ["p-1"],
                       "packets": SAMPLES_PER_PAIR, "tag": "audit"}
    assert headers["Authorization"] == "Key sekrit"
    assert session.calls[1][0] == "GET"
    assert sleeps == [2.0]  # one pending poll


def test_live_backend_retries_with_backoff():
    session = StubSession([
        (503, {}),
        CONNECT_TIMEOUT,
        (200, {"id": "m-2"}),
        ConnectionError("reset"),
        (200, {"status": "done", "results": []}),
    ])
    backend, sleeps = make_backend(session)
    assert replies_to(backend, vp("p-9"), parse_address("192.0.2.1")) == {}
    assert sleeps == [2.0, 4.0, 2.0]
    assert [call[0] for call in session.calls] == ["POST"] * 3 + ["GET"] * 2
    assert (backend.posts, backend.polls, backend.retries, backend.rounds) == (3, 2, 3, 0)


# the API cannot have created a measurement: a POST is sent again
NEVER_CREATED = [(429, {}), (503, {}), CONNECT_TIMEOUT, REFUSED]
# the API may have created it: a POST fails at once, a GET is sent again
MAYBE_CREATED = [
    (500, {}), (502, {}), (504, {}),
    ConnectionError("reset"),
    TimeoutError("timed out"),  # a read timeout
    http.client.RemoteDisconnected("Remote end closed connection without response"),
    ConnectionResetError(104, "Connection reset by peer"),
    http.client.BadStatusLine("x"),
]


@pytest.mark.parametrize("failure", NEVER_CREATED, ids=repr)
def test_live_backend_retries_a_post_the_api_never_created(failure):
    session = StubSession([failure, (200, {"id": "m-3"})])
    backend, sleeps = make_backend(session)
    assert backend.create_measurement(parse_address("192.0.2.1"), ["p-1"]) == "m-3"
    assert sleeps == [2.0]
    assert len(session.calls) == 2


@pytest.mark.parametrize("failure", MAYBE_CREATED, ids=repr)
def test_live_backend_never_resends_a_post_the_api_may_have_created(failure):
    session = StubSession([failure, (200, {"id": "m-4"})])
    backend, sleeps = make_backend(session)
    with pytest.raises(BackendUnavailable):
        backend.create_measurement(parse_address("192.0.2.1"), ["p-1"])
    assert sleeps == []
    assert len(session.calls) == 1


@pytest.mark.parametrize("failure", NEVER_CREATED + MAYBE_CREATED, ids=repr)
def test_live_backend_retries_every_transient_get(failure):
    session = StubSession([(200, {"id": "m-5"}), failure, (200, {"status": "done", "results": []})])
    backend, sleeps = make_backend(session)
    assert replies_to(backend, vp("p-1"), parse_address("192.0.2.1")) == {}
    assert sleeps == [2.0]
    assert [call[0] for call in session.calls] == ["POST", "GET", "GET"]


@pytest.mark.parametrize("method", ["POST", "GET"])
def test_a_bug_in_the_session_is_not_a_failed_exchange(method):
    """Only NeverConnected, an OSError or an HTTPException is a failed
    exchange: a TypeError from the session is a bug, and leaves at once
    with its traceback, neither retried nor read as the API being down."""
    bug = TypeError("the session's own mistake")
    session = StubSession([bug] if method == "POST" else [(200, {"id": "m-7"}), bug])
    backend, sleeps = make_backend(session)
    with pytest.raises(TypeError, match="the session's own mistake"):
        replies_to(backend, vp("p-1"), parse_address("192.0.2.1"))
    assert sleeps == [] and backend.retries == 0
    assert [call[0] for call in session.calls].count(method) == 1


def test_live_backend_gives_up_after_retries():
    session = StubSession([(503, {})] * 4)
    backend, sleeps = make_backend(session)
    with pytest.raises(BackendUnavailable):
        backend.create_measurement(parse_address("192.0.2.1"), ["p-1"])
    assert sleeps == [2.0, 4.0, 8.0]
    assert len(session.calls) == 4


def test_live_backend_gives_up_on_a_measurement_that_never_finishes():
    session = StubSession([(200, {"id": "m-6"})] + [(200, {"status": "pending"})] * POLL_ATTEMPTS)
    backend, sleeps = make_backend(session)
    with pytest.raises(BackendUnavailable, match="m-6 never finished"):
        replies_to(backend, vp("p-1"), parse_address("192.0.2.1"))
    assert [call[0] for call in session.calls] == ["POST"] + ["GET"] * POLL_ATTEMPTS
    # no sleep after the last pending poll: the run fails at once
    assert sleeps == [POLL_INTERVAL_S] * (POLL_ATTEMPTS - 1)


def test_live_backend_hard_failure_does_not_retry():
    session = StubSession([(403, {})])
    backend, _ = make_backend(session)
    with pytest.raises(BackendUnavailable):
        backend.create_measurement(parse_address("192.0.2.1"), ["p-1"])
    assert len(session.calls) == 1


RESULTS = "GET /measurements/m-1/results answered a malformed body:"
MALFORMED = {
    "post-without-id": ([(200, {"ref": "m-1"})],
                        "POST /measurements answered a malformed body: no 'id'"),
    "not-json": ([(200, {"id": "m-1"}), (200, b"<html>busy</html>")],
                 f"{RESULTS} Expecting value: line 1 column 1 (char 0)"),
    "row-without-probe-id": ([(200, {"id": "m-1"}),
                              (200, {"status": "done", "results": [{"rtts_ms": [1.0]}]})],
                             f"{RESULTS} no 'probe_id'"),
    "rtt-not-a-number": ([(200, {"id": "m-1"}),
                          (200, {"status": "done",
                                 "results": [{"probe_id": "p-1", "rtts_ms": [1.0, "x"]}]})],
                         f"{RESULTS} rtts_ms: 'x' is not a number"),
    "rtt-true": ([(200, {"id": "m-1"}),
                  (200, {"status": "done", "results": [{"probe_id": "p-1", "rtts_ms": [True]}]})],
                 f"{RESULTS} rtts_ms: True is not a number"),
    "status-failed": ([(200, {"id": "m-1"}), (200, {"status": "failed"})],
                      f"{RESULTS} status 'failed'"),
    "probe-id-null": ([(200, {"id": "m-1"}),
                       (200, {"status": "done", "results": [{"probe_id": None, "rtts_ms": []}]})],
                      f"{RESULTS} probe_id: None is not a string"),
    "probe-id-number": ([(200, {"id": "m-1"}),
                         (200, {"status": "done", "results": [{"probe_id": 5, "rtts_ms": []}]})],
                        f"{RESULTS} probe_id: 5 is not a string"),
    "probe-not-asked-for": ([(200, {"id": "m-1"}),
                             (200, {"status": "done",
                                    "results": [{"probe_id": "p-2", "rtts_ms": [1.0]}]})],
                            f"{RESULTS} probe_id 'p-2' was not asked for"),
    "list-body": ([(200, {"id": "m-1"}), (200, [{"status": "done"}])],
                  f"{RESULTS} [{{'status': 'done'}}] is not an object"),
    "post-list-body": ([(200, ["m-1"])],
                       "POST /measurements answered a malformed body: ['m-1'] is not an object"),
    "post-id-null": ([(200, {"id": None})],
                     "POST /measurements answered a malformed body: id: None is not a string"),
    "post-id-number": ([(200, {"id": 7})],
                       "POST /measurements answered a malformed body: id: 7 is not a string"),
    "results-not-a-list": ([(200, {"id": "m-1"}), (200, {"status": "done", "results": {}})],
                           f"{RESULTS} results: {{}} is not a list"),
    "row-not-an-object": ([(200, {"id": "m-1"}), (200, {"status": "done", "results": ["p-1"]})],
                          f"{RESULTS} 'p-1' is not an object"),
    "rtts-not-a-list": ([(200, {"id": "m-1"}),
                         (200, {"status": "done", "results": [{"probe_id": "p-1", "rtts_ms": 1.0}]})],
                        f"{RESULTS} rtts_ms: 1.0 is not a list"),
    "rtts-null": ([(200, {"id": "m-1"}),
                   (200, {"status": "done", "results": [{"probe_id": "p-1", "rtts_ms": None}]})],
                  f"{RESULTS} rtts_ms: None is not a list"),
    "probe-twice": ([(200, {"id": "m-1"}),
                     (200, {"status": "done", "results": [{"probe_id": "p-1", "rtts_ms": [1.0]},
                                                          {"probe_id": "p-1", "rtts_ms": [2.0]}]})],
                    f"{RESULTS} probe_id 'p-1' answers twice"),
}


@pytest.mark.parametrize("script, message", MALFORMED.values(), ids=MALFORMED)
def test_live_backend_fails_on_a_malformed_answer(script, message):
    session = StubSession(script)
    backend, sleeps = make_backend(session)
    with pytest.raises(BackendUnavailable) as exc:
        replies_to(backend, vp("p-1"), parse_address("192.0.2.1"))
    assert str(exc.value) == message
    assert sleeps == [] and not session.script  # at the first answer, without a retry


def read_live_row(row):
    """The replies of a results answer whose one row is row, as the live
    client reads them; a malformed row raises GeoAuditError with the
    refusal the client reports."""
    session = StubSession([(200, {"id": "m-1"}), (200, {"status": "done", "results": [row]})])
    backend, _ = make_backend(session)
    try:
        return replies_to(backend, vp("p-1"), parse_address("192.0.2.1"))
    except BackendUnavailable as exc:
        raise GeoAuditError(str(exc).removeprefix(f"{RESULTS} ")) from None


# reader, a valid object, its required key (world.json has none), and a key
# with a value of the wrong JSON type and the type that key takes
READERS = {
    "record": (VantagePoint.from_json, {"id": "v-1", "country": "US", "lat": 1.0, "lon": 2.0},
               "lat", ("lon", "12", "a number")),
    "world.json": (SyntheticWorld.from_json, {"noise_ms": 1.0}, None, ("noise_ms", "12", "a number")),
    "live answer": (read_live_row, {"probe_id": "p-1", "rtts_ms": [1.0]}, "probe_id",
                    ("probe_id", 5, "a string")),
}


@pytest.mark.parametrize("read, valid, required, wrong", READERS.values(), ids=READERS)
def test_every_json_reader_refuses_in_one_format(read, valid, required, wrong):
    """A record, world.json and a live answer are read through one field
    reader, so the same fault is refused in the same words by each."""
    read(valid)
    key, value, kind = wrong
    with pytest.raises(GeoAuditError) as exc:
        read({**valid, key: value})
    assert str(exc.value) == f"{key}: {value!r} is not {kind}"
    with pytest.raises(GeoAuditError) as exc:
        read([valid])
    assert str(exc.value) == f"{[valid]!r} is not an object"
    if required is None:
        assert read({}).noise_ms == 0.0  # every world.json key has a default
    else:
        with pytest.raises(GeoAuditError) as exc:
            read({k: v for k, v in valid.items() if k != required})
        assert str(exc.value) == f"no {required!r}"


@pytest.mark.parametrize("bug", [KeyError, TypeError, ValueError])
def test_a_bug_in_reading_an_answer_is_not_a_broken_api(monkeypatch, bug):
    """Only GeoAuditError means the answer is malformed: anything else the
    reader raises is its own mistake and leaves with its traceback."""
    def broken(body, vantages):
        raise bug("the reader's own mistake")

    monkeypatch.setattr(measure, "_replies", broken)
    session = StubSession([(200, {"id": "m-1"}), (200, {"status": "done", "results": []})])
    backend, _ = make_backend(session)
    with pytest.raises(bug, match="the reader's own mistake"):
        replies_to(backend, vp("p-1"), parse_address("192.0.2.1"))


def test_live_backend_holds_one_session():
    backend = LiveBackend("https://api.example.net/v1", "sekrit")
    try:
        assert isinstance(backend.session, Transport)
    finally:
        backend.session.close()


# -- the transport against a real loopback server ---------------------------------

def loopback_world(n):
    """A world of n targets 192.0.2.1.. and the one vantage that measures them."""
    world = world_with({f"192.0.2.{i}": (0.0, float(i)) for i in range(1, n + 1)})
    return world, [(target, [vp("v-1")]) for target in sorted(world.target_locations)]


def test_transport_keeps_one_connection_for_a_whole_run():
    world, jobs = loopback_world(9)
    want = list(SimulateBackend(world).measure_targets(jobs))
    with LoopbackApi(WorldSession(world, [vp("v-1")], pending=seeded_pending(5))) as server:
        live = LiveBackend(server.base_url, "k", sleep=lambda s: None, in_flight=3)
        try:
            assert list(live.measure_targets(jobs)) == want
        finally:
            live.session.close()
    assert len(server.peers) == 1
    assert server.methods.count("POST") == live.posts == len(jobs)
    assert server.methods.count("GET") == live.polls > len(jobs)  # some were pending
    assert live.retries == 0


def test_a_closed_live_backend_refuses_to_measure():
    """As replay and simulate do, a live backend measuring after close
    raises, and its transport opens no second connection to do it."""
    world, jobs = loopback_world(3)
    with LoopbackApi(WorldSession(world, [vp("v-1")])) as server:
        live = LiveBackend(server.base_url, "k", sleep=lambda s: None)
        assert list(live.measure_targets(jobs[:1])) == list(SimulateBackend(world).measure_targets(jobs[:1]))
        tally = live.tally()
        live.close()
        assert live.tally() == tally
        with pytest.raises(RuntimeError, match="^LiveBackend measured after close"):
            next(live.measure_targets(jobs[1:]))
        assert live.tally() == tally
    assert len(server.peers) == 1
    assert server.methods == ["POST", "GET"]


@pytest.mark.parametrize("slash", ["", "/"])
def test_transport_sends_each_path_below_the_base_url(slash):
    world, jobs = loopback_world(1)
    (target, [vantage]), = jobs
    api = WorldSession(world, [vantage])
    with LoopbackApi(api) as server:
        live = LiveBackend(server.base_url + slash, "k", sleep=lambda s: None)
        try:
            assert replies_to(live, vantage, target) == world.rtts_by_vantage(target, [vantage])
        finally:
            live.close()
    assert api.calls == [("POST", "/v1/measurements"), ("GET", "/v1/measurements/m-1/results")]


def test_transport_reconnects_when_the_server_drops_an_idle_connection():
    world, jobs = loopback_world(3)
    with LoopbackApi(WorldSession(world, [vp("v-1")]), close_after={"GET"}) as server:
        live = LiveBackend(server.base_url, "k", sleep=lambda s: None)
        try:
            for target, vantages in jobs:
                assert replies_to(live, vantages[0], target) == world.rtts_by_vantage(target, vantages)
                # the server closed the connection after its answer; wait until the client's
                # end has seen it, so the next request meets a connection already dropped
                assert server.closed.acquire(timeout=5)
                assert select.select([live.session._conn.sock], [], [], 5)[0]
        finally:
            live.session.close()
    assert server.methods == ["POST", "GET"] * len(jobs)  # no POST was sent twice
    assert len(server.peers) == len(jobs)
    assert (live.posts, live.polls, live.retries) == (len(jobs), len(jobs), 0)


def test_transport_retries_a_post_whose_connection_was_refused():
    world, jobs = loopback_world(1)
    with socket.socket() as probe:  # a port nothing listens on
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    sleeps = []
    with contextlib.ExitStack() as stack:
        def sleep(seconds):  # the API comes up while the client backs off
            sleeps.append(seconds)
            stack.enter_context(LoopbackApi(WorldSession(world, [vp("v-1")]), port=port))

        live = LiveBackend(f"http://127.0.0.1:{port}/v1", "k", sleep=sleep)
        (target, [vantage]), = jobs
        try:
            assert replies_to(live, vantage, target) == world.rtts_by_vantage(target, [vantage])
        finally:
            live.session.close()
    assert sleeps == [2.0]
    assert (live.posts, live.polls, live.retries) == (2, 1, 1)


@pytest.mark.parametrize("method, sent, retries", [("POST", ["POST"], 0),
                                                   ("GET", ["POST", "GET", "GET"], 1)])
def test_transport_read_timeout_fails_a_post_and_retries_a_get(monkeypatch, method, sent, retries):
    monkeypatch.setattr(measure, "TIMEOUT_S", 0.2)
    world, jobs = loopback_world(1)
    (target, [vantage]), = jobs
    sleeps = []
    with LoopbackApi(WorldSession(world, [vp("v-1")]), hold={method: 1}) as server:
        live = LiveBackend(server.base_url, "k", sleep=sleeps.append)
        start = time.monotonic()
        try:
            if method == "POST":
                with pytest.raises(BackendUnavailable,
                                   match="may have created the measurement: timed out$"):
                    replies_to(live, vantage, target)
            else:
                assert replies_to(live, vantage, target) == world.rtts_by_vantage(target, [vantage])
        finally:
            live.session.close()
        assert time.monotonic() - start < 5  # the client gave up, not the server
    assert server.methods == sent
    assert (live.posts + live.polls, live.retries) == (len(sent), retries)
    assert sleeps == [2.0] * retries


def test_transport_refuses_a_base_url_that_is_not_http():
    for url in ("ftp://api.example.net/v1", "api.example.net/v1", "https:///v1"):
        with pytest.raises(GeoAuditError, match="is not an http:// or https:// URL"):
            LiveBackend(url, "k")
    # urlsplit's own refusals, as they read
    for url, message in [("http://h:x/v1", "^Port could not be cast to integer value as 'x'$"),
                         ("http://[::1/v1", "^Invalid IPv6 URL$")]:
        with pytest.raises(GeoAuditError, match=message):
            LiveBackend(url, "k")


@pytest.mark.parametrize("url, host, port", [
    ("http://[::1]/v1", "::1", 80),
    ("http://[::1]:8080/v1", "::1", 8080),
    ("https://api.example.net/v1", "api.example.net", 443),
    ("https://[2001:db8::1]/v1", "2001:db8::1", 443),
    ("http://api.example.net:8443/v1", "api.example.net", 8443),
])
def test_transport_connects_to_the_host_and_port_of_its_url(url, host, port):
    transport = Transport(url)
    try:
        assert (transport._conn.host, transport._conn.port) == (host, port)
    finally:
        transport.close()


@pytest.mark.parametrize("in_flight", [1, 2, 3, 8])
def test_live_window_keeps_job_order(in_flight):
    """Measurements pending 0-3 times finish out of job order; the replies
    still come in job order, equal to the simulator's."""
    world, vantages, plans = random_campaign(13, 4.0)
    jobs = [(target, plan_vantages) for targets, plan_vantages in plans for target in targets]
    want = list(SimulateBackend(world).measure_targets(jobs))

    session = WorldSession(world, vantages, pending=seeded_pending(13))
    sleeps = []
    live = LiveBackend("https://api.example.net/v1", "k", session=session, sleep=sleeps.append,
                       in_flight=in_flight)
    assert list(live.measure_targets(jobs)) == want
    # each target with a vantage is posted once, in job order
    assert [post["target"] for post in session.posts] == [str(t) for t, v in jobs if v]
    assert session.most_open == in_flight
    assert not session.open
    # the tallies agree with the API's own log
    methods = [method for method, _ in session.calls]
    assert (live.posts, live.polls) == (methods.count("POST"), methods.count("GET"))
    assert live.polls == sum(session.pending(f"m-{n}") + 1 for n in range(1, live.posts + 1))
    assert (live.retries, live.rounds) == (0, len(sleeps))
    assert set(sleeps) == {POLL_INTERVAL_S}


@pytest.mark.parametrize("n", [1, 2, 7])
def test_live_window_sleeps_once_per_round(n):
    targets = {f"192.0.2.{i}": (0.0, float(i)) for i in range(1, n + 1)}
    world = world_with(targets)
    jobs = [(parse_address(t), [vp("v-1")]) for t in targets]
    for in_flight, rounds in [(n, 1), (1, n)]:
        session = WorldSession(world, [vp("v-1")], pending=lambda mid: 1)
        sleeps = []
        live = LiveBackend("https://api.example.net/v1", "k", session=session,
                           sleep=sleeps.append, in_flight=in_flight)
        assert len(list(live.measure_targets(jobs))) == n
        assert sleeps == [POLL_INTERVAL_S] * rounds
        assert session.most_open == in_flight
        assert (live.posts, live.polls, live.rounds) == (n, 2 * n, rounds)


# -- seeded fault schedules ------------------------------------------------------

def faulty_case(seed):
    """A seeded world of 16 targets, two unresponsive and three it cannot
    place; 4-16 jobs of 0-4 of its 6 vantages; and a fault rate."""
    rng = random.Random(seed)
    vantages = [vp(f"v-{i}", rng.uniform(-80, 80), rng.uniform(-180, 180)) for i in range(6)]
    addrs = random_addresses(rng, 8, 8)
    world = SyntheticWorld(
        target_locations={a: (rng.uniform(-80, 80), rng.uniform(-180, 180)) for a in addrs[:13]},
        unresponsive=set(addrs[:2]), noise_ms=3.0, seed=seed)
    jobs = [(target, rng.sample(vantages, rng.randint(0, 4)))
            for target in rng.sample(addrs, rng.randint(4, 16))]
    return world, vantages, jobs, rng.choice([0.0, 0.02, 0.1])


def poll_rounds(log):
    """The number of poll rounds in a FaultySession's log of a completed run,
    checking every sleep on the way: after a faulted request, the backoff of
    its run of faults (2, 4, 8 s), then the same request again; otherwise
    POLL_INTERVAL_S, once, after a round in which a measurement was pending."""
    rounds = faults = 0
    pending = False
    for i, (method, path, got) in enumerate(log):
        if method == "sleep":
            if faults:
                assert got == RETRY_BASE_DELAY_S * 2 ** (faults - 1)
                assert log[i + 1][:2] == log[i - 1][:2]
            else:
                assert got == POLL_INTERVAL_S and pending
                rounds += 1
                pending = False
        else:
            assert not faults or log[i - 1][0] == "sleep"  # a retry waits out its backoff
            faults = faults + 1 if got in FAULTS else 0
            pending |= got == "pending"
    assert not faults and not pending
    return rounds


@pytest.mark.parametrize("in_flight", [1, 2, 8])
def test_live_window_under_seeded_faults(in_flight):
    """Seeded schedules fail 0%, 2% or 10% of requests, with every fault
    FAULTS names. A run either completes, with the simulator's replies,
    each planned target created once in job order, nothing left open and
    every counter and sleep accounted for by the log; or it raises
    BackendUnavailable at a fault it may not retry: a POST the API may
    have acted on, or a request's fourth fault in a row."""
    outcomes = collections.Counter()  # (rate, completed) -> runs
    for seed in range(400):
        world, vantages, jobs, rate = faulty_case(seed)
        api = WorldSession(world, vantages, pending=seeded_pending(seed))
        session = FaultySession(api, f"{seed}:{in_flight}", rate)
        live = LiveBackend("https://api.example.net/v1", "k", session=session, sleep=session.sleep,
                           in_flight=in_flight)
        try:
            replies = list(live.measure_targets(jobs))
        except BackendUnavailable:
            replies = None
        outcomes[rate, replies is not None] += 1
        requests = [entry for entry in session.log if entry[0] != "sleep"]
        if replies is None:
            method, _, got = requests[-1]
            streak = next((n for n, entry in enumerate(reversed(requests)) if entry[2] not in FAULTS),
                          len(requests))  # the faults that end the log
            assert (method == "POST" and got in ("lost_before", "lost_after", 500)
                    or streak == MAX_RETRIES + 1), (seed, requests[-streak:])
            continue
        assert replies == list(SimulateBackend(world).measure_targets(jobs)), seed
        assert [post["target"] for post in api.posts] == [str(t) for t, v in jobs if v]
        assert not api.open
        methods = [method for method, _, _ in requests]
        assert (live.posts, live.polls) == (methods.count("POST"), methods.count("GET"))
        assert live.retries == sum(got in FAULTS for _, _, got in requests)
        assert live.rounds == poll_rounds(session.log)
        assert len(session.log) - len(requests) == live.rounds + live.retries
    # with no fault every run completes; with faults, runs of both kinds
    assert not outcomes[0.0, False] and all(outcomes[rate, done] for rate in (0.02, 0.1)
                                            for done in (False, True))


# -- one call per target: every backend agrees with the others --------------------

def reference_base(world, vantage, target):
    """The great-circle RTT in ms, written out independently."""
    lat, lon = world.target_locations[target]
    dist = haversine_km(vantage.lat, vantage.lon, lat, lon)
    return 2.0 * dist / (world.propagation_factor * (C_KM_PER_S / 1000.0))


def reference_rtts(world, vantage, target):
    """The simulator's per-pair formula, written out independently: the base
    RTT rounded up to whole microseconds, 2000 * km / (km per ms); noise_ms
    rounded to whole microseconds, noise_us; the unkeyed BLAKE2b digest, 8
    bytes per sample, of "<seed>:<vantage id>:<target>" in UTF-8; each 8 bytes
    a little-endian integer w, and w * noise_us // 2**64 microseconds added to
    the base. Each sample is its microseconds over 1000."""
    if target not in world.target_locations:
        if target in world.unresponsive:
            return []
        raise UnknownTarget(str(target))
    if target in world.unresponsive:
        return []
    lat, lon = world.target_locations[target]
    dist = haversine_km(vantage.lat, vantage.lon, lat, lon)
    base_us = math.ceil(2000.0 * dist / (world.propagation_factor * (C_KM_PER_S / 1000.0)))
    noise_us = round(world.noise_ms * 1000)
    text = f"{world.seed}:{vantage.id}:{target}".encode("utf-8")
    digest = hashlib.blake2b(text, digest_size=8 * SAMPLES_PER_PAIR).digest()
    words = [int.from_bytes(digest[i:i + 8], "little") for i in range(0, len(digest), 8)]
    return [(base_us + word * noise_us // 2 ** 64) / 1000 for word in words]


def test_noise_bounds_and_independence_over_mixed_pairs():
    """Seeded v4 and v6 targets, each measured from its own point, from its
    antipode and from random points, with noise 0 and above, by seeds of any
    size. Each sample is the reference's: a whole number of microseconds, so
    its repr has at most three decimals, in [base, base + noise_ms + 0.001),
    base the exact great-circle RTT. Zero noise gives the base rounded up,
    thrice. A pair's samples do not depend on the call's other vantages or
    their order, nor on what the world measured before."""
    rng = random.Random(61)
    seen = set()
    for case in range(60):
        addrs = random_addresses(rng, 3, 3)
        locations = {a: (rng.uniform(-90, 90), rng.uniform(-180, 180)) for a in addrs}
        others = [vp(vid, rng.uniform(-90, 90), rng.uniform(-180, 180))
                  for vid in rng.sample(VANTAGE_IDS, rng.randint(0, len(VANTAGE_IDS)))]
        seed = rng.choice([0, rng.getrandbits(31), 10 ** 70 + rng.getrandbits(256)])
        noise_ms = rng.choice([0.0, rng.uniform(0.001, 50.0)])
        kw = dict(target_locations=locations, propagation_factor=rng.uniform(0.05, 1.0), seed=seed)
        quiet, noisy = SyntheticWorld(**kw), SyntheticWorld(noise_ms=noise_ms, **kw)
        for target, (lat, lon) in locations.items():
            vantages = [vp("here", lat, lon), vp("antipode", -lat, lon - math.copysign(180.0, lon)),
                        *others]
            assert quiet.rtts_by_vantage(target, vantages) == {
                v.id: [math.ceil(1000 * reference_base(quiet, v, target)) / 1000] * SAMPLES_PER_PAIR
                for v in vantages}
            whole = noisy.rtts_by_vantage(target, vantages)
            for v in vantages:
                base = reference_base(noisy, v, target)
                assert whole[v.id] == reference_rtts(noisy, v, target)
                for rtt in whole[v.id]:
                    assert base <= rtt < base + noise_ms + 0.001
                    assert rtt == round(rtt * 1000) / 1000
                    assert "e" not in repr(rtt) and len(repr(rtt).partition(".")[2]) <= 3
                kind = v.id if v.id in ("here", "antipode") else "other"
                seen.add((kind, seed > 10 ** 70, noise_ms > 0, target.version))
            shuffled = rng.sample(vantages, rng.randint(1, len(vantages)))
            assert noisy.rtts_by_vantage(target, shuffled) == {v.id: whole[v.id] for v in shuffled}
            for v in shuffled:  # alone, in a world that has measured nothing
                assert SyntheticWorld(noise_ms=noise_ms, **kw).rtts_by_vantage(target, [v]) == {
                    v.id: whole[v.id]}
    # every kind of pair, seed and family was drawn, with and without noise
    assert seen == {(kind, big, noisy, version) for kind in ("here", "antipode", "other")
                    for big in (False, True) for noisy in (False, True) for version in (4, 6)}


@pytest.mark.parametrize("noise_ms, added_us", [
    (0.0004, {0}), (0.0014, {0}), (0.0016, {0, 1}), (0.0024, {0, 1}), (0.0026, {0, 1, 2})])
def test_noise_counts_in_whole_microseconds_rounded_to_nearest(noise_ms, added_us):
    """noise_ms is rounded to whole microseconds, and a sample adds fewer
    than that many: below 1.5 µs a noise adds none, and from 2.5 µs up to
    3.5 µs it adds 0, 1 or 2 µs."""
    world = world_with({"192.0.2.1": (10.0, 10.0)}, noise_ms=noise_ms, seed=5)
    vantages = [vp(f"v-{i}", 10.0, 10.0) for i in range(60)]  # at the target: the base is 0
    replies = world.rtts_by_vantage(parse_address("192.0.2.1"), vantages)
    assert {rtt * 1000 for rtts in replies.values() for rtt in rtts} == added_us


def test_a_vantage_at_other_coordinates_never_reuses_the_state_of_its_id():
    """The world keeps per-vantage state keyed by the whole vantage: two
    vantages that share an id but sit apart each measure from their own
    coordinates, in either order and in one call. load_vantages refuses a
    repeated id, so only the API builds such a pair."""
    world = world_with({"192.0.2.1": (10.0, 20.0), "2001:db8::1": (-30.0, 100.0)},
                       noise_ms=5.0, seed=7)
    here, there = vp("v-1", 40.0, -100.0), vp("v-1", -33.9, 151.2)
    for target in world.target_locations:
        for order in ([here, there], [there, here]):
            for vantage in order:
                assert world.rtts_by_vantage(target, [vantage]) == {
                    "v-1": reference_rtts(world, vantage, target)}
        assert reference_rtts(world, here, target) != reference_rtts(world, there, target)
        # one id in one call: the mapping keeps the last vantage's replies
        assert world.rtts_by_vantage(target, [here, there]) == {
            "v-1": reference_rtts(world, there, target)}
    assert set(world._vantages) == {here, there}


def test_worlds_with_other_seeds_share_no_vantage_state():
    """Two worlds that differ in their seed alone measure one vantage each
    from its own state, seeded by its own world."""
    locations = {parse_address("192.0.2.1"): (10.0, 20.0)}
    vantage = vp("v-1", 40.0, -100.0)
    worlds = [SyntheticWorld(target_locations=locations, noise_ms=5.0, seed=seed) for seed in (1, 2)]
    replies = [world.rtts_by_vantage(parse_address("192.0.2.1"), [vantage]) for world in worlds]
    assert replies == [{"v-1": reference_rtts(world, vantage, parse_address("192.0.2.1"))}
                       for world in worlds]
    assert replies[0] != replies[1]
    (one,), (two,) = (world._vantages.values() for world in worlds)
    assert all(a is not b for a, b in zip(one, two))


def random_campaign(seed, noise_ms):
    """A world, 40 vantages and 200 plans of 1-3 targets and 0-20 vantages;
    targets are v4 and v6, some unresponsive and some unknown to the world."""
    rng = random.Random(seed)
    vantages = [vp(f"v-{i:02d}", rng.uniform(-80, 80), rng.uniform(-180, 180)) for i in range(40)]
    addrs = random_addresses(rng, 60, 60)
    located, dead, unknown = addrs[:80], addrs[80:100], addrs[100:]
    world = SyntheticWorld(
        target_locations={a: (rng.uniform(-80, 80), rng.uniform(-180, 180)) for a in located},
        unresponsive=set(located[:10]) | set(dead),
        noise_ms=noise_ms, seed=seed)
    plans = [(rng.sample(addrs, rng.randint(1, 3)), rng.sample(vantages, rng.randint(0, 20)))
             for _ in range(200)]
    assert {len(v) for _, v in plans} >= {0, 20}
    assert any(t in unknown for targets, _ in plans for t in targets)
    return world, vantages, plans


def outcome(call, *args):
    try:
        return list(call(*args))
    except UnknownTarget as exc:
        return type(exc)


@pytest.mark.parametrize("seed,noise_ms", [(11, 4.0), (12, 0.0)])
def test_every_backend_measures_a_plan_alike(seed, noise_ms):
    """Every backend measures a plan alike, as the audit measures it. The
    pair-by-pair shims the benchmark's replica and stub call (run_plan,
    Backend.measure and SyntheticWorld.rtts) agree with that on every
    backend; this is the one test that calls them."""
    world, vantages, plans = random_campaign(seed, noise_ms)
    simulate = SimulateBackend(world)
    expected = [fields(measure_plan(simulate, targets, plan_vantages))
                for targets, plan_vantages in plans]
    # each measurement of a target the world cannot place is counted
    assert simulate.unknown_targets == sum(
        t not in world.target_locations and t not in world.unresponsive
        for targets, _ in plans for t in targets)

    # every sample keeps the bits of the per-pair formula
    for (targets, plan_vantages), results in zip(plans, expected):
        by_pair = {(vantage_id, target): rtts for vantage_id, target, rtts in results}
        for target in targets:
            for v in plan_vantages:
                want = outcome(reference_rtts, world, v, target)
                assert by_pair[(v.id, target)] == (() if want is UnknownTarget else tuple(want))

    session = WorldSession(world, vantages)
    live = LiveBackend("https://api.example.net/v1", "k", session=session, sleep=lambda s: None)
    capture = io.StringIO()
    # a capture lists each pair once; plans that share a pair measured it alike
    archived = {}
    for vantage_id, target, rtts in (r for results in expected for r in results):
        assert archived.setdefault((vantage_id, target), rtts) == rtts
    write_results([MeasurementResult(vantage_id, target, rtts)
                   for (vantage_id, target), rtts in archived.items()], capture)
    replay = ReplayBackend(load_results(io.StringIO(capture.getvalue())))
    for backend in (live, replay):
        got = [fields(measure_plan(backend, targets, plan_vantages))
               for targets, plan_vantages in plans]
        assert got == expected
    assert replay.misses == 0

    # one POST and one GET per target measured from at least one vantage
    measured = sum(len(targets) for targets, plan_vantages in plans if plan_vantages)
    methods = [method for method, _ in session.calls]
    assert len(session.posts) == methods.count("GET") == measured
    assert all(post["probe_ids"] for post in session.posts)

    # the shims: run_plan measures pair by pair, as the benchmark's replica does
    prefix = parse_prefix("192.0.2.0/24")
    for backend in (simulate, live, replay):
        got = [fields(measure.run_plan(prefix, targets, plan_vantages, backend))
               for targets, plan_vantages in plans]
        assert got == expected
    # measure and rtts are one pair: a target the world cannot place gives no reply
    for targets, plan_vantages in plans[:50]:
        for target in targets:
            for v in plan_vantages[:2]:
                want = outcome(reference_rtts, world, v, target)
                assert outcome(world.rtts, v, target) == want
                for backend in (simulate, live, replay):
                    assert backend.measure(v, target) == ([] if want is UnknownTarget else want)
    assert replay.misses == 0
