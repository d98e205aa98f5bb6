import io
import json
import math
import threading

import pytest

from geoaudit.errors import BackendUnavailable, NegativeRtt, ReplayMiss, UnknownTarget
from geoaudit.geo import EARTH_RADIUS_KM
from geoaudit.measure import (
    SAMPLES_PER_PAIR,
    LiveBackend,
    MeasurementResult,
    ReplayBackend,
    SimulateBackend,
    SyntheticWorld,
    load_results,
    run_plan,
    write_results,
)
from geoaudit.registry import parse_address, parse_prefix
from geoaudit.vantage import VantagePoint


def vp(vid, lat=0.0, lon=0.0, country="US"):
    return VantagePoint(id=vid, kind="probe", country=country, lat=lat, lon=lon)


def world_with(targets, **kw):
    return SyntheticWorld(target_locations={parse_address(a): loc for a, loc in targets.items()}, **kw)


def test_base_rtt_inverts_the_radius_formula():
    # a target 999.3081933 km away must read ~10 ms at 2/3 c
    lat = math.degrees(999.3081933 / EARTH_RADIUS_KM)
    world = world_with({"192.0.2.1": (lat, 0.0)})
    rtt = world.base_rtt_ms(vp("v-1", 0.0, 0.0), parse_address("192.0.2.1"))
    assert rtt == pytest.approx(10.0, abs=1e-6)


def test_base_rtt_quarter_meridian():
    # pole to equator along one meridian: pi/2 * R, checked without haversine
    world = world_with({"192.0.2.1": (90.0, 0.0)}, propagation_factor=1.0)
    rtt = world.base_rtt_ms(vp("v-1", 0.0, 0.0), parse_address("192.0.2.1"))
    dist = math.pi / 2 * EARTH_RADIUS_KM
    want = 2.0 * dist / 299.792458
    assert rtt == pytest.approx(want, rel=1e-9)


def test_zero_noise_gives_identical_samples():
    world = world_with({"192.0.2.1": (10.0, 10.0)})
    rtts = world.rtts(vp("v-1"), parse_address("192.0.2.1"))
    assert len(rtts) == SAMPLES_PER_PAIR
    assert len(set(rtts)) == 1


def test_noise_is_additive_and_bounded():
    target = parse_address("192.0.2.1")
    quiet = world_with({"192.0.2.1": (10.0, 10.0)})
    noisy = world_with({"192.0.2.1": (10.0, 10.0)}, noise_ms=5.0, seed=3)
    base = quiet.rtts(vp("v-1"), target)[0]
    samples = noisy.rtts(vp("v-1"), target)
    assert len(samples) == SAMPLES_PER_PAIR
    for s in samples:
        assert base <= s <= base + 5.0
    assert len(set(samples)) > 1


def test_noise_is_deterministic_per_seed_and_pair():
    target = parse_address("192.0.2.1")
    mk = lambda seed: world_with({"192.0.2.1": (10.0, 10.0)}, noise_ms=5.0, seed=seed)
    assert mk(3).rtts(vp("v-1"), target) == mk(3).rtts(vp("v-1"), target)
    assert mk(3).rtts(vp("v-1"), target) != mk(4).rtts(vp("v-1"), target)
    assert mk(3).rtts(vp("v-1"), target) != mk(3).rtts(vp("v-2"), target)


def test_unresponsive_and_unknown_targets():
    world = world_with({"192.0.2.1": (0.0, 0.0)})
    world.unresponsive.add(parse_address("192.0.2.9"))
    assert world.rtts(vp("v-1"), parse_address("192.0.2.9")) == []
    with pytest.raises(UnknownTarget):
        world.rtts(vp("v-1"), parse_address("198.51.100.1"))


def test_world_json_round_trip():
    world = world_with({"192.0.2.1": (1.5, -2.5)}, noise_ms=2.0)
    world.unresponsive.add(parse_address("192.0.2.9"))
    again = SyntheticWorld.from_json(world.to_json(), seed=9)
    assert again.target_locations == world.target_locations
    assert again.unresponsive == world.unresponsive
    assert again.noise_ms == 2.0
    assert again.seed == 9


def test_results_round_trip():
    # mixed families, each target measured from several vantages
    targets = ["192.0.2.1", "2001:db8::1", "198.51.100.7", "2001:db8:0:0:1::"]
    results = [MeasurementResult(f"v-{v}", parse_address(t), rtts, timestamp=float(v))
               for t in targets
               for v, rtts in enumerate([(1.5, 2.0, 2.25), (), (0.1,)])]
    first = io.StringIO()
    assert write_results(results, first) == len(results)
    text = first.getvalue()
    loaded = load_results(io.StringIO(text))
    assert loaded == results
    assert loaded == [MeasurementResult.from_json(json.loads(line)) for line in text.splitlines()]
    # a target read from several lines is one shared address object
    by_target = {}
    for res in loaded:
        assert by_target.setdefault(str(res.target), res.target) is res.target
    again = io.StringIO()
    write_results(loaded, again)
    assert again.getvalue() == text


def test_replay_backend():
    res = MeasurementResult("v-1", parse_address("192.0.2.1"), (7.0, 8.0))
    backend = ReplayBackend([res])
    assert backend.measure(vp("v-1"), parse_address("192.0.2.1")) == [7.0, 8.0]
    with pytest.raises(ReplayMiss):
        backend.measure(vp("v-2"), parse_address("192.0.2.1"))


def test_run_plan_replay_miss_is_an_empty_result():
    res = MeasurementResult("v-1", parse_address("192.0.2.1"), (7.0,))
    backend = ReplayBackend([res])
    out = run_plan(parse_prefix("192.0.2.0/24"), [parse_address("192.0.2.1")],
                   [vp("v-1"), vp("v-2")], backend)
    assert len(out) == 2
    by_vantage = {r.vantage_id: r for r in out}
    assert by_vantage["v-1"].rtts_ms == (7.0,)
    assert by_vantage["v-2"].rtts_ms == ()

    # a backend that returns more samples is cut to SAMPLES_PER_PAIR
    five = ReplayBackend([MeasurementResult("v-1", parse_address("192.0.2.1"),
                                            (5.0, 4.0, 3.0, 2.0, 1.0))])
    out = run_plan(parse_prefix("192.0.2.0/24"), [parse_address("192.0.2.1")],
                   [vp("v-1")], five)
    assert out[0].rtts_ms == (5.0, 4.0, 3.0)


def test_run_plan_sorted_output_and_negative_rtt():
    world = world_with({"192.0.2.1": (0.0, 0.0), "192.0.2.2": (0.0, 0.0)})
    out = run_plan(parse_prefix("192.0.2.0/24"),
                   [parse_address("192.0.2.2"), parse_address("192.0.2.1")],
                   [vp("v-b"), vp("v-a")], SimulateBackend(world))
    keys = [(r.target.version, int(r.target), r.vantage_id) for r in out]
    assert keys == sorted(keys)

    class Hostile:
        def measure(self, vantage, target):
            return [-1.0]

    with pytest.raises(NegativeRtt):
        run_plan(parse_prefix("192.0.2.0/24"), [parse_address("192.0.2.1")],
                 [vp("v-1")], Hostile())


class StubResponse:
    def __init__(self, status_code, body):
        self.status_code = status_code
        self._body = body

    def json(self):
        return self._body


class StubSession:
    def __init__(self, script):
        self.script = list(script)
        self.calls = []

    def request(self, method, url, json=None, headers=None):
        self.calls.append((method, url, json, headers))
        action = self.script.pop(0)
        if isinstance(action, Exception):
            raise action
        return StubResponse(*action)


def make_backend(session, **kw):
    sleeps = []
    backend = LiveBackend("https://api.example.net/v1", "sekrit", tag="audit",
                          session=session, sleep=sleeps.append, **kw)
    return backend, sleeps


def test_live_backend_happy_path():
    session = StubSession([
        (200, {"id": "m-1"}),
        (200, {"status": "pending"}),
        (200, {"status": "done",
               "results": [{"probe_id": "p-1", "rtts_ms": [10.0, 11.5, 12.0]}]}),
    ])
    backend, sleeps = make_backend(session)
    rtts = backend.measure(vp("p-1"), parse_address("192.0.2.1"))
    assert rtts == [10.0, 11.5, 12.0]

    method, url, payload, headers = session.calls[0]
    assert (method, url) == ("POST", "https://api.example.net/v1/measurements")
    assert payload == {"target": "192.0.2.1", "probe_ids": ["p-1"],
                       "packets": SAMPLES_PER_PAIR, "tag": "audit"}
    assert headers["Authorization"] == "Key sekrit"
    assert session.calls[1][0] == "GET"
    assert sleeps == [2.0]  # one pending poll


def test_live_backend_retries_with_backoff():
    session = StubSession([
        (503, {}),
        ConnectionError("reset"),
        (200, {"id": "m-2"}),
        (200, {"status": "done", "results": []}),
    ])
    backend, sleeps = make_backend(session)
    assert backend.measure(vp("p-9"), parse_address("192.0.2.1")) == []
    assert sleeps == [2.0, 4.0]


def test_live_backend_gives_up_after_retries():
    session = StubSession([(503, {})] * 4)
    backend, sleeps = make_backend(session, max_retries=3)
    with pytest.raises(BackendUnavailable):
        backend.create_measurement(parse_address("192.0.2.1"), ["p-1"])
    assert sleeps == [2.0, 4.0, 8.0]
    assert len(session.calls) == 4


def test_live_backend_backoff_is_capped():
    session = StubSession([(429, {})] * 4)
    backend, sleeps = make_backend(session, max_retries=3, base_delay_s=40.0)
    with pytest.raises(BackendUnavailable):
        backend.create_measurement(parse_address("192.0.2.1"), ["p-1"])
    assert sleeps == [40.0, 60.0, 60.0]


def test_live_backend_hard_failure_does_not_retry():
    session = StubSession([(403, {})])
    backend, _ = make_backend(session)
    with pytest.raises(BackendUnavailable):
        backend.create_measurement(parse_address("192.0.2.1"), ["p-1"])
    assert len(session.calls) == 1


def test_live_backend_gives_each_thread_its_own_session():
    backend = LiveBackend("https://api.example.net/v1", "sekrit")
    seen = []
    workers = [threading.Thread(target=lambda: seen.append(backend.session)) for _ in range(2)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=10)
        assert not worker.is_alive()
    main = backend.session
    try:
        assert len({id(s) for s in seen + [main]}) == 3
        assert backend.session is main
    finally:
        for session in seen + [main]:
            session.close()

    # an injected session is shared by every thread
    injected = StubSession([])
    shared = LiveBackend("https://api.example.net/v1", "sekrit", session=injected)
    seen = []
    worker = threading.Thread(target=lambda: seen.append(shared.session))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert seen == [injected] and shared.session is injected
