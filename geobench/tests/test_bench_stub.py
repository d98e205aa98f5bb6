"""LiveBackend completes round trips against the loopback stub."""

import json
import os
import socket
import time

import pytest
import requests

import gen
from geoaudit import measure
from geoaudit.registry import parse_address
from geoaudit.vantage import VantagePoint
from stub import LiveApiStub

DATA = os.path.join(os.path.dirname(gen.__file__), os.pardir, "src", "geoaudit", "data")
KEY = "test-key"


@pytest.fixture(scope="module")
def campaign():
    camp = gen.build_campaign(21, DATA, n_bulk=10, n_audit=len(gen.AUDIT_KINDS))
    world = json.loads(camp.files["world.json"])
    vantages = [json.loads(line) for line in camp.files["vantages.jsonl"].splitlines()]
    return world, vantages


@pytest.fixture
def stub(campaign):
    world, vantages = campaign
    with LiveApiStub(world, vantages, seed=5, api_key=KEY, delay_s=0.0) as server:
        yield server


def test_live_backend_round_trip_matches_simulator(stub, campaign):
    world, vantages = campaign
    backend = measure.LiveBackend(stub.base_url, KEY, tag="bench", sleep=lambda s: None)
    simulator = measure.SimulateBackend(measure.SyntheticWorld.from_json(world, seed=5))
    vantage = VantagePoint.from_json(vantages[0])
    target = parse_address(sorted(world["targets"])[0])
    dead = parse_address(world["unresponsive"][0])
    try:
        assert backend.measure(vantage, target) == simulator.measure(vantage, target)
        assert backend.measure(vantage, dead) == []
    finally:
        backend.session.close()
    assert (stub.counters.posts, stub.counters.gets, stub.counters.rejected) == (2, 2, 0)
    assert stub.counters.answered == {(vantage.id, str(target)), (vantage.id, str(dead))}
    assert stub.counters.busy_s > 0


def test_alternating_sessions_do_not_stall(stub, campaign):
    world, vantages = campaign
    probe_ids = [v["id"] for v in vantages[:3]]
    target = sorted(world["targets"])[0]
    auth = {"Authorization": f"Key {KEY}"}
    sessions = [requests.Session(), requests.Session()]
    start = time.monotonic()
    try:
        for i in range(6):
            session = sessions[i % 2]
            resp = session.post(f"{stub.base_url}/measurements", headers=auth, timeout=5,
                                json={"target": target, "probe_ids": probe_ids, "packets": 3})
            results = session.get(f"{stub.base_url}/measurements/{resp.json()['id']}/results",
                                  headers=auth, timeout=5)
            assert results.json()["status"] == "done"
    finally:
        for session in sessions:
            session.close()
    assert time.monotonic() - start < 2.0
    assert stub.cpu_s() > 0
    assert (stub.counters.posts, stub.counters.gets, stub.counters.rejected) == (6, 6, 0)
    # one POST with three probes answers three pairs
    assert stub.counters.answered == {(p, target) for p in probe_ids}


@pytest.mark.parametrize("payload, headers", [
    ({"target": "192.0.2.1", "probe_ids": ["a-arin-00"], "packets": 2}, {}),
    ({"target": "192.0.2.1", "probe_ids": [], "packets": 3}, {}),
    ({"target": "not-an-ip", "probe_ids": ["a-arin-00"], "packets": 3}, {}),
    ({"target": "192.0.2.1", "probe_ids": ["a-arin-00"], "packets": 3, "extra": 1}, {}),
    ({"target": "192.0.2.1", "probe_ids": ["a-arin-00"], "packets": 3},
     {"Authorization": "Key wrong"}),
])
def test_contract_violations_are_rejected(stub, payload, headers):
    auth = {"Authorization": f"Key {KEY}", **headers}
    with requests.Session() as session:
        resp = session.post(f"{stub.base_url}/measurements", json=payload, headers=auth)
        missing = session.get(f"{stub.base_url}/measurements/m-404/results", headers=auth)
    assert resp.status_code in (400, 401)
    assert missing.status_code in (401, 404)
    assert stub.counters.rejected == 2


def test_raw_requests_split_across_reads_and_bad_lengths(stub):
    host, port = stub.base_url.split("/")[2].split(":")
    request = (f"GET /api/v1/measurements/m-404/results HTTP/1.1\r\nHost: x\r\n"
               f"Authorization: Key {KEY}\r\nConnection: close\r\n\r\n").encode()
    with socket.create_connection((host, int(port)), timeout=5) as conn:
        conn.sendall(request[:20])
        time.sleep(0.05)
        conn.sendall(request[20:])
        reply = b"".join(iter(lambda: conn.recv(4096), b""))
    assert reply.startswith(b"HTTP/1.1 404 ")
    with socket.create_connection((host, int(port)), timeout=5) as conn:
        conn.sendall(b"POST /api/v1/measurements HTTP/1.1\r\nContent-Length: x\r\n\r\n")
        assert conn.recv(4096) == b""  # closed without a reply
    assert (stub.counters.gets, stub.counters.rejected) == (1, 2)
