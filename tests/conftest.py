"""Shared fixture builders: a synthetic measurement campaign with planted
ground truth, written out as the file set the CLI consumes."""

from __future__ import annotations

import http.server
import importlib.util
import ipaddress
import json
import random
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from geoaudit import measure
from geoaudit.errors import UnknownTarget
from geoaudit.registry import Rir, parse_address
from geoaudit.vantage import load_vantages

# Three single-point countries per registry region, in tight clusters.
# Cluster separations are several thousand km, so bounded additive noise can
# never make a foreign region feasible.
CLUSTERS: dict[Rir, list[tuple[str, float, float]]] = {
    Rir.ARIN: [("US", 40.0, -100.0), ("CA", 42.0, -100.0), ("BM", 38.0, -100.0)],
    Rir.RIPE: [("DE", 50.0, 10.0), ("FR", 48.0, 10.0), ("PL", 52.0, 10.0)],
    Rir.APNIC: [("JP", 35.0, 140.0), ("AU", 33.0, 140.0), ("IN", 37.0, 140.0)],
    Rir.LACNIC: [("BR", -20.0, -60.0), ("AR", -22.0, -60.0), ("CL", -18.0, -60.0)],
    Rir.AFRINIC: [("ZA", 0.0, 25.0), ("EG", 2.0, 25.0), ("NG", -2.0, 25.0)],
}

CLASS_PATTERN = ("FC", "OC", "OI", "RI", "FI")

GEOBENCH = Path(__file__).resolve().parent.parent / "geobench"


def load_geobench(name: str):
    """geobench/<name>.py, the benchmark's own module, imported read-only
    from its file and kept out of sys.modules once loaded."""
    spec = importlib.util.spec_from_file_location(f"geobench_{name}", GEOBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@dataclass
class Campaign:
    """Planted ground truth plus every input file's content."""

    region_map_csv: str = ""
    country_points_csv: str = ""
    vantages_jsonl: str = ""
    registrations_jsonl: str = ""
    rib_txt: str = ""
    hitlist_v4_csv: str = ""
    hitlist_v6_txt: str = ""
    world: dict = field(default_factory=dict)
    expected: dict[str, str] = field(default_factory=dict)  # prefix -> class
    true_region: dict[str, str] = field(default_factory=dict)  # prefix -> RIR name


def build_campaign(
    fc_per_region: int = 40,
    planted_per_class: int = 2,
    v6_fc_per_region: int = 2,
    noise_ms: float = 0.0,
) -> Campaign:
    camp = Campaign()

    rows = [f"{cc},{rir.value}" for rir, pts in CLUSTERS.items() for cc, _, _ in pts]
    camp.region_map_csv = "country,rir\n" + "\n".join(sorted(rows)) + "\n"
    pts = [f"{cc},{lat},{lon}" for pts in CLUSTERS.values() for cc, lat, lon in pts]
    camp.country_points_csv = "country,lat,lon\n" + "\n".join(sorted(pts)) + "\n"

    vantages = []
    asn = 64500
    for rir in Rir:
        for cc, lat, lon in CLUSTERS[rir]:
            vantages.append({"id": f"a-{cc.lower()}", "kind": "anchor", "country": cc,
                             "lat": lat, "lon": lon, "asn": asn, "connected": True})
            vantages.append({"id": f"p-{cc.lower()}", "kind": "probe", "country": cc,
                             "lat": lat, "lon": lon, "asn": asn + 1, "connected": True})
            asn += 2
    camp.vantages_jsonl = "\n".join(json.dumps(v, sort_keys=True) for v in vantages) + "\n"

    regs = []
    rib = []
    hits4 = ["addr,score"]
    hits6 = []
    world_targets: dict[str, list[float]] = {}

    def plant(prefix: str, target: str, rir: Rir, org_cc: str,
              true_pt: tuple[str, float, float], cls: str, year: int) -> None:
        regs.append({
            "prefix": prefix, "rir": rir.value, "org_country": org_cc,
            "org_id": f"ORG-{org_cc}-{len(regs)}", "status": "assigned",
            "last_updated": f"{year}-06-01", "flags": [],
        })
        rib.append(f"{prefix} {65000 + len(rib)}")
        world_targets[target] = [true_pt[1], true_pt[2]]
        camp.expected[prefix] = cls
        camp.true_region[prefix] = next(
            r.value for r, pts in CLUSTERS.items() if any(c == true_pt[0] for c, _, _ in pts))

    rirs = list(Rir)
    for i, rir in enumerate(rirs):
        other = rirs[(i + 1) % 5]
        third = rirs[(i + 2) % 5]
        total = fc_per_region + 4 * planted_per_class
        for k in range(total):
            prefix = f"10.{10 + i}.{k}.0/24"
            target = f"10.{10 + i}.{k}.1"
            home = CLUSTERS[rir][k % 3]
            away = CLUSTERS[other][k % 3]
            far = CLUSTERS[third][k % 3]
            if k < fc_per_region:
                cls = "FC"
            else:
                cls = CLASS_PATTERN[1 + (k - fc_per_region) // planted_per_class]
            if cls == "FC":
                org_cc, true_pt = home[0], home
            elif cls == "OC":
                org_cc, true_pt = away[0], away
            elif cls == "OI":
                org_cc, true_pt = away[0], home
            elif cls == "RI":
                org_cc, true_pt = home[0], far
            else:  # FI
                org_cc, true_pt = away[0], far
            plant(prefix, target, rir, org_cc, true_pt, cls, 2016 + k % 8)
            hits4.append(f"{target},100")
        for k in range(v6_fc_per_region):
            prefix = str(ipaddress.ip_network(f"2001:db8:{10 + i}:{k}::/64"))
            target = str(ipaddress.ip_address(f"2001:db8:{10 + i}:{k}::1"))
            home = CLUSTERS[rir][k % 3]
            plant(prefix, target, rir, home[0], home, "FC", 2020)
            hits6.append(target)

    camp.registrations_jsonl = "\n".join(json.dumps(r, sort_keys=True) for r in regs) + "\n"
    camp.rib_txt = "# synthetic table\n" + "\n".join(rib) + "\n"
    camp.hitlist_v4_csv = "\n".join(hits4) + "\n"
    camp.hitlist_v6_txt = "\n".join(hits6) + "\n" if hits6 else ""
    camp.world = {
        "noise_ms": noise_ms,
        "propagation_factor": 2.0 / 3.0,
        "targets": world_targets,
        "unresponsive": [],
    }
    return camp


def write_campaign(tmp_path, camp: Campaign) -> dict[str, str]:
    """Materialize campaign files; returns name -> path."""
    files = {
        "region_map.csv": camp.region_map_csv,
        "country_points.csv": camp.country_points_csv,
        "vantages.jsonl": camp.vantages_jsonl,
        "registrations.jsonl": camp.registrations_jsonl,
        "rib.txt": camp.rib_txt,
        "hitlist_v4.csv": camp.hitlist_v4_csv,
        "world.json": json.dumps(camp.world, sort_keys=True),
    }
    if camp.hitlist_v6_txt:
        files["hitlist_v6.txt"] = camp.hitlist_v6_txt
    out = {}
    for name, content in files.items():
        path = tmp_path / name
        path.write_text(content)
        out[name] = str(path)
    return out


def audit_argv(paths: dict[str, str], out_path: str, extra: list[str] | None = None,
               plans: str | None = None, backend: str = "simulate") -> list[str]:
    """An audit of the campaign at paths; given plans, of that plans file in
    place of the registrations and hitlists, which --plans refuses. The
    simulate backend reads the campaign's world; the flags of another
    backend, such as LIVE_ARGV, come in extra."""
    inputs = ["--registrations", paths["registrations.jsonl"], "--hitlist-v4", paths["hitlist_v4.csv"]]
    if "hitlist_v6.txt" in paths:
        inputs += ["--hitlist-v6", paths["hitlist_v6.txt"]]
    argv = [
        "audit",
        *(["--plans", plans] if plans else inputs),
        "--rib", paths["rib.txt"],
        "--vantages", paths["vantages.jsonl"],
        "--region-map", paths["region_map.csv"],
        "--country-points", paths["country_points.csv"],
        "--backend", backend,
        *(["--world", paths["world.json"]] if backend == "simulate" else []),
        "--seed", "7",
        "-o", out_path,
    ]
    if extra:
        argv += extra
    return argv


@pytest.fixture
def small_campaign(tmp_path):
    camp = build_campaign(fc_per_region=4, planted_per_class=1, v6_fc_per_region=1)
    paths = write_campaign(tmp_path, camp)
    return camp, paths, tmp_path


def measure_plan(backend, targets, vantages):
    """A plan's results, measured as cli.cmd_audit measures: one
    measure_targets call for every target's job, each target's replies
    through target_results; target by target, as planned."""
    vantages = list(vantages)
    jobs = [(target, vantages) for target in targets]
    return [res for (target, _), replies in zip(jobs, backend.measure_targets(jobs), strict=True)
            for res in measure.target_results(target, vantages, replies)]


def fields(results):
    """Results as (vantage_id, target, rtts_ms) tuples: a result has no ==
    of its own, so tests compare these."""
    return [(r.vantage_id, r.target, r.rtts_ms) for r in results]


def stub_answer(status, body):
    """An answer as Transport.request returns it: the status and the body,
    bytes as given, or the JSON of any other value."""
    return status, body if isinstance(body, bytes) else json.dumps(body).encode()


def seeded_pending(seed, most=3):
    """How many times a measurement id is pending: 0 to most, seeded by the id."""
    return lambda mid: random.Random(f"{seed}:{mid}").randint(0, most)


class WorldSession:
    """A live API answering from a SyntheticWorld; a probe without replies
    is left out of the results, which the API contract allows. Measurement
    id m-<n> is the n-th POST; it answers pending(id) times pending before
    done, and done to every GET after, as a finished measurement stays
    readable. calls logs every request, and most_open the most measurements
    ever created and not yet done."""

    def __init__(self, world, vantages, pending=lambda mid: 0):
        self.world = world
        self.vantages = {v.id: v for v in vantages}
        self.pending = pending
        self.open = {}  # measurement id -> [pending answers left, results]
        self.done = {}  # measurement id -> results
        self.calls = []
        self.posts = []
        self.most_open = 0
        self.closed = False

    def request(self, method, path, body, headers):
        self.calls.append((method, path))
        if method == "POST":
            payload = json.loads(body)
            self.posts.append(payload)
            target = parse_address(payload["target"])
            try:
                replies = self.world.rtts_by_vantage(
                    target, [self.vantages[probe_id] for probe_id in payload["probe_ids"]])
            except UnknownTarget:
                replies = {}
            results = [{"probe_id": probe_id, "rtts_ms": replies[probe_id]}
                       for probe_id in payload["probe_ids"] if replies.get(probe_id)]
            mid = f"m-{len(self.posts)}"
            self.open[mid] = [self.pending(mid), results]
            self.most_open = max(self.most_open, len(self.open))
            return stub_answer(200, {"id": mid})
        mid = path.rsplit("/", 2)[-2]
        if mid in self.open:
            if self.open[mid][0]:
                self.open[mid][0] -= 1
                return stub_answer(200, {"status": "pending"})
            self.done[mid] = self.open.pop(mid)[1]
        return stub_answer(200, {"status": "done", "results": self.done[mid]})

    def close(self):
        self.closed = True


# what a seeded fault schedule injects: no connection could be opened, the
# connection broke before or after the API acted on the request, or the API
# answered an error without acting on it
FAULTS = ("never_connected", "lost_before", "lost_after", 429, 503, 500)


class FaultySession:
    """api (a WorldSession) behind a network that fails a seeded share, rate,
    of requests, each with a fault drawn from FAULTS. log holds (method,
    path, what the client got) for every request: a fault, or the API's
    "created", "pending" or "done"; sleep logs the client's sleeps there
    too, as ("sleep", None, seconds)."""

    def __init__(self, api, seed, rate):
        self.api = api
        self.rng = random.Random(seed)
        self.rate = rate
        self.log = []

    def sleep(self, seconds):
        self.log.append(("sleep", None, seconds))

    def request(self, method, path, body, headers):
        fault = self.rng.choice(FAULTS) if self.rng.random() < self.rate else None
        if fault in (None, "lost_after"):
            status, answer = self.api.request(method, path, body, headers)
        got = fault or ("created" if method == "POST" else json.loads(answer)["status"])
        self.log.append((method, path, got))
        if fault == "never_connected":
            raise measure.NeverConnected("connection refused")
        if fault in ("lost_before", "lost_after"):
            raise OSError(f"connection reset, {fault}")
        return stub_answer(fault, {}) if fault else (status, answer)

    def close(self):
        self.api.close()


LIVE_ARGV = ["--base-url", "https://api.example.net/v1", "--api-key", "k"]


def world_session(camp, paths, pending=lambda mid: 0) -> WorldSession:
    """A WorldSession answering from the campaign's world at seed 7
    (audit_argv's seed)."""
    world = measure.SyntheticWorld.from_json(camp.world, seed=7)
    with open(paths["vantages.jsonl"]) as fp:
        return WorldSession(world, load_vantages(fp), pending)


def serve_campaign(monkeypatch, camp, paths, pending, sleep, wrap=lambda api: api):
    """Point the CLI's live backend at world_sessions, each passed through
    wrap, instead of a Transport, and at sleep for its sleeps; returns the
    list of sessions it makes."""
    sessions = []

    def session(base_url):
        sessions.append(wrap(world_session(camp, paths, pending)))
        return sessions[-1]

    class Unslept(measure.LiveBackend):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, sleep=sleep, **kwargs)

    monkeypatch.setattr(measure, "LiveBackend", Unslept)
    monkeypatch.setattr(measure, "Transport", session)
    return sessions


class _LoopbackHandler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # connections stay open between requests
    timeout = 10  # a connection a client leaves open cannot hold the server for good
    disable_nagle_algorithm = True  # the head and the body go out as two writes

    def setup(self):
        super().setup()
        self.server.peers.append(self.client_address)

    def answer(self):
        server = self.server
        body = self.rfile.read(int(self.headers.get("Content-Length") or 0))
        server.methods.append(self.command)
        if server.hold.get(self.command):
            server.hold[self.command] -= 1
            server.release.wait(timeout=10)
            self.close_connection = True
            return
        status, data = server.api.request(self.command, self.path, body, dict(self.headers))
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        self.close_connection = self.command in server.close_after

    do_GET = do_POST = answer

    def log_message(self, format, *args):
        pass


class LoopbackApi(http.server.ThreadingHTTPServer):
    """A real HTTP/1.1 server on 127.0.0.1, in a thread, that answers each
    request from api (a WorldSession, say) and keeps connections open.
    peers logs each TCP connection it accepts and methods each request.
    hold[method] requests of that method are not answered: the server
    closes the connection after 10 s or on stopping. close_after
    names the methods after whose answer the server closes the connection
    without saying so, as a server drops an idle keep-alive; closed is
    released once per connection the server closes."""

    daemon_threads = False  # stopping joins the thread of every connection

    def __init__(self, api, port=0, hold=None, close_after=()):
        super().__init__(("127.0.0.1", port), _LoopbackHandler)
        self.api = api
        self.hold = dict(hold or {})
        self.close_after = set(close_after)
        self.peers, self.methods = [], []
        self.closed = threading.Semaphore(0)
        self.release = threading.Event()  # set on stopping: the held requests end unanswered
        self.base_url = f"http://127.0.0.1:{self.server_address[1]}/v1"
        self._thread = threading.Thread(target=self.serve_forever, kwargs={"poll_interval": 0.05})

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.release()

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self.release.set()
        self.shutdown()
        self._thread.join()
        self.server_close()
