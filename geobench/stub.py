"""Loopback stub of the live measurement API (docs/live-api.md).

It binds to 127.0.0.1 only and serves requests on a single thread.  Each
measurement is answered from geoaudit's SyntheticWorld, so a live run must
produce the same bytes as a simulated one, and the first poll already says
"done", so the client's poll sleep never runs.  Every response is held for a
fixed delay to make round trips dominate, as they do against a real API.
The stub spins through that delay, so its CPU time includes it (held_s).
Payloads that break the documented contract are rejected and counted.

Connections stay open (HTTP/1.1 keep-alive), and one selector loop serves
whichever connection has a complete request, so an idle connection never
holds the thread while another client waits.
"""

from __future__ import annotations

import ipaddress
import json
import selectors
import socket
import threading
import time

API_ROOT = "/api/v1"
POST_KEYS = {"target", "probe_ids", "packets", "tag"}
REASONS = {200: "OK", 400: "Bad Request", 401: "Unauthorized", 404: "Not Found"}


class StubCounters:
    def __init__(self):
        self.posts = 0
        self.gets = 0
        self.rejected = 0
        self.busy_s = 0.0  # server-side handling time, response delay included
        self.held_s = 0.0  # response delay alone, spent spinning on the CPU
        self.answered: set[tuple[str, str]] = set()  # (probe_id, target) delivered by a GET

    def reset(self):
        self.__init__()


def split_request(buf: bytearray):
    """(method, path, headers, body) of the first complete request in buf,
    which is removed from buf; None while that request is incomplete.
    Raises ValueError on a bad Content-Length."""
    end = buf.find(b"\r\n\r\n")
    if end < 0:
        return None
    head = buf[:end].decode("latin-1").split("\r\n")
    headers = {}
    for line in head[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length") or 0)
    if length < 0:
        raise ValueError("negative Content-Length")
    if len(buf) < end + 4 + length:
        return None
    body = bytes(buf[end + 4:end + 4 + length])
    del buf[:end + 4 + length]
    method, path, *_ = head[0].split(" ") + ["", ""]
    return method, path, headers, body


class LiveApiStub:
    """Serve the API for one campaign. Use as a context manager, or call
    start() and stop(); base_url is valid after start()."""

    def __init__(self, world: dict, vantages: list[dict], seed: int, api_key: str,
                 delay_s: float = 0.001):
        from geoaudit.measure import SyntheticWorld
        from geoaudit.vantage import VantagePoint

        self.world = SyntheticWorld.from_json(world, seed=seed)
        self.vantages = {v["id"]: VantagePoint.from_json(v) for v in vantages}
        self.api_key = api_key
        self.delay_s = delay_s
        self.counters = StubCounters()
        self.pending: dict[str, tuple[str, list[dict]]] = {}  # id -> (target, results)
        self._seq = 0
        self._thread: threading.Thread | None = None
        self._wake: socket.socket | None = None
        self.base_url = ""

    # -- the API ---------------------------------------------------------------
    def handle(self, method: str, path: str, headers: dict, raw: bytes) -> tuple[int, dict]:
        """(status, body) for one request; counts it."""
        authorized = headers.get("authorization") == f"Key {self.api_key}"
        if method == "POST":
            self.counters.posts += 1
            status, body = 400, {"error": "bad request"}
            if not authorized:
                status, body = 401, {"error": "bad key"}
            elif path == f"{API_ROOT}/measurements" and \
                    headers.get("content-type", "").startswith("application/json"):
                problem, payload = self.validate(raw)
                if problem is None:
                    status, body = 200, {"id": self.create(payload)}
                else:
                    body = {"error": problem}
        else:
            self.counters.gets += 1
            status, body = 404, {"error": "no such measurement"}
            parts = path[len(API_ROOT):].strip("/").split("/")
            if not authorized:
                status, body = 401, {"error": "bad key"}
            elif method == "GET" and path.startswith(API_ROOT) and len(parts) == 3 \
                    and parts[0] == "measurements" and parts[2] == "results" \
                    and parts[1] in self.pending:
                target, results = self.pending.pop(parts[1])
                self.counters.answered.update((row["probe_id"], target) for row in results)
                status, body = 200, {"status": "done", "results": results}
        self.counters.rejected += status != 200
        return status, body

    def validate(self, raw: bytes):
        """(problem, payload): problem is None when the body obeys the contract."""
        try:
            payload = json.loads(raw)
        except ValueError:
            return "body is not JSON", None
        if not isinstance(payload, dict) or not {"target", "probe_ids", "packets"} <= set(payload) \
                or set(payload) - POST_KEYS:
            return "wrong keys", None
        try:
            ipaddress.ip_address(payload["target"])
        except (TypeError, ValueError):
            return "bad target", None
        ids = payload["probe_ids"]
        if not isinstance(ids, list) or not ids or any(i not in self.vantages for i in ids):
            return "bad probe_ids", None
        if payload["packets"] != 3:
            return "packets must be 3", None
        if "tag" in payload and not isinstance(payload["tag"], str):
            return "bad tag", None
        return None, payload

    def create(self, payload: dict) -> str:
        from geoaudit.errors import UnknownTarget
        from geoaudit.registry import parse_address

        target = parse_address(payload["target"])
        results = []
        for probe_id in payload["probe_ids"]:
            try:
                rtts = self.world.rtts(self.vantages[probe_id], target)
            except UnknownTarget:
                rtts = []
            results.append({"probe_id": probe_id, "rtts_ms": rtts})
        self._seq += 1
        mid = f"m-{self._seq}"
        self.pending[mid] = (str(target), results)
        return mid

    # -- the server --------------------------------------------------------------
    def _respond(self, conn: socket.socket, request) -> bool:
        """Answer one request; False when the client asked to close."""
        start = time.perf_counter()
        method, path, headers, raw = request
        status, body = self.handle(method, path, headers, raw)
        data = json.dumps(body).encode()
        keep = headers.get("connection", "").lower() != "close"
        self._hold()
        conn.sendall(f"HTTP/1.1 {status} {REASONS[status]}\r\n"
                     f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
                     f"Connection: {'keep-alive' if keep else 'close'}\r\n\r\n".encode() + data)
        self.counters.busy_s += time.perf_counter() - start
        return keep

    def _hold(self) -> None:
        """Hold the response for delay_s. It spins rather than sleeps: an idle
        CPU of the reference VM took up to twice the delay to wake, by an
        amount that followed the load of the machine."""
        start = time.perf_counter()
        end = start + self.delay_s
        while (now := time.perf_counter()) < end:
            pass
        self.counters.held_s += now - start

    def _read(self, conn: socket.socket, buf: bytearray) -> bool:
        """Serve every complete request conn has sent; False when conn is done."""
        try:
            chunk = conn.recv(1 << 16)
        except OSError:
            return False
        buf += chunk
        try:
            while chunk and (request := split_request(buf)) is not None:
                if not self._respond(conn, request):
                    return False
        except ValueError:
            self.counters.rejected += 1
            return False
        return bool(chunk)

    def _serve(self, listener: socket.socket, wake: socket.socket) -> None:
        buffers: dict[socket.socket, bytearray] = {}
        with listener, wake, selectors.DefaultSelector() as sel:
            sel.register(listener, selectors.EVENT_READ)
            sel.register(wake, selectors.EVENT_READ)
            while True:
                for key, _ in sel.select():
                    sock = key.fileobj
                    if sock is wake:
                        for conn in buffers:
                            conn.close()
                        return
                    if sock is listener:
                        conn, _ = listener.accept()
                        # without it, delayed ACKs add tens of ms to every request
                        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                        buffers[conn] = bytearray()
                        sel.register(conn, selectors.EVENT_READ)
                    elif not self._read(sock, buffers[sock]):
                        sel.unregister(sock)
                        del buffers[sock]
                        sock.close()

    def cpu_s(self) -> float:
        """CPU time of the serving thread so far."""
        return time.clock_gettime(time.pthread_getcpuclockid(self._thread.ident))

    def start(self) -> str:
        listener = socket.create_server(("127.0.0.1", 0))
        self._wake, wake = socket.socketpair()
        self._thread = threading.Thread(target=self._serve, args=(listener, wake), daemon=True)
        self._thread.start()
        self.base_url = f"http://127.0.0.1:{listener.getsockname()[1]}{API_ROOT}"
        return self.base_url

    def stop(self) -> None:
        if self._thread is not None:
            self._wake.send(b"x")
            self._thread.join(timeout=30)
            self._wake.close()
            self._thread = None

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()
