"""Latency measurement: replayed archives, a synthetic world, or a live API.

Every backend answers one question, for a sequence of targets in order:
the RTT samples (up to three) from each of a plan's vantages to a target
(one live measurement carrying every planned probe); measure_targets is the
one method a backend implements, and the audit's one way to measure. In
target_results, a vantage without a reply (a replay gap, a probe error)
becomes an empty result, so one dead probe never sinks a prefix, and an RTT
that is negative or not finite fails the run on every backend. The audit
closes its backend once the last reply is in: a replay lets go of its
capture and a simulator of its world, so classification reuses that memory.
A SyntheticWorld keeps per-vantage state, freed with it: a BLAKE2b state
each pair copies, and the vantage's per-origin geo.distance_from.

Backend.measure, SyntheticWorld.rtts and run_plan measure pair by pair for
the benchmark's traced replica and API stub, their only callers; they go
once the benchmark measures through measure_targets.

write_results and load_results are the capture codec: one line per
(vantage, target) pair, spelled one way, as the generic encoder spells it,
only faster; write_results writes a target's lines at once. target_results
builds a MeasurementResult, three slots, per planned pair on every backend.
load_results checks each line inline and builds the replay's mapping,
replies by target then vantage id, with no result in between.

The live client sends a path below the API root and a body of bytes through
its Transport, and gets back the status and the body's bytes: LiveBackend
encodes each request and reads each key of an answer through registry.field,
as world.json is read. A value not of the documented shape raises
GeoAuditError where it is found; any other exception while reading is a bug.
Only what a failed exchange raises is retried or reported as the backend
unavailable; any other exception from the transport is a bug too.
"""

from __future__ import annotations

import functools
import json
import math
import select
import struct
import time
# the object hashlib.blake2b is, without hashlib's load of OpenSSL (_hashlib,
# ~3.6 MB resident); hashlib has no other BLAKE2b, so nothing to fall back to
from _blake2 import blake2b
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence

from .errors import BackendUnavailable, GeoAuditError, UnknownTarget
from .geo import C_KM_PER_S, DEFAULT_PROPAGATION_FACTOR, distance_from
from .registry import (Addr, Prefix, _list, _number, _object, _text, field, json_lines,
                       parse_address, parse_as, point, refuse_repeats)
from .vantage import VantagePoint

SAMPLES_PER_PAIR = 3
RETRY_STATUS = (429, 500, 502, 503, 504)
POST_RETRY_STATUS = (429, 503)  # the API answered without creating a measurement
MAX_RETRIES = 3  # the live client's policy is fixed (docs/live-api.md)
RETRY_BASE_DELAY_S = 2.0  # doubled after each retry: sleeps of 2, 4 and 8 s
POLL_INTERVAL_S = 2.0
POLL_ATTEMPTS = 30
TIMEOUT_S = 30.0  # the live client's socket timeout: to connect, and for each read
Job = tuple[Addr, Sequence[VantagePoint]]  # a target and the vantages that measure it
_FLOAT = frozenset((float,))  # what json reads a capture's samples as: load_results's fast path
_NOISE_WORDS = struct.Struct("<3Q")  # a pair's digest: one word per sample (SyntheticWorld)
_UNIT = 2.0 ** -53  # a word's top 53 bits times this are uniform in [0, 1)


class MeasurementResult:
    """One (vantage, target) pair's RTT samples: three slots, read as
    attributes, and no ==, repr or encoding. target_results builds one per
    planned pair on every backend, so this is a slotted class and not a
    NamedTuple: on Python 3.11 its __init__ takes ~0.35 µs, a NamedTuple's ~0.54 µs."""

    __slots__ = ("vantage_id", "target", "rtts_ms")

    def __init__(self, vantage_id: str, target: Addr, rtts_ms: tuple[float, ...]):
        self.vantage_id = vantage_id
        self.target = target
        self.rtts_ms = rtts_ms


# A capture repeats each target once per vantage, so the codec formats or
# parses each distinct target and vantage id once per call.

def write_results(results: Iterable[MeasurementResult], fp: IO[str]) -> int:
    """One line per result: the bytes json.dumps(..., sort_keys=True) writes
    for {"rtts_ms": [...], "target": "...", "vantage_id": "..."}.

    Each sample is a finite float, as target_results makes it, and is
    spelled by float.__repr__, as the encoder spells it; each target and
    vantage id is encoded once per call. A line has this one spelling."""
    encode = json.JSONEncoder(sort_keys=True).encode
    tails: dict[str, str] = {}
    target = middle = None
    lines: list[str] = []
    n = 0
    for n, res in enumerate(results, 1):
        if res.target is not target:
            fp.write("".join(lines))
            lines.clear()
            target = res.target
            middle = f'], "target": {encode(str(target))}'
        tail = tails.get(res.vantage_id)
        if tail is None:
            tail = tails[res.vantage_id] = f', "vantage_id": {encode(res.vantage_id)}}}\n'
        rtts = res.rtts_ms
        if len(rtts) == 3 and float is type(rtts[0]) is type(rtts[1]) is type(rtts[2]):
            # the common line, in one format; on a float, repr is float.__repr__
            lines.append(f'{{"rtts_ms": [{rtts[0]!r}, {rtts[1]!r}, {rtts[2]!r}{middle}{tail}')
        else:
            lines.append('{"rtts_ms": [' + ", ".join(map(float.__repr__, rtts)) + middle + tail)
    fp.write("".join(lines))
    return n


def load_results(fp: IO[str]) -> dict[Addr, dict[str, tuple[float, ...]]]:
    """A capture's replies by target, then vantage id: what a replay serves.
    Each line is an object with rtts_ms, a list of JSON numbers, and target
    and vantage_id, strings; other keys are ignored. A line that is not so,
    or that repeats an earlier line's pair, raises GeoAuditError naming its
    number. Each distinct target text is parsed once, two spellings of one
    address are one target, and one vantage's lines share one id string."""
    by_text: dict[str, dict[str, tuple[float, ...]]] = {}  # a target's text -> its replies
    names: dict[str, str] = {}
    out: dict[Addr, dict[str, tuple[float, ...]]] = {}
    for n, obj in json_lines(fp):
        try:
            if type(obj) is not dict:
                raise GeoAuditError(f"{obj!r} is not an object")
            try:
                rtts, vantage_id, target = obj["rtts_ms"], obj["vantage_id"], obj["target"]
            except KeyError as exc:
                raise GeoAuditError(f"no {exc}") from None
            if type(rtts) is not list or not _FLOAT.issuperset(map(type, rtts)):
                rtts = field(obj, "rtts_ms", _numbers)  # an int becomes a float, anything else raises
            if type(vantage_id) is not str:  # str() would read null as the vantage "None"
                raise GeoAuditError(f"vantage_id: {vantage_id!r} is not a string")
            if type(target) is not str:
                raise GeoAuditError(f"target: {target!r} is not a string")
            replies = by_text.get(target)
            if replies is None:
                replies = by_text[target] = out.setdefault(field(obj, "target", parse_address), {})
            if vantage_id in replies:
                raise GeoAuditError(f"{vantage_id} -> {parse_address(target)} is archived twice")
        except GeoAuditError as exc:
            raise GeoAuditError(f"line {n}: {exc}") from None
        replies[names.setdefault(vantage_id, vantage_id)] = tuple(rtts)
    return out


class Backend:
    """A measurement backend. measure_targets is the one method a backend
    implements. tally is the line an audit prints about the run, and reads
    the same after close. close releases what the backend holds once the
    last reply is read: a replay's capture, a simulator's world, a live
    client's connection, so that classification reuses their memory. Any
    backend measuring after close is a bug: it raises RuntimeError."""

    def measure_targets(self, jobs: Iterable[Job]) -> Iterator[Mapping[str, Sequence[float]]]:
        """The replies to each (target, vantages) job, in job order: RTT
        samples in ms by vantage id, a vantage absent from the mapping got no
        reply, and {} for a target the backend cannot place."""
        raise NotImplementedError

    def measure(self, vantage: VantagePoint, target: Addr) -> list[float]:
        """One pair through measure_targets (see the module docstring): RTT
        samples in ms, empty when the vantage got no reply."""
        return list(next(self.measure_targets([(target, [vantage])])).get(vantage.id, ()))

    def tally(self) -> str:
        raise NotImplementedError

    def close(self) -> None:
        pass


class SyntheticWorld:
    """Ground truth for the simulator: target coordinates, an unresponsive
    set, and additive uniform noise on top of great-circle baseline RTTs.

    Noise only ever adds delay, so a simulated RTT never implies a distance
    shorter than the true one: each sample is base + noise_ms * u with u in
    [0, 1). The u of a (vantage, target) pair come from one unkeyed
    BLAKE2b-192 digest of the text "<seed>:<vantage id>:<target>", read as
    three little-endian 64-bit words w, u = (w >> 11) * 2**-53. So a pair's
    samples depend on the seed and the pair alone, not on which other
    vantages measure the target in the same call.

    A vantage's first pair stores what its later pairs share, keyed by the
    whole VantagePoint and so by its coordinates too: a BLAKE2b state fed
    "<seed>:<vantage id>", and the vantage's geo.distance_from. So the seed
    must not change once the world has measured."""

    __slots__ = ("target_locations", "unresponsive", "noise_ms", "propagation_factor", "seed",
                 "_vantages")

    def __init__(self, target_locations: dict[Addr, tuple[float, float]] | None = None,
                 unresponsive: set[Addr] | None = None, noise_ms: float = 0.0,
                 propagation_factor: float = DEFAULT_PROPAGATION_FACTOR, seed: int = 0):
        if not 0 < propagation_factor <= 1:
            raise GeoAuditError(f"world propagation_factor is {propagation_factor}, must be in (0, 1]")
        if not 0 <= noise_ms < math.inf:
            raise GeoAuditError(f"world noise_ms is {noise_ms}, must be finite and at least 0")
        self.target_locations = {} if target_locations is None else target_locations
        self.unresponsive = set() if unresponsive is None else unresponsive
        self.noise_ms = noise_ms
        self.propagation_factor = propagation_factor
        self.seed = seed
        self._vantages: dict[VantagePoint, tuple] = {}

    def rtts_by_vantage(self, target: Addr,
                        vantages: Iterable[VantagePoint]) -> dict[str, list[float]]:
        """RTT samples from each vantage to target; {} when it is unresponsive,
        UnknownTarget when it has no location.

        The target is looked up and formatted once; each pair then copies its
        vantage's BLAKE2b state (see the class docstring)."""
        if target in self.unresponsive:
            return {}
        location = self.target_locations.get(target)
        if location is None:
            raise UnknownTarget(f"no location for {target}")
        lat, lon = location
        tail = f":{target}".encode()
        speed = self.propagation_factor * (C_KM_PER_S / 1000.0)  # km per ms
        noise = self.noise_ms
        states = self._vantages
        out = {}
        for vantage in vantages:
            state = states.get(vantage)
            if state is None:
                # no BLAKE2b key: a key is at most 64 bytes, and a seed is any int
                state = states[vantage] = (
                    blake2b(f"{self.seed}:{vantage.id}".encode(), digest_size=_NOISE_WORDS.size),
                    distance_from(vantage.lat, vantage.lon))
            noise_state, km = state
            digest = noise_state.copy()
            digest.update(tail)
            base = 2.0 * km(lat, lon) / speed
            # SAMPLES_PER_PAIR samples, unrolled: a comprehension would cost a frame per pair
            a, b, c = _NOISE_WORDS.unpack(digest.digest())
            out[vantage.id] = [base + noise * ((a >> 11) * _UNIT),
                               base + noise * ((b >> 11) * _UNIT),
                               base + noise * ((c >> 11) * _UNIT)]
        return out

    def rtts(self, vantage: VantagePoint, target: Addr) -> list[float]:
        """One pair through rtts_by_vantage (see the module docstring)."""
        return self.rtts_by_vantage(target, [vantage]).get(vantage.id, [])

    @classmethod
    def from_json(cls, obj: Mapping, seed: int = 0) -> "SyntheticWorld":
        """Each key read by registry.field; a location is a list of two JSON
        numbers, a registry.point. Two spellings of one target are refused."""
        def location(value) -> tuple[float, float]:
            if len(_list(value)) != 2:
                raise GeoAuditError(f"{value!r} is not a [lat, lon] pair")
            return point(_number(value[0]), _number(value[1]))

        def locations(targets) -> dict[Addr, tuple[float, float]]:
            addrs = [parse_address(a) for a in _object(targets)]
            refuse_repeats(addrs, "address")
            return {addr: field(targets, a, location) for addr, a in zip(addrs, targets)}

        return cls(
            target_locations=field(obj, "targets", locations, {}),
            unresponsive=field(obj, "unresponsive",
                               lambda v: {parse_address(_text(a)) for a in _list(v)}, set()),
            noise_ms=field(obj, "noise_ms", _number, 0.0),
            propagation_factor=field(obj, "propagation_factor", _number, DEFAULT_PROPAGATION_FACTOR),
            seed=seed,
        )


class SimulateBackend(Backend):
    """Measures in a SyntheticWorld. unknown_targets counts the measurements
    of targets the world has no location for; each gets no reply."""

    def __init__(self, world: SyntheticWorld):
        self.world = world
        self.unknown_targets = 0

    def measure_targets(self, jobs: Iterable[Job]) -> Iterator[dict[str, list[float]]]:
        for target, vantages in jobs:
            if self.world is None:
                raise RuntimeError("SimulateBackend measured after close()")
            try:
                replies = self.world.rtts_by_vantage(target, vantages)
            except UnknownTarget:
                self.unknown_targets += 1
                replies = {}
            yield replies

    def tally(self) -> str:
        return f"unknown targets: {self.unknown_targets}"

    def close(self) -> None:
        self.world = None


class ReplayBackend(Backend):
    """Serves RTTs from a capture's replies by target, then vantage id, as
    load_results reads them.

    misses counts the planned (vantage, target) pairs the capture lacks;
    each comes back as no reply."""

    def __init__(self, replies: Mapping[Addr, Mapping[str, Sequence[float]]]):
        self._index = replies
        self.misses = 0

    def measure_targets(self, jobs: Iterable[Job]) -> Iterator[dict[str, tuple[float, ...]]]:
        for target, vantages in jobs:
            if self._index is None:
                raise RuntimeError("ReplayBackend measured after close()")
            archived = self._index.get(target, {})
            replies = {}
            for vantage in vantages:  # one lookup per planned pair
                if (rtts := archived.get(vantage.id)) is None:
                    self.misses += 1
                else:
                    replies[vantage.id] = rtts
            yield replies

    def tally(self) -> str:
        return f"replay misses: {self.misses} pairs"

    def close(self) -> None:
        self._index = None


class NeverConnected(Exception):
    """Transport could not open a connection, so the request was never sent."""


class Transport:
    """The live client's HTTP: request sends a body of bytes to a path below
    base_url and returns the answer's status and body bytes, over one
    keep-alive HTTP/1.1 connection to the origin of base_url, opened by an
    explicit connect() and reused by every request. Before an idle
    connection is reused it is checked for readability without waiting:
    readable means the server closed it, and a new one is opened, so a
    dropped keep-alive never costs a request. NeverConnected means no
    connection could be opened and nothing was sent; an OSError or an
    HTTPException may come after the API got the request. It connects
    directly (no proxy), verifies TLS against the system CA store, and
    TIMEOUT_S bounds the connect and each read."""

    def __init__(self, base_url: str):
        import http.client  # a live run's alone: simulate and replay never load it
        import urllib.parse

        try:
            parts = urllib.parse.urlsplit(base_url)
            if parts.scheme not in ("http", "https") or not parts.hostname:
                raise GeoAuditError(f"base URL {base_url!r} is not an http:// or https:// URL")
            # an explicit port: given none, http.client would split an IPv6
            # host at its last colon, and [::1] would become host ":", port 1
            if parts.scheme == "https":
                import ssl

                self._conn = http.client.HTTPSConnection(parts.hostname, parts.port or 443,
                                                         timeout=TIMEOUT_S,
                                                         context=ssl.create_default_context())
            else:
                self._conn = http.client.HTTPConnection(parts.hostname, parts.port or 80,
                                                        timeout=TIMEOUT_S)
        # an unclosed [, a port that is not a number, a host with a space
        except (ValueError, http.client.InvalidURL) as exc:
            raise GeoAuditError(str(exc)) from None
        self._base_path = parts.path.rstrip("/")

    def request(self, method: str, path: str, body: bytes | None, headers) -> tuple[int, bytes]:
        """Send body, if any, to path below base_url and read the whole answer."""
        conn = self._conn
        if conn.sock is not None and select.select([conn.sock], [], [], 0)[0]:
            conn.close()  # an idle connection has nothing to read unless the server closed it
        if conn.sock is None:
            try:
                conn.connect()
            except OSError as exc:
                conn.close()
                raise NeverConnected(f"cannot connect to {conn.host}:{conn.port}: {exc}") from exc
        try:
            conn.request(method, self._base_path + path, body, headers)
            answer = conn.getresponse()
            return answer.status, answer.read()
        except BaseException:
            conn.close()  # a request cut off midway leaves the connection in no known state
            raise

    def close(self) -> None:
        self._conn.close()


class LiveBackend(Backend):
    """Client for a ping-measurement HTTP API (see docs/live-api.md).

    One target is one measurement carrying every planned probe, and up to
    in_flight measurements are outstanding at once. A transient failure is
    retried MAX_RETRIES times, after sleeps of 2, 4 and 8 s, then raises
    BackendUnavailable, as does an answer that is not the documented shape.
    A POST is retried only when the API cannot have created the
    measurement (a 429 or 503 answer, or NeverConnected), so a retry never
    pays for a second one. posts and polls count the POST and GET requests
    sent, retries the ones sent again, and rounds the POLL_INTERVAL_S
    sleeps. session is a Transport to base_url, None once closed; tests
    inject session and sleep."""

    def __init__(self, base_url: str, api_key: str, tag: str | None = None, session=None,
                 sleep: Callable[[float], None] = time.sleep, in_flight: int = 1):
        self.session = Transport(base_url) if session is None else session
        self.headers = {"Authorization": f"Key {api_key}", "Content-Type": "application/json"}
        self.tag = tag
        self.sleep = sleep
        self.in_flight = in_flight
        self.posts = self.polls = self.retries = self.rounds = 0

    def tally(self) -> str:
        return (f"live requests: posts={self.posts} polls={self.polls} "
                f"retries={self.retries} rounds={self.rounds}")

    def close(self) -> None:
        self.session.close()  # its keep-alive connection
        self.session = None

    def _request(self, method: str, path: str, parse: Callable, body: bytes | None = None):
        """parse of the JSON body of the 200 answer. BackendUnavailable when
        retries run out, or when the body does not have the documented shape.
        Only what a failed exchange raises counts as one: NeverConnected, an
        OSError (a timeout or a reset) or an HTTPException. Any other
        exception from the session is a bug, and leaves with its traceback."""
        from http.client import HTTPException  # a live run's alone, as in Transport

        # a POST that may have reached the API is never sent again
        retry_status = POST_RETRY_STATUS if method == "POST" else RETRY_STATUS
        delay = RETRY_BASE_DELAY_S
        last_error = None
        for attempt in range(MAX_RETRIES + 1):
            if attempt:
                self.retries += 1
                self.sleep(delay)
                delay *= 2
            self.posts += method == "POST"
            self.polls += method == "GET"
            try:
                status, answer = self.session.request(method, path, body, self.headers)
            except (NeverConnected, OSError, HTTPException) as exc:
                if method == "POST" and not isinstance(exc, NeverConnected):
                    raise BackendUnavailable(
                        f"{method} {path} failed, not retried as the API may have "
                        f"created the measurement: {exc}") from exc
                last_error = exc
                continue
            if status == 200:
                # parse raises GeoAuditError where the answer is not the documented
                # shape; anything else it raises is a bug, and leaves with its traceback
                try:
                    return parse(parse_as(json.loads, answer))
                except GeoAuditError as exc:
                    raise BackendUnavailable(
                        f"{method} {path} answered a malformed body: {exc}") from None
            if status in retry_status:
                last_error = RuntimeError(f"HTTP {status}")
                continue
            raise BackendUnavailable(f"{method} {path} failed: HTTP {status}")
        raise BackendUnavailable(f"{method} {path} failed after retries: {last_error}")

    def create_measurement(self, target: Addr, probe_ids: list[str]) -> str:
        payload = {"target": str(target), "probe_ids": probe_ids, "packets": SAMPLES_PER_PAIR}
        if self.tag:
            payload["tag"] = self.tag
        return self._request("POST", "/measurements", lambda body: field(body, "id", _text),
                             json.dumps(payload).encode())

    def measure_targets(self, jobs: Iterable[Job]) -> Iterator[dict[str, list[float]]]:
        """Keeps up to in_flight measurements outstanding. Each round polls
        every outstanding measurement once, in job order, then sleeps
        POLL_INTERVAL_S once if any was pending; freed slots are refilled
        before the next round. A measurement still pending at its
        POLL_ATTEMPTS-th poll raises BackendUnavailable, which abandons the
        others in flight."""
        jobs = list(jobs)
        outstanding: list[tuple[int, str, int]] = []  # (job, measurement id, polls), job order
        finished: dict[int, dict[str, list[float]]] = {}  # held until every earlier job's are out
        posted = first = 0  # the next job to post, the next to hand on
        while first < len(jobs):
            if self.session is None:  # a closed transport would quietly reconnect
                raise RuntimeError("LiveBackend measured after close()")
            while posted < len(jobs) and len(outstanding) < self.in_flight:
                target, vantages = jobs[posted]
                if vantages:  # the API rejects an empty probe_ids
                    mid = self.create_measurement(target, [v.id for v in vantages])
                    outstanding.append((posted, mid, 0))
                else:
                    finished[posted] = {}
                posted += 1
            still = []
            for i, mid, polls in outstanding:
                replies = self._request("GET", f"/measurements/{mid}/results",
                                        functools.partial(_replies, vantages=jobs[i][1]))
                if replies is not None:
                    finished[i] = replies
                elif polls + 1 < POLL_ATTEMPTS:
                    still.append((i, mid, polls + 1))
                else:
                    raise BackendUnavailable(f"measurement {mid} never finished")
            outstanding = still
            while first in finished:
                yield finished.pop(first)
                first += 1
            if outstanding:
                self.rounds += 1
                self.sleep(POLL_INTERVAL_S)


# The live API's answers, read through registry.field as docs/live-api.md
# lays them out: each raises GeoAuditError at the first value not that shape.

def _numbers(value) -> list[float]:
    """A JSON list of numbers, each as a float."""
    return [_number(x) for x in _list(value)]


def _replies(body, vantages: Sequence[VantagePoint]) -> dict[str, list[float]] | None:
    """The replies in a results answer, or None while it is pending. Each
    row comes from a probe the measurement asked for, at most once."""
    status = field(body, "status", lambda v: v)
    if status == "pending":
        return None
    if status != "done":
        raise GeoAuditError(f"status {status!r}")
    asked = {v.id for v in vantages}
    out = {}
    # a probe missing from results got no reply, as does one with "rtts_ms": []
    for row in field(body, "results", _list, ()):
        probe = field(row, "probe_id", _text)
        if probe not in asked:
            raise GeoAuditError(f"probe_id {probe!r} was not asked for")
        if probe in out:
            raise GeoAuditError(f"probe_id {probe!r} answers twice")
        out[probe] = field(row, "rtts_ms", _numbers)
    return out


def target_results(target: Addr, vantages: Iterable[VantagePoint],
                   replies: Mapping[str, Sequence[float]]) -> list[MeasurementResult]:
    """One result per vantage, by vantage id, with at most SAMPLES_PER_PAIR
    of its replies; a vantage absent from replies gets an empty result. An
    RTT that is negative or not finite raises GeoAuditError."""
    out = []
    for vantage_id in sorted(v.id for v in vantages):
        rtts = replies.get(vantage_id, ())
        for rtt in rtts:
            if not 0 <= rtt < math.inf:
                raise GeoAuditError(f"{vantage_id} -> {target}: {rtt} ms")
        out.append(MeasurementResult(vantage_id, target, tuple(rtts[:SAMPLES_PER_PAIR])))
    return out


def run_plan(
    prefix: Prefix,
    targets: Iterable[Addr],
    vantages: Iterable[VantagePoint],
    backend: Backend,
) -> list[MeasurementResult]:
    """A plan measured pair by pair through backend.measure (see the module
    docstring), in target_results order, targets as planned; prefix is
    unused."""
    vantages = list(vantages)
    return [res for target in targets
            for res in target_results(target, vantages,
                                      {v.id: backend.measure(v, target) for v in vantages})]
