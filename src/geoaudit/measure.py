"""Latency measurement: replayed archives, a synthetic world, or a live API.

Every backend answers one question: the RTT samples (up to three) from each
of a plan's vantages to one target, in one call (one live measurement
carrying every planned probe). run_plan makes that call once per target of
a prefix's plan; a vantage without a reply (a replay gap, a probe error)
becomes an empty result, so one dead probe never sinks a prefix. An RTT
that is negative or not finite fails the run on every backend.

write_results and load_results are the capture codec: they write and read
the same bytes as the generic JSONL codec in registry, only faster.
"""

from __future__ import annotations

import functools
import json
import math
import random
import threading
import time
from dataclasses import dataclass, field
from operator import attrgetter
from typing import IO, Callable, Iterable, Mapping, Sequence

from .errors import BackendUnavailable, NegativeRtt, UnknownTarget
from .geo import C_KM_PER_S, DEFAULT_PROPAGATION_FACTOR, haversine_km
from .registry import Addr, Prefix, load_jsonl, parse_address
from .vantage import VantagePoint

SAMPLES_PER_PAIR = 3
RETRY_STATUS = (429, 500, 502, 503, 504)
POST_RETRY_STATUS = (429, 503)  # the API answered without creating a measurement
MAX_RETRIES = 3  # the live client's policy is fixed (docs/live-api.md)
RETRY_BASE_DELAY_S = 2.0  # doubled after each retry: sleeps of 2, 4 and 8 s
POLL_INTERVAL_S = 2.0
POLL_ATTEMPTS = 30


@dataclass(frozen=True, slots=True)
class MeasurementResult:
    vantage_id: str
    target: Addr
    rtts_ms: tuple[float, ...]

    def to_json(self) -> dict:
        # no backend stamps a measurement; the capture format keeps the key
        return {
            "vantage_id": self.vantage_id,
            "target": str(self.target),
            "rtts_ms": list(self.rtts_ms),
            "timestamp": 0.0,
        }

    @classmethod
    def from_json(cls, obj: Mapping, parse: Callable[[str], Addr] = parse_address,
                  name: Callable[[object], str] = str) -> "MeasurementResult":
        return cls(name(obj["vantage_id"]), parse(obj["target"]), tuple(map(float, obj["rtts_ms"])))


# A capture repeats each target once per vantage, so the codec formats or
# parses each distinct target and vantage id once per call.

def write_results(results: Iterable[MeasurementResult], fp: IO[str]) -> int:
    """One sorted-key JSON line per result, the bytes write_jsonl writes.

    Lines are put together from fragments, each target and vantage id
    encoded once and each sample spelled by float.__repr__, as the encoder
    spells it. A line with a sample that is not a finite float goes through
    the generic encoder, which spells NaN and Infinity its own way."""
    encode = json.JSONEncoder(sort_keys=True).encode
    tails: dict[str, str] = {}
    target = middle = None
    n = 0
    for res in results:
        if res.target is not target:
            target = res.target
            middle = f'], "target": {encode(str(target))}, "timestamp": 0.0'
        tail = tails.get(res.vantage_id)
        if tail is None:
            tail = tails[res.vantage_id] = f', "vantage_id": {encode(res.vantage_id)}}}\n'
        try:
            samples = ", ".join(map(float.__repr__, res.rtts_ms))
        except TypeError:
            samples = "n"
        if "n" in samples:  # nan, inf or not a float
            fp.write(encode(res.to_json()) + "\n")
        else:
            fp.write('{"rtts_ms": [' + samples + middle + tail)
        n += 1
    return n


def load_results(fp: IO[str]) -> list[MeasurementResult]:
    """Results for the same target share one address object, and results
    from the same vantage one id string."""
    parse, name = functools.cache(parse_address), functools.cache(str)
    return load_jsonl(lambda obj: MeasurementResult.from_json(obj, parse, name), fp)


class Backend:
    """A measurement backend. measure_target is the primitive; measure is
    measure_target for one vantage, kept for callers that work pair by pair."""

    def measure_target(self, target: Addr,
                       vantages: Sequence[VantagePoint]) -> Mapping[str, Sequence[float]]:
        """RTT samples in ms from each vantage to target, by vantage id; a
        vantage absent from the mapping got no reply."""
        raise NotImplementedError

    def measure(self, vantage: VantagePoint, target: Addr) -> list[float]:
        """RTT samples in ms; empty when the vantage got no reply."""
        return list(self.measure_target(target, [vantage]).get(vantage.id, ()))


@dataclass
class SyntheticWorld:
    """Ground truth for the simulator: target coordinates, an unresponsive
    set, and additive uniform noise on top of great-circle baseline RTTs.

    Noise only ever adds delay, so a simulated RTT never implies a distance
    shorter than the true one. The noise of each (vantage, target) pair is
    seeded from the pair alone, so it does not depend on which other
    vantages measure the target in the same call."""

    target_locations: dict[Addr, tuple[float, float]] = field(default_factory=dict)
    unresponsive: set[Addr] = field(default_factory=set)
    noise_ms: float = 0.0
    propagation_factor: float = DEFAULT_PROPAGATION_FACTOR
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.propagation_factor <= 1:
            raise ValueError(f"world propagation_factor is {self.propagation_factor}, must be in (0, 1]")
        if not 0 <= self.noise_ms < math.inf:
            raise ValueError(f"world noise_ms is {self.noise_ms}, must be finite and at least 0")

    def _base_rtt_ms(self, vantage: VantagePoint, lat: float, lon: float) -> float:
        dist = haversine_km(vantage.lat, vantage.lon, lat, lon)
        return 2.0 * dist / (self.propagation_factor * (C_KM_PER_S / 1000.0))

    def rtts_by_vantage(self, target: Addr,
                        vantages: Iterable[VantagePoint]) -> dict[str, list[float]]:
        """RTT samples from each vantage to target; {} when it is unresponsive,
        UnknownTarget when it has no location.

        The target is looked up and formatted once; one Random, reseeded per
        pair, draws the noise."""
        if target in self.unresponsive:
            return {}
        location = self.target_locations.get(target)
        if location is None:
            raise UnknownTarget(f"no location for {target}")
        lat, lon = location
        name = str(target)
        rng = None
        out = {}
        for vantage in vantages:
            base = self._base_rtt_ms(vantage, lat, lon)
            key = f"{self.seed}:{vantage.id}:{name}"
            if rng is None:
                rng = random.Random(key)
            else:
                rng.seed(key)  # the stream of random.Random(key)
            out[vantage.id] = [base + rng.uniform(0.0, self.noise_ms)
                               for _ in range(SAMPLES_PER_PAIR)]
        return out

    def rtts(self, vantage: VantagePoint, target: Addr) -> list[float]:
        return self.rtts_by_vantage(target, [vantage]).get(vantage.id, [])

    @classmethod
    def from_json(cls, obj: Mapping, seed: int = 0) -> "SyntheticWorld":
        return cls(
            target_locations={
                parse_address(a): (float(p[0]), float(p[1])) for a, p in obj.get("targets", {}).items()
            },
            unresponsive={parse_address(a) for a in obj.get("unresponsive", ())},
            noise_ms=float(obj.get("noise_ms", 0.0)),
            propagation_factor=float(obj.get("propagation_factor", DEFAULT_PROPAGATION_FACTOR)),
            seed=seed,
        )


class SimulateBackend(Backend):
    """Measures in a SyntheticWorld. unknown_targets counts the measurements
    of targets the world has no location for; each raises UnknownTarget."""

    def __init__(self, world: SyntheticWorld):
        self.world = world
        self.unknown_targets = 0
        self._lock = threading.Lock()

    def measure_target(self, target: Addr,
                       vantages: Sequence[VantagePoint]) -> dict[str, list[float]]:
        try:
            return self.world.rtts_by_vantage(target, vantages)
        except UnknownTarget:
            with self._lock:
                self.unknown_targets += 1
            raise


class ReplayBackend(Backend):
    """Serves RTTs from a result archive, indexed by target, then vantage.

    misses counts the planned (vantage, target) pairs the archive lacks;
    each comes back as no reply."""

    def __init__(self, results: Iterable[MeasurementResult]):
        self._index: dict[Addr, dict[str, tuple[float, ...]]] = {}
        target = replies = None
        for res in results:
            # a capture lists each target's results together: hash it once per run
            if res.target is not target:
                target = res.target
                replies = self._index.setdefault(target, {})
            replies[res.vantage_id] = res.rtts_ms
        self.misses = 0
        self._lock = threading.Lock()

    def measure_target(self, target: Addr,
                       vantages: Sequence[VantagePoint]) -> dict[str, tuple[float, ...]]:
        archived = self._index.get(target, {})
        replies = {v.id: archived[v.id] for v in vantages if v.id in archived}
        missed = sum(v.id not in archived for v in vantages)
        if missed:
            with self._lock:
                self.misses += missed
        return replies


class LiveBackend(Backend):
    """Client for a ping-measurement HTTP API (see docs/live-api.md).

    One target is one measurement carrying every planned probe. A transient
    failure is retried MAX_RETRIES times, after sleeps of 2, 4 and 8 s, then
    raises BackendUnavailable; a pending measurement is polled every
    POLL_INTERVAL_S, at most POLL_ATTEMPTS times. A POST is retried only
    when the API cannot have created the measurement, so a retry never pays
    for a second one. Without an injected session, each thread gets a
    requests.Session of its own, so concurrent workers never share one
    connection pool. Tests inject session and sleep."""

    def __init__(self, base_url: str, api_key: str, tag: str | None = None, session=None,
                 sleep: Callable[[float], None] = time.sleep):
        self._injected = session
        self._local = threading.local()
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key
        self.tag = tag
        self.sleep = sleep

    @property
    def session(self):
        """The injected session, or else this thread's own."""
        if self._injected is not None:
            return self._injected
        session = getattr(self._local, "session", None)
        if session is None:
            import requests

            session = self._local.session = requests.Session()
        return session

    def _headers(self) -> dict:
        return {"Authorization": f"Key {self.api_key}", "Content-Type": "application/json"}

    def _request(self, method: str, path: str, payload: dict | None = None) -> dict:
        url = f"{self.base_url}{path}"
        # a POST that may have reached the API is never sent again
        retry_status = POST_RETRY_STATUS if method == "POST" else RETRY_STATUS
        delay = RETRY_BASE_DELAY_S
        last_error = None
        for attempt in range(MAX_RETRIES + 1):
            if attempt:
                self.sleep(delay)
                delay *= 2
            try:
                resp = self.session.request(method, url, json=payload, headers=self._headers())
            except Exception as exc:
                if method == "POST" and not _never_connected(exc):
                    raise BackendUnavailable(
                        f"{method} {path} failed, not retried as the API may have "
                        f"created the measurement: {exc}") from exc
                last_error = exc
                continue
            if resp.status_code == 200:
                return resp.json()
            if resp.status_code in retry_status:
                last_error = RuntimeError(f"HTTP {resp.status_code}")
                continue
            raise BackendUnavailable(f"{method} {path} failed: HTTP {resp.status_code}")
        raise BackendUnavailable(f"{method} {path} failed after retries: {last_error}")

    def create_measurement(self, target: Addr, probe_ids: list[str]) -> str:
        payload = {
            "target": str(target),
            "probe_ids": probe_ids,
            "packets": SAMPLES_PER_PAIR,
        }
        if self.tag:
            payload["tag"] = self.tag
        body = self._request("POST", "/measurements", payload)
        return str(body["id"])

    def fetch_results(self, measurement_id: str) -> dict[str, list[float]]:
        for _ in range(POLL_ATTEMPTS):
            body = self._request("GET", f"/measurements/{measurement_id}/results")
            if body.get("status") == "done":
                return {str(row["probe_id"]): [float(x) for x in row["rtts_ms"]]
                        for row in body.get("results", [])}
            self.sleep(POLL_INTERVAL_S)
        raise BackendUnavailable(f"measurement {measurement_id} never finished")

    def measure_target(self, target: Addr,
                       vantages: Sequence[VantagePoint]) -> dict[str, list[float]]:
        if not vantages:  # the API rejects an empty probe_ids
            return {}
        return self.fetch_results(self.create_measurement(target, [v.id for v in vantages]))


def _never_connected(exc: Exception) -> bool:
    """True when a transport error shows the request never reached the API:
    the connection timed out or could not be opened."""
    import requests
    from urllib3.exceptions import NewConnectionError

    if isinstance(exc, requests.exceptions.ConnectTimeout):
        return True
    if not isinstance(exc, requests.exceptions.ConnectionError) or not exc.args:
        return False
    cause = exc.args[0]  # requests wraps urllib3's MaxRetryError, whose reason says why
    return isinstance(cause, NewConnectionError) or isinstance(
        getattr(cause, "reason", None), NewConnectionError)


def _measure_pairs(backend, target: Addr,
                   vantages: Sequence[VantagePoint]) -> dict[str, list[float]]:
    """measure_target over a backend that has only measure."""
    replies = {}
    for vantage in vantages:
        try:
            replies[vantage.id] = backend.measure(vantage, target)
        except UnknownTarget:
            pass
    return replies


def run_plan(
    prefix: Prefix,
    targets: Iterable[Addr],
    vantages: Iterable[VantagePoint],
    backend: Backend,
) -> list[MeasurementResult]:
    """Measure every vantage/target pair in a plan, one backend call per target.

    A backend without measure_target is measured pair by pair through
    measure. Misses (replay gaps, probe errors, unknown targets) come back as
    empty results; each pair keeps at most SAMPLES_PER_PAIR replies. Results
    come in measurement order: targets as planned, each target's results by
    vantage id. An RTT that is negative or not finite raises NegativeRtt;
    BackendUnavailable is fatal and propagates."""
    measure_target = getattr(backend, "measure_target", None) or functools.partial(
        _measure_pairs, backend)
    ordered_vantages = list(vantages)
    by_id = sorted(ordered_vantages, key=attrgetter("id"))  # the backend keeps the plan's order
    out = []
    for target in targets:
        try:
            replies = measure_target(target, ordered_vantages)
        except UnknownTarget:
            replies = {}
        for vantage in by_id:
            rtts = replies.get(vantage.id, ())
            for rtt in rtts:
                if not 0 <= rtt < math.inf:
                    raise NegativeRtt(f"{vantage.id} -> {target}: {rtt} ms")
            out.append(MeasurementResult(vantage.id, target, tuple(rtts[:SAMPLES_PER_PAIR])))
    return out
