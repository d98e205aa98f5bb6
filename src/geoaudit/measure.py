"""Latency measurement: replayed archives, a synthetic world, or a live API.

Every backend answers one question: the RTT samples (up to three) between a
vantage and a target. run_plan fans one prefix's plan out across vantages
and targets; per-vantage failures become empty results so one dead probe
never sinks a prefix.
"""

from __future__ import annotations

import functools
import random
import threading
import time
from dataclasses import dataclass, field
from typing import IO, Callable, Iterable, Mapping, Protocol

from .errors import BackendUnavailable, NegativeRtt, ReplayMiss, UnknownTarget
from .geo import C_KM_PER_S, DEFAULT_PROPAGATION_FACTOR, haversine_km
from .registry import Addr, Prefix, load_jsonl, parse_address, write_jsonl
from .vantage import VantagePoint

SAMPLES_PER_PAIR = 3


@dataclass(frozen=True)
class MeasurementResult:
    vantage_id: str
    target: Addr
    rtts_ms: tuple[float, ...]
    timestamp: float = 0.0

    def to_json(self, fmt: Callable[[Addr], str] = str) -> dict:
        return {
            "vantage_id": self.vantage_id,
            "target": fmt(self.target),
            "rtts_ms": list(self.rtts_ms),
            "timestamp": self.timestamp,
        }

    @classmethod
    def from_json(cls, obj: Mapping,
                  parse: Callable[[str], Addr] = parse_address) -> "MeasurementResult":
        return cls(
            vantage_id=str(obj["vantage_id"]),
            target=parse(obj["target"]),
            rtts_ms=tuple(float(x) for x in obj["rtts_ms"]),
            timestamp=float(obj.get("timestamp", 0.0)),
        )


# A capture repeats each target once per vantage, so the codec formats or
# parses each distinct target once, through a cache that lives for one call.

def write_results(results: Iterable[MeasurementResult], fp: IO[str]) -> int:
    fmt = functools.cache(str)
    return write_jsonl(results, fp, lambda res: res.to_json(fmt))


def load_results(fp: IO[str]) -> list[MeasurementResult]:
    """Results for the same target share one address object."""
    parse = functools.cache(parse_address)
    return load_jsonl(lambda obj: MeasurementResult.from_json(obj, parse), fp)


class Backend(Protocol):
    def measure(self, vantage: VantagePoint, target: Addr) -> list[float]:
        """RTT samples in ms; empty when the target did not answer."""
        ...


@dataclass
class SyntheticWorld:
    """Ground truth for the simulator: target coordinates, an unresponsive
    set, and additive uniform noise on top of great-circle baseline RTTs.

    Noise only ever adds delay, so a simulated RTT never implies a distance
    shorter than the true one."""

    target_locations: dict[Addr, tuple[float, float]] = field(default_factory=dict)
    unresponsive: set[Addr] = field(default_factory=set)
    noise_ms: float = 0.0
    propagation_factor: float = DEFAULT_PROPAGATION_FACTOR
    seed: int = 0

    def base_rtt_ms(self, vantage: VantagePoint, target: Addr) -> float:
        lat, lon = self.target_locations[target]
        dist = haversine_km(vantage.lat, vantage.lon, lat, lon)
        return 2.0 * dist / (self.propagation_factor * (C_KM_PER_S / 1000.0))

    def rtts(self, vantage: VantagePoint, target: Addr) -> list[float]:
        if target not in self.target_locations:
            if target in self.unresponsive:
                return []
            raise UnknownTarget(f"no location for {target}")
        if target in self.unresponsive:
            return []
        base = self.base_rtt_ms(vantage, target)
        if self.noise_ms <= 0:
            return [base] * SAMPLES_PER_PAIR
        rng = random.Random(f"{self.seed}:{vantage.id}:{target}")
        return [base + rng.uniform(0.0, self.noise_ms) for _ in range(SAMPLES_PER_PAIR)]

    def to_json(self) -> dict:
        return {
            "noise_ms": self.noise_ms,
            "propagation_factor": self.propagation_factor,
            "targets": {str(a): [lat, lon] for a, (lat, lon) in sorted(
                self.target_locations.items(), key=lambda kv: (kv[0].version, int(kv[0])))},
            "unresponsive": sorted((str(a) for a in self.unresponsive)),
        }

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


class SimulateBackend:
    def __init__(self, world: SyntheticWorld):
        self.world = world

    def measure(self, vantage: VantagePoint, target: Addr) -> list[float]:
        return self.world.rtts(vantage, target)


class ReplayBackend:
    """Serves RTTs from a result archive keyed by (vantage, target)."""

    def __init__(self, results: Iterable[MeasurementResult]):
        self._index: dict[tuple[str, Addr], tuple[float, ...]] = {}
        for res in results:
            self._index[(res.vantage_id, res.target)] = res.rtts_ms

    def measure(self, vantage: VantagePoint, target: Addr) -> list[float]:
        try:
            return list(self._index[(vantage.id, target)])
        except KeyError:
            raise ReplayMiss(f"no archived result for {vantage.id} -> {target}") from None


class LiveBackend:
    """Client for a ping-measurement HTTP API (see docs/live-api.md).

    Retries transient failures with exponential backoff (base 2 s, doubling,
    capped at 60 s) and gives up with BackendUnavailable after max_retries.
    Without an injected session, each thread gets a requests.Session of its
    own, so concurrent workers never share one connection pool."""

    def __init__(
        self,
        base_url: str,
        api_key: str,
        tag: str | None = None,
        session=None,
        max_retries: int = 3,
        base_delay_s: float = 2.0,
        max_delay_s: float = 60.0,
        poll_interval_s: float = 2.0,
        poll_attempts: int = 30,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self._injected = session
        self._local = threading.local()
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key
        self.tag = tag
        self.max_retries = max_retries
        self.base_delay_s = base_delay_s
        self.max_delay_s = max_delay_s
        self.poll_interval_s = poll_interval_s
        self.poll_attempts = poll_attempts
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
        delay = self.base_delay_s
        last_error = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                self.sleep(min(delay, self.max_delay_s))
                delay *= 2
            try:
                resp = self.session.request(method, url, json=payload, headers=self._headers())
            except Exception as exc:
                last_error = exc
                continue
            if resp.status_code == 200:
                return resp.json()
            if resp.status_code in (429, 500, 502, 503, 504):
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
        for _ in range(self.poll_attempts):
            body = self._request("GET", f"/measurements/{measurement_id}/results")
            if body.get("status") == "done":
                return {str(row["probe_id"]): [float(x) for x in row["rtts_ms"]]
                        for row in body.get("results", [])}
            self.sleep(self.poll_interval_s)
        raise BackendUnavailable(f"measurement {measurement_id} never finished")

    def measure(self, vantage: VantagePoint, target: Addr) -> list[float]:
        mid = self.create_measurement(target, [vantage.id])
        return self.fetch_results(mid).get(vantage.id, [])


def run_plan(
    prefix: Prefix,
    targets: Iterable[Addr],
    vantages: Iterable[VantagePoint],
    backend: Backend,
) -> list[MeasurementResult]:
    """Measure every vantage/target pair in a plan.

    Per-vantage misses (replay gaps, probe errors) come back as empty
    results; each pair keeps at most SAMPLES_PER_PAIR replies.
    BackendUnavailable is fatal and propagates."""
    out: list[MeasurementResult] = []
    ordered_vantages = list(vantages)
    for target in targets:
        for vantage in ordered_vantages:
            try:
                rtts = backend.measure(vantage, target)
            except (ReplayMiss, UnknownTarget):
                rtts = []
            for rtt in rtts:
                if rtt < 0:
                    raise NegativeRtt(f"{vantage.id} -> {target}: {rtt} ms")
            out.append(MeasurementResult(vantage.id, target, tuple(rtts[:SAMPLES_PER_PAIR])))
    out.sort(key=lambda r: (r.target.version, int(r.target), r.vantage_id))
    return out
