"""Target selection: hitlist loading, alias exclusion, per-prefix plans.

Each hitlist address is matched to its most specific registered prefix;
every prefix keeps at most two targets (the lowest addresses), so the probe
budget stays bounded and no address is probed for two prefixes.
"""

from __future__ import annotations

import random
from operator import attrgetter
from typing import IO, Iterable, NamedTuple

from .errors import GeoAuditError
from .index import PrefixIndex
from .registry import (
    Addr,
    Prefix,
    Registration,
    load_jsonl,
    parse_address,
    parse_as,
    parse_prefix,
    read_csv,
    read_tokens,
    record,
    refuse_repeats,
    winners_by_prefix,
    write_jsonl,
)

TARGETS_PER_PREFIX = 2


class HitlistEntry(NamedTuple):
    addr: Addr
    score: int | None = None


def _address(text: str, version: int) -> Addr:
    """A hitlist holds one family: an address of the other is refused, so a
    v4 address never rides the v6 hitlist past min_score, unscored."""
    addr = parse_address(text)
    if addr.version != version:
        raise GeoAuditError(f"{addr} is not an IPv{version} address")
    return addr


def load_hitlist_v4(fp: IO[str]) -> list[HitlistEntry]:
    """CSV with an addr,score header; addr is an IPv4 address, score an integer."""
    return read_csv(fp, ["addr", "score"], lambda row: HitlistEntry(
        addr=_address(row["addr"], 4), score=parse_as(int, row["score"])))


def load_hitlist_v6(fp: IO[str]) -> list[HitlistEntry]:
    """One IPv6 address per line; no responsiveness scores."""
    return list(read_tokens(fp, lambda token: HitlistEntry(addr=_address(token, 6), score=None)))


def load_prefix_list(fp: IO[str]) -> list[Prefix]:
    """One prefix per line (read_tokens); used for alias/anycast/lease lists."""
    return list(read_tokens(fp, parse_prefix))


def exclude_aliased(
    entries: Iterable[HitlistEntry],
    aliased: Iterable[Prefix],
) -> tuple[list[HitlistEntry], int]:
    """Drop entries that fall inside any aliased prefix."""
    index = PrefixIndex((prefix, True) for prefix in aliased)
    entries = list(entries)
    kept = [entry for entry in entries if index.longest_match(entry.addr) is None]
    return kept, len(entries) - len(kept)


@record
class TargetPlan(NamedTuple):
    registration: Registration
    targets: tuple[Addr, ...]

    @property
    def prefix(self) -> Prefix:
        return self.registration.prefix


def write_plans(plans: Iterable[TargetPlan], fp: IO[str]) -> int:
    return write_jsonl(plans, fp)


def load_plans(fp: IO[str]) -> list[TargetPlan]:
    """A prefix or a target in two plans is refused, as build_target_plans
    never writes one, so an audit measures each target once."""
    plans = load_jsonl(TargetPlan.from_json, fp)
    refuse_repeats((plan.prefix for plan in plans), "prefix")
    refuse_repeats((target for plan in plans for target in plan.targets), "target")
    return plans


def registrations_by_prefix(regs: Iterable[Registration]) -> dict[Prefix, Registration]:
    """One registration per prefix, in first-seen order: the winner of
    registry.winners_by_prefix, flagged cross_rir_duplicate if two or more
    rows register it. Planning and the report both join on this winner."""
    return {prefix: reg.with_flag("cross_rir_duplicate") if n > 1 else reg
            for prefix, (reg, n) in winners_by_prefix(regs).items()}


def build_target_plans(
    regs: Iterable[Registration],
    entries: Iterable[HitlistEntry],
    min_score: int = 0,
) -> list[TargetPlan]:
    """Assign hitlist addresses to their most specific registered prefix.

    Scored entries below min_score are dropped; unscored (IPv6) entries
    always pass. At most TARGETS_PER_PREFIX lowest addresses per prefix."""
    index = PrefixIndex(registrations_by_prefix(regs).items())
    per_prefix: dict[Prefix, tuple[Registration, list[Addr]]] = {}
    for entry in entries:
        if entry.score is not None and entry.score < min_score:
            continue
        hit = index.longest_match(entry.addr)
        if hit is None:
            continue
        _, reg = hit
        per_prefix.setdefault(reg.prefix, (reg, []))[1].append(entry.addr)

    plans = []
    for prefix in sorted(per_prefix):
        reg, addrs = per_prefix[prefix]
        addrs = sorted(set(addrs))[:TARGETS_PER_PREFIX]
        plans.append(TargetPlan(registration=reg, targets=tuple(addrs)))
    return plans


def sample_plans(plans: Iterable[TargetPlan], fraction: float, seed: int) -> list[TargetPlan]:
    """Deterministic subsample: sorts by prefix, keeps round(n * fraction).

    Sorting first makes the choice independent of input order."""
    ordered = sorted(plans, key=attrgetter("prefix"))
    k = round(len(ordered) * fraction)
    picked = random.Random(seed).sample(ordered, k)
    picked.sort(key=attrgetter("prefix"))
    return picked
