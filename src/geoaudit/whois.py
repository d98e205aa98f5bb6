"""Bulk WHOIS dump ingestion.

Dumps are blank-line-delimited key/value records. Per-registry attribute
names come from a dialect table (see data/dialects.ini); everything after
key lookup is shared. Network records become Registration rows, organization
records feed a side table used to resolve org countries afterwards.
"""

from __future__ import annotations

import datetime
import functools
import re
import types
import zlib
from typing import IO, Iterable, Iterator, Mapping, NamedTuple

from .errors import GeoAuditError
from .registry import (
    Prefix,
    Registration,
    Rir,
    Status,
    _date,
    bundled,
    duplicate_rank,
    open_text,  # callers still reach it as whois.open_text
    parse_address,
    parse_as,
    parse_prefix,
    range_to_cidrs,
    read_ini,
)


class Dialect(NamedTuple):
    rir: Rir
    net_keys: tuple[str, ...]
    status_keys: tuple[str, ...]
    org_ref_keys: tuple[str, ...]
    country_keys: tuple[str, ...]
    updated_keys: tuple[str, ...]
    org_id_keys: tuple[str, ...]
    org_name_keys: tuple[str, ...]
    org_country_keys: tuple[str, ...]
    maintainer_keys: tuple[str, ...]
    skip_markers: tuple[str, ...]
    transfer_markers: tuple[str, ...]


# every field but rir is a comma-separated list in the dialect table
_DIALECT_LIST_KEYS = Dialect._fields[1:]


def load_dialects(fp: IO[str]) -> dict[Rir, Dialect]:
    parser = read_ini(fp)
    out: dict[Rir, Dialect] = {}
    for section in parser.sections():
        rir = parse_as(Rir, section.upper())
        fields: dict[str, tuple[str, ...]] = {}
        for key in _DIALECT_LIST_KEYS:
            raw = parser.get(section, key, fallback="")
            fields[key] = tuple(part.strip().lower() for part in raw.split(",") if part.strip())
        if not fields["net_keys"]:
            raise GeoAuditError(f"dialect {section} has no net_keys")
        out[rir] = Dialect(rir=rir, **fields)
    return out


@functools.cache
def default_dialects() -> Mapping[Rir, Dialect]:
    """The bundled table, parsed once per process. Every caller shares it,
    so it is read-only."""
    return types.MappingProxyType(load_dialects(bundled("dialects.ini")))


def dialect_for(rir: Rir, dialects: Mapping[Rir, Dialect] | None = None) -> Dialect:
    table = dialects if dialects is not None else default_dialects()
    try:
        return table[rir]
    except KeyError:
        raise GeoAuditError(f"no dialect for {rir}") from None


class RawRecord:
    """One record as an ordered list of (key, value) pairs. Keys keep their
    original spelling; matching is case-insensitive, against lower-case
    wanted keys."""

    def __init__(self, pairs: list[tuple[str, str]]):
        self.pairs = pairs
        # lower-cased key -> its first value; reversed, so the first pair wins
        self._first = {key.lower(): value for key, value in reversed(pairs)}

    def first(self, keys: Iterable[str]) -> str | None:
        for want in keys:
            value = self._first.get(want)
            if value is not None:
                return value
        return None

    def all(self, keys: Iterable[str]) -> list[str]:
        wanted = set(keys)
        return [value for key, value in self.pairs if key.lower() in wanted]

    def has_any(self, keys: Iterable[str]) -> bool:
        return any(want in self._first for want in keys)

    def values(self) -> list[str]:
        return [value for _, value in self.pairs]


def iter_raw_records(stream: Iterable[str]) -> Iterator[RawRecord]:
    """Split a dump stream into records on blank lines.

    Comment lines (# or %) are dropped; continuation lines (leading
    whitespace or +) extend the previous value.
    """
    pairs: list[tuple[str, str]] = []
    try:
        for line in stream:
            # a line keeps its newline: every key and value is stripped anyway
            if not line or line.isspace():
                if pairs:
                    yield RawRecord(pairs)
                    pairs = []
                continue
            head = line[0]
            if head == "#" or head == "%":
                continue
            if head in " \t+" and pairs:
                key, value = pairs[-1]
                pairs[-1] = (key, (value + " " + line.lstrip(" \t+").strip()).strip())
                continue
            if ":" not in line:
                continue
            key, _, value = line.partition(":")
            pairs.append((key.strip(), value.strip()))
    except (OSError, EOFError, zlib.error) as exc:
        # truncated gzip surfaces as EOFError, and a corrupt body as zlib.error
        raise GeoAuditError(f"cannot read dump: {exc}") from None
    if pairs:
        yield RawRecord(pairs)


def normalize_status(text: str | None) -> Status:
    """Collapse the registry status zoo onto three values. Anything with an
    alloc token is Allocated, an assign token Assigned, the rest legacy or
    unknown."""
    if not text:
        return Status.LEGACY_OR_UNKNOWN
    lowered = text.lower()
    if "alloc" in lowered:
        return Status.ALLOCATED
    if "assign" in lowered:
        return Status.ASSIGNED
    return Status.LEGACY_OR_UNKNOWN


_DATE_PATTERNS = ("%Y-%m-%d", "%Y%m%d", "%Y-%m-%dT%H:%M:%SZ")
# the shapes registries write, in ASCII digits: YYYY-MM-DD, its UTC
# timestamp and YYYYMMDD. strptime reads such a token as this date exactly
# when datetime.date() accepts its fields; else no pattern and no
# fromisoformat reads it.
_FAST_DATE = re.compile(r"(\d{4})-(\d\d)-(\d\d)(?:T\d\d:\d\d:\d\dZ)?|(\d{4})(\d\d)(\d\d)", re.ASCII)


def parse_date(text: str | None) -> datetime.date | None:
    # RPSL changed attributes put an email before the date, so every
    # whitespace token is a candidate
    if not text:
        return None
    for token in text.strip().split():
        fast = _FAST_DATE.fullmatch(token)
        if fast:
            year, month, day = fast.group(1, 2, 3) if fast.group(1) else fast.group(4, 5, 6)
            try:
                return datetime.date(int(year), int(month), int(day))
            except ValueError:
                continue
        if token[:4].isdecimal():  # every pattern starts with %Y, four digits
            for pattern in _DATE_PATTERNS:
                try:
                    return datetime.datetime.strptime(token, pattern).date()
                except ValueError:
                    continue
        if "T" in token:
            try:  # YYYY-MM-DD only: 3.11+ fromisoformat also reads 20210304, 3.10 does not
                return _date(token.split("T", 1)[0])
            except GeoAuditError:
                pass
    return None


class IngestReport:
    """Counters for one dump, each 0 to begin with. The identity

        registrations_emitted + duplicates_dropped + not_managed_skipped
            + malformed_skipped == net_records_read + split_extra_blocks

    holds for every parse; see check_identity()."""

    __slots__ = ("rir", "net_records_read", "org_records_read", "registrations_emitted",
                 "duplicates_dropped", "not_managed_skipped", "malformed_skipped",
                 "non_cidr_ranges_split", "split_extra_blocks", "unresolved_orgs",
                 "circular_refs_dropped", "transfers_dropped")

    def __init__(self, rir: Rir):
        self.rir = rir
        for name in self.__slots__[1:]:
            setattr(self, name, 0)

    def check_identity(self) -> bool:
        produced = (self.registrations_emitted + self.duplicates_dropped
                    + self.not_managed_skipped + self.malformed_skipped)
        return produced == self.net_records_read + self.split_extra_blocks


def _pad_short_v4(text: str) -> str:
    # LACNIC writes 45.5.160/22 for 45.5.160.0/22
    addr, _, plen = text.partition("/")
    dots = addr.count(".")
    if 0 < dots < 3 and ":" not in addr:
        addr = addr + ".0" * (3 - dots)
    return f"{addr}/{plen}"


def _parse_net_value(value: str) -> list[Prefix]:
    """Parse a net attribute value (a range, a CIDR or a bare address) into
    CIDR blocks."""
    value = value.strip()
    if " - " in value or (" " not in value and "-" in value and "/" not in value and ":" not in value):
        start, _, end = value.partition("-")
        return range_to_cidrs(parse_address(start), parse_address(end))
    if "/" in value:
        return [parse_prefix(_pad_short_v4(value))]
    # a bare address registers the single-host block
    addr = parse_address(value)
    return [Prefix((addr.version, int(addr), addr.max_prefixlen))]


# a registry name at the start of a word: "ripencc" is RIPE, "clearing" is not ARIN
_REGISTRY_WORD = re.compile(r"\b(arin|ripe|apnic|lacnic|afrinic)")
_COUNTRY = re.compile(r"([A-Za-z]{2})\b")  # "DE # Germany", "us", "US, CA"; not "China"


def _find_transfer(lowered_values: Iterable[str], markers: tuple[str, ...]) -> Rir | None:
    """The registry named first after a transfer marker, if any."""
    for lowered in lowered_values:
        for marker in markers:
            pos = lowered.find(marker)
            if pos >= 0 and (match := _REGISTRY_WORD.search(lowered, pos + len(marker))):
                return Rir(match[1].upper())
    return None


def _country(raw: str | None) -> str | None:
    """The country code a WHOIS value starts with: two letters standing alone."""
    match = _COUNTRY.match(raw.strip()) if raw else None
    return match[1].upper() if match else None


def parse_bulk_whois(
    stream: Iterable[str],
    rir: Rir,
    dialects: Mapping[Rir, Dialect] | None = None,
) -> tuple[list[Registration], dict[str, str | None], IngestReport]:
    """Parse one registry dump into registrations plus {org_id: country or None}.

    Within a dump, duplicate records for the same prefix collapse to the
    one with the highest registry.duplicate_rank: the most recently updated,
    then the larger org_id, then the larger content, whatever the line order.
    """
    dialect = dialect_for(rir, dialects)
    report = IngestReport(rir=rir)
    provisional: list[Registration] = []
    orgs: dict[str, str | None] = {}

    for rec in iter_raw_records(stream):
        if rec.has_any(dialect.net_keys):
            report.net_records_read += 1
            lowered = [value.lower() for value in rec.values()]
            if any(m in v for v in lowered for m in dialect.skip_markers):
                report.not_managed_skipped += 1
                continue
            raw_net = rec.first(dialect.net_keys)
            try:
                blocks = _parse_net_value(raw_net)
            except GeoAuditError:
                report.malformed_skipped += 1
                continue
            if len(blocks) > 1:
                report.non_cidr_ranges_split += 1
                report.split_extra_blocks += len(blocks) - 1

            status = normalize_status(rec.first(dialect.status_keys))

            org_ref = rec.first(dialect.org_ref_keys)
            country = _country(rec.first(dialect.country_keys))
            updated = parse_date(rec.first(dialect.updated_keys))

            flags: list[str] = []
            if len(blocks) > 1:
                flags.append("split_from_range")
            for maint in dict.fromkeys(rec.all(dialect.maintainer_keys)):
                flags.append(f"mnt:{maint}")
            transfer_dest = _find_transfer(lowered, dialect.transfer_markers)
            if transfer_dest is not None:
                flags.append(f"transfer_to:{transfer_dest.value}")

            provisional += [Registration(prefix=block, rir=rir, org_id=org_ref, org_country=country,
                                         status=status, last_updated=updated, flags=tuple(flags))
                            for block in blocks]
        elif rec.has_any(dialect.org_id_keys) and rec.has_any(dialect.org_name_keys):
            report.org_records_read += 1
            orgs[rec.first(dialect.org_id_keys)] = _country(rec.first(dialect.org_country_keys))

    # collapse duplicate prefixes: the highest duplicate_rank wins
    best: dict[Prefix, Registration] = {}
    for reg in provisional:
        key = reg.prefix
        if key not in best or duplicate_rank(reg) > duplicate_rank(best[key]):
            best[key] = reg
    report.duplicates_dropped = len(provisional) - len(best)

    emitted = [best[prefix] for prefix in sorted(best)]
    report.registrations_emitted = len(emitted)
    return emitted, orgs, report


def link_organizations(
    regs: Iterable[Registration],
    orgs: dict[str, str | None],
) -> tuple[list[Registration], int]:
    """Resolve org references into org_country. An org record's country wins
    over an inline one, which survives where the org has none or is unknown.
    Returns the rewritten rows and the count of dangling references."""
    out: list[Registration] = []
    unresolved = 0
    for reg in regs:
        country = orgs.get(reg.org_id) if reg.org_id else None
        if country:
            out.append(reg._replace(org_country=country))
            continue
        if reg.org_id and reg.org_id not in orgs:
            unresolved += 1
            reg = reg.with_flag("org_unresolved")
        if reg.org_country is None:
            reg = reg.with_flag("no_org_country")
        out.append(reg)
    return out, unresolved


def _transfer_dest(reg: Registration) -> Rir | None:
    for flag in reg.flags:
        if flag.startswith("transfer_to:"):
            return Rir(flag.split(":", 1)[1])
    return None


def drop_circular_transfers(
    regs_by_rir: dict[Rir, list[Registration]],
) -> tuple[dict[Rir, list[Registration]], dict[Rir, int], dict[Rir, int]]:
    """Resolve transfer annotations across dumps.

    A record annotated as transferred away is dropped from its source dump.
    When two dumps each claim the same prefix was transferred to the other,
    both records are dropped and counted as circular."""
    annotated: dict[tuple[Rir, Prefix], Rir] = {}
    for rir, regs in regs_by_rir.items():
        for reg in regs:
            dest = _transfer_dest(reg)
            if dest is not None:
                annotated[(rir, reg.prefix)] = dest

    circular: dict[Rir, int] = {rir: 0 for rir in regs_by_rir}
    transferred: dict[Rir, int] = {rir: 0 for rir in regs_by_rir}
    out: dict[Rir, list[Registration]] = {}
    for rir, regs in regs_by_rir.items():
        kept: list[Registration] = []
        for reg in regs:
            dest = _transfer_dest(reg)
            if dest is None:
                kept.append(reg)
                continue
            if annotated.get((dest, reg.prefix)) == rir:
                circular[rir] += 1
            else:
                transferred[rir] += 1
        out[rir] = kept
    return out, circular, transferred
