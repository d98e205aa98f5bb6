"""Core registry domain types: RIRs, prefixes, registrations, the region map,
the file codecs every stage shares, and out-of-region organization counts.

Prefixes are plain ipaddress network objects (IPv4Network / IPv6Network),
always in canonical form: parsing rejects anything with host bits set.
"""

from __future__ import annotations

import csv
import datetime
import enum
import gzip
import io
import ipaddress
import json
from dataclasses import dataclass, replace
from importlib import resources
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .errors import GeoAuditError, InvertedRange, MalformedPrefix, MixedFamily, UnknownCountry

Prefix = ipaddress.IPv4Network | ipaddress.IPv6Network
Addr = ipaddress.IPv4Address | ipaddress.IPv6Address

# share of the speed of light at which probes are assumed to travel in fiber;
# geo and measure default to it, and so does the CLI's propagation_factor
DEFAULT_PROPAGATION_FACTOR = 2.0 / 3.0


class Rir(enum.Enum):
    """The five regional internet registries, declared in table order."""

    ARIN = "ARIN"
    RIPE = "RIPE"
    APNIC = "APNIC"
    LACNIC = "LACNIC"
    AFRINIC = "AFRINIC"

    def __str__(self) -> str:
        return self.value


class Status(enum.Enum):
    """Normalized registration status."""

    ALLOCATED = "allocated"
    ASSIGNED = "assigned"
    LEGACY_OR_UNKNOWN = "legacy_or_unknown"

    def __str__(self) -> str:
        return self.value


# the only spellings of an octet and of an IPv4 prefix length that the fast
# paths below accept: decimal without leading zeros, in range
_OCTETS = {str(n): n for n in range(256)}
_V4_LENGTHS = {str(n): n for n in range(33)}


def _dotted_quad(text: str) -> int | None:
    """The value of a canonical dotted quad such as 192.0.2.1, or None for any
    other text. ipaddress reads such a quad as this same value."""
    parts = text.split(".")
    if len(parts) != 4:
        return None
    try:
        a, b, c, d = [_OCTETS[part] for part in parts]
    except KeyError:
        return None
    return a << 24 | b << 16 | c << 8 | d


def parse_address(text: str) -> Addr:
    stripped = text.strip()
    value = _dotted_quad(stripped)
    if value is not None:
        return ipaddress.IPv4Address(value)
    try:
        return ipaddress.ip_address(stripped)
    except ValueError as exc:
        raise MalformedPrefix(f"bad address {text!r}: {exc}") from None


def parse_prefix(text: str) -> Prefix:
    """Parse a CIDR prefix, rejecting non-canonical forms (host bits set)."""
    stripped = text.strip()
    addr, _, length = stripped.partition("/")
    value = _dotted_quad(addr)
    plen = _V4_LENGTHS.get(length)
    if value is not None and plen is not None and not value & (0xFFFFFFFF >> plen):
        return ipaddress.IPv4Network((value, plen))
    try:
        return ipaddress.ip_network(stripped, strict=True)
    except ValueError as exc:
        raise MalformedPrefix(f"bad prefix {text!r}: {exc}") from None


def prefix_sort_key(prefix: Prefix) -> tuple[int, int, int]:
    return (prefix.version, int(prefix.network_address), prefix.prefixlen)


def address_sort_key(addr: Addr) -> tuple[int, int]:
    return (addr.version, int(addr))


def range_to_cidrs(lo: Addr, hi: Addr) -> list[Prefix]:
    """Split an inclusive address range into the minimal list of CIDR blocks.

    The result covers the range exactly, in address order, and no two
    adjacent blocks can be merged into a larger legal block.
    """
    if lo.version != hi.version:
        raise MixedFamily(f"range mixes IPv{lo.version} and IPv{hi.version}")
    if int(lo) > int(hi):
        raise InvertedRange(f"range start {lo} above end {hi}")
    return list(ipaddress.summarize_address_range(lo, hi))


def address_units(prefix: Prefix) -> float:
    """Size of a prefix in routing-table units: /24 equivalents for IPv4,
    /48 equivalents for IPv6. Fractional for more-specific prefixes."""
    base = 24 if prefix.version == 4 else 48
    return 2.0 ** (base - prefix.prefixlen)


def is_country_code(text: str) -> bool:
    return len(text) == 2 and text.isalpha() and text.isascii() and text == text.upper()


@dataclass(frozen=True)
class Registration:
    """One registered block from a bulk WHOIS dump, reduced to the fields
    the audit needs."""

    prefix: Prefix
    rir: Rir
    org_id: str | None = None
    org_country: str | None = None
    status: Status = Status.LEGACY_OR_UNKNOWN
    last_updated: datetime.date | None = None
    flags: tuple[str, ...] = ()

    def with_flag(self, flag: str) -> "Registration":
        if flag in self.flags:
            return self
        return replace(self, flags=self.flags + (flag,))

    def to_json(self) -> dict:
        return {
            "prefix": str(self.prefix),
            "rir": self.rir.value,
            "org_country": self.org_country,
            "org_id": self.org_id,
            "status": self.status.value,
            "last_updated": self.last_updated.isoformat() if self.last_updated else None,
            "flags": list(self.flags),
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "Registration":
        raw_date = obj.get("last_updated")
        return cls(
            prefix=parse_prefix(obj["prefix"]),
            rir=Rir(obj["rir"]),
            org_id=obj.get("org_id"),
            org_country=obj.get("org_country"),
            status=Status(obj.get("status", "legacy_or_unknown")),
            last_updated=datetime.date.fromisoformat(raw_date) if raw_date else None,
            flags=tuple(obj.get("flags", ())),
        )


T = TypeVar("T")


def write_jsonl(items: Iterable, fp: IO[str]) -> int:
    """Write each item.to_json() as one line of sorted-key JSON; returns the line count."""
    encode = json.JSONEncoder(sort_keys=True).encode  # json.dumps(..., sort_keys=True)
    n = 0
    for item in items:
        fp.write(encode(item.to_json()) + "\n")
        n += 1
    return n


_JSON_SPACE = " \t\n\r"


def load_jsonl(from_json: Callable[[Mapping], T], fp: IO[str]) -> list[T]:
    """Decode every non-blank line with from_json.

    Each line goes straight to the C scanner behind json.loads; a line it
    does not read as exactly one value is handed to json.loads. A line that
    is not JSON, or that from_json cannot read, raises ValueError naming
    its number."""
    scan = json.JSONDecoder().scan_once
    out = []
    for n, line in enumerate(fp, 1):
        text = line.strip(_JSON_SPACE)  # the whitespace json.loads skips
        if not text or text.isspace():  # blank, as str.strip sees it
            continue
        try:
            obj, end = scan(text, 0)
        except (StopIteration, ValueError):
            end = -1
        try:
            if end != len(text):
                obj = json.loads(line)
            out.append(from_json(obj))
        except (GeoAuditError, AttributeError, KeyError, TypeError, ValueError) as exc:
            what = f"no {exc}" if isinstance(exc, KeyError) else exc
            raise ValueError(f"line {n}: {what}") from None
    return out


def open_text(path: str) -> IO[str]:
    """Open a text file, decompressing gzip transparently (magic sniff)."""
    with open(path, "rb") as probe:
        magic = probe.read(2)
    if magic == b"\x1f\x8b":
        raw = gzip.open(path, "rb")
    else:
        raw = open(path, "rb")
    return io.TextIOWrapper(raw, encoding="utf-8", errors="replace")


def read_tokens(fp: IO[str]) -> list[str]:
    """One token per line; '#' starts a comment and blank lines are skipped."""
    tokens = (line.split("#", 1)[0].strip() for line in fp)
    return [token for token in tokens if token]


def read_csv(lines: Iterable[str], header: Sequence[str]) -> csv.DictReader:
    """Rows of a CSV whose header, once stripped, must be exactly header;
    rows are keyed by the stripped names."""
    reader = csv.DictReader(lines)
    if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != list(header):
        raise ValueError(f"need a {','.join(header)} header, got {reader.fieldnames}")
    reader.fieldnames = list(header)
    return reader


def write_registrations(regs: Iterable[Registration], fp: IO[str]) -> int:
    return write_jsonl(regs, fp)


def load_registrations(fp: IO[str]) -> list[Registration]:
    return load_jsonl(Registration.from_json, fp)


# Exact per-RIR country counts published by the registries; the bundled
# mapping snapshot is validated against them on load.
OFFICIAL_COUNTRY_COUNTS = {
    Rir.ARIN: 29,
    Rir.RIPE: 73,
    Rir.APNIC: 54,
    Rir.LACNIC: 31,
    Rir.AFRINIC: 57,
}


class RegionMap:
    """Immutable country-code to RIR mapping."""

    def __init__(self, entries: Mapping[str, Rir]):
        for cc in entries:
            if not is_country_code(cc):
                raise ValueError(f"bad country code {cc!r}")
        self._entries = dict(sorted(entries.items()))

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, country: str) -> bool:
        return country in self._entries

    def __iter__(self):
        return iter(self._entries)

    def rir_of(self, country: str) -> Rir:
        try:
            return self._entries[country]
        except KeyError:
            raise UnknownCountry(f"country {country!r} not in region map") from None

    def counts(self) -> dict[Rir, int]:
        counts = dict.fromkeys(Rir, 0)
        for rir in self._entries.values():
            counts[rir] += 1
        return counts


def data_lines(fp: IO[str]) -> Iterator[str]:
    """Bundled CSVs carry '#' comment lines documenting their provenance."""
    return (line for line in fp if not line.lstrip().startswith("#"))


def load_region_map(fp: IO[str]) -> RegionMap:
    """Load a region map from CSV with a country,rir header."""
    entries: dict[str, Rir] = {}
    for row in read_csv(data_lines(fp), ["country", "rir"]):
        cc = row["country"].strip().upper()
        if cc in entries:
            raise ValueError(f"duplicate country {cc} in region map")
        entries[cc] = Rir(row["rir"].strip().upper())
    return RegionMap(entries)


def check_official_counts(region_map: RegionMap) -> None:
    counts = region_map.counts()
    if counts != OFFICIAL_COUNTRY_COUNTS:
        raise ValueError(f"region map counts {counts} differ from official {OFFICIAL_COUNTRY_COUNTS}")


def default_region_map() -> RegionMap:
    """The bundled country-to-RIR snapshot, checked against official counts."""
    ref = resources.files("geoaudit.data").joinpath("region_map.csv")
    with ref.open("r", encoding="utf-8") as fp:
        region_map = load_region_map(fp)
    check_official_counts(region_map)
    return region_map


@dataclass
class OroStats:
    """Out-of-region organizations for one registry and family."""

    rir: Rir
    family: int
    prefixes: int = 0
    oro_prefixes: int = 0
    unknown_org: int = 0
    units: float = 0.0
    oro_units: float = 0.0

    @property
    def prefix_fraction(self) -> float:
        return self.oro_prefixes / self.prefixes if self.prefixes else 0.0

    @property
    def unit_fraction(self) -> float:
        return self.oro_units / self.units if self.units else 0.0


def _union_units(prefixes: Sequence[Prefix]) -> float:
    """Sum address units over the union of the given prefixes: overlapping
    blocks count once, at the widest covering block."""
    total = 0.0
    last_end = -1
    for prefix in sorted(prefixes, key=prefix_sort_key):
        start = int(prefix.network_address)
        if start <= last_end:
            continue  # contained in a block already counted
        total += address_units(prefix)
        last_end = start + (1 << (prefix.max_prefixlen - prefix.prefixlen)) - 1
    return total


def oro_stats(
    regs: Iterable[Registration],
    region_map: RegionMap,
) -> dict[tuple[Rir, int], OroStats]:
    """Count registrations whose organization sits outside the registering
    region, per registry and family, in prefixes and in address units.
    Rows come in table order: by family, then registry name."""
    rows: dict[tuple[Rir, int], OroStats] = {}
    all_prefixes: dict[tuple[Rir, int], list[Prefix]] = {}
    oro_prefixes: dict[tuple[Rir, int], list[Prefix]] = {}
    for reg in regs:
        key = (reg.rir, reg.prefix.version)
        row = rows.setdefault(key, OroStats(rir=reg.rir, family=reg.prefix.version))
        row.prefixes += 1
        all_prefixes.setdefault(key, []).append(reg.prefix)
        if reg.org_country is None or reg.org_country not in region_map:
            row.unknown_org += 1
            continue
        if region_map.rir_of(reg.org_country) != reg.rir:
            row.oro_prefixes += 1
            oro_prefixes.setdefault(key, []).append(reg.prefix)
    ordered = {}
    for key in sorted(rows, key=lambda k: (k[1], k[0].value)):
        row = ordered[key] = rows[key]
        row.units = _union_units(all_prefixes[key])
        row.oro_units = _union_units(oro_prefixes.get(key, ()))
    return ordered


def write_oro_csv(rows: Mapping[tuple[Rir, int], OroStats], fp: IO[str]) -> None:
    """Write the rows of oro_stats in the order it returns them."""
    writer = csv.writer(fp)
    writer.writerow([
        "rir", "family", "prefixes", "oro_prefixes", "prefix_fraction",
        "address_units", "oro_address_units", "unit_fraction", "unknown_org",
    ])
    for row in rows.values():
        writer.writerow([
            row.rir.value, row.family, row.prefixes, row.oro_prefixes, f"{row.prefix_fraction:.6f}",
            f"{row.units:.3f}", f"{row.oro_units:.3f}", f"{row.unit_fraction:.6f}", row.unknown_org,
        ])
