"""Core registry domain types: RIRs, prefixes, registrations, the region map,
the shared record codec, and out-of-region organization counts.

Prefixes are plain ipaddress network objects (IPv4Network / IPv6Network),
always in canonical form: parsing rejects anything with host bits set.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime
import enum
import functools
import gzip
import io
import ipaddress
import json
import operator
import types
import typing
from dataclasses import dataclass, replace
from importlib import resources
from typing import IO, Any, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .errors import GeoAuditError

Prefix = ipaddress.IPv4Network | ipaddress.IPv6Network
Addr = ipaddress.IPv4Address | ipaddress.IPv6Address
T = TypeVar("T")

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
        raise GeoAuditError(f"bad address {text!r}: {exc}") from None


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
        raise GeoAuditError(f"bad prefix {text!r}: {exc}") from None


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
        raise GeoAuditError(f"range mixes IPv{lo.version} and IPv{hi.version}")
    if int(lo) > int(hi):
        raise GeoAuditError(f"range start {lo} above end {hi}")
    return list(ipaddress.summarize_address_range(lo, hi))


def address_units(prefix: Prefix) -> float:
    """Size of a prefix in routing-table units: /24 equivalents for IPv4,
    /48 equivalents for IPv6. Fractional for more-specific prefixes."""
    base = 24 if prefix.version == 4 else 48
    return 2.0 ** (base - prefix.prefixlen)


def is_country_code(text: str) -> bool:
    return len(text) == 2 and text.isalpha() and text.isascii() and text == text.upper()


def parse_as(kind: Callable[[str], T], text: str) -> T:
    """kind(text), for a kind such as float, Rir or json.loads; text that
    kind refuses raises GeoAuditError."""
    try:
        return kind(text)
    except (RecursionError, ValueError) as exc:  # RecursionError: JSON nested too deeply
        raise GeoAuditError(str(exc)) from None


def write_jsonl(items: Iterable, fp: IO[str]) -> int:
    """Write each item.to_json() as one line of sorted-key JSON; returns the line count."""
    encode = json.JSONEncoder(sort_keys=True).encode  # json.dumps(..., sort_keys=True)
    n = 0
    for item in items:
        fp.write(encode(item.to_json()) + "\n")
        n += 1
    return n


_JSON_SPACE = " \t\n\r"


def json_lines(fp: IO[str]) -> Iterator[tuple[int, Any]]:
    """The number and the JSON value of every non-blank line.

    Each line goes straight to the C scanner behind json.loads; a line it
    does not read as exactly one value is handed to json.loads. A line that
    is not JSON raises GeoAuditError naming its number."""
    scan = json.JSONDecoder().scan_once
    for n, line in enumerate(fp, 1):
        text = line.strip(_JSON_SPACE)  # the whitespace json.loads skips
        if not text or text.isspace():  # blank, as str.strip sees it
            continue
        try:
            obj, end = scan(text, 0)
        except (RecursionError, StopIteration, ValueError):
            end = -1
        if end != len(text):
            try:
                obj = json.loads(line)  # raises, for the message json.loads gives
            except (RecursionError, ValueError) as exc:  # RecursionError: nested too deeply
                raise GeoAuditError(f"line {n}: {exc}") from None
        yield n, obj


def load_jsonl(from_json: Callable[[Mapping], T], fp: IO[str]) -> list[T]:
    """Decode every non-blank line (json_lines) with from_json. A line that
    from_json refuses with GeoAuditError raises GeoAuditError naming its
    number."""
    out = []
    for n, obj in json_lines(fp):
        try:
            out.append(from_json(obj))
        except GeoAuditError as exc:
            raise GeoAuditError(f"line {n}: {exc}") from None
    return out


# The record codec: @record derives a frozen dataclass's to_json and
# from_json from the annotated type of each field, so each type is spelled
# one way in every JSONL file. from_json refuses a value of the wrong JSON
# type instead of converting it; a missing key takes the field's default.

_KEYS = {"cls": "class"}  # fields whose JSON key is not their name
_JSON_NAMES = {str: "a string", bool: "a boolean", int: "an integer", float: "a number",
               list: "a list", dict: "an object"}


def _exactly(kind: type) -> Callable:
    """Decode a value of exactly this type as it is: a bool is not an int."""
    def decode(value):
        if type(value) is not kind:
            raise GeoAuditError(f"{value!r} is not {_JSON_NAMES[kind]}")
        return value
    return decode


_text, _float, _list, _object = _exactly(str), _exactly(float), _exactly(list), _exactly(dict)


def _number(value) -> float:
    """A JSON number, an int or a float, as a float."""
    return float(value) if type(value) is int else _float(value)


def _date(value) -> datetime.date:
    """A date spelled YYYY-MM-DD, as isoformat writes it. Python 3.11+
    fromisoformat also reads 20210304 and 2021-W09-4, which 3.10 refuses;
    of the spellings it reads, only YYYY-MM-DD is 10 long with dashes at 4
    and 7, a check that costs far less than a call to isoformat."""
    if len(_text(value)) != 10 or value[4] != "-" or value[7] != "-":
        raise GeoAuditError(f"{value!r} is not a YYYY-MM-DD date")
    return parse_as(datetime.date.fromisoformat, value)


_CODECS = {  # type -> (encode, decode); an encode of None: the value is its own JSON
    str: (None, _text),
    bool: (None, _exactly(bool)),
    int: (None, _exactly(int)),
    float: (None, _number),
    datetime.date: (datetime.date.isoformat, _date),
    Prefix: (str, lambda v: parse_prefix(_text(v))),
    Addr: (str, lambda v: parse_address(_text(v))),
}


def _codec(hint) -> tuple[Callable | None, Callable]:
    """(encode, decode) for one field type."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType) and type(None) in args:  # X | None
        inner, decode = _codec(functools.reduce(operator.or_, set(args) - {type(None)}))
        encode = None if inner is None else lambda v: None if v is None else inner(v)
        return encode, lambda v: None if v is None else decode(v)
    if origin is tuple and args[1:] == (...,):
        inner, decode = _codec(args[0])
        encode = list if inner is None else lambda v: list(map(inner, v))
        return encode, lambda v: tuple(map(decode, _list(v)))
    if origin is frozenset:
        encode, decode = _codec(args[0])
        return (lambda v: sorted(map(encode, v))), (lambda v: frozenset(map(decode, _list(v))))
    if isinstance(hint, enum.EnumMeta):
        members = {member.value: member for member in hint}

        def decode(value):
            try:
                return members[value]
            except (KeyError, TypeError):  # TypeError: a list or an object
                raise GeoAuditError(f"{value!r} is not a {hint.__name__}") from None
        return operator.attrgetter("value"), decode
    if dataclasses.is_dataclass(hint):
        return hint.to_json, hint.from_json
    return _CODECS[hint]


def record(cls: type[T]) -> type[T]:
    """Give a frozen dataclass to_json and from_json, derived from its
    fields; a GeoAuditError from from_json names the key it refused or missed."""
    hints = typing.get_type_hints(cls)
    fields = [(f.name, _KEYS.get(f.name, f.name), *_codec(hints[f.name]),
               f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING)
              for f in dataclasses.fields(cls)]

    def to_json(self) -> dict:
        return {key: getattr(self, name) if encode is None else encode(getattr(self, name))
                for name, key, encode, _, _ in fields}

    def from_json(obj: Mapping) -> T:
        _object(obj)
        values = {}
        for name, key, _, decode, required in fields:
            if key in obj:
                try:
                    values[name] = decode(obj[key])
                except GeoAuditError as exc:
                    raise GeoAuditError(f"{key}: {exc}") from None
            elif required:
                raise GeoAuditError(f"no {key!r}")
        return cls(**values)

    cls.to_json, cls.from_json = to_json, staticmethod(from_json)
    return cls


@record
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


def duplicate_rank(reg: Registration) -> tuple:
    """Rank of a row among the rows of one prefix; the highest wins. It
    compares last_updated, then the registry name, org_id and the row's
    sorted-key JSON without the flag targets.registration_index adds: a
    total order on content, so the winner never depends on input order."""
    row = reg.to_json()
    row["flags"] = [flag for flag in reg.flags if flag != "cross_rir_duplicate"]
    return (reg.last_updated or datetime.date.min, reg.rir.value, reg.org_id or "",
            json.dumps(row, sort_keys=True))


def open_text(path: str) -> IO[str]:
    """Open a text file, decompressing gzip transparently (magic sniff)."""
    with open(path, "rb") as probe:
        magic = probe.read(2)
    if magic == b"\x1f\x8b":
        raw = gzip.open(path, "rb")
    else:
        raw = open(path, "rb")
    return io.TextIOWrapper(raw, encoding="utf-8", errors="replace")


def refuse_repeats(keys: Iterable, what: str) -> None:
    """Raise GeoAuditError naming the first key that equals an earlier one."""
    seen = set()
    for key in keys:
        if key in seen:
            raise GeoAuditError(f"{what} {key} appears twice")
        seen.add(key)


def read_tokens(fp: IO[str]) -> list[str]:
    """One token per line; '#' starts a comment and blank lines are skipped."""
    tokens = (line.split("#", 1)[0].strip() for line in fp)
    return [token for token in tokens if token]


def read_csv(lines: Iterable[str], header: Sequence[str], parse_row: Callable[[dict], T],
             comments: bool = False) -> list[T]:
    """parse_row of each row, a dict keyed by header, of a CSV whose header
    row is header once stripped; fields past the header's are dropped, and
    with comments so is a line starting with '#'. A row with fewer fields,
    or one parse_row refuses, raises GeoAuditError naming its line."""
    at = [0]  # at[0]: the lines read so far, so a parsed row's last line
    rows = csv.reader(line for at[0], line in enumerate(lines, 1)
                      if not (comments and line.lstrip().startswith("#")))
    names = next(rows, None)
    if names is None or [name.strip() for name in names] != list(header):
        raise GeoAuditError(f"need a {','.join(header)} header, got {names}")
    out = []
    for fields in rows:
        if not fields:
            continue  # a blank line
        if len(fields) < len(header):
            raise GeoAuditError(f"line {at[0]}: {len(fields)} fields, need {len(header)}")
        try:
            out.append(parse_row(dict(zip(header, fields))))
        except GeoAuditError as exc:
            raise GeoAuditError(f"line {at[0]}: {exc}") from None
    return out


def country_point(row: Mapping[str, str]) -> tuple[str, float, float]:
    """A row of a country,lat,lon CSV: the country code, upper case, and a
    point on the globe; NaN is refused with the rest."""
    cc = row["country"].strip().upper()
    lat, lon = parse_as(float, row["lat"]), parse_as(float, row["lon"])
    if not (-90 <= lat <= 90 and -180 <= lon <= 180):
        raise GeoAuditError(f"point out of range for {cc}: {lat},{lon}")
    return cc, lat, lon


def read_ini(fp: IO[str]):
    """A ConfigParser of fp, without interpolation; bad text raises GeoAuditError."""
    import configparser  # only the commands that read an INI file load it

    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_file(fp)
    except configparser.Error as exc:
        raise GeoAuditError(str(exc)) from None
    return parser


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
                raise GeoAuditError(f"bad country code {cc!r}")
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
            raise GeoAuditError(f"country {country!r} not in region map") from None

    def counts(self) -> dict[Rir, int]:
        counts = dict.fromkeys(Rir, 0)
        for rir in self._entries.values():
            counts[rir] += 1
        return counts


def load_region_map(fp: IO[str]) -> RegionMap:
    """Load a region map from CSV with a country,rir header."""
    entries: dict[str, Rir] = {}
    rows = read_csv(fp, ["country", "rir"], lambda row: (
        row["country"].strip().upper(), parse_as(Rir, row["rir"].strip().upper())), comments=True)
    for cc, rir in rows:
        if cc in entries:
            raise GeoAuditError(f"duplicate country {cc} in region map")
        entries[cc] = rir
    return RegionMap(entries)


def check_official_counts(region_map: RegionMap) -> None:
    counts = region_map.counts()
    if counts != OFFICIAL_COUNTRY_COUNTS:
        raise GeoAuditError(f"region map counts {counts} differ from official {OFFICIAL_COUNTRY_COUNTS}")


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
