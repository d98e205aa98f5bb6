"""Core registry domain types: RIRs, prefixes, registrations, the region map,
the shared record codec and field, the one check of a point on the globe,
and out-of-region organization counts.

An address is an Addr, (version, integer), and a prefix a Prefix,
(version, network integer, length): small immutable tuples that sort, hash
and compare as those tuples. Parsing rejects a prefix with host bits set, so
a Prefix is always canonical. Both print from their integers. ipaddress
is used here alone, and only to read the spellings the fast paths leave to
it.
"""

from __future__ import annotations

import csv
import datetime
import enum
import functools
import gzip
import io
import json
import operator
import struct
import types
import typing
from typing import IO, Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeVar

from .errors import GeoAuditError

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


# the only spellings of an octet and of a prefix length that the fast paths
# below accept: decimal without leading zeros, in range
_OCTETS = {str(n): n for n in range(256)}
_OCTET_TEXT = list(_OCTETS)
_LENGTHS = {4: {str(n): n for n in range(33)}, 6: {str(n): n for n in range(129)}}
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")
_BITS = {4: 32, 6: 128}
_GROUPS = struct.Struct(">8H")  # an IPv6 address's eight 16-bit groups
_ZERO_RUNS = [":0" * n + ":" for n in range(9)]  # n zero groups, framed by colons


def _address_text(version: int, value: int) -> str:
    """The canonical text of this address, the same on every Python: dotted
    for IPv4, and for IPv6 the RFC 5952 text ipaddress prints: lower-case
    hex groups, the longest run of two or more zero groups as ::, the first
    such run on a tie. An IPv4-mapped address (::ffff:0:0/96) is hex too,
    ::ffff:102:304, as before Python 3.13."""
    if version == 4:
        return (f"{_OCTET_TEXT[value >> 24]}.{_OCTET_TEXT[value >> 16 & 255]}."
                f"{_OCTET_TEXT[value >> 8 & 255]}.{_OCTET_TEXT[value & 255]}")
    groups = _GROUPS.unpack(value.to_bytes(16, "big"))
    text = "%x:%x:%x:%x:%x:%x:%x:%x" % groups
    zeros = groups.count(0)
    if zeros < 2:
        return text
    # from the longest run the zero groups could make down, the first run
    # found is the longest, and the leftmost of that length; a group is "0"
    # only when it is zero, and the colons framing it keep "10" from matching
    framed = f":{text}:"
    for n in range(zeros, 1, -1):
        at = framed.find(_ZERO_RUNS[n])
        if at >= 0:
            return f"{text[:at - 1] if at else ''}::{text[at + 2 * n:]}"
    return text


class Addr(tuple):
    """An IP address, Addr((version, integer)). It sorts, hashes and compares
    as that tuple, so IPv4 sorts before IPv6; str() is its canonical text."""

    __slots__ = ()

    version = property(operator.itemgetter(0))

    @property
    def max_prefixlen(self) -> int:
        return _BITS[self[0]]

    def __int__(self) -> int:
        return self[1]

    def __str__(self) -> str:
        return _address_text(*self)

    def __repr__(self) -> str:
        return f"Addr({str(self)!r})"


class Prefix(tuple):
    """A CIDR block, Prefix((version, network integer, length)), with no host
    bits set. It sorts, hashes and compares as that tuple: by family, then
    address, then length. str() is its canonical text. `x in prefix` raises
    TypeError rather than search the tuple; PrefixIndex answers containment."""

    __slots__ = ()

    version = property(operator.itemgetter(0))
    prefixlen = property(operator.itemgetter(2))

    @property
    def max_prefixlen(self) -> int:
        return _BITS[self[0]]

    @property
    def network_address(self) -> Addr:
        return Addr(self[:2])

    __contains__ = None

    def __str__(self) -> str:
        return f"{_address_text(self[0], self[1])}/{self[2]}"

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"


def _dotted_quad(text: str) -> int | None:
    """The value of a canonical dotted quad such as 192.0.2.1, or None for any
    other text. ipaddress reads such a quad as this same value."""
    try:
        a, b, c, d = text.split(".")
        return _OCTETS[a] << 24 | _OCTETS[b] << 16 | _OCTETS[c] << 8 | _OCTETS[d]
    except (KeyError, ValueError):  # ValueError: not four parts
        return None


def _hex_groups(text: str) -> int | None:
    """The value of an IPv6 address written as hex groups, such as
    2001:db8::1, or None for any other text: an embedded IPv4 address, a zone
    id, or anything ipaddress refuses. ipaddress reads such text as this
    same value."""
    head, double, tail = text.partition("::")
    high = head.split(":") if head else []
    low = tail.split(":") if tail else []
    if (len(high) + len(low) > 7) if double else len(high) != 8:
        return None
    value = 0
    for group in high + ["0"] * (8 - len(high) - len(low)) + low:
        if not 0 < len(group) <= 4 or not _HEX_DIGITS.issuperset(group):
            return None
        value = value << 16 | int(group, 16)
    return value


def _ipaddress_reads(kind: str, text: str):
    """What ipaddress reads from a spelling the fast paths leave to it: an
    address, or with kind "prefix" a strict network. Text it refuses, or an
    IPv6 zone id (fe80::1%eth0), raises GeoAuditError: a zone names a link
    of one host, an Addr has no room for it, and the address without it is
    another address. Only such a spelling loads ipaddress (~2 ms)."""
    import ipaddress

    stripped = text.strip()
    try:
        parsed = (ipaddress.ip_address(stripped) if kind == "address"
                  else ipaddress.ip_network(stripped, strict=True))
    except ValueError as exc:
        raise GeoAuditError(f"bad {kind} {text!r}: {exc}") from None
    address = parsed if kind == "address" else parsed.network_address
    if address.version == 6 and address.scope_id is not None:
        raise GeoAuditError(f"bad {kind} {text!r}: IPv6 zone id {address.scope_id!r} not accepted")
    return parsed


def parse_address(text: str) -> Addr:
    stripped = text.strip()
    # the fast paths; what they do not read, ipaddress reads or says why not
    version, value = (6, _hex_groups(stripped)) if ":" in stripped else (4, _dotted_quad(stripped))
    if value is not None:
        return Addr((version, value))
    address = _ipaddress_reads("address", text)
    return Addr((address.version, int(address)))


def parse_prefix(text: str) -> Prefix:
    """Parse a CIDR prefix, rejecting non-canonical forms (host bits set)."""
    stripped = text.strip()
    addr, _, length = stripped.partition("/")
    version, value = (6, _hex_groups(addr)) if ":" in addr else (4, _dotted_quad(addr))
    plen = _LENGTHS[version].get(length)
    if value is not None and plen is not None and not value & ((1 << (_BITS[version] - plen)) - 1):
        return Prefix((version, value, plen))
    network = _ipaddress_reads("prefix", text)
    return Prefix((network.version, int(network.network_address), network.prefixlen))


def prefix_sort_key(prefix: Prefix) -> Prefix:
    """A prefix sorts as (version, network, length): it is its own key."""
    return prefix


def range_to_cidrs(lo: Addr, hi: Addr) -> list[Prefix]:
    """Split an inclusive address range into the minimal list of CIDR blocks.

    The result covers the range exactly, in address order, and no two
    adjacent blocks can be merged into a larger legal block: each is the
    largest block that starts where the last one ended and fits."""
    (version, start), (hi_version, end) = lo, hi
    if version != hi_version:
        raise GeoAuditError(f"range mixes IPv{version} and IPv{hi_version}")
    if start > end:
        raise GeoAuditError(f"range start {lo} above end {hi}")
    bits = _BITS[version]
    out = []
    while start <= end:
        # host bits: at most the start's trailing zeros, and what fits below end
        host = min((start & -start).bit_length() - 1 if start else bits,
                   (end - start + 1).bit_length() - 1)
        out.append(Prefix((version, start, bits - host)))
        start += 1 << host
    return out


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


# The record codec: @record derives a NamedTuple's to_json and from_json
# from the annotated type of each field, so each type is spelled one way in
# every JSONL file. from_json reads each key through field: a wrong JSON type
# is refused, not converted, and a missing key takes the field's default or,
# without one, is refused. A record reaches JSON through to_json alone:
# json.dumps would write its tuple as a list.

_KEYS = {"cls": "class"}  # fields whose JSON key is not their name
_JSON_NAMES = {str: "a string", bool: "a boolean", int: "an integer", float: "a number",
               list: "a list", dict: "an object"}
REQUIRED = object()  # field's default for a key that must be present


def field(obj, key: str, decode: Callable[[Any], T], default: Any = REQUIRED) -> T:
    """decode of obj[key], obj a JSON object. A missing key gives default, or is
    refused as no 'key' if that is REQUIRED; decode's GeoAuditError gets 'key: '."""
    if type(obj) is not dict:
        raise GeoAuditError(f"{obj!r} is not an object")
    if key not in obj:
        if default is REQUIRED:
            raise GeoAuditError(f"no {key!r}")
        return default
    try:
        return decode(obj[key])
    except GeoAuditError as exc:
        raise GeoAuditError(f"{key}: {exc}") from None


def _exactly(kind: type) -> Callable:
    """Decode a value of exactly this type as it is: a bool is not an int."""
    def decode(value):
        if type(value) is not kind:
            raise GeoAuditError(f"{value!r} is not {_JSON_NAMES[kind]}")
        return value
    return decode


_text, _float, _list, _object = _exactly(str), _exactly(float), _exactly(list), _exactly(dict)


def _number(value) -> float:
    """A JSON number, an int or a float, as a float; an int too large for a
    float is refused."""
    if type(value) is not int:
        return _float(value)
    try:
        return float(value)
    except OverflowError:
        raise GeoAuditError(f"an integer of {len(str(abs(value)))} digits is too large for a number") from None


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
    if hasattr(hint, "from_json"):  # a nested record
        return hint.to_json, hint.from_json
    return _CODECS[hint]


def record(cls: type[T]) -> type[T]:
    """Give a NamedTuple to_json and from_json, derived from its _fields, their
    type hints and _field_defaults; from_json reads each key through field."""
    hints = typing.get_type_hints(cls)
    fields = [(_KEYS.get(name, name), *_codec(hints[name]), cls._field_defaults.get(name, REQUIRED))
              for name in cls._fields]

    def to_json(self) -> dict:
        return {key: value if encode is None else encode(value)
                for value, (key, encode, _, _) in zip(self, fields)}

    def from_json(obj: Mapping) -> T:
        return cls(*[field(obj, key, decode, default) for key, _, decode, default in fields])

    cls.to_json, cls.from_json = to_json, staticmethod(from_json)
    return cls


@record
class Registration(NamedTuple):
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
        return self._replace(flags=self.flags + (flag,))


def duplicate_rank(reg: Registration) -> tuple:
    """Rank of a row among the rows of one prefix; the highest wins: by
    last_updated, then registry name, org_id and the row's sorted-key JSON,
    flags and all (an input row's cross_rir_duplicate too; ingest never
    writes it). A total order on content: the winner ignores input order."""
    return (reg.last_updated or datetime.date.min, reg.rir.value, reg.org_id or "",
            json.dumps(reg.to_json(), sort_keys=True))


def winners_by_prefix(regs: Iterable[Registration]) -> dict[Prefix, tuple[Registration, int]]:
    """Per prefix, in first-seen order, the row of highest duplicate_rank and
    how many rows register it; rows that tie are equal, and the first seen
    stays. Ingest and planning both pick their one row per prefix here."""
    best: dict[Prefix, tuple[Registration, int]] = {}
    for reg in regs:
        old = best.get(reg.prefix)
        best[reg.prefix] = (reg, 1) if old is None else (max(old[0], reg, key=duplicate_rank), old[1] + 1)
    return best


def open_text(path: str, errors: str = "strict") -> IO[str]:
    """Open a UTF-8 text file, decompressing gzip transparently (magic
    sniff); one leading byte order mark is dropped. errors is the codec's
    handler of a byte that is not UTF-8: strict raises UnicodeDecodeError."""
    with open(path, "rb") as probe:
        magic = probe.read(2)
    if magic == b"\x1f\x8b":
        raw = gzip.open(path, "rb")
    else:
        raw = open(path, "rb")
    return io.TextIOWrapper(raw, encoding="utf-8-sig", errors=errors)


def refuse_repeats(keys: Iterable, what: str) -> None:
    """Raise GeoAuditError naming the first key that equals an earlier one."""
    seen = set()
    for key in keys:
        if key in seen:
            raise GeoAuditError(f"{what} {key} appears twice")
        seen.add(key)


def read_tokens(fp: Iterable[str], parse: Callable[[str], T] = str) -> Iterator[T]:
    """parse of each line's text, stripped, yielded as the lines are read:
    '#' to the end of a line is a comment, and a line left blank is
    skipped. A value parse refuses with GeoAuditError is refused naming its
    line. The one reader of list inputs and of the RIB."""
    for n, line in enumerate(fp, 1):
        text = line.split("#", 1)[0].strip()
        if text:
            try:
                value = parse(text)
            except GeoAuditError as exc:
                raise GeoAuditError(f"line {n}: {exc}") from None
            yield value


def read_csv(lines: Iterable[str], header: Sequence[str], parse_row: Callable[[dict], T]) -> list[T]:
    """parse_row of each row, a dict keyed by header, of a CSV whose header
    row is header once stripped; fields past the header's are dropped. A
    line that is blank or whose first non-blank character is '#' is
    skipped, above the header too. A row with fewer fields, or one
    parse_row refuses, raises GeoAuditError naming its line."""
    at = [0]  # at[0]: the lines read so far, so a parsed row's last line
    rows = csv.reader(line for at[0], line in enumerate(lines, 1) if line.lstrip()[:1] not in ("", "#"))
    names = next(rows, None)
    if names is None or [name.strip() for name in names] != list(header):
        raise GeoAuditError(f"need a {','.join(header)} header, got {names}")
    out = []
    for fields in rows:
        if len(fields) < len(header):
            raise GeoAuditError(f"line {at[0]}: {len(fields)} fields, need {len(header)}")
        try:
            out.append(parse_row(dict(zip(header, fields))))
        except GeoAuditError as exc:
            raise GeoAuditError(f"line {at[0]}: {exc}") from None
    return out


def point(lat: float, lon: float) -> tuple[float, float]:
    """(lat, lon) if it is a point on the globe, else GeoAuditError naming
    the key out of range; not (x <= y) also holds for NaN."""
    if not -90 <= lat <= 90:
        raise GeoAuditError(f"lat: {lat!r} is not in [-90, 90]")
    if not -180 <= lon <= 180:
        raise GeoAuditError(f"lon: {lon!r} is not in [-180, 180]")
    return lat, lon


def country_point(row: Mapping[str, str]) -> tuple[str, float, float]:
    """A row of a country,lat,lon CSV: the country code, upper case, and a point."""
    lat, lon = point(parse_as(float, row["lat"]), parse_as(float, row["lon"]))
    return row["country"].strip().upper(), lat, lon


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

    def __iter__(self):
        return iter(self._entries)

    def get(self, country: str | None) -> Rir | None:
        """The registry of country, or None for a country the map lacks."""
        return self._entries.get(country)

    def counts(self) -> dict[Rir, int]:
        counts = dict.fromkeys(Rir, 0)
        for rir in self._entries.values():
            counts[rir] += 1
        return counts


def load_region_map(fp: IO[str]) -> RegionMap:
    """Load a region map from CSV with a country,rir header."""
    rows = read_csv(fp, ["country", "rir"], lambda row: (
        row["country"].strip().upper(), parse_as(Rir, row["rir"].strip().upper())))
    refuse_repeats((cc for cc, _ in rows), "country")
    return RegionMap(dict(rows))


def check_official_counts(region_map: RegionMap) -> None:
    counts = region_map.counts()
    if counts != OFFICIAL_COUNTRY_COUNTS:
        raise GeoAuditError(f"region map counts {counts} differ from official {OFFICIAL_COUNTRY_COUNTS}")


def bundled(name: str) -> IO[str]:
    """A data file shipped in geoaudit/data, as text. pkgutil reads it through
    the package's loader; importlib.resources would too, but on Python 3.13
    it imports inspect and ast, which no command otherwise loads."""
    import pkgutil

    return io.StringIO(pkgutil.get_data(__package__, f"data/{name}").decode("utf-8"))


def default_region_map() -> RegionMap:
    """The bundled country-to-RIR snapshot, checked against official counts."""
    region_map = load_region_map(bundled("region_map.csv"))
    check_official_counts(region_map)
    return region_map


class OroStats:
    """Out-of-region organizations for one registry and family."""

    __slots__ = ("rir", "family", "prefixes", "oro_prefixes", "unknown_org", "units", "oro_units")

    def __init__(self, rir: Rir, family: int):
        self.rir = rir
        self.family = family
        self.prefixes = self.oro_prefixes = self.unknown_org = 0
        self.units = self.oro_units = 0.0

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
    for prefix in sorted(prefixes):
        version, start, length = prefix
        if start <= last_end:
            continue  # contained in a block already counted
        total += address_units(prefix)
        last_end = start + (1 << (_BITS[version] - length)) - 1
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
        row = rows.get(key)
        if row is None:
            row = rows[key] = OroStats(reg.rir, reg.prefix.version)
        row.prefixes += 1
        all_prefixes.setdefault(key, []).append(reg.prefix)
        rir_org = region_map.get(reg.org_country)
        if rir_org is None:
            row.unknown_org += 1
        elif rir_org != reg.rir:
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
