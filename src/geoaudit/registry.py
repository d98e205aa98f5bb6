"""Core registry domain types: RIRs, prefixes, registrations, the region map,
the shared record codec and field, the one check of a point on the globe,
the one CSV writer and the one fraction rule, and out-of-region
organization counts.

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
from collections import Counter
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

    __hash__ = object.__hash__  # a member equals only itself; Enum's hashes _name_ in Python code

    def __str__(self) -> str:
        return self.value


class Status(enum.Enum):
    """Normalized registration status."""

    ALLOCATED = "allocated"
    ASSIGNED = "assigned"
    LEGACY_OR_UNKNOWN = "legacy_or_unknown"

    __hash__ = object.__hash__  # by identity, as Rir

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


def write_jsonl(records: Iterable, fp: IO[str]) -> int:
    """Write each record as its to_line, one line each; returns the line count."""
    n = 0
    for n, rec in enumerate(records, 1):
        fp.write(rec.to_line() + "\n")
    return n


def json_lines(fp: IO[str]) -> Iterator[tuple[int, Any]]:
    """The number and the JSON value of every non-blank line.

    Each line goes straight to the C scanner behind json.loads; a line it
    does not read whole, up to its newline, as one value is skipped when
    blank or else handed to json.loads. A line that is not JSON raises
    GeoAuditError naming its number."""
    scan = json.JSONDecoder().scan_once
    for n, line in enumerate(fp, 1):
        try:
            obj, end = scan(line, 0)
        except (RecursionError, StopIteration, ValueError):
            end = -1
        if end < 0 or line[end:] not in ("", "\n"):
            if not line.strip():  # blank, as str.strip sees it
                continue
            try:
                obj = json.loads(line)  # skips the whitespace around the value, or raises
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


# The record codec: @record gives a NamedTuple to_line and from_json, derived
# from the annotated type of each field, so each type is spelled one way in
# every JSONL file. to_line writes the line json.dumps(..., sort_keys=True)
# would write of the record. from_json takes each value of its field's
# plain JSON type as it is, and reads an object with any other through field,
# which refuses a wrong JSON type, not converts it, and gives a missing key
# the field's default or, without one, refuses it. Both compile on first use.

_KEYS = {"cls": "class"}  # fields whose JSON key is not their name
_JSON_NAMES = {str: "a string", bool: "a boolean", int: "an integer", float: "a number",
               list: "a list", dict: "an object"}
REQUIRED = object()  # field's default for a key that must be present
_ABSENT = object()  # from_json's stand-in for a missing key


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


_CODECS = {  # type -> (its JSON text from v, the JSON type it is read from, its reader, its decode)
    str: ("_esc({v}) if type({v}) is str else _dumps({v})", str, None, _text),
    bool: ('("true" if {v} else "false") if type({v}) is bool else _dumps({v})', bool, None, _exactly(bool)),
    int: ("repr({v}) if type({v}) is int else _dumps({v})", int, None, _exactly(int)),
    # v - v is 0.0 for a finite float alone; json writes NaN and Infinity
    float: ("repr({v}) if type({v}) is float and {v} - {v} == 0.0 else _dumps({v})", float, None, _number),
    datetime.date: ("_esc(_isodate({v}))", str, _date, _date),
    Prefix: ("_esc(str({v}))", str, parse_prefix, lambda v: parse_prefix(_text(v))),
    Addr: ("_esc(str({v}))", str, parse_address, lambda v: parse_address(_text(v))),
}
_esc = json.encoder.encode_basestring_ascii  # a str as json.dumps writes it
_dumps = json.JSONEncoder(sort_keys=True).encode  # json.dumps(..., sort_keys=True)


def _codec(hint, v: str, ns: dict) -> tuple[str, str, str, Callable]:
    """For one field type and a variable v: v's JSON text; the test that v, a
    JSON value, has the type's plain shape; the read of such a v; and the
    decode of any JSON value, for field. ns gets what they name as v + "k"."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType) and type(None) in args:  # X | None
        text, plain, read, decode = _codec(functools.reduce(operator.or_, set(args) - {type(None)}), v, ns)
        return (f'"null" if {v} is None else ({text})', f"{v} is None or ({plain})",
                f"None if {v} is None else ({read})", lambda x: None if x is None else decode(x))
    if origin is tuple and args[1:] == (...,) or origin is frozenset:
        x = f"{v}_"
        text, plain, read, ns[f"{v}k"] = _codec(args[0], x, ns)
        items = v
        if origin is frozenset:  # of an enum, whose strings are written sorted
            text, items = f"_esc({x})", f"sorted([{x}._value_ for {x} in {v}])"
        return (f'"[]" if not {v} else "[" + ", ".join([{text} for {x} in {items}]) + "]"', f"type({v}) is list",
                f"{origin.__name__}([({read}) if ({plain}) else {v}k({x}) for {x} in {v}])",
                lambda x: origin(map(ns[f"{v}k"], _list(x))))
    if isinstance(hint, enum.EnumMeta):
        members = {member.value: member for member in hint}

        def decode(value):
            try:
                return members[value]
            except (KeyError, TypeError):  # TypeError: a list or an object
                raise GeoAuditError(f"{value!r} is not a {hint.__name__}") from None
        ns[f"{v}k"] = members
        return f"_esc({v}._value_)", f"type({v}) is str and {v} in {v}k", f"{v}k[{v}]", decode
    if "to_line" in vars(hint):  # a nested record
        ns[f"{v}k"] = hint
        return f"{v}k.to_line({v})", f"type({v}) is dict", f"{v}k.from_json({v})", lambda x: hint.from_json(x)
    text, kind, ns[f"{v}k"], decode = _CODECS[hint]
    return text.format(v=v), f"type({v}) is {kind.__name__}", f"{v}k({v})" if ns[f"{v}k"] else v, decode


def _compile(cls: type, direction: str):
    """cls's to_line or from_json (a staticmethod), as straight-line code."""
    hints = typing.get_type_hints(cls)
    ns = {"_esc": _esc, "_dumps": _dumps, "_isodate": datetime.date.isoformat, "_ABSENT": _ABSENT,
          "GeoAuditError": GeoAuditError, "_cls": cls, "_new": tuple.__new__}
    fields = [(f"_{i}", _KEYS.get(name, name), cls._field_defaults.get(name, REQUIRED),
               *_codec(hints[name], f"_{i}", ns)) for i, name in enumerate(cls._fields)]
    if direction == "to_line":
        pairs = ", ".join(f"{_esc(key)}: {{{v}}}" for key, v in sorted((key, v) for v, key, *_ in fields))
        lines = ["def to_line(self, /):", f"    {', '.join(v for v, *_ in fields)}, = self",
                 *(f"    {v} = {text}" for v, _, _, text, *_ in fields), "    return f" + repr("{{" + pairs + "}}")]
    else:
        ns.update((f"{v}d", default) for v, _, default, *_ in fields)
        ns["_slow"] = lambda obj: cls(*[field(obj, key, decode, default) for _, key, default, *_, decode in fields])
        # a missing key reads as _ABSENT, or as None where that is the default
        tests = " and ".join(f"({test})" if default in (REQUIRED, None) else f"({v} is _ABSENT or {test})"
                             for v, _, default, _, test, *_ in fields)
        reads = ", ".join(f"({value})" if default in (REQUIRED, None) else f"({v}d if {v} is _ABSENT else {value})"
                          for v, _, default, _, _, value, _ in fields)
        # a NamedTuple's own __new__ only packs its fields; a subclass's may check them
        new = f"_new(_cls, ({reads},))" if cls.__bases__ == (tuple,) else f"_cls({reads})"
        lines = ["@staticmethod", "def from_json(obj, /):", "    if type(obj) is dict:",
                 *(f"        {v} = obj.get({key!r}{'' if default is None else ', _ABSENT'})"
                   for v, key, default, *_ in fields),
                 f"        if {tests}:", "            try:", f"                return {new}",
                 "            except GeoAuditError:", "                pass", "    return _slow(obj)"]
    exec(compile("\n".join(lines), f"<{cls.__name__}.{direction}>", "exec"), ns)
    return ns[direction]


class _OnFirstUse:
    """A record's to_line or from_json, compiled when first looked up; it
    then takes this stand-in's place on the class."""

    def __init__(self, cls: type, direction: str):
        self.cls, self.direction = cls, direction

    def __get__(self, obj, owner=None):
        setattr(self.cls, self.direction, _compile(self.cls, self.direction))
        return getattr(self.cls if obj is None else obj, self.direction)


def record(cls: type[T]) -> type[T]:
    """Give a NamedTuple to_line and from_json: the record codec above."""
    cls.to_line, cls.from_json = _OnFirstUse(cls, "to_line"), _OnFirstUse(cls, "from_json")
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
    last_updated, then registry name, org_id and the row's line (to_line),
    flags and all (an input row's cross_rir_duplicate too; ingest never
    writes it). A total order on content: the winner ignores input order."""
    return (reg.last_updated or datetime.date.min, reg.rir.value, reg.org_id or "", reg.to_line())


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


def write_csv(fp: IO[str], header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write the header row, then each row, as CSV: the counterpart of
    read_csv, and the one writer of every table."""
    writer = csv.writer(fp)
    writer.writerow(header)
    writer.writerows(rows)


def share(part: float, whole: float) -> float:
    """part / whole, or 0.0 when whole is empty: every fraction a table
    holds or a command prints."""
    return part / whole if whole else 0.0


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
) -> dict[tuple[Rir, int], dict[str, float]]:
    """Per registry and family, the registrations (prefixes), those whose
    organization sits outside the registering region (oro_prefixes) or in
    no mapped country (unknown_org), and the address units of the first two
    (units, oro_units). Rows come in table order: by family, then registry
    name."""
    blocks: dict[tuple[Rir, int], list[Prefix]] = {}
    oro_blocks: dict[tuple[Rir, int], list[Prefix]] = {}
    unknown_org: Counter[tuple[Rir, int]] = Counter()
    for reg in regs:
        key = (reg.rir, reg.prefix.version)
        blocks.setdefault(key, []).append(reg.prefix)
        rir_org = region_map.get(reg.org_country)
        if rir_org is None:
            unknown_org[key] += 1
        elif rir_org != reg.rir:
            oro_blocks.setdefault(key, []).append(reg.prefix)
    rows = {}
    for key in sorted(blocks, key=lambda k: (k[1], k[0].value)):
        oro = oro_blocks.get(key, [])
        rows[key] = {"prefixes": len(blocks[key]), "oro_prefixes": len(oro), "unknown_org": unknown_org[key],
                     "units": _union_units(blocks[key]), "oro_units": _union_units(oro)}
    return rows


def write_oro_csv(rows: Mapping[tuple[Rir, int], Mapping[str, float]], fp: IO[str]) -> None:
    """Write the rows of oro_stats in the order it returns them."""
    write_csv(fp, ["rir", "family", "prefixes", "oro_prefixes", "prefix_fraction",
                   "address_units", "oro_address_units", "unit_fraction", "unknown_org"],
              ([rir.value, family, row["prefixes"], row["oro_prefixes"],
                f"{share(row['oro_prefixes'], row['prefixes']):.6f}", f"{row['units']:.3f}",
                f"{row['oro_units']:.3f}", f"{share(row['oro_units'], row['units']):.6f}", row["unknown_org"]]
               for (rir, family), row in rows.items()))
