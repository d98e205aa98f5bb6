"""Alignment of registered prefixes against a BGP routing table.

Precedence: an exact route wins, then any covering route, then contained
routes. A registered block only advertised in pieces is a Supernet when all
pieces share an origin, MixedAS otherwise.
"""

from __future__ import annotations

import enum
import re
from typing import IO, Iterable, NamedTuple

from .errors import GeoAuditError
from .index import PrefixIndex
from .registry import Prefix, Registration, Rir, parse_prefix, read_tokens


class Alignment(enum.Enum):
    ALIGNED = "aligned"
    SUBNET = "subnet"
    SUPERNET = "supernet"
    MIXED_AS = "mixed_as"
    UNADVERTISED = "unadvertised"


# column order used in tables
ALIGNMENT_ORDER = (
    Alignment.SUBNET,
    Alignment.ALIGNED,
    Alignment.SUPERNET,
    Alignment.MIXED_AS,
    Alignment.UNADVERTISED,
)


class Rib(NamedTuple):
    """Route table: an index mapping prefix -> frozenset of origins."""

    routes: PrefixIndex
    default_routes_dropped: int = 0

    @property
    def route_count(self) -> int:
        return len(self.routes)


# an origin ASN: AS in any case, or nothing, then ASCII digits; the value,
# leading zeros aside, has at most 10 digits, so int() stays cheap
_ASN = re.compile(r"(?:[Aa][Ss])?0*([0-9]{1,10})")
_MAX_ASN = 2**32 - 1


def _origin_asn(text: str) -> int:
    """An origin ASN such as 64500 or AS64500, in [0, _MAX_ASN]."""
    match = _ASN.fullmatch(text)
    if match is None or int(match[1]) > _MAX_ASN:
        raise GeoAuditError(f"bad origin ASN {text!r}: want <n> or AS<n>, n in 0..{_MAX_ASN}")
    return int(match[1])


def _route(text: str) -> tuple[Prefix, int]:
    """A "<prefix> <origin_asn>" line of a RIB (_origin_asn)."""
    parts = text.split()
    if len(parts) != 2:
        raise GeoAuditError(f"expected '<prefix> <origin_asn>', got {text!r}")
    return parse_prefix(parts[0]), _origin_asn(parts[1])


def load_rib(fp: IO[str]) -> Rib:
    """The routes (_route) read_tokens yields, one by one: default routes
    (/0) are dropped and counted, repeated prefixes merge their origins."""
    origins: dict[Prefix, set[int]] = {}
    dropped = 0
    for prefix, asn in read_tokens(fp, _route):
        if prefix.prefixlen == 0:
            dropped += 1
        else:
            origins.setdefault(prefix, set()).add(asn)
    routes = PrefixIndex((prefix, frozenset(asns)) for prefix, asns in origins.items())
    return Rib(routes=routes, default_routes_dropped=dropped)


class AlignmentResult(NamedTuple):
    alignment: Alignment
    origins: frozenset[int] = frozenset()
    covering_route: Prefix | None = None
    contained_routes: int = 0
    moas: bool = False


def align(prefix: Prefix, rib: Rib) -> AlignmentResult:
    exact = rib.routes.exact(prefix)
    if exact is not None:
        return AlignmentResult(Alignment.ALIGNED, origins=exact, moas=len(exact) > 1)
    covering = rib.routes.covering(prefix)
    if covering:
        route, asns = covering[-1]  # most specific covering route
        return AlignmentResult(Alignment.SUBNET, origins=asns, covering_route=route, moas=len(asns) > 1)
    contained = rib.routes.contained(prefix)
    if contained:
        common = frozenset.intersection(*(asns for _, asns in contained))
        if common:
            return AlignmentResult(Alignment.SUPERNET, origins=common, contained_routes=len(contained))
        every = frozenset().union(*(asns for _, asns in contained))
        return AlignmentResult(Alignment.MIXED_AS, origins=every, contained_routes=len(contained))
    return AlignmentResult(Alignment.UNADVERTISED)


def alignment_table(regs: Iterable[Registration], rib: Rib, family: int) -> dict[Rir, dict[Alignment, float]]:
    """Fraction of each registry's prefixes of one family (4 or 6) in each
    alignment class. Rows appear only for registries with at least one such
    prefix and sum to 1."""
    counts: dict[Rir, dict[Alignment, int]] = {}
    for reg in regs:
        if reg.prefix.version != family:
            continue
        row = counts.get(reg.rir)
        if row is None:
            row = counts[reg.rir] = {a: 0 for a in Alignment}
        row[align(reg.prefix, rib).alignment] += 1
    table: dict[Rir, dict[Alignment, float]] = {}
    for rir, row in counts.items():
        total = sum(row.values())
        table[rir] = {a: row[a] / total for a in ALIGNMENT_ORDER}
    return table
