"""Immutable prefix index over both address families.

Built once from (prefix, value) pairs of registry Prefixes, read as their
(version, network, length) tuples; a repeated prefix keeps the last value
given. Each family keeps one map from prefix length, most specific
first, to (netmask, table), each table mapping a network address as an int
to (prefix, value), and every entry sorted by (network, length) for the
contained-prefix range scan. Nothing is written after construction, so any
number of threads may read one index.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterable

from .registry import _BITS, Addr, Prefix


class PrefixIndex:
    """Longest-prefix match, exact lookup, covering and contained prefixes."""

    def __init__(self, items: Iterable[tuple[Prefix, Any]] = ()):
        tables: dict[tuple[int, int], dict[int, tuple[Prefix, Any]]] = {}
        for prefix, value in items:
            version, net, plen = prefix
            table = tables.setdefault((version, plen), {})
            table[net] = (prefix, value)
        # per family: length -> (netmask, table), most specific first
        self._levels: dict[int, dict[int, tuple[int, dict]]] = {4: {}, 6: {}}
        # per family: (net, length, prefix, value) in address order
        self._sorted: dict[int, list[tuple[int, int, Prefix, Any]]] = {4: [], 6: []}
        for version, plen in sorted(tables, reverse=True):
            table = tables[(version, plen)]
            mask = ((1 << plen) - 1) << (_BITS[version] - plen)
            self._levels[version][plen] = (mask, table)
            self._sorted[version].extend(
                (net, plen, prefix, value) for net, (prefix, value) in table.items())
        for entries in self._sorted.values():
            entries.sort(key=lambda e: (e[0], e[1]))

    def __len__(self) -> int:
        return sum(len(table) for levels in self._levels.values() for _, table in levels.values())

    def longest_match(self, addr: Addr) -> tuple[Prefix, Any] | None:
        """The most specific (prefix, value) containing addr, or None."""
        version, a = addr
        for mask, table in self._levels[version].values():
            hit = table.get(a & mask)
            if hit is not None:
                return hit
        return None

    def exact(self, prefix: Prefix) -> Any:
        """The value stored for exactly this prefix, or None."""
        version, net, plen = prefix
        level = self._levels[version].get(plen)
        hit = level[1].get(net) if level else None
        return None if hit is None else hit[1]

    def covering(self, prefix: Prefix) -> list[tuple[Prefix, Any]]:
        """Entries strictly less specific than, and containing, prefix;
        least specific first."""
        version, net, length = prefix
        out = []
        for plen, (mask, table) in reversed(self._levels[version].items()):
            if plen >= length:
                break
            hit = table.get(net & mask)
            if hit is not None:
                out.append(hit)
        return out

    def contained(self, prefix: Prefix) -> list[tuple[Prefix, Any]]:
        """Entries equal to or more specific than prefix, in address order
        (an equal prefix comes first)."""
        version, net, plen = prefix
        entries = self._sorted[version]
        last = net | ((1 << (_BITS[version] - plen)) - 1)
        out = []
        for i in range(bisect_left(entries, (net, plen)), len(entries)):
            entry_net, _, entry_prefix, value = entries[i]
            if entry_net > last:
                break
            out.append((entry_prefix, value))
        return out

    def overlaps(self, prefix: Prefix) -> bool:
        """True when some entry equals, covers or lies inside prefix."""
        return bool(self.covering(prefix) or self.contained(prefix))
