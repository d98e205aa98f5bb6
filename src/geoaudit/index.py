"""Immutable prefix index over both address families.

Built once from (prefix, value) pairs of registry Prefixes; a repeated
prefix keeps the last value given. One dict maps each Prefix to its
(prefix, value) pair, and since a Prefix hashes and compares as its
(version, network, length) tuple, a probe looks up a plain tuple: exact,
longest_match and covering walk the lengths present in the family. One
list holds the same pairs in Prefix order, family first, and contained
is one slice of it. Nothing is written after construction, so any number
of threads may read one index.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import Any, Iterable

from .registry import _BITS, Addr, Prefix

_PREFIX = itemgetter(0)  # of a (prefix, value) pair


class PrefixIndex:
    """Longest-prefix match, exact lookup, covering and contained prefixes."""

    def __init__(self, items: Iterable[tuple[Prefix, Any]] = ()):
        self._table: dict[Prefix, tuple[Prefix, Any]] = {prefix: (prefix, value) for prefix, value in items}
        self._sorted = sorted(self._table.values(), key=_PREFIX)
        # per family: (length, netmask) of each length present, most specific first
        self._masks: dict[int, list[tuple[int, int]]] = {4: [], 6: []}
        for version, plen in sorted({(prefix[0], prefix[2]) for prefix in self._table}, reverse=True):
            self._masks[version].append((plen, ((1 << plen) - 1) << (_BITS[version] - plen)))

    def __len__(self) -> int:
        return len(self._table)

    def longest_match(self, addr: Addr) -> tuple[Prefix, Any] | None:
        """The most specific (prefix, value) containing addr, or None."""
        version, a = addr
        table = self._table
        for plen, mask in self._masks[version]:
            hit = table.get((version, a & mask, plen))
            if hit is not None:
                return hit
        return None

    def exact(self, prefix: Prefix) -> Any:
        """The value stored for exactly this prefix, or None."""
        hit = self._table.get(prefix)
        return None if hit is None else hit[1]

    def covering(self, prefix: Prefix) -> list[tuple[Prefix, Any]]:
        """Entries strictly less specific than, and containing, prefix;
        least specific first."""
        version, net, length = prefix
        out = []
        for plen, mask in reversed(self._masks[version]):
            if plen >= length:
                break
            hit = self._table.get((version, net & mask, plen))
            if hit is not None:
                out.append(hit)
        return out

    def contained(self, prefix: Prefix) -> list[tuple[Prefix, Any]]:
        """Entries equal to or more specific than prefix, in address order
        (an equal prefix comes first)."""
        version, net, plen = prefix
        # (version, last address + 1, 0) sorts after every prefix inside the
        # block and before the other family
        after = (version, (net | ((1 << (_BITS[version] - plen)) - 1)) + 1, 0)
        entries = self._sorted
        start = bisect_left(entries, prefix, key=_PREFIX)
        return entries[start:bisect_left(entries, after, start, key=_PREFIX)]

    def overlaps(self, prefix: Prefix) -> bool:
        """True when some entry equals, covers or lies inside prefix."""
        return bool(self.covering(prefix) or self.contained(prefix))
