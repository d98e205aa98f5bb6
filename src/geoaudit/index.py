"""Immutable prefix index over both address families.

Built once from (prefix, value) pairs of registry Prefixes; a repeated
prefix keeps the last value given. One dict maps each Prefix to its
(prefix, value) pair, and since a Prefix hashes and compares as its
(version, network, length) tuple, a probe looks up a plain tuple:
longest_match walks the lengths present in the family, most specific
first, and takes the first hit. One list holds the same pairs in Prefix
order, family first, and contained is one slice of it. Nothing is written
after construction, so any number of threads may read one index.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import Any, Iterable

from .registry import _BITS, Addr, Prefix

_PREFIX = itemgetter(0)  # of a (prefix, value) pair


class PrefixIndex:
    """Longest-prefix match of an address or a prefix, and contained prefixes."""

    def __init__(self, items: Iterable[tuple[Prefix, Any]] = ()):
        self._table: dict[Prefix, tuple[Prefix, Any]] = {prefix: (prefix, value) for prefix, value in items}
        self._sorted = sorted(self._table.values(), key=_PREFIX)
        # per family: (length, netmask) of each length present, most specific first
        self._masks: dict[int, list[tuple[int, int]]] = {4: [], 6: []}
        for version, plen in sorted({(prefix[0], prefix[2]) for prefix in self._table}, reverse=True):
            self._masks[version].append((plen, ((1 << plen) - 1) << (_BITS[version] - plen)))

    def __len__(self) -> int:
        return len(self._table)

    def longest_match(self, key: Addr | Prefix) -> tuple[Prefix, Any] | None:
        """The most specific (prefix, value) containing key, an Addr, or equal
        to or containing key, a Prefix; None when no entry does."""
        version, net = key[0], key[1]
        length = key[2] if len(key) == 3 else 128  # an Addr is as long as any mask
        table = self._table
        for plen, mask in self._masks[version]:
            if plen <= length:
                hit = table.get((version, net & mask, plen))
                if hit is not None:
                    return hit
        return None

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
        return self.longest_match(prefix) is not None or bool(self.contained(prefix))
