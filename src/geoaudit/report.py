"""The report command's tables, each a fold of the audit records into
plain counts (Counters) that its writer turns into rows, every fraction by
registry.share, and writes through registry.write_csv. The out-of-region
organization table needs no audit; it lives in registry and is re-exported
here.
"""

from __future__ import annotations

from collections import Counter
from typing import IO, Iterable, Mapping, NamedTuple, Sequence

from .classify import ConsistencyClass, ConsistencyRecord, FilterReason, pipeline_counts
from .index import PrefixIndex
# oro_stats and write_oro_csv are imported for callers of report
from .registry import (
    Prefix,
    RegionMap,
    Registration,
    Rir,
    Status,
    oro_stats,
    parse_prefix,
    read_csv,
    refuse_repeats,
    share,
    write_csv,
    write_oro_csv,
)

# the classes the geolocation-database and lease-list tables count
_INCONSISTENT = (ConsistencyClass.RI, ConsistencyClass.FI)


def distribution(records: Iterable[ConsistencyRecord]) -> Counter[tuple[Rir, ConsistencyClass]]:
    """Classified records by registry and class."""
    return Counter((rec.rir_reg, rec.cls) for rec in records if rec.cls is not None)


def characteristics(
    records: Iterable[ConsistencyRecord],
    regs_by_prefix: Mapping[Prefix, Registration],
) -> tuple[Counter[tuple[ConsistencyClass, Status]], Counter[tuple[ConsistencyClass, int | None]]]:
    """Classified records with a registration, by class and registration
    status, and by class and last-updated year (None when unknown)."""
    by_status: Counter[tuple[ConsistencyClass, Status]] = Counter()
    by_year: Counter[tuple[ConsistencyClass, int | None]] = Counter()
    for rec in records:
        if rec.cls is None:
            continue
        reg = regs_by_prefix.get(rec.prefix)
        if reg is None:
            continue
        by_status[rec.cls, reg.status] += 1
        by_year[rec.cls, reg.last_updated.year if reg.last_updated else None] += 1
    return by_status, by_year


class GeoDbEntry(NamedTuple):
    prefix: Prefix
    country: str


def load_geodb(fp: IO[str]) -> list[GeoDbEntry]:
    """CSV with a prefix,country header: one provider's geolocation table.
    A prefix in two rows is refused, rather than the last row winning."""
    entries = read_csv(fp, ["prefix", "country"], lambda row: GeoDbEntry(
        prefix=parse_prefix(row["prefix"]), country=row["country"].strip().upper()))
    refuse_repeats((entry.prefix for entry in entries), "prefix")
    return entries


def geodb_detection(
    records: Iterable[ConsistencyRecord],
    providers: Mapping[str, Sequence[GeoDbEntry]],
    region_map: RegionMap,
    require_geo_agreement: bool = False,
) -> dict[str, dict[Rir, Counter[str]]]:
    """How often each provider places measured-inconsistent prefixes (RI/FI)
    outside their registered region: per provider and registry, the
    eligible records, those the provider has no mapped country for
    (no_coverage), and those it detects.

    Default criterion: the provider's country maps to a registry other than
    the registering one. With require_geo_agreement the provider's region
    must also be one the measurements found feasible."""
    indexes = {
        name: PrefixIndex((entry.prefix, entry.country) for entry in entries)
        for name, entries in providers.items()
    }
    out = {name: {rir: Counter() for rir in Rir} for name in providers}
    for rec in records:
        if rec.cls not in _INCONSISTENT:
            continue
        probe_addr = rec.prefix.network_address
        for name, index in indexes.items():
            counts = out[name][rec.rir_reg]
            counts["eligible"] += 1
            hit = index.longest_match(probe_addr)
            provider_rir = None if hit is None else region_map.get(hit[1])
            if provider_rir is None:
                counts["no_coverage"] += 1
                continue
            detected = provider_rir != rec.rir_reg
            if require_geo_agreement:
                detected = detected and provider_rir in rec.rir_geo
            if detected:
                counts["detected"] += 1
    return out


def leasing_overlap(
    records: Iterable[ConsistencyRecord],
    leased: Iterable[Prefix],
) -> dict[tuple[Rir, ConsistencyClass], Counter[str]]:
    """Overlap between measured-inconsistent prefixes and a lease list: per
    registry and class (RI/FI), the records and those overlapping.

    Any relation counts: exact, contained in a leased block, or containing
    one. Rows exist for every (registry, RI/FI) pair."""
    index = PrefixIndex((prefix, True) for prefix in leased)
    out = {(rir, cls): Counter() for rir in Rir for cls in _INCONSISTENT}
    for rec in records:
        if rec.cls not in _INCONSISTENT:
            continue
        counts = out[rec.rir_reg, rec.cls]
        counts["records"] += 1
        if index.overlaps(rec.prefix):
            counts["overlapping"] += 1
    return out


def sankey_edges(
    records: Iterable[ConsistencyRecord],
    region_map: RegionMap,
) -> Counter[tuple[Rir, Rir]]:
    """Flow counts of classified records from registered region to measured
    region: the region the map gives the vantage country of the first
    classified target whose vantage country it knows. A record with no
    such target is left out of sankey.csv."""
    counts: Counter[tuple[Rir, Rir]] = Counter()
    for rec in records:
        if rec.cls is None:
            continue
        dest: Rir | None = None
        for outcome in rec.targets:
            dest = None if outcome.cls is None else region_map.get(outcome.vantage_country)
            if dest is not None:
                break
        if dest is not None:
            counts[rec.rir_reg, dest] += 1
    return counts


def write_distribution_csv(counts: Counter[tuple[Rir, ConsistencyClass]], fp: IO[str]) -> None:
    """Each registry's share of every class, in table order, then the ALL
    row's; a registry with no classified record has no row."""
    rows = {rir.value: [counts[rir, cls] for cls in ConsistencyClass] for rir in Rir}
    rows["ALL"] = [sum(column) for column in zip(*rows.values())]
    write_csv(fp, ["rir"] + [cls.value for cls in ConsistencyClass],
              ([label] + [f"{share(n, sum(row)):.6f}" for n in row]
               for label, row in rows.items() if sum(row)))


def write_characteristics_csv(
    by_status: Mapping[tuple[ConsistencyClass, Status], int],
    by_year: Mapping[tuple[ConsistencyClass, int | None], int],
    status_fp: IO[str],
    year_fp: IO[str],
) -> None:
    """The two cross-tabs, rows sorted by their cells; an unknown year sorts
    first and reads "unknown"."""
    write_csv(status_fp, ["class", "status", "count"],
              sorted([cls.value, status.value, n] for (cls, status), n in by_status.items()))
    ages = sorted([cls.value, year or 0, n] for (cls, year), n in by_year.items())
    write_csv(year_fp, ["class", "year", "count"], ([cls, year or "unknown", n] for cls, year, n in ages))


def write_geodb_csv(stats: Mapping[str, Mapping[Rir, Counter[str]]], fp: IO[str]) -> None:
    """A row per provider, by name, and registry with an eligible record, in
    table order; the fraction is of the records the provider covers."""
    rows = []
    for name in sorted(stats):
        for rir in Rir:
            counts = stats[name][rir]
            covered = counts["eligible"] - counts["no_coverage"]
            if counts["eligible"]:
                rows.append([name, rir.value, counts["eligible"], covered, counts["detected"],
                             f"{share(counts['detected'], covered):.6f}", counts["no_coverage"]])
    write_csv(fp, ["provider", "rir", "eligible", "covered", "detected", "fraction", "no_coverage"], rows)


def write_leasing_csv(stats: Mapping[tuple[Rir, ConsistencyClass], Counter[str]], fp: IO[str]) -> None:
    write_csv(fp, ["rir", "class", "records", "overlapping", "fraction"],
              sorted([rir.value, cls.value, counts["records"], counts["overlapping"],
                      f"{share(counts['overlapping'], counts['records']):.6f}"]
                     for (rir, cls), counts in stats.items() if counts["records"]))


def write_sankey_csv(edges: Mapping[tuple[Rir, Rir], int], fp: IO[str]) -> None:
    write_csv(fp, ["source_rir", "dest_rir", "count"],
              sorted([src.value, dst.value, n] for (src, dst), n in edges.items()))


def write_summary(records: Sequence[ConsistencyRecord], fp: IO[str]) -> None:
    """The candidate count, each filter reason's and class's count, and the
    accounting identity, all read from classify.pipeline_counts: the
    identity holds when every record carries a class or a filter reason."""
    counts = pipeline_counts(records)
    classified = sum(counts[cls] for cls in ConsistencyClass)
    fp.write("prefix audit summary\n")
    fp.write("====================\n\n")
    fp.write(f"candidate prefixes : {counts.total()}\n")
    for reason in FilterReason:
        if counts[reason]:
            fp.write(f"filtered {reason.value:<22}: {counts[reason]}\n")
    fp.write(f"classified         : {classified}\n\n")
    if classified:
        fp.write("class distribution\n")
        for cls in ConsistencyClass:
            fp.write(f"  {cls.value}: {counts[cls]} ({share(counts[cls], classified):.1%})\n")
    identity = "BROKEN" if None in counts else "holds"
    fp.write(f"\naccounting identity: {identity}\n")
