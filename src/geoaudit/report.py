"""Aggregations over audit output: class distributions, registration
characteristics, geolocation-database checks, lease-list overlap, and the
CSV/summary writers behind the report command. The out-of-region
organization table needs no audit; it lives in registry and is re-exported
here.
"""

from __future__ import annotations

import csv
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
    write_oro_csv,
)


def distribution(records: Iterable[ConsistencyRecord]) -> dict[Rir | None, dict[ConsistencyClass, float]]:
    """Per-registry class fractions over classified records; the None row is
    the overall total. Every row sums to 1."""
    counts: dict[Rir | None, dict[ConsistencyClass, int]] = {}
    for rec in records:
        if rec.cls is None:
            continue
        for key in (rec.rir_reg, None):
            row = counts.setdefault(key, dict.fromkeys(ConsistencyClass, 0))
            row[rec.cls] += 1
    out: dict[Rir | None, dict[ConsistencyClass, float]] = {}
    for key, row in counts.items():
        total = sum(row.values())
        out[key] = {cls: row[cls] / total for cls in ConsistencyClass}
    return out


def characteristics(
    records: Iterable[ConsistencyRecord],
    regs_by_prefix: Mapping[Prefix, Registration],
) -> tuple[dict[tuple[ConsistencyClass, Status], int], dict[tuple[ConsistencyClass, int | None], int]]:
    """Cross-tabulate class against registration status and last-updated year."""
    by_status: dict[tuple[ConsistencyClass, Status], int] = {}
    by_year: dict[tuple[ConsistencyClass, int | None], int] = {}
    for rec in records:
        if rec.cls is None:
            continue
        reg = regs_by_prefix.get(rec.prefix)
        if reg is None:
            continue
        skey = (rec.cls, reg.status)
        by_status[skey] = by_status.get(skey, 0) + 1
        year = reg.last_updated.year if reg.last_updated else None
        ykey = (rec.cls, year)
        by_year[ykey] = by_year.get(ykey, 0) + 1
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


class DetectionStats:
    __slots__ = ("eligible", "detected", "no_coverage")

    def __init__(self):
        self.eligible = self.detected = self.no_coverage = 0

    @property
    def covered(self) -> int:
        return self.eligible - self.no_coverage

    @property
    def fraction(self) -> float:
        # detection rate over prefixes the provider actually covers
        return self.detected / self.covered if self.covered else 0.0


def geodb_detection(
    records: Iterable[ConsistencyRecord],
    providers: Mapping[str, Sequence[GeoDbEntry]],
    region_map: RegionMap,
    require_geo_agreement: bool = False,
) -> dict[str, dict[Rir, DetectionStats]]:
    """How often each provider places measured-inconsistent prefixes (RI/FI)
    outside their registered region.

    Default criterion: the provider's country maps to a registry other than
    the registering one. With require_geo_agreement the provider's region
    must also be one the measurements found feasible."""
    indexes = {
        name: PrefixIndex((entry.prefix, entry.country) for entry in entries)
        for name, entries in providers.items()
    }

    out: dict[str, dict[Rir, DetectionStats]] = {
        name: {rir: DetectionStats() for rir in Rir} for name in providers
    }
    for rec in records:
        if rec.cls not in (ConsistencyClass.RI, ConsistencyClass.FI):
            continue
        probe_addr = rec.prefix.network_address
        for name, index in indexes.items():
            stats = out[name][rec.rir_reg]
            stats.eligible += 1
            hit = index.longest_match(probe_addr)
            provider_rir = None if hit is None else region_map.get(hit[1])
            if provider_rir is None:
                stats.no_coverage += 1
                continue
            detected = provider_rir != rec.rir_reg
            if require_geo_agreement:
                detected = detected and provider_rir in rec.rir_geo
            if detected:
                stats.detected += 1
    return out


class LeasingStats:
    __slots__ = ("records", "overlapping")

    def __init__(self):
        self.records = self.overlapping = 0

    @property
    def fraction(self) -> float:
        return self.overlapping / self.records if self.records else 0.0


def leasing_overlap(
    records: Iterable[ConsistencyRecord],
    leased: Iterable[Prefix],
) -> dict[tuple[Rir, ConsistencyClass], LeasingStats]:
    """Overlap between measured-inconsistent prefixes and a lease list.

    Any relation counts: exact, contained in a leased block, or containing
    one. Rows exist for every (registry, RI/FI) pair."""
    index = PrefixIndex((prefix, True) for prefix in leased)
    out = {(rir, cls): LeasingStats() for rir in Rir for cls in (ConsistencyClass.RI, ConsistencyClass.FI)}
    for rec in records:
        if rec.cls not in (ConsistencyClass.RI, ConsistencyClass.FI):
            continue
        stats = out[(rec.rir_reg, rec.cls)]
        stats.records += 1
        if index.overlaps(rec.prefix):
            stats.overlapping += 1
    return out


def sankey_edges(
    records: Iterable[ConsistencyRecord],
    region_map: RegionMap,
) -> list[tuple[Rir, Rir, int]]:
    """Flow counts of classified records from registered region to measured
    region: the region the map gives the vantage country of the first
    classified target whose vantage country it knows. A record with no
    such target is left out of sankey.csv."""
    counts: dict[tuple[Rir, Rir], int] = {}
    for rec in records:
        if rec.cls is None:
            continue
        dest: Rir | None = None
        for outcome in rec.targets:
            dest = None if outcome.cls is None else region_map.get(outcome.vantage_country)
            if dest is not None:
                break
        if dest is None:
            continue
        key = (rec.rir_reg, dest)
        counts[key] = counts.get(key, 0) + 1
    return [(src, dst, n) for (src, dst), n in sorted(counts.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value))]


def write_distribution_csv(rows: Mapping[Rir | None, Mapping[ConsistencyClass, float]], fp: IO[str]) -> None:
    writer = csv.writer(fp)
    writer.writerow(["rir"] + [cls.value for cls in ConsistencyClass])
    for rir in [*Rir, None]:
        if rir not in rows:
            continue
        label = rir.value if rir else "ALL"
        writer.writerow([label] + [f"{rows[rir][cls]:.6f}" for cls in ConsistencyClass])


def write_characteristics_csv(
    by_status: Mapping[tuple[ConsistencyClass, Status], int],
    by_year: Mapping[tuple[ConsistencyClass, int | None], int],
    status_fp: IO[str],
    year_fp: IO[str],
) -> None:
    writer = csv.writer(status_fp)
    writer.writerow(["class", "status", "count"])
    for (cls, status), count in sorted(by_status.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value)):
        writer.writerow([cls.value, status.value, count])
    writer = csv.writer(year_fp)
    writer.writerow(["class", "year", "count"])
    for (cls, year), count in sorted(by_year.items(), key=lambda kv: (kv[0][0].value, kv[0][1] or 0)):
        writer.writerow([cls.value, year if year is not None else "unknown", count])


def write_geodb_csv(stats: Mapping[str, Mapping[Rir, DetectionStats]], fp: IO[str]) -> None:
    writer = csv.writer(fp)
    writer.writerow(["provider", "rir", "eligible", "covered", "detected", "fraction", "no_coverage"])
    for name in sorted(stats):
        for rir in Rir:
            row = stats[name][rir]
            if row.eligible == 0:
                continue
            writer.writerow([name, rir.value, row.eligible, row.covered, row.detected,
                             f"{row.fraction:.6f}", row.no_coverage])


def write_leasing_csv(stats: Mapping[tuple[Rir, ConsistencyClass], LeasingStats], fp: IO[str]) -> None:
    writer = csv.writer(fp)
    writer.writerow(["rir", "class", "records", "overlapping", "fraction"])
    for (rir, cls), row in sorted(stats.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value)):
        if row.records == 0:
            continue
        writer.writerow([rir.value, cls.value, row.records, row.overlapping, f"{row.fraction:.6f}"])


def write_sankey_csv(edges: Sequence[tuple[Rir, Rir, int]], fp: IO[str]) -> None:
    writer = csv.writer(fp)
    writer.writerow(["source_rir", "dest_rir", "count"])
    for src, dst, count in edges:
        writer.writerow([src.value, dst.value, count])


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
            fp.write(f"  {cls.value}: {counts[cls]} ({counts[cls] / classified:.1%})\n")
    identity = "BROKEN" if None in counts else "holds"
    fp.write(f"\naccounting identity: {identity}\n")
