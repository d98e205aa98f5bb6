"""Consistency taxonomy and the prefix audit pipeline.

A prefix is judged on three views of region: where it is registered
(rir_reg), where its organization sits (rir_org), and where measurement
places it (rir_geo, a set). Five classes cover every combination:

  FC  fully consistent     same org region, used where registered
  OC  org-consistent       foreign org, used in the org's region
  OI  org-inconsistent     foreign org, used in the registered region
  RI  region-inconsistent  home org, used somewhere else entirely
  FI  fully inconsistent   foreign org, used in neither region

Filters run in FilterReason order before inference: unresponsive, anycast,
NIR-managed, BGP supernet or mixed origin, unadvertised, and (with
strict_no_org) no org country. Each responsive target of a prefix that
passes them is then located and classified; targets of two classes make
the prefix conflicting, and one whose responsive targets all get an empty
feasible set is filtered unresponsive. Order matters for the accounting:
a prefix removed at one stage is never counted at a later one.
"""

from __future__ import annotations

import enum
from collections import Counter
from operator import attrgetter
from typing import IO, TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

from .bgp import Alignment, Rib, align
from .errors import GeoAuditError
from .geo import GeoConfig, infer_region
from .index import PrefixIndex
from .registry import (
    Addr,
    Prefix,
    RegionMap,
    Registration,
    Rir,
    load_jsonl,
    record,
    refuse_repeats,
    write_jsonl,
)

if TYPE_CHECKING:  # annotations only: report loads classify without either
    from .targets import TargetPlan
    from .vantage import VantagePoint


class ConsistencyClass(enum.Enum):
    """The five classes, declared in table order."""

    FC = "FC"
    OC = "OC"
    OI = "OI"
    RI = "RI"
    FI = "FI"


class FilterReason(enum.Enum):
    """Why a prefix was not classified, declared in the order the filters run."""

    UNRESPONSIVE = "unresponsive"
    ANYCAST = "anycast"
    NIR = "nir"
    BGP_SUPERNET_OR_MIXED = "bgp_supernet_or_mixed"
    UNADVERTISED = "unadvertised"
    NO_ORG_COUNTRY = "no_org_country"
    CONFLICTING = "conflicting"


def classify_one(
    rir_reg: Rir,
    rir_org: Rir | None,
    rir_geo: frozenset[Rir] | set[Rir],
) -> ConsistencyClass:
    """Apply the five-class rule.

    A missing org region is treated as matching the registered region, so
    such prefixes can only be FC or RI. Org-consistent beats
    org-inconsistent when the geo set contains both candidate regions."""
    if not rir_geo:
        raise GeoAuditError(f"no feasible region for {rir_reg} prefix")
    if rir_org is None or rir_org == rir_reg:
        return ConsistencyClass.FC if rir_reg in rir_geo else ConsistencyClass.RI
    if rir_org in rir_geo:
        return ConsistencyClass.OC
    if rir_reg in rir_geo:
        return ConsistencyClass.OI
    return ConsistencyClass.FI


@record
class TargetOutcome(NamedTuple):
    target: Addr
    responded: bool
    vantage_id: str | None = None
    vantage_country: str | None = None
    min_rtt_ms: float | None = None
    radius_km: float | None = None
    rirs: frozenset[Rir] = frozenset()
    cls: ConsistencyClass | None = None


@record
class ConsistencyRecord(NamedTuple):
    """One row of audit output: exactly one of cls / filter_reason is set."""

    prefix: Prefix
    rir_reg: Rir
    rir_org: Rir | None = None
    org_country: str | None = None
    rir_geo: frozenset[Rir] = frozenset()
    cls: ConsistencyClass | None = None
    filter_reason: FilterReason | None = None
    flags: tuple[str, ...] = ()
    targets: tuple[TargetOutcome, ...] = ()


def write_records(records: Iterable[ConsistencyRecord], fp: IO[str]) -> int:
    return write_jsonl(records, fp)


def load_records(fp: IO[str]) -> list[ConsistencyRecord]:
    """A prefix in two records is refused, as an audit writes one record
    per plan, so the report counts each prefix once."""
    records = load_jsonl(_one_outcome, fp)
    refuse_repeats((rec.prefix for rec in records), "prefix")
    return records


def _one_outcome(obj) -> ConsistencyRecord:
    """A record carrying both class and filter_reason, or neither, is refused."""
    rec = ConsistencyRecord.from_json(obj)
    if (rec.cls is None) is (rec.filter_reason is None):
        raise GeoAuditError(f"carries {'neither class nor' if rec.cls is None else 'both class and'} filter_reason")
    return rec


class AuditConfig(NamedTuple):
    region_map: RegionMap
    geo: GeoConfig
    strict_no_org: bool = False


def _is_nir_managed(reg: Registration, nir_markers: Sequence[str]) -> bool:
    """A marker found in the lowered org id or a lowered maintainer flag."""
    if not nir_markers:
        return False
    haystacks = [f.lower() for f in reg.flags if f.startswith("mnt:")]
    haystacks.append((reg.org_id or "").lower())
    return any(marker in h for h in haystacks for marker in nir_markers)


def _filter_reason(reg: Registration, rir_org: Rir | None, responded: bool, rib: Rib,
                   anycast: PrefixIndex, nir_markers: Sequence[str], strict_no_org: bool,
                   flags: list[str]) -> FilterReason | None:
    """The first filter that removes the prefix before inference, in
    FilterReason order, or None; appends moas to flags on the way."""
    if not responded:
        return FilterReason.UNRESPONSIVE
    if anycast.overlaps(reg.prefix):
        return FilterReason.ANYCAST
    if _is_nir_managed(reg, nir_markers):
        return FilterReason.NIR
    alignment = align(reg.prefix, rib)
    if alignment.moas:
        flags.append("moas")
    if alignment.alignment in (Alignment.SUPERNET, Alignment.MIXED_AS):
        return FilterReason.BGP_SUPERNET_OR_MIXED
    if alignment.alignment is Alignment.UNADVERTISED:
        return FilterReason.UNADVERTISED
    if strict_no_org and rir_org is None:
        return FilterReason.NO_ORG_COUNTRY
    return None


def audit_prefix(
    plan: TargetPlan,
    results_by_target: Mapping[Addr, Sequence],
    vantages_by_id: Mapping[str, VantagePoint],
    rib: Rib,
    anycast: PrefixIndex,
    nir_markers: Sequence[str],
    config: AuditConfig,
) -> ConsistencyRecord:
    """Run the filter chain and classification for a single prefix;
    nir_markers come lowered, none empty, as audit_pipeline passes them."""
    reg = plan.registration
    flags = list(reg.flags)
    rir_org = config.region_map.get(reg.org_country)
    if rir_org is None and reg.org_country is not None:
        flags.append("org_country_unmapped")
    targets = [TargetOutcome(target, any(res.rtts_ms for res in results_by_target.get(target, ())))
               for target in plan.targets]
    reason = _filter_reason(reg, rir_org, any(o.responded for o in targets), rib,
                            anycast, nir_markers, config.strict_no_org, flags)
    cls = None
    if reason is None:
        if reg.org_country is None:
            flags.append("no_org_country")
        for i, outcome in enumerate(targets):
            if not outcome.responded:
                continue
            # a responsive target has a reply, so min_rtt finds one
            region = infer_region(results_by_target[outcome.target], vantages_by_id,
                                  config.geo, config.region_map)
            if not region.rirs:
                flags.append("empty_geo_set")
                continue
            targets[i] = TargetOutcome(
                target=outcome.target,
                responded=True,
                vantage_id=region.vantage_id,
                vantage_country=vantages_by_id[region.vantage_id].country,
                min_rtt_ms=region.rtt_ms,
                radius_km=region.radius_km,
                rirs=region.rirs,
                cls=classify_one(reg.rir, rir_org, region.rirs),
            )
        classes = {o.cls for o in targets if o.cls is not None}
        if len(classes) == 1:
            (cls,) = classes
        else:
            reason = FilterReason.CONFLICTING if classes else FilterReason.UNRESPONSIVE
    return ConsistencyRecord(
        prefix=reg.prefix,
        rir_reg=reg.rir,
        rir_org=rir_org,
        org_country=reg.org_country,
        rir_geo=frozenset().union(*(o.rirs for o in targets)),
        cls=cls,
        filter_reason=reason,
        flags=tuple(dict.fromkeys(flags)),  # each flag once, in first-seen order
        targets=tuple(targets),
    )


def audit_pipeline(
    plans: Iterable[TargetPlan],
    results_by_target: Mapping[Addr, Sequence],
    vantages_by_id: Mapping[str, VantagePoint],
    rib: Rib,
    anycast_prefixes: Iterable[Prefix],
    nir_markers: Sequence[str],
    config: AuditConfig,
) -> list[ConsistencyRecord]:
    """Classify every plan; exactly one record per prefix, sorted by prefix.
    A NIR marker matches case-insensitively, and an empty one never does."""
    anycast = PrefixIndex((prefix, True) for prefix in anycast_prefixes)
    nir_markers = [marker.lower() for marker in nir_markers if marker]  # once per audit
    return [audit_prefix(plan, results_by_target, vantages_by_id, rib, anycast, nir_markers, config)
            for plan in sorted(plans, key=attrgetter("prefix"))]


def pipeline_counts(records: Iterable[ConsistencyRecord]) -> Counter[ConsistencyClass | FilterReason | None]:
    """Records by outcome, each record's class or else its filter reason; an
    outcome no record has reads 0. The key None counts records with neither,
    so the accounting identity candidates = classified + sum(filtered)
    holds exactly when None is not in the counts."""
    return Counter(rec.cls or rec.filter_reason for rec in records)
