"""Command line interface.

Subcommands mirror the pipeline stages: ingest, align, plan, audit, report,
oro. The settings of plan and audit resolve in the order CLI flag,
GEOAUDIT_* environment variable, [geoaudit] section of --config, built-in
default.

Exit codes: 0 success, 1 usage error, 2 bad data or configuration
(including a broken accounting identity), 3 measurement backend
unavailable.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from . import bgp, classify, geo, measure, report, targets, vantage, whois
from .errors import BackendUnavailable, GeoAuditError
from .registry import (
    Registration,
    Rir,
    check_official_counts,
    default_region_map,
    load_region_map,
    load_registrations,
    prefix_sort_key,
    read_tokens,
    write_registrations,
)

DEFAULTS = {
    "seed": 42,
    "propagation_factor": geo.DEFAULT_PROPAGATION_FACTOR,
    "min_score": 99,
    "sample_fraction_v4": 1.0,
    "sample_fraction_v6": 1.0,
    "concurrency": 1,
    "base_url": "",
    "api_key": "",
    "tag": "",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


@dataclass
class RunConfig:
    seed: int
    propagation_factor: float
    min_score: int
    sample_fraction_v4: float
    sample_fraction_v6: float
    concurrency: int
    base_url: str
    api_key: str
    tag: str
    strict_no_org: bool = False


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    parser = configparser.ConfigParser(interpolation=None)
    with open(path, encoding="utf-8") as fp:
        parser.read_file(fp)
    if not parser.has_section("geoaudit"):
        return {}
    return dict(parser.items("geoaudit"))

def _resolve(name: str, cli_value, file_values: dict, cast):
    if cli_value is not None:
        return cli_value
    env = os.environ.get(f"GEOAUDIT_{name.upper()}")
    if env is not None:
        return cast(env)
    if name in file_values:
        return cast(file_values[name])
    return DEFAULTS[name]


def resolve_config(args: argparse.Namespace) -> RunConfig:
    file_values = _load_config_file(getattr(args, "config", None))
    return RunConfig(
        seed=_resolve("seed", getattr(args, "seed", None), file_values, int),
        propagation_factor=_resolve(
            "propagation_factor", getattr(args, "propagation_factor", None), file_values, float),
        min_score=_resolve("min_score", getattr(args, "min_score", None), file_values, int),
        sample_fraction_v4=_resolve(
            "sample_fraction_v4", getattr(args, "sample_fraction_v4", None), file_values, float),
        sample_fraction_v6=_resolve(
            "sample_fraction_v6", getattr(args, "sample_fraction_v6", None), file_values, float),
        concurrency=_resolve("concurrency", getattr(args, "concurrency", None), file_values, int),
        base_url=_resolve("base_url", getattr(args, "base_url", None), file_values, str),
        api_key=_resolve("api_key", getattr(args, "api_key", None), file_values, str),
        tag=_resolve("tag", getattr(args, "tag", None), file_values, str),
        strict_no_org=bool(getattr(args, "strict_no_org", False)),
    )


def _region_map(args):
    path = getattr(args, "region_map", None)
    if path:
        with whois.open_text(path) as fp:
            region_map = load_region_map(fp)
        return region_map
    return default_region_map()


def _country_points(args):
    path = getattr(args, "country_points", None)
    if path:
        with whois.open_text(path) as fp:
            return geo.load_country_points(fp)
    return geo.default_country_points()


def _ingest_tally(rep: whois.IngestReport) -> str:
    return (
        f"{rep.rir.value}: nets={rep.net_records_read} emitted={rep.registrations_emitted} "
        f"dups={rep.duplicates_dropped} skipped={rep.not_managed_skipped} "
        f"malformed={rep.malformed_skipped} split={rep.non_cidr_ranges_split} "
        f"orgs={rep.org_records_read} unresolved={rep.unresolved_orgs} "
        f"circular={rep.circular_refs_dropped} transfers={rep.transfers_dropped}"
    )


def cmd_ingest(args: argparse.Namespace) -> int:
    dialects = None
    if args.dialects:
        with whois.open_text(args.dialects) as fp:
            dialects = whois.load_dialects(fp)

    regs_by_rir: dict[Rir, list[Registration]] = {}
    reports: dict[Rir, whois.IngestReport] = {}
    for rir in Rir:
        path = getattr(args, rir.value.lower(), None)
        if not path:
            continue
        with whois.open_text(path) as fp:
            regs, orgs, rep = whois.parse_bulk_whois(fp, rir, dialects)
        regs, rep.unresolved_orgs = whois.link_organizations(regs, orgs)
        regs_by_rir[rir] = regs
        reports[rir] = rep
    if not regs_by_rir:
        print("ingest: no dump files given", file=sys.stderr)
        return 1

    regs_by_rir, circular, transferred = whois.drop_circular_transfers(regs_by_rir)
    merged: list[Registration] = []
    for rir, regs in regs_by_rir.items():
        reports[rir].circular_refs_dropped = circular.get(rir, 0)
        reports[rir].transfers_dropped = transferred.get(rir, 0)
        merged.extend(regs)
    merged.sort(key=lambda r: prefix_sort_key(r.prefix))

    ordered = sorted(reports.values(), key=lambda rep: rep.rir.value)
    broken = [rep for rep in ordered if not rep.check_identity()]
    if broken:
        for rep in broken:
            print(f"ingest: accounting identity broken: {_ingest_tally(rep)}", file=sys.stderr)
        return 2

    with open(args.output, "w", encoding="utf-8") as fp:
        count = write_registrations(merged, fp)

    for rep in ordered:
        print(f"{_ingest_tally(rep)} identity=ok")
    print(f"wrote {count} registrations to {args.output}")
    return 0


def cmd_align(args: argparse.Namespace) -> int:
    with whois.open_text(args.registrations) as fp:
        regs = load_registrations(fp)
    with whois.open_text(args.rib) as fp:
        rib = bgp.load_rib(fp)
    print(f"rib: {rib.route_count} routes ({rib.default_routes_dropped} default routes dropped)")

    rows = []
    for family in (4, 6):
        table = bgp.alignment_table(regs, rib, family=family)
        for rir in sorted(table, key=lambda r: r.value):
            row = table[rir]
            rows.append([rir.value, family] + [f"{row[a]:.6f}" for a in bgp.ALIGNMENT_ORDER])
            cells = " ".join(f"{a.value}={row[a]:.3f}" for a in bgp.ALIGNMENT_ORDER)
            print(f"{rir.value} v{family}: {cells}")
    if args.output:
        import csv

        with open(args.output, "w", encoding="utf-8", newline="") as fp:
            writer = csv.writer(fp)
            writer.writerow(["rir", "family"] + [a.value for a in bgp.ALIGNMENT_ORDER])
            writer.writerows(rows)
        print(f"wrote {args.output}")
    return 0


def _build_plans(args, config: RunConfig) -> list[targets.TargetPlan]:
    if getattr(args, "plans", None):
        with whois.open_text(args.plans) as fp:
            return targets.load_plans(fp)
    if not args.registrations:
        raise GeoAuditError("need --plans, or --registrations with hitlists")
    with whois.open_text(args.registrations) as fp:
        regs = load_registrations(fp)
    entries: list[targets.HitlistEntry] = []
    if args.hitlist_v4:
        with whois.open_text(args.hitlist_v4) as fp:
            entries.extend(targets.load_hitlist_v4(fp))
    if args.hitlist_v6:
        with whois.open_text(args.hitlist_v6) as fp:
            entries.extend(targets.load_hitlist_v6(fp))
    if args.aliased_prefixes:
        with whois.open_text(args.aliased_prefixes) as fp:
            aliased = targets.load_prefix_list(fp)
        entries, dropped = targets.exclude_aliased(entries, aliased)
        print(f"aliased exclusion dropped {dropped} addresses")
    plans = targets.build_target_plans(regs, entries, min_score=config.min_score)
    v4 = [p for p in plans if p.prefix.version == 4]
    v6 = [p for p in plans if p.prefix.version == 6]
    if config.sample_fraction_v4 < 1.0:
        v4 = targets.sample_plans(v4, config.sample_fraction_v4, config.seed)
    if config.sample_fraction_v6 < 1.0:
        v6 = targets.sample_plans(v6, config.sample_fraction_v6, config.seed + 1)
    plans = sorted(v4 + v6, key=lambda p: prefix_sort_key(p.prefix))
    return plans


def cmd_plan(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    plans = _build_plans(args, config)
    with open(args.output, "w", encoding="utf-8") as fp:
        count = targets.write_plans(plans, fp)
    total_targets = sum(len(p.targets) for p in plans)
    print(f"wrote {count} plans ({total_targets} targets) to {args.output}")
    return 0


def _make_backend(args, config: RunConfig):
    if args.backend == "replay":
        if not args.results:
            raise GeoAuditError("replay backend needs --results")
        with whois.open_text(args.results) as fp:
            return measure.ReplayBackend(measure.load_results(fp))
    if args.backend == "simulate":
        if not args.world:
            raise GeoAuditError("simulate backend needs --world")
        with whois.open_text(args.world) as fp:
            world = measure.SyntheticWorld.from_json(json.load(fp), seed=config.seed)
        return measure.SimulateBackend(world)
    if args.backend == "live":
        if not config.base_url or not config.api_key:
            raise GeoAuditError("live backend needs --base-url and an API key "
                                "(flag or GEOAUDIT_API_KEY)")
        return measure.LiveBackend(config.base_url, config.api_key, tag=config.tag or None)
    raise GeoAuditError(f"unknown backend {args.backend!r}")


def cmd_audit(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    region_map = _region_map(args)
    points = _country_points(args)
    if not getattr(args, "region_map", None):
        check_official_counts(region_map)
        geo.check_point_coverage(points, region_map)
    geo_config = geo.GeoConfig(country_points=points, propagation_factor=config.propagation_factor)

    plans = _build_plans(args, config)
    with whois.open_text(args.rib) as fp:
        rib = bgp.load_rib(fp)

    with whois.open_text(args.vantages) as fp:
        vantages = vantage.load_vantages(fp)
    bad_ids = set()
    if args.bad_probes:
        with whois.open_text(args.bad_probes) as fp:
            bad_ids = vantage.load_bad_ids(fp)
    default_coords = set()
    if args.default_coords:
        with whois.open_text(args.default_coords) as fp:
            default_coords = vantage.load_default_coords(fp)
    vantages, vreport = vantage.filter_vantages(vantages, bad_ids, default_coords)
    vset = vantage.select_stable_sets(vantages, region_map)
    vantages_by_id = {v.id: v for v in vantages}

    anycast = []
    if args.anycast_prefixes:
        with whois.open_text(args.anycast_prefixes) as fp:
            anycast = targets.load_prefix_list(fp)
    nir_markers: list[str] = []
    if args.nir_markers:
        with whois.open_text(args.nir_markers) as fp:
            nir_markers = read_tokens(fp)

    backend = _make_backend(args, config)

    ordered = sorted(plans, key=lambda p: prefix_sort_key(p.prefix))
    vplans = [vantage.plan_vantages(p.registration, vset, region_map) for p in ordered]

    def run_one(item) -> list[measure.MeasurementResult]:
        plan, vplan = item
        return measure.run_plan(plan.prefix, plan.targets, vplan.vantages, backend)

    if config.concurrency > 1:
        with ThreadPoolExecutor(max_workers=config.concurrency) as pool:
            all_results = list(pool.map(run_one, zip(ordered, vplans)))
    else:
        all_results = [run_one(item) for item in zip(ordered, vplans)]

    results_by_target: dict = {}
    for results in all_results:
        for res in results:
            results_by_target.setdefault(res.target, []).append(res)

    if args.capture_results:
        flat = sorted(
            (res for results in all_results for res in results),
            key=lambda r: (r.target.version, int(r.target), r.vantage_id),
        )
        with open(args.capture_results, "w", encoding="utf-8") as fp:
            measure.write_results(flat, fp)

    plans_in = []
    for plan, vplan in zip(ordered, vplans):
        reg = plan.registration
        if vplan.no_country_vantage:
            reg = reg.with_flag("no_country_vantage")
        if vplan.used_regional_fallback:
            reg = reg.with_flag("regional_vantage_fallback")
        plans_in.append(targets.TargetPlan(registration=reg, targets=plan.targets))

    audit_config = classify.AuditConfig(
        region_map=region_map, geo=geo_config, strict_no_org=config.strict_no_org)
    records = classify.audit_pipeline(
        plans_in, results_by_target, vantages_by_id, rib, anycast, nir_markers, audit_config)

    counts = classify.pipeline_counts(records)
    tally = (f"candidates={counts.candidates} classified={counts.classified} "
             + " ".join(f"{r.value}={n}" for r, n in counts.filtered.items() if n))
    if not counts.check_identity():
        print(f"audit: accounting identity broken: {tally}", file=sys.stderr)
        return 2

    with open(args.output, "w", encoding="utf-8") as fp:
        classify.write_records(records, fp)

    print(f"vantages: kept={vreport.kept} disconnected={vreport.disconnected} "
          f"bad_id={vreport.bad_id} default_coords={vreport.default_coords}")
    print(tally)
    print("accounting identity: ok")
    print(f"wrote {len(records)} records to {args.output}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    with whois.open_text(args.audit) as fp:
        records = classify.load_records(fp)
    region_map = _region_map(args)

    os.makedirs(args.out_dir, exist_ok=True)

    def out(name: str):
        return open(os.path.join(args.out_dir, name), "w", encoding="utf-8", newline="")

    with out("distribution.csv") as fp:
        report.write_distribution_csv(report.distribution(records), fp)
    with out("summary.txt") as fp:
        report.write_summary(records, fp)
    with out("sankey.csv") as fp:
        report.write_sankey_csv(report.sankey_edges(records, region_map), fp)

    if args.registrations:
        with whois.open_text(args.registrations) as fp:
            regs = load_registrations(fp)
        regs_by_prefix = {reg.prefix: reg for reg in regs}
        with out("oro.csv") as fp:
            report.write_oro_csv(report.oro_stats(regs, region_map), fp)
        by_status, by_year = report.characteristics(records, regs_by_prefix)
        with out("characteristics_status.csv") as sfp, out("characteristics_age.csv") as yfp:
            report.write_characteristics_csv(by_status, by_year, sfp, yfp)

    if args.geodb:
        providers = {}
        for spec_item in args.geodb:
            name, _, path = spec_item.partition("=")
            if not path:
                raise GeoAuditError(f"--geodb wants name=path, got {spec_item!r}")
            with whois.open_text(path) as fp:
                providers[name] = report.load_geodb(fp)
        stats = report.geodb_detection(
            records, providers, region_map, require_geo_agreement=args.same_region)
        with out("geodb.csv") as fp:
            report.write_geodb_csv(stats, fp)

    if args.leased_prefixes:
        with whois.open_text(args.leased_prefixes) as fp:
            leased = targets.load_prefix_list(fp)
        with out("leasing.csv") as fp:
            report.write_leasing_csv(report.leasing_overlap(records, leased), fp)

    print(f"report written to {args.out_dir}")
    return 0


def cmd_oro(args: argparse.Namespace) -> int:
    with whois.open_text(args.registrations) as fp:
        regs = load_registrations(fp)
    region_map = _region_map(args)
    rows = report.oro_stats(regs, region_map)
    for (rir, family) in sorted(rows, key=lambda k: (k[1], k[0].value)):
        row = rows[(rir, family)]
        print(f"{rir.value} v{family}: prefixes={row.prefixes} oro={row.oro_prefixes} "
              f"({row.prefix_fraction:.1%}) units={row.units:.1f} oro_units={row.oro_units:.1f} "
              f"({row.unit_fraction:.1%}) unknown_org={row.unknown_org}")
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fp:
            report.write_oro_csv(rows, fp)
        print(f"wrote {args.output}")
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="INI file with a [geoaudit] section")
    sub.add_argument("--seed", type=int, help="run seed (default 42)")


def _add_plan_inputs(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--registrations", help="registrations.jsonl from ingest")
    sub.add_argument("--plans", help="precomputed plans.jsonl (skips hitlist matching)")
    sub.add_argument("--hitlist-v4", help="responsive IPv4 addresses (csv addr,score)")
    sub.add_argument("--hitlist-v6", help="responsive IPv6 addresses (one per line)")
    sub.add_argument("--aliased-prefixes", help="aliased prefixes to exclude (one per line)")
    sub.add_argument("--min-score", type=int, help="minimum v4 hitlist score (default 99)")
    sub.add_argument("--sample-fraction-v4", type=float, help="IPv4 plan sample fraction")
    sub.add_argument("--sample-fraction-v6", type=float, help="IPv6 plan sample fraction")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="geoaudit",
                     description="Audit IP prefix registrations for geographic consistency")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("ingest", help="parse bulk WHOIS dumps into registrations.jsonl")
    for rir in Rir:
        p.add_argument(f"--{rir.value.lower()}", help=f"{rir.value} bulk dump (gzip ok)")
    p.add_argument("--dialects", help="dialect table (INI), default bundled")
    p.add_argument("-o", "--output", required=True, help="registrations.jsonl path")
    p.set_defaults(func=cmd_ingest)

    p = subs.add_parser("align", help="compare registrations against a BGP table")
    p.add_argument("--registrations", required=True)
    p.add_argument("--rib", required=True, help="routes as '<prefix> <origin_asn>' lines")
    p.add_argument("-o", "--output", help="write alignment fractions CSV")
    p.set_defaults(func=cmd_align)

    p = subs.add_parser("plan", help="choose probe targets per registered prefix")
    _add_plan_inputs(p)
    p.add_argument("-o", "--output", required=True, help="plans.jsonl path")
    _add_common(p)
    p.set_defaults(func=cmd_plan)

    p = subs.add_parser("audit", help="measure and classify prefixes end to end")
    _add_plan_inputs(p)
    p.add_argument("--rib", required=True)
    p.add_argument("--vantages", required=True, help="vantage inventory (jsonl)")
    p.add_argument("--bad-probes", help="vantage ids to exclude")
    p.add_argument("--default-coords", help="default geolocation coordinates (csv)")
    p.add_argument("--anycast-prefixes", help="anycast prefixes to filter")
    p.add_argument("--nir-markers", help="markers for registry-delegated national space")
    p.add_argument("--region-map", help="country,rir csv (default bundled)")
    p.add_argument("--country-points", help="country,lat,lon csv (default bundled)")
    p.add_argument("--backend", choices=("replay", "simulate", "live"), default="replay")
    p.add_argument("--results", help="replay: measurement archive (results.jsonl)")
    p.add_argument("--world", help="simulate: synthetic world json")
    p.add_argument("--base-url", help="live: API root")
    p.add_argument("--api-key", help="live: key (or GEOAUDIT_API_KEY)")
    p.add_argument("--tag", help="live: tag measurements for later cleanup")
    p.add_argument("--propagation-factor", type=float,
                   help="fraction of c used for radii (default 2/3)")
    p.add_argument("--concurrency", type=int, help="parallel measurement workers")
    p.add_argument("--strict-no-org", action="store_true",
                   help="filter prefixes without an org country instead of classifying")
    p.add_argument("--capture-results", help="write raw measurements for later replay")
    p.add_argument("-o", "--output", required=True, help="audit.jsonl path")
    _add_common(p)
    p.set_defaults(func=cmd_audit)

    p = subs.add_parser("report", help="aggregate an audit into CSV tables")
    p.add_argument("--audit", required=True, help="audit.jsonl from the audit command")
    p.add_argument("--registrations", help="enables oro and characteristics tables")
    p.add_argument("--geodb", action="append",
                   help="name=path of a provider table (csv prefix,country); repeatable")
    p.add_argument("--same-region", action="store_true",
                   help="geodb detection must also agree with the measured region")
    p.add_argument("--leased-prefixes", help="known leased prefixes (one per line)")
    p.add_argument("--region-map", help="country,rir csv (default bundled)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_report)

    p = subs.add_parser("oro", help="out-of-region organization stats from registrations")
    p.add_argument("--registrations", required=True)
    p.add_argument("--region-map", help="country,rir csv (default bundled)")
    p.add_argument("-o", "--output", help="write CSV")
    p.set_defaults(func=cmd_oro)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BackendUnavailable as exc:
        print(f"geoaudit: backend unavailable: {exc}", file=sys.stderr)
        return 3
    # truncated gzip raises EOFError, which is not an OSError
    except (GeoAuditError, OSError, EOFError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"geoaudit: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
