"""Command line interface.

Subcommands mirror the pipeline stages: ingest, align, plan, audit, report,
oro. The settings of plan and audit resolve in the order CLI flag,
GEOAUDIT_* environment variable, [geoaudit] section of --config, built-in
default.

Exit codes: 0 success, 1 usage error, 2 bad data or configuration
(including a broken accounting identity), 3 measurement backend
unavailable. Apart from a broken identity, exit 2 comes only from a
GeoAuditError or an OSError: any other exception is a bug, and it
propagates with its traceback.

Each command imports the stage modules it runs when it runs, so a process
pays only for the stages of its own command.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import os
import sys
import zlib
from contextlib import contextmanager, redirect_stdout
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

from .errors import BackendUnavailable, GeoAuditError
from .registry import (
    DEFAULT_PROPAGATION_FACTOR,
    Registration,
    Rir,
    default_region_map,
    load_region_map,
    load_registrations,
    open_text,
    oro_stats,
    parse_as,
    read_ini,
    read_tokens,
    share,
    write_csv,
    write_oro_csv,
    write_registrations,
)

if TYPE_CHECKING:
    from . import targets, whois


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


class RunConfig(NamedTuple):
    """The settings of plan and audit. Each default is the built-in one, and
    its type casts the text of GEOAUDIT_<NAME> and of the config file."""

    seed: int = 42
    propagation_factor: float = DEFAULT_PROPAGATION_FACTOR
    min_score: int = 99
    sample_fraction_v4: float = 1.0
    sample_fraction_v6: float = 1.0
    concurrency: int = 1
    base_url: str = ""
    api_key: str = ""
    tag: str = ""


# flags that only build plans, refused with --plans, and the flags that one
# backend alone reads, refused with another; environment and file values are no flags
_PLAN_BUILDING = ("registrations", "hitlist_v4", "hitlist_v6", "aliased_prefixes", "min_score",
                  "sample_fraction_v4", "sample_fraction_v6")
_BACKEND_FLAGS = {"replay": ("results",), "simulate": ("world",),
                  "live": ("base_url", "api_key", "tag", "concurrency")}
# the text flags that name no file a command reads; every other one names an input
_NOT_INPUTS = ("command", "backend", "capture_results", "output", "out_dir", *_BACKEND_FLAGS["live"])
# every table report can write into --out-dir
_REPORT_TABLES = ("distribution.csv", "summary.txt", "sankey.csv", "oro.csv", "geodb.csv",
                  "characteristics_status.csv", "characteristics_age.csv", "leasing.csv")
# setting -> (test of its value, the allowed range in words); resolve_config checks them
_RANGES = {
    "propagation_factor": (lambda x: 0 < x <= 1, "in (0, 1]"),
    "sample_fraction_v4": (lambda x: 0 <= x <= 1, "in [0, 1]"),
    "sample_fraction_v6": (lambda x: 0 <= x <= 1, "in [0, 1]"),
    "concurrency": (lambda x: x >= 1, "at least 1"),
}


def _read(path: str, loader, errors: str = "strict"):
    """Parse one input (gzip ok, strict UTF-8 unless errors says) with
    loader(fp). Bad input, a byte that is not UTF-8, a file that cannot be
    read or decompressed, or a CSV the csv module refuses, raises
    GeoAuditError naming path; any other exception is a bug."""
    with open_text(path, errors) as fp:
        try:
            return loader(fp)
        except (GeoAuditError, OSError, EOFError, UnicodeDecodeError, csv.Error, zlib.error) as exc:
            raise GeoAuditError(f"{path}: {exc}") from None


@contextmanager
def _output(path: str):
    """Write path through a temp file that replaces it only once the block completes."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fp:
            yield fp
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _flag(name: str) -> str:
    return f"--{name.replace('_', '-')}"


def _refuse_flags(args: argparse.Namespace, names, reason: str) -> None:
    given = [_flag(name) for name in names if getattr(args, name) is not None]
    if given:
        raise GeoAuditError(f"{', '.join(given)} cannot take effect {reason}")


def _refuse_aliases(args: argparse.Namespace) -> None:
    """Refuse, naming both flags, two outputs that resolve to one file or an
    output that resolves to an input: the later write would replace the
    other file whole. main runs it before the command reads anything."""
    if args.command == "report":
        outputs = [("--out-dir", os.path.join(args.out_dir, name)) for name in _REPORT_TABLES]
    else:  # in the order the command writes them
        outputs = [(_flag(name), getattr(args, name, None)) for name in ("capture_results", "output")]
    inputs = [(_flag(name), path) for name, path in vars(args).items()
              if type(path) is str and name not in _NOT_INPUTS]
    inputs += [("--geodb", spec.partition("=")[2]) for spec in getattr(args, "geodb", None) or ()]
    written: dict[str, str] = {}  # resolved path -> the flag of the output that writes it
    for n, (flag, path) in enumerate(outputs + inputs):
        real = os.path.realpath(path) if path else None
        if real in written:
            raise GeoAuditError(f"{written[real]} and {flag} name one file: {path}")
        if real and n < len(outputs):
            written[real] = flag


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Each setting the subcommand has a flag for from its first source, the
    others at their defaults; a value out of range names that source. A flag
    that cannot take effect is refused: one in _PLAN_BUILDING with --plans,
    one that _BACKEND_FLAGS gives a backend other than --backend."""
    if getattr(args, "plans", None):
        _refuse_flags(args, _PLAN_BUILDING, "with --plans")
    if hasattr(args, "backend"):  # audit's; plan has none
        others = [name for backend, names in _BACKEND_FLAGS.items() if backend != args.backend
                  for name in names]
        _refuse_flags(args, others, f"with --backend {args.backend}")
    file_values: dict[str, str] = {}
    path = getattr(args, "config", None)
    if path:
        parser = _read(path, read_ini)
        if parser.has_section("geoaudit"):
            file_values = dict(parser.items("geoaudit"))
    unknown = sorted(set(file_values) - set(RunConfig._fields))
    if unknown:
        raise GeoAuditError(f"{path}: unknown setting in [geoaudit]: {', '.join(unknown)}")
    values = {}
    for name, default in RunConfig._field_defaults.items():
        if not hasattr(args, name):
            continue  # a setting this subcommand never reads
        value = getattr(args, name)
        source = _flag(name)
        if value is None:
            env = f"GEOAUDIT_{name.upper()}"
            source, text = ((env, os.environ[env]) if env in os.environ
                            else (f"{path} [geoaudit]", file_values.get(name)))
            try:
                value = default if text is None else type(default)(text)
            except ValueError as exc:
                raise GeoAuditError(f"{name} from {source}: {exc}") from None
        if name in _RANGES:
            ok, allowed = _RANGES[name]
            if not ok(value):
                raise GeoAuditError(f"{name} from {source} is {value}, must be {allowed}")
        values[name] = value
    return RunConfig(**values)


def _region_map(args):
    return _read(args.region_map, load_region_map) if args.region_map else default_region_map()


def _tally(counts: Mapping[str, int]) -> str:
    """The name=value line of a stage's counts, in the mapping's order."""
    return " ".join(f"{name}={n}" for name, n in counts.items())


def _ingest_tally(rep: whois.IngestReport) -> str:
    return f"{rep.rir.value}: " + _tally({
        "nets": rep.net_records_read, "emitted": rep.registrations_emitted,
        "dups": rep.duplicates_dropped, "skipped": rep.not_managed_skipped,
        "malformed": rep.malformed_skipped, "split": rep.non_cidr_ranges_split,
        "orgs": rep.org_records_read, "unresolved": rep.unresolved_orgs,
        "circular": rep.circular_refs_dropped, "transfers": rep.transfers_dropped})


def _identity_broken(command: str, checks: Iterable[tuple[bool, str]]) -> bool:
    """Print on stderr the tally of each (identity holds, tally) check that
    fails; True if one did, when the command exits 2 and writes nothing."""
    broken = [tally for holds, tally in checks if not holds]
    for tally in broken:
        print(f"{command}: accounting identity broken: {tally}", file=sys.stderr)
    return bool(broken)


def cmd_ingest(args: argparse.Namespace) -> int:
    from . import whois

    # None is the bundled table, which whois parses once per process
    dialects = _read(args.dialects, whois.load_dialects) if args.dialects else None

    regs_by_rir: dict[Rir, list[Registration]] = {}
    reports: dict[Rir, whois.IngestReport] = {}
    for rir in Rir:
        path = getattr(args, rir.value.lower(), None)
        if not path:
            continue
        # the one input whose bytes may be replaced: RIPE database exports are Latin-1
        regs, orgs, rep = _read(path, lambda fp: whois.parse_bulk_whois(fp, rir, dialects), "replace")
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
    merged.sort(key=attrgetter("prefix"))

    ordered = sorted(reports.values(), key=lambda rep: rep.rir.value)
    if _identity_broken("ingest", [(rep.check_identity(), _ingest_tally(rep)) for rep in ordered]):
        return 2

    with _output(args.output) as fp:
        count = write_registrations(merged, fp)

    for rep in ordered:
        print(f"{_ingest_tally(rep)} identity=ok")
    print(f"wrote {count} registrations to {args.output}")
    return 0


def cmd_align(args: argparse.Namespace) -> int:
    from . import bgp

    regs = _read(args.registrations, load_registrations)
    rib = _read(args.rib, bgp.load_rib)
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
        with _output(args.output) as fp:
            write_csv(fp, ["rir", "family"] + [a.value for a in bgp.ALIGNMENT_ORDER], rows)
        print(f"wrote {args.output}")
    return 0


def _build_plans(args, config: RunConfig) -> list[targets.TargetPlan]:
    """Plans from --plans, or from registrations and hitlists; in prefix order."""
    from . import targets

    if args.plans:
        plans = _read(args.plans, targets.load_plans)
    elif not args.registrations:
        raise GeoAuditError("need --plans, or --registrations with hitlists")
    else:
        regs = _read(args.registrations, load_registrations)
        entries: list[targets.HitlistEntry] = []
        if args.hitlist_v4:
            entries += _read(args.hitlist_v4, targets.load_hitlist_v4)
        if args.hitlist_v6:
            entries += _read(args.hitlist_v6, targets.load_hitlist_v6)
        if args.aliased_prefixes:
            aliased = _read(args.aliased_prefixes, targets.load_prefix_list)
            entries, dropped = targets.exclude_aliased(entries, aliased)
            print(f"aliased exclusion dropped {dropped} addresses")
        plans = targets.build_target_plans(regs, entries, min_score=config.min_score)
        v4 = [p for p in plans if p.prefix.version == 4]
        v6 = [p for p in plans if p.prefix.version == 6]
        if config.sample_fraction_v4 < 1.0:
            v4 = targets.sample_plans(v4, config.sample_fraction_v4, config.seed)
        if config.sample_fraction_v6 < 1.0:
            v6 = targets.sample_plans(v6, config.sample_fraction_v6, config.seed + 1)
        plans = v4 + v6
    return sorted(plans, key=attrgetter("prefix"))


def cmd_plan(args: argparse.Namespace) -> int:
    from . import targets

    config = resolve_config(args)
    plans = _build_plans(args, config)
    with _output(args.output) as fp:
        count = targets.write_plans(plans, fp)
    total_targets = sum(len(p.targets) for p in plans)
    print(f"wrote {count} plans ({total_targets} targets) to {args.output}")
    return 0


def _make_backend(args, config: RunConfig):
    from . import measure

    if args.backend == "replay":
        if not args.results:
            raise GeoAuditError("replay backend needs --results")
        return _read(args.results, lambda fp: measure.ReplayBackend(measure.load_results(fp)))
    if args.backend == "simulate":
        if not args.world:
            raise GeoAuditError("simulate backend needs --world")
        world = _read(args.world, lambda fp: measure.SyntheticWorld.from_json(
            parse_as(json.loads, fp.read()), seed=config.seed))
        return measure.SimulateBackend(world)
    if not config.base_url or not config.api_key:  # live, the one backend left
        raise GeoAuditError("live backend needs --base-url and an API key "
                            "(flag or GEOAUDIT_API_KEY)")
    return measure.LiveBackend(config.base_url, config.api_key, tag=config.tag or None,
                               in_flight=config.concurrency)


def cmd_audit(args: argparse.Namespace) -> int:
    from . import bgp, classify, geo, measure, targets, vantage

    config = resolve_config(args)
    region_map = _region_map(args)
    points = (_read(args.country_points, geo.load_country_points) if args.country_points
              else geo.default_country_points())
    geo.check_point_coverage(points, region_map)
    geo_config = geo.GeoConfig(country_points=points, propagation_factor=config.propagation_factor)

    plans = _build_plans(args, config)
    rib = _read(args.rib, bgp.load_rib)

    vantages = _read(args.vantages, vantage.load_vantages)
    bad_ids = _read(args.bad_probes, vantage.load_bad_ids) if args.bad_probes else set()
    default_coords = (_read(args.default_coords, vantage.load_default_coords)
                      if args.default_coords else set())
    vantages, vcounts = vantage.filter_vantages(vantages, bad_ids, default_coords)
    vset = vantage.select_stable_sets(vantages, region_map)
    vantages_by_id = {v.id: v for v in vantages}

    anycast = _read(args.anycast_prefixes, targets.load_prefix_list) if args.anycast_prefixes else []
    nir_markers = _read(args.nir_markers, lambda fp: list(read_tokens(fp))) if args.nir_markers else []

    backend = _make_backend(args, config)

    vplans = [vantage.plan_vantages(p.registration, vset, region_map) for p in plans]

    # one call for every plan, so the live backend's window spans prefixes
    jobs = [(target, vplan.vantages) for plan, vplan in zip(plans, vplans)
            for target in plan.targets]
    # load_plans refuses a target in two plans, so each is measured once
    try:
        results_by_target = {
            target: measure.target_results(target, plan_vantages, replies)
            for (target, plan_vantages), replies
            in zip(jobs, backend.measure_targets(jobs), strict=True)}
    finally:
        backend.close()

    plans_in = []
    for plan, vplan in zip(plans, vplans):
        reg = plan.registration
        if vplan.no_country_vantage:
            reg = reg.with_flag("no_country_vantage")
        if vplan.used_regional_fallback:
            reg = reg.with_flag("regional_vantage_fallback")
        plans_in.append(targets.TargetPlan(registration=reg, targets=plan.targets))

    audit_config = classify.AuditConfig(
        region_map=region_map, geo=geo_config, strict_no_org=args.strict_no_org)
    records = classify.audit_pipeline(
        plans_in, results_by_target, vantages_by_id, rib, anycast, nir_markers, audit_config)

    counts = classify.pipeline_counts(records)
    classified = sum(counts[cls] for cls in classify.ConsistencyClass)
    # the space between the two halves stays when no record was filtered
    tally = (_tally({"candidates": counts.total(), "classified": classified}) + " "
             + _tally({r.value: counts[r] for r in classify.FilterReason if counts[r]}))
    if _identity_broken("audit", [(None not in counts, tally)]):
        return 2

    if args.capture_results:
        # ordered by target, then vantage id, the order of target_results
        flat = (res for target in sorted(results_by_target)
                for res in results_by_target[target])
        with _output(args.capture_results) as fp:
            measure.write_results(flat, fp)

    with _output(args.output) as fp:
        classify.write_records(records, fp)

    print("vantages: " + _tally({**vcounts, "unmapped_country": vset.unmapped_country}))
    print(backend.tally())
    print(tally)
    print("accounting identity: ok")
    print(f"wrote {len(records)} records to {args.output}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from . import classify, report, targets

    if args.same_region and not args.geodb:  # it qualifies geodb detection alone
        raise GeoAuditError("--same-region cannot take effect without --geodb")
    # every input is read before the first table is replaced, so a bad path
    # leaves the previous report whole
    records = _read(args.audit, classify.load_records)
    region_map = _region_map(args)
    regs = _read(args.registrations, load_registrations) if args.registrations else None
    providers = {}
    for spec_item in args.geodb or ():
        name, _, path = spec_item.partition("=")
        if not name or not path:  # a blank name would head geodb.csv rows with no provider
            raise GeoAuditError(f"--geodb wants name=path, got {spec_item!r}")
        if name in providers:  # one table would silently replace the other
            raise GeoAuditError(f"--geodb names provider {name!r} twice")
        providers[name] = _read(path, report.load_geodb)
    leased = (_read(args.leased_prefixes, targets.load_prefix_list)
              if args.leased_prefixes else None)

    os.makedirs(args.out_dir, exist_ok=True)

    def out(name: str):
        return _output(os.path.join(args.out_dir, name))

    with out("distribution.csv") as fp:
        report.write_distribution_csv(report.distribution(records), fp)
    with out("summary.txt") as fp:
        report.write_summary(records, fp)
    with out("sankey.csv") as fp:
        report.write_sankey_csv(report.sankey_edges(records, region_map), fp)

    if regs is not None:
        with out("oro.csv") as fp:
            write_oro_csv(oro_stats(regs, region_map), fp)
        by_status, by_year = report.characteristics(records, targets.registrations_by_prefix(regs))
        with out("characteristics_status.csv") as sfp, out("characteristics_age.csv") as yfp:
            report.write_characteristics_csv(by_status, by_year, sfp, yfp)

    if providers:
        stats = report.geodb_detection(
            records, providers, region_map, require_geo_agreement=args.same_region)
        with out("geodb.csv") as fp:
            report.write_geodb_csv(stats, fp)

    if leased is not None:
        with out("leasing.csv") as fp:
            report.write_leasing_csv(report.leasing_overlap(records, leased), fp)

    print(f"report written to {args.out_dir}")
    return 0


def cmd_oro(args: argparse.Namespace) -> int:
    regs = _read(args.registrations, load_registrations)
    region_map = _region_map(args)
    rows = oro_stats(regs, region_map)
    for (rir, family), row in rows.items():
        print(f"{rir.value} v{family}: prefixes={row['prefixes']} oro={row['oro_prefixes']} "
              f"({share(row['oro_prefixes'], row['prefixes']):.1%}) units={row['units']:.1f} "
              f"oro_units={row['oro_units']:.1f} ({share(row['oro_units'], row['units']):.1%}) "
              f"unknown_org={row['unknown_org']}")
    if args.output:
        with _output(args.output) as fp:
            write_oro_csv(rows, fp)
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
    p.add_argument("--concurrency", type=int,
                   help="live: measurements in flight (default 1)")
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
    """Run one command. Cyclic garbage collection is off while it runs: a
    command builds its records once and keeps them to the end, so each pass
    would walk them and free nothing. The collector is left as main found it."""
    parser = build_parser()
    args = parser.parse_args(argv)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        try:  # what it prints goes out once it returns, so a closed stdout costs no file
            with redirect_stdout(io.StringIO()) as held:
                _refuse_aliases(args)
                return args.func(args)
        finally:
            sys.stdout.write(held.getvalue())
    except BackendUnavailable as exc:
        print(f"geoaudit: backend unavailable: {exc}", file=sys.stderr)
        return 3
    except (GeoAuditError, OSError) as exc:
        print(f"geoaudit: {exc}", file=sys.stderr)
        return 2
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
