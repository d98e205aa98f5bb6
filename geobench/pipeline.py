"""In-process, traced replica of the geoaudit CLI commands.

Each function follows the matching ``cli.cmd_*`` call for call, with a span
around every call into a geoaudit module, and writes the same output files.
The benchmark checks that these files equal the CLI's byte for byte, so this
replica cannot drift from the program it times.
"""

from __future__ import annotations

import csv
import json
import os

from geoaudit import bgp, classify, geo, measure, report, targets, vantage, whois
from geoaudit.registry import (
    Rir,
    check_official_counts,
    default_region_map,
    load_registrations,
    prefix_sort_key,
    write_registrations,
)

MIN_SCORE = 99  # the CLI default


class CountingBackend:
    """Counts calls through the Backend.measure protocol, and the calls that
    returned at least one RTT."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.replied = 0

    def measure(self, vantage_point, target):
        self.calls += 1
        rtts = self.inner.measure(vantage_point, target)
        self.replied += bool(rtts)
        return rtts


def _load(t, name, loader, path, count=len):
    with whois.open_text(path) as fp, t.span(name) as span:
        out = loader(fp)
        span["items"] = count(out)
    return out


def _routes(rib):
    return rib.route_count


def ingest(t, camp, out):
    with t.span("cli.ingest"):
        regs_by_rir = {}
        for rir in Rir:
            with whois.open_text(os.path.join(camp, f"{rir.value.lower()}.db.gz")) as fp, \
                    t.span("whois.parse_bulk_whois") as span:
                regs, orgs, rep = whois.parse_bulk_whois(fp, rir, None)
                span["items"] = rep.net_records_read
            regs, rep.unresolved_orgs = t.call("whois.link_organizations",
                                               whois.link_organizations, regs, orgs)
            regs_by_rir[rir] = regs
        regs_by_rir, _, _ = t.call("whois.drop_circular_transfers",
                                   whois.drop_circular_transfers, regs_by_rir)
        merged = [reg for regs in regs_by_rir.values() for reg in regs]
        merged.sort(key=lambda r: prefix_sort_key(r.prefix))
        with open(out, "w", encoding="utf-8") as fp, t.span("registry.write_registrations") as span:
            span["items"] = write_registrations(merged, fp)


def align(t, regs_path, rib_path, out):
    with t.span("cli.align"):
        regs = _load(t, "registry.load_registrations", load_registrations, regs_path)
        rib = _load(t, "bgp.load_rib", bgp.load_rib, rib_path, _routes)
        rows = []
        for family in (4, 6):
            n = sum(1 for r in regs if r.prefix.version == family)
            with t.span("bgp.alignment_table") as span:
                table = bgp.alignment_table(regs, rib, family=family)
                span["items"] = n
            for rir in sorted(table, key=lambda r: r.value):
                row = table[rir]
                rows.append([rir.value, family] + [f"{row[a]:.6f}" for a in bgp.ALIGNMENT_ORDER])
        with open(out, "w", encoding="utf-8", newline="") as fp:
            writer = csv.writer(fp)
            writer.writerow(["rir", "family"] + [a.value for a in bgp.ALIGNMENT_ORDER])
            writer.writerows(rows)


def oro(t, regs_path, out):
    with t.span("cli.oro"):
        regs = _load(t, "registry.load_registrations", load_registrations, regs_path)
        region_map = t.call("registry.default_region_map", default_region_map)
        rows = t.call("report.oro_stats", report.oro_stats, regs, region_map)
        with open(out, "w", encoding="utf-8", newline="") as fp:
            t.call("report.write_oro_csv", report.write_oro_csv, rows, fp)


def audit(t, camp, regs_path, backend, out, seed, capture=None, results=None,
          base_url=None, api_key=None, limit=None):
    """One `geoaudit audit` run with the benchmark's fixed flags; returns what
    the per-layer metrics need."""
    with t.span(f"cli.audit_{backend}"):
        region_map = t.call("registry.default_region_map", default_region_map)
        points = t.call("geo.default_country_points", geo.default_country_points)
        t.call("registry.check_official_counts", check_official_counts, region_map)
        t.call("geo.check_point_coverage", geo.check_point_coverage, points, region_map)
        geo_config = geo.GeoConfig(country_points=points,
                                   propagation_factor=geo.DEFAULT_PROPAGATION_FACTOR)

        regs = _load(t, "registry.load_registrations", load_registrations, regs_path)
        entries = list(_load(t, "targets.load_hitlist_v4", targets.load_hitlist_v4,
                             os.path.join(camp, "hitlist_v4.csv")))
        entries += _load(t, "targets.load_hitlist_v6", targets.load_hitlist_v6,
                         os.path.join(camp, "hitlist_v6.txt"))
        aliased = _load(t, "targets.load_prefix_list", targets.load_prefix_list,
                        os.path.join(camp, "aliased.txt"))
        entries, _ = t.call("targets.exclude_aliased", targets.exclude_aliased, entries, aliased)
        with t.span("targets.build_target_plans") as span:
            plans = targets.build_target_plans(regs, entries, min_score=MIN_SCORE)
            span["items"] = len(plans)
        plans = sorted(plans, key=lambda p: prefix_sort_key(p.prefix))
        rib = _load(t, "bgp.load_rib", bgp.load_rib, os.path.join(camp, "rib.txt"), _routes)

        vantages = _load(t, "vantage.load_vantages", vantage.load_vantages,
                         os.path.join(camp, "vantages.jsonl"))
        bad_ids = _load(t, "vantage.load_bad_ids", vantage.load_bad_ids,
                        os.path.join(camp, "bad_probes.txt"))
        default_coords = _load(t, "vantage.load_default_coords", vantage.load_default_coords,
                               os.path.join(camp, "default_coords.csv"))
        vantages, _ = t.call("vantage.filter_vantages", vantage.filter_vantages,
                             vantages, bad_ids, default_coords)
        vset = t.call("vantage.select_stable_sets", vantage.select_stable_sets, vantages, region_map)
        vantages_by_id = {v.id: v for v in vantages}
        anycast = _load(t, "targets.load_prefix_list", targets.load_prefix_list,
                        os.path.join(camp, "anycast.txt"))
        with whois.open_text(os.path.join(camp, "nir_markers.txt")) as fp:
            nir_markers = [line.split("#", 1)[0].strip() for line in fp
                           if line.split("#", 1)[0].strip()]

        if backend == "replay":
            archived = _load(t, "measure.load_results", measure.load_results, results)
            inner = measure.ReplayBackend(archived)
        elif backend == "simulate":
            with whois.open_text(os.path.join(camp, "world.json")) as fp:
                world = t.call("measure.SyntheticWorld.from_json", measure.SyntheticWorld.from_json,
                               json.load(fp), seed=seed)
            inner = measure.SimulateBackend(world)
        else:
            inner = measure.LiveBackend(base_url, api_key)
        counting = CountingBackend(inner)

        ordered = plans[:limit] if limit else plans
        vplans = []
        for plan in ordered:
            with t.span("vantage.plan_vantages") as span:
                vplans.append(vantage.plan_vantages(plan.registration, vset, region_map))
                span["items"] = 1
        all_results = []
        for plan, vplan in zip(ordered, vplans):
            with t.span(f"measure.run_plan.{backend}") as span:
                all_results.append(measure.run_plan(plan.prefix, plan.targets, vplan.vantages,
                                                    counting))
                span["items"] = 1
        if backend == "live":
            inner.session.close()

        results_by_target: dict = {}
        for res_list in all_results:
            for res in res_list:
                results_by_target.setdefault(res.target, []).append(res)
        if capture:
            flat = sorted((res for res_list in all_results for res in res_list),
                          key=lambda r: (r.target.version, int(r.target), r.vantage_id))
            with open(capture, "w", encoding="utf-8") as fp, \
                    t.span("measure.write_results") as span:
                span["items"] = measure.write_results(flat, fp)

        plans_in = []
        for plan, vplan in zip(ordered, vplans):
            reg = plan.registration
            if vplan.no_country_vantage:
                reg = reg.with_flag("no_country_vantage")
            if vplan.used_regional_fallback:
                reg = reg.with_flag("regional_vantage_fallback")
            plans_in.append(targets.TargetPlan(registration=reg, targets=plan.targets))
        audit_config = classify.AuditConfig(region_map=region_map, geo=geo_config, strict_no_org=True)
        with t.span("classify.audit_pipeline") as span:
            records = classify.audit_pipeline(plans_in, results_by_target, vantages_by_id, rib,
                                              anycast, nir_markers, audit_config)
            span["items"] = len(records)
        with open(out, "w", encoding="utf-8") as fp, t.span("classify.write_records") as span:
            span["items"] = classify.write_records(records, fp)
        t.call("classify.pipeline_counts", classify.pipeline_counts, records)
    return {
        "plans": len(ordered),
        "plan_sizes": [len(v.vantages) for v in vplans],
        "calls": counting.calls,
        "replied": counting.replied,
        "results_by_target": results_by_target,
        "vantages_by_id": vantages_by_id,
        "geo_config": geo_config,
        "region_map": region_map,
    }


def geo_pass(t, stats):
    """Infer the region of every responsive target once more, outside
    audit_pipeline, so the geo layer gets spans of its own."""
    targets_seen = countries = 0
    for results in stats["results_by_target"].values():
        if not any(r.rtts_ms for r in results):
            continue
        with t.span("geo.infer_region") as span:
            region = geo.infer_region(results, stats["vantages_by_id"], stats["geo_config"],
                                      stats["region_map"])
            span["items"] = 1
        targets_seen += 1
        countries += len(region.countries)
    return targets_seen, countries


def report_cmd(t, camp, audit_path, regs_path, out_dir):
    with t.span("cli.report"):
        records = _load(t, "classify.load_records", classify.load_records, audit_path)
        region_map = t.call("registry.default_region_map", default_region_map)
        os.makedirs(out_dir, exist_ok=True)

        def out(name):
            return open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="")

        with out("distribution.csv") as fp:
            rows = t.call("report.distribution", report.distribution, records)
            t.call("report.write_distribution_csv", report.write_distribution_csv, rows, fp)
        with out("summary.txt") as fp:
            t.call("report.write_summary", report.write_summary, records, fp)
        with out("sankey.csv") as fp:
            edges = t.call("report.sankey_edges", report.sankey_edges, records, region_map)
            t.call("report.write_sankey_csv", report.write_sankey_csv, edges, fp)

        regs = _load(t, "registry.load_registrations", load_registrations, regs_path)
        regs_by_prefix = {reg.prefix: reg for reg in regs}
        with out("oro.csv") as fp:
            rows = t.call("report.oro_stats", report.oro_stats, regs, region_map)
            t.call("report.write_oro_csv", report.write_oro_csv, rows, fp)
        by_status, by_year = t.call("report.characteristics", report.characteristics,
                                    records, regs_by_prefix)
        with out("characteristics_status.csv") as sfp, out("characteristics_age.csv") as yfp:
            t.call("report.write_characteristics_csv", report.write_characteristics_csv,
                   by_status, by_year, sfp, yfp)

        providers = {}
        for name in ("alpha", "beta"):
            providers[name] = _load(t, "report.load_geodb", report.load_geodb,
                                    os.path.join(camp, f"geodb_{name}.csv"))
        stats = t.call("report.geodb_detection", report.geodb_detection,
                       records, providers, region_map, require_geo_agreement=False)
        with out("geodb.csv") as fp:
            t.call("report.write_geodb_csv", report.write_geodb_csv, stats, fp)

        leased = _load(t, "targets.load_prefix_list", targets.load_prefix_list,
                       os.path.join(camp, "leased.txt"))
        with out("leasing.csv") as fp:
            overlap = t.call("report.leasing_overlap", report.leasing_overlap, records, leased)
            t.call("report.write_leasing_csv", report.write_leasing_csv, overlap, fp)
