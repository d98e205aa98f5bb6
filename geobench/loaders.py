"""Set-up probe: a fresh process imports geoaudit and runs the loaders one
workload needs, then prints time.monotonic() (a system-wide clock on Linux)
so the parent can time it from spawn until the loaders return.

    python3 geobench/loaders.py <workload> <campaign dir> <registrations> [<capture>]

It imports nothing from the benchmark, so only geoaudit's cost is measured.
"""

import sys
import time


def main(workload, camp, regs_path, capture=None):
    import json

    from geoaudit import bgp, geo, measure, targets, vantage, whois
    from geoaudit.registry import default_region_map, load_registrations

    with whois.open_text(regs_path) as fp:
        load_registrations(fp)
    with whois.open_text(f"{camp}/rib.txt") as fp:
        bgp.load_rib(fp)
    default_region_map()
    if workload == "registry":
        whois.default_dialects()
        return
    with whois.open_text(f"{camp}/vantages.jsonl") as fp:
        vantage.load_vantages(fp)
    with whois.open_text(f"{camp}/hitlist_v4.csv") as fp:
        targets.load_hitlist_v4(fp)
    with whois.open_text(f"{camp}/hitlist_v6.txt") as fp:
        targets.load_hitlist_v6(fp)
    with whois.open_text(f"{camp}/world.json") as fp:
        measure.SyntheticWorld.from_json(json.load(fp))
    if capture:
        with whois.open_text(capture) as fp:
            measure.load_results(fp)
    geo.default_country_points()


if __name__ == "__main__":
    main(*sys.argv[1:])
    print(time.monotonic())
