"""Output checks that rely only on the generator's planted expectations.

Every check returns a list of problems; an empty list means it passed. The
files are parsed here with the standard library, never with geoaudit's own
loaders, so a codec bug cannot hide itself.
"""

from __future__ import annotations

import csv
import hashlib
import ipaddress
import json
import re

_INGEST_LINE = re.compile(r"^([A-Z]+): (.*) identity=(\w+)$")


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fp:
        for chunk in iter(lambda: fp.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _prefix_key(text: str):
    net = ipaddress.ip_network(text)
    return (net.version, int(net.network_address), net.prefixlen)


def _jsonl(path):
    with open(path, encoding="utf-8") as fp:
        return [json.loads(line) for line in fp if line.strip()]


def check_ingest_report(stdout: str, expected: dict) -> list[str]:
    """The per-registry counter lines match the planted counts."""
    seen = {}
    for line in stdout.splitlines():
        m = _INGEST_LINE.match(line)
        if m:
            fields = dict(part.split("=", 1) for part in m.group(2).split())
            seen[m.group(1)] = ({k: int(v) for k, v in fields.items()}, m.group(3))
    problems = []
    for rir, counts in expected["ingest"].items():
        if rir not in seen:
            problems.append(f"ingest: no counter line for {rir}")
            continue
        got, identity = seen[rir]
        if identity != "ok":
            problems.append(f"ingest: {rir} identity={identity}")
        if got != counts:
            problems.append(f"ingest: {rir} counters {got} != planted {counts}")
    return problems


def check_registrations(path: str, expected: dict) -> list[str]:
    """Exactly the planted registrations, sorted, with their registry, org
    country, status and date."""
    rows = _jsonl(path)
    want = expected["registrations"]
    problems = []
    if len(rows) != len(want):
        problems.append(f"registrations: {len(rows)} rows, planted {len(want)}")
    keys = [_prefix_key(r["prefix"]) for r in rows]
    if keys != sorted(keys):
        problems.append("registrations: not sorted by prefix")
    for row in rows:
        planted = want.get(row["prefix"])
        got = [row["rir"], row["org_country"], row["status"], row["last_updated"]]
        if planted != got:
            problems.append(f"registrations: {row['prefix']} is {got}, planted {planted}")
            if len(problems) > 10:
                break
    return problems


def check_align(stdout: str, csv_path: str, expected: dict) -> list[str]:
    problems = []
    m = re.search(r"rib: (\d+) routes \((\d+) default routes dropped\)", stdout)
    if not m or (int(m.group(1)), int(m.group(2))) != (expected["rib_routes"],
                                                       expected["rib_default_dropped"]):
        problems.append(f"align: rib line {m.group(0) if m else None!r}, planted "
                        f"{expected['rib_routes']} routes")
    with open(csv_path, encoding="utf-8", newline="") as fp:
        rows = list(csv.reader(fp))
    got = {f"{r[0]},{r[1]}": r[2:] for r in rows[1:]}
    if rows[0] != ["rir", "family", "subnet", "aligned", "supernet", "mixed_as", "unadvertised"]:
        problems.append(f"align: header {rows[0]}")
    if got != expected["alignment"]:
        problems.append(f"align: fractions {got} != planted {expected['alignment']}")
    return problems


def check_oro(csv_path: str, expected: dict) -> list[str]:
    with open(csv_path, encoding="utf-8", newline="") as fp:
        rows = list(csv.reader(fp))[1:]
    got = {f"{r[0]},{r[1]}": [int(r[2]), int(r[3]), r[5], r[6], int(r[8])] for r in rows}
    if got != expected["oro"]:
        return [f"oro: {got} != planted {expected['oro']}"]
    return []


def check_audit(path: str, expected: dict, stdout: str | None = None) -> list[str]:
    """One record per planned prefix in prefix order, the planted class or
    filter reason, soundness of every classified target, and the accounting
    identity."""
    plans = expected["plans"]
    records = _jsonl(path)
    problems = []
    prefixes = [r["prefix"] for r in records]
    if sorted(prefixes) != sorted(plans) or len(prefixes) != len(set(prefixes)):
        problems.append(f"audit: {len(records)} records for {len(plans)} planned prefixes")
    keys = [_prefix_key(p) for p in prefixes]
    if keys != sorted(keys):
        problems.append("audit: records not in prefix order")
    classified = 0
    filtered: dict[str, int] = {}
    for rec in records:
        plan = plans.get(rec["prefix"])
        if plan is None:
            continue
        cls, reason = rec["class"], rec["filter_reason"]
        if (cls is None) == (reason is None):
            problems.append(f"audit: {rec['prefix']} has class={cls} filter={reason}")
            continue
        if cls is not None:
            classified += 1
        else:
            filtered[reason] = filtered.get(reason, 0) + 1
        expect = plan["expect"]
        got = f"class:{cls}" if cls else f"filter:{reason}"
        if expect != got and not (expect == "classified" and cls):
            problems.append(f"audit: {rec['prefix']} is {got}, planted {expect}")
        if cls is None:
            continue
        truth = dict(zip(plan["targets"], plan["true_rirs"]))
        for outcome in rec["targets"]:
            true_rir = truth.get(outcome["target"])
            if outcome["class"] is None or true_rir is None:
                continue
            if true_rir not in outcome["rirs"] or true_rir not in rec["rir_geo"]:
                problems.append(f"audit: unsound {rec['prefix']}: {outcome['target']} lies in "
                                f"{true_rir}, feasible {outcome['rirs']}")
    if classified + sum(filtered.values()) != len(records):
        problems.append("audit: classified plus filtered differs from candidates")
    if stdout is not None:
        m = re.search(r"candidates=(\d+) classified=(\d+)(.*)", stdout)
        if not m:
            problems.append("audit: no candidates line")
        else:
            printed = dict(kv.split("=") for kv in m.group(3).split())
            if (int(m.group(1)), int(m.group(2))) != (len(plans), classified) or \
                    {k: int(v) for k, v in printed.items()} != filtered:
                problems.append(f"audit: printed counts {m.group(0)!r} disagree with the records")
        if "accounting identity: ok" not in stdout:
            problems.append("audit: accounting identity not ok")
    return problems


def check_report(out_dir: str, expected: dict) -> list[str]:
    with open(f"{out_dir}/summary.txt", encoding="utf-8") as fp:
        summary = fp.read()
    m = re.search(r"candidate prefixes : (\d+)", summary)
    if not m or int(m.group(1)) != len(expected["plans"]):
        return [f"report: summary candidates {m.group(1) if m else None}, "
                f"planned {len(expected['plans'])}"]
    if "accounting identity: holds" not in summary:
        return ["report: accounting identity does not hold"]
    return []


def check_identical(paths: list[str]) -> list[str]:
    """All files byte-identical to the first."""
    digests = [sha256(p) for p in paths]
    return [f"bytes differ: {p} vs {paths[0]}" for p, d in zip(paths, digests) if d != digests[0]]


def check_api(capture_path: str, answered: set, rejected: int) -> list[str]:
    """The stub rejected no request and answered every captured (vantage,
    target) pair. How many requests the client needed for that is free, so
    a client that batches its probes passes too."""
    pairs = {(row["vantage_id"], row["target"]) for row in _jsonl(capture_path)}
    problems = [f"stub rejected {rejected} requests"] if rejected else []
    unanswered = sorted(pairs - answered)
    if unanswered:
        problems.append(f"stub never answered {len(unanswered)} captured pairs, "
                        f"e.g. {unanswered[0]}")
    return problems
