import csv
import gc
import gzip
import ipaddress
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from geoaudit import classify, cli, measure, whois
from geoaudit.errors import BackendUnavailable
from geoaudit.registry import DEFAULT_PROPAGATION_FACTOR

from conftest import (FAULTS, LIVE_ARGV, FaultySession, LoopbackApi, audit_argv, build_campaign,
                      seeded_pending, serve_campaign, world_session, write_campaign)

ARIN_DUMP = """\
NetRange:       192.0.2.0 - 192.0.2.255
NetType:        Direct Allocation
OrgID:          EX-1
Updated:        2020-05-04

OrgID:          EX-1
OrgName:        Example Networks
Country:        US

NetRange:       10.0.0.0 - 10.0.0.11
NetType:        Reassignment
OrgID:          EX-1
Updated:        2018-02-02
"""

RIPE_DUMP = """\
inetnum:        193.0.0.0 - 193.0.0.255
country:        NL
org:            ORG-EX1-RIPE
status:         ALLOCATED PA
last-modified:  2021-06-01T08:00:00Z

organisation:   ORG-EX1-RIPE
org-name:       Example B.V.
country:        DE
"""


def run(argv):
    return cli.main(argv)


def test_ingest_merges_dumps(tmp_path, capsys):
    arin = tmp_path / "arin.txt"
    arin.write_text(ARIN_DUMP)
    ripe = tmp_path / "ripe.txt.gz"
    ripe.write_bytes(gzip.compress(RIPE_DUMP.encode()))
    out = tmp_path / "registrations.jsonl"

    assert run(["ingest", "--arin", str(arin), "--ripe", str(ripe), "-o", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "ARIN: nets=2 emitted=3" in stdout
    assert "identity=ok" in stdout
    assert "wrote 4 registrations" in stdout

    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["prefix"] for r in rows] == [
        "10.0.0.0/29", "10.0.0.8/30", "192.0.2.0/24", "193.0.0.0/24",
    ]
    assert rows[2]["org_country"] == "US"
    assert rows[3]["org_country"] == "DE"


def test_ingest_without_dumps_is_usage_error(tmp_path):
    assert run(["ingest", "-o", str(tmp_path / "x.jsonl")]) == 1


def test_ingest_broken_identity_exits_2(tmp_path, capsys, monkeypatch):
    arin = tmp_path / "arin.txt"
    arin.write_text(ARIN_DUMP)
    out = tmp_path / "registrations.jsonl"
    monkeypatch.setattr(whois.IngestReport, "check_identity", lambda self: False)
    assert run(["ingest", "--arin", str(arin), "-o", str(out)]) == 2
    assert "accounting identity broken: ARIN: nets=2 emitted=3" in capsys.readouterr().err
    assert not out.exists()


def test_a_leading_byte_order_mark_is_dropped(tmp_path, capsys):
    """One UTF-8 BOM in front of a dump, plain or gzip, or of a CSV header
    changes nothing: the first record and the header read as without it."""
    rng = random.Random(41)
    countries = ["DE", "FR", "NL", "US"]
    dump = "\n".join(f"inetnum: 193.0.{n}.0 - 193.0.{n}.255\nstatus: ALLOCATED PA\n"
                     f"country: {rng.choice(countries)}\nlast-modified: 20{rng.randint(10, 24)}"
                     f"-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}T08:00:00Z\n"
                     for n in rng.sample(range(256), 5)).encode()
    region_map = ("country,rir\n" + "".join(f"{cc},{rng.choice(['ARIN', 'RIPE'])}\n"
                                            for cc in countries)).encode()
    bom = "\ufeff".encode()

    def ingest(name, data):
        (tmp_path / name).write_bytes(data)
        out = tmp_path / f"{name}.jsonl"
        assert run(["ingest", "--ripe", str(tmp_path / name), "-o", str(out)]) == 0
        return capsys.readouterr().out.splitlines()[0], out.read_bytes()

    def oro(name, data):
        (tmp_path / name).write_bytes(data)
        out = tmp_path / f"{name}.oro.csv"
        assert run(["oro", "--registrations", str(tmp_path / "ripe.db.jsonl"),
                    "--region-map", str(tmp_path / name), "-o", str(out)]) == 0, capsys.readouterr().err
        return out.read_bytes()

    plain = ingest("ripe.db", dump)
    assert plain[0].startswith("RIPE: nets=5 emitted=5 ")
    assert ingest("bom.db", bom + dump) == plain
    assert ingest("bom.db.gz", gzip.compress(bom + dump)) == plain
    assert oro("bom.csv", bom + region_map) == oro("region_map.csv", region_map)


def test_a_latin1_byte_in_a_dump_reads_as_a_replacement(tmp_path, capsys):
    """RIPE database exports are Latin-1: a gzip dump with such a byte
    ingests every record, the byte read as U+FFFD, the one input so read."""
    def ingest(name, text, encoding):
        (tmp_path / name).write_bytes(gzip.compress(text.encode(encoding)))
        out = tmp_path / f"{name}.jsonl"
        assert run(["ingest", "--ripe", str(tmp_path / name), "-o", str(out)]) == 0
        return capsys.readouterr().out.splitlines()[0], out.read_text(encoding="utf-8")

    latin1 = RIPE_DUMP.replace("ORG-EX1", "ORG-\u00c91")
    tally, regs = ingest("latin1.db.gz", latin1, "latin-1")
    assert (tally, regs) == ingest("replaced.db.gz", latin1.replace("\u00c9", "\ufffd"), "utf-8")
    assert tally.startswith("RIPE: nets=1 emitted=1 ") and " orgs=1 unresolved=0 " in tally
    assert '"org_country": "DE", "org_id": "ORG-\\ufffd1-RIPE"' in regs


@pytest.mark.parametrize("name", ["capture", "capture.gz", "registrations"])
def test_a_byte_that_is_not_utf8_exits_2_naming_its_file(small_campaign, capsys, name):
    """Every input but a dump is strict UTF-8. One byte of a capture's
    vantage id set to 0xff, plain or gzip, is refused naming the capture,
    where a replacement would have replayed that pair as no reply; so is
    such a byte in the registrations oro reads."""
    camp, paths, tmp_path = small_campaign
    out = tmp_path / "out"
    if name == "registrations":
        bad = tmp_path / "registrations.jsonl"
        data = bad.read_bytes()
        at = data.index(b'"org_id": "') + len(b'"org_id": "')
        argv = ["oro", "--registrations", str(bad), "-o", str(out)]
    else:
        bad = tmp_path / "results.jsonl"
        assert run(audit_argv(paths, str(tmp_path / "sim.jsonl"),
                              extra=["--capture-results", str(bad)])) == 0
        data = bad.read_bytes()
        at = data.index(b'"vantage_id": "') + len(b'"vantage_id": "')
        argv = audit_argv(paths, str(out), backend="replay", extra=["--results", str(bad)])
    data = data[:at] + b"\xff" + data[at + 1:]
    bad.write_bytes(gzip.compress(data) if name.endswith(".gz") else data)
    capsys.readouterr()
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith(
        f"geoaudit: {bad}: 'utf-8' codec can't decode byte 0xff in position ")
    assert not out.exists()


def test_align_writes_fractions(small_campaign, capsys):
    camp, paths, tmp_path = small_campaign
    out = tmp_path / "alignment.csv"
    rc = run(["align", "--registrations", paths["registrations.jsonl"],
              "--rib", paths["rib.txt"], "-o", str(out)])
    assert rc == 0
    with open(out, newline="") as fp:
        rows = list(csv.DictReader(fp))
    assert rows
    for row in rows:
        assert float(row["aligned"]) == 1.0


def test_plan_command(small_campaign, capsys):
    camp, paths, tmp_path = small_campaign
    out = tmp_path / "plans.jsonl"
    rc = run(["plan", "--registrations", paths["registrations.jsonl"],
              "--hitlist-v4", paths["hitlist_v4.csv"],
              "--hitlist-v6", paths["hitlist_v6.txt"],
              "-o", str(out)])
    assert rc == 0
    plans = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(plans) == len(camp.expected)
    assert all(len(p["targets"]) == 1 for p in plans)


def test_audit_simulate_matches_planted_classes(small_campaign, capsys):
    camp, paths, tmp_path = small_campaign
    out = tmp_path / "audit.jsonl"
    assert run(audit_argv(paths, str(out))) == 0
    stdout = capsys.readouterr().out
    assert "accounting identity: ok" in stdout

    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == len(camp.expected)
    for rec in records:
        assert rec["filter_reason"] is None
        assert rec["class"] == camp.expected[rec["prefix"]], rec["prefix"]


def test_audit_broken_identity_exits_2(small_campaign, capsys, monkeypatch):
    """A record with neither a class nor a filter reason breaks the
    identity: the tally goes to stderr, and neither output is written."""
    camp, paths, tmp_path = small_campaign
    out, captured = tmp_path / "audit.jsonl", tmp_path / "captured.jsonl"
    audit_prefix, calls = classify.audit_prefix, []

    def first_without_outcome(*args):
        calls.append(audit_prefix(*args))
        return calls[-1]._replace(cls=None, filter_reason=None) if len(calls) == 1 else calls[-1]

    monkeypatch.setattr(classify, "audit_prefix", first_without_outcome)
    assert run(audit_argv(paths, str(out), extra=["--capture-results", str(captured)])) == 2
    candidates = len(camp.expected)
    assert capsys.readouterr().err == (f"audit: accounting identity broken: "
                                       f"candidates={candidates} classified={candidates - 1} \n")
    assert not out.exists() and not captured.exists()


def test_interrupted_output_keeps_old_file(small_campaign, capsys, monkeypatch):
    camp, paths, tmp_path = small_campaign
    out = tmp_path / "audit.jsonl"
    out.write_bytes(b"previous run\n")

    def fail_midway(records, fp):
        fp.write('{"prefix": "10.0.0.0/24"}\n')
        raise OSError("disk full")

    monkeypatch.setattr(classify, "write_records", fail_midway)
    assert run(audit_argv(paths, str(out))) == 2
    assert "disk full" in capsys.readouterr().err
    assert out.read_bytes() == b"previous run\n"
    assert not list(tmp_path.glob("*.tmp"))


def test_audit_is_deterministic_across_runs_and_threads(small_campaign, capsys):
    """Two simulated audits write the same bytes. Only the live backend
    measures in threads, so --concurrency with simulate is refused and
    writes nothing; live audits at several windows are criterion 10's."""
    camp, paths, tmp_path = small_campaign
    out1 = tmp_path / "a1.jsonl"
    out2 = tmp_path / "a2.jsonl"
    out4 = tmp_path / "a4.jsonl"
    assert run(audit_argv(paths, str(out1))) == 0
    assert run(audit_argv(paths, str(out2))) == 0
    assert out1.read_bytes() == out2.read_bytes()
    capsys.readouterr()
    assert run(audit_argv(paths, str(out4), extra=["--concurrency", "4"])) == 2
    assert capsys.readouterr().err == "geoaudit: --concurrency cannot take effect with --backend simulate\n"
    assert not out4.exists()


def test_audit_capture_then_replay_agrees(small_campaign):
    camp, paths, tmp_path = small_campaign
    sim_out = tmp_path / "sim.jsonl"
    captured = tmp_path / "results.jsonl"
    assert run(audit_argv(paths, str(sim_out),
                          extra=["--capture-results", str(captured)])) == 0

    replay_out = tmp_path / "replay.jsonl"
    argv = [
        "audit",
        "--registrations", paths["registrations.jsonl"],
        "--rib", paths["rib.txt"],
        "--hitlist-v4", paths["hitlist_v4.csv"],
        "--hitlist-v6", paths["hitlist_v6.txt"],
        "--vantages", paths["vantages.jsonl"],
        "--region-map", paths["region_map.csv"],
        "--country-points", paths["country_points.csv"],
        "--backend", "replay", "--results", str(captured),
        "--seed", "7",
        "-o", str(replay_out),
    ]
    assert run(argv) == 0
    assert sim_out.read_bytes() == replay_out.read_bytes()


FULL_PRECISION_MS = 128.01966861771194  # a double no whole count of microseconds spells


def test_a_replayed_or_live_sample_is_kept_as_given(small_campaign, monkeypatch):
    """The simulator draws whole microseconds, but a sample from outside it
    is kept to the bit: a target whose every sample is 128.01966861771194,
    in a replayed capture or in a live answer, gets that exact min_rtt_ms,
    and the two audits agree byte for byte."""
    camp, paths, tmp_path = small_campaign
    sim_out, captured = tmp_path / "sim.jsonl", tmp_path / "results.jsonl"
    assert run(audit_argv(paths, str(sim_out), extra=["--capture-results", str(captured)])) == 0
    chosen = next(t["target"] for line in sim_out.read_text().splitlines()
                  for t in json.loads(line)["targets"] if t["min_rtt_ms"] is not None)
    rows = [json.loads(line) for line in captured.read_text().splitlines()]
    for row in rows:
        if row["target"] == chosen:
            row["rtts_ms"] = [FULL_PRECISION_MS] * len(row["rtts_ms"])
    captured.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))

    class Outside:
        """The campaign's world, but every sample to the chosen target is FULL_PRECISION_MS."""

        def __init__(self, world):
            self.world = world

        def rtts_by_vantage(self, target, vantages):
            replies = self.world.rtts_by_vantage(target, vantages)
            if str(target) != chosen:
                return replies
            return {vid: [FULL_PRECISION_MS] * len(rtts) for vid, rtts in replies.items()}

    def outside(api):
        api.world = Outside(api.world)
        return api

    serve_campaign(monkeypatch, camp, paths, lambda mid: 0, lambda s: None, wrap=outside)
    replayed, live = tmp_path / "replayed.jsonl", tmp_path / "live.jsonl"
    assert run(audit_argv(paths, str(replayed), backend="replay",
                          extra=["--results", str(captured)])) == 0
    assert run(audit_argv(paths, str(live), backend="live", extra=LIVE_ARGV)) == 0
    assert live.read_bytes() == replayed.read_bytes() != sim_out.read_bytes()
    [got] = [t["min_rtt_ms"] for line in replayed.read_text().splitlines()
             for t in json.loads(line)["targets"] if t["target"] == chosen]
    assert got == FULL_PRECISION_MS


def test_audit_refuses_a_prefix_or_target_planned_twice(small_campaign, capsys):
    """A plans file that lists a prefix or a target in two plans, or a target
    twice in one, exits 2 naming the repeat: an audit measures each target
    once, with the vantages of its one plan."""
    camp, paths, tmp_path = small_campaign
    plans_path = tmp_path / "plans.jsonl"
    assert run(["plan", "--registrations", paths["registrations.jsonl"],
                "--hitlist-v4", paths["hitlist_v4.csv"], "--hitlist-v6", paths["hitlist_v6.txt"],
                "-o", str(plans_path)]) == 0
    lines = plans_path.read_text().splitlines(keepends=True)
    first, other = json.loads(lines[0]), json.loads(lines[3])
    target = first["targets"][0]
    shared = json.dumps({**other, "targets": other["targets"] + [target]}) + "\n"
    doubled = json.dumps({**first, "targets": [target, target]}) + "\n"
    cases = [
        (lines + lines[:1], f"prefix {first['registration']['prefix']}"),
        (lines[:3] + [shared] + lines[4:], f"target {target}"),
        ([doubled] + lines[1:], f"target {target}"),
    ]
    captured, out = tmp_path / "captured.jsonl", tmp_path / "audit.jsonl"
    argv = audit_argv(paths, str(out), plans=str(plans_path),
                      extra=["--capture-results", str(captured)])
    for text, repeated in cases:
        plans_path.write_text("".join(text))
        capsys.readouterr()
        assert run(argv) == 2
        assert capsys.readouterr().err == f"geoaudit: {plans_path}: {repeated} appears twice\n"
        assert not captured.exists() and not out.exists()


@pytest.mark.parametrize("seed", range(4))
def test_audit_refuses_a_target_outside_its_plan(small_campaign, capsys, seed):
    """Two random plans that swap their targets exit 2 naming the file, the
    first of their lines, its plan's prefix and its first target: a target
    outside its plan's prefix would be classified by that prefix's
    registration from another prefix's address."""
    camp, paths, tmp_path = small_campaign
    plans_path = tmp_path / "plans.jsonl"
    assert run(["plan", "--registrations", paths["registrations.jsonl"],
                "--hitlist-v4", paths["hitlist_v4.csv"], "--hitlist-v6", paths["hitlist_v6.txt"],
                "-o", str(plans_path)]) == 0
    plans = [json.loads(line) for line in plans_path.read_text().splitlines()]
    i, j = sorted(random.Random(seed).sample(range(len(plans)), 2))
    plans[i]["targets"], plans[j]["targets"] = plans[j]["targets"], plans[i]["targets"]
    plans_path.write_text("".join(json.dumps(plan) + "\n" for plan in plans))
    captured, out = tmp_path / "captured.jsonl", tmp_path / "audit.jsonl"
    capsys.readouterr()
    assert run(audit_argv(paths, str(out), plans=str(plans_path),
                          extra=["--capture-results", str(captured)])) == 2
    assert capsys.readouterr().err == (
        f"geoaudit: {plans_path}: line {i + 1}: target {plans[i]['targets'][0]} is outside"
        f" its plan's prefix {plans[i]['registration']['prefix']}\n")
    assert not captured.exists() and not out.exists()


def test_audit_refuses_a_repeated_vantage_id(small_campaign, capsys):
    """A vantage id listed twice exits 2 naming the file and the id, instead
    of measuring with one record and inferring with the other."""
    camp, paths, tmp_path = small_campaign
    vantages = Path(paths["vantages.jsonl"])
    first = json.loads(vantages.read_text().splitlines()[0])
    with vantages.open("a", encoding="utf-8") as fp:
        fp.write(json.dumps({**first, "lat": 0.0, "lon": 0.0}) + "\n")
    captured, out = tmp_path / "captured.jsonl", tmp_path / "audit.jsonl"
    capsys.readouterr()
    assert run(audit_argv(paths, str(out), extra=["--capture-results", str(captured)])) == 2
    assert (capsys.readouterr().err
            == f"geoaudit: {vantages}: vantage id {first['id']} appears twice\n")
    assert not captured.exists() and not out.exists()


def test_audit_refuses_a_vantage_id_that_is_not_utf8(small_campaign, capsys):
    """A lone surrogate, which JSON can escape, is refused where vantages are
    read, before the simulator hashes the id as UTF-8."""
    camp, paths, tmp_path = small_campaign
    vantages = Path(paths["vantages.jsonl"])
    lines = vantages.read_text().splitlines(keepends=True)
    row = json.loads(lines[1])
    lines[1] = json.dumps({**row, "id": "p-\ud800"}) + "\n"
    vantages.write_text("".join(lines))
    out = tmp_path / "audit.jsonl"
    capsys.readouterr()
    assert run(audit_argv(paths, str(out))) == 2
    assert (capsys.readouterr().err
            == f"geoaudit: {vantages}: line 2: id 'p-\\ud800' is not valid UTF-8\n")
    assert not out.exists()


def test_replay_refuses_a_pair_archived_twice(small_campaign, capsys):
    """A capture that lists a (target, vantage) pair twice exits 2 naming
    the pair and its second line: no reply is kept over another."""
    camp, paths, tmp_path = small_campaign
    captured = tmp_path / "results.jsonl"
    assert run(audit_argv(paths, str(tmp_path / "sim.jsonl"),
                          extra=["--capture-results", str(captured)])) == 0
    lines = captured.read_text().splitlines(keepends=True)
    row = json.loads(lines[1])
    captured.write_text("".join(lines) + json.dumps({**row, "rtts_ms": [1.0]}) + "\n")
    out = tmp_path / "replay.jsonl"
    capsys.readouterr()
    assert run(audit_argv(paths, str(out), backend="replay", extra=["--results", str(captured)])) == 2
    assert (capsys.readouterr().err
            == f"geoaudit: {captured}: line {len(lines) + 1}: "
               f"{row['vantage_id']} -> {row['target']} is archived twice\n")
    assert not out.exists()


def test_audit_replay_counts_misses(small_campaign, capsys):
    camp, paths, tmp_path = small_campaign
    sim_out = tmp_path / "sim.jsonl"
    captured = tmp_path / "results.jsonl"
    assert run(audit_argv(paths, str(sim_out), extra=["--capture-results", str(captured)])) == 0
    replay = ["--results", str(captured)]
    replay_out = tmp_path / "replay.jsonl"
    capsys.readouterr()
    assert run(audit_argv(paths, str(replay_out), backend="replay", extra=replay)) == 0
    assert "replay misses: 0 pairs" in capsys.readouterr().out

    # drop a pair that is not its target's lowest RTT, so no inference changes
    lines = captured.read_text().splitlines(keepends=True)
    rows = [json.loads(line) for line in lines]
    lowest = {}
    for row in rows:
        if row["rtts_ms"]:
            lowest[row["target"]] = min(lowest.get(row["target"], math.inf), min(row["rtts_ms"]))
    dropped = next(i for i, row in enumerate(rows)
                   if row["rtts_ms"] and min(row["rtts_ms"]) > lowest[row["target"]])
    captured.write_text("".join(lines[:dropped] + lines[dropped + 1:]))
    assert run(audit_argv(paths, str(replay_out), backend="replay", extra=replay)) == 0
    stdout = capsys.readouterr().out
    assert "replay misses: 1 pairs" in stdout
    assert stdout.index("vantages:") < stdout.index("replay misses:") < stdout.index("candidates=")
    assert replay_out.read_bytes() == sim_out.read_bytes()


def test_audit_counts_unknown_simulator_targets(small_campaign, capsys):
    camp, paths, tmp_path = small_campaign
    target = "10.10.0.1"
    world = json.loads(Path(paths["world.json"]).read_text())
    world["unresponsive"].append(target)
    Path(paths["world.json"]).write_text(json.dumps(world))
    silent = tmp_path / "silent.jsonl"
    capsys.readouterr()
    assert run(audit_argv(paths, str(silent))) == 0
    assert "unknown targets: 0" in capsys.readouterr().out

    # a target the world cannot place is measured as one that never answers
    del world["targets"][target]
    world["unresponsive"].remove(target)
    Path(paths["world.json"]).write_text(json.dumps(world))
    unknown = tmp_path / "unknown.jsonl"
    assert run(audit_argv(paths, str(unknown))) == 0
    stdout = capsys.readouterr().out
    assert "unknown targets: 1" in stdout
    assert stdout.index("vantages:") < stdout.index("unknown targets:") < stdout.index("candidates=")
    assert unknown.read_bytes() == silent.read_bytes()


def test_audit_prints_live_request_tallies(small_campaign, capsys, monkeypatch):
    camp, paths, tmp_path = small_campaign
    # every measurement is pending once
    sessions = serve_campaign(monkeypatch, camp, paths, lambda mid: 1, lambda s: None)
    capsys.readouterr()
    assert run(audit_argv(paths, str(tmp_path / "audit.jsonl"), backend="live", extra=LIVE_ARGV)) == 0
    stdout = capsys.readouterr().out
    [api] = sessions
    assert api.closed  # the audit closes its connection to the API
    n = len(api.posts)
    assert n == len(camp.expected) and [m for m, _ in api.calls] == ["POST", "GET", "GET"] * n
    assert f"live requests: posts={n} polls={2 * n} retries=0 rounds={n}" in stdout
    assert stdout.index("vantages:") < stdout.index("live requests:") < stdout.index("candidates=")


def test_live_audit_resends_a_finishing_get_whose_answer_is_lost(small_campaign, capsys,
                                                                 monkeypatch):
    """Under --concurrency 3, every fifth GET that finishes a measurement is
    answered by the API and then lost, as a connection reset after the
    answer would lose it. The client sends that GET again after a 2 s sleep,
    the measurement still reads done, and the audit writes the simulated
    bytes, each target posted once."""
    camp, paths, tmp_path = small_campaign
    sim = tmp_path / "sim.jsonl"
    assert run(audit_argv(paths, str(sim))) == 0
    sleeps = []
    sessions = serve_campaign(monkeypatch, camp, paths, lambda mid: 0, sleeps.append)
    live = [*LIVE_ARGV, "--concurrency", "3"]
    assert run(audit_argv(paths, str(tmp_path / "clean.jsonl"), backend="live", extra=live)) == 0
    [clean] = sessions  # the same audit with no answer lost: the job order
    assert not sleeps
    transports = []

    class LosesEveryFifthFinish:
        def __init__(self, base_url):
            self.api = world_session(camp, paths)  # pending 0: every GET finishes its measurement
            self.finishes = self.lost = 0
            transports.append(self)

        def request(self, method, path, body, headers):
            answer = self.api.request(method, path, body, headers)
            if method == "GET":
                self.finishes += 1
                if self.finishes % 5 == 0:
                    self.lost += 1
                    raise OSError("connection reset by peer")
            return answer

        def close(self):
            self.api.close()

    monkeypatch.setattr(measure, "Transport", LosesEveryFifthFinish)
    out = tmp_path / "audit.jsonl"
    capsys.readouterr()
    assert run(audit_argv(paths, str(out), backend="live", extra=live)) == 0
    stdout = capsys.readouterr().out
    assert out.read_bytes() == sim.read_bytes()
    [transport] = transports
    api, n, lost = transport.api, len(clean.posts), transport.lost
    assert lost == (n + lost) // 5 > 0
    assert api.posts == clean.posts and len({post["target"] for post in api.posts}) == n
    assert not api.open and len(api.done) == n
    assert f"live requests: posts={n} polls={n + lost} retries={lost} rounds=0" in stdout
    assert sleeps == [measure.RETRY_BASE_DELAY_S] * lost == [2.0] * lost


def test_a_live_audit_under_seeded_faults_writes_all_or_nothing(small_campaign, capsys,
                                                               monkeypatch):
    """Live audits behind seeded schedules that fail 2% of requests, at
    --concurrency 1, 2 and 8: one that completes writes the simulated audit
    and capture; one the backend gives up on exits 3 and writes neither."""
    camp, paths, tmp_path = small_campaign
    sim, sim_capture = tmp_path / "sim.jsonl", tmp_path / "sim_capture.jsonl"
    assert run(audit_argv(paths, str(sim), extra=["--capture-results", str(sim_capture)])) == 0
    # each audit's session is scheduled by the seed of the loop below
    sessions = serve_campaign(monkeypatch, camp, paths, seeded_pending(5), lambda s: None,
                              wrap=lambda api: FaultySession(api, seed, 0.02))
    exits = []
    for seed in range(12):
        out, capture = tmp_path / f"live-{seed}.jsonl", tmp_path / f"capture-{seed}.jsonl"
        capsys.readouterr()
        exits.append(run(audit_argv(paths, str(out), backend="live", extra=[
            *LIVE_ARGV, "--concurrency", str((1, 2, 8)[seed % 3]), "--capture-results", str(capture)])))
        if exits[-1] == 0:
            assert out.read_bytes() == sim.read_bytes()
            assert capture.read_bytes() == sim_capture.read_bytes()
        else:
            assert exits[-1] == 3
            assert capsys.readouterr().err.startswith("geoaudit: backend unavailable: ")
            assert not out.exists() and not capture.exists()
    assert set(exits) == {0, 3}
    # a completed audit retried a fault on its way
    assert any(got in FAULTS for session, code in zip(sessions, exits, strict=True) if code == 0
               for _, _, got in session.log)
    assert not [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"]


def test_audit_counts_unmapped_country_vantages(small_campaign, capsys):
    camp, paths, tmp_path = small_campaign
    mapped = tmp_path / "mapped.jsonl"
    capsys.readouterr()
    assert run(audit_argv(paths, str(mapped))) == 0
    assert "unmapped_country=0" in capsys.readouterr().out

    # a vantage whose country the region map lacks joins no regional pool
    stray = {"asn": 64999, "connected": True, "country": "XX", "id": "p-xx",
             "kind": "probe", "lat": 10.0, "lon": 10.0}
    with open(paths["vantages.jsonl"], "a", encoding="utf-8") as fp:
        fp.write(json.dumps(stray, sort_keys=True) + "\n")
    unmapped = tmp_path / "unmapped.jsonl"
    assert run(audit_argv(paths, str(unmapped))) == 0
    assert "unmapped_country=1" in capsys.readouterr().out.split("vantages:", 1)[1].splitlines()[0]
    assert unmapped.read_bytes() == mapped.read_bytes()


@pytest.mark.parametrize("bad", ["-1.0", "NaN", "Infinity"])
def test_replay_of_a_bad_rtt_exits_2_writing_nothing(small_campaign, capsys, bad):
    """measure.target_results checks every RTT, from every backend: a
    replayed sample that is negative or not finite exits 2 naming the pair,
    before the audit or a capture is written."""
    camp, paths, tmp_path = small_campaign
    results = tmp_path / "results.jsonl"
    assert run(audit_argv(paths, str(tmp_path / "sim.jsonl"),
                          extra=["--capture-results", str(results)])) == 0
    rows = [json.loads(line) for line in results.read_text().splitlines()]
    row = next(row for row in rows if row["rtts_ms"])
    row["rtts_ms"][-1] = float(bad)  # one sample is enough
    results.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))
    assert bad in results.read_text()
    out, captured = tmp_path / "audit.jsonl", tmp_path / "captured.jsonl"
    capsys.readouterr()
    assert run(audit_argv(paths, str(out), backend="replay", extra=["--results", str(results),
                                                  "--capture-results", str(captured)])) == 2
    assert (capsys.readouterr().err
            == f"geoaudit: {row['vantage_id']} -> {row['target']}: {float(bad)} ms\n")
    assert not out.exists() and not captured.exists()


@pytest.mark.parametrize("name, value", [("propagation_factor", 0), ("propagation_factor", -0.5),
                                         ("noise_ms", -3), ("noise_ms", math.nan)])
def test_world_out_of_range_exits_2(small_campaign, capsys, name, value):
    camp, paths, tmp_path = small_campaign
    world = json.loads(Path(paths["world.json"]).read_text())
    world[name] = value
    Path(paths["world.json"]).write_text(json.dumps(world))
    captured, out = tmp_path / "captured.jsonl", tmp_path / "audit.jsonl"
    capsys.readouterr()
    assert run(audit_argv(paths, str(out), extra=["--capture-results", str(captured)])) == 2
    assert f"world {name} is " in capsys.readouterr().err
    assert not captured.exists() and not out.exists()


@pytest.mark.parametrize("doc, message", [
    ({"targets": {"192.0.2.1": [1]}}, "targets: 192.0.2.1: [1] is not a [lat, lon] pair"),
    ({"targets": {"192.0.2.1": ["12", True]}}, "targets: 192.0.2.1: '12' is not a number"),
    ({"targets": {"192.0.2.1": [12, True]}}, "targets: 192.0.2.1: True is not a number"),
    ({"targets": [["192.0.2.1", 1, 2]]}, "targets: [['192.0.2.1', 1, 2]] is not an object"),
    ({"unresponsive": [5]}, "unresponsive: 5 is not a string"),
    ({"noise_ms": "2"}, "noise_ms: '2' is not a number"),
    ([1], "[1] is not an object"),
])
def test_malformed_world_exits_2_naming_the_key(small_campaign, capsys, doc, message):
    """world.json is read as strictly as the record codec reads a line."""
    camp, paths, tmp_path = small_campaign
    Path(paths["world.json"]).write_text(json.dumps(doc))
    out = tmp_path / "audit.jsonl"
    capsys.readouterr()
    assert run(audit_argv(paths, str(out))) == 2
    assert capsys.readouterr().err == f"geoaudit: {paths['world.json']}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("spellings", [("2001:db8::1", "2001:DB8::1"), ("192.0.2.1", " 192.0.2.1")],
                         ids=["v6-case", "v4-space"])
def test_a_world_target_listed_twice_exits_2(small_campaign, capsys, spellings):
    """Two spellings of one target in world.json are refused, as a pair
    archived twice is: neither location is kept over the other."""
    camp, paths, tmp_path = small_campaign
    world = json.loads(Path(paths["world.json"]).read_text())
    world["targets"].update({spellings[0]: [1.0, 2.0], spellings[1]: [50.0, 60.0]})
    Path(paths["world.json"]).write_text(json.dumps(world))
    out = tmp_path / "audit.jsonl"
    capsys.readouterr()
    assert run(audit_argv(paths, str(out))) == 2
    assert (capsys.readouterr().err
            == f"geoaudit: {paths['world.json']}: targets: address {spellings[0]} appears twice\n")
    assert not out.exists()


def test_world_that_is_not_json_exits_2(small_campaign, capsys):
    camp, paths, tmp_path = small_campaign
    for text in ('{"targets": ', "[" * 100_000):  # cut short; nested past the recursion limit
        Path(paths["world.json"]).write_text(text)
        capsys.readouterr()
        assert run(audit_argv(paths, str(tmp_path / "audit.jsonl"))) == 2
        assert capsys.readouterr().err.startswith(f"geoaudit: {paths['world.json']}: ")


@pytest.mark.parametrize("backend, needs", [("replay", "--results"), ("simulate", "--world")])
def test_backend_without_its_input_exits_2(small_campaign, capsys, backend, needs):
    camp, paths, tmp_path = small_campaign
    captured, out = tmp_path / "captured.jsonl", tmp_path / "audit.jsonl"
    argv = [arg for arg in audit_argv(paths, str(out), backend=backend,
                                      extra=["--capture-results", str(captured)])
            if arg not in ("--world", paths["world.json"])]
    capsys.readouterr()
    assert run(argv) == 2
    assert f"{backend} backend needs {needs}" in capsys.readouterr().err
    assert not captured.exists() and not out.exists()


HUGE = 10 ** 400  # a JSON integer too large for a float
MALFORMED_LINE = [
    ("results", "rtts_ms", [None]),
    ("results", "rtts_ms", 5),
    ("results", "rtts_ms", [True]),  # float() would read it as 1 ms
    ("results", "rtts_ms", ["12"]),
    ("results", "target", 5),
    ("results", "vantage_id", None),  # str() would read it as the vantage "None"
    ("vantages.jsonl", "lat", None),
    ("vantages.jsonl", "lat", "12"),
    ("vantages.jsonl", "connected", "false"),  # bool() would read it as connected
    ("vantages.jsonl", "id", None),
    ("vantages.jsonl", "id", 5),
    ("vantages.jsonl", "asn", "x"),
    ("registrations.jsonl", "prefix", 5),
    ("registrations.jsonl", "flags", "ab"),  # tuple() would read it as ("a", "b")
    ("registrations.jsonl", "org_country", 5),
    ("registrations.jsonl", "last_updated", "20210304"),  # Python 3.11+ fromisoformat reads both
    ("registrations.jsonl", "last_updated", "2021-W09-4"),
    ("audit.jsonl", "responded", "false"),  # a target's, read by report
    pytest.param("results", "rtts_ms", [1.0, HUGE], id="results-rtts_ms-huge"),
    pytest.param("vantages.jsonl", "lat", HUGE, id="vantages.jsonl-lat-huge"),
    pytest.param("audit.jsonl", "min_rtt_ms", HUGE, id="audit.jsonl-min_rtt_ms-huge"),
]


@pytest.mark.parametrize("name, key, value", MALFORMED_LINE)
def test_malformed_jsonl_input_exits_2_naming_file_and_line(small_campaign, capsys,
                                                           name, key, value):
    camp, paths, tmp_path = small_campaign
    captured, out = tmp_path / "captured.jsonl", tmp_path / "out"
    argv = audit_argv(paths, str(out), extra=["--capture-results", str(captured)])
    if name == "results":
        paths = {**paths, name: str(tmp_path / "results.jsonl")}
        assert run(audit_argv(paths, str(tmp_path / "sim.jsonl"),
                              extra=["--capture-results", paths[name]])) == 0
        argv = audit_argv(paths, str(out), backend="replay",
                          extra=["--capture-results", str(captured), "--results", paths[name]])
    if name == "audit.jsonl":
        paths = {**paths, name: str(tmp_path / "audit.jsonl")}
        assert run(audit_argv(paths, paths[name])) == 0
        argv = ["report", "--audit", paths[name], "--region-map", paths["region_map.csv"],
                "--out-dir", str(out)]
    lines = Path(paths[name]).read_text().splitlines(keepends=True)
    row = json.loads(lines[2])
    (row["targets"][0] if name == "audit.jsonl" else row)[key] = value
    lines[2] = json.dumps(row) + "\n"
    Path(paths[name]).write_text("".join(lines))
    capsys.readouterr()
    assert run(argv) == 2
    assert f"geoaudit: {paths[name]}: line 3: " in capsys.readouterr().err
    assert not captured.exists() and not out.exists()


def test_world_without_a_target_location_exits_2(small_campaign, capsys):
    camp, paths, tmp_path = small_campaign
    world = json.loads(Path(paths["world.json"]).read_text())
    world["targets"][next(iter(world["targets"]))] = None
    Path(paths["world.json"]).write_text(json.dumps(world))
    captured, out = tmp_path / "captured.jsonl", tmp_path / "audit.jsonl"
    capsys.readouterr()
    assert run(audit_argv(paths, str(out), extra=["--capture-results", str(captured)])) == 2
    assert f"geoaudit: {paths['world.json']}: " in capsys.readouterr().err
    assert not captured.exists() and not out.exists()


def test_a_live_rtt_too_large_for_a_float_exits_3(small_campaign, capsys, monkeypatch):
    """An integer too large for a float in a live answer is a malformed
    body: the API is unavailable, and nothing is written."""
    camp, paths, tmp_path = small_campaign

    class HugeRtt:
        def __init__(self, base_url):
            self.api = world_session(camp, paths)

        def request(self, *args):
            status, body = self.api.request(*args)
            answer = json.loads(body)
            for row in answer.get("results", [])[:1]:
                row["rtts_ms"][0] = HUGE
            return status, json.dumps(answer).encode()

        def close(self):
            pass

    serve_campaign(monkeypatch, camp, paths, lambda mid: 0, lambda s: None)
    monkeypatch.setattr(measure, "Transport", HugeRtt)
    out, captured = tmp_path / "audit.jsonl", tmp_path / "captured.jsonl"
    capsys.readouterr()
    extra = [*LIVE_ARGV, "--capture-results", str(captured)]
    assert run(audit_argv(paths, str(out), backend="live", extra=extra)) == 3
    err = capsys.readouterr().err
    assert "answered a malformed body: " in err and "401 digits is too large for a number" in err
    assert not out.exists() and not captured.exists()


@pytest.mark.parametrize("key, value, refusal", [
    ("noise_ms", HUGE, "noise_ms: an integer of 401 digits is too large for a number"),
    ("noise_ms", 1e306, "world noise_ms is 1e+306, must be finite in microseconds and at least 0"),
    ("propagation_factor", 5e-324,
     "world propagation_factor is 5e-324: an antipodal RTT is not finite in microseconds"),
    ("target", [0, HUGE], "an integer of 401 digits is too large for a number"),
    ("target", [95.0, 400.0], "lat: 95.0 is not in [-90, 90]"),
    ("target", [0.0, -180.5], "lon: -180.5 is not in [-180, 180]"),
    ("target", [math.nan, 0.0], "lat: nan is not in [-90, 90]"),
    ("target", [0.0, math.inf], "lon: inf is not in [-180, 180]"),
], ids=["noise-huge", "noise-inf-us", "factor-inf-us", "point-huge", "off-95-400", "off-lon",
        "nan", "inf"])
def test_a_bad_world_value_exits_2_naming_it(small_campaign, capsys, key, value, refusal):
    """A world value that is no float, a noise or an antipodal RTT that is no
    finite count of microseconds, or a target off the globe, is refused where
    the world is read; the target is named. Nothing is written."""
    camp, paths, tmp_path = small_campaign
    world = json.loads(Path(paths["world.json"]).read_text())
    first = next(iter(world["targets"]))
    if key == "target":
        world["targets"][first] = value
        refusal = f"targets: {first}: {refusal}"
    else:
        world[key] = value
    Path(paths["world.json"]).write_text(json.dumps(world))
    out, captured = tmp_path / "audit.jsonl", tmp_path / "captured.jsonl"
    capsys.readouterr()
    assert run(audit_argv(paths, str(out), extra=["--capture-results", str(captured)])) == 2
    assert capsys.readouterr().err == f"geoaudit: {paths['world.json']}: {refusal}\n"
    assert not out.exists() and not captured.exists()


@pytest.mark.parametrize("source", ["env", "file"])
def test_plan_resolves_only_its_own_settings(small_campaign, capsys, monkeypatch, source):
    camp, paths, tmp_path = small_campaign
    plan = ["plan", "--registrations", paths["registrations.jsonl"],
            "--hitlist-v4", paths["hitlist_v4.csv"], "-o", str(tmp_path / "plans.jsonl")]
    audit_only = {"concurrency": "0", "propagation_factor": "2", "tag": "t"}
    if source == "env":
        for name, value in audit_only.items():
            monkeypatch.setenv(f"GEOAUDIT_{name.upper()}", value)
    else:
        cfg = tmp_path / "geoaudit.ini"
        cfg.write_text("[geoaudit]\n" + "".join(f"{k} = {v}\n" for k, v in audit_only.items()))
        plan += ["--config", str(cfg)]
    assert run(plan) == 0
    config = cli.resolve_config(cli.build_parser().parse_args(plan))
    assert (config.concurrency, config.propagation_factor, config.tag) == (
        1, DEFAULT_PROPAGATION_FACTOR, "")
    # a setting plan does read is still checked
    monkeypatch.setenv("GEOAUDIT_SAMPLE_FRACTION_V4", "1.5")
    capsys.readouterr()
    assert run(plan) == 2
    assert "sample_fraction_v4 from GEOAUDIT_SAMPLE_FRACTION_V4 is 1.5" in capsys.readouterr().err


def test_plan_needs_plans_or_registrations(tmp_path, capsys):
    out = tmp_path / "plans.jsonl"
    assert run(["plan", "--hitlist-v4", str(tmp_path / "hits.csv"), "-o", str(out)]) == 2
    assert "need --plans, or --registrations with hitlists" in capsys.readouterr().err
    assert not out.exists()


PLAN_BUILDING_FLAGS = {"--registrations": "regs.jsonl", "--hitlist-v4": "hits.csv",
                       "--hitlist-v6": "hits.txt", "--aliased-prefixes": "aliased.txt",
                       "--min-score": "5", "--sample-fraction-v4": "0.5",
                       "--sample-fraction-v6": "0.5"}


@pytest.mark.parametrize("command", ["plan", "audit"])
@pytest.mark.parametrize("flag", PLAN_BUILDING_FLAGS)
def test_a_plan_building_flag_with_plans_is_refused(tmp_path, capsys, command, flag):
    """--plans skips building plans, so a flag that only builds them is
    refused before any input is read: no path given here exists."""
    missing = str(tmp_path / "missing")
    argv = [command, "--plans", missing, flag, PLAN_BUILDING_FLAGS[flag], "-o", str(tmp_path / "out")]
    if command == "audit":
        argv += ["--rib", missing, "--vantages", missing, "--config", missing]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"geoaudit: {flag} cannot take effect with --plans\n"
    assert not (tmp_path / "out").exists()


def test_plan_settings_from_the_environment_or_a_file_are_accepted_with_plans(
        small_campaign, monkeypatch):
    camp, paths, tmp_path = small_campaign
    plans, out = tmp_path / "plans.jsonl", tmp_path / "audit.jsonl"
    assert run(["plan", "--registrations", paths["registrations.jsonl"],
                "--hitlist-v4", paths["hitlist_v4.csv"], "-o", str(plans)]) == 0
    cfg = tmp_path / "geoaudit.ini"
    cfg.write_text("[geoaudit]\nsample_fraction_v4 = 0.5\n")
    monkeypatch.setenv("GEOAUDIT_MIN_SCORE", "5")
    assert run(audit_argv(paths, str(out), plans=str(plans), extra=["--config", str(cfg)])) == 0
    assert out.exists()


# each flag that one backend alone reads: (that backend, a value)
BACKEND_FLAGS = {"--results": ("replay", "results.jsonl"), "--world": ("simulate", "world.json"),
                 "--base-url": ("live", "http://127.0.0.1:9"), "--api-key": ("live", "k"),
                 "--tag": ("live", "t"), "--concurrency": ("live", "4")}


def refuse_with_another_backend(tmp_path, capsys, backend, flag):
    """flag with backend exits 2 naming both, before any input is read: no
    path given here exists."""
    missing = str(tmp_path / "missing")
    argv = ["audit", "--plans", missing, "--rib", missing, "--vantages", missing,
            "--config", missing, "--backend", backend, flag, BACKEND_FLAGS[flag][1],
            "-o", str(tmp_path / "out")]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"geoaudit: {flag} cannot take effect with --backend {backend}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("backend", ["replay", "simulate"])
@pytest.mark.parametrize("flag", [flag for flag, (owner, _) in BACKEND_FLAGS.items() if owner == "live"])
def test_a_live_flag_with_another_backend_is_refused(tmp_path, capsys, backend, flag):
    """Only the live backend reads --base-url, --api-key, --tag and
    --concurrency, so another backend refuses each."""
    refuse_with_another_backend(tmp_path, capsys, backend, flag)


@pytest.mark.parametrize("flag, backend", [(flag, backend) for flag in ("--results", "--world")
                                           for backend in ("replay", "simulate", "live")
                                           if backend != BACKEND_FLAGS[flag][0]])
def test_the_input_of_one_backend_with_another_is_refused(tmp_path, capsys, flag, backend):
    """Only replay reads --results and only simulate reads --world, so
    another backend refuses each."""
    refuse_with_another_backend(tmp_path, capsys, backend, flag)


def test_live_settings_from_the_environment_or_a_file_are_accepted_with_another_backend(
        small_campaign, monkeypatch):
    """The refusal is of flags alone: the live settings, concurrency too,
    are accepted from the environment or a file with any backend."""
    camp, paths, tmp_path = small_campaign
    cfg = tmp_path / "geoaudit.ini"
    cfg.write_text("[geoaudit]\nbase_url = http://127.0.0.1:9\ntag = t\nconcurrency = 4\n")
    monkeypatch.setenv("GEOAUDIT_API_KEY", "k")
    out = tmp_path / "audit.jsonl"
    assert run(audit_argv(paths, str(out), extra=["--config", str(cfg)])) == 0
    assert out.exists()


def test_report_same_region_without_geodb_is_refused(tmp_path, capsys):
    """--same-region qualifies geodb detection alone; without a --geodb it
    is refused before the audit is read."""
    out_dir = tmp_path / "report"
    assert run(["report", "--audit", str(tmp_path / "missing.jsonl"), "--same-region",
                "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == "geoaudit: --same-region cannot take effect without --geodb\n"
    assert not out_dir.exists()


def test_org_country_without_a_vantage_is_flagged(small_campaign):
    camp, paths, tmp_path = small_campaign
    bad = tmp_path / "bad_probes.txt"
    bad.write_text("a-de\np-de\n")  # every vantage in DE
    out = tmp_path / "audit.jsonl"
    assert run(audit_argv(paths, str(out), extra=["--bad-probes", str(bad)])) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    flagged = {rec["prefix"] for rec in records if "no_country_vantage" in rec["flags"]}
    assert flagged
    assert flagged == {rec["prefix"] for rec in records if rec["org_country"] == "DE"}


OUT_OF_RANGE = [
    ("propagation_factor", "1.5"),
    ("propagation_factor", "0"),
    ("propagation_factor", "nan"),
    ("sample_fraction_v4", "1.5"),
    ("sample_fraction_v6", "-0.1"),
    ("concurrency", "0"),
]


@pytest.mark.parametrize("source", ["flag", "env", "file"])
@pytest.mark.parametrize("name, value", OUT_OF_RANGE)
def test_out_of_range_setting_exits_2_before_any_input(small_campaign, capsys, monkeypatch,
                                                       source, name, value):
    camp, paths, tmp_path = small_campaign
    captured, out = tmp_path / "captured.jsonl", tmp_path / "out.jsonl"
    extra = ["--capture-results", str(captured)]
    if source == "flag":
        where = f"--{name.replace('_', '-')}"
        extra.append(f"{where}={value}")
    elif source == "env":
        where = f"GEOAUDIT_{name.upper()}"
        monkeypatch.setenv(where, value)
    else:
        cfg = tmp_path / "geoaudit.ini"
        cfg.write_text(f"[geoaudit]\n{name} = {value}\n")
        extra += ["--config", str(cfg)]
        where = f"{cfg} [geoaudit]"
    read, backends = [], []
    real_read = cli._read

    def recording_read(path, loader):
        read.append(path)
        return real_read(path, loader)

    monkeypatch.setattr(cli, "_read", recording_read)
    monkeypatch.setattr(cli, "_make_backend", lambda *a: backends.append(a))
    capsys.readouterr()
    assert run(audit_argv(paths, str(out), backend="live", extra=[*LIVE_ARGV, *extra])) == 2
    assert f"{name} from {where} is " in capsys.readouterr().err
    assert read == ([str(tmp_path / "geoaudit.ini")] if source == "file" else [])
    assert backends == []
    assert not captured.exists() and not out.exists()


@pytest.mark.parametrize("source", ["env", "file"])
@pytest.mark.parametrize("name, value", [("concurrency", "two"),
                                         ("propagation_factor", "two-thirds")])
def test_unparsable_setting_names_it_and_its_source(small_campaign, capsys, monkeypatch,
                                                    source, name, value):
    camp, paths, tmp_path = small_campaign
    captured, out = tmp_path / "captured.jsonl", tmp_path / "out.jsonl"
    extra = ["--capture-results", str(captured)]
    if source == "env":
        where = f"GEOAUDIT_{name.upper()}"
        monkeypatch.setenv(where, value)
    else:
        cfg = tmp_path / "geoaudit.ini"
        cfg.write_text(f"[geoaudit]\n{name} = {value}\n")
        extra += ["--config", str(cfg)]
        where = f"{cfg} [geoaudit]"
    capsys.readouterr()
    assert run(audit_argv(paths, str(out), extra=extra)) == 2
    assert f"{name} from {where}: " in capsys.readouterr().err
    assert not captured.exists() and not out.exists()


def test_custom_region_map_needs_a_point_for_every_country(small_campaign, capsys):
    camp, paths, tmp_path = small_campaign
    with open(paths["region_map.csv"], "a", encoding="utf-8") as fp:
        fp.write("QZ,RIPE\n")  # the campaign's country points have no QZ
    captured, out = tmp_path / "captured.jsonl", tmp_path / "audit.jsonl"
    capsys.readouterr()
    assert run(audit_argv(paths, str(out), extra=["--capture-results", str(captured)])) == 2
    assert "QZ" in capsys.readouterr().err
    assert not captured.exists() and not out.exists()


@pytest.mark.parametrize("given", [[], ["--base-url", "http://127.0.0.1:9"],
                                   ["--api-key", "k"]])
def test_live_backend_needs_url_and_key(small_campaign, capsys, monkeypatch, given):
    camp, paths, tmp_path = small_campaign
    monkeypatch.delenv("GEOAUDIT_BASE_URL", raising=False)
    monkeypatch.delenv("GEOAUDIT_API_KEY", raising=False)
    built = []
    monkeypatch.setattr(measure, "LiveBackend", lambda *a, **kw: built.append(a))
    captured, out = tmp_path / "captured.jsonl", tmp_path / "audit.jsonl"
    extra = ["--capture-results", str(captured), *given]
    capsys.readouterr()
    assert run(audit_argv(paths, str(out), backend="live", extra=extra)) == 2
    assert "live backend needs --base-url and an API key" in capsys.readouterr().err
    assert built == []
    assert not captured.exists() and not out.exists()


@pytest.mark.parametrize("url, message", [
    ("ftp://api.example.net/v1", "base URL 'ftp://api.example.net/v1' is not an http:// or "
                                 "https:// URL"),
    ("http://h:x/v1", "Port could not be cast to integer value as 'x'"),
    ("http://[::1/v1", "Invalid IPv6 URL"),
])
def test_live_base_url_that_does_not_parse_exits_2(small_campaign, capsys, url, message):
    camp, paths, tmp_path = small_campaign
    captured, out = tmp_path / "captured.jsonl", tmp_path / "audit.jsonl"
    extra = ["--base-url", url, "--api-key", "k", "--capture-results", str(captured)]
    capsys.readouterr()
    assert run(audit_argv(paths, str(out), backend="live", extra=extra)) == 2
    assert capsys.readouterr().err == f"geoaudit: {message}\n"
    assert not captured.exists() and not out.exists()


def permutation_campaign(tmp_path):
    """A campaign with two targets in most prefixes, a cross-registry
    duplicate registration, a duplicate that ties on prefix, registry and
    date, and every side list the audit reads."""
    camp = build_campaign(fc_per_region=6, planted_per_class=2, v6_fc_per_region=2, noise_ms=2.0)
    regs = [json.loads(line) for line in camp.registrations_jsonl.splitlines()]
    dup = dict(regs[0], rir="RIPE", last_updated="2010-01-01", org_id="ORG-DUP")
    tie = dict(regs[1], org_id="ORG-TIE", org_country="DE")
    camp.registrations_jsonl += json.dumps(dup) + "\n" + json.dumps(tie) + "\n"
    extra = []
    for addr, loc in list(camp.world["targets"].items()):
        if "." in addr:
            second = addr[:-1] + "2"
            camp.world["targets"][second] = loc
            extra += [f"{second},100", f"{addr[:-1]}3,50"]
    camp.hitlist_v4_csv += "\n".join(extra) + "\n"
    camp.world["unresponsive"] = ["10.12.1.1", "10.12.1.2"]
    paths = write_campaign(tmp_path, camp)
    side = {
        "anycast.txt": "10.11.2.0/24\n2001:db8:13::/48\n",
        "aliased.txt": "10.10.3.2/32\n10.14.0.0/30\n",
        "nir_markers.txt": f"# markers\n{regs[5]['org_id']}\nORG-DUP\n",
        "bad_probes.txt": "p-de\na-jp\n",
    }
    for name, text in side.items():
        (tmp_path / name).write_text(text)
        paths[name] = str(tmp_path / name)
    return paths


def test_audit_is_invariant_to_input_line_order(tmp_path):
    paths = permutation_campaign(tmp_path)
    extra = ["--anycast-prefixes", paths["anycast.txt"],
             "--aliased-prefixes", paths["aliased.txt"],
             "--nir-markers", paths["nir_markers.txt"],
             "--bad-probes", paths["bad_probes.txt"]]

    def audit(name):
        out, capture = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.capture.jsonl"
        assert run(audit_argv(paths, str(out), extra=extra + ["--capture-results",
                                                              str(capture)])) == 0
        return out.read_bytes(), capture.read_bytes()

    want = audit("ordered")
    records = [json.loads(line) for line in want[0].splitlines()]
    reasons = {rec["filter_reason"] for rec in records}
    assert {None, "unresponsive", "anycast", "nir"} <= reasons
    shuffled = ["registrations.jsonl", "hitlist_v4.csv", "hitlist_v6.txt", "vantages.jsonl",
                "rib.txt", "anycast.txt", "aliased.txt", "nir_markers.txt", "bad_probes.txt"]
    originals = {name: Path(paths[name]).read_text() for name in shuffled}
    rng = random.Random(61)
    for round_ in range(5):
        for name, text in originals.items():
            lines = text.splitlines(keepends=True)
            head = lines[:1] if name.endswith(".csv") else []  # the header stays first
            body = lines[len(head):]
            rng.shuffle(body)
            Path(paths[name]).write_text("".join(head + body))
        assert audit(f"shuffled-{round_}") == want, round_


def test_audit_reads_gzipped_inputs(small_campaign):
    camp, paths, tmp_path = small_campaign
    gz_paths = dict(paths)
    for name in ("registrations.jsonl", "rib.txt", "hitlist_v4.csv"):
        src = tmp_path / name
        dst = tmp_path / (name + ".gz")
        dst.write_bytes(gzip.compress(src.read_bytes()))
        gz_paths[name] = str(dst)
    out_gz = tmp_path / "gz.jsonl"
    out_plain = tmp_path / "plain.jsonl"
    assert run(audit_argv(gz_paths, str(out_gz))) == 0
    assert run(audit_argv(paths, str(out_plain))) == 0
    assert out_gz.read_bytes() == out_plain.read_bytes()


def test_audit_sampling_reduces_plan_count(small_campaign):
    camp, paths, tmp_path = small_campaign
    out = tmp_path / "sampled.jsonl"
    n_v4 = sum(1 for p in camp.expected if ":" not in p)
    assert run(audit_argv(paths, str(out),
                          extra=["--sample-fraction-v4", "0.5"])) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    v4 = [r for r in records if ":" not in r["prefix"]]
    v6 = [r for r in records if ":" in r["prefix"]]
    assert len(v4) == round(n_v4 * 0.5)
    assert len(v6) == sum(1 for p in camp.expected if ":" in p)

    n_v6 = len(v6)
    assert run(audit_argv(paths, str(out), extra=["--sample-fraction-v6", "0.4"])) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert sum(":" in r["prefix"] for r in records) == round(n_v6 * 0.4)
    assert sum(":" not in r["prefix"] for r in records) == n_v4


def test_report_command_writes_tables(small_campaign):
    camp, paths, tmp_path = small_campaign
    audit_out = tmp_path / "audit.jsonl"
    assert run(audit_argv(paths, str(audit_out))) == 0

    # provider that copies the planted truth for two RI prefixes
    geodb = tmp_path / "provider.csv"
    ri_prefixes = [p for p, cls in sorted(camp.expected.items()) if cls == "RI"][:2]
    lines = ["prefix,country"]
    for p in ri_prefixes:
        lines.append(f"{p},JP")
    geodb.write_text("\n".join(lines) + "\n")

    leased = tmp_path / "leased.txt"
    fi_prefixes = [p for p, cls in sorted(camp.expected.items()) if cls == "FI"]
    leased.write_text("\n".join(fi_prefixes[:2]) + "\n")

    out_dir = tmp_path / "report"
    rc = run(["report", "--audit", str(audit_out),
              "--registrations", paths["registrations.jsonl"],
              "--region-map", paths["region_map.csv"],
              "--geodb", f"alpha={geodb}",
              "--leased-prefixes", str(leased),
              "--out-dir", str(out_dir)])
    assert rc == 0
    for name in ("distribution.csv", "summary.txt", "sankey.csv", "oro.csv",
                 "characteristics_status.csv", "characteristics_age.csv",
                 "geodb.csv", "leasing.csv"):
        assert (out_dir / name).exists(), name

    summary = (out_dir / "summary.txt").read_text()
    assert "accounting identity: holds" in summary
    with open(out_dir / "distribution.csv", newline="") as fp:
        for row in csv.DictReader(fp):
            total = sum(float(row[c]) for c in ("FC", "OC", "OI", "RI", "FI"))
            assert total == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("change, refusal", [
    ({"filter_reason": "anycast"}, "carries both class and filter_reason"),
    ({"class": None}, "carries neither class nor filter_reason"),
])
def test_report_refuses_a_record_without_exactly_one_outcome(small_campaign, capsys, change, refusal):
    """Every audit record carries a class or a filter reason, never both: a
    record with both or neither would break the accounting identity, so it
    is refused where audit.jsonl is read, naming the line."""
    camp, paths, tmp_path = small_campaign
    audit_out = tmp_path / "audit.jsonl"
    assert run(audit_argv(paths, str(audit_out))) == 0
    lines = audit_out.read_text().splitlines(keepends=True)
    at = next(n for n, line in enumerate(lines) if json.loads(line)["class"] is not None)
    lines[at] = json.dumps({**json.loads(lines[at]), **change}) + "\n"
    audit_out.write_text("".join(lines))
    out_dir = tmp_path / "report"
    capsys.readouterr()
    assert run(["report", "--audit", str(audit_out), "--region-map", paths["region_map.csv"],
                "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"geoaudit: {audit_out}: line {at + 1}: {refusal}\n"
    assert not out_dir.exists()


def test_report_refuses_a_prefix_audited_twice(small_campaign, capsys):
    """An audit writes one record per prefix: an audit.jsonl that lists a
    prefix again would count it twice in every table, so it exits 2 naming
    the file and the prefix, and no table is written."""
    camp, paths, tmp_path = small_campaign
    audit_out = tmp_path / "audit.jsonl"
    assert run(audit_argv(paths, str(audit_out))) == 0
    lines = audit_out.read_text().splitlines(keepends=True)
    audit_out.write_text("".join(lines + lines[:2]))
    out_dir = tmp_path / "report"
    capsys.readouterr()
    assert run(["report", "--audit", str(audit_out), "--region-map", paths["region_map.csv"],
                "--out-dir", str(out_dir)]) == 2
    assert (capsys.readouterr().err
            == f"geoaudit: {audit_out}: prefix {json.loads(lines[0])['prefix']} appears twice\n")
    assert not out_dir.exists()


def test_report_joins_the_registration_the_audit_classified(tmp_path):
    """Two registries register one prefix: planning keeps the row with the
    highest duplicate_rank, here the ARIN row updated later, and the
    characteristics tables count that row, not the last one in the file."""
    from geoaudit import targets
    from geoaudit.registry import load_registrations, parse_address

    regs_path = tmp_path / "registrations.jsonl"
    regs_path.write_text(
        '{"prefix": "192.0.2.0/24", "rir": "ARIN", "org_country": "US", "status": "allocated", '
        '"last_updated": "2024-03-01"}\n'
        '{"prefix": "192.0.2.0/24", "rir": "RIPE", "org_country": "NL", "status": "assigned", '
        '"last_updated": "2010-03-01"}\n')
    with open(regs_path) as fp:
        regs = load_registrations(fp)
    plans = targets.build_target_plans(regs, [targets.HitlistEntry(parse_address("192.0.2.1"))])
    assert [plan.registration.rir.value for plan in plans] == ["ARIN"]
    audit_out = tmp_path / "audit.jsonl"
    audit_out.write_text('{"prefix": "192.0.2.0/24", "rir_reg": "ARIN", "class": "FC"}\n')
    out_dir = tmp_path / "report"
    assert run(["report", "--audit", str(audit_out), "--registrations", str(regs_path),
                "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "characteristics_status.csv").read_text() == "class,status,count\nFC,allocated,1\n"
    assert (out_dir / "characteristics_age.csv").read_text() == "class,year,count\nFC,2024,1\n"


@pytest.mark.parametrize("bad_input", ["--geodb", "--geodb-without-path", "--geodb-without-name",
                                       "--geodb-name-twice", "--geodb-prefix-twice-last",
                                       "--geodb-prefix-twice-first", "--leased-prefixes"])
def test_report_bad_input_leaves_old_report(small_campaign, capsys, bad_input):
    camp, paths, tmp_path = small_campaign
    audit_out = tmp_path / "audit.jsonl"
    assert run(audit_argv(paths, str(audit_out))) == 0
    out_dir = tmp_path / "report"
    out_dir.mkdir()
    names = ("distribution.csv", "summary.txt", "sankey.csv", "oro.csv",
             "characteristics_status.csv", "characteristics_age.csv", "geodb.csv", "leasing.csv")
    for name in names:
        (out_dir / name).write_bytes(f"previous {name}\n".encode())

    missing = str(tmp_path / "missing.csv")
    geodb = tmp_path / "geodb.csv"
    geodb.write_text("prefix,country\n")
    # one prefix in two rows, the second after the others or before them
    prefix, *others = sorted(camp.expected)[:3]
    rows = [f"{prefix},JP", *(f"{other},US" for other in others)]
    last, first = tmp_path / "twice_last.csv", tmp_path / "twice_first.csv"
    last.write_text("\n".join(["prefix,country", *rows, f"{prefix},DE"]) + "\n")
    first.write_text("\n".join(["prefix,country", f"{prefix},DE", *rows]) + "\n")
    bad, message = {
        "--geodb": (["--geodb", f"alpha={missing}"], "missing.csv"),
        "--geodb-without-path": (["--geodb", "alpha"], "--geodb wants name=path, got 'alpha'"),
        # geodb.csv would get rows with a blank provider
        "--geodb-without-name": (["--geodb", f"={geodb}"], f"--geodb wants name=path, got '={geodb}'"),
        # the second table would replace the first without a word
        "--geodb-name-twice": (["--geodb", f"alpha={geodb}", "--geodb", f"alpha={geodb}"],
                               "geoaudit: --geodb names provider 'alpha' twice\n"),
        # the last row read would win without a word
        "--geodb-prefix-twice-last": (["--geodb", f"alpha={last}"],
                                      f"geoaudit: {last}: prefix {prefix} appears twice\n"),
        "--geodb-prefix-twice-first": (["--geodb", f"alpha={first}"],
                                       f"geoaudit: {first}: prefix {prefix} appears twice\n"),
        "--leased-prefixes": (["--leased-prefixes", missing], "missing.csv"),
    }[bad_input]
    rc = run(["report", "--audit", str(audit_out),
              "--registrations", paths["registrations.jsonl"],
              "--region-map", paths["region_map.csv"],
              *bad, "--out-dir", str(out_dir)])
    assert rc == 2
    assert message in capsys.readouterr().err
    for name in names:
        assert (out_dir / name).read_bytes() == f"previous {name}\n".encode(), name
    assert not list(out_dir.glob("*.tmp"))


def test_oro_command(small_campaign, capsys):
    camp, paths, tmp_path = small_campaign
    out = tmp_path / "oro.csv"
    rc = run(["oro", "--registrations", paths["registrations.jsonl"],
              "--region-map", paths["region_map.csv"], "-o", str(out)])
    assert rc == 0
    assert "ARIN v4" in capsys.readouterr().out
    with open(out, newline="") as fp:
        rows = list(csv.DictReader(fp))
    # per region: 2 planted with away org (OC, OI) and 1 FI, out of 8 v4 regs
    arin = next(r for r in rows if r["rir"] == "ARIN" and r["family"] == "4")
    assert arin["prefixes"] == "8"
    assert arin["oro_prefixes"] == "3"


def test_exit_code_2_on_missing_and_malformed_input(tmp_path, capsys):
    assert run(["align", "--registrations", str(tmp_path / "nope.jsonl"),
                "--rib", str(tmp_path / "nope.txt")]) == 2

    bad = tmp_path / "bad.gz"
    bad.write_bytes(b"\x1f\x8b\x08" + b"not really gzip")
    assert run(["oro", "--registrations", str(bad)]) == 2
    bad.write_bytes(b"\x1f\x8b\x09" + b"not deflate at all")  # an unknown compression method
    capsys.readouterr()
    assert run(["oro", "--registrations", str(bad)]) == 2
    assert f"geoaudit: {bad}: " in capsys.readouterr().err

    # replay backend without an archive is a configuration problem
    regs = tmp_path / "r.jsonl"
    regs.write_text("")
    rc = run(["audit", "--registrations", str(regs), "--rib", str(tmp_path / "nope"),
              "--vantages", str(tmp_path / "nope"), "-o", str(tmp_path / "out")])
    assert rc == 2


def test_corrupt_gzip_body_exits_2(tmp_path, capsys):
    """A gzip header followed by a body that does not inflate raises
    zlib.error, which is neither an OSError nor an EOFError."""
    bad = tmp_path / "junk.gz"
    bad.write_bytes(gzip.compress(b"")[:10] + b"garbagegarbage")
    capsys.readouterr()
    assert run(["oro", "--registrations", str(bad)]) == 2
    assert (capsys.readouterr().err
            == f"geoaudit: {bad}: Error -3 while decompressing data: invalid block type\n")
    assert run(["ingest", "--arin", str(bad), "-o", str(tmp_path / "r.jsonl")]) == 2
    assert capsys.readouterr().err.startswith(f"geoaudit: {bad}: cannot read dump: Error -3 ")


@pytest.mark.parametrize("flag, name, header, row", [
    ("--hitlist-v4", "hitlist_v4.csv", "addr,score", "192.0.2.200"),
    ("--default-coords", "default_coords.csv", "country,lat,lon", "US,38.0"),
    ("--country-points", "country_points.csv", "country,lat,lon", "US,40.0"),
    ("--region-map", "region_map.csv", "country,rir", "US"),
])
def test_a_short_csv_row_exits_2_naming_its_line(small_campaign, capsys, flag, name, header, row):
    camp, paths, tmp_path = small_campaign
    path = tmp_path / name
    path.write_text(f"# a comment line counts\n{header}\n{row}\n" if flag == "--region-map"
                    else f"{header}\n\n{row}\n")
    out = tmp_path / "audit.jsonl"
    capsys.readouterr()
    assert run(audit_argv(paths, str(out), extra=[flag, str(path)])) == 2
    fields = len(row.split(","))
    assert (capsys.readouterr().err
            == f"geoaudit: {path}: line 3: {fields} fields, need {len(header.split(','))}\n")
    assert not out.exists()


@pytest.mark.parametrize("flag, name, text, where, family", [
    ("--hitlist-v4", "hitlist_v4.csv", "addr,score\n192.0.2.1,100\n2001:db8::1,100\n",
     "line 3: 2001:db8::1", 4),
    ("--hitlist-v6", "hitlist_v6.txt", "2001:db8::1\n192.0.2.1\n", "line 2: 192.0.2.1", 6),
])
def test_a_hitlist_address_of_the_other_family_exits_2(small_campaign, capsys, flag, name, text,
                                                       where, family):
    """An IPv4 address in the v6 hitlist would be planned unscored and pass
    any --min-score; each hitlist holds its own family alone."""
    camp, paths, tmp_path = small_campaign
    path = tmp_path / name
    path.write_text(text)
    out = tmp_path / "audit.jsonl"
    capsys.readouterr()
    assert run(audit_argv(paths, str(out), extra=[flag, str(path)])) == 2
    assert capsys.readouterr().err == f"geoaudit: {path}: {where} is not an IPv{family} address\n"
    assert not out.exists()


def test_a_short_geodb_row_exits_2_naming_its_line(small_campaign, capsys):
    camp, paths, tmp_path = small_campaign
    audit, geodb = tmp_path / "audit.jsonl", tmp_path / "geodb.csv"
    assert run(audit_argv(paths, str(audit))) == 0
    geodb.write_text("prefix,country\n192.0.2.0/24,US\n198.51.100.0/24\n")
    capsys.readouterr()
    assert run(["report", "--audit", str(audit), "--geodb", f"p={geodb}",
                "--region-map", paths["region_map.csv"], "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"geoaudit: {geodb}: line 3: 1 fields, need 2\n"


def test_a_bad_csv_value_exits_2_naming_its_line(small_campaign, capsys):
    camp, paths, tmp_path = small_campaign
    hitlist = Path(paths["hitlist_v4.csv"])
    hitlist.write_text(hitlist.read_text() + "192.0.2.200,high\n")
    line = len(hitlist.read_text().splitlines())
    capsys.readouterr()
    assert run(audit_argv(paths, str(tmp_path / "audit.jsonl"))) == 2
    assert (capsys.readouterr().err == f"geoaudit: {hitlist}: line {line}: "
                                       "invalid literal for int() with base 10: 'high'\n")


def test_a_bad_country_code_in_the_region_map_exits_2(small_campaign, capsys):
    camp, paths, tmp_path = small_campaign
    region_map = Path(paths["region_map.csv"])
    region_map.write_text(region_map.read_text() + "USA,ARIN\n")
    capsys.readouterr()
    assert run(audit_argv(paths, str(tmp_path / "audit.jsonl"))) == 2
    assert capsys.readouterr().err == f"geoaudit: {region_map}: bad country code 'USA'\n"


def test_exit_code_1_on_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["audit"])  # missing required arguments
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 1
    # --seed and --config exist only where a setting is resolved: plan, audit
    with pytest.raises(SystemExit) as exc:
        cli.main(["ingest", "--seed", "1", "-o", "x"])
    assert exc.value.code == 1


def test_exit_code_3_when_backend_unavailable(small_campaign, monkeypatch):
    camp, paths, tmp_path = small_campaign

    def boom(args, config):
        raise BackendUnavailable("api is down")

    monkeypatch.setattr(cli, "_make_backend", boom)
    rc = run(audit_argv(paths, str(tmp_path / "out.jsonl")))
    assert rc == 3


@pytest.mark.parametrize("bug", [KeyError, ValueError, EOFError])
def test_a_bug_in_a_stage_is_not_bad_input(small_campaign, monkeypatch, bug):
    """Exit 2 means a GeoAuditError or an OSError: any other exception from
    a stage is a bug, and it leaves main with its traceback."""
    camp, paths, tmp_path = small_campaign

    def broken(*args, **kwargs):
        raise bug("a stage's own mistake")

    monkeypatch.setattr(classify, "audit_pipeline", broken)
    with pytest.raises(bug, match="a stage's own mistake"):
        run(audit_argv(paths, str(tmp_path / "out.jsonl")))


@pytest.mark.parametrize("key, value, bound", [
    ("lat", 500.0, "[-90, 90]"), ("lat", -90.5, "[-90, 90]"), ("lat", math.nan, "[-90, 90]"),
    ("lon", 999.0, "[-180, 180]"), ("lon", -180.5, "[-180, 180]"), ("lon", math.inf, "[-180, 180]"),
])
def test_a_vantage_off_the_globe_exits_2_naming_file_line_and_key(small_campaign, capsys,
                                                                   key, value, bound):
    """A vantage's coordinates are refused outside [-90, 90] x [-180, 180],
    as a country point is; classified, it would feed haversine nonsense
    into the feasible region."""
    camp, paths, tmp_path = small_campaign
    out = tmp_path / "out.jsonl"
    lines = Path(paths["vantages.jsonl"]).read_text().splitlines(keepends=True)
    row = json.loads(lines[2])
    row[key] = value
    lines[2] = json.dumps(row) + "\n"
    Path(paths["vantages.jsonl"]).write_text("".join(lines))
    capsys.readouterr()
    assert run(audit_argv(paths, str(out))) == 2
    assert capsys.readouterr().err == (
        f"geoaudit: {paths['vantages.jsonl']}: line 3: {key}: {value!r} is not in {bound}\n")
    assert not out.exists()


@pytest.mark.parametrize("gc_on", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("outcome", ["success", "bad-input", "backend-down", "bug"])
def test_main_restores_the_garbage_collector(small_campaign, monkeypatch, gc_on, outcome):
    """main runs a command with cyclic garbage collection off; whatever the
    command's end, the collector is left as main found it."""
    camp, paths, tmp_path = small_campaign
    argv = audit_argv(paths, str(tmp_path / "out.jsonl"))
    seen = []

    def broken(*args, **kwargs):
        seen.append(gc.isenabled())
        raise {"backend-down": BackendUnavailable("api is down"),
               "bug": KeyError("a stage's own mistake")}[outcome]

    if outcome == "bad-input":
        Path(paths["vantages.jsonl"]).write_text("{\n")
    elif outcome != "success":
        monkeypatch.setattr(classify, "audit_pipeline", broken)
    was = gc.isenabled()
    (gc.enable if gc_on else gc.disable)()
    try:
        if outcome == "bug":
            with pytest.raises(KeyError, match="a stage's own mistake"):
                run(argv)
        else:
            assert run(argv) == {"success": 0, "bad-input": 2, "backend-down": 3}[outcome]
        assert gc.isenabled() is gc_on
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == ([] if outcome in ("success", "bad-input") else [False])


@pytest.mark.parametrize("bug", [AttributeError, KeyError, TypeError, ValueError])
def test_a_bug_in_a_loader_is_not_bad_input(tmp_path, monkeypatch, bug):
    """_read names the file only for bad input: a loader's own mistake,
    raised outside any record parse, leaves main with its traceback."""
    regs = tmp_path / "registrations.jsonl"
    regs.write_text("")

    def broken(fp):
        fp.read()
        raise bug("a loader's own mistake")

    monkeypatch.setattr(cli, "load_registrations", broken)
    with pytest.raises(bug, match="a loader's own mistake"):
        run(["align", "--registrations", str(regs), "--rib", str(regs)])


def test_csv_field_over_the_limit_exits_2(small_campaign, capsys):
    camp, paths, tmp_path = small_campaign
    hitlist = tmp_path / "hitlist.csv"
    hitlist.write_text("addr,score\n" + "1" * 140_000 + ",99\n")
    capsys.readouterr()
    assert run(["plan", "--registrations", paths["registrations.jsonl"],
                "--hitlist-v4", str(hitlist), "-o", str(tmp_path / "plans.jsonl")]) == 2
    assert (capsys.readouterr().err
            == f"geoaudit: {hitlist}: field larger than field limit (131072)\n")
    assert not (tmp_path / "plans.jsonl").exists()


def test_malformed_dialect_table_exits_2(tmp_path, capsys):
    (tmp_path / "arin.txt").write_text(ARIN_DUMP)
    dialects = tmp_path / "dialects.ini"
    dialects.write_text("net_keys = NetRange\n")  # no section header
    out = tmp_path / "registrations.jsonl"
    capsys.readouterr()
    assert run(["ingest", "--arin", str(tmp_path / "arin.txt"), "--dialects", str(dialects),
                "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"geoaudit: {dialects}: File contains no section headers.")
    assert not out.exists()


def test_config_precedence(tmp_path, monkeypatch):
    cfg = tmp_path / "geoaudit.ini"
    cfg.write_text("[geoaudit]\nseed = 7\nmin_score = 10\n")
    parser = cli.build_parser()

    args = parser.parse_args(["plan", "--config", str(cfg), "-o", "x"])
    config = cli.resolve_config(args)
    assert config.seed == 7
    assert config.min_score == 10

    monkeypatch.setenv("GEOAUDIT_SEED", "9")
    config = cli.resolve_config(parser.parse_args(["plan", "--config", str(cfg), "-o", "x"]))
    assert config.seed == 9  # env beats file

    config = cli.resolve_config(parser.parse_args(
        ["plan", "--config", str(cfg), "--seed", "11", "-o", "x"]))
    assert config.seed == 11  # flag beats env

    monkeypatch.delenv("GEOAUDIT_SEED")
    config = cli.resolve_config(parser.parse_args(["plan", "-o", "x"]))
    assert config.seed == 42
    assert config.min_score == 99


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "geoaudit.ini"
    cfg.write_text("[geoaudit]\nseed = 7\nmin-score = 10\n")
    plans = tmp_path / "plans.jsonl"
    plans.write_text("")
    out = tmp_path / "out.jsonl"
    assert run(["plan", "--config", str(cfg), "--plans", str(plans), "-o", str(out)]) == 2
    assert "min-score" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", ["seed = 7\n", "[geoaudit]\nseed = 7\nseed = 8\n",
                                  "[geoaudit]\nseed\n"])
def test_malformed_config_file_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "geoaudit.ini"
    cfg.write_text(text)
    out = tmp_path / "out.jsonl"
    assert run(["plan", "--config", str(cfg), "--plans", os.devnull, "-o", str(out)]) == 2
    assert f"geoaudit: {cfg}: " in capsys.readouterr().err
    assert not out.exists()


def test_readme_lists_every_setting():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")][2:]
    env = [row.split("|")[3].strip().strip("`") for row in rows]
    assert env == [f"GEOAUDIT_{name.upper()}" for name in cli.RunConfig._fields]


def test_audit_uses_bundled_data_by_default(small_campaign):
    # leaving out --region-map switches to the bundled snapshot, whose
    # official counts are validated; campaign countries exist there too
    camp, paths, tmp_path = small_campaign
    out = tmp_path / "bundled.jsonl"
    argv = audit_argv(paths, str(out))
    for flag in ("--region-map", "--country-points"):
        i = argv.index(flag)
        del argv[i:i + 2]
    assert run(argv) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == len(camp.expected)


def python_in_subprocess(code: str, *args: str, **env: str) -> str:
    """Run code in a fresh interpreter that finds this checkout's package,
    with env added to the environment; returns its stdout."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path, **env}, timeout=60, check=True)
    return done.stdout


def test_the_wheel_check_passes_against_the_checkout(tmp_path):
    """tests/wheel_check.py, which CI runs with an installed wheel, runs
    against the checkout too: in a fresh interpreter with PYTHONPATH=src,
    every warning an error, from a directory outside the checkout."""
    script = Path(__file__).resolve().parent / "wheel_check.py"
    src = str(Path(cli.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-W", "error", str(script)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "wheel check: ok"


RUN_AND_LIST_MODULES = """
import json, sys
from geoaudit import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""
# then the record codecs the command compiled, as Type.to_line or Type.from_json
RUN_AND_LIST_CODECS = RUN_AND_LIST_MODULES + """
from geoaudit import registry
records = {obj for module in list(sys.modules.values()) if module and module.__name__.startswith("geoaudit")
           for obj in vars(module).values() if isinstance(obj, type) and "to_line" in vars(obj)}
print(json.dumps(sorted(f"{cls.__name__}.{way}" for cls in records for way in ("to_line", "from_json")
                        if not isinstance(vars(cls)[way], registry._OnFirstUse))))
"""


def test_each_command_imports_only_the_stages_it_runs(small_campaign):
    camp, paths, tmp_path = small_campaign
    (tmp_path / "arin.txt").write_text(ARIN_DUMP)
    (tmp_path / "ripe.txt.gz").write_bytes(gzip.compress(RIPE_DUMP.encode()))
    regs = paths["registrations.jsonl"]
    commands = {
        "ingest": (["ingest", "--arin", str(tmp_path / "arin.txt"),
                    "--ripe", str(tmp_path / "ripe.txt.gz"), "-o", str(tmp_path / "r.jsonl")],
                   {"bgp", "classify", "geo", "measure", "report", "targets", "vantage"}),
        "align": (["align", "--registrations", regs, "--rib", paths["rib.txt"],
                   "-o", str(tmp_path / "alignment.csv")],
                  {"classify", "measure", "report", "whois"}),
        "oro": (["oro", "--registrations", regs, "-o", str(tmp_path / "oro.csv")],
                {"bgp", "classify", "geo", "measure", "targets", "vantage", "whois"}),
        "plan": (["plan", "--registrations", regs, "--hitlist-v4", paths["hitlist_v4.csv"],
                  "-o", str(tmp_path / "plans.jsonl")],
                 {"bgp", "classify", "geo", "measure", "report", "vantage", "whois"}),
        "audit": (audit_argv(paths, str(tmp_path / "audit.jsonl")),
                  {"report", "whois"}),
        "report": (["report", "--audit", str(tmp_path / "audit.jsonl"), "--registrations", regs,
                    "--out-dir", str(tmp_path / "report")],
                   {"measure", "vantage", "whois"}),
    }
    # what the interpreter loads before any command: a site hook may load ipaddress
    startup = set(json.loads(python_in_subprocess("import json, sys; print(json.dumps(sorted(sys.modules)))")))
    # a record's to_line and from_json are compiled on first use, so no
    # command pays for a codec it does not run
    compiled = {
        "ingest": ["Registration.to_line"],
        "align": ["Registration.from_json"],
        "oro": ["Registration.from_json"],
        "plan": ["Registration.from_json", "Registration.to_line", "TargetPlan.to_line"],
        "audit": ["ConsistencyRecord.to_line", "Registration.from_json", "TargetOutcome.to_line",
                  "VantagePoint.from_json"],
        "report": ["ConsistencyRecord.from_json", "Registration.from_json", "TargetOutcome.from_json"],
    }
    for name, (argv, unused) in commands.items():
        out = python_in_subprocess(RUN_AND_LIST_CODECS, *argv).splitlines()
        code, modules = json.loads(out[-2])
        assert code == 0, name
        assert json.loads(out[-1]) == compiled[name], name
        assert not {f"geoaudit.{stage}" for stage in unused} & set(modules), name
        assert "concurrent.futures" not in modules, name
        assert "http.client" not in modules, name  # only a live audit loads it
        # records are NamedTuples: dataclasses, and the inspect it imports, would
        # cost every command ~10 ms to import and more to build its classes
        assert not {"dataclasses", "inspect"} & set(modules), name
        # vantage.prefix_rotation and the simulator hash with CPython's own
        # SHA-256 and BLAKE2b: OpenSSL's _hashlib costs ~4 ms and ~3.6 MB
        assert "_hashlib" not in modules, name
        # addresses print from their integers; only an unusual spelling loads ipaddress
        assert "ipaddress" not in set(modules) - startup, name
        # whois.parse_date reads every date spelling with one compiled pattern
        assert "_strptime" not in modules, name


DIGESTS_WITHOUT = """
import json, sys
for name in sys.argv[1:]:
    sys.modules[name] = None  # as on a build without the module
from geoaudit import measure, vantage
from geoaudit.registry import parse_address, parse_prefix
world = measure.SyntheticWorld({parse_address("2001:db8::1"): (48.1, 11.6)}, noise_ms=5.0, seed=3)
print(json.dumps([
    vantage.sha256.__module__,
    [vantage.prefix_rotation(parse_prefix(p)) for i in range(100)
     for p in (f"10.{i}.0.0/16", f"2001:db8:{i:x}::/48")],
    world.rtts_by_vantage(parse_address("2001:db8::1"),
                          [vantage.VantagePoint(v, "DE", 0.0, 0.0) for v in ("v-1", "m\u00fcnchen")]),
]))
"""


def test_the_digests_fall_back_to_hashlib_alike():
    """A build without CPython's own SHA-256 (Fedora's, say) takes
    prefix_rotation's from hashlib, with the same values; the simulator's
    samples are unchanged. Without _blake2 hashlib has no BLAKE2b either,
    so the simulator takes it from _blake2 alone: there is no fallback."""
    builtin = json.loads(python_in_subprocess(DIGESTS_WITHOUT).splitlines()[-1])
    fallback = json.loads(python_in_subprocess(DIGESTS_WITHOUT, "_sha2", "_sha256").splitlines()[-1])
    assert (builtin[0], fallback[0]) == ("_sha2" if sys.version_info >= (3, 12) else "_sha256",
                                         "_hashlib")
    assert fallback[1:] == builtin[1:]
    assert python_in_subprocess(
        "import sys; sys.modules['_blake2'] = None; import hashlib; print(hasattr(hashlib, 'blake2b'))"
    ).splitlines()[-1] == "False"


def test_live_audit_runs_on_the_standard_library(small_campaign):
    """A live audit against a loopback API writes what a simulated one
    writes, over one connection, and loads neither requests nor urllib3."""
    camp, paths, tmp_path = small_campaign
    simulated, live = tmp_path / "simulated.jsonl", tmp_path / "live.jsonl"
    assert run(audit_argv(paths, str(simulated))) == 0
    with LoopbackApi(world_session(camp, paths)) as server:
        argv = audit_argv(paths, str(live), backend="live", extra=[
            "--base-url", server.base_url, "--api-key", "k", "--concurrency", "3"])
        out = python_in_subprocess(RUN_AND_LIST_MODULES, *argv)
    code, modules = json.loads(out.splitlines()[-1])
    assert code == 0
    assert live.read_bytes() == simulated.read_bytes()
    assert len(server.peers) == 1
    assert server.methods.count("POST") == server.methods.count("GET") == len(camp.expected)
    assert "http.client" in modules and not {"requests", "urllib3"} & set(modules)
    assert not {"dataclasses", "inspect"} & set(modules)


RUN_EACH = """
import json, sys
from geoaudit import cli
print(json.dumps([cli.main(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_outputs_are_byte_identical_across_hash_seeds(small_campaign):
    """Two processes with different string hashes write the same bytes and
    print the same lines, so no set or dict order keyed by a string leaks
    into an output of any command."""
    camp, paths, tmp_path = small_campaign
    (tmp_path / "arin.txt").write_text(ARIN_DUMP)
    (tmp_path / "ripe.txt").write_text(RIPE_DUMP)
    prefixes = sorted(camp.expected)
    for name, country in (("alpha", "JP"), ("beta", "DE")):  # given below out of name order
        (tmp_path / f"{name}.csv").write_text(
            "prefix,country\n" + "".join(f"{p},{country}\n" for p in prefixes[::3]))
    leased = [p for p in prefixes if camp.expected[p] in ("FI", "RI")][::2]
    (tmp_path / "leased.txt").write_text("".join(f"{p}\n" for p in leased))
    regs = paths["registrations.jsonl"]
    written, printed = [], []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"hash-{hash_seed}"
        out.mkdir()
        commands = [
            ["ingest", "--arin", str(tmp_path / "arin.txt"), "--ripe", str(tmp_path / "ripe.txt"),
             "-o", str(out / "registrations.jsonl")],
            ["align", "--registrations", regs, "--rib", paths["rib.txt"], "-o", str(out / "alignment.csv")],
            ["oro", "--registrations", regs, "--region-map", paths["region_map.csv"],
             "-o", str(out / "oro.csv")],
            ["plan", "--registrations", regs, "--hitlist-v4", paths["hitlist_v4.csv"],
             "--hitlist-v6", paths["hitlist_v6.txt"], "--sample-fraction-v4", "0.5", "--seed", "7",
             "-o", str(out / "plans.jsonl")],
            audit_argv(paths, str(out / "audit.jsonl"),
                       extra=["--capture-results", str(out / "results.jsonl")]),
            ["report", "--audit", str(out / "audit.jsonl"), "--registrations", regs,
             "--region-map", paths["region_map.csv"], "--geodb", f"beta={tmp_path / 'beta.csv'}",
             "--geodb", f"alpha={tmp_path / 'alpha.csv'}", "--leased-prefixes", str(tmp_path / "leased.txt"),
             "--out-dir", str(out / "report")],
        ]
        stdout = python_in_subprocess(RUN_EACH, json.dumps(commands), PYTHONHASHSEED=hash_seed)
        *lines, codes = stdout.splitlines()
        assert json.loads(codes) == [0] * len(commands)
        printed.append("\n".join(lines).replace(str(out), "OUT"))
        written.append({p.relative_to(out).as_posix(): p.read_bytes()
                        for p in sorted(out.rglob("*")) if p.is_file()})
    assert sorted(written[0]) == [
        "alignment.csv", "audit.jsonl", "oro.csv", "plans.jsonl", "registrations.jsonl",
        "report/characteristics_age.csv", "report/characteristics_status.csv",
        "report/distribution.csv", "report/geodb.csv", "report/leasing.csv", "report/oro.csv",
        "report/sankey.csv", "report/summary.txt", "results.jsonl"]
    assert all(written[0].values())
    assert written[0] == written[1]
    assert printed[0] == printed[1]


def test_importing_the_package_loads_no_stage():
    out = python_in_subprocess(
        "import sys, geoaudit; print(sorted(m for m in sys.modules if m.startswith('geoaudit')))")
    assert out.strip() == "['geoaudit']"


@pytest.mark.parametrize("command", ["", "ingest", "align", "plan", "audit", "report", "oro"])
def test_help_exits_0(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*command.split(), "--help"])
    assert exc.value.code == 0
    assert "usage: geoaudit" in capsys.readouterr().out
