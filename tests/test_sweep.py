"""The benchmark's output checks over ten seeds.

Seeds 2 to 11 of the benchmark's generator (geobench/gen.py), at a small
size, go through ingest, align, oro, a simulated audit with a capture, its
replay and report, in-process and with the flags geobench/run.py passes.
Every planted expectation that geobench/checks.py knows must hold, and the
replay must write the simulated audit's bytes. gen.py and checks.py are
imported read-only. Where test_golden pins the bytes of one seed, this
sweep sees a pipeline fault that only another draw of the dumps, the
duplicates, the splits, the transfers or the simulator's noise brings out."""

from pathlib import Path

import pytest

import geoaudit
from geoaudit import cli

from conftest import load_geobench

SEEDS = range(2, 12)
SIZES = {"n_bulk": 200, "n_audit": 64}


@pytest.fixture(scope="module")
def bench():
    return load_geobench("gen"), load_geobench("checks")


@pytest.mark.parametrize("seed", SEEDS)
def test_every_planted_expectation_holds_on_another_seed(bench, seed, tmp_path, capsys):
    gen, checks = bench
    camp = gen.build_campaign(seed, str(Path(geoaudit.__file__).parent / "data"), **SIZES)
    c = gen.write_campaign(camp, str(tmp_path / "camp"))
    exp = camp.expected
    o = lambda name: str(tmp_path / name)  # noqa: E731

    def run(argv):
        assert cli.main(argv) == 0, (argv[0], capsys.readouterr().err)
        return capsys.readouterr().out

    regs = o("registrations.jsonl")
    ingest = ["ingest", "-o", regs]
    for rir in gen.RIRS:
        ingest += [f"--{rir.lower()}", c[f"{rir.lower()}.db.gz"]]
    audit = ["audit", "--registrations", regs, "--hitlist-v4", c["hitlist_v4.csv"],
             "--hitlist-v6", c["hitlist_v6.txt"], "--aliased-prefixes", c["aliased.txt"],
             "--rib", c["rib.txt"], "--vantages", c["vantages.jsonl"],
             "--bad-probes", c["bad_probes.txt"], "--default-coords", c["default_coords.csv"],
             "--anycast-prefixes", c["anycast.txt"], "--nir-markers", c["nir_markers.txt"],
             "--strict-no-org", "--seed", str(seed)]

    stdout = run(ingest)
    problems = checks.check_ingest_report(stdout, exp) + checks.check_registrations(regs, exp)
    stdout = run(["align", "--registrations", regs, "--rib", c["rib.txt"], "-o", o("alignment.csv")])
    problems += checks.check_align(stdout, o("alignment.csv"), exp)
    run(["oro", "--registrations", regs, "-o", o("oro.csv")])
    problems += checks.check_oro(o("oro.csv"), exp)
    stdout = run([*audit, "--backend", "simulate", "--world", c["world.json"],
                  "--capture-results", o("capture.jsonl"), "-o", o("audit_simulate.jsonl")])
    problems += checks.check_audit(o("audit_simulate.jsonl"), exp, stdout)
    run([*audit, "--backend", "replay", "--results", o("capture.jsonl"), "-o", o("audit_replay.jsonl")])
    problems += checks.check_identical([o("audit_simulate.jsonl"), o("audit_replay.jsonl")])
    run(["report", "--audit", o("audit_simulate.jsonl"), "--registrations", regs,
         "--geodb", f"alpha={c['geodb_alpha.csv']}", "--geodb", f"beta={c['geodb_beta.csv']}",
         "--leased-prefixes", c["leased.txt"], "--out-dir", o("report")])
    problems += checks.check_report(o("report"), exp)
    assert problems == []
