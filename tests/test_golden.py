"""Every output's bytes, pinned.

One small seeded campaign from the benchmark's generator (geobench/gen.py,
imported read-only) goes through every subcommand in-process: ingest, align,
oro, plan, a simulated audit with a capture and its replay, a live audit
against a loopback API and the replay of its capture, and report. The sha256
of each decompressed input is checked first, so a failure tells a generator
change from a pipeline change; then the sha256 of every file written.

What each command prints is pinned too, with the output directory spelled
OUT. A closed stdout must not cost a file: each command, run with a stdout
that raises BrokenPipeError, still writes every file a normal run writes.
Nor may a command write over its own input or its other output: each
such pair of paths is refused before anything is read.

A change that alters output bytes on purpose edits OUTPUTS (or STDOUT), and
says which digests changed and why."""

import errno
import gzip
import hashlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

import pytest

import geoaudit
from geoaudit import cli
from geoaudit.measure import SyntheticWorld
from geoaudit.vantage import load_vantages

from conftest import LoopbackApi, WorldSession, load_geobench

SEED = 1
SIZES = {"n_bulk": 200, "n_audit": 24}

INPUTS = {
    "afrinic.db.gz": "78727028d4ed30d41068abd663b412b1c8198207438828551b01102c24e3299e",
    "aliased.txt": "627e73e0937eecfbc951c7ba57c5cd3b7d8bc82b8f256671df1f776fa8620e65",
    "anycast.txt": "7e045249162dd032ad6f25df45ee8e0207a5fab1ec6a54d7d253e98d7ae8738d",
    "apnic.db.gz": "937ee78f57ae4fef5c73aed643a974b9c2fb30445ac214fee57cf6a66dd368b8",
    "arin.db.gz": "bc234d11a8b3fd528bb23f3e433dc33f7536c15de5985834813f74be1a051e22",
    "bad_probes.txt": "e5e7d2418787782dab84cbfda46e9ed955071dd04659e65bc9a1ef5de7e4aa86",
    "default_coords.csv": "01bcbb6e508802dd4d0e396f2c5a56dba55ae1e17b3da9d6ad280b4ea8753fca",
    "geodb_alpha.csv": "949011604387cffa6fa3cc5290c51b37f6df5bb70e2edc58bf167161fffab14f",
    "geodb_beta.csv": "10167d7341a86ee1431c810973a84d3ce7024080b89439881ddb25d61de468e2",
    "hitlist_v4.csv": "56392b67ce4d9a59727253f73a5f059bcd2d9e94c612792ee3c2c8f405cf414b",
    "hitlist_v6.txt": "a2ae4be01d17135fcd5c86ede26de65889d1811e3818cd100ca8552de8b951db",
    "lacnic.db.gz": "4e8297da636923678c22d77aff407055ec50354650d6493dd01a725dd61269f0",
    "leased.txt": "6f704d6d60d355991822a3e8083affe002acb71653bee1149ceff1917f3923f7",
    "nir_markers.txt": "6ced133b71092ff054379fe81662fccf8e35f5a2bede41e5144ba6d36479aa45",
    "rib.txt": "dc527fb73d476c3d33abb518971b270eefabd02bcd2bd678f43f932600dc7c07",
    "ripe.db.gz": "dba141d2bc972a03e201e87c9dbdcba97911371fdbff0f386ecf38d244638925",
    "vantages.jsonl": "2a81341c3b775f1635e3cdc4ad075d8b7bb363d5be3257c201c697a2adaf495e",
    "world.json": "3ab4068fc113276d649588b192a8c3bbef42a4eebbbb29d2018713e64787edc5",
}

STDOUT = {
    "align": "ed8db34427d0150ccf8a20961070c573832a876e663509844398434bb3eab1c9",
    "audit_live": "760c32fb571b17c98307d73b003e66757bf6cf875286e6ee7a9ddb6f612c5c6e",
    "audit_live_replay": "19f73fabfd71012359e4416e100c44fab0410e7d468e431059393325167df7ef",
    "audit_replay": "f9f60795db35e13337deeeaff0643141559924731d459986d6999a74d825d92d",
    "audit_simulate": "ea1c4aab68dbf329d10ad09926c28423efce79ac699c2e295b1f24f8289d82e8",
    "ingest": "6efda2717743a138f1287424f0c8c5a8eda90817b6f4666d2d190b5a24997c1b",
    "oro": "d3dbeb6cb27af98f234c64607646b3fd1ad0cc880d511987331a02ff254f7e0d",
    "plan": "7873636318d0775cc373ac1b0be6e43b6f2e4aa888f1e3ce4f12c4a7b50b2538",
    "report": "054e5b78d3f1d5e07934f096ad051c67f6dc1b8e128dc80967e99bf89f57ace0",
}

OUTPUTS = {
    "alignment.csv": "867f10fb8d489606fff9c26fc3b12a7289aea48f683521b523a3ec0004b57c41",
    "audit_live.jsonl": "7f548b8d469fab996501dd1dc5edc9133e8bdbed6292c2e1cfc5598713515b57",
    "audit_live_replay.jsonl": "7f548b8d469fab996501dd1dc5edc9133e8bdbed6292c2e1cfc5598713515b57",
    "audit_replay.jsonl": "7f548b8d469fab996501dd1dc5edc9133e8bdbed6292c2e1cfc5598713515b57",
    "audit_simulate.jsonl": "7f548b8d469fab996501dd1dc5edc9133e8bdbed6292c2e1cfc5598713515b57",
    "capture_live.jsonl": "e4ed179b099dfb90f857a97badc2d53a38432812ab65076b4b64a5f614379aff",
    "capture_simulate.jsonl": "e4ed179b099dfb90f857a97badc2d53a38432812ab65076b4b64a5f614379aff",
    "oro.csv": "4c7fad782856dc8fc156e05b033d9ad1fe1a0aa1ab47dcb272d659accd4be91a",
    "plans.jsonl": "eea1a47e7217677b74b1458167d7e5988b0dfe079afb91c94e0f9d838732dd83",
    "registrations.jsonl": "c4ef82a500e924dc2980cf517cbc5b76621bf0cb85deb1eec804e544fd2bb4fb",
    "report/characteristics_age.csv": "d7dd9fde0188019f0e52608627e6b596bced00cbe63a88a80d0b263c41f250a9",
    "report/characteristics_status.csv": "79340311cf770cfb3f7245be8fd84599926e581971b63526f9931bce652dfd05",
    "report/distribution.csv": "8dfb5071b6171ee3ae1b6583a22e8109f8f47273f3c987f8cf954f8ca8e77783",
    "report/geodb.csv": "0648923fa29c25ba29d2e17d89a208195acc5b3abc67ba2dced1ae4de136a1b1",
    "report/leasing.csv": "bb6ea713b9a64a844663c20b9f4b28438dc16e9deab6fe3d42b76cb0da6303a5",
    "report/oro.csv": "4c7fad782856dc8fc156e05b033d9ad1fe1a0aa1ab47dcb272d659accd4be91a",
    "report/sankey.csv": "3b3a5e556d80bff2492acf4fd9053457f01c5860720d548de5711fa538fb76bf",
    "report/summary.txt": "9cf5cdedc648df889b5afd9031c7373d0529815dc87dcafca34775d5bde4ef22",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_pinned(what: str, got: dict[str, str], pinned: dict[str, str]) -> None:
    changed = [f"{name}: sha256 {got.get(name)}, pinned {pinned.get(name)}"
               for name in sorted(got.keys() | pinned.keys()) if got.get(name) != pinned.get(name)]
    assert not changed, f"{what} bytes changed:\n" + "\n".join(changed)


def written(out: Path) -> dict[str, str]:
    """The sha256 of every file below out, by its path relative to out."""
    return {path.relative_to(out).as_posix(): sha256(path.read_bytes())
            for path in out.rglob("*") if path.is_file()}


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """The campaign's files by name, their content checked against INPUTS first."""
    gen = load_geobench("gen")
    camp = gen.build_campaign(SEED, str(Path(geoaudit.__file__).parent / "data"), **SIZES)
    check_pinned("input", {name: sha256(gzip.decompress(data) if name.endswith(".gz") else data)
                           for name, data in camp.files.items()}, INPUTS)
    return camp, gen.write_campaign(camp, str(tmp_path_factory.mktemp("camp")))


def plan_inputs(c: dict[str, str], out: Path) -> list[str]:
    """Plan flags over the campaign at c, with the registrations ingest writes below out."""
    return ["--registrations", str(out / "registrations.jsonl"),
            "--hitlist-v4", c["hitlist_v4.csv"], "--hitlist-v6", c["hitlist_v6.txt"],
            "--aliased-prefixes", c["aliased.txt"], "--seed", str(SEED)]


def audit_argv(c: dict[str, str], out: Path) -> list[str]:
    """An audit of the campaign at c, as plan_inputs, with no backend chosen."""
    return ["audit", *plan_inputs(c, out), "--rib", c["rib.txt"], "--vantages", c["vantages.jsonl"],
            "--bad-probes", c["bad_probes.txt"], "--default-coords", c["default_coords.csv"],
            "--anycast-prefixes", c["anycast.txt"], "--nir-markers", c["nir_markers.txt"],
            "--strict-no-org"]


def commands(c: dict[str, str], out: Path) -> dict[str, list[str]]:
    """Every subcommand over the campaign at c, writing below out, in the order they run."""
    o = lambda name: str(out / name)  # noqa: E731
    regs = o("registrations.jsonl")
    return {
        "ingest": ["ingest", "-o", regs, *(arg for rir in ("arin", "ripe", "apnic", "lacnic", "afrinic")
                                          for arg in (f"--{rir}", c[f"{rir}.db.gz"]))],
        "align": ["align", "--registrations", regs, "--rib", c["rib.txt"], "-o", o("alignment.csv")],
        "oro": ["oro", "--registrations", regs, "-o", o("oro.csv")],
        "plan": ["plan", *plan_inputs(c, out), "-o", o("plans.jsonl")],
        "audit_simulate": [*audit_argv(c, out), "--backend", "simulate", "--world", c["world.json"],
                           "--capture-results", o("capture_simulate.jsonl"),
                           "-o", o("audit_simulate.jsonl")],
        "audit_replay": [*audit_argv(c, out), "--backend", "replay", "--results", o("capture_simulate.jsonl"),
                         "-o", o("audit_replay.jsonl")],
        "report": ["report", "--audit", o("audit_simulate.jsonl"), "--registrations", regs,
                   "--geodb", f"alpha={c['geodb_alpha.csv']}", "--geodb", f"beta={c['geodb_beta.csv']}",
                   "--leased-prefixes", c["leased.txt"], "--out-dir", o("report")],
    }


@pytest.fixture(scope="module")
def golden(campaign, tmp_path_factory):
    """Every command run once over the campaign, then a live audit against a
    loopback API and the replay of its capture: the output directory, and
    what each command printed, the directory spelled OUT."""
    camp, c = campaign
    out = tmp_path_factory.mktemp("out")
    audit = audit_argv(c, out)
    argvs = commands(c, out)
    # the live API answers from the same world, at the audit's seed
    world = SyntheticWorld.from_json(json.loads(camp.files["world.json"]), seed=SEED)
    with open(c["vantages.jsonl"]) as fp:
        api = WorldSession(world, load_vantages(fp))
    stdout = {}
    with LoopbackApi(api) as server:
        argvs["audit_live"] = [*audit, "--backend", "live", "--base-url", server.base_url,
                               "--api-key", "k", "--concurrency", "3",
                               "--capture-results", str(out / "capture_live.jsonl"),
                               "-o", str(out / "audit_live.jsonl")]
        argvs["audit_live_replay"] = [*audit, "--backend", "replay",
                                      "--results", str(out / "capture_live.jsonl"),
                                      "-o", str(out / "audit_live_replay.jsonl")]
        for name, argv in argvs.items():
            held = io.StringIO()
            sys.stdout, real = held, sys.stdout
            try:
                assert cli.main(argv) == 0, name
            finally:
                sys.stdout = real
            stdout[name] = held.getvalue().replace(str(out), "OUT")
    return out, stdout


def test_every_output_keeps_its_pinned_bytes(golden):
    out, _ = golden
    check_pinned("output", written(out), OUTPUTS)


def test_every_command_prints_its_pinned_lines(golden):
    _, stdout = golden
    check_pinned("stdout", {name: sha256(text.encode()) for name, text in stdout.items()}, STDOUT)


class ClosedStdout(io.StringIO):
    """A stdout whose reader is gone, as under `geoaudit ... | head -0`."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def test_a_closed_stdout_costs_no_output(campaign, tmp_path, capsys, monkeypatch):
    """Each command writes every file before it prints: with stdout closed it
    exits 2, naming the broken pipe, and its files are a normal run's."""
    _, c = campaign
    out = tmp_path / "out"
    out.mkdir()
    exits = {}
    for name, argv in commands(c, out).items():
        with monkeypatch.context() as m:
            m.setattr(sys, "stdout", ClosedStdout())
            exits[name] = cli.main(argv), capsys.readouterr().err
    check_pinned("output", written(out),
                 {name: digest for name, digest in OUTPUTS.items() if "live" not in name})
    assert set(exits.values()) == {(2, "geoaudit: [Errno 32] Broken pipe\n")}


# the capture's bytes before its lines lost the constant "timestamp": 0.0
TIMESTAMPED_CAPTURE = "34ce2bcf909d5c664ca42bcc5d545c02e82a3fa60b0d67ae33c4d03f0629956d"


def test_a_capture_with_timestamps_replays_alike(campaign, golden, tmp_path):
    """A capture written by an earlier version, each line also carrying
    "timestamp": 0.0, replays to the pinned audit: the reader ignores the key."""
    _, c = campaign
    out, _ = golden
    old = tmp_path / "capture_timestamped.jsonl"
    old.write_text((out / "capture_simulate.jsonl").read_text().replace(
        '"vantage_id"', '"timestamp": 0.0, "vantage_id"'))
    assert sha256(old.read_bytes()) == TIMESTAMPED_CAPTURE
    replayed = tmp_path / "audit.jsonl"
    assert cli.main([*audit_argv(c, out), "--backend", "replay", "--results", str(old),
                     "-o", str(replayed)]) == 0
    assert sha256(replayed.read_bytes()) == OUTPUTS["audit_replay.jsonl"]


# the flags that name what a command writes; report writes its tables into --out-dir
OUTPUT_FLAGS = ("--capture-results", "-o", "--out-dir")
# every flag that names a file a command reads
INPUT_FLAGS = {"--config", "--dialects", "--arin", "--ripe", "--apnic", "--lacnic", "--afrinic",
               "--registrations", "--plans", "--hitlist-v4", "--hitlist-v6", "--aliased-prefixes",
               "--rib", "--vantages", "--bad-probes", "--default-coords", "--anycast-prefixes",
               "--nir-markers", "--region-map", "--country-points", "--results", "--world",
               "--audit", "--geodb", "--leased-prefixes"}
# input flags the golden commands leave out, each given a file of its own
EXTRA_INPUTS = {"ingest": ["--dialects"], "plan": ["--config"],
                "audit_simulate": ["--config", "--region-map", "--country-points"],
                "audit_replay": ["--plans"], "report": ["--region-map"]}


def input_values(argv: list[str]) -> list[tuple[int, str, str]]:
    """(index, flag, path) for each value of argv that names a file the command reads."""
    out = []
    for i, (flag, value) in enumerate(zip(argv, argv[1:]), 1):
        path = value.partition("=")[2] if flag == "--geodb" else value
        if flag.startswith("-") and flag not in OUTPUT_FLAGS and os.path.isfile(path):
            out.append((i, flag, path))
    return out


def test_no_output_lands_on_an_input_or_another_output(campaign, golden, tmp_path, capsys):
    """Two outputs that resolve to one file, or an output that resolves to an
    input, are refused before anything is read: exit 2 naming both flags,
    nothing printed, and every file as it was. Each input flag of each
    command is tried against each of its outputs, the output spelled through
    a link to the input's directory."""
    _, c = campaign
    out = tmp_path / "out"
    shutil.copytree(golden[0], out)
    assert sorted(path.name for path in (out / "report").iterdir()) == sorted(cli._REPORT_TABLES)
    camp = tmp_path / "camp"
    camp.mkdir()
    c = {name: shutil.copy(path, camp) for name, path in c.items()}
    tables = tmp_path / "tables"
    tables.mkdir()
    (tmp_path / "link").symlink_to(tmp_path)
    link = lambda path: str(tmp_path / "link" / Path(path).relative_to(tmp_path))  # noqa: E731

    def refused(argv: list[str], first: str, second: str, path: str) -> None:
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr() == ("", f"geoaudit: {first} and {second} name one file: {path}\n")

    argvs = commands(c, out)
    for name, flags in EXTRA_INPUTS.items():
        for flag in flags:
            extra = tmp_path / f"{name}{flag}"
            extra.write_text("x\n")
            argvs[name] += [flag, str(extra)]
    before = written(tmp_path)
    tried = set()
    for name, argv in argvs.items():
        for i, flag, path in input_values(argv):
            tried.add(flag)
            if name == "report":  # an input that is one of the tables
                for table in cli._REPORT_TABLES:
                    shutil.copy(path, tables / table)
                    moved = argv[i].replace(path, str(tables / table))
                    refused([*argv[:i], moved, *argv[i + 1:], "--out-dir", link(tables)],
                            "--out-dir", flag, str(tables / table))
                    os.remove(tables / table)
                continue
            for output in ("--capture-results", "-o"):
                if output in argv:
                    at = argv.index(output) + 1
                    refused([*argv[:at], link(path), *argv[at + 1:]],
                            "--output" if output == "-o" else output, flag, path)
        if "--capture-results" in argv:
            at = argv.index("-o") + 1
            capture = argv[argv.index("--capture-results") + 1]
            refused([*argv[:at], link(capture), *argv[at + 1:]],
                    "--capture-results", "--output", link(capture))
    assert written(tmp_path) == before
    assert tried == INPUT_FLAGS
