"""Seeded junk for every loader the command line reads an input with.

Each junk input either loads or raises GeoAuditError naming its file;
nothing else leaves cli._read. The loaders are the ones the commands really
pass to _read, recorded from one run of each command, and every junk input
is a mutation of the first lines of the file that loader read: random
bytes, a cut or a splice, a CSV row short of a field, a JSON value of the
wrong shape, or the same bytes gzipped and then cut or corrupted. The junk
is served from memory, opened as registry.open_text opens a file with the
errors handler the command gave _read (strict, but for a WHOIS dump), so
each of the many inputs costs no file system round trip.
"""

import gzip
import io
import json
import random
from importlib import resources

import pytest

from geoaudit import cli
from geoaudit.bgp import Rib
from geoaudit.errors import GeoAuditError
from geoaudit.registry import RegionMap, parse_prefix

from conftest import audit_argv, build_campaign, write_campaign

ARIN_DUMP = """\
NetRange:       192.0.2.0 - 192.0.2.255
NetType:        Direct Allocation
OrgID:          EX-1
Updated:        2020-05-04

OrgID:          EX-1
OrgName:        Example Networks
Country:        US

NetRange:       10.0.0.0/30
NetType:        Reassignment
OrgID:          EX-2
Updated:        2018-02-02T10:00:00Z
"""

EXTRA_FILES = {
    "arin.txt": ARIN_DUMP,
    "geoaudit.ini": "[geoaudit]\nmin_score = 99\n",
    "bad_probes.txt": "p-us\n# retired\n",
    "default_coords.csv": "country,lat,lon\nUS,38.0,-97.0\n",
    "anycast.txt": "10.99.0.0/16\n",
    "aliased.txt": "10.98.0.0/16\n",
    "nir_markers.txt": "JPNIC\n",
    "leased.txt": "10.10.0.0/24\n",
    "geodb.csv": "prefix,country\n10.10.0.0/24,US\n2001:db8::/32,DE\n",
}

# the inputs a run of every command reads, each named by its file
INPUTS = sorted(["arin.txt", "dialects.ini", "geoaudit.ini", "registrations.jsonl", "rib.txt",
                 "hitlist_v4.csv", "hitlist_v6.txt", "aliased.txt", "plans.jsonl",
                 "vantages.jsonl", "bad_probes.txt", "default_coords.csv", "anycast.txt",
                 "nir_markers.txt", "region_map.csv", "country_points.csv", "world.json",
                 "capture.jsonl", "audit.jsonl", "geodb.csv", "leased.txt"])
JUNK_PER_LOADER = 2000
SAMPLE_LINES = 6  # of each input, the lines its junk is made from


@pytest.fixture(scope="module")
def loaders(tmp_path_factory):
    """Input name -> (the file that input was read from, the loader and the
    decoding errors handler _read got)."""
    tmp = tmp_path_factory.mktemp("loaders")
    paths = write_campaign(tmp, build_campaign(fc_per_region=1, planted_per_class=1,
                                               v6_fc_per_region=1))
    for name, text in EXTRA_FILES.items():
        (tmp / name).write_text(text)
        paths[name] = str(tmp / name)
    dialects = resources.files("geoaudit.data").joinpath("dialects.ini").read_text()
    (tmp / "dialects.ini").write_text(dialects)
    paths["dialects.ini"] = str(tmp / "dialects.ini")
    for name in ("plans.jsonl", "capture.jsonl", "audit.jsonl"):
        paths[name] = str(tmp / name)

    audit_inputs = [
        "--config", paths["geoaudit.ini"], "--bad-probes", paths["bad_probes.txt"],
        "--default-coords", paths["default_coords.csv"],
        "--anycast-prefixes", paths["anycast.txt"], "--nir-markers", paths["nir_markers.txt"]]
    commands = [
        ["ingest", "--arin", paths["arin.txt"], "--dialects", paths["dialects.ini"],
         "-o", str(tmp / "ingested.jsonl")],
        ["plan", "--registrations", paths["registrations.jsonl"],
         "--hitlist-v4", paths["hitlist_v4.csv"], "--hitlist-v6", paths["hitlist_v6.txt"],
         "--aliased-prefixes", paths["aliased.txt"], "-o", paths["plans.jsonl"]],
        audit_argv(paths, paths["audit.jsonl"], plans=paths["plans.jsonl"],
                   extra=audit_inputs + ["--capture-results", paths["capture.jsonl"]]),
        audit_argv(paths, paths["audit.jsonl"], backend="replay",
                   extra=audit_inputs + ["--results", paths["capture.jsonl"]]),
        ["report", "--audit", paths["audit.jsonl"], "--registrations", paths["registrations.jsonl"],
         "--geodb", f"alpha={paths['geodb.csv']}", "--leased-prefixes", paths["leased.txt"],
         "--region-map", paths["region_map.csv"], "--out-dir", str(tmp / "report")],
    ]
    names = {path: name for name, path in paths.items()}
    seen = {}
    real_read = cli._read

    def recording_read(path, loader, errors="strict"):
        seen.setdefault(names[path], (path, loader, errors))
        return real_read(path, loader, errors)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_read", recording_read)
        for argv in commands:
            assert cli.main(argv) == 0, argv
    assert sorted(seen) == INPUTS
    return seen


def junk_json(rng, depth=0):
    """A random JSON value: of every type, some strings with a lone surrogate."""
    kind = rng.randrange(9 if depth < 3 else 6)
    if kind == 0:
        return None
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        return rng.choice([0, -1, 5, 2 ** 70, 10 ** 30])
    if kind == 3:
        return rng.choice([0.5, -200.0, 1e308, float("nan"), float("inf")])
    if kind in (4, 5):
        return rng.choice(["", "x", "12", "true", "US", "ARIN", "192.0.2.1", "10.0.0.0/8",
                           "2021-13-45", "2021-02-03", "p-\ud800", "assigned", "FC"])
    if kind in (6, 7):
        return [junk_json(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {rng.choice(["id", "prefix", "targets", "rtts_ms", "a"]): junk_json(rng, depth + 1)
            for _ in range(rng.randrange(3))}


def reshape(rng, value):
    """value with one of its parts, or all of it, replaced or removed."""
    if isinstance(value, dict) and value and rng.random() < 0.8:
        key = rng.choice(sorted(value))
        if rng.random() < 0.2:
            return {k: v for k, v in value.items() if k != key}
        return {**value, key: reshape(rng, value[key])}
    if isinstance(value, list) and value and rng.random() < 0.7:
        i = rng.randrange(len(value))
        return value[:i] + [reshape(rng, value[i])] + value[i + 1:]
    return junk_json(rng)


def mutate(rng, good: bytes) -> bytes:
    lines = good.splitlines(keepends=True)
    how = rng.randrange(8)
    if how == 0:
        return rng.randbytes(rng.randrange(48))
    if how == 1:
        return good[:rng.randrange(len(good) + 1)]
    if how == 2:
        at = rng.randrange(len(good) + 1)
        noise = bytes(rng.choice(b',"#[]{}:\n\r\\ 0.-/eE\x00\xff') for _ in range(rng.randrange(1, 6)))
        return good[:at] + noise + good[at + rng.randrange(4):]
    if how == 3:  # a row short of a field, or with one more
        i = rng.randrange(len(lines))
        fields = lines[i].rstrip(b"\r\n").split(b",")
        if rng.random() < 0.8:
            del fields[rng.randrange(len(fields))]
        else:
            fields.append(b"x")
        return b"".join(lines[:i] + [b",".join(fields) + b"\n"] + lines[i + 1:])
    if how == 4:  # a JSON line, or the whole document, reshaped
        i = rng.randrange(len(lines))
        try:
            value = json.loads(lines[i])
        except ValueError:
            value = None
        lines[i] = json.dumps(reshape(rng, value)).encode() + b"\n"
        return b"".join(lines)
    if how == 5:
        return rng.choice([b"[" * 5000, b'{"a": ' * 5000, b"\xef\xbb\xbf" + good])
    packed = gzip.compress(mutate(rng, good) if how == 6 else good, compresslevel=1, mtime=0)
    if rng.random() < 0.5:
        return packed[:rng.randrange(len(packed))]
    at = rng.randrange(2, len(packed))
    return packed[:at] + rng.randbytes(rng.randrange(1, 8)) + packed[at + 1:]


@pytest.mark.parametrize("name", INPUTS)
def test_junk_input_loads_or_is_refused_naming_its_file(loaders, monkeypatch, name):
    path, loader, errors = loaders[name]
    with open(path, "rb") as fp:
        good = b"".join(fp.readlines()[:SAMPLE_LINES])
    data = b""

    def open_junk(path, errors):
        raw = io.BytesIO(data)
        raw.name = path  # configparser names its errors after the file
        if data[:2] == b"\x1f\x8b":
            raw = gzip.GzipFile(path, fileobj=raw)
        return io.TextIOWrapper(raw, encoding="utf-8-sig", errors=errors)

    monkeypatch.setattr(cli, "open_text", open_junk)
    rng = random.Random(f"junk:{name}")
    refused = 0
    for _ in range(JUNK_PER_LOADER):
        data = mutate(rng, good)
        try:
            cli._read(path, loader, errors)
        except GeoAuditError as exc:
            assert str(exc).startswith(f"{path}: "), (data, exc)
            refused += 1
        except BaseException as exc:
            raise AssertionError(f"{name}: {data!r} raised {exc!r}") from exc
    assert refused > JUNK_PER_LOADER // 10  # the junk reaches the refusals


# each line-based input: whether it is a CSV, and a value its loader refuses
# with the refusal's text, or None where every token is a value
LINE_INPUTS = {
    "hitlist_v4.csv": (True, "2001:db8::1,100", "2001:db8::1 is not an IPv4 address"),
    "default_coords.csv": (True, "US,91,0", "lat: 91.0 is not in [-90, 90]"),
    "country_points.csv": (True, "US,0,181", "lon: 181.0 is not in [-180, 180]"),
    "region_map.csv": (True, "ZZ,NOWHERE", "'NOWHERE' is not a valid Rir"),
    "geodb.csv": (True, "10.1.0.0/15,US", "bad prefix '10.1.0.0/15': 10.1.0.0/15 has host bits set"),
    "hitlist_v6.txt": (False, "192.0.2.1", "192.0.2.1 is not an IPv6 address"),
    "aliased.txt": (False, "10.1.0.0/15", "bad prefix '10.1.0.0/15': 10.1.0.0/15 has host bits set"),
    "anycast.txt": (False, "10.1.0.0/15", "bad prefix '10.1.0.0/15': 10.1.0.0/15 has host bits set"),
    "leased.txt": (False, "10.1.0.0/15", "bad prefix '10.1.0.0/15': 10.1.0.0/15 has host bits set"),
    "rib.txt": (False, "10.0.0.0/8", "expected '<prefix> <origin_asn>', got '10.0.0.0/8'"),
    "bad_probes.txt": (False, None, None),
    "nir_markers.txt": (False, None, None),
}
BLANKS = ["", "   ", "\t"]
COMMENTS = ["#", "# a note", "  # indented", "#,1,2", "#10.0.0.0/8 64500"]


def comparable(value):
    """value as == compares it by content: a region map as its mapping, a
    RIB as its routes of each family and its dropped default routes."""
    if isinstance(value, RegionMap):
        return {cc: value.get(cc) for cc in value}
    if isinstance(value, Rib):
        return ([value.routes.contained(parse_prefix(p)) for p in ("0.0.0.0/0", "::/0")],
                value.default_routes_dropped)
    return value


def test_every_line_input_skips_comments_and_blanks_and_names_a_refused_line(loaders, monkeypatch):
    """# lines and blank lines anywhere, in a CSV above its header too, load
    the value the clean file loads; in a list or a RIB, so does # to the end
    of a line. A value the loader refuses on line k is refused as line k."""
    assert sorted(LINE_INPUTS) == sorted(name for name in INPUTS
                                         if name.endswith((".csv", ".txt")) and name != "arin.txt")
    data = ""
    monkeypatch.setattr(cli, "open_text", lambda path, errors: io.StringIO(data))
    rng = random.Random(41)
    for name, (is_csv, bad, refusal) in LINE_INPUTS.items():
        path, loader, _ = loaders[name]
        with open(path, encoding="utf-8") as fp:
            clean = fp.read().splitlines()
        data = "\n".join(clean) + "\n"
        want = comparable(cli._read(path, loader))
        for _ in range(40):
            lines = [line if is_csv or rng.random() < 0.5 else f"{line}  {rng.choice(COMMENTS)}"
                     for line in clean]
            for _ in range(rng.randint(1, 6)):
                lines.insert(rng.randint(0, len(lines)), rng.choice(BLANKS + COMMENTS))
            data = "\n".join(lines) + "\n"
            assert comparable(cli._read(path, loader)) == want, (name, data)
            if bad is None:
                continue
            first = lines.index(clean[0]) + 1 if is_csv else 0  # a refused value comes after the header
            at = rng.randint(first, len(lines))
            lines.insert(at, bad if is_csv else f"{bad} {rng.choice(['', '# a note'])}")
            data = "\n".join(lines) + "\n"
            with pytest.raises(GeoAuditError) as exc:
                cli._read(path, loader)
            assert str(exc.value) == f"{path}: line {at + 1}: {refusal}", (name, data)
