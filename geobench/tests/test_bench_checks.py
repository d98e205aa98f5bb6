"""Each check passes on real geoaudit output and rejects a corrupted copy."""

import contextlib
import io
import json
import os
import shutil

import pytest

import checks
import gen
from geoaudit import cli

DATA = os.path.join(os.path.dirname(gen.__file__), os.pardir, "src", "geoaudit", "data")


def _cli(argv):
    """Run the CLI in-process; returns what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main([str(a) for a in argv]) == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    camp_dir = tmp_path_factory.mktemp("camp")
    camp = gen.build_campaign(11, DATA, n_bulk=60, n_audit=24)
    paths = gen.write_campaign(camp, str(camp_dir))
    out = {"expected": camp.expected, "dir": camp_dir}
    regs = camp_dir / "registrations.jsonl"
    argv = ["ingest"]
    for rir in gen.RIRS:
        argv += [f"--{rir.lower()}", paths[f"{rir.lower()}.db.gz"]]
    out["ingest"] = _cli(argv + ["-o", regs])
    out["align"] = _cli(["align", "--registrations", regs, "--rib", paths["rib.txt"],
                         "-o", camp_dir / "alignment.csv"])
    _cli(["oro", "--registrations", regs, "-o", camp_dir / "oro.csv"])
    out["audit"] = _cli([
        "audit", "--registrations", regs, "--hitlist-v4", paths["hitlist_v4.csv"],
        "--hitlist-v6", paths["hitlist_v6.txt"], "--aliased-prefixes", paths["aliased.txt"],
        "--rib", paths["rib.txt"], "--vantages", paths["vantages.jsonl"],
        "--bad-probes", paths["bad_probes.txt"], "--default-coords", paths["default_coords.csv"],
        "--anycast-prefixes", paths["anycast.txt"], "--nir-markers", paths["nir_markers.txt"],
        "--strict-no-org", "--seed", "11", "--backend", "simulate", "--world", paths["world.json"],
        "-o", camp_dir / "audit.jsonl"])
    _cli(["report", "--audit", camp_dir / "audit.jsonl", "--out-dir", camp_dir / "report"])
    return out


def _copy(outputs, name, tmp_path):
    dst = tmp_path / name
    shutil.copy(outputs["dir"] / name, dst)
    return dst


def _edit_lines(path, edit):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lines)))


def test_real_outputs_pass(outputs):
    exp, d = outputs["expected"], outputs["dir"]
    assert checks.check_ingest_report(outputs["ingest"], exp) == []
    assert checks.check_registrations(str(d / "registrations.jsonl"), exp) == []
    assert checks.check_align(outputs["align"], str(d / "alignment.csv"), exp) == []
    assert checks.check_oro(str(d / "oro.csv"), exp) == []
    assert checks.check_audit(str(d / "audit.jsonl"), exp, outputs["audit"]) == []
    assert checks.check_report(str(d / "report"), exp) == []


def test_flipped_class_is_rejected(outputs, tmp_path):
    path = _copy(outputs, "audit.jsonl", tmp_path)

    def flip(lines):
        for i, line in enumerate(lines):
            rec = json.loads(line)
            if rec["class"] == "FC":
                rec["class"] = "RI"
                lines[i] = json.dumps(rec, sort_keys=True) + "\n"
                return lines
        raise AssertionError("no FC record")

    _edit_lines(path, flip)
    assert checks.check_audit(str(path), outputs["expected"])


def test_unsound_region_is_rejected(outputs, tmp_path):
    path = _copy(outputs, "audit.jsonl", tmp_path)

    def shrink(lines):
        for i, line in enumerate(lines):
            rec = json.loads(line)
            if rec["class"] and outputs["expected"]["plans"][rec["prefix"]]["expect"] == "classified":
                rec["rir_geo"] = []
                lines[i] = json.dumps(rec, sort_keys=True) + "\n"
                return lines
        raise AssertionError("no wanderer record")

    _edit_lines(path, shrink)
    assert any("unsound" in p for p in checks.check_audit(str(path), outputs["expected"]))


def test_dropped_line_is_rejected(outputs, tmp_path):
    exp = outputs["expected"]
    audit = _copy(outputs, "audit.jsonl", tmp_path)
    _edit_lines(audit, lambda lines: lines[1:])
    assert checks.check_audit(str(audit), exp)
    regs = _copy(outputs, "registrations.jsonl", tmp_path)
    _edit_lines(regs, lambda lines: lines[:-1])
    assert checks.check_registrations(str(regs), exp)


def test_wrong_counts_are_rejected(outputs, tmp_path):
    exp = outputs["expected"]
    assert checks.check_ingest_report(outputs["ingest"].replace("dups=3", "dups=4", 1), exp)
    assert checks.check_audit(str(outputs["dir"] / "audit.jsonl"), exp,
                              outputs["audit"].replace("classified=", "classified=1", 1))
    regs = _copy(outputs, "registrations.jsonl", tmp_path)
    _edit_lines(regs, lambda lines: [lines[0].replace('"rir": "', '"rir": "X', 1)] + lines[1:])
    assert checks.check_registrations(str(regs), exp)
    align = _copy(outputs, "alignment.csv", tmp_path)
    _edit_lines(align, lambda lines: lines[:1] + [lines[1].replace(",0.", ",1.", 1)] + lines[2:])
    assert checks.check_align(outputs["align"], str(align), exp)
    oro = _copy(outputs, "oro.csv", tmp_path)

    def add_prefix(lines):
        cells = lines[1].split(",")
        cells[2] = str(int(cells[2]) + 1)
        return lines[:1] + [",".join(cells)] + lines[2:]

    _edit_lines(oro, add_prefix)
    assert checks.check_oro(str(oro), exp)


def test_flipped_byte_is_rejected(outputs, tmp_path):
    path = _copy(outputs, "audit.jsonl", tmp_path)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    original = str(outputs["dir"] / "audit.jsonl")
    assert checks.check_identical([original, original]) == []
    assert checks.check_identical([original, str(path)])


def test_api_check_accepts_any_request_pattern(tmp_path):
    rows = [{"vantage_id": v, "target": t, "rtts_ms": [], "timestamp": 0.0}
            for t in ("192.0.2.1", "2001:db8::1") for v in ("a", "b")]
    capture = tmp_path / "capture.jsonl"
    capture.write_text("".join(json.dumps(r) + "\n" for r in rows))
    answered = {(r["vantage_id"], r["target"]) for r in rows}
    # counts of POST and GET do not enter: one batched POST per target passes
    assert checks.check_api(str(capture), answered, rejected=0) == []
    assert checks.check_api(str(capture), answered | {("c", "192.0.2.9")}, rejected=0) == []
    assert checks.check_api(str(capture), answered - {("b", "2001:db8::1")}, rejected=0)
    assert checks.check_api(str(capture), answered, rejected=1)
