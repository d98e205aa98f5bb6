"""timed.py runs a module or a script between two speed probes and keeps
the command's exit code."""

import json
import os
import subprocess
import sys
from pathlib import Path

import timed

BENCH = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))


def _probes(path):
    probes = json.loads(path.read_text())
    for key in ("before_s", "after_s"):
        assert len(probes[key]) == timed.PROBE_REPEATS and min(probes[key]) > 0
    return probes


def test_module_exit_code_passes_through(tmp_path):
    out = tmp_path / "probe.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "timed.py"), str(out), "-m", "geoaudit.cli",
         "oro", "--registrations", str(tmp_path / "missing.jsonl")],
        env=ENV, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "missing.jsonl" in proc.stderr
    _probes(out)


def test_script_runs_as_main_with_its_arguments(tmp_path):
    script = tmp_path / "hello.py"
    script.write_text("import sys\nif __name__ == '__main__':\n    print(sys.argv[1:])\n")
    out = tmp_path / "probe.json"
    proc = subprocess.run([sys.executable, str(BENCH / "timed.py"), str(out), str(script), "a", "b"],
                          env=ENV, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "['a', 'b']"
    _probes(out)


def test_child_scales_its_own_and_the_stubs_cpu_time():
    import run

    slow = 2.5 * run.PROBE_REF_S  # a CPU 2.5 times slower than the reference
    before, after = [slow] * 3, [slow, slow, 9.0 * slow]  # one probe was preempted
    spent = sum(before) + sum(after)
    child = run.Child(returncode=0, wall_s=10 + spent, maxrss_mb=30.0, cpu_s=4 + spent,
                      stdout="", stderr="", probe_before=before, probe_after=after,
                      probe_during=[slow, 0.5 * slow, slow])
    assert abs(child.scale - 1 / 2.5) < 1e-9
    assert abs(child.work_s - (4 / 2.5 + 6)) < 1e-9
    assert abs(child.work_cpu_s - 4 / 2.5) < 1e-9
    child.stub_cpu_s = 3.0
    assert abs(child.work_s - (7 / 2.5 + 3)) < 1e-9
    assert abs(child.work_cpu_s - 4 / 2.5) < 1e-9
