"""Run one command between two speed probes taken in the same process.

    python3 geobench/timed.py <probe.json> -m geoaudit.cli <args...>
    python3 geobench/timed.py <probe.json> <script.py> <args...>

The 2-vCPU VM this benchmark was tuned on switches between two CPU speed
states, about 1.5 times apart, that last from a second to tens of seconds,
so raw times of identical runs differ by up to half.
A fixed pure-Python loop (the probe), timed PROBE_REPEATS times right before
and right after the command on the CPU the command runs on, says which state
it met; run.py adds probes of its own taken while the command runs and
scales the command's time by them.  The probe times go to <probe.json>; the
exit code is the command's.
"""

import json
import os
import runpy
import sys
import time

PROBE_ITERATIONS = 15_000  # about a millisecond
PROBE_REPEATS = 20


def probe() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i
    return time.perf_counter() - start


def probes() -> list[float]:
    return [probe() for _ in range(PROBE_REPEATS)]


def main(argv):
    out, target, *rest = argv
    before = probes()
    try:
        if target == "-m":
            sys.argv = rest
            sys.path[0] = os.getcwd()  # what `python -m` puts first
            runpy.run_module(rest[0], run_name="__main__", alter_sys=True)
        else:
            sys.argv = [target, *rest]
            runpy.run_path(target, run_name="__main__")
    finally:  # SystemExit carries the command's exit code through here
        after = probes()
        with open(out, "w", encoding="utf-8") as fp:
            json.dump({"before_s": before, "after_s": after}, fp)


if __name__ == "__main__":
    main(sys.argv[1:])
