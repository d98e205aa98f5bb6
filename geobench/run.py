"""geoaudit benchmark.

    python3 geobench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is taken from ``src/`` of
the same checkout and nothing needs building.  Inputs are generated from the
seed under ``.geobench_work/<workload>/`` in the checkout, which the next run
of the same workload replaces.

With ``--trace 0`` the workload's geoaudit commands run in child processes,
one at a time, again and again for S seconds; the last stdout line is a JSON
object with the end-to-end metrics (medians over the repetitions).  Each
child runs under timed.py, whose speed probes turn its times into seconds of
a reference CPU state.  With
``--trace 1`` the same commands run once as children, and then an in-process
replica of the whole pipeline (pipeline.py) runs with spans on and off for S
seconds; the JSON object carries the per-layer metrics.  Every output is
checked against the generator's planted expectations; a failed check fails
its operation and makes ``correct`` false.  See NOTES.md for the workloads,
the metrics and what each layer metric is expected to move.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
import timed  # noqa: E402

RIR_FLAGS = [r.lower() for r in gen.RIRS]
WORKLOADS = {
    # n_bulk: registrations no hitlist reaches; n_audit: planted audit rows
    "registry": {"n_bulk": 4000, "n_audit": 24},
    "audit_sim": {"n_bulk": 200, "n_audit": 2000},
    "audit_live": {"n_bulk": 200, "n_audit": 32},
}
MIN_SETUP_SAMPLES = 7
LIVE_LIMIT = 12  # prefixes the in-process live pass measures, except on audit_live
API_KEY = "geobench-key"
STUB_DELAY_S = 0.001
CHILD_TIMEOUT_S = 150
PROBE_REF_S = 0.00105  # timed.probe() in the faster CPU state of the reference VM
PROBE_EVERY_S = 0.2  # while a child runs
REPORT_FILES = ("distribution.csv", "summary.txt", "sankey.csv", "oro.csv",
                "characteristics_status.csv", "characteristics_age.csv", "geodb.csv", "leasing.csv")


@dataclass
class Child:
    returncode: int
    wall_s: float
    maxrss_mb: float
    cpu_s: float
    stdout: str
    stderr: str
    probe_before: list[float]  # timed.py's speed probes, see there
    probe_after: list[float]
    probe_during: list[float]  # this process's probes while the child ran
    stub_cpu_s: float = 0.0  # CPU the stub thread spent serving this child

    @property
    def probes_s(self) -> float:
        """Wall and CPU time timed.py spent probing."""
        return sum(self.probe_before) + sum(self.probe_after)

    @property
    def scale(self) -> float:
        """Factor that turns this child's seconds into seconds of the CPU
        state whose probe takes PROBE_REF_S. The state is the median of the
        probes taken before, while and after it ran, so a child that runs
        for seconds is judged by its whole run."""
        probe = statistics.median([statistics.median(self.probe_before),
                                   statistics.median(self.probe_after), *self.probe_during])
        return PROBE_REF_S / probe

    @property
    def work_s(self) -> float:
        """Wall time without the probes. Only the part spent on the CPU, by
        the child or by the stub serving it, is scaled; the rest, such as
        the stub's response delay, is not."""
        wall = self.wall_s - self.probes_s
        on_cpu = min(wall, self.cpu_s - self.probes_s + self.stub_cpu_s)
        return on_cpu * self.scale + (wall - on_cpu)

    @property
    def work_cpu_s(self) -> float:
        """CPU time without the probes (which are all CPU), scaled."""
        return (self.cpu_s - self.probes_s) * self.scale


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if "proxy" not in k.lower()}
    env["PYTHONPATH"] = str(SRC)
    env["NO_PROXY"] = "127.0.0.1,localhost"
    return env


def spawn(args: list[str], log: Path) -> tuple[Child, float]:
    """Run `python timed.py ... args` to completion; rusage comes from
    os.wait4 on its pid. Returns the child and the monotonic time it was
    spawned."""
    argv = [sys.executable, str(HERE / "timed.py"), f"{log}.probe", *args]
    with open(f"{log}.out", "w") as out, open(f"{log}.err", "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        during = []
        pidfd = os.pidfd_open(proc.pid)
        try:
            # the child shares this process's CPU, so a probe here measures its CPU
            while not select.select([pidfd], [], [], PROBE_EVERY_S)[0]:
                during.append(timed.probe())
                if time.monotonic() - start > CHILD_TIMEOUT_S:
                    proc.kill()
        finally:
            os.close(pidfd)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.monotonic() - start
    try:
        probes = json.loads(Path(f"{log}.probe").read_text())
    except FileNotFoundError:  # killed before it could write; the exit code says so
        probes = {"before_s": [PROBE_REF_S], "after_s": [PROBE_REF_S]}
    child = Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime,
                  Path(f"{log}.out").read_text(), Path(f"{log}.err").read_text(),
                  probes["before_s"], probes["after_s"], during)
    return child, start


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = ROOT / ".geobench_work" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.camp = self.work / "camp"
        self.logs = self.work / "logs"
        self.logs.mkdir(parents=True)
        sizes = WORKLOADS[workload]
        camp = gen.build_campaign(seed, str(SRC / "geoaudit" / "data"), **sizes)
        gen.write_campaign(camp, str(self.camp))
        self.expected = camp.expected
        self.vantages = [json.loads(line) for line in camp.files["vantages.jsonl"].splitlines()]
        self.world = json.loads(camp.files["world.json"])
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.n_children = 0
        self.stub = None

    # -- operations --------------------------------------------------------
    def fail(self, label: str, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]

    def cli(self, label: str, *args) -> Child:
        self.n_children += 1
        child, _ = spawn(["-m", "geoaudit.cli", *map(str, args)],
                         self.logs / f"{self.n_children:04d}-{label}")
        self.attempted += 1
        return child

    def p(self, *parts) -> str:
        return str(self.work.joinpath(*parts))

    def audit_args(self, backend, regs, out, capture=None, results=None):
        c = self.camp
        args = ["audit", "--registrations", regs, "--hitlist-v4", c / "hitlist_v4.csv",
                "--hitlist-v6", c / "hitlist_v6.txt", "--aliased-prefixes", c / "aliased.txt",
                "--rib", c / "rib.txt", "--vantages", c / "vantages.jsonl",
                "--bad-probes", c / "bad_probes.txt", "--default-coords", c / "default_coords.csv",
                "--anycast-prefixes", c / "anycast.txt", "--nir-markers", c / "nir_markers.txt",
                "--strict-no-org", "--seed", self.seed, "--backend", backend, "-o", out]
        if backend == "simulate":
            args += ["--world", c / "world.json"]
        elif backend == "replay":
            args += ["--results", results]
        else:
            args += ["--base-url", self.stub.base_url, "--api-key", API_KEY]
        if capture:
            args += ["--capture-results", capture]
        return args

    def ingest_args(self, out):
        args = ["ingest"]
        for rir in RIR_FLAGS:
            args += [f"--{rir}", self.camp / f"{rir}.db.gz"]
        return args + ["-o", out]

    def report_args(self, audit_path, regs, out_dir):
        c = self.camp
        return ["report", "--audit", audit_path, "--registrations", regs,
                "--geodb", f"alpha={c / 'geodb_alpha.csv'}", "--geodb", f"beta={c / 'geodb_beta.csv'}",
                "--leased-prefixes", c / "leased.txt", "--out-dir", out_dir]

    @property
    def regs_in(self) -> str:
        """registrations.jsonl the audit workloads read (made by prepare())."""
        return str(self.camp / "registrations.jsonl")

    def prepare(self) -> None:
        """Ingest once for the audits and the set-up probe; for audit_sim also
        capture once, so the probe has results to load."""
        child = self.cli("prep-ingest", *self.ingest_args(self.regs_in))
        self.fail("prep-ingest", self.exit_problems(child) or
                  checks.check_registrations(self.regs_in, self.expected))
        if self.workload == "audit_sim":
            child = self.cli("prep-capture", *self.audit_args(
                "simulate", self.regs_in, self.p("camp", "prep_audit.jsonl"),
                capture=self.p("camp", "prep_capture.jsonl")))
            self.fail("prep-capture", self.exit_problems(child))

    @staticmethod
    def exit_problems(child: Child) -> list[str]:
        if child.returncode == 0:
            return []
        return [f"exit {child.returncode}: {child.stderr.strip()[-300:]}"]

    # -- one repetition of the workload's commands ---------------------------
    def iteration(self, first: bool) -> dict:
        """Run the workload's commands back to back, then check them. Returns
        wall, items, peak RSS and CPU of the repetition."""
        out = self.work / "cli"
        out.mkdir(exist_ok=True)
        o = lambda name: str(out / name)  # noqa: E731
        ops = []  # (label, child, outputs, checker)
        exp = self.expected
        start = time.monotonic()
        api = None
        if self.workload == "registry":
            regs = o("registrations.jsonl")
            ing = self.cli("ingest", *self.ingest_args(regs))
            al = self.cli("align", "align", "--registrations", regs, "--rib", self.camp / "rib.txt",
                          "-o", o("alignment.csv"))
            oro = self.cli("oro", "oro", "--registrations", regs, "-o", o("oro.csv"))
            ops = [
                ("ingest", ing, [regs], lambda: checks.check_ingest_report(ing.stdout, exp)
                 + checks.check_registrations(regs, exp)),
                ("align", al, [o("alignment.csv")],
                 lambda: checks.check_align(al.stdout, o("alignment.csv"), exp)),
                ("oro", oro, [o("oro.csv")], lambda: checks.check_oro(o("oro.csv"), exp)),
            ]
            items = exp["net_records"]
        elif self.workload == "audit_sim":
            sim = self.cli("audit-simulate", *self.audit_args(
                "simulate", self.regs_in, o("audit_simulate.jsonl"),
                capture=o("capture_simulate.jsonl")))
            rep = self.cli("audit-replay", *self.audit_args(
                "replay", self.regs_in, o("audit_replay.jsonl"), results=o("capture_simulate.jsonl")))
            rpt = self.cli("report", *self.report_args(o("audit_simulate.jsonl"), self.regs_in,
                                                        o("report")))
            report_files = [o(f"report/{n}") for n in REPORT_FILES]
            ops = [
                ("audit-simulate", sim, [o("audit_simulate.jsonl"), o("capture_simulate.jsonl")],
                 lambda: checks.check_audit(o("audit_simulate.jsonl"), exp, sim.stdout)),
                ("audit-replay", rep, [o("audit_replay.jsonl")],
                 lambda: checks.check_identical([o("audit_simulate.jsonl"), o("audit_replay.jsonl")])),
                ("report", rpt, report_files, lambda: checks.check_report(o("report"), exp)),
            ]
            items = len(exp["plans"])
        else:
            self.stub.counters.reset()
            stub_cpu = self.stub.cpu_s()
            live = self.cli("audit-live", *self.audit_args(
                "live", self.regs_in, o("audit_live.jsonl"), capture=o("capture_live.jsonl")))
            api = vars(self.stub.counters).copy()
            # the response delay is wall time of a fixed length, not work to scale
            live.stub_cpu_s = self.stub.cpu_s() - stub_cpu - api["held_s"]
            rep = self.cli("audit-replay", *self.audit_args(
                "replay", self.regs_in, o("audit_replay.jsonl"), results=o("capture_live.jsonl")))
            sim = self.cli("audit-simulate", *self.audit_args(
                "simulate", self.regs_in, o("audit_simulate.jsonl")))
            ops = [
                ("audit-live", live, [o("audit_live.jsonl"), o("capture_live.jsonl")],
                 lambda: checks.check_audit(o("audit_live.jsonl"), exp, live.stdout)
                 + checks.check_api(o("capture_live.jsonl"), api["answered"], api["rejected"])),
                ("audit-replay", rep, [o("audit_replay.jsonl")],
                 lambda: checks.check_identical([o("audit_live.jsonl"), o("audit_replay.jsonl")])),
                ("audit-simulate", sim, [o("audit_simulate.jsonl")],
                 lambda: checks.check_identical([o("audit_live.jsonl"), o("audit_simulate.jsonl")])),
            ]
            items = len(exp["plans"])
            self.attempted += api["posts"] + api["gets"]
            self.failed += api["rejected"]
        wall = time.monotonic() - start

        for label, child, outputs, checker in ops:
            problems = self.exit_problems(child)
            if not problems and first:
                problems = checker()
                for path in outputs:
                    self.digests[os.path.relpath(path, self.work)] = checks.sha256(path)
            elif not problems:
                problems = [f"{path} changed between repetitions" for path in outputs
                            if checks.sha256(path) != self.digests[os.path.relpath(path, self.work)]]
            self.fail(label, problems)
        children = [op[1] for op in ops]
        return {
            "wall_s": wall,
            "unscaled_s": sum(c.wall_s - c.probes_s for c in children),
            "work_s": sum(c.work_s for c in children),
            "items": items,
            "peak_rss_mb": max(c.maxrss_mb for c in children),
            "work_cpu_s": sum(c.work_cpu_s for c in children),
            "api": api,
        }

    # -- set-up time ----------------------------------------------------------
    def setup_probe(self) -> float | None:
        """Seconds from spawning loaders.py until its loaders returned."""
        capture = [self.p("camp", "prep_capture.jsonl")] if self.workload == "audit_sim" else []
        args = [str(HERE / "loaders.py"), self.workload, str(self.camp), self.regs_in, *capture]
        self.n_children += 1
        child, spawned = spawn(args, self.logs / f"{self.n_children:04d}-setup")
        self.attempted += 1
        problems = self.exit_problems(child)
        self.fail("setup", problems)
        if problems:
            return None
        returned = float(child.stdout.strip().splitlines()[-1])
        return (returned - spawned - sum(child.probe_before)) * child.scale

    # -- end-to-end run ------------------------------------------------------
    def end_to_end(self) -> dict:
        # set-up probes are spread over the run, so a slow spell of the
        # machine weighs on them no more than on the repetitions
        self.setup_probe()  # warms the page cache and bytecode cache only
        setup, reps = [], []
        start = time.monotonic()
        while not reps or time.monotonic() - start < self.seconds:
            setup.append(self.setup_probe())
            reps.append(self.iteration(first=not reps))
        while len(setup) < MIN_SETUP_SAMPLES:
            setup.append(self.setup_probe())
        setup = [s for s in setup if s is not None]
        med = lambda key: statistics.median(key(r) for r in reps)  # noqa: E731
        metrics = {
            "setup_s": (statistics.median(setup or [0.0]), "s"),  # empty only if every probe failed
            "items_per_s": (med(lambda r: r["items"] / r["work_s"]), "1/s"),
            "peak_rss_mb": (med(lambda r: r["peak_rss_mb"]), "MB"),
            "cpu_s_per_kitem": (med(lambda r: 1000.0 * r["work_cpu_s"] / r["items"]), "s"),
        }
        item = "net records" if self.workload == "registry" else "prefixes"
        print(f"{self.workload}: {len(reps)} repetitions in {time.monotonic() - start:.1f} s, "
              f"{reps[0]['items']} {item} each; set-up sampled {len(setup)} times")
        print(f"  unscaled items per wall second = {med(lambda r: r['items'] / r['wall_s']):.6g} 1/s "
              f"(times below are scaled to the CPU state whose probe takes {PROBE_REF_S} s)")
        alias = "records_per_s" if self.workload == "registry" else "prefixes_per_s"
        print(f"  {alias} = {metrics['items_per_s'][0]:.6g} 1/s (reported as items_per_s)")
        if self.workload == "audit_live":
            api = reps[0]["api"]
            plans = reps[0]["items"]
            print(f"  api_requests_per_prefix = {(api['posts'] + api['gets']) / plans:.4f} count")
            print(f"  measurements_per_prefix = {api['posts'] / plans:.4f} count")
        return metrics

    # -- traced run ------------------------------------------------------------
    @property
    def live_limit(self) -> int | None:
        """On audit_live the in-process live pass covers every prefix, so its
        api.* counts are the same figures as the CLI's."""
        return None if self.workload == "audit_live" else LIVE_LIMIT

    def full_pass(self, tracer: spans.Tracer, out_dir: Path) -> dict:
        import pipeline

        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        o = lambda name: str(out_dir / name)  # noqa: E731
        camp = str(self.camp)
        start = time.perf_counter()
        regs = o("registrations.jsonl")
        pipeline.ingest(tracer, camp, regs)
        pipeline.align(tracer, regs, str(self.camp / "rib.txt"), o("alignment.csv"))
        pipeline.oro(tracer, regs, o("oro.csv"))
        sim = pipeline.audit(tracer, camp, regs, "simulate", o("audit_simulate.jsonl"), self.seed,
                             capture=o("capture_simulate.jsonl"))
        geo_targets, geo_countries = pipeline.geo_pass(tracer, sim)
        pipeline.audit(tracer, camp, regs, "replay", o("audit_replay.jsonl"), self.seed,
                       results=o("capture_simulate.jsonl"))
        pipeline.report_cmd(tracer, camp, o("audit_simulate.jsonl"), regs, o("report"))
        self.stub.counters.reset()
        live = pipeline.audit(tracer, camp, regs, "live", o("audit_live.jsonl"), self.seed,
                              capture=o("capture_live.jsonl"), base_url=self.stub.base_url,
                              api_key=API_KEY, limit=self.live_limit)
        api = vars(self.stub.counters).copy()
        return {"wall_s": time.perf_counter() - start, "sim": sim, "live": live, "api": api,
                "geo": (geo_targets, geo_countries)}

    def check_traced(self, traced: Path, plain: Path, api: dict) -> None:
        """The replica's outputs equal the CLI's, and the untraced pass's;
        planted expectations hold for the commands the CLI did not run."""
        self.attempted += 1
        cli_dir = self.work / "cli"
        same = {"registry": ["registrations.jsonl", "alignment.csv", "oro.csv"],
                "audit_sim": ["audit_simulate.jsonl", "capture_simulate.jsonl", "audit_replay.jsonl"]
                + [f"report/{n}" for n in REPORT_FILES],
                "audit_live": ["audit_simulate.jsonl", "audit_replay.jsonl", "audit_live.jsonl"]
                }[self.workload]
        problems = []
        for name in same:
            problems += checks.check_identical([str(cli_dir / name), str(traced / name)])
        if self.workload != "registry":
            problems += checks.check_identical([self.regs_in, str(traced / "registrations.jsonl")])
        for path in sorted(traced.rglob("*")):
            if path.is_file():
                rel = path.relative_to(traced)
                self.digests[f"traced/{rel}"] = checks.sha256(str(path))
                problems += checks.check_identical([str(path), str(plain / rel)])
        exp = self.expected
        problems += checks.check_registrations(str(traced / "registrations.jsonl"), exp)
        problems += checks.check_oro(str(traced / "oro.csv"), exp)
        problems += checks.check_audit(str(traced / "audit_simulate.jsonl"), exp)
        problems += checks.check_identical([str(traced / "audit_simulate.jsonl"),
                                            str(traced / "audit_replay.jsonl")])
        problems += checks.check_report(str(traced / "report"), exp)
        with open(traced / "audit_simulate.jsonl", encoding="utf-8") as fp:
            head = fp.readlines()[:self.live_limit]
        with open(traced / "audit_live.jsonl", encoding="utf-8") as fp:
            if fp.readlines() != head:
                problems.append("in-process live records differ from simulated ones")
        problems += checks.check_api(str(traced / "capture_live.jsonl"), api["answered"],
                                     api["rejected"])
        self.fail("traced-pipeline", problems)

    def per_layer(self) -> dict:
        cli_rep = self.iteration(first=True)
        tracer_runs, plain_walls = [], []
        start = time.monotonic()
        n = 0
        while not tracer_runs or time.monotonic() - start < self.seconds:
            n += 1
            tracer = spans.Tracer(run_id=f"{self.workload}-{self.seed}-{n}")
            traced = self.full_pass(tracer, self.work / "traced")
            plain = self.full_pass(spans.Tracer(run_id="", enabled=False), self.work / "plain")
            if n == 1:
                self.check_traced(self.work / "traced", self.work / "plain", traced["api"])
                tracer.write(self.p("spans.jsonl"))
            tracer_runs.append(layer_metrics(tracer, traced))
            tracer_runs[-1]["trace.traced_wall_s"] = (traced["wall_s"], "s")
            plain_walls.append(plain["wall_s"])
        metrics = {name: (statistics.median(run[name][0] for run in tracer_runs), unit)
                   for name, (_, unit) in tracer_runs[0].items()}
        metrics["trace.untraced_wall_s"] = (statistics.median(plain_walls), "s")
        metrics["trace.cli_wall_s"] = (cli_rep["unscaled_s"], "s")
        print(f"{self.workload}: {len(tracer_runs)} traced and untraced in-process passes; "
              f"spans in {self.p('spans.jsonl')}")
        return metrics


def layer_metrics(tracer: spans.Tracer, run: dict) -> dict:
    agg = spans.aggregate(tracer.spans)

    def busy(name):
        return agg[name]["self_s"]

    def us_per(name):
        return 1e6 * agg[name]["self_s"] / agg[name]["items"]

    def per_s(name):
        return agg[name]["items"] / agg[name]["self_s"]

    sim, live, api = run["sim"], run["live"], run["api"]
    geo_targets, geo_countries = run["geo"]
    m = {
        "whois.parse_bulk_whois.records_per_s": (per_s("whois.parse_bulk_whois"), "1/s"),
        "whois.link_organizations.busy_s": (busy("whois.link_organizations"), "s"),
        "whois.drop_circular_transfers.busy_s": (busy("whois.drop_circular_transfers"), "s"),
        "registry.write_registrations.busy_s": (busy("registry.write_registrations"), "s"),
        "registry.load_registrations.us_per_item": (us_per("registry.load_registrations"), "us"),
        "bgp.load_rib.routes_per_s": (per_s("bgp.load_rib"), "1/s"),
        "bgp.alignment_table.us_per_prefix": (us_per("bgp.alignment_table"), "us"),
        "targets.build_target_plans.us_per_prefix": (us_per("targets.build_target_plans"), "us"),
        "vantage.select_stable_sets.busy_s": (busy("vantage.select_stable_sets"), "s"),
        "vantage.plan_vantages.us_per_prefix": (us_per("vantage.plan_vantages"), "us"),
        "vantage.plan_vantages.mean_vantages": (statistics.mean(sim["plan_sizes"]), "count"),
        "vantage.plan_vantages.max_vantages": (max(sim["plan_sizes"]), "count"),
        "measure.run_plan.simulate.us_per_prefix": (us_per("measure.run_plan.simulate"), "us"),
        "measure.run_plan.replay.us_per_prefix": (us_per("measure.run_plan.replay"), "us"),
        "measure.run_plan.live.us_per_prefix": (us_per("measure.run_plan.live"), "us"),
        "measure.load_results.us_per_result": (us_per("measure.load_results"), "us"),
        "measure.write_results.us_per_result": (us_per("measure.write_results"), "us"),
        "measure.backend_calls_per_prefix": (sim["calls"] / sim["plans"], "count"),
        "measure.reply_ratio": (sim["replied"] / sim["calls"], "ratio"),
        "measure.max_replies_per_target": (max(
            sum(len(r.rtts_ms) for r in results) for results in sim["results_by_target"].values()),
            "count"),
        "geo.infer_region.us_per_target": (us_per("geo.infer_region"), "us"),
        "geo.countries_per_target": (geo_countries / geo_targets, "count"),
        "classify.audit_pipeline.us_per_prefix": (us_per("classify.audit_pipeline"), "us"),
        "classify.write_records.us_per_record": (us_per("classify.write_records"), "us"),
        "classify.load_records.us_per_record": (us_per("classify.load_records"), "us"),
        "api.requests_per_prefix": ((api["posts"] + api["gets"]) / live["plans"], "count"),
        "api.posts_per_prefix": (api["posts"] / live["plans"], "count"),
        "api.gets_per_post": (api["gets"] / api["posts"], "ratio"),
        "api.wait_frac": (api["busy_s"] / agg["cli.audit_live"]["wall_s"], "ratio"),
    }
    for name in ("oro_stats", "distribution", "sankey_edges", "characteristics",
                 "geodb_detection", "leasing_overlap", "write_summary"):
        m[f"report.{name}.busy_s"] = (busy(f"report.{name}"), "s")
    for name in ("ingest", "align", "oro", "audit_simulate", "audit_replay", "report", "audit_live"):
        m[f"cli.{name}.wall_s"] = (agg[f"cli.{name}"]["wall_s"], "s")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "geoaudit" / "cli.py").is_file():
        print(f"geobench: no geoaudit sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # this process, the stub thread and every child share one CPU, so the
    # child's probes measure the CPU the stub served it on too
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    from stub import LiveApiStub

    bench = Bench(args.workload, args.seed, args.seconds)
    needs_stub = args.trace == 1 or args.workload == "audit_live"
    if needs_stub:
        bench.stub = LiveApiStub(bench.world, bench.vantages, args.seed, API_KEY, STUB_DELAY_S)
        bench.stub.start()
    try:
        bench.prepare()
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
    finally:
        if bench.stub is not None:
            bench.stub.stop()

    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  failed_frac = {bench.failed / bench.attempted:.6g} "
          f"({bench.failed} of {bench.attempted} operations)")
    for rel, digest in sorted(bench.digests.items()):
        print(f"  sha256 {digest} {rel}")
    for problem in bench.problems[:40]:
        print(f"  CHECK FAILED {problem}")
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(bench.work / "result.json", "w", encoding="utf-8") as fp:
        json.dump({"result": result, "sha256": bench.digests, "problems": bench.problems}, fp,
                  indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
