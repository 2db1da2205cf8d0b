"""Benchmark of the soficsemi command line, end to end and layer by layer.

    python3 bench/run.py --workload corpus|large|cover|all --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The program is taken from ``src/`` as it
stands; nothing is installed. Each job is one ``soficsemi.cli.main(argv)``
call in a child forked from this process (see ``harness.py``), checked
against the exit code and stdout digest pinned in ``references.json``.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end ones: ``pass_s``, ``setup_s``, ``peak_rss_mb`` and
``ok_frac``. With ``--trace 1`` they are the per-layer ones, from a traced
run that wraps the library's public functions from outside (``layers.py``).
``--workload all`` runs the three workloads in turn and prefixes each
metric with its workload's name. See ``README.md`` for what each metric
means and which layer should move it.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
HASHSEED = "0"

MIN_PASSES = 3
SETUP_LAUNCHES = 15
HARD_STOP_S = 150.0  # no job starts after this; a later timed job is charged its budget
TIMED_BUDGET_S = {"corpus": 10.0, "large": 40.0, "cover": 40.0}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("corpus", "large", "cover", "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class SetupTimer:
    """Times a fresh interpreter from launch until ``soficsemi.cli`` is imported.

    A run spreads its launches over its passes, so that the median does not
    depend on the machine's speed in one moment of the run.
    """

    CODE = "import soficsemi.cli, sys; sys.stdout.write('.'); sys.stdout.flush()"

    def __init__(self):
        self.times = []

    def launch(self):
        env = {**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": HASHSEED}
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", self.CODE], stdout=subprocess.PIPE,
                                cwd=ROOT, env=env)
        ready = proc.stdout.read(1)
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or ready != b".":
            raise SystemExit("error: importing soficsemi.cli failed")
        self.times.append(elapsed)

    def launch_if_due(self, start, seconds):
        """Launch when the run is due its next one of ``SETUP_LAUNCHES``."""
        n = len(self.times)
        if n < SETUP_LAUNCHES and time.perf_counter() >= start + n * seconds / SETUP_LAUNCHES:
            self.launch()


def _upper_quartile(samples):
    """The sample at the upper quartile of wall time (nearest rank, rounded up).

    On a 2-CPU x86_64 machine whose speed swings by a third in phases of up
    to a minute, a run that is partly in a fast phase still reads its
    slow-phase times this way. Over ten 30-second `corpus` runs the spread
    between runs was 0.083 with this quartile and 0.129 with the median; over
    six `large` runs, 0.047 and 0.084. It is a single sample, not an
    interpolation, so that its per-layer parts add up.
    """
    return sorted(samples, key=lambda r: r["wall"])[(3 * (len(samples) - 1) + 3) // 4]


class WorkloadRun:
    """One workload: its known-defect jobs once, then timed passes."""

    def __init__(self, workload, args, refs):
        self.workload = workload
        self.args = args
        self.refs = refs
        self.limit_mb = wl.LIMIT_MB[workload]
        self.budget_s = TIMED_BUDGET_S[workload]
        workdir = os.path.join(WORK, workload)
        shutil.rmtree(workdir, ignore_errors=True)
        # The inputs are made in a throwaway child (making a `.sg` file runs the
        # library), so every workload forks its jobs from the same server.
        self.jobs = [wl.Job(**j) for j in harness.call_in_child(lambda: [
            dataclasses.asdict(j)
            for j in wl.build(workload, args.seed, refs, wl.InputWriter(workdir))])]
        self.timed = [j for j in self.jobs if j.name in refs["jobs"]]
        self.defects = [j for j in self.jobs if j.name in refs["defects"]]
        unknown = [j.name for j in self.jobs if j not in self.timed and j not in self.defects]
        if unknown:
            raise SystemExit(f"error: no reference for {', '.join(unknown)}")
        self.bad_inputs = self._check_inputs()
        self.attempted = 0
        self.failed = 0
        self.failures = {}  # timed job -> failure description
        self.defect_results = {}
        self.probes = []
        self.samples = {j.name: [] for j in self.timed}
        self.traced = {j.name: [] for j in self.timed}
        self.passes = 0
        self.setup = SetupTimer()

    def _check_inputs(self):
        """Green jobs whose generated ``.sg`` file differs from the pinned one."""
        bad = set()
        for job in self.jobs:
            if job.argv[0] == "green":
                with open(job.argv[1]) as fh:
                    if wl.sha(fh.read()) != self.refs["sg_sha"].get(job.input):
                        bad.add(job.name)
        return bad

    def _run(self, job, budget, tracer_factory=None):
        res = harness.run_job(job.argv, self.limit_mb, budget, tracer_factory)
        if "probe_ms" in res:
            self.probes.append(res["probe_ms"])
        return res

    def run_defects(self, deadline):
        for job in self.defects:
            entry = self.refs["defects"][job.name]
            if time.perf_counter() > deadline:
                res = {"cls": "not_run"}
            else:
                res = self._run(job, entry["budget_s"])
            self.attempted += 1
            ok = job.name not in self.bad_inputs and harness.outcome_ok(res, entry["expected"])
            self.defect_results[job.name] = {
                "class": res["cls"], "registered": entry["class"], "ok": ok,
                "known": res["cls"] == entry["class"],
            }

    def _timed_one(self, job, traced, deadline):
        if job.name in self.failures:
            return {"wall": self.budget_s}
        self.attempted += 1
        res = None
        if job.name not in self.bad_inputs and time.perf_counter() < deadline:
            factory = layers.install_tracer if traced else None
            res = self._run(job, self.budget_s, factory)
        if res is None or not harness.outcome_ok(res, self.refs["jobs"][job.name]):
            self.failed += 1
            if job.name in self.bad_inputs:
                reason = "input_mismatch"
            elif res is None:
                reason = "not_run"
            else:
                reason = "output_mismatch" if res["cls"].startswith("exit") else res["cls"]
            self.failures[job.name] = reason
            return {"wall": self.budget_s}
        return res

    def run_passes(self, deadline):
        rng = random.Random(self.args.seed)
        start = time.perf_counter()
        modes = (False, True) if self.args.trace else (False,)
        while True:
            for traced in modes:
                order = list(self.timed)
                rng.shuffle(order)
                for job in order:
                    self.setup.launch_if_due(start, self.args.seconds)
                    res = self._timed_one(job, traced, deadline)
                    (self.traced if traced else self.samples)[job.name].append(res)
            self.passes += 1
            elapsed = time.perf_counter() - start
            if self.passes >= MIN_PASSES and elapsed >= self.args.seconds:
                break
            if time.perf_counter() > deadline:
                break
        while len(self.setup.times) < SETUP_LAUNCHES:
            self.setup.launch()

    def pass_s(self, table):
        return sum(_upper_quartile(table[j.name])["wall"] for j in self.timed)

    def ok_frac(self):
        ok = sum(1 for j in self.timed if j.name not in self.failures)
        ok += sum(1 for r in self.defect_results.values() if r["ok"])
        return ok / len(self.jobs)

    def end_to_end(self):
        rss = [r["maxrss_mb"] for s in self.samples.values() for r in s if "maxrss_mb" in r]
        return {
            "pass_s": (self.pass_s(self.samples), "s"),
            "setup_s": (statistics.median(self.setup.times), "s"),
            "peak_rss_mb": (max(rss) if rss else 0.0, "MB"),
            "ok_frac": (self.ok_frac(), "fraction"),
        }

    def per_layer(self):
        out = {m: 0.0 for m in layers.SELF_METRICS.values()}
        out.update({m: 0 for m in layers.COUNT_METRICS})
        traced_pass = 0.0
        covered = 0.0
        for job in self.timed:
            res = _upper_quartile(self.traced[job.name])
            traced_pass += res["wall"]
            tr = res.get("trace")
            if tr is None:
                continue
            covered += tr["covered_s"]
            for m, v in tr["self_s"].items():
                out[m] += v
            for m, v in tr["counts"].items():
                out[m] += v
        timed = [r for s in self.samples.values() for r in s if "cpu_s" in r]
        metrics = {m: (v, "s" if m.endswith("_s") else "count") for m, v in out.items()}
        metrics.update({
            "harness.jobs": (len(self.jobs), "count"),
            "harness.known_defect_jobs": (
                sum(1 for r in self.defect_results.values() if r["known"]), "count"),
            "harness.probe_ms": (statistics.median(self.probes) if self.probes else 0.0, "ms"),
            "harness.cpu_over_wall": (
                sum(r["cpu_s"] for r in timed) / max(sum(r["outer_s"] for r in timed), 1e-9),
                "ratio"),
            "trace.overhead_frac": (traced_pass / self.pass_s(self.samples) - 1, "fraction"),
            "trace.uncovered_frac": ((traced_pass - covered) / traced_pass, "fraction"),
        })
        return metrics

    def report_lines(self):
        """Human-readable lines: one per job, then the known-defect register."""
        probe = statistics.median(self.probes) if self.probes else 0.0
        lines = [f"# workload {self.workload} seed {self.args.seed} passes {self.passes}"
                 f" jobs {len(self.jobs)} timed {len(self.timed)} defects {len(self.defects)}"
                 f" probe_ms {probe:.3f}"]
        for job in self.timed:
            runs = self.samples[job.name]
            rss = max((r.get("maxrss_mb", 0.0) for r in runs), default=0.0)
            status = self.failures.get(job.name, "ok")
            sizes = f" size={job.size} dfa={job.dfa}" if job.size else ""
            lines.append(f"job {job.name}{sizes} q3_s="
                         f"{_upper_quartile(runs)['wall']:.4f} rss_mb={rss:.1f} {status}")
        for name, r in self.defect_results.items():
            lines.append(f"defect {name} class={r['class']} registered={r['registered']}"
                         f" {'ok' if r['ok'] else 'known' if r['known'] else 'changed'}")
        return lines


def main(argv):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "soficsemi", "cli.py")):
        print("error: run from the root of a checkout that has src/soficsemi", file=sys.stderr)
        return 2
    ref_path = os.path.join(HERE, "references.json")
    with open(ref_path) as fh:
        refs = json.load(fh)
    sys.path.insert(0, SRC)
    import soficsemi.cli  # noqa: F401  (the fork server imports the program once)

    os.makedirs(WORK, exist_ok=True)
    t_start = time.perf_counter()
    SetupTimer().launch()  # writes the bytecode caches; not counted
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics = {}
    attempted = failed = 0
    print(f"# machine {platform.machine()} cpus {os.cpu_count()} python "
          f"{platform.python_version()} PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED')}")
    for name in names:
        run = WorkloadRun(name, args, refs)
        gc.collect()
        gc.freeze()
        deadline = t_start + HARD_STOP_S * len(names)
        run.run_defects(deadline)
        run.run_passes(deadline)
        print("\n".join(run.report_lines()), flush=True)
        got = run.per_layer() if args.trace else run.end_to_end()
        prefix = name + "." if args.workload == "all" else ""
        for m, (v, unit) in got.items():
            metrics[prefix + m] = {"value": v, "unit": unit}
        attempted += run.attempted
        failed += run.failed
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASHSEED:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASHSEED})
    sys.path.insert(0, HERE)
    import harness
    import layers
    import workloads as wl

    sys.exit(main(sys.argv[1:]))
