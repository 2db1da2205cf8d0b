"""Pin the benchmark's references at the current commit.

    python3 bench/make_references.py

Runs every fixed job and every pool candidate once in a forked child, as
``run.py`` does, and writes ``bench/references.json`` afresh:

- ``jobs``: expected exit code and stdout digest of each job that succeeds;
- ``defects``: the known-defect register, valid-input jobs that fail, with
  their failure class, the budget they run under and the expected output
  where one can be had: for a job that only runs too long, the output of a
  run to the end; for ``idempotent`` jobs, the digest computed with the
  witness text switched off;
- ``pools``: for each seeded slot, the random presentations whose |S| lies
  in the window, that fail on the same verbs, and whose cost and peak RSS
  lie closest to the pool's medians; ``pool_scan`` counts the candidates
  each pool looked at and dropped;
- ``inputs`` and ``sg_sha``: |S| and DFA size of the fixed inputs, and the
  digests of the generated ``.sg`` files.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import workloads as wl  # noqa: E402
from soficsemi.shiftspace import factor_dfa, parse_presentation  # noqa: E402

REF_PATH = os.path.join(HERE, "references.json")
REF_BUDGET_S = 30.0  # a fixed job slower than this is not timed
END_BUDGET_S = 600.0  # a job that times out is run to the end once under this budget
DEFECT_TIMEOUT_S = 2.0  # budget of a known-defect job whose failure comes late
DEFECT_LATE_S = 5.0  # a failure later than this is registered as a timeout
POOL_SIZE = 8
POOL_REPEATS = 3  # cost of a candidate: median over this many runs
SCAN = {"large.closure": 24}  # in-window candidates to look at (default 64)


def _periodic_witness(verb, res):
    return verb == "witness" and res.get("code") == 1 and res.get("head", "").startswith(
        "ERR validation shift is periodic"
    )


def _succeeded(verb, res):
    if res["cls"] not in ("exit0", "ERR validation"):
        return False
    return res["code"] == 0 or _periodic_witness(verb, res)


def _oracle_factory():
    """In the child: idempotent without the witness text or the digit limit."""
    from soficsemi import zimin

    zimin.ZiminTerm.pretty = lambda self: ""
    sys.set_int_max_str_digits(0)
    return None


def _reference(job, limit_mb):
    """Run a job; return ("job", ref) or ("defect", entry), and its wall time."""
    verb = job.argv[0]
    res = harness.run_job(job.argv, limit_mb, REF_BUDGET_S)
    if _succeeded(verb, res):
        ref = {"exit": res["code"], "digest": res["digest"]}
        return "job", ref, res
    if res["outer_s"] > DEFECT_LATE_S:
        budget = DEFECT_TIMEOUT_S
    else:
        budget = round(max(DEFECT_TIMEOUT_S, 2 * res["outer_s"]), 1)
    again = harness.run_job(job.argv, limit_mb, budget)
    entry = {"class": again["cls"], "budget_s": budget, "expected": None,
             "seen_at_reference_budget": f"{res['cls']} after {res['outer_s']:.2f} s"}
    if verb == "idempotent":
        exp = harness.run_job(job.argv, limit_mb, REF_BUDGET_S, _oracle_factory)
        if exp.get("code") == 0 and not exp.get("exc"):
            entry["expected"] = {"exit": 0, "digest": exp["digest"]}
    elif res["cls"] == "timeout":
        end = harness.run_job(job.argv, limit_mb, END_BUDGET_S)
        entry["run_to_end"] = f"{end['cls']} after {end['outer_s']:.1f} s"
        if _succeeded(verb, end):
            entry["expected"] = {"exit": end["code"], "digest": end["digest"]}
    return "defect", entry, res


def _dfa_states(text):
    return factor_dfa(parse_presentation(text)).n_states


def _probe_size(writer, name, text, limit_mb, budget):
    """|S| via the ``syntactic`` verb in a child, or None when it is too slow."""
    path = writer.write(name + ".pres", text)
    res = harness.run_job(["syntactic", path], limit_mb, budget)
    if res.get("code") != 0:
        return None
    return int(res["head"].split()[1])


def fixed_references(refs, writer):
    for workload in wl.WORKLOADS:
        limit = wl.LIMIT_MB[workload]
        for job in wl.build(workload, 0, None, writer, candidates={}):
            kind, entry, res = _reference(job, limit)
            refs["jobs" if kind == "job" else "defects"][job.name] = entry
            print(f"{workload:7s} {job.name:28s} {kind:6s} {res['cls']:14s} "
                  f"{res['outer_s']:.3f}s {res['maxrss_mb']:.0f}MB", flush=True)
    texts = dict(wl.named_presentations())
    for name, text in texts.items():
        refs["sg_sha"][name] = wl.sha(wl.syntactic_sg_text(text))
    texts.update((name, wl.random_pres(*a)) for name, a in wl.ANCHORS.items())
    for name, text in texts.items():
        refs["inputs"][name] = {"size": _probe_size(writer, name, text, 1024, REF_BUDGET_S),
                                "dfa_states": _dfa_states(text)}


def pool_references(refs, writer, pool):
    lo, hi, states, alphabets, seeds = wl.POOLS[pool]
    workload = pool.split(".")[0]
    limit = wl.LIMIT_MB[workload]
    verbs = next(v for p, v, _ in wl.SLOTS[workload] if p == pool)
    cands = []
    drawn = 0
    for seed in seeds:
        for n in states:
            for alph in alphabets:
                name = wl.pool_name(seed, n, alph)
                text = wl.random_pres(seed, n, alph)
                drawn += 1
                size = _probe_size(writer, name, text, limit, 5.0)
                if size is None or not lo <= size <= hi:
                    continue
                m = {"name": name, "seed": seed, "states": n, "alphabet": alph,
                     "size": size, "dfa_states": _dfa_states(text)}
                jobs = wl.build(workload, 0, None, writer, candidates={pool: [m]})
                jobs = [j for j in jobs if j.input == name]
                refs_m, defects_m, walls, rss = {}, {}, [], []
                for job in jobs:
                    kind, entry, res = _reference(job, limit)
                    if kind == "job":
                        refs_m[job.name] = entry
                        runs = [res] + [harness.run_job(job.argv, limit, REF_BUDGET_S)
                                        for _ in range(POOL_REPEATS - 1)]
                        walls.append(statistics.median(r["wall"] for r in runs))
                        rss.append(max(r["maxrss_mb"] for r in runs))
                    else:
                        defects_m[job.name] = entry
                m["cost_s"] = round(sum(walls), 4)
                m["rss_mb"] = round(max(rss), 1)
                m["pattern"] = sorted(f"{k.split('/')[1]}:{v['class']}" for k, v in defects_m.items())
                cands.append((m, refs_m, defects_m))
                print(f"{pool:14s} {name:12s} |S|={size:<6d} cost={m['cost_s']:.3f}s "
                      f"rss={m['rss_mb']}MB {m['pattern']}", flush=True)
        if len(cands) >= SCAN.get(pool, 64):
            break
    patterns = [tuple(m["pattern"]) for m, _, _ in cands]
    modal = max(set(patterns), key=patterns.count)
    same = [c for c in cands if tuple(c[0]["pattern"]) == modal]
    cost = statistics.median(m["cost_s"] for m, _, _ in same)
    rss = statistics.median(m["rss_mb"] for m, _, _ in same)

    def distance(c):
        # RSS counts thrice: about 19 MB of it is the server's pages, shared by all.
        return max(abs(c[0]["cost_s"] / cost - 1), 3 * abs(c[0]["rss_mb"] / rss - 1))

    chosen = sorted(same, key=distance)[:POOL_SIZE]
    chosen.sort(key=lambda c: c[0]["name"])
    refs["pools"][pool] = [m for m, _, _ in chosen]
    refs["pool_scan"][pool] = {
        "drawn": drawn,
        "in_window": len(cands),
        "dropped_for_pattern": len(cands) - len(same),
        "dropped_for_cost": len(same) - len(chosen),
        "kept": len(chosen),
        "pattern": list(modal),
        "patterns_seen": {" ".join(p) or "none": patterns.count(p) for p in sorted(set(patterns))},
    }
    for m, refs_m, defects_m in chosen:
        if any(v[0] == "green" for v in verbs):
            text = wl.random_pres(m["seed"], m["states"], m["alphabet"])
            refs["sg_sha"][m["name"]] = wl.sha(wl.syntactic_sg_text(text))
        refs["jobs"].update(refs_m)
        refs["defects"].update(defects_m)
    costs = [m["cost_s"] for m, _, _ in chosen]
    print(f"{pool}: {refs['pool_scan'][pool]}, cost {min(costs):.3f}-{max(costs):.3f}s",
          flush=True)


def main():
    refs = {"jobs": {}, "defects": {}, "pools": {}, "pool_scan": {}, "inputs": {}, "sg_sha": {}}
    refs["made_with"] = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "hashseed": os.environ.get("PYTHONHASHSEED"),
    }
    workdir = os.path.join(ROOT, ".bench_work", "references")
    shutil.rmtree(workdir, ignore_errors=True)
    writer = wl.InputWriter(workdir)
    fixed_references(refs, writer)
    for pool in wl.POOLS:
        pool_references(refs, writer, pool)
    with open(REF_PATH, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    main()
