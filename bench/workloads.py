"""Workloads: their inputs, made from the seed, and their job lists.

Every input is a file the CLI reads: a ``.pres`` presentation, a ``.sg``
semigroup table or a cover ``.spec``. Fixed inputs (the named corpus, the
ROADMAP anchor seeds 47, 22 and 159, the cover groups) are the same for
every seed. Seeded inputs fill slots: each slot draws, by the workload seed,
distinct presentations from a pool pinned in ``references.json``. A pool
holds random presentations whose |S| lies in the slot's window and whose
seed-commit cost lies in a narrow band, so that the seed changes the inputs
but not the size of a pass.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import random

WORKLOADS = ("corpus", "large", "cover")

# Address-space limit per job child. The corpus limit is low so that the
# idempotent jobs that exhaust memory fail fast.
LIMIT_MB = {"corpus": 256, "large": 1024, "cover": 1024}

CORPUS_VERBS = (
    ("syntactic",), ("aggm",), ("fischer",), ("witness",), ("entropy",),
    ("block", "2"), ("idempotent", "0"),
)
GREEN_MAX = 60  # green runs on the .sg of syntactic semigroups up to this size

# workload -> [(pool, verbs, how many distinct pool members per run)]
SLOTS = {
    "corpus": [
        ("corpus.small", CORPUS_VERBS + (("green",),), 2),
        ("corpus.mid", CORPUS_VERBS + (("green",),), 2),
        ("corpus.upper", CORPUS_VERBS, 2),
    ],
    "large": [("large.closure", (("syntactic",),), 2)],
    "cover": [],
}

# Pool windows: (|S| low, |S| high, state counts, alphabets, pool seeds).
POOLS = {
    "corpus.small": (5, 24, (3, 4, 5, 6), ("ab", "abc"), range(0, 60)),
    "corpus.mid": (25, GREEN_MAX, (3, 4, 5, 6), ("ab", "abc"), range(0, 60)),
    "corpus.upper": (61, 300, (3, 4, 5, 6), ("ab", "abc"), range(0, 60)),
    "large.closure": (2001, 8000, (14, 16, 18, 20, 24), ("ab",), range(0, 60)),
}

COVER_GROUPS = (2, 3, 4, 5)
COVER_SPECS = {"even": "e abb\nz a\nextra c\n", "golden_mean": "e ab\nz a\nextra c\n"}


def _strongly_connected(n, edges):
    fwd = [[] for _ in range(n)]
    bwd = [[] for _ in range(n)]
    for s, _, t in edges:
        fwd[s].append(t)
        bwd[t].append(s)

    def reach(adj):
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen)

    return reach(fwd) == n and reach(bwd) == n


def pres_text(n, edges, alphabet):
    lines = [f"presentation {n} " + " ".join(alphabet)]
    lines += [f"edge {s} {a} {t}" for s, a, t in edges]
    return "\n".join(lines) + "\n"


def random_pres(seed, n_states, alphabet):
    """Random irreducible presentation using every letter.

    Draws exactly as ``random_presentation`` in ``tests/corpus.py``, so the
    seeds name the same presentations as the ROADMAP baseline.
    """
    rng = random.Random(seed)
    while True:
        edges = set()
        for s in range(n_states):
            for _ in range(rng.randint(1, 2)):
                edges.add((s, rng.choice(alphabet), rng.randrange(n_states)))
        edges = sorted(edges)
        if {a for _, a, _ in edges} != set(alphabet):
            continue
        if _strongly_connected(n_states, edges):
            return pres_text(n_states, edges, sorted(set(alphabet)))


def _period(k):
    letters = [chr(97 + i) for i in range(k)]
    return pres_text(k, [(i, letters[i], (i + 1) % k) for i in range(k)], letters)


def pool_name(seed, states, alphabet):
    return f"r{seed}-{states}{alphabet}"


def named_presentations():
    """The named corpus of ``tests/corpus.py``, as presentation texts."""
    return {
        "full2": pres_text(1, [(0, "a", 0), (0, "b", 0)], "ab"),
        "full3": pres_text(1, [(0, "a", 0), (0, "b", 0), (0, "c", 0)], "abc"),
        "golden_mean": pres_text(2, [(0, "a", 0), (0, "b", 1), (1, "a", 0)], "ab"),
        "even": pres_text(2, [(0, "a", 0), (0, "b", 1), (1, "b", 0)], "ab"),
        "period1": _period(1),
        "period2": _period(2),
        "period3": _period(3),
        "period4": _period(4),
        "random3": random_pres(11, 3, "ab"),
        "random4": random_pres(23, 4, "ab"),
    }


# The ROADMAP anchors; a6-20ab, the cheapest seeded 14-24-state input found
# above TABLE_LIMIT for fischer (|S| 2317); and a3-14ab, whose idempotent
# overflows the integer-to-string limit.
ANCHORS = {
    "a47": (47, 10, "abc"),
    "a22": (22, 10, "abc"),
    "a159": (159, 18, "abc"),
    "a6-20ab": (6, 20, "ab"),
    "a3-14ab": (3, 14, "ab"),
}
# Fixed large jobs. Not run: fischer on a22 (about 24 s, too slow to repeat
# in a run) and aggm or idempotent on a22 and a159 (minutes at the seed).
LARGE_JOBS = (
    ("a47", ("syntactic",)),
    ("a47", ("fischer",)),
    ("a47", ("aggm",)),
    ("a47", ("idempotent", "0")),
    ("a22", ("syntactic",)),
    ("a159", ("syntactic",)),
    ("a159", ("fischer",)),
    ("a6-20ab", ("fischer",)),
    ("a3-14ab", ("idempotent", "0")),
)


def cyclic_group_text(k):
    rows = [" ".join(str((i + j) % k) for j in range(k)) for i in range(k)]
    return f"semigroup {k} 1\n" + "\n".join(rows) + f"\ngenerators {1 % k}\nidentity 0\n"


def syntactic_sg_text(pres):
    """The ``.sg`` file of a presentation's syntactic semigroup (made by the library)."""
    from soficsemi.finsemi import format_semigroup
    from soficsemi.shiftspace import parse_presentation
    from soficsemi.syntactic import syntactic_semigroup

    return format_semigroup(syntactic_semigroup(parse_presentation(pres)).semigroup)


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@dataclasses.dataclass
class Job:
    """One CLI call: ``argv`` names files under the work directory."""

    name: str
    argv: list
    input: str
    size: int | None = None
    dfa: int | None = None


def _verb_jobs(inp, path, verbs, sg_path=None, size=None, dfa=None):
    jobs = []
    for verb in verbs:
        if verb[0] == "green":
            if sg_path is None:
                continue
            argv = ["green", sg_path]
        else:
            argv = [verb[0], path, *verb[1:]]
        jobs.append(Job(f"{inp}/{''.join(verb)}", argv, inp, size, dfa))
    return jobs


class InputWriter:
    """Writes input files under ``workdir`` and returns their relative paths."""

    def __init__(self, workdir):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def write(self, name, text):
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            fh.write(text)
        return os.path.relpath(path)


def pick_slots(workload, seed, refs):
    """The pool members a seed draws for each slot of a workload.

    A slot that draws ``count`` members splits its pool, ordered by pinned
    cost, into ``count`` equal strata and draws one member from each, so that
    the seed moves the cost of a pass less than a free draw would.
    """
    rng = random.Random(seed * 7919 + WORKLOADS.index(workload))
    picks = []
    for pool, verbs, count in SLOTS[workload]:
        members = sorted(refs["pools"][pool], key=lambda m: (m["cost_s"], m["name"]))
        k = len(members) // count
        picks += [(pool, verbs, rng.choice(members[i * k:(i + 1) * k])) for i in range(count)]
    return picks


def build(workload, seed, refs, writer, candidates=None):
    """Write the inputs of a workload and return its jobs.

    ``candidates`` (pool -> members) replaces the seeded draw; the reference
    maker uses it to run whole pools.
    """
    meta = refs.get("inputs", {}) if refs else {}
    jobs = []
    if workload == "corpus":
        for name, text in named_presentations().items():
            p = writer.write(name + ".pres", text)
            sg = writer.write(name + ".sg", syntactic_sg_text(text))
            m = meta.get(name, {})
            jobs += _verb_jobs(name, p, CORPUS_VERBS + (("green",),), sg,
                               m.get("size"), m.get("dfa_states"))
    elif workload == "large":
        for name, verb in LARGE_JOBS:
            seed_, n, alph = ANCHORS[name]
            p = writer.write(name + ".pres", random_pres(seed_, n, alph))
            m = meta.get(name, {})
            jobs += _verb_jobs(name, p, (verb,), None, m.get("size"), m.get("dfa_states"))
    else:
        for shift, spec in COVER_SPECS.items():
            p = writer.write(shift + ".pres", named_presentations()[shift])
            sp = writer.write(shift + ".spec", spec)
            for k in COVER_GROUPS:
                h = writer.write(f"z{k}.sg", cyclic_group_text(k))
                jobs.append(Job(f"{shift}/cover-z{k}", ["cover", p, h, sp], shift))
    if candidates is None:
        picks = pick_slots(workload, seed, refs)
    else:
        picks = [(pool, verbs, m) for pool, verbs, _ in SLOTS[workload]
                 for m in candidates.get(pool, ())]
    for pool, verbs, m in picks:
        name = m["name"]
        text = random_pres(m["seed"], m["states"], m["alphabet"])
        p = writer.write(name + ".pres", text)
        sg = None
        if any(v[0] == "green" for v in verbs):
            sg = writer.write(name + ".sg", syntactic_sg_text(text))
        jobs += _verb_jobs(name, p, verbs, sg, m.get("size"), m.get("dfa_states"))
    return jobs
