"""Per-layer tracing from outside the program.

``Tracer.install`` wraps public functions and methods of the ``soficsemi``
modules in every module namespace that binds them (``syntactic`` and
``wreath`` hold their own ``close_generators``, ``cli`` its own
``parse_presentation``), and the listed class attributes. A wrapper records a
span: its self time is its duration minus the time of the spans it encloses.
Only the outermost call of a recursive function is a span. Count-only hooks
record sizes without opening a span, so their time stays with the caller.
It is installed in a forked job child, which is thrown away afterwards.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute, span name); a dotted attribute is a class attribute.
SPANS = [
    ("cli", "make_parser", "cli.parser"),
    ("cli", "cmd_syntactic", "cli.verb"),
    ("cli", "cmd_green", "cli.verb"),
    ("cli", "cmd_aggm", "cli.verb"),
    ("cli", "cmd_fischer", "cli.verb"),
    ("cli", "cmd_block", "cli.verb"),
    ("cli", "cmd_witness", "cli.verb"),
    ("cli", "cmd_entropy", "cli.verb"),
    ("cli", "cmd_idempotent", "cli.verb"),
    ("cli", "cmd_cover", "cli.verb"),
    ("shiftspace", "parse_presentation", "shiftspace.parse_presentation"),
    ("shiftspace", "subset_construction", "shiftspace.subset_construction"),
    ("shiftspace", "Dfa.minimize", "shiftspace.minimize"),
    ("shiftspace", "Dfa.equivalent", "shiftspace.equivalent"),
    ("shiftspace", "non_minimal_witness", "shiftspace.witness"),
    ("shiftspace", "conjugate_with_partial_alphabet", "shiftspace.witness"),
    ("shiftspace", "higher_block", "shiftspace.higher_block"),
    ("shiftspace", "format_presentation", "shiftspace.format_presentation"),
    ("finsemi", "close_generators", "finsemi.close_generators"),
    ("finsemi", "green_structure", "finsemi.green_structure"),
    ("finsemi", "maximal_subgroup", "finsemi.maximal_subgroup"),
    ("finsemi", "omega_power", "finsemi.omega_power"),
    ("finsemi", "parse_semigroup", "finsemi.parse_semigroup"),
    ("syntactic", "syntactic_semigroup", "syntactic.syntactic_semigroup"),
    ("syntactic", "is_aggm", "syntactic.is_aggm"),
    ("syntactic", "separating_contexts", "syntactic.separating_contexts"),
    ("syntactic", "fischer_cover", "syntactic.fischer_cover"),
    ("wreath", "wreath_embed", "wreath.wreath_embed"),
    ("wreath", "build_cover", "wreath.build_cover"),
    ("wreath", "CoverResult.serialize", "wreath.serialize"),
    ("zimin", "loop_language", "zimin.loop_language"),
    ("zimin", "evaluate_zimin", "zimin.evaluate_zimin"),
    ("zimin", "phi_image_of_language", "zimin.phi_image_of_language"),
    ("zimin", "ZiminTerm.pretty", "zimin.pretty"),
    ("entropy", "entropy_estimate", "entropy.entropy_estimate"),
    ("entropy", "spectral_radius", "entropy.spectral_radius"),
]

# Self-time metric per span name.
SELF_METRICS = {
    "cli.verb": "cli.verb_self_s",
    **{name: name + "_s" for _, _, name in SPANS if name != "cli.verb"},
}


def _table_limit():
    return sys.modules["soficsemi.finsemi"].TABLE_LIMIT


# (module, attribute, {count metric: function of the result, added per call}).
# A ``.calls`` metric counts outermost calls; it needs no function.
COUNTS = [
    ("shiftspace", "factor_dfa", {
        "shiftspace.factor_dfa.calls": None,
        "shiftspace.dfa_states": lambda d: d.n_states,
    }),
    ("finsemi", "close_generators", {
        "finsemi.close_generators.elements": lambda S: S.n,
        "finsemi.close_generators.over_table_limit": lambda S: int(S.n > _table_limit()),
    }),
    ("finsemi", "green_structure", {
        "finsemi.green_structure.calls": None,
        "finsemi.j_classes": lambda g: len(g.j_classes),
    }),
    ("syntactic", "is_aggm", {"syntactic.is_aggm.calls": None}),
    ("wreath", "build_cover", {"wreath.build_cover.elements": lambda r: r.s_prime.n}),
    ("zimin", "evaluate_zimin", {"zimin.stop_index": lambda r: r.stop_index}),
    ("entropy", "spectral_radius", {"entropy.spectral_radius.calls": None}),
]

COUNT_METRICS = [m for _, _, fns in COUNTS for m in fns]


class Tracer:
    def __init__(self):
        self.self_s = dict.fromkeys(SELF_METRICS.values(), 0.0)
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.covered_s = 0.0  # time inside outermost spans
        self._stack = []  # per open span: time of the spans it encloses
        self._active = set()  # span names currently open, for recursion

    def report(self):
        return {"self_s": self.self_s, "counts": self.counts, "covered_s": self.covered_s}

    def _wrap(self, fn, span, counters):
        metric = SELF_METRICS.get(span) if span else None
        key = span or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key in self._active:
                return fn(*args, **kwargs)
            self._active.add(key)
            if metric:
                self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._active.discard(key)
                if metric:
                    dt = time.perf_counter() - t0
                    inner = self._stack.pop()
                    self.self_s[metric] += dt - inner
                    if self._stack:
                        self._stack[-1] += dt
                    else:
                        self.covered_s += dt
            for name, f in counters.items():
                self.counts[name] += 1 if f is None else f(result)
            return result

        return wrapper

    def install(self):
        """Wrap every listed target, wherever a ``soficsemi`` module binds it."""
        targets = {}
        for mod, attr, span in SPANS:
            targets.setdefault((mod, attr), [span, {}])
        for mod, attr, fns in COUNTS:
            targets.setdefault((mod, attr), [None, {}])[1].update(fns)
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("soficsemi")]
        for (mod, attr), (span, counters) in targets.items():
            owner = sys.modules["soficsemi." + mod]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(getattr(cls, meth), span, counters))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(orig, span, counters)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, name, wrapped)
        return self


def install_tracer():
    return Tracer().install()
