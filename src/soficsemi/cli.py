"""Command-line surface: one verb per pipeline stage, grep-able key-value
output, deterministic byte-for-byte for fixed inputs and flags."""

from __future__ import annotations

import json
import re
import sys
import types

from . import entropy as entropy_mod
from . import syntactic as syntactic_mod
from . import wreath as wreath_mod
from . import zimin as zimin_mod
from .errors import CapExceeded, HypothesisViolated, SoficSemiError, UsageError
from .finsemi import DEFAULT_CAP, maximal_subgroup, parse_semigroup
from .shiftspace import (
    conjugate_with_partial_alphabet,
    format_presentation,
    higher_block,
    join_word,
    non_minimal_witness,
    parse_presentation,
    parse_word,
)


def _load_presentation(path):
    with open(path) as fh:
        return parse_presentation(fh.read())


def _load_semigroup(path):
    with open(path) as fh:
        return parse_semigroup(fh.read())


def _emit(pairs, fmt):
    if fmt == "json":
        print(json.dumps(dict(pairs), sort_keys=True))
    else:
        for k, v in pairs:
            print(f"{k} {v}")


def _bool(v):
    return "true" if v else "false"


def cmd_syntactic(args):
    P = _load_presentation(args.presentation)
    D = syntactic_mod.syntactic_semigroup(P, cap=args.cap)
    g = D.semigroup.green()
    pairs = [
        ("semigroup_size", D.semigroup.n),
        ("generators", len(D.semigroup.generators)),
        ("zero", D.zero if D.zero is not None else "none"),
        ("j_classes", len(g.j_classes)),
        ("regular_j_classes", sum(1 for r in g.regular if r)),
    ]
    _emit(pairs, args.format)
    if args.format != "json":
        _print_eggbox(D.semigroup)
    return 0


def _print_eggbox(S):
    g = S.green()
    order = sorted(
        range(len(g.j_classes)), key=lambda c: (len(g.j_below[c]), min(g.j_classes[c]))
    )
    for c in order:
        elems = g.j_classes[c]
        print(f"jclass {c} regular={_bool(g.regular[c])} size={len(elems)}")
        cells = {}
        for x in elems:
            cells.setdefault((g.r_class[x], g.l_class[x]), []).append(str(x))
        r_ids = sorted({g.r_class[x] for x in elems}, key=lambda r: min(g.r_classes[r]))
        l_ids = sorted({g.l_class[x] for x in elems}, key=lambda l: min(g.l_classes[l]))
        for r in r_ids:
            row = (",".join(cells[r, l]) if (r, l) in cells else "-" for l in l_ids)
            print("  row " + " | ".join(row))


def cmd_green(args):
    S = _load_semigroup(args.semigroup)
    _print_eggbox(S)
    return 0


def cmd_aggm(args):
    P = _load_presentation(args.presentation)
    report = syntactic_mod.aggm_forward_check(P, cap=args.cap)
    D = report["data"]
    cover = syntactic_mod.fischer_cover(D)
    pairs = [
        ("semigroup_size", report["semigroup_size"]),
        ("is_aggm", _bool(report["is_aggm"])),
        ("distinguished_class_size", report["distinguished_class_size"]),
        ("subgroup_trivial", _bool(report["subgroup_trivial"])),
        ("fischer_states", cover.n_states),
    ]
    _emit(pairs, args.format)
    return 0


def cmd_fischer(args):
    P = _load_presentation(args.presentation)
    D = syntactic_mod.syntactic_semigroup(P, cap=args.cap)
    cover = syntactic_mod.fischer_cover(D)
    sys.stdout.write(format_presentation(cover))
    return 0


def cmd_block(args):
    P = _load_presentation(args.presentation)
    sys.stdout.write(format_presentation(higher_block(P, args.n)))
    return 0


def cmd_witness(args):
    P = _load_presentation(args.presentation)
    w, v = non_minimal_witness(P)
    P2, z = conjugate_with_partial_alphabet(P)
    pairs = [
        ("w", join_word(w)),
        ("v", join_word(v)),
        ("block_length", len(w)),
        ("z", join_word(z)),
        ("recoded_alphabet_size", len(P2.alphabet)),
        ("z_alphabet_size", len(set(z))),
    ]
    _emit(pairs, args.format)
    return 0


def cmd_entropy(args):
    P = _load_presentation(args.presentation)
    res = entropy_mod.entropy_estimate(P, n_max=args.nmax, tol=args.tol)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "entropy": res.value,
                    "counting": res.counting,
                    "profile": [[n, q, ub] for n, q, ub in res.certificate],
                },
                sort_keys=True,
            )
        )
        return 0
    for n, q, ub in res.certificate:
        print(f"{n}\t{q}\t{ub:.6f}")
    print(f"entropy {res.value:.6f}")
    print(f"counting_estimate {res.counting:.6f}")
    return 0


def cmd_idempotent(args):
    P = _load_presentation(args.presentation)
    T = zimin_mod.loop_language(P, args.vertex)
    if args.semigroup is not None:
        S = _load_semigroup(args.semigroup)
        if len(S.generators) != len(P.alphabet):
            print("ERR validation semigroup generators do not match alphabet")
            return 1
        gens_map = {a: S.generators[i] for i, a in enumerate(P.alphabet)}
    else:
        D = syntactic_mod.syntactic_semigroup(P, cap=args.cap)
        S = D.semigroup
        gens_map = D.letter_map
    res = zimin_mod.evaluate_zimin(T, S, gens_map)
    pairs = [
        ("rho", res.value),
        ("stop_index", res.stop_index),
        ("loop_states", T.m),
        ("bound_terms", f"|X|+...+|X|^{T.m * (S.n + 1) - 1}"),
        ("bound", _format_bound(res.bound)),
        ("witness", res.term.pretty()),
    ]
    _emit(pairs, args.format)
    return 0


def _format_bound(bound):
    """The bound itself up to 40 digits, else ~10^(digits - 1); the digits
    are counted without str(), which refuses integers above 4300 digits."""
    # floor((bits - 1) * log10 2) + 1, with log10 2 rounded down, is the digit
    # count or almost always one short of it
    digits = (bound.bit_length() - 1) * 30102999566398119 // 10 ** 17 + 1
    while bound >= 10 ** digits:
        digits += 1
    return bound if digits <= 40 else f"~10^{digits - 1}"


def cmd_cover(args):
    P = _load_presentation(args.presentation)
    H = _load_semigroup(args.group)
    with open(args.spec) as fh:
        spec = {}
        for line in fh:
            parts = line.split()
            if parts:
                spec[parts[0]] = parts[1:]
    for key in ("e", "z"):
        if not spec.get(key):
            raise ValueError(f"cover spec needs an '{key} <word>' line")
    extra = tuple(spec.get("extra", ()))
    D = syntactic_mod.syntactic_semigroup(P, extra_letters=extra, cap=args.cap)
    e_word = parse_word(spec["e"][0], D.alphabet)
    z_word = parse_word(spec["z"][0], D.alphabet)
    K = maximal_subgroup(D.semigroup, D.image(e_word))
    alpha_words = spec.get("alpha")
    if alpha_words is None:
        if K.n != 1:
            print("ERR validation alpha required for non-trivial K")
            return 1
        alpha = [0] * H.n
    else:
        k_of = {s: i for i, s in enumerate(K.names)}
        alpha = []
        for wtxt in alpha_words:
            selt = D.image(parse_word(wtxt, D.alphabet))
            if selt not in k_of:
                raise HypothesisViolated(
                    "alpha", f"the image of {wtxt} is not in the maximal subgroup K at e")
            alpha.append(k_of[selt])
    result = wreath_mod.build_cover(
        D, H, alpha, e_word, z_word, cap=args.cap
    )
    pairs = [
        (k, _bool(v) if isinstance(v, bool) else v)
        for k, v in sorted(result.report.items())
    ]
    _emit(pairs, args.format)
    sys.stdout.write(result.serialize())
    return 0


def tsv_or_json(value):
    """The type of `--format`."""
    if value not in ("tsv", "json"):
        raise ValueError(value)
    return value


METAVARS = {int: "N", float: "X", tsv_or_json: "tsv|json"}


def make_parser():
    """The verb table `main` parses argv with. Key None holds the global flags,
    given before the verb. An argument is (name, type[, default]): a name
    starting with `--` is a flag; a positional with a default is optional.
    A verb's handler is `cmd_<verb>`, looked up when `main` runs, so that a
    handler rebound in this module (as `bench/layers.py` does) is called."""
    pres = ("presentation", str)
    return {
        None: [("--format", tsv_or_json, "tsv"), ("--cap", int, DEFAULT_CAP)],
        "syntactic": [pres],
        "green": [("semigroup", str)],
        "aggm": [pres],
        "fischer": [pres],
        "block": [pres, ("n", int)],
        "witness": [pres],
        "entropy": [pres, ("--nmax", int, 12), ("--tol", float, 1e-9)],
        "idempotent": [pres, ("vertex", int), ("semigroup", str, None)],
        "cover": [pres, ("group", str), ("spec", str)],
    }


def _is_flag(token):
    """`-`-prefixed, but neither `-` nor a negative number (a positional)."""
    return token.startswith("-") and token != "-" and not re.fullmatch(r"-\d+|-\d*\.\d+", token)


def _convert(name, typ, value):
    try:
        return typ(value)
    except ValueError:
        raise UsageError(f"{name}: invalid {typ.__name__} value {value!r}") from None


def _signature(spec):
    return " ".join(f"[{name} {METAVARS[typ]}]" if name.startswith("-")
                    else f"[{name.upper()}]" if default else name.upper()
                    for name, typ, *default in spec)


def usage(table):
    """The help text: the global flags, then one line per verb."""
    lines = [f"usage: soficsemi {_signature(table[None])} VERB ...", "verbs:"]
    lines += [f"  {verb} {_signature(spec)}" for verb, spec in table.items() if verb]
    lines.append("exit status: 0 ok, 1 ERR validation, 2 ERR cap or ERR usage")
    return "\n".join(lines)


def parse_args(table, argv):
    """The `args` the verb's handler reads, or None for `-h`/`--help`.

    A flag takes the next token, or its value after `=`; the verb's own
    flags may come before or after its positionals. Raises UsageError.
    """
    verb, spec, values, given = None, table[None], {}, []
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        if _is_flag(token):
            flag, eq, value = token.partition("=")
            typ = next((t for name, t, *_ in spec if name == flag), None)
            if typ is None:
                raise UsageError(f"unknown flag {flag}" + (f" for {verb}" if verb else ""))
            if not eq:
                value = next(tokens, None)
                if value is None or _is_flag(value):
                    raise UsageError(f"{flag} needs a value")
            values[flag.lstrip("-")] = _convert(flag, typ, value)
        elif verb is None:
            if token not in table:
                raise UsageError(f"unknown verb {token!r}")
            verb, spec = token, table[token]
        else:
            given.append(token)
    if verb is None:
        raise UsageError("missing verb")
    positionals = [arg for arg in spec if not arg[0].startswith("-")]
    if not sum(len(arg) == 2 for arg in positionals) <= len(given) <= len(positionals):
        raise UsageError(f"{verb} takes {_signature(positionals)}, got {len(given)} arguments")
    for (name, typ, *_), value in zip(positionals, given):
        values[name] = _convert(name.upper(), typ, value)
    for name, _, *default in table[None] + spec:
        if default:
            values.setdefault(name.lstrip("-"), default[0])
    return types.SimpleNamespace(**values, verb=verb, func=globals()["cmd_" + verb])


def main(argv=None):
    table = make_parser()
    try:
        args = parse_args(table, sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"ERR usage {exc}")
        print(usage(table), file=sys.stderr)
        return 2
    if args is None:
        print(usage(table))
        return 0
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"ERR cap {exc}")
        return 2
    except (SoficSemiError, ValueError, OSError) as exc:
        print(f"ERR validation {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
