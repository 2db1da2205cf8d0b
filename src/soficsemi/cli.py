"""Command-line surface: one verb per pipeline stage, grep-able key-value
output, deterministic byte-for-byte for fixed inputs and flags."""

from __future__ import annotations

import re
import sys
import types
from operator import add

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
        import json  # here, so that a tsv call does not load it

        print(json.dumps(dict(pairs), sort_keys=True))
    else:
        for k, v in pairs:
            print(f"{k} {v}")


def _emit_text(key, text, fmt):
    """A verb's text output, or under json the object {key: text}."""
    if fmt == "json":
        _emit([(key, text)], fmt)
    else:
        sys.stdout.write(text)


def _bool(v):
    return "true" if v else "false"


def _structure_pairs(S, zero):
    g = S.green()
    return [
        ("semigroup_size", S.n),
        ("generators", len(S.generators)),
        ("zero", zero if zero is not None else "none"),
        ("j_classes", len(g.j_classes)),
        ("regular_j_classes", sum(1 for r in g.regular if r)),
    ]


def cmd_syntactic(args):
    P = _load_presentation(args.presentation)
    D = syntactic_mod.syntactic_semigroup(P, cap=args.cap)
    _emit(_structure_pairs(D.semigroup, D.zero), args.format)
    if args.format != "json":
        _print_eggbox(D.semigroup)
    return 0


def _print_eggbox(S):
    """One block per J-class, bottom up: a row per R-class and a column per
    L-class, both in the order of their ids (which is that of their least
    members), each cell an H-class. Since J = D in a finite semigroup, no
    cell is empty and, by Green's lemma, every cell of a block has the same
    size. So one sort of the elements by (block, row, column) lays each
    block out as a grid, cut by slices: cells of equal size, rows of equal
    length."""
    g = S.green()
    order = sorted(range(len(g.j_classes)),
                   key=lambda c: (g.j_below[c].bit_count(), g.j_classes[c][0]))
    block = [0] * len(order)
    for i, c in enumerate(order):
        block[c] = i
    width = len(g.l_classes)
    key = list(map(add, map((len(g.r_classes) * width).__mul__, map(block.__getitem__, g.j_class)),
                   map(add, map(width.__mul__, g.r_class), g.l_class)))
    elems = sorted(range(S.n), key=key.__getitem__)
    rows, cols = [0] * len(order), [0] * len(order)  # R- and L-classes per J-class
    for counts, classes in ((rows, g.r_classes), (cols, g.l_classes)):
        for members in classes:
            counts[g.j_class[members[0]]] += 1
    write = sys.stdout.write
    start = 0
    for c in order:
        size, ncols = len(g.j_classes[c]), cols[c]
        cells = list(map(str, elems[start:start + size]))
        start += size
        if len(cells) > rows[c] * ncols:
            cells = list(map(",".join, _cut(cells, size // (rows[c] * ncols))))
        text = "\n  row ".join(map(" | ".join, _cut(cells, ncols)))
        write(f"jclass {c} regular={_bool(g.regular[c])} size={size}\n  row {text}\n")


def _cut(items, length):
    """The consecutive slices of `items` of the given length."""
    ends = range(length, len(items) + length, length)
    return map(items.__getitem__, map(slice, range(0, len(items), length), ends))


def cmd_green(args):
    S = _load_semigroup(args.semigroup)
    if args.format == "json":
        _emit(_structure_pairs(S, S.zero), args.format)
    else:
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
    _emit_text("presentation", format_presentation(cover), args.format)
    return 0


def cmd_block(args):
    P = _load_presentation(args.presentation)
    _emit_text("presentation", format_presentation(higher_block(P, args.n, args.cap)), args.format)
    return 0


def cmd_witness(args):
    P = _load_presentation(args.presentation)
    w, v = non_minimal_witness(P)
    P2, z = conjugate_with_partial_alphabet(P, args.cap)
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
        _emit([("entropy", res.value), ("counting", res.counting),
               ("profile", [[n, q, ub] for n, q, ub in res.certificate])], "json")
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
        for number, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            if parts[0] not in ("e", "z", "extra", "alpha"):
                raise ValueError(f"cover spec line {number}: unknown key '{parts[0]}'")
            if parts[0] in spec:
                raise ValueError(f"cover spec line {number}: repeated key '{parts[0]}'")
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
    if args.format == "json":
        _emit(pairs + [("cover", result.serialize())], args.format)
    else:
        _emit(pairs, args.format)
        sys.stdout.write(result.serialize())
    return 0


def tsv_or_json(value):
    """The type of `--format`."""
    if value not in ("tsv", "json"):
        raise ValueError(value)
    return value


def positive_int(value):
    """The type of `--cap`: an int of at least 1."""
    if int(value) < 1:
        raise ValueError(value)
    return int(value)


METAVARS = {int: "N", float: "X", tsv_or_json: "tsv|json", positive_int: "N"}


def make_parser():
    """The verb table `main` parses argv with. Key None holds the global flags,
    given before the verb. An argument is (name, type[, default]): a name
    starting with `--` is a flag; a positional with a default is optional.
    A verb's handler is `cmd_<verb>`, looked up when `main` runs, so that a
    handler rebound in this module (as `bench/layers.py` does) is called."""
    pres = ("presentation", str)
    return {
        None: [("--format", tsv_or_json, "tsv"), ("--cap", positive_int, DEFAULT_CAP)],
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


def _parses(typ, value):
    try:
        typ(value)
    except ValueError:
        return False
    return True


def _convert(name, typ, value):
    if not _parses(typ, value):
        raise UsageError(f"{name}: invalid {typ.__name__} value {value!r}")
    return typ(value)


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

    A flag takes the next token, or its value after `=`; the next token is
    its value unless it looks like a flag and does not parse as the flag's
    type (so `--tol -1e-3` is a value). The verb's own flags may come before
    or after its positionals. Raises UsageError.
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
                if value is None or _is_flag(value) and not _parses(typ, value):
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
