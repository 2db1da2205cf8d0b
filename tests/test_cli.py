import json
import math
import os
import resource
import subprocess
import sys

import pytest

from corpus import even_shift, full_shift, golden_mean, period_shift, random_presentation
from oracles import eggbox_by_buckets, j_below_set
from soficsemi import cli, entropy, shiftspace, syntactic
from soficsemi.cli import _format_bound, _print_eggbox, main
from soficsemi.errors import CapExceeded
from soficsemi.finsemi import format_semigroup
from soficsemi.shiftspace import format_presentation, parse_presentation
from soficsemi import FiniteSemigroup, factor_dfa


@pytest.fixture
def gm_path(tmp_path):
    p = tmp_path / "gm.pres"
    p.write_text(format_presentation(golden_mean()))
    return str(p)


@pytest.fixture
def p2_path(tmp_path):
    p = tmp_path / "p2.pres"
    p.write_text(format_presentation(period_shift(2)))
    return str(p)


def run(capsys, args):
    code = main(args)
    return code, capsys.readouterr().out


def test_entropy_verb(capsys, gm_path):
    code, out = run(capsys, ["entropy", gm_path, "--nmax", "12"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t")[:2] == ["1", "2"]
    h = float(next(l.split()[1] for l in lines if l.startswith("entropy ")))
    assert abs(h - 0.694242) < 1e-4


def test_entropy_json(capsys, gm_path):
    code, out = run(capsys, ["--format", "json", "entropy", gm_path, "--nmax", "6"])
    assert code == 0
    data = json.loads(out)
    assert abs(data["entropy"] - 0.694242) < 1e-4
    assert data["profile"][0][:2] == [1, 2]
    # one line, keys sorted, json's default separators: the bytes `_emit` writes
    assert list(data) == ["counting", "entropy", "profile"]
    assert out == json.dumps(data, sort_keys=True) + "\n"


@pytest.fixture
def r10_path(tmp_path):
    p = tmp_path / "r10-6ab.pres"
    p.write_text(format_presentation(random_presentation(10, 6, "ab")))
    return str(p)


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "1"])
def test_entropy_rejects_tolerance_outside_unit_interval(capsys, r10_path, tol):
    """A tolerance of 1 or more passes the bracket test at the first step
    (it printed 0.584963 here at --tol 1), and nan or a negative one never
    does, which ran every power-iteration step before failing."""
    code, out = run(capsys, ["entropy", r10_path, "--tol", tol])
    assert code == 1
    assert out == f"ERR validation tol must be a finite number in (0, 1), got {float(tol)}\n"


@pytest.mark.parametrize("extra, value", [([], "0.755637"), (["--tol", "1e-3"], "0.755786")])
def test_entropy_tolerance_in_range(capsys, r10_path, extra, value):
    code, out = run(capsys, ["entropy", r10_path, *extra])
    assert code == 0
    assert out.splitlines()[-2:] == [f"entropy {value}", "counting_estimate 0.771170"]


def test_aggm_verb(capsys, p2_path):
    code, out = run(capsys, ["aggm", p2_path])
    assert code == 0
    assert "is_aggm true" in out
    assert "distinguished_class_size 4" in out
    assert "fischer_states 2" in out


def test_aggm_verb_computes_aggm_once(capsys, p2_path, monkeypatch):
    calls = []
    body = syntactic._distinguished
    monkeypatch.setattr(syntactic, "_distinguished", lambda S: calls.append(S) or body(S))
    code, _ = run(capsys, ["aggm", p2_path])
    assert code == 0
    assert len(calls) == 1


def test_entropy_verb_computes_one_spectral_radius(capsys, gm_path, monkeypatch):
    calls = []
    body = entropy.spectral_radius
    monkeypatch.setattr(entropy, "spectral_radius", lambda *a: calls.append(a) or body(*a))
    code, _ = run(capsys, ["entropy", gm_path])
    assert code == 0
    assert len(calls) == 1


def test_witness_verb_builds_each_factor_dfa_once(capsys, gm_path, monkeypatch):
    built, searches = [], []
    subset, search = shiftspace.subset_construction, shiftspace._witness_pair
    monkeypatch.setattr(shiftspace, "subset_construction",
                        lambda P, *a: built.append(P) or subset(P, *a))
    monkeypatch.setattr(shiftspace, "_witness_pair", lambda P: searches.append(P) or search(P))
    code, _ = run(capsys, ["witness", gm_path])
    assert code == 0
    assert len(searches) == 1
    # the loaded presentation and its higher-block recoding, once each
    assert len(built) == len({id(P) for P in built}) == 2


def test_syntactic_and_green_verbs(capsys, gm_path, tmp_path):
    code, out = run(capsys, ["syntactic", gm_path])
    assert code == 0
    assert "semigroup_size 5" in out
    assert "jclass" in out

    sg = tmp_path / "z3.sg"
    Z3 = FiniteSemigroup([[(i + j) % 3 for j in range(3)] for i in range(3)], [1])
    sg.write_text(format_semigroup(Z3))
    code, out = run(capsys, ["green", str(sg)])
    assert code == 0
    assert out.startswith("jclass 0 regular=true size=3")


def test_fischer_round_trip(capsys, gm_path):
    code, out = run(capsys, ["fischer", gm_path])
    assert code == 0
    cover = parse_presentation(out)
    assert factor_dfa(cover).equivalent(factor_dfa(golden_mean()))


def test_block_identity_language(capsys, gm_path):
    code, out = run(capsys, ["block", gm_path, "1"])
    assert code == 0
    P1 = parse_presentation(out)
    assert factor_dfa(P1).equivalent(factor_dfa(golden_mean()))


def test_witness_verb(capsys, gm_path):
    code, out = run(capsys, ["witness", gm_path])
    assert code == 0
    assert "w a" in out and "v b" in out and "z a" in out


def test_idempotent_verb(capsys, gm_path):
    code, out = run(capsys, ["idempotent", gm_path, "0"])
    assert code == 0
    assert "rho " in out and "stop_index " in out and "witness " in out


def test_cover_verb(capsys, tmp_path, gm_path):
    h = tmp_path / "z2.sg"
    h.write_text("semigroup 2 1\n0 1\n1 0\ngenerators 1\nidentity 0\n")
    spec = tmp_path / "cover.spec"
    spec.write_text("e ab\nz a\nextra c\n")
    code, out = run(capsys, ["cover", gm_path, str(h), str(spec)])
    assert code == 0
    assert "theta_iso true" in out
    assert "cover p " in out


def test_deterministic_output(capsys, gm_path):
    _, out1 = run(capsys, ["syntactic", gm_path])
    _, out2 = run(capsys, ["syntactic", gm_path])
    assert out1 == out2


def test_idempotent_with_explicit_target(capsys, tmp_path, gm_path):
    sg = tmp_path / "sl.sg"
    # two-element semilattice, one generator per letter
    sg.write_text("semigroup 2 2\n0 1\n1 1\ngenerators 0 1\nzero 1\nidentity 0\n")
    code, out = run(capsys, ["idempotent", gm_path, "0", str(sg)])
    assert code == 0
    assert "rho 1" in out  # the absorbing element


def test_error_codes(capsys, tmp_path):
    bad = tmp_path / "bad.pres"
    bad.write_text("presentation 2 a b\nedge 0 a 1\nedge 1 b 1\n")
    code, out = run(capsys, ["aggm", str(bad)])
    assert code == 1
    assert out.startswith("ERR validation")

    missing = tmp_path / "nope.pres"
    code, out = run(capsys, ["entropy", str(missing)])
    assert code == 1
    assert out.startswith("ERR validation")


GM_TEXT = "presentation 2 a b\nedge 0 a 0\nedge 0 b 1\nedge 1 a 0\n"
Z2_TEXT = "semigroup 2 1\n0 1\n1 0\ngenerators 1\nidentity 0\n"
# `.sg` texts whose header is rejected by name: once an empty semigroup
# passed and once a later line was blamed
HEADER_ERRORS = {
    "semigroup 0 0\ngenerators\n":
        "ERR validation header 'semigroup 0 0' needs n >= 1 and k >= 1\n",
    "semigroup -1 0\n": "ERR validation header 'semigroup -1 0' needs n >= 1 and k >= 1\n",
}


@pytest.mark.parametrize("argv, files", [
    (["entropy", "P", "--nmax", "100"], {}),
    (["entropy", "P", "--nmax", "0"], {}),
    (["block", "P", "0"], {}),
    (["cover", "P", "H", "spec"], {"spec": "z a\nextra c\n"}),
    (["cover", "P", "H", "spec"], {"spec": "e ab\nextra c\n"}),
    (["cover", "P", "H", "spec"], {"spec": "e\nz a\n"}),
    (["syntactic", "P"], {"P": "presentation\n"}),
    (["green", "H"], {"H": "semigroup\n"}),
    (["green", "H"], {"H": "semigroup 2\n0 1\n1 0\ngenerators 1\n"}),
    (["green", "H"], {"H": "semigroup 2 1\n0 1\n1 0\ngenerators 2\n"}),
    (["green", "H"], {"H": "semigroup 2 1\n0 1\n1 0\ngenerators -1\n"}),
    (["idempotent", "P", "0", "H"], {"H": "semigroup 2 2\n0 1\n1 0\ngenerators 0 5\n"}),
    (["green", "H"], {"H": "semigroup 2 1\n0 1\n1 0\ngenerators 1\nzero\n"}),
    (["green", "H"], {"H": "semigroup 2 1\n0 1\n1 0\ngenerators 1\nidentity\n"}),
    (["nope"], {}),
    (["syntactic"], {}),
    (["block", "P", "0", "1"], {}),
    (["--cap", "x", "syntactic", "P"], {}),
    (["idempotent", "P", "zero"], {}),
    (["entropy", "P", "--nmax", "1.5"], {}),
    (["entropy", "P", "--tol", "small"], {}),
    (["--format", "xml", "green", "H"], {}),
    (["aggm", "P", "--verbose"], {}),
    (["entropy", "P", "--tol"], {}),
    *((["green", "H"], {"H": text}) for text in HEADER_ERRORS),
    (["fischer", "P"], {"P": "presentation 1 a a\nedge 0 a 0\n"}),
])
def test_malformed_input_prints_err(capsys, tmp_path, argv, files):
    texts = {"P": GM_TEXT, "H": Z2_TEXT, **files}
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    code, out = run(capsys, [str(tmp_path / a) if a in texts else a for a in argv])
    assert code in (1, 2)
    assert out.startswith("ERR ")
    assert out == HEADER_ERRORS.get(files.get("H"), out)


def test_more_states_than_edges_is_not_strongly_connected(tmp_path):
    """A billion states with one edge is rejected before any per-state list
    is built; run under a 400 MB address-space limit, so a regression ends
    in a MemoryError there instead of in this process."""
    path = tmp_path / "huge.pres"
    path.write_text("presentation 1000000000 a\nedge 0 a 0\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import sys; from soficsemi.cli import main; sys.exit(main(sys.argv[1:]))"
    limit = (400 << 20, 400 << 20)
    out = subprocess.run(
        [sys.executable, "-c", code, "syntactic", str(path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit),
    )
    assert out.returncode == 1, out.stderr
    assert out.stdout == "ERR validation presentation graph is not strongly connected\n"


def test_trace_hooks_see_one_parser_and_one_handler_call(capsys, gm_path, monkeypatch):
    """`bench/layers.py` rebinds `make_parser` and the `cmd_*` handlers in
    this module; `main` must reach both through the module each time."""
    calls = {"make_parser": 0, "cmd_syntactic": 0}
    for name in calls:
        body = getattr(cli, name)

        def counted(*args, body=body, name=name):
            calls[name] += 1
            return body(*args)

        monkeypatch.setattr(cli, name, counted)
    code, _ = run(capsys, ["syntactic", gm_path])
    assert code == 0
    assert calls == {"make_parser": 1, "cmd_syntactic": 1}


def test_cover_alpha_outside_the_maximal_subgroup(capsys, tmp_path):
    for name, text in {"gm.pres": GM_TEXT, "Z2.sg": Z2_TEXT,
                       "spec": "e ab\nz a\nextra c\nalpha a a\n"}.items():
        (tmp_path / name).write_text(text)
    code, out = run(capsys, ["cover", *(str(tmp_path / n) for n in ("gm.pres", "Z2.sg", "spec"))])
    assert code == 1
    assert out == ("ERR validation hypothesis 'alpha' violated: the image of a is not in "
                   "the maximal subgroup K at e\n")


@pytest.mark.parametrize("spec, line", [
    ("e ab\nz a\nextra c\nalhpa a\n", "line 4: unknown key 'alhpa'"),  # was ignored
    ("e ab\nz a\ne b\nextra c\n", "line 3: repeated key 'e'"),  # the second e won
    ("e ab\nz a\nextr c\n", "line 3: unknown key 'extr'"),  # failed on the alphabet
])
def test_cover_spec_rejects_unknown_and_repeated_keys(capsys, tmp_path, spec, line):
    for name, text in {"gm.pres": GM_TEXT, "Z2.sg": Z2_TEXT, "spec": spec}.items():
        (tmp_path / name).write_text(text)
    code, out = run(capsys, ["cover", *(str(tmp_path / n) for n in ("gm.pres", "Z2.sg", "spec"))])
    assert code == 1
    assert out == f"ERR validation cover spec {line}\n"


@pytest.mark.parametrize("key, lines", [
    ("zero", "zero 0\nzero 1\n"),  # 0 is not a zero; the last line won
    ("identity", "identity 1\nidentity 0\n"),
    ("generators", "generators 1 0\n"),
])
def test_semigroup_rejects_repeated_lines(capsys, tmp_path, key, lines):
    sg = tmp_path / "sl.sg"
    sg.write_text("semigroup 2 2\n0 1\n1 1\ngenerators 0 1\n" + lines)
    code, out = run(capsys, ["green", str(sg)])
    assert code == 1
    assert out == f"ERR validation repeated '{key}' line\n"


def test_cap_exit_code(capsys, tmp_path, gm_path):
    h = tmp_path / "z2.sg"
    h.write_text("semigroup 2 1\n0 1\n1 0\ngenerators 1\nidentity 0\n")
    spec = tmp_path / "cover.spec"
    spec.write_text("e ab\nz a\nextra c\n")
    code, out = run(capsys, ["--cap", "5", "cover", gm_path, str(h), str(spec)])
    assert code == 2
    assert out.startswith("ERR cap")


@pytest.mark.parametrize("verb", [["syntactic"], ["aggm"], ["fischer"], ["idempotent", "0"]])
def test_cap_binds_on_every_closure(capsys, gm_path, verb):
    """The golden mean's syntactic semigroup has 5 elements, so --cap 3 stops
    the closure of every verb that builds it."""
    code, out = run(capsys, ["--cap", "3", verb[0], gm_path, *verb[1:]])
    assert code == 2
    assert out.startswith("ERR cap")


def test_cap_counts_generators(capsys, tmp_path):
    """The full shift's syntactic semigroup is its one distinct generator,
    which counts against the cap like every other element. The CLI takes no
    cap below 1, so cap 0 is passed to the closure directly."""
    p = tmp_path / "full2.pres"
    p.write_text(format_presentation(full_shift(2)))
    with pytest.raises(CapExceeded):
        syntactic.syntactic_semigroup(full_shift(2), cap=0)
    code, out = run(capsys, ["--cap", "1", "syntactic", str(p)])
    assert code == 0
    assert out.startswith("semigroup_size 1\n")


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_cap_below_one_is_a_usage_error(capsys, gm_path, cap):
    code, out = run(capsys, ["--cap", cap, "syntactic", gm_path])
    assert code == 2
    assert out == f"ERR usage --cap: invalid positive_int value '{cap}'\n"


def test_block_and_witness_honour_the_cap(capsys, tmp_path):
    """The even shift's 3-block recoding has 5 states, one for each path of
    2 edges, so --cap 4 stops it before it is built; its witness recodes to
    blocks of length 1, on its 2 states."""
    p = tmp_path / "even.pres"
    p.write_text(format_presentation(even_shift()))
    code, out = run(capsys, ["--cap", "4", "block", str(p), "3"])
    assert (code, out) == (2, "ERR cap closure exceeded cap 4 (higher-block states)\n")
    code, out = run(capsys, ["--cap", "5", "block", str(p), "3"])
    assert code == 0 and out.startswith("presentation 5 ")
    code, out = run(capsys, ["--cap", "1", "witness", str(p)])
    assert (code, out) == (2, "ERR cap closure exceeded cap 1 (higher-block states)\n")
    code, out = run(capsys, ["--cap", "2", "witness", str(p)])
    assert code == 0 and "block_length 1\n" in out


def test_long_block_ends_in_err_cap(tmp_path):
    """The 40-block recoding of the even shift has about 10^8 states; run
    under a 400 MB address-space limit, it ends in ERR cap before building
    any of them, not in a MemoryError."""
    path = tmp_path / "even.pres"
    path.write_text(format_presentation(even_shift()))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import sys; from soficsemi.cli import main; sys.exit(main(sys.argv[1:]))"
    limit = (400 << 20, 400 << 20)
    out = subprocess.run(
        [sys.executable, "-c", code, "block", str(path), "40"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit),
    )
    assert out.returncode == 2, out.stderr
    assert out.stdout == "ERR cap closure exceeded cap 2000000 (higher-block states)\n"
    assert out.stderr == ""


def test_every_verb_emits_json(capsys, tmp_path, gm_path):
    """Under --format json every verb prints one JSON object: `green` the
    counts of `syntactic`, `fischer` and `block` their presentation text,
    `cover` its report and its cover text, each as the TSV output has it."""
    sg = tmp_path / "gm.sg"
    sg.write_text(format_semigroup(syntactic.syntactic_semigroup(golden_mean()).semigroup))
    h = tmp_path / "z2.sg"
    h.write_text("semigroup 2 1\n0 1\n1 0\ngenerators 1\nidentity 0\n")
    spec = tmp_path / "cover.spec"
    spec.write_text("e ab\nz a\nextra c\n")
    argvs = {
        "syntactic": ["syntactic", gm_path],
        "green": ["green", str(sg)],
        "aggm": ["aggm", gm_path],
        "fischer": ["fischer", gm_path],
        "block": ["block", gm_path, "2"],
        "witness": ["witness", gm_path],
        "entropy": ["entropy", gm_path, "--nmax", "6"],
        "idempotent": ["idempotent", gm_path, "0"],
        "cover": ["cover", gm_path, str(h), str(spec)],
    }
    assert set(argvs) == set(cli.make_parser()) - {None}
    tsv, objects = {}, {}
    for verb, argv in argvs.items():
        code, tsv[verb] = run(capsys, argv)
        assert code == 0, verb
        code, out = run(capsys, ["--format", "json", *argv])
        assert code == 0, verb
        assert out.endswith("}\n") and out.count("\n") == 1, verb
        objects[verb] = json.loads(out)
        assert isinstance(objects[verb], dict), verb
    assert objects["green"] == objects["syntactic"]
    for verb in ("fischer", "block"):
        assert objects[verb] == {"presentation": tsv[verb]}
    report = dict(objects["cover"])
    cover_text = report.pop("cover")
    pairs = "".join(f"{k} {str(v).lower() if isinstance(v, bool) else v}\n"
                    for k, v in sorted(report.items()))
    assert tsv["cover"] == pairs + cover_text


def eggbox_by_cell_scan(S):
    """The eggbox printed by rescanning the J-class for every cell: the
    oracle for the bucketed version."""
    g = S.green()
    order = sorted(
        range(len(g.j_classes)), key=lambda c: (len(j_below_set(g, c)), min(g.j_classes[c]))
    )
    out = []
    for c in order:
        elems = g.j_classes[c]
        regular = "true" if g.regular[c] else "false"
        out.append(f"jclass {c} regular={regular} size={len(elems)}")
        r_ids = sorted({g.r_class[x] for x in elems}, key=lambda r: min(g.r_classes[r]))
        l_ids = sorted({g.l_class[x] for x in elems}, key=lambda l: min(g.l_classes[l]))
        for r in r_ids:
            cells = []
            for l in l_ids:
                cell = [x for x in elems if g.r_class[x] == r and g.l_class[x] == l]
                cells.append(",".join(str(x) for x in cell) if cell else "-")
            out.append("  row " + " | ".join(cells))
    return "\n".join(out) + "\n"


def test_eggbox_matches_cell_scan(capsys):
    from corpus import corpus_presentations, random_presentation

    presentations = [P for _, P in corpus_presentations()]
    presentations += [random_presentation(seed, 5, "abc") for seed in range(6)]
    for P in presentations:
        S = syntactic.syntactic_semigroup(P).semigroup
        _print_eggbox(S)
        assert capsys.readouterr().out == eggbox_by_cell_scan(S)


def test_eggbox_matches_bucketed_oracle(capsys, tmp_path):
    """`syntactic` and `green` print the eggbox of `oracles.eggbox_by_buckets`
    byte for byte: on the corpus and the .sg files of its semigroups, on
    anchor seeds 47, 22 and 159, and on the .sg files of the S' of the Z3
    and Z4 even-shift covers."""
    from corpus import corpus_presentations, cyclic_group, even_shift
    from soficsemi import build_cover, parse_semigroup

    def verb_output(verb, name, text):
        path = tmp_path / name
        path.write_text(text)
        assert main([verb, str(path)]) == 0
        return capsys.readouterr().out

    presentations = corpus_presentations()
    presentations += [(f"a{seed}", random_presentation(seed, states, "abc"))
                      for seed, states in ((47, 10), (22, 10), (159, 18))]
    for name, P in presentations:
        S = syntactic.syntactic_semigroup(P).semigroup
        out = verb_output("syntactic", name + ".pres", format_presentation(P))
        pairs = "".join(line + "\n" for line in out.splitlines()[:5])
        assert pairs.startswith(f"semigroup_size {S.n}\n") and "regular_j_classes " in pairs
        assert out == pairs + eggbox_by_buckets(S), name
        if S.n <= 300:
            text = format_semigroup(S)
            assert verb_output("green", name + ".sg", text) == eggbox_by_buckets(
                parse_semigroup(text)), name
    D = syntactic.syntactic_semigroup(even_shift(), extra_letters=("c",))
    for k in (3, 4):
        s_prime = build_cover(D, cyclic_group(k), [0] * k, ("a", "b", "b"), ("a",)).s_prime
        text = format_semigroup(s_prime)
        expected = eggbox_by_buckets(parse_semigroup(text))
        assert verb_output("green", f"even-z{k}.sg", text) == expected
        _print_eggbox(s_prime)
        assert capsys.readouterr().out == expected == eggbox_by_buckets(s_prime)


def test_bound_digits_without_str():
    """Bounds above str()'s 4300-digit limit print as ~10^(digits - 1)."""
    assert _format_bound(10 ** 5000) == "~10^5000"
    assert _format_bound(10 ** 5000 - 1) == "~10^4999"
    assert _format_bound(7 ** 9000) == f"~10^{int(9000 * math.log10(7))}"
    assert _format_bound(10 ** 40 - 1) == 10 ** 40 - 1
    assert _format_bound(10 ** 40) == "~10^40"
    for k in range(1, 4000, 7):
        for n in (2 ** k - 1, 2 ** k, 10 ** (k // 3), 10 ** (k // 3) - 1 or 1, 3 ** k):
            expect = n if n < 10 ** 40 else f"~10^{len(str(n)) - 1}"
            assert _format_bound(n) == expect
