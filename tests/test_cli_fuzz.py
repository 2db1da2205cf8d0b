"""Property test over the parsers and the CLI.

Token soups in the shape of `.pres`, `.sg` and `.spec` files (header words,
letters and integers in -2..6, mostly well formed, then garbled token by
token) are fed to the verbs that read them, and argv itself is drawn as a
soup of verbs, flags, numbers, junk and valid file paths. Every run must end
in exit 0, 1 or 2, a non-zero exit must print an `ERR` line, and no
exception may escape `main`.
"""

import contextlib
import io
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from soficsemi.cli import main  # noqa: E402

KEYWORDS = ("presentation", "semigroup", "edge", "generators", "zero", "identity",
            "e", "z", "alpha", "extra")


def often(common, rare):
    """Draws from `common` seven times in eight, else from `rare`."""
    return st.sampled_from((common,) * 7 + (rare,)).flatmap(lambda strategy: strategy)


INTS = st.integers(-2, 6)
LETTERS = often(st.sampled_from(("a", "b")), st.just("c"))
TOKENS = st.sampled_from(KEYWORDS) | LETTERS | INTS


@st.composite
def garbled(draw, lines):
    """The text of `lines` after up to three token edits: replace, insert
    or delete one token, or add a line of tokens."""
    lines = [list(line) for line in lines]
    for _ in range(draw(often(st.just(0), st.integers(1, 3)))):
        i = draw(st.integers(0, len(lines)))
        if i == len(lines):
            lines.append(draw(st.lists(TOKENS, max_size=4)))
            continue
        j = draw(st.integers(0, len(lines[i])))
        op = draw(st.sampled_from(("replace", "insert", "delete")))
        if op == "insert" or j == len(lines[i]):
            lines[i].insert(j, draw(TOKENS))
        elif op == "replace":
            lines[i][j] = draw(TOKENS)
        else:
            del lines[i][j]
    return "".join(" ".join(map(str, line)) + "\n" for line in lines)


@st.composite
def presentation_text(draw):
    """A cycle through every state (so most drafts are irreducible) plus
    random edges."""
    n = draw(often(st.integers(1, 3), INTS))
    state = often(st.integers(0, max(n - 1, 0)), INTS)
    edges = [(i, draw(LETTERS), (i + 1) % n) for i in range(n)]
    edges += draw(st.lists(st.tuples(state, LETTERS, state), max_size=4))
    header = ["presentation", n, *sorted({a for _, a, _ in edges})]
    return draw(garbled([header] + [["edge", *e] for e in edges]))


@st.composite
def semigroup_text(draw):
    n = draw(often(st.integers(1, 2), INTS))
    rows = [draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n))
            for _ in range(max(n, 0))]
    gens = draw(st.lists(often(st.integers(0, max(n - 1, 0)), INTS), min_size=1, max_size=2))
    lines = [["semigroup", n, len(gens)], *rows, ["generators", *gens]]
    lines += draw(st.lists(st.tuples(st.sampled_from(("zero", "identity")), INTS), max_size=1))
    return draw(garbled(lines))


WORDS = st.sampled_from(("a", "b", "ab", "ba", "abb", "c"))


@st.composite
def spec_text(draw):
    lines = [["e", draw(WORDS)], ["z", draw(WORDS)], ["extra", "c"]]
    lines += draw(st.lists(st.tuples(st.just("alpha"), WORDS, WORDS), max_size=1))
    return draw(garbled(lines))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    verb=st.sampled_from(("syntactic", "green", "block", "entropy", "witness", "cover")),
    pres=presentation_text(),
    sg=semigroup_text(),
    spec=spec_text(),
    n=INTS,
)
def test_cli_on_token_soups(verb, pres, sg, spec, n):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in (("P", pres), ("S", sg), ("spec", spec)):
            paths[name] = os.path.join(tmp, name)
            with open(paths[name], "w") as fh:
                fh.write(text)
        argv = {
            "syntactic": ["syntactic", paths["P"]],
            "green": ["green", paths["S"]],
            "block": ["block", paths["P"], str(n)],
            "entropy": ["entropy", paths["P"], "--nmax", str(n)],
            "witness": ["witness", paths["P"]],
            "cover": ["--cap", "500", "cover", paths["P"], paths["S"], paths["spec"]],
        }[verb]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
    assert code in (0, 1, 2)
    if code:
        assert any(line.startswith("ERR") for line in out.getvalue().splitlines())


VERBS = ("syntactic", "green", "aggm", "fischer", "block", "witness", "entropy",
         "idempotent", "cover")
FLAGS = ("--format", "--cap", "--nmax", "--tol", "-h", "--help", "--format=json",
         "--cap=3", "--nmax=4", "--tol=1e-3")
JUNK = ("", "-", "--", "-x", "--bogus", "xml", "tsv", "json", "nope", "1e-3", "-.5", "=",
        "--cap=", "--nm")


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    """A valid presentation, semigroup and cover spec, for argv to name."""
    tmp = tmp_path_factory.mktemp("argv")
    texts = {"gm.pres": "presentation 2 a b\nedge 0 a 0\nedge 0 b 1\nedge 1 a 0\n",
             "z2.sg": "semigroup 2 1\n0 1\n1 0\ngenerators 1\nidentity 0\n",
             "cover.spec": "e ab\nz a\nextra c\n"}
    for name, text in texts.items():
        (tmp / name).write_text(text)
    return [str(tmp / name) for name in texts]


ARGV_TOKENS = (st.sampled_from(VERBS) | st.sampled_from(FLAGS) | INTS.map(str)
               | st.floats(-2, 2).map(str) | st.sampled_from(JUNK)
               | st.integers(0, 2))  # an integer here stands for a corpus file


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(argv=often(st.tuples(st.sampled_from(VERBS), st.integers(0, 2),
                            st.lists(ARGV_TOKENS, max_size=4)).map(lambda t: [t[0], t[1], *t[2]]),
                  st.lists(ARGV_TOKENS, max_size=6)))
def test_cli_on_argv_soups(corpus_files, argv):
    """Token soups of verbs, flags, numbers, junk and corpus file paths as argv."""
    argv = [corpus_files[t] if isinstance(t, int) else t for t in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
    if code:
        assert any(line.startswith("ERR") for line in out.getvalue().splitlines())
