"""The CLI's verb-table parser against the argparse parser it replaced.

`oracle_parser` is the argparse definition of the command line, kept here
unchanged as the reference: on well-formed argv both parsers must give the
handler the same attributes, and argv the oracle rejects must end in
`ERR usage` with exit 2.
"""

import argparse

import pytest

from corpus import even_shift
from soficsemi import cli
from soficsemi.cli import (
    DEFAULT_CAP,
    cmd_aggm,
    cmd_block,
    cmd_cover,
    cmd_entropy,
    cmd_fischer,
    cmd_green,
    cmd_idempotent,
    cmd_syntactic,
    cmd_witness,
    main,
)
from soficsemi.shiftspace import format_presentation


def at_least_one(value):
    if int(value) < 1:
        raise ValueError(value)
    return int(value)


def oracle_parser():
    ap = argparse.ArgumentParser(prog="soficsemi")
    ap.add_argument("--format", choices=("tsv", "json"), default="tsv")
    ap.add_argument("--cap", type=at_least_one, default=DEFAULT_CAP)
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("syntactic")
    p.add_argument("presentation")
    p.set_defaults(func=cmd_syntactic)

    p = sub.add_parser("green")
    p.add_argument("semigroup")
    p.set_defaults(func=cmd_green)

    p = sub.add_parser("aggm")
    p.add_argument("presentation")
    p.set_defaults(func=cmd_aggm)

    p = sub.add_parser("fischer")
    p.add_argument("presentation")
    p.set_defaults(func=cmd_fischer)

    p = sub.add_parser("block")
    p.add_argument("presentation")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_block)

    p = sub.add_parser("witness")
    p.add_argument("presentation")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("entropy")
    p.add_argument("presentation")
    p.add_argument("--nmax", type=int, default=12)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("idempotent")
    p.add_argument("presentation")
    p.add_argument("vertex", type=int)
    p.add_argument("semigroup", nargs="?", default=None)
    p.set_defaults(func=cmd_idempotent)

    p = sub.add_parser("cover")
    p.add_argument("presentation")
    p.add_argument("group")
    p.add_argument("spec")
    p.set_defaults(func=cmd_cover)

    return ap


def by_name(args):
    fields = dict(vars(args))
    fields["func"] = fields["func"].__name__
    return fields


def parse(argv):
    return cli.parse_args(cli.make_parser(), argv)


WELL_FORMED = [
    ["syntactic", "P"],
    ["green", "S"],
    ["aggm", "P"],
    ["fischer", "P"],
    ["block", "P", "2"],
    ["witness", "P"],
    ["entropy", "P"],
    ["idempotent", "P", "0"],
    ["idempotent", "P", "1", "S"],
    ["cover", "P", "H", "spec"],
    ["--format", "json", "--cap", "50", "syntactic", "P"],
    ["--cap=7", "aggm", "P"],
    ["--format=json", "idempotent", "P", "0", "S"],
    ["--format", "json", "--format", "tsv", "fischer", "P"],
    ["--cap", "3", "cover", "P", "H", "spec"],
    ["entropy", "P", "--nmax=6"],
    ["entropy", "--tol", "1e-3", "P"],
    ["--format", "json", "entropy", "--nmax", "-2", "P", "--tol=0.5"],
    ["entropy", "P", "--tol", "-.5"],
    ["block", "P", "-1"],
    ["idempotent", "P", "-1"],
    ["syntactic", "-"],
    ["green", "syntactic"],
]

MALFORMED = [
    [],
    ["nope"],
    ["syntactic"],
    ["syntactic", "P", "Q"],
    ["block", "P"],
    ["block", "P", "x"],
    ["idempotent", "P", "v"],
    ["idempotent", "P", "0", "S", "T"],
    ["cover", "P", "H"],
    ["--cap", "x", "syntactic", "P"],
    ["--cap=", "syntactic", "P"],
    ["entropy", "P", "--nmax", "x"],
    ["entropy", "P", "--tol", "x"],
    ["--format", "xml", "syntactic", "P"],
    ["syntactic", "P", "--bogus"],
    ["-x", "syntactic", "P"],
    ["syntactic", "P", "--cap", "5"],
    ["--nmax", "6", "entropy", "P"],
    ["--cap"],
    ["entropy", "P", "--nmax"],
    ["entropy", "P", "--tol", "--nmax", "6"],
    ["--cap", "-3", "cover", "P", "H", "spec"],
    ["--cap", "0", "syntactic", "P"],
]

HELP = [["-h"], ["--help"], ["syntactic", "-h"], ["--cap", "5", "entropy", "P", "--help"]]

# argparse accepted unambiguous prefixes of a flag and the `--` separator;
# the table parser accepts only the flags as written and reports the rest.
DELIBERATE_DIFFERENCES = [
    ["--form", "json", "syntactic", "P"],
    ["--ca", "5", "syntactic", "P"],
    ["entropy", "P", "--nm", "6"],
    ["syntactic", "--", "P"],
]


# argparse read a negative number with an exponent, or -inf, after a flag as
# a flag; the table parser takes any token that parses as the flag's type as
# its value, so the value reaches the verb's range check.
NEGATIVE_VALUES = [
    ["entropy", "PRES", "--tol", "-1e-3"],
    ["entropy", "PRES", "--tol", "-inf"],
]


@pytest.mark.parametrize("argv", WELL_FORMED)
def test_well_formed_argv_parses_as_the_oracle(argv):
    assert by_name(parse(argv)) == by_name(oracle_parser().parse_args(argv))


@pytest.mark.parametrize("argv", MALFORMED)
def test_argv_the_oracle_rejects_ends_in_err_usage(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        oracle_parser().parse_args(argv)
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("ERR usage ")
    assert len(captured.out.splitlines()) == 1
    assert captured.err == cli.usage(cli.make_parser()) + "\n"


@pytest.mark.parametrize("argv", HELP)
def test_help_prints_the_usage_text(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        oracle_parser().parse_args(argv)
    assert exc.value.code == 0
    capsys.readouterr()
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert text == cli.usage(cli.make_parser()) + "\n"
    for verb in ("syntactic", "green", "aggm", "fischer", "block", "witness"):
        assert f"\n  {verb} " in text
    assert "  entropy PRESENTATION [--nmax N] [--tol X]\n" in text
    assert "  idempotent PRESENTATION VERTEX [SEMIGROUP]\n" in text


@pytest.mark.parametrize("argv", DELIBERATE_DIFFERENCES)
def test_deliberate_differences_from_argparse(capsys, argv):
    oracle_parser().parse_args(argv)
    assert main(argv) == 2
    assert capsys.readouterr().out.startswith("ERR usage ")


@pytest.mark.parametrize("argv", NEGATIVE_VALUES)
def test_negative_values_reach_the_range_check(capsys, tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        oracle_parser().parse_args(argv)
    assert exc.value.code == 2
    capsys.readouterr()
    path = tmp_path / "even.pres"
    path.write_text(format_presentation(even_shift()))
    assert main([str(path) if arg == "PRES" else arg for arg in argv]) == 1
    assert capsys.readouterr().out == (
        f"ERR validation tol must be a finite number in (0, 1), got {float(argv[-1])}\n")


def test_main_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["soficsemi", "--help"])
    assert main() == 0
    assert capsys.readouterr().out.startswith("usage: soficsemi ")
