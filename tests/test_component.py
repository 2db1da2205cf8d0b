"""The syntactic semigroup closed on the terminal live component of the
factor DFA, and the Fischer cover read off that action, against the closure
on every DFA state and the cover from Green's structure in `oracles`."""

import hashlib

import pytest

from corpus import (
    chain_semilattice,
    corpus_presentations,
    even_shift,
    full_shift,
    golden_mean,
    group_with_zero,
    random_presentation,
)
from oracles import (
    dfa_state_closure,
    first_unseparated_by_scan,
    schutzenberger_cover,
)
from soficsemi import cli, finsemi, syntactic
from soficsemi.shiftspace import format_presentation, parse_presentation
from soficsemi.syntactic import (
    _language_dfa,
    close_on_component,
    first_unseparated,
    fischer_cover,
    syntactic_semigroup,
)
from test_pipeline_fuzz import spanning_cycle_presentation

ANCHORS = {47: 10, 22: 10, 159: 18}  # anchor seed: states, over abc
A159_FISCHER_SHA256 = "0afd137c93a418fe591b9cdd018ab62fed4833b2a4e23fda640e081fb42618e9"


def fuzz_presentations(count=12):
    """The inputs of the pipeline fuzz test, in its order."""
    found, seed = [], 0
    while len(found) < count:
        seed += 1
        P = spanning_cycle_presentation(seed)
        if P is not None:
            found.append(P)
    return found


def inputs():
    """(name, presentation, extra letters): the corpus, the anchors, the
    fuzz inputs and the extra-letter closures of the `cover` inputs."""
    cases = [(name, P, ()) for name, P in corpus_presentations()]
    cases += [(f"a{seed}", random_presentation(seed, n, "abc"), ())
              for seed, n in ANCHORS.items()]
    cases += [(f"fuzz{i}", P, ()) for i, P in enumerate(fuzz_presentations())]
    cases += [(f"{name}+c", P, ("c",))
              for name, P in (("even", even_shift()), ("golden_mean", golden_mean()),
                              ("full2", full_shift(2)))]
    return cases


CASES = inputs()


@pytest.mark.parametrize("name, P, extra", CASES, ids=[c[0] for c in CASES])
def test_component_closure_matches_the_dfa_state_closure(name, P, extra):
    """The same elements in the same order: the same generators, right
    Cayley graph and zero."""
    D = syntactic_semigroup(P, extra_letters=extra)
    S, zero = dfa_state_closure(P, extra_letters=extra)
    assert (D.semigroup.n, D.semigroup.generators) == (S.n, S.generators)
    assert D.semigroup._cols == S._cols
    assert D.zero == zero
    assert D.dfa.dead_state() not in D.states


UNSORTED = [
    ("b-a-golden", "presentation 2 b a\nedge 0 a 0\nedge 0 b 1\nedge 1 a 0\n"),
    ("b-a-full", "presentation 1 b a\nedge 0 b 0\nedge 0 a 0\n"),
]


@pytest.mark.parametrize("name, P, extra", CASES + [
    (name, parse_presentation(text), ()) for name, text in UNSORTED
], ids=[c[0] for c in CASES] + [name for name, _ in UNSORTED])
def test_fischer_cover_matches_the_schutzenberger_graph(name, P, extra):
    """`fischer` prints the bytes of the right-action graph on the R-class
    of the distinguished class's least idempotent, |S| = 1 included."""
    D = syntactic_semigroup(P, extra_letters=extra)
    assert format_presentation(fischer_cover(D)) == format_presentation(schutzenberger_cover(D))


def test_fischer_needs_no_green_structure_or_aggm_test(capsys, monkeypatch, tmp_path):
    """`fischer` on anchor 159 builds no Green's structure and runs no AGGM
    test, and prints the same bytes as before."""
    def refuse(*args):
        raise AssertionError("not on the fischer path")

    monkeypatch.setattr(finsemi, "green_structure", refuse)
    monkeypatch.setattr(syntactic, "is_aggm", refuse)
    path = tmp_path / "a159.pres"
    path.write_text(format_presentation(random_presentation(159, ANCHORS[159], "abc")))
    assert cli.main(["fischer", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == A159_FISCHER_SHA256


def unseparated_without_gate(S):
    """`aggm_backward_check`'s separation step on S, AGGM or not: its letters
    closed on the minimal DFA of the words with non-zero image."""
    alphabet = tuple(chr(97 + i) for i in range(len(S.generators)))
    T, _ = close_on_component(_language_dfa(S, alphabet).minimize())
    return first_unseparated(S, T)


def test_first_unseparated_matches_the_context_scan():
    semigroups = [syntactic_semigroup(P).semigroup for _, P in corpus_presentations()]
    semigroups = [S for S in semigroups if S.n > 1]
    for S in semigroups:
        assert unseparated_without_gate(S) is None
        assert first_unseparated_by_scan(S) is None
    for S in (group_with_zero(2), group_with_zero(3), chain_semilattice()):
        assert unseparated_without_gate(S) == first_unseparated_by_scan(S)
    assert unseparated_without_gate(group_with_zero(2)) == (0, 1)
