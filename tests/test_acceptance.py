"""Acceptance suite: one criterion per test, one pass/fail line each.

Each criterion pins its tolerance and time budget; failures print the
criterion number so the run is auditable at a glance.
"""

import contextlib
import hashlib
import io
import itertools
import math
import random
import time

import pytest

from corpus import (
    chain_semilattice,
    corpus_presentations,
    cyclic_group,
    even_shift,
    full_shift,
    golden_mean,
    golden_mean_syntactic_table,
    group_with_zero,
    period2_syntactic_table,
    period_shift,
    random_presentation,
    random_transformation_semigroup,
    trivial_semigroup,
)
from soficsemi import (
    PartialTransformation,
    SemigroupMorphism,
    aggm_backward_check,
    aggm_forward_check,
    build_cover,
    check_sync_delay,
    close_generators,
    complexity,
    entropy_estimate,
    entropy_gap_check,
    evaluate_zimin,
    factor_dfa,
    fischer_cover,
    format_semigroup,
    higher_block,
    image_apex,
    is_aggm,
    lift_jclass,
    loop_language,
    syntactic_semigroup,
    wreath_product_0simple_check,
)
from soficsemi.cli import main
from soficsemi.errors import NotAGGM
from soficsemi.shiftspace import format_presentation, is_primitive
from soficsemi.zimin import in_minimal_ideal
from oracles import eta, preimage_completeness_check
from test_finsemi import action_quotient, assert_green_matches_oracle

GOLDEN_ENTROPY = math.log2((1 + math.sqrt(5)) / 2)


def report(number, label, ok=True, note=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status} {label}" + (f" ({note})" if note else ""))
    assert ok, f"criterion {number}: {label}"


def test_criterion_1_aggm_equivalence():
    start = time.time()
    for name, P in corpus_presentations():
        rep = aggm_forward_check(P)
        assert rep["is_aggm"], name
    hand_built = [
        (trivial_semigroup(), full_shift(1)),
        (chain_semilattice(), period_shift(1)),  # a+ inside a two-letter alphabet
        (period2_syntactic_table(), period_shift(2)),
        (golden_mean_syntactic_table(), golden_mean()),
        (
            close_generators(
                [  # even-shift letter actions on its 4-state minimal automaton
                    PartialTransformation((1, 1, 3, 3)),
                    PartialTransformation((0, 2, 1, 3)),
                ]
            ),
            even_shift(),
        ),
    ]
    for S, reference in hand_built:
        dfa, rep = aggm_backward_check(S)
        assert rep["is_aggm"]
        if reference is not None:
            assert factor_dfa(reference).equivalent(dfa)
        if S.n > 1:
            # reconstructed language is factorial and irreducible at word level
            words = dfa.words_up_to(6)
            wset = set(words)
            for w in words:
                for i in range(len(w)):
                    for j in range(i + 1, len(w) + 1):
                        if 0 < j - i < len(w):
                            assert w[i:j] in wset
            short = [w for w in words if len(w) <= 2]
            glue = [w for w in words if len(w) <= 4] + [()]
            for u in short:
                for v in short:
                    assert any(
                        len(u + m + v) <= 10 and dfa.accepts(u + m + v) for m in glue
                    ), (u, v)
    with pytest.raises(NotAGGM):
        aggm_backward_check(group_with_zero(2))
    elapsed = time.time() - start
    report(1, "AGGM equivalence on corpus and hand-built inputs",
           elapsed <= 10, f"{elapsed:.1f}s")


def test_criterion_2_computable_idempotent():
    start = time.time()
    for name, P in corpus_presentations():
        D = syntactic_semigroup(P)
        ok, j = is_aggm(D.semigroup)
        assert ok
        for v in range(P.n_states):
            T = loop_language(P, v)
            res = evaluate_zimin(T, D.semigroup, D.letter_map)
            assert D.semigroup.is_idempotent(res.value), name
            assert in_minimal_ideal(D.semigroup, res.image, res.value), name
            assert res.stop_index <= res.bound, name
            assert res.value in j, name
    elapsed = time.time() - start
    report(2, "computable idempotent lands in the distinguished class",
           elapsed <= 5, f"{elapsed:.1f}s")


def test_criterion_3_cover_construction():
    start = time.time()
    # instance A: alpha = id (trivial kernel)
    D1 = syntactic_semigroup(golden_mean(), extra_letters=("c",))
    H1 = trivial_semigroup()
    res1 = build_cover(D1, H1, [0], ("a", "b"), ("a",), cap=2_000_000)
    # instance B: |H| = 2 |K|, |N| = 2
    D2 = syntactic_semigroup(even_shift(), extra_letters=("c",))
    H2 = cyclic_group(2)
    res2 = build_cover(D2, H2, [0, 0], ("a", "b", "b"), ("a",), cap=2_000_000)

    for D, res in ((D1, res1), (D2, res2)):
        # rho . eta = phi on all generator words up to length 10
        frontier = [((), None)]
        for _ in range(10):
            nxt = []
            for w, _ in frontier:
                for a in D.alphabet:
                    w2 = w + (a,)
                    assert res.rho[eta(res, w2)] == D.image(w2)
                    nxt.append((w2, None))
            frontier = nxt
        # theta is a group isomorphism onto H with alpha . theta = rho
        assert res.report["theta_iso"] and res.report["alpha_theta_is_rho"]
        assert res.report["subgroup_size"] == res.group_h.n
        # zero criterion on 10^4 sampled words
        rng = random.Random(1)
        for _ in range(10 ** 4):
            w = tuple(rng.choice(D.alphabet) for _ in range(rng.randint(1, 14)))
            assert res.s_prime.names[eta(res, w)].is_zero() == (D.image(w) == D.zero)
        # preimage sets on all language words containing x_n, length <= 8
        xn = D.alphabet[-2]
        for n in range(1, 9):
            for w in itertools.product(D.alphabet[:-1], repeat=n):
                if xn not in w or D.image(w) == D.zero:
                    continue
                blocks, preimages = preimage_completeness_check(res, w)
                assert blocks == preimages, w
    elapsed = time.time() - start
    report(3, "wreath cover with verified subgroup isomorphism",
           elapsed <= 60, f"{elapsed:.1f}s")


def test_criterion_4_entropy():
    start = time.time()
    gm = entropy_estimate(golden_mean(), n_max=24)
    assert abs(gm.value - 0.69424) <= 1e-4
    assert abs(gm.counting - 0.69424) <= 1e-4
    assert abs(entropy_estimate(full_shift(2)).value - 1.0) <= 1e-6
    assert abs(entropy_estimate(full_shift(3)).value - math.log2(3)) <= 1e-6
    for k in (1, 2, 3, 4):
        assert entropy_estimate(period_shift(k)).value == 0.0
    for _, P in corpus_presentations():
        prof = complexity(P, 24)
        for n in range(1, 24):
            for m in range(1, 24 - n + 1):
                assert prof.counts[n + m - 1] <= prof.counts[n - 1] * prof.counts[m - 1]
    assert entropy_gap_check(full_shift(2), golden_mean())
    assert entropy_gap_check(golden_mean(), period_shift(2))
    assert entropy_gap_check(full_shift(2), even_shift())
    elapsed = time.time() - start
    report(4, "entropy by counting and Perron methods", True, f"{elapsed:.1f}s")


def test_criterion_5_higher_block_conjugacy():
    start = time.time()
    for name, P in corpus_presentations():
        d = factor_dfa(P)
        q = d.count_words(8 + 3)
        for N in (1, 2, 3, 4):
            qN = factor_dfa(higher_block(P, N)).count_words(8)
            for n in range(1, 9):
                assert qN[n - 1] == q[n + N - 2], (name, N, n)
    elapsed = time.time() - start
    report(5, "higher-block recoding preserves complexity", True, f"{elapsed:.1f}s")


def test_criterion_6_synchronization():
    start = time.time()
    checked = 0
    for length in (1, 2, 3, 4):
        for u in itertools.product("ab", repeat=length):
            if not is_primitive(u):
                continue
            for m in (1, 2, 3):
                assert check_sync_delay(u, m, 6, alphabet="ab"), (u, m)
                checked += 1
    elapsed = time.time() - start
    report(6, "synchronization of primitive-word powers",
           checked == 66, f"{checked} cases, {elapsed:.1f}s")


def test_criterion_7_green_oracle_and_wreath_structure():
    start = time.time()
    done = 0
    seed = 100
    while done < 20:
        seed += 1
        S = random_transformation_semigroup(seed, 4, 2, cap=40)
        if S.n > 40:
            continue
        assert_green_matches_oracle(S)
        done += 1
    for G in (cyclic_group(2), cyclic_group(3)):
        for b in (1, 2, 3):
            partials = sorted(
                {
                    PartialTransformation(
                        tuple(t if d else None for d in dom), b
                    )
                    for dom in itertools.product([0, 1], repeat=b)
                    for t in range(b)
                },
                key=lambda t: tuple(-1 if v is None else v for v in t.mapping),
            )
            ws = wreath_product_0simple_check(G, partials)
            assert ws.kind == ("simple" if b == 1 and all(t.is_total() for t in partials) else "0-simple")
            totals = [PartialTransformation.constant(b, t) for t in range(b)]
            ws2 = wreath_product_0simple_check(G, totals)
            assert ws2.kind == "simple"
    elapsed = time.time() - start
    report(7, "Green oracle on 20 random semigroups; wreath structure lemma",
           True, f"{elapsed:.1f}s")


def test_criterion_8_lifting_conclusions():
    start = time.time()
    rng = random.Random(8)
    done = 0
    seed = 500
    while done < 10:
        seed += 1
        S = random_transformation_semigroup(seed, 4, 2, cap=40)
        if S.n > 40:
            continue
        phi, T = action_quotient(S, rng)
        if phi is None:
            continue
        gt = T.green()
        regs = [c for c in range(len(gt.j_classes)) if gt.regular[c]]
        lift_jclass(phi, rng.choice(regs))  # asserts conclusions (1)-(4)
        done += 1
    elapsed = time.time() - start
    report(8, "lifting conclusions on 10 random surjections", True, f"{elapsed:.1f}s")


def test_criterion_9_fischer_cover_above_table_limit():
    start = time.time()
    D = syntactic_semigroup(random_presentation(22, 10, "abc"))
    cover = fischer_cover(D)  # checks its own language against the source
    elapsed = time.time() - start
    assert D.semigroup.n == 5546
    report(9, "Fischer cover of a 5546-element syntactic semigroup",
           elapsed <= 10, f"{cover.n_states} states, {elapsed:.1f}s")


def test_criterion_10_aggm_forward_check_time():
    start = time.time()
    rep = aggm_forward_check(random_presentation(47, 10, "abc"))
    elapsed = time.time() - start
    assert rep["semigroup_size"] == 1093
    report(10, "AGGM forward check on a 1093-element syntactic semigroup",
           elapsed <= 5, f"{elapsed:.1f}s")


def test_criterion_11_z6_cover_time():
    start = time.time()
    D = syntactic_semigroup(even_shift(), extra_letters=("c",))
    res = build_cover(D, cyclic_group(6), [0] * 6, ("a", "b", "b"), ("a",))
    elapsed = time.time() - start
    assert res.report == {
        "size": 8704, "p": 37, "m": 1, "ell": 36, "subgroup_size": 6,
        "theta_iso": True, "alpha_theta_is_rho": True,
    }
    digest = hashlib.sha256(res.serialize().encode()).hexdigest()
    assert digest == "2dc0c5118d70575c754268f053dc15ec205354ced1ee77092b13bf4c93b46b17"
    report(11, "Z6 cover of the even shift, 8704 elements, same serialization",
           elapsed <= 3, f"{elapsed:.1f}s")


@pytest.mark.parametrize("shift, k, digest", [
    ("even", 2, "6ba62c910061ab8c7335f82139602107bc5998f30a46f172be89b49895801382"),
    ("even", 3, "d9b48db1249f767c386ce02031a9461bea96a86b757cbb8ce1a08527b8b35466"),
    ("even", 4, "14b293caf8a08a23a1193c7587d5ca134a5e15d636913bdcc4bc3842cc7156e6"),
    ("even", 5, "1a06db96e8e17aefc465bb146fb22291f6a59fa16ef5419c4dca624d8ff9838b"),
    ("golden_mean", 2, "da94f6f8d55dabf619505501384978ff79c75f6f2366cfeda06992e0811dcef3"),
    ("golden_mean", 3, "5e46ba0755853ca581ca188bcaa8355be60a2e067825c2e1d8f270ad3a60fcf6"),
    ("golden_mean", 4, "188826a4c413af6c2c1710bf4149828f3bff07a8d5e68d65a740dec6cf061dbb"),
    ("golden_mean", 5, "0d3de20062cae5de09d518514e688e1456432ee764c1add44775ddd40cb08b96"),
])
def test_criterion_11_cover_stdout(tmp_path, shift, k, digest):
    """The `cover` verb prints the same bytes for H = Z2..Z5 on both shifts."""
    P, e_word = {"even": (even_shift(), "abb"), "golden_mean": (golden_mean(), "ab")}[shift]
    pres, group, spec = tmp_path / "s.pres", tmp_path / "h.sg", tmp_path / "c.spec"
    pres.write_text(format_presentation(P))
    group.write_text(format_semigroup(cyclic_group(k)))
    spec.write_text(f"e {e_word}\nz a\nextra c\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["cover", str(pres), str(group), str(spec)])
    assert code == 0
    ok = hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
    report(11, f"cover of {shift} with Z{k}, same output", ok)


@pytest.mark.parametrize("seed, states, digest", [
    (22, 10, "39eb5970cbae9b614ac71fe1add29eccb4547777d2c51087604c0814bc469515"),
    (159, 18, "f5186a435d584fdac0c5cd8162e6fae84e9689851576fd2a37da091fa879a330"),
])
def test_criterion_12_idempotent_time(tmp_path, seed, states, digest):
    path = tmp_path / f"a{seed}.pres"
    path.write_text(format_presentation(random_presentation(seed, states, "abc")))
    out = io.StringIO()
    start = time.time()
    with contextlib.redirect_stdout(out):
        code = main(["idempotent", str(path), "0"])
    elapsed = time.time() - start
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
    report(12, f"idempotent 0 on anchor seed {seed}, same output", elapsed <= 5,
           f"{elapsed:.1f}s")


def test_criterion_13_syntactic_eggbox_on_anchor_seed_159(tmp_path):
    path = tmp_path / "a159.pres"
    path.write_text(format_presentation(random_presentation(159, 18, "abc")))
    out = io.StringIO()
    start = time.time()
    with contextlib.redirect_stdout(out):
        code = main(["syntactic", str(path)])
    elapsed = time.time() - start
    assert code == 0
    digest = "32d5f0b8cc0e6ac5d0eaa03fae310ec2ac1bebc7af226faeec0d62e3d9e46225"
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
    report(13, "syntactic on anchor seed 159 (12258 elements, 930 J-classes), same output",
           elapsed <= 3, f"{elapsed:.1f}s")


def test_criterion_14_image_apex_on_anchor_seed_22():
    """The apex is read off the J-order; a pairwise search over all pairs of
    elements took over a minute on this input."""
    P = random_presentation(22, 10, "abc")
    D, target = syntactic_semigroup(P), syntactic_semigroup(P).semigroup
    psi = SemigroupMorphism(target, target, tuple(range(target.n)))
    start = time.time()
    found = image_apex(psi, D)
    elapsed = time.time() - start
    assert target is not D.semigroup and target.n == 5546
    assert found == D.semigroup.green().j_class[D.distinguished_class()[0]]
    report(14, "image apex on a 5546-element syntactic semigroup with an equal target",
           elapsed <= 2, f"{elapsed:.1f}s")
