"""The right and left actions along the witness tree, and the wreath
embedding read from them, against brute-force `S.mul` oracles.

The oracles are per-(point, element) loops over `S.mul`."""

import pytest

from corpus import (
    corpus_presentations,
    cyclic_group,
    group_with_zero,
    period2_syntactic_table,
    random_presentation,
    random_transformation_semigroup,
    renumbered_table,
)
from soficsemi import (
    PartialTransformation,
    rees_coordinates,
    syntactic_semigroup,
    wreath_embed,
)
from soficsemi.errors import NotFaithful, NotRegular

ACTION_CASES = {
    "corpus": lambda: [syntactic_semigroup(P).semigroup for _, P in corpus_presentations()],
    "random-presentations": lambda: [
        syntactic_semigroup(random_presentation(seed, states, alphabet)).semigroup
        for seed, states, alphabet in ((1, 5, "ab"), (2, 6, "abc"), (23, 4, "ab"))
    ],
    "transformations": lambda: [
        random_transformation_semigroup(seed, points, 2)
        for seed, points in ((0, 4), (4, 4), (7, 5), (1, 5))
    ],
    "tables": lambda: [
        renumbered_table(period2_syntactic_table(), 0),
        renumbered_table(group_with_zero(3), 1, generators=False),
        renumbered_table(syntactic_semigroup(random_presentation(23, 4)).semigroup, 2),
        renumbered_table(random_transformation_semigroup(7, 4, 2), 3),
        renumbered_table(random_transformation_semigroup(8, 3, 3), 4, generators=False),
        cyclic_group(4),
    ],
}


def right_action_oracle(S, points):
    pos = {x: i for i, x in enumerate(points)}
    return [tuple(pos.get(S.mul(x, s), len(points)) for x in points) for s in range(S.n)]


def left_action_oracle(S, points):
    pos = {x: i for i, x in enumerate(points)}
    return [tuple(pos.get(S.mul(s, x), len(points)) for x in points) for s in range(S.n)]


def rlm_maps_oracle(S, j_id, l_ids):
    g = S.green()
    b_pos = {c: i for i, c in enumerate(l_ids)}
    jset = set(g.j_classes[j_id])
    maps = []
    for s in range(S.n):
        row = [None] * len(l_ids)
        for i, c in enumerate(l_ids):
            targets = set()
            for x in g.l_classes[c]:
                y = S.mul(x, s)
                targets.add(b_pos[g.l_class[y]] if y in jset else None)
            assert len(targets) == 1, (c, s)
            row[i] = targets.pop()
        maps.append(PartialTransformation(tuple(row), len(l_ids)))
    return maps


def wreath_rows_oracle(S, j_id, rees):
    jset = set(S.green().j_classes[j_id])
    rows = []
    for s in range(S.n):
        row = []
        for v in rees.v:
            y = S.mul(v, s)
            row.append((rees.coord[y][2], rees.coord[y][1]) if y in jset else None)
        rows.append(tuple(row))
    return rows


@pytest.mark.parametrize("case", sorted(ACTION_CASES))
def test_actions_match_mul(case):
    """Per element, the positions of the products in the point set, the
    sentinel len(points) where a product leaves it, packed as `bytes` up to
    255 points and as a tuple above: on all of S (where positions are
    elements), on every R-class on the right and on every L-class on the
    left."""
    semigroups = ACTION_CASES[case]()
    if case == "tables":
        semigroups.append(group_with_zero(257))  # 258 elements and a 257-element R-class
    for S in semigroups:
        g = S.green()
        for action, oracle, classes in ((S.right_action, right_action_oracle, g.r_classes),
                                        (S.left_action, left_action_oracle, g.l_classes)):
            for points in (range(S.n), *classes):
                acts = action(points)
                assert {type(a) for a in acts} == {bytes if len(points) <= 255 else tuple}
                assert list(map(tuple, acts)) == oracle(S, points), (S, points)
    if case == "tables":
        assert any(list(S._order) != list(range(S.n)) for S in semigroups)
        assert max(map(len, semigroups[-1].green().r_classes)) == 257


@pytest.mark.parametrize("case", sorted(ACTION_CASES))
def test_representations_match_mul_oracle(case):
    """The wreath embedding on each regular J-class: its rows are the action
    on the column representatives and its supports the RLM action on the
    L-classes; a J-class that is not regular is refused."""
    for S in ACTION_CASES[case]():
        g = S.green()
        for c in range(len(g.j_classes)):
            if not g.regular[c]:
                with pytest.raises(NotRegular):
                    wreath_embed(S, c)
                continue
            e0 = min(x for x in g.j_classes[c] if S.is_idempotent(x))
            assert g.anchor(c) == e0

            l_ids = sorted({g.l_class[x] for x in g.j_classes[c]},
                           key=lambda l: (l != g.l_class[e0], min(g.l_classes[l])))
            rees = rees_coordinates(S, c)
            assert rees.b_ids == tuple(l_ids)
            rows = wreath_rows_oracle(S, c, rees)
            if len(set(rows)) != S.n:
                with pytest.raises(NotFaithful):
                    wreath_embed(S, c)
            else:
                mats = wreath_embed(S, c).matrices
                assert [m.rows for m in mats] == rows
                assert [m.support() for m in mats] == rlm_maps_oracle(S, c, l_ids)


def test_zero_minimal_j_classes_match_definition():
    for S in ACTION_CASES["corpus"]() + ACTION_CASES["tables"]():
        if S.zero is None:
            continue
        g = S.green()
        z = g.j_class[S.zero]
        expect = [c for c in range(len(g.j_classes)) if c != z
                  and all(d in (c, z) for d in range(len(g.j_classes)) if g.leq_j(d, c))]
        assert g.zero_minimal_j_classes(S.zero) == expect
