from __future__ import annotations

import random

import pytest

from sdfam import (
    GroupAxiomError,
    InvalidParameterError,
    Subgroup,
    all_subgroups,
    build_cyclic,
    build_direct_product,
    build_elementary_abelian,
    build_from_cayley,
    is_subgroup,
    subgroup_generated,
)
from sdfam.groups import MAX_ORDER

import support


def test_cyclic_z2_table():
    g = build_cyclic(2)
    assert g.array.tolist() == [[0, 1], [1, 0]]
    assert g.commutative


def test_cyclic_addition_mod_n(z7):
    assert z7.add(3, 5) == 1
    assert z7.neg(3) == 4
    assert z7.sub(2, 5) == 4


def test_cyclic_rejects_trivial_order():
    with pytest.raises(InvalidParameterError):
        build_cyclic(1)


def test_elementary_abelian_componentwise(ea9):
    # index 1 is the digit vector (1,0), index 2 is (2,0)
    assert ea9.add(1, 2) == 0
    assert ea9.order == 9


def test_elementary_abelian_exponent_two(ea4):
    assert all(ea4.add(x, x) == 0 for x in ea4.elements())


def test_elementary_abelian_needs_prime():
    with pytest.raises(InvalidParameterError):
        build_elementary_abelian(4, 1)


def test_product_of_z2_z3_is_cyclic_of_order_6():
    g = build_direct_product([build_cyclic(2), build_cyclic(3)])
    assert g.order == 6
    orders = sorted(support.element_order(g, x) for x in g.elements())
    assert 6 in orders  # an element of order 6 exhibits the Z_6 isomorphism


def test_unary_product_is_identity():
    z3 = build_cyclic(3)
    assert build_direct_product([z3]).array.tolist() == z3.array.tolist()


def test_product_z2_z2_has_exponent_two():
    g = build_direct_product([build_cyclic(2), build_cyclic(2)])
    assert all(support.element_order(g, x) == 2 for x in g.nonzero())


def test_product_rejects_empty_list():
    with pytest.raises(InvalidParameterError):
        build_direct_product([])


def test_cayley_accepts_z3():
    g = build_from_cayley([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert g.order == 3 and g.commutative


def test_cayley_rejects_bad_identity_row():
    with pytest.raises(GroupAxiomError) as err:
        build_from_cayley([[1, 0, 2], [0, 2, 1], [2, 1, 0]])
    assert err.value.axiom == "identity"


def test_cayley_rejects_missing_inverse_with_witness():
    with pytest.raises(GroupAxiomError) as err:
        build_from_cayley([[0, 1], [1, 1]])
    assert err.value.axiom in ("inverse", "associativity")
    assert err.value.witness


def test_cayley_rejects_non_associative_table():
    # Z_4's table with two entries swapped away from associativity
    table = [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 2, 1]]
    with pytest.raises(GroupAxiomError) as err:
        build_from_cayley(table)
    assert err.value.axiom in ("associativity", "inverse")


def test_order_cap_enforced():
    with pytest.raises(InvalidParameterError, match="group order 513 exceeds the cap 512"):
        build_cyclic(MAX_ORDER + 1)


def test_ragged_table_is_rejected_by_shape():
    with pytest.raises(InvalidParameterError, match="addition table must be 2x2"):
        build_from_cayley([[0, 1], [1]])
    with pytest.raises(InvalidParameterError, match="addition table must be 2x2"):
        build_from_cayley([[0, 1, 2], [1, 0, 2]])


def test_table_length_is_capped_before_any_entry_is_read():
    row = ["not an integer"] * 600
    with pytest.raises(InvalidParameterError, match="group order 600 exceeds the cap 512"):
        build_from_cayley([row] * 600)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 12])
def test_axioms_hold_exhaustively(n):
    g = build_cyclic(n)
    for x in g.elements():
        assert g.add(0, x) == x and g.add(x, 0) == x
        assert g.add(x, g.neg(x)) == 0
        for y in g.elements():
            for z in g.elements():
                assert g.add(g.add(x, y), z) == g.add(x, g.add(y, z))


def test_nonabelian_fixture_tables_are_valid(s3, d4, q8_group):
    assert not s3.commutative and s3.order == 6
    assert not d4.commutative and d4.order == 8
    assert not q8_group.commutative and q8_group.order == 8
    # quaternions: one element of order 2, six of order 4
    orders = sorted(support.element_order(q8_group, x) for x in q8_group.nonzero())
    assert orders == [2, 4, 4, 4, 4, 4, 4]


def test_subgroup_generated_in_z6(z6):
    assert subgroup_generated(z6, {2}).elements == (0, 2, 4)


def test_subgroup_generated_whole_group(z7):
    assert len(subgroup_generated(z7, {3})) == 7


def test_subgroup_generated_empty(ea4):
    assert subgroup_generated(ea4, set()).elements == (0,)


def test_is_subgroup_examples(z7, ea9):
    assert not is_subgroup(z7, {0, 1, 2, 4})  # 1+2=3 escapes
    for x in ea9.nonzero():
        assert is_subgroup(ea9, {0, x, ea9.add(x, x)})
    assert is_subgroup(z7, {0})


def test_is_subgroup_matches_the_pairwise_check_on_every_subset(s3, d4, q8_group):
    closed_under_negation_only = 0
    for group in (build_cyclic(8), build_elementary_abelian(2, 3), s3, d4, q8_group):
        for mask in range(1 << group.order):
            elems = {x for x in group.elements() if mask >> x & 1}
            negated = bool(elems) and all(group.neg(x) in elems for x in elems)
            added = all(group.add(x, y) in elems for x in elems for y in elems)
            assert is_subgroup(group, elems) == (negated and added)
            closed_under_negation_only += negated and not added
    assert closed_under_negation_only > 100


def test_generated_subgroups_pass_membership_and_lagrange(s3, d4, q8_group, z6, ea9):
    rng = random.Random(7)
    for group in (s3, d4, q8_group, z6, ea9):
        for _ in range(12):
            gens = rng.sample(range(group.order), rng.randint(0, 2))
            sub = subgroup_generated(group, gens)
            assert is_subgroup(group, sub.elements)
            assert group.order % len(sub) == 0


def test_closure_built_subgroups_equal_checked_ones(s3, d4, q8_group, z6, ea9):
    # subgroup_generated and all_subgroups skip the is_subgroup scan; a
    # Subgroup built from the same elements by the checking path is equal.
    for group in (s3, d4, q8_group, z6, ea9):
        for sub in all_subgroups(group):
            assert Subgroup(group, tuple(reversed(sub.elements))) == sub
            assert subgroup_generated(group, sub.elements) == sub


def test_user_supplied_subgroup_is_checked(z7, s3):
    with pytest.raises(InvalidParameterError):
        Subgroup(z7, (0, 1, 2))
    with pytest.raises(InvalidParameterError):
        Subgroup(s3, (0, 1, 2, 3))
    assert Subgroup(z7, (0, 0)).elements == (0,)


def test_all_subgroups_of_z6(z6):
    sizes = sorted(len(h) for h in all_subgroups(z6))
    assert sizes == [1, 2, 3, 6]


def test_all_subgroups_of_q8(q8_group):
    sizes = sorted(len(h) for h in all_subgroups(q8_group))
    assert sizes == [1, 2, 4, 4, 4, 8]


def test_validator_agrees_with_naive_scan():
    rng = random.Random(3)
    accepted = 0
    for _ in range(40):
        n = rng.randint(2, 5)
        table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        try:
            build_from_cayley(table)
            accepted += 1
            ok = True
        except InvalidParameterError:
            ok = False
        # naive axiom scan as the oracle
        naive = all(table[0][x] == x and table[x][0] == x for x in range(n))
        naive = naive and all(any(table[x][y] == 0 and table[y][x] == 0 for y in range(n))
                              for x in range(n))
        naive = naive and all(
            table[table[x][y]][z] == table[x][table[y][z]]
            for x in range(n) for y in range(n) for z in range(n))
        assert ok == naive
    # random tables are almost never groups; make sure the loop saw rejections
    assert accepted < 40
