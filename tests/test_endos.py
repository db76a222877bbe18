from __future__ import annotations

import random

import pytest

from sdfam import (
    HomomorphismError,
    HypothesisError,
    InvalidParameterError,
    build_cyclic,
    build_elementary_abelian,
    build_field,
    center,
    centralizes,
    classification_check,
    closure,
    cyclic_generated,
    field_mult_endo,
    fpf_failure,
    halving_endo,
    identity_endo,
    is_cyclic,
    is_fpf,
    make_endo,
    matrix_endo,
    normalizes,
    one_minus,
    orbit,
    order6_segment_set,
    scalar_endo,
    zero_endo,
)

import support


def test_scalar_doubling_accepted(z7):
    e = make_endo(z7, [(2 * x) % 7 for x in range(7)])
    assert e.table == scalar_endo(z7, 2).table


def test_swapped_table_rejected_with_witness(z7):
    table = [0, 2, 1, 3, 4, 5, 6]
    with pytest.raises(HomomorphismError) as err:
        make_endo(z7, table)
    x, y = err.value.witness
    assert table[z7.add(x, y)] != z7.add(table[x], table[y])


def test_zero_map_is_an_endomorphism(q8_group):
    make_endo(q8_group, [0] * q8_group.order)


def test_scalar_endo_wraps_modulo_order(z7):
    assert scalar_endo(z7, 8).table == identity_endo(z7).table


def test_scalar_endo_on_exponent_two_group(ea4):
    assert scalar_endo(ea4, 2).is_zero


def test_scalar_endo_requires_commutative(s3):
    with pytest.raises(InvalidParameterError):
        scalar_endo(s3, 2)


def test_matrix_endo_identity(ea9):
    assert matrix_endo(ea9, [[1, 0], [0, 1]]).is_identity


def test_matrix_endo_order_four(ea9):
    m = matrix_endo(ea9, [[0, 2], [1, 0]])
    assert m.order() == 4
    assert m.pow(2).table == scalar_endo(ea9, 2).table  # M^2 = -I


def test_singular_matrix_is_valid_but_not_bijective(ea9):
    m = matrix_endo(ea9, [[1, 0], [0, 0]])
    assert not m.is_bijective
    with pytest.raises(InvalidParameterError):
        m.order()


def test_matrix_endo_dimension_check(ea9):
    with pytest.raises(InvalidParameterError):
        matrix_endo(ea9, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_matrix_endo_needs_canonical_group(s3):
    # Z_7 is canonically (Z_7)^1, so 1x1 matrices are fine there
    assert matrix_endo(build_cyclic(7), [[2]]).table == scalar_endo(build_cyclic(7), 2).table
    with pytest.raises(InvalidParameterError):
        matrix_endo(build_cyclic(6), [[1]])  # not a prime power
    with pytest.raises(InvalidParameterError):
        matrix_endo(s3, [[1]])  # order 6, and not the canonical table either


def test_field_mult_matches_scalar():
    from sdfam import additive_group
    f7 = build_field(7, 1)
    group = additive_group(f7)
    assert field_mult_endo(f7, (2,)).table == scalar_endo(group, 2).table


def test_field_mult_identity(gf9):
    assert field_mult_endo(gf9, gf9.one).is_identity


def test_field_mult_by_x_has_order_four_under_default_modulus(gf9):
    e = field_mult_endo(gf9, gf9.element_at(3))
    assert e.order() == 4


def test_one_minus_scalar_two(z7):
    chk = one_minus(scalar_endo(z7, 2))
    assert chk.table == scalar_endo(z7, 6).table
    assert chk.is_endomorphism and chk.is_bijective


def test_one_minus_identity_is_zero(z7):
    chk = one_minus(identity_endo(z7))
    assert chk.is_endomorphism and not chk.is_bijective
    assert chk.table == (0,) * 7


def test_one_minus_order_six_equals_fifth_power(z7):
    alpha = scalar_endo(z7, 3)
    chk = one_minus(alpha)
    assert chk.table == scalar_endo(z7, 5).table
    assert chk.table == alpha.pow(5).table


def test_closure_of_scalar_three_mod_7(z7):
    phi = closure([scalar_endo(z7, 3)])
    assert len(phi) == 6


def test_closure_of_scalar_two_mod_7(z7, z7_ferrero_endos):
    assert len(z7_ferrero_endos) == 3
    tables = {e.table for e in z7_ferrero_endos}
    assert tables == {scalar_endo(z7, c).table for c in (1, 2, 4)}


def test_quaternion_closure_census(quaternion_endos):
    assert len(quaternion_endos) == 8
    orders = sorted(e.order() for e in quaternion_endos)
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def test_closure_rejects_singular_generator(ea9):
    with pytest.raises(InvalidParameterError):
        closure([matrix_endo(ea9, [[1, 0], [0, 0]])])


def test_fpf_true_on_z7_units(z7_ferrero_endos):
    assert is_fpf(z7_ferrero_endos)


def test_fpf_failure_on_z8():
    z8 = build_cyclic(8)
    phi = closure([scalar_endo(z8, 3)])
    witness = fpf_failure(phi)
    assert witness is not None and witness.x == 4  # 3*4 = 4 mod 8


def test_singleton_identity_is_fpf(z7):
    assert is_fpf([identity_endo(z7)])


def test_fpf_nonidentity_members_have_no_fixed_points(quaternion_endos):
    for e in quaternion_endos:
        if not e.is_identity:
            assert all(e(x) != x for x in e.group.nonzero())


def test_orbit_evaluation(z7):
    maps = [zero_endo(z7)] + [scalar_endo(z7, c) for c in (1, 2, 4)]
    assert orbit(maps, 1) == (0, 1, 2, 4)
    maps2 = [zero_endo(z7), scalar_endo(z7, 1), scalar_endo(z7, 4)]
    assert orbit(maps2, 6) == (0, 3, 6)
    assert orbit([identity_endo(z7)], 5) == (5,)


def test_pairwise_differences_of_fpf_set_are_bijective(z7, quaternion_endos):
    for maps in ([zero_endo(z7)] + [scalar_endo(z7, c) for c in (1, 2, 4)],
                 list(quaternion_endos)):
        for i, a in enumerate(maps):
            for b in maps[i + 1:]:
                diff = support.difference_table(a, b)
                assert len(set(diff)) == a.group.order


def test_center_of_abelian_closure_is_everything(z7):
    phi = closure([scalar_endo(z7, 3)])
    assert len(center(phi)) == 6


def test_center_of_quaternion_closure(quaternion_endos):
    z = center(quaternion_endos)
    assert len(z) == 2


def test_cyclicity_checks(z7, quaternion_endos):
    assert is_cyclic(closure([scalar_endo(z7, 3)]))
    assert not is_cyclic(quaternion_endos)


def test_normalizes_and_centralizes_validate_closure(z7):
    alpha = scalar_endo(z7, 2)
    with pytest.raises(InvalidParameterError):
        normalizes(alpha, [scalar_endo(z7, 2)])  # not closed: misses identity


def test_classification_of_cyclic_order_six(z7):
    report = classification_check(closure([scalar_endo(z7, 3)]))
    assert report.quotient_order == 1 and report.member


def test_classification_of_quaternion(quaternion_endos):
    report = classification_check(quaternion_endos)
    assert report.center_order == 2
    assert report.quotient_order == 4
    assert not report.member


def test_classification_of_trivial_group(z7):
    report = classification_check([identity_endo(z7)])
    assert report.quotient_order == 1 and report.member


def test_halving_on_z7(z7):
    assert halving_endo(z7).table == scalar_endo(z7, 4).table


def test_halving_on_elementary_abelian_3(ea9):
    assert halving_endo(ea9).table == scalar_endo(ea9, 2).table


def test_halving_fails_on_exponent_two(ea4):
    with pytest.raises(InvalidParameterError):
        halving_endo(ea4)


def test_order6_segment_set_on_z7(z7):
    phi = closure([scalar_endo(z7, 3)])
    maps = order6_segment_set(phi)
    assert {m.table for m in maps} == {scalar_endo(z7, c).table for c in (0, 1, 3, 5)}
    # the order-6 members satisfy 1 - alpha = alpha^5 exactly
    for m in maps:
        if m.is_bijective and m.order() == 6:
            assert one_minus(m).table == m.pow(5).table


def test_order6_segment_set_needs_divisibility(z7_ferrero_endos):
    with pytest.raises(HypothesisError) as err:
        order6_segment_set(z7_ferrero_endos)  # order 3
    assert err.value.condition == "6 divides |Φ|"


def test_order6_segment_set_on_gf13(z13):
    phi = closure([scalar_endo(z13, 2)])  # 2 generates all units mod 13
    assert len(phi) == 12
    maps = order6_segment_set(phi)
    assert {m.table for m in maps} == {scalar_endo(z13, c).table for c in (0, 1, 4, 10)}


def test_one_minus_automorphism_forces_abelian(s3, d4, q8_group):
    # exhaustive over every automorphism of each non-abelian fixture
    for group in (s3, d4, q8_group):
        for table in support.all_automorphism_tables(group):
            chk = one_minus(make_endo(group, table))
            assert not (chk.is_endomorphism and chk.is_bijective)


def test_one_minus_implication_on_random_tables():
    rng = random.Random(11)
    groups = [build_cyclic(n) for n in (3, 4, 5, 6)] + [
        build_elementary_abelian(2, 2),
        support.symmetric_group(3),
    ]
    hits = 0
    for _ in range(600):
        group = rng.choice(groups)
        table = [rng.randrange(group.order) for _ in range(group.order)]
        try:
            alpha = make_endo(group, table)
        except HomomorphismError:
            continue
        chk = one_minus(alpha)
        if alpha.is_bijective and chk.is_endomorphism and chk.is_bijective:
            hits += 1
            assert group.commutative
    assert hits > 0  # the implication must not hold vacuously


def test_normalizing_pair_must_centralize(quaternion_endos, z7):
    # for fpf groups: alpha and 1-alpha both normalizing a cyclic subgroup
    # forces both to centralize it
    for phi in (quaternion_endos, closure([scalar_endo(z7, 3)])):
        tables = {e.table for e in phi}
        for alpha in phi:
            om = one_minus(alpha)
            if om.table not in tables:
                continue
            other = next(e for e in phi if e.table == om.table)
            for gen in phi:
                sub = cyclic_generated(gen)
                if normalizes(alpha, sub) and normalizes(other, sub):
                    assert centralizes(alpha, sub)
                    assert centralizes(other, sub)


def test_closure_output_is_a_group(quaternion_endos):
    tables = {e.table for e in quaternion_endos}
    for a in quaternion_endos:
        assert a.inverse().table in tables
        for b in quaternion_endos:
            assert a.compose(b).table in tables


def test_duplicate_maps_collapse_to_set_semantics(z7):
    # identical tables count once, so a doubled identity is still fpf
    assert is_fpf([identity_endo(z7), scalar_endo(z7, 1)])
    from sdfam.endos import dedup_endos
    maps = [identity_endo(z7), scalar_endo(z7, 2), scalar_endo(z7, 1)]
    assert [m.table[1] for m in dedup_endos(maps)] == [1, 2]
